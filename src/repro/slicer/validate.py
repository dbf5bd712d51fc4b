"""Static validation of separated and decoupled programs (DESIGN.md
invariants).

* :func:`validate_separation` — on the *original* program: the Access
  Stream is closed under the chased register dependences, and the
  Computation Stream contains no memory or control instructions.
* :func:`validate_decoupled_static` — structural sanity of the decoupled
  program: every instruction has a stream, communication opcodes sit in
  the right stream, SDQ flags appear only on stores, control stays in AS.

The dynamic soundness proof runs when a compilation is prepared:
:func:`repro.experiments.runner.prepare` executes the original
sequentially and the decoupled program on split CP/AP register files
connected by live queues, and
:func:`repro.resilience.oracle.check_equivalence` requires drained queues,
identical memories, surviving registers and the same store order.
"""

from __future__ import annotations

from ..asm.program import Program
from ..errors import ValidationError
from ..isa.instruction import Stream
from ..isa.registers import ZERO
from .dataflow import ENTRY_DEF
from .separation import SeparationResult


def validate_separation(sep: SeparationResult) -> None:
    """Check the AS-closure invariant on the original program."""
    text = sep.program.text
    stream_of = sep.stream_of
    def_use = sep.pfg.def_use
    for pc, instr in enumerate(text):
        stream = stream_of[pc]
        if stream is Stream.CS:
            if instr.is_mem:
                raise ValidationError(f"memory instruction at pc {pc} is CS")
            if instr.is_control:
                raise ValidationError(f"control instruction at pc {pc} is CS")
            continue
        # AS: every chased source must be produced by AS (or be live-in).
        if instr.is_store:
            chased = (instr.rs1,) if instr.rs1 != ZERO else ()
        else:
            chased = instr.source_regs()
        for reg in chased:
            for d in def_use.defs_for_use(pc, reg):
                if d != ENTRY_DEF and stream_of[d] is not Stream.AS:
                    raise ValidationError(
                        f"AS instruction at pc {pc} reads r{reg} defined by "
                        f"CS instruction at pc {d} (closure violation)"
                    )


def validate_decoupled_static(program: Program) -> None:
    """Structural checks on a decoupled (communication-bearing) program."""
    for pc, instr in enumerate(program.text):
        info = instr.op.info
        ann = instr.ann
        if ann.stream is Stream.NONE:
            raise ValidationError(f"pc {pc}: missing stream annotation")
        if ann.sdq_data and not instr.is_store:
            raise ValidationError(f"pc {pc}: sdq_data on a non-store")
        if ann.to_ldq and not (instr.is_load and ann.stream is Stream.AS):
            raise ValidationError(f"pc {pc}: to_ldq on a non-AS-load")
        if (ann.ldq_rs1 or ann.ldq_rs2) and ann.stream is not Stream.CS:
            raise ValidationError(f"pc {pc}: $LDQ operand outside the CS")
        if ann.to_sdq:
            if ann.stream is not Stream.CS:
                raise ValidationError(f"pc {pc}: to_sdq outside the CS")
            if instr.dest_reg() is None:
                raise ValidationError(
                    f"pc {pc}: to_sdq on an instruction without a destination"
                )
        if info.reads_ldq and ann.stream is not Stream.CS:
            raise ValidationError(f"pc {pc}: pop.ldq outside the CS")
        if info.writes_ldq and ann.stream is not Stream.AS:
            raise ValidationError(f"pc {pc}: push.ldq outside the AS")
        if info.writes_sdq and ann.stream is not Stream.CS:
            raise ValidationError(f"pc {pc}: push.sdq outside the CS")
        if ann.stream is Stream.CS and (instr.is_mem or instr.is_control):
            raise ValidationError(
                f"pc {pc}: {instr.op.mnemonic} routed to the CP"
            )
        if ann.cmas and (instr.is_store or instr.is_control):
            raise ValidationError(f"pc {pc}: store/control marked CMAS")
        if ann.probable_miss and not instr.is_load:
            raise ValidationError(f"pc {pc}: probable_miss on a non-load")
