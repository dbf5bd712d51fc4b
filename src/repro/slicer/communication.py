"""Communication insertion (paper §4.2, "Insert Communication Instructions").

Builds the *decoupled program*: a copy of the separated program with the
queue communication the paper shows in Figure 6.  Three mechanisms, from
cheapest to most general:

1. **$LDQ operands** — an Access-Stream definition whose single
   Computation-Stream use sits later in the same basic block is delivered
   *through the queue into the operand*: the producing load gets the
   ``to_ldq`` annotation (``l.d $LDQ, ...``), ALU producers get a
   ``push.ldq``, and the consuming instruction's operand is flagged
   ``ldq_rs1``/``ldq_rs2`` (``mul.d $f4, $LDQ, $LDQ``).  Zero extra CP
   instructions.
2. **pop-to-register** — definitions with several CS uses (or uses in
   other blocks) are pushed once per definition and received by an
   inserted ``pop.ldq`` that writes the CP's copy of the register,
   immediately after the producer in the sequential stream.  All later CS
   uses read the CP register file.
3. **$SDQ results** — a store whose data is produced by the CS takes it
   from the SDQ (``s.d $SDQ, ...``).  If the producing CS instruction is
   unique and earlier in the same block it deposits its result directly
   (``to_sdq``); otherwise a ``push.sdq`` is inserted just before the
   store.

Because both streams are carved out of one sequential instruction stream,
queue matching is FIFO by construction **provided** pushes and pops
interleave consistently.  Mechanisms 2 and 3 (adjacent insertion) are
trivially safe; mechanism 1 opens a push-to-pop *span* inside a block, so
an exact per-block FIFO simulation (:func:`_resolve_fifo_conflicts`)
demotes any span that would cross another queue event out of order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..asm.program import Program
from ..errors import SlicingError
from ..isa.instruction import Instruction, Stream
from ..isa.opcodes import Format, Op
from ..isa.registers import ZERO, is_fp_reg
from .dataflow import ENTRY_DEF
from .separation import SeparationResult

#: Formats whose rs2 field is a source operand (for slot counting).
_RS2_SOURCE_FORMATS = (Format.R3,)


@dataclass
class DecoupledProgram:
    """The decoupled program plus the maps back to the original."""

    program: Program
    #: original pc -> new index of the start of its instruction group
    #: (branch targets point here).
    group_map: list[int] = field(default_factory=list)
    #: original pc -> new index of the original instruction itself
    #: (annotation transfer points here).
    instr_map: list[int] = field(default_factory=list)
    #: pop-to-register transfers (mechanism 2).
    ldq_pairs: int = 0
    #: $LDQ operand transfers (mechanism 1).
    ldq_operands: int = 0
    #: stores taking data from the SDQ.
    sdq_stores: int = 0
    #: of those, how many producers deposit directly ($SDQ results).
    sdq_direct: int = 0


def _source_slots(instr: Instruction) -> list[tuple[str, int]]:
    """(slot name, register) pairs of the instruction's register sources."""
    fmt = instr.op.info.fmt
    slots: list[tuple[str, int]] = []
    if fmt in (Format.R3, Format.R2, Format.RI):
        slots.append(("rs1", instr.rs1))
        if fmt in _RS2_SOURCE_FORMATS:
            slots.append(("rs2", instr.rs2))
    return slots


def _select_ldq_candidates(sep: SeparationResult, needs_ldq: list[bool],
                           sdq_data_use: list[bool]) -> dict[int, tuple[int, str]]:
    """Mechanism-1 candidates: def pc -> (use pc, flagged slot).

    A definition qualifies when its Computation-Stream consumption is a
    single use, in the same basic block, strictly later, with this
    definition as the unique reaching def of that operand — and when no
    inserted ``push.sdq`` needs the CP's register copy.
    """
    text = sep.program.text
    stream_of = sep.stream_of
    def_use = sep.pfg.def_use
    block_of = sep.pfg.cfg.block_of
    candidates: dict[int, tuple[int, str]] = {}
    for d in range(len(text)):
        if not needs_ldq[d] or sdq_data_use[d]:
            continue
        cs_uses = [
            (u, reg) for (u, reg) in def_use.uses_of_def.get(d, ())
            if stream_of[u] is Stream.CS
        ]
        if len(cs_uses) != 1:
            continue
        u, reg = cs_uses[0]
        if block_of[u] != block_of[d] or u <= d:
            continue
        if def_use.defs_for_use(u, reg) != {d}:
            continue
        use_instr = text[u]
        slots = [(name, r) for name, r in _source_slots(use_instr) if r == reg]
        if len(slots) != 1:
            continue  # operand appears twice (or not at all) — keep the pop
        candidates[d] = (u, slots[0][0])
    return candidates


def _select_sdq_candidates(sep: SeparationResult,
                           sdq_store: list[bool]) -> dict[int, int]:
    """Mechanism-3 candidates: store pc -> producer pc (``to_sdq``)."""
    text = sep.program.text
    stream_of = sep.stream_of
    def_use = sep.pfg.def_use
    block_of = sep.pfg.cfg.block_of
    candidates: dict[int, int] = {}
    # How many SDQ stores each definition feeds (a direct producer must
    # feed exactly one, or push/pop counts diverge).
    feeds: dict[int, int] = {}
    for s in range(len(text)):
        if not sdq_store[s]:
            continue
        for d in def_use.defs_for_use(s, text[s].rs2):
            feeds[d] = feeds.get(d, 0) + 1
    for s in range(len(text)):
        if not sdq_store[s]:
            continue
        defs = def_use.defs_for_use(s, text[s].rs2)
        if len(defs) != 1:
            continue
        (d,) = defs
        if d == ENTRY_DEF or stream_of[d] is not Stream.CS:
            continue
        if block_of[d] != block_of[s] or d >= s:
            continue
        if feeds.get(d, 0) != 1:
            continue
        if text[d].dest_reg() is None:
            continue
        candidates[s] = d
    return candidates


def _resolve_fifo_conflicts(sep: SeparationResult, needs_ldq: list[bool],
                            sdq_store: list[bool],
                            ldq_cand: dict[int, tuple[int, str]],
                            sdq_cand: dict[int, int]) -> None:
    """Demote operand-span candidates that would break FIFO order.

    Simulates each basic block's queue traffic exactly as it will execute;
    whenever a pop would not find its own push at the head, the span
    blocking the head is demoted to the adjacent (always-safe) mechanism
    and the simulation restarts.  Terminates because every restart removes
    a candidate.  Mutates *ldq_cand* / *sdq_cand* in place.
    """
    text = sep.program.text
    blocks = sep.pfg.cfg.blocks

    def simulate() -> int | None:
        """Returns a def pc to demote (LDQ) or -store pc - 1 (SDQ), or None."""
        ldq_pops_by_use: dict[int, list[int]] = {}
        for d, (u, slot) in ldq_cand.items():
            ldq_pops_by_use.setdefault(u, []).append(d)
        for u, defs in ldq_pops_by_use.items():
            # rs1's pop precedes rs2's: order by flagged slot.
            defs.sort(key=lambda d: 0 if ldq_cand[d][1] == "rs1" else 1)
        producers = set(sdq_cand.values())
        for block in blocks:
            ldq: list[int] = []
            sdq: list[int] = []
            for pc in range(block.start, block.end):
                if needs_ldq[pc]:
                    ldq.append(pc)
                    if pc not in ldq_cand:
                        # Adjacent pop: must find itself at the head.
                        if ldq[0] != pc:
                            return ldq[0]
                        ldq.pop(0)
                for d in ldq_pops_by_use.get(pc, ()):
                    if not ldq or ldq[0] != d:
                        return ldq[0] if ldq else d
                    ldq.pop(0)
                if pc in producers:
                    sdq.append(pc)
                if sdq_store[pc]:
                    d = sdq_cand.get(pc)
                    if d is None:
                        # push.sdq inserted adjacently: head must be free.
                        if sdq:
                            return -sdq[0] - 1  # demote blocking producer
                    else:
                        if not sdq or sdq[0] != d:
                            return (-sdq[0] - 1) if sdq else (-d - 1)
                        sdq.pop(0)
            if ldq:
                return ldq[0]
            if sdq:
                return -sdq[0] - 1
        return None

    while True:
        verdict = simulate()
        if verdict is None:
            return
        if verdict >= 0:
            if verdict not in ldq_cand:
                raise SlicingError(
                    f"FIFO conflict at pc {verdict} cannot be resolved"
                )
            del ldq_cand[verdict]
        else:
            producer = -verdict - 1
            stores = [s for s, d in sdq_cand.items() if d == producer]
            if not stores:
                raise SlicingError(
                    f"SDQ FIFO conflict at producer pc {producer} cannot be "
                    f"resolved"
                )
            for s in stores:
                del sdq_cand[s]


def insert_communication(sep: SeparationResult) -> DecoupledProgram:
    """Build the decoupled program from a separation result."""
    original = sep.program
    text = original.text
    n = len(text)
    stream_of = sep.stream_of
    def_use = sep.pfg.def_use

    # --- step 1: which stores take their data from the SDQ? -------------
    sdq_store = [False] * n
    for pc, instr in enumerate(text):
        if not instr.is_store or instr.rs2 == ZERO:
            continue
        for d in def_use.defs_for_use(pc, instr.rs2):
            if d != ENTRY_DEF and stream_of[d] is Stream.CS:
                sdq_store[pc] = True
                break

    # --- step 2: which AS definitions must reach the CP? ----------------
    needs_ldq = [False] * n
    sdq_data_use = [False] * n   # def feeds an SDQ store's data operand
    for pc, instr in enumerate(text):
        if stream_of[pc] is not Stream.AS:
            continue
        dest = instr.dest_reg()
        if dest is None:
            continue
        for use_pc, reg in def_use.uses_of_def.get(pc, ()):
            use_instr = text[use_pc]
            if stream_of[use_pc] is Stream.CS:
                needs_ldq[pc] = True
            elif sdq_store[use_pc] and reg == use_instr.rs2:
                # The inserted push.sdq reads the CP's copy of this register.
                needs_ldq[pc] = True
                sdq_data_use[pc] = True
        if needs_ldq[pc] and instr.is_control:
            raise SlicingError(
                f"control instruction at pc {pc} defines a register consumed "
                f"by the Computation Stream; cannot place its LDQ push"
            )

    # --- step 2.5: operand-level delivery where FIFO order allows it ----
    ldq_cand = _select_ldq_candidates(sep, needs_ldq, sdq_data_use)
    sdq_cand = _select_sdq_candidates(sep, sdq_store)
    _resolve_fifo_conflicts(sep, needs_ldq, sdq_store, ldq_cand, sdq_cand)
    flagged_uses: dict[int, list[tuple[str, int]]] = {}
    for d, (u, slot) in ldq_cand.items():
        flagged_uses.setdefault(u, []).append((slot, d))

    # --- step 3: emit ------------------------------------------------------
    new_text: list[Instruction] = []
    group_map = [0] * n
    instr_map = [0] * n
    result = DecoupledProgram(
        program=Program(name=f"{original.name}.hidisc"),
        group_map=group_map,
        instr_map=instr_map,
    )

    def emit(instr: Instruction, stream: Stream) -> Instruction:
        instr.ann.stream = stream
        new_text.append(instr)
        return instr

    for pc in range(n):
        instr = text[pc].copy()
        stream = stream_of[pc]
        group_map[pc] = len(new_text)
        if sdq_store[pc]:
            producer = sdq_cand.get(pc)
            if producer is not None:
                # Mechanism 3: the producer deposits directly ("$SDQ" dest).
                new_text[instr_map[producer]].ann.to_sdq = True
                result.sdq_direct += 1
            else:
                push_op = Op.PUSH_SDQF if instr.op.info.is_fp else Op.PUSH_SDQ
                emit(Instruction(op=push_op, rs1=instr.rs2,
                                 comment=f"data for store @{pc}"), Stream.CS)
            instr.ann.sdq_data = True
            result.sdq_stores += 1
        for slot, _d in flagged_uses.get(pc, ()):
            # Mechanism 1: this operand reads "$LDQ".
            setattr(instr.ann, f"ldq_{slot}", True)
            result.ldq_operands += 1
        instr_map[pc] = len(new_text)
        emit(instr, stream)
        if needs_ldq[pc]:
            dest = instr.dest_reg()
            fp = is_fp_reg(dest)
            if instr.is_load:
                # Loads deposit straight into the LDQ ("$LDQ" destination).
                instr.ann.to_ldq = True
            else:
                push_op = Op.PUSH_LDQF if fp else Op.PUSH_LDQ
                emit(Instruction(op=push_op, rs1=dest,
                                 comment=f"AS->CS from @{pc}"), Stream.AS)
            if pc not in ldq_cand:
                # Mechanism 2: receive into the CP's register copy.
                pop_op = Op.POP_LDQF if fp else Op.POP_LDQ
                emit(Instruction(op=pop_op, rd=dest,
                                 comment=f"CS recv from @{pc}"), Stream.CS)
                result.ldq_pairs += 1

    # --- step 4: retarget control flow --------------------------------------
    for instr in new_text:
        if instr.op.info.fmt in (Format.BRANCH, Format.BRANCH1, Format.JUMP):
            instr.target = group_map[instr.target]

    program = result.program
    program.text = new_text
    program.data = bytearray(original.data)
    program.data_symbols = dict(original.data_symbols)
    program.text_symbols = {
        name: group_map[pc] for name, pc in original.text_symbols.items()
    }
    program.entry = group_map[original.entry]
    program.validate()
    return result
