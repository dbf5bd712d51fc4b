"""Static decode table for the timing model.

Everything the timing core needs to know about an instruction is a static
property of the program text: sources, destination, FU class, latency,
queue-protocol flags, branch kind.  The old hot loops re-derived all of it
per *dynamic* instruction through ``instr.op.info`` — an Enum descriptor
lookup plus several property calls, seven-plus attribute chains per
instruction retired.  :func:`decode_program` resolves them once per
*static* instruction into a flat :class:`DecodedOp` record (plain slots,
ints and tuples), and the machine indexes the table by PC.

This is purely a performance structure: every field is defined by exactly
the expression the scheduler used to evaluate inline, so consuming the
table cannot change timing.

The same records drive the whole-trace derivations (warm-up positions,
queue and CMAS plans, the warming probe, the cache profiler, the oracle's
store order): :func:`flag_table` turns one field into a numpy array
indexed by pc, so a position stream is one gather over a trace's pc
column (:meth:`repro.sim.trace.Trace.positions`) instead of a Python loop
over the trace.
"""

from __future__ import annotations

import numpy as np

from ..isa.instruction import Instruction
from ..isa.opcodes import Op
from .fu import FU_INDEX

#: Branch kinds for the front-end predictor (see ``Machine._separator_step``):
#: 0 — not a predicted control instruction (includes HALT), 1 — conditional
#: branch, 2 — indirect jump (JR), 3 — direct jump (J/JAL).
CTRL_NONE, CTRL_COND, CTRL_INDIRECT, CTRL_DIRECT = 0, 1, 2, 3


class DecodedOp:
    """One statically decoded instruction (see module docstring)."""

    __slots__ = ("instr", "mnemonic", "stream", "fu", "latency", "srcs",
                 "dest", "is_load", "is_store", "is_mem", "is_control",
                 "ctrl_kind", "reads_ldq_any", "ldq_push", "ldq_pops",
                 "sdq_push", "sdq_pop", "queue_push", "has_queue",
                 "block_class", "cmas", "probable_miss")

    def __init__(self, instr: Instruction):
        info = instr.op.info
        ann = instr.ann
        self.instr = instr
        self.mnemonic = instr.op.mnemonic
        self.stream = ann.stream  # None on unannotated (baseline) text
        self.fu = FU_INDEX[info.fu]
        self.latency = info.latency
        # Register sources exactly as dispatch resolved them: "$LDQ"-flagged
        # operands take their value from the queue, not the register file.
        srcs = instr.source_regs()
        if ann.ldq_rs1 or ann.ldq_rs2:
            srcs = tuple(
                reg for reg, flagged in
                ((instr.rs1, ann.ldq_rs1), (instr.rs2, ann.ldq_rs2))
                if not flagged and reg != 0 and reg in srcs
            )
        self.srcs = srcs
        self.dest = instr.dest_reg()
        self.is_load = info.is_load
        self.is_store = info.is_store
        self.is_mem = info.is_load or info.is_store
        self.is_control = info.is_control
        if not info.is_control or instr.op is Op.HALT:
            self.ctrl_kind = CTRL_NONE
        elif instr.is_branch:
            self.ctrl_kind = CTRL_COND
        elif instr.op is Op.JR:
            self.ctrl_kind = CTRL_INDIRECT
        else:  # J / JAL: target known at decode.
            self.ctrl_kind = CTRL_DIRECT
        # Queue-protocol flags (LDQ/SDQ dependence edges + telemetry taps).
        self.reads_ldq_any = info.reads_ldq or ann.ldq_rs1 or ann.ldq_rs2
        self.ldq_push = info.writes_ldq or (info.is_load and ann.to_ldq)
        self.ldq_pops = (int(info.reads_ldq) + int(ann.ldq_rs1)
                         + int(ann.ldq_rs2))
        self.sdq_push = info.writes_sdq or ann.to_sdq
        self.sdq_pop = info.is_store and ann.sdq_data
        #: does issue push onto an architectural queue (fault-injection hook)
        self.queue_push = self.ldq_push or self.sdq_push
        #: any LDQ/SDQ participation at all — lets dispatch skip the whole
        #: queue-dependence block for plain ALU/branch instructions.
        self.has_queue = (self.reads_ldq_any or self.ldq_push
                          or self.sdq_push or self.sdq_pop)
        # Dependence-stall classification, read by the core's stall and
        # CPI-stack attribution (first matching class wins).
        if self.reads_ldq_any:
            self.block_class = "ldq_empty"
        elif info.writes_ldq or info.writes_sdq or ann.to_ldq or ann.to_sdq:
            self.block_class = "queue_full"
        elif self.sdq_pop:
            self.block_class = "sdq_empty"
        else:
            self.block_class = "data_dep"
        # CMAS membership and the profile's probable-miss mark (CMAS plans).
        self.cmas = ann.cmas
        self.probable_miss = ann.probable_miss


def decode_program(text: list[Instruction]) -> list[DecodedOp]:
    """Decode *text* (one record per static instruction, indexed by PC).

    Must run after stream separation: the slicer's annotations (``$LDQ``
    operands, ``to_ldq``/``to_sdq`` routing) are part of the decode.
    """
    return [DecodedOp(instr) for instr in text]


def flag_table(decoded: list[DecodedOp], name: str) -> np.ndarray:
    """Field *name* of every record as an array indexed by pc.

    Gathering it with a trace's pc column gives the per-position values
    in one vector operation (see the module docstring).
    """
    return np.array([getattr(d, name) for d in decoded])
