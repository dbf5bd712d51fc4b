"""The branch predictor: Table 1's bimodal 2-bit table plus a BTB.

The predictor answers *taken or not-taken*; the branch-target buffer (BTB)
supplies targets for taken predictions and for register-indirect jumps.
A prediction is *wrong* if either the direction or the target is wrong —
the timing cores treat both identically (front-end redirect at resolve).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import BranchConfig


@dataclass
class BranchStats:
    """Prediction accuracy counters."""

    lookups: int = 0
    mispredicts: int = 0

    @property
    def accuracy(self) -> float:
        if self.lookups == 0:
            return 1.0
        return 1.0 - self.mispredicts / self.lookups


class BranchTargetBuffer:
    """Direct-mapped, tagged BTB: pc -> last observed target."""

    def __init__(self, size: int):
        self.mask = size - 1
        self._tags: list[int] = [-1] * size
        self._targets: list[int] = [0] * size

    def lookup(self, pc: int) -> int | None:
        index = pc & self.mask
        if self._tags[index] == pc:
            return self._targets[index]
        return None

    def update(self, pc: int, target: int) -> None:
        index = pc & self.mask
        self._tags[index] = pc
        self._targets[index] = target


class BranchPredictor:
    """Bimodal direction predictor (2-bit counters indexed by pc) + BTB."""

    def __init__(self, config: BranchConfig):
        self.config = config
        self.btb = BranchTargetBuffer(config.btb_size)
        self.stats = BranchStats()
        self._mask = config.table_size - 1
        # 2-bit saturating counters, initialised weakly taken.
        self._table = [2] * config.table_size

    # ------------------------------------------------------------------
    def predict_direction(self, pc: int) -> bool:
        """Predicted direction for a conditional branch at *pc*."""
        return self._table[pc & self._mask] >= 2

    # ------------------------------------------------------------------
    def resolve(self, pc: int, taken: bool, target: int,
                kind: str = "cond") -> bool:
        """Record the outcome of a control instruction.

        *kind* is ``"cond"`` (conditional branch: direction + target
        predicted), ``"indirect"`` (jr: target through the BTB) or
        ``"direct"`` (j/jal: target known at decode, never mispredicts).

        Returns True iff the front-end *mispredicted* (direction or target)
        and must be redirected.
        """
        if kind == "direct":
            return False
        self.stats.lookups += 1

        mispredict = False
        if kind == "cond":
            predicted_taken = self.predict_direction(pc)
            if predicted_taken != taken:
                mispredict = True
            elif taken and self.btb.lookup(pc) != target:
                mispredict = True
            # Update the direction table.
            index = pc & self._mask
            counter = self._table[index]
            if taken:
                self._table[index] = min(3, counter + 1)
            else:
                self._table[index] = max(0, counter - 1)
        else:
            # Indirect: direction is always taken; only the target can be
            # wrong (jr through a cold or aliased BTB entry).
            if self.btb.lookup(pc) != target:
                mispredict = True

        if taken:
            self.btb.update(pc, target)
        if mispredict:
            self.stats.mispredicts += 1
        return mispredict
