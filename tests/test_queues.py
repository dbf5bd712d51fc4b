"""Tests for the architectural FIFO queues."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import QueueProtocolError
from repro.sim.queues import ArchQueue, QueueSet


class TestFifo:
    def test_order_preserved(self):
        q = ArchQueue("q")
        for v in (1, 2, 3):
            q.push(v)
        assert [q.pop() for _ in range(3)] == [1, 2, 3]

    def test_pop_empty_raises(self):
        q = ArchQueue("q")
        with pytest.raises(QueueProtocolError):
            q.pop()


class TestStats:
    def test_counters(self):
        q = ArchQueue("q")
        q.push(1)
        q.push(2)
        q.pop()
        s = q.stats
        assert s.pushes == 2 and s.pops == 1
        assert s.max_occupancy == 2


class TestQueueSet:
    def test_construction(self):
        qs = QueueSet()
        assert (qs.ldq.name, qs.sdq.name) == ("LDQ", "SDQ")
        assert qs.ldq.empty and qs.sdq.empty


@given(st.lists(st.one_of(st.integers(), st.none()), max_size=60))
def test_queue_matches_list_model(ops):
    """Property: push/pop sequence behaves exactly like a Python list.

    Integers push the value; None pops (skipped when the model is empty).
    """
    q = ArchQueue("model")
    model: list[int] = []
    for op in ops:
        if op is None:
            if model:
                assert q.pop() == model.pop(0)
            else:
                with pytest.raises(QueueProtocolError):
                    q.pop()
        else:
            q.push(op)
            model.append(op)
        assert len(q) == len(model)
        assert q.empty == (not model)
