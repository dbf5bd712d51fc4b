"""Workload tests: correctness, determinism, separation soundness, the
memory-access character each benchmark is supposed to have, the large
tier's pinned program images, and cache keys covering every constructor
parameter."""

import hashlib
import inspect

import numpy as np
import pytest

from repro.config import MachineConfig
from repro.errors import WorkloadError
from repro.experiments.cache import compile_key
from repro.isa.disasm import disassemble_instruction
from repro.sim import generate_trace, profile_cache
from repro.sim.functional import FunctionalSimulator
from repro.slicer import compile_hidisc
from repro.workloads import (
    DmWorkload,
    FieldWorkload,
    HashJoinWorkload,
    NeighborhoodWorkload,
    PointerWorkload,
    RayTraceWorkload,
    SpmvWorkload,
    TransitiveWorkload,
    UpdateWorkload,
    WORKLOAD_CLASSES,
    check_ap_executable,
    get_workload,
    large_workload,
    quick_workloads,
)

from .conftest import referee

QUICK = {w.name: w for w in quick_workloads()}


@pytest.mark.parametrize("name", sorted(QUICK))
class TestEveryWorkload:
    def test_reference_matches_kernel(self, name):
        w = QUICK[name]
        state = FunctionalSimulator(w.program).run()
        w.verify(state)  # raises on mismatch

    def test_separation_sound(self, name):
        w = QUICK[name]
        comp = compile_hidisc(w.program, MachineConfig(),
                              probable_miss_pcs=set())
        referee(w.program, comp.decoupled)

    def test_no_fp_in_access_stream(self, name):
        w = QUICK[name]
        comp = compile_hidisc(w.program, MachineConfig(),
                              probable_miss_pcs=set())
        check_ap_executable(comp.decoupled)

    def test_deterministic_build(self, name):
        a = get_workload(name, quick=True, seed=7)
        b = get_workload(name, quick=True, seed=7)
        assert len(a.program.text) == len(b.program.text)
        assert bytes(a.program.data) == bytes(b.program.data)

    def test_seed_changes_data(self, name):
        a = get_workload(name, quick=True, seed=1)
        b = get_workload(name, quick=True, seed=2)
        assert bytes(a.program.data) != bytes(b.program.data)

    def test_warmup_fraction_sane(self, name):
        assert 0.0 <= QUICK[name].warmup_fraction < 1.0


class TestVerifyRejectsCorruption:
    def test_detects_wrong_output(self):
        w = FieldWorkload(n=400)
        state = FunctionalSimulator(w.program).run()
        addr = w.program.data_symbols["out"]
        state.memory.store(addr, 10**6, 8)
        with pytest.raises(WorkloadError):
            w.verify(state)

    def test_detects_wrong_array(self):
        w = NeighborhoodWorkload(size=16)
        state = FunctionalSimulator(w.program).run()
        addr = w.program.data_symbols["hist"]
        state.memory.store(addr, 10**6, 8)
        with pytest.raises(WorkloadError):
            w.verify(state)

    def test_unknown_symbol(self):
        class Broken(FieldWorkload):
            def expected_outputs(self):
                return {"no_such_symbol": 1}

        w = Broken(n=100)
        state = FunctionalSimulator(w.program).run()
        with pytest.raises(WorkloadError):
            w.verify(state)


class TestAccessCharacter:
    """Each benchmark must exhibit its paper-described access pattern."""

    def _miss_rate(self, workload):
        config = MachineConfig()
        trace, _ = generate_trace(workload.program)
        profile = profile_cache(workload.program, trace, config)
        return profile.miss_rate

    def test_pointer_misses_more_than_field(self):
        pointer = PointerWorkload(n=16384, sequences=200, hops=4,
                                  hot=1024, hot_fraction=0.2)
        field = FieldWorkload(n=1500)
        assert self._miss_rate(pointer) > 4 * self._miss_rate(field)

    def test_field_is_regular(self):
        assert self._miss_rate(FieldWorkload(n=2000)) < 0.05

    def test_update_writes_back(self):
        w = UpdateWorkload(n=4096, sequences=50, hops=4)
        trace, _ = generate_trace(w.program)
        stores = sum(1 for pc in trace.pc if w.program.text[pc].is_store)
        assert stores >= 200  # one RMW store per hop

    def test_dm_walks_chains(self):
        w = DmWorkload(n=1024, buckets=64, queries=100)
        trace, _ = generate_trace(w.program)
        loads = sum(1 for pc in trace.pc if w.program.text[pc].is_load)
        # >= 2 loads per query (query key + head) plus chain walking.
        assert loads > 2 * 100

    def test_raytrace_is_fp_heavy(self):
        w = RayTraceWorkload(spheres=64, rays=1)
        fp = sum(1 for i in w.program.text if i.op.info.is_fp)
        assert fp >= 10

    def test_transitive_touches_matrix(self):
        w = TransitiveWorkload(n=12, kiters=1)
        state = FunctionalSimulator(w.program).run()
        w.verify(state)
        expected = w.expected_outputs()["dist"]
        assert expected.shape == (12, 12)
        # the closure must actually relax something
        assert (expected != w._matrix).any()


class TestRegistry:
    def test_class_order_matches_paper(self):
        assert [c.name for c in WORKLOAD_CLASSES] == [
            "dm", "raytrace", "pointer", "update", "field",
            "neighborhood", "transitive", "hashjoin", "spmv",
        ]

    def test_get_workload_unknown(self):
        with pytest.raises(KeyError):
            get_workload("bogus")

    def test_quick_smaller_than_full(self):
        for quick, full_cls in zip(quick_workloads(), WORKLOAD_CLASSES):
            full = full_cls()
            assert len(bytes(quick.program.data)) <= len(bytes(full.program.data))


#: sha256 prefix of each large program image (disassembled text + data).
LARGE_IMAGE_DIGESTS = {
    ("dm", 2003): "fad41aafc0ced51e",
    ("raytrace", 2003): "546be1cdb7f7d1d7",
    ("pointer", 2003): "807e68de4311fc9a",
    ("update", 2003): "f1cdea0d3b86fbab",
    ("field", 2003): "399e6d112aff4fc6",
    ("neighborhood", 2003): "41b481d4c34244d7",
    ("transitive", 2003): "e4d0200d7b4f4a9a",
    ("hashjoin", 2003): "3a7bcc0ecc58b663",
    ("spmv", 2003): "00870c4b597c5fc6",
    ("dm", 7): "60b5f4c109d16de8",
    ("raytrace", 7): "024383f03f3fb2de",
    ("pointer", 7): "4be33bb2a7cc30af",
    ("update", 7): "54a39875c4ffba8c",
    ("field", 7): "26cb777f057c3b69",
    ("neighborhood", 7): "9b85f52c83cac473",
    ("transitive", 7): "7c2fcf91e6c491ba",
    ("hashjoin", 7): "298cf1376a448059",
    ("spmv", 7): "13e5e21f9130af60",
}


class TestLargeTier:
    @pytest.mark.parametrize("name,seed", sorted(LARGE_IMAGE_DIGESTS))
    def test_program_image_pinned(self, name, seed):
        program = large_workload(name, seed=seed).program
        text = "\n".join(map(disassemble_instruction, program.text))
        image = text.encode() + bytes(program.data)
        digest = hashlib.sha256(image).hexdigest()[:16]
        assert digest == LARGE_IMAGE_DIGESTS[name, seed]

    def test_seed_threads_through(self):
        a = large_workload("field", seed=1)
        b = large_workload("field", seed=2)
        assert bytes(a.program.data) != bytes(b.program.data)


#: Per family: small valid constructor kwargs, and a second valid value
#: for every constructor parameter.
KEY_VARIANTS = {
    DmWorkload: (dict(n=256, buckets=64, queries=20),
                 dict(n=300, buckets=128, queries=21, hit_fraction=0.9,
                      seed=1)),
    RayTraceWorkload: (dict(spheres=16, rays=1),
                       dict(spheres=17, rays=2, seed=1)),
    PointerWorkload: (dict(n=1024, sequences=10, hot=64),
                      dict(n=2048, sequences=11, hops=3, hot=32,
                           hot_fraction=0.5, seed=1)),
    UpdateWorkload: (dict(n=1024, sequences=10, hot=64),
                     dict(n=2048, sequences=11, hops=3, hot=32,
                          hot_fraction=0.5, seed=1)),
    FieldWorkload: (dict(n=100), dict(n=101, token=7, seed=1)),
    NeighborhoodWorkload: (dict(size=8),
                           dict(size=9, distance=3, levels=8, seed=1)),
    TransitiveWorkload: (dict(n=8, kiters=1),
                         dict(n=9, kiters=2, density=0.5, seed=1)),
    HashJoinWorkload: (dict(build=64, probes=10, buckets=16),
                       dict(build=65, probes=11, buckets=32,
                            hit_fraction=0.9, value_range=(1, 10),
                            seed=1)),
    SpmvWorkload: (dict(rows=16, row_nnz=2),
                   dict(rows=17, row_nnz=3, stride=2, value_range=(1, 10),
                        seed=1)),
}


class TestCompileKey:
    @pytest.mark.parametrize("cls,param", [
        pytest.param(cls, param, id=f"{cls.name}-{param}")
        for cls in WORKLOAD_CLASSES
        for param in inspect.signature(cls).parameters])
    def test_every_constructor_parameter_reaches_the_key(self, cls, param):
        """Two instances differing only in *param* must not share a
        compilation (or a suite checkpoint, which hashes the same
        fingerprint)."""
        base, variants = KEY_VARIANTS[cls]
        a = cls(**base)
        b = cls(**{**base, param: variants[param]})
        config = MachineConfig()
        assert compile_key(a, config) != compile_key(b, config)


class TestNewFamilies:
    def test_hashjoin_walks_whole_chains(self):
        """A join must find *all* duplicates, not first hits: the match
        count has to exceed the number of distinct matched probe keys."""
        w = HashJoinWorkload(build=256, probes=64, buckets=32,
                             hit_fraction=1.0)
        count = int(w.expected_outputs()["out"][0])
        distinct = len(set(int(k) for k in w._pkeys
                           if (w._rkeys == k).any()))
        assert count > distinct

    def test_spmv_handles_empty_rows(self):
        w = SpmvWorkload(rows=64, row_nnz=2, seed=5)
        lens = np.diff(w._rowptr)
        assert (lens == 0).any(), "generator should produce empty rows"
        state = FunctionalSimulator(w.program).run()
        w.verify(state)

    def test_spmv_stride_spreads_gather(self):
        w = SpmvWorkload(rows=64, row_nnz=4, stride=8)
        assert (w._colidx % 8 == 0).all()


class TestGenerators:
    def test_permutation_chain_is_single_cycle(self):
        from repro.workloads.generators import permutation_chain

        rng = np.random.default_rng(3)
        field = permutation_chain(rng, 64)
        w, seen = 0, set()
        for _ in range(64):
            assert w not in seen
            seen.add(w)
            w = int(field[w])
        assert w == 0 and len(seen) == 64

    def test_segmented_chain_respects_segments(self):
        from repro.workloads.generators import segmented_chain

        rng = np.random.default_rng(3)
        field = segmented_chain(rng, 128, 32)
        assert (field[:32] < 32).all()
        assert (field[32:] >= 32).all()

    def test_mixed_starts_fractions(self):
        from repro.workloads.generators import mixed_starts

        rng = np.random.default_rng(3)
        starts = mixed_starts(rng, 1000, 1 << 16, 1 << 10, 0.9)
        hot = (starts < (1 << 10)).mean()
        assert 0.85 < hot < 0.95

    def test_hash_chains_reach_every_record(self):
        from repro.workloads.generators import build_hash_chains

        rng = np.random.default_rng(3)
        keys = rng.integers(0, 1 << 16, size=200, dtype=np.int64)
        head, nxt = build_hash_chains(keys, 32)
        visited = set()
        for h in range(32):
            p = int(head[h])
            while p != -1:
                assert p not in visited
                visited.add(p)
                p = int(nxt[p])
        assert visited == set(range(200))

    def test_distance_matrix_diagonal_zero(self):
        from repro.workloads.generators import random_distance_matrix

        rng = np.random.default_rng(3)
        mat = random_distance_matrix(rng, 10)
        assert (np.diag(mat) == 0).all()
        assert (mat >= 0).all()

    def test_rays_normalised(self):
        from repro.workloads.generators import random_rays

        rng = np.random.default_rng(3)
        rays = random_rays(rng, 50)
        norms = np.sqrt(rays["dx"]**2 + rays["dy"]**2 + rays["dz"]**2)
        assert np.allclose(norms, 1.0)
