"""Tests for batched sweep scheduling: topology groups, stacked marches and
the symbolic/numeric factorisation split."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SolverError
from repro.sim import TransientConfig
from repro.sim.linear import (
    DirectSolver,
    canonical_csc,
    clear_pattern_cache,
    factorization_counters,
    reset_factorization_counters,
    sparsity_fingerprint,
)
from repro.stepping.adapters import BlockDiagonalSolver
from repro.sweep import (
    ShardedNpzBackend,
    SweepPlan,
    SweepRunner,
    check_throughput,
    group_cases,
    record_from_outcome,
    topology_key,
)
from repro.sweep.runner import _SessionCache

FAST_TRANSIENT = TransientConfig(t_stop=1.2e-9, dt=0.2e-9)

#: A multi-engine corner plan on one topology: six stackable cases (three
#: scenarios x two engines that share the decoupled march), three
#: deterministic replicas.
CORNER_PLAN = SweepPlan.grid(
    [90],
    engines=("opera", "decoupled", "deterministic"),
    orders=(2,),
    corners=("rhs-only", "rhs-wide", "rhs-tight"),
    transient=FAST_TRANSIENT,
    base_seed=11,
)


def _assert_bit_identical(expected, actual):
    for ref, cand in zip(expected, actual):
        assert ref.name == cand.name
        assert ref.times.tobytes() == cand.times.tobytes(), ref.name
        assert ref.mean.tobytes() == cand.mean.tobytes(), ref.name
        assert ref.std.tobytes() == cand.std.tobytes(), ref.name
        assert ref.worst_drop == cand.worst_drop, ref.name
        assert ref.max_std == cand.max_std, ref.name


class TestGrouping:
    def test_topology_key_ignores_engine_corner_and_order(self):
        cases = CORNER_PLAN.cases
        assert len({topology_key(case) for case in cases}) == 1

    def test_groups_split_by_grid_identity(self):
        plan = SweepPlan.grid(
            [60, 90],
            engines=("opera",),
            orders=(2,),
            corners=("rhs-only", "rhs-wide"),
            transient=FAST_TRANSIENT,
        )
        groups = group_cases(plan.cases)
        assert len(groups) == 2
        # plan order is preserved within each group
        for group in groups:
            indices = [plan.cases.index(case) for case in group]
            assert indices == sorted(indices)


class TestBatchedBitIdentity:
    @pytest.fixture(scope="class")
    def reference(self):
        return SweepRunner(workers=1, keep_statistics=True).run(CORNER_PLAN)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_batched_matches_unbatched(self, reference, workers):
        batched = SweepRunner(workers=workers, keep_statistics=True, batch=True).run(CORNER_PLAN)
        _assert_bit_identical(reference, batched)
        assert batched.batched

    def test_multi_grid_batched_matches(self):
        plan = SweepPlan.grid(
            [60, 90],
            engines=("opera", "decoupled"),
            orders=(2,),
            corners=("rhs-only", "rhs-tight"),
            transient=FAST_TRANSIENT,
            base_seed=3,
        )
        reference = SweepRunner(workers=1, keep_statistics=True).run(plan)
        batched = SweepRunner(workers=2, keep_statistics=True, batch=True).run(plan)
        _assert_bit_identical(reference, batched)

    def test_sampled_engines_ride_along_unchanged(self):
        plan = SweepPlan.grid(
            [60],
            engines=("opera", "montecarlo"),
            orders=(2,),
            samples=8,
            corners=("rhs-only",),
            transient=FAST_TRANSIENT,
            base_seed=5,
        )
        reference = SweepRunner(workers=1, keep_statistics=True).run(plan)
        batched = SweepRunner(workers=1, keep_statistics=True, batch=True).run(plan)
        _assert_bit_identical(reference, batched)

    def test_interrupted_store_resumes_batched(self, reference, tmp_path):
        # Half the plan lands in the store unbatched (the "killed" run);
        # the batched resume executes only the remainder, and the merged
        # campaign is bit-identical to the uninterrupted reference.
        half = dataclasses.replace(
            CORNER_PLAN, cases=CORNER_PLAN.cases[: len(CORNER_PLAN.cases) // 2]
        )
        runner = SweepRunner(workers=1, keep_statistics=True)
        runner.run(half, store=ShardedNpzBackend(tmp_path, shard_size=1))

        resumed = SweepRunner(workers=1, keep_statistics=True, batch=True).resume(
            CORNER_PLAN, ShardedNpzBackend(tmp_path, shard_size=1)
        )
        assert resumed.reused == len(half.cases)
        _assert_bit_identical(reference, resumed)


class TestScenarioDedup:
    @pytest.fixture(scope="class")
    def batched(self):
        return SweepRunner(workers=1, keep_statistics=True, batch=True).run(CORNER_PLAN)

    def test_replicas_flag_reused_factorization(self, batched):
        flags = {result.name: result.reused_factorization for result in batched}
        # exactly two scheduler leaders: the first stacked case and the
        # first deterministic case
        fresh = [name for name, reused in flags.items() if not reused]
        assert len(fresh) == 2
        assert any(name.startswith("opera") for name in fresh)
        assert any(name.startswith("deterministic") for name in fresh)

    def test_record_round_trips_the_flag(self, batched):
        record = record_from_outcome(batched)
        by_name = {case["name"]: case for case in record.cases}
        for result in batched:
            assert by_name[result.name].get("reused_factorization") == bool(
                result.reused_factorization
            )

    def test_aggregates_surface_reuse_and_throughput(self, batched):
        aggregates = batched.aggregates()
        # 7 of 9 cases reuse: 2 stacked replicas per chaos engine + the
        # 2 replicated deterministic corners + the decoupled leader twin.
        assert aggregates["overall"]["cases_reusing_factorization"] == 7
        assert aggregates["deterministic"]["cases_reusing_factorization"] == 2
        for summary in aggregates.values():
            assert summary["cases_per_second"] > 0

    def test_unbatched_aggregates_omit_reuse_count(self):
        outcome = SweepRunner(workers=1, keep_statistics=True).run(CORNER_PLAN)
        for summary in outcome.aggregates().values():
            assert "cases_reusing_factorization" not in summary

    def test_record_reports_throughput(self, batched):
        record = record_from_outcome(batched)
        assert record.config["batched"] is True
        assert record.config["cases_per_second"] == pytest.approx(
            len(CORNER_PLAN.cases) / batched.wall_time
        )

    def test_throughput_gate_clamps_fast_runs(self, batched):
        record = record_from_outcome(batched)
        fast = check_throughput(record, min_cases_per_second=1e12, min_seconds=3600.0)
        assert fast.ok  # wall under the clamp passes any floor
        slow = check_throughput(record, min_cases_per_second=1e12, min_seconds=0.0)
        assert not slow.ok
        assert "cases/s" in slow.format()

    def test_stacked_telemetry_counter(self):
        profiled = SweepRunner(
            workers=1, keep_statistics=True, batch=True, telemetry=True
        ).run(CORNER_PLAN)
        counters = (profiled.telemetry_summary() or {}).get("counters", {})
        # three scenarios share one march; engine twins dedup away
        assert counters.get("batched_cases") == 3


class TestSessionCacheLru:
    def _case(self, nodes: int):
        return dataclasses.replace(CORNER_PLAN.cases[0], nodes=nodes)

    def test_evicts_least_recent_grid(self):
        cache = _SessionCache(max_grids=2)
        for nodes in (30, 40):
            cache.session_for(self._case(nodes), FAST_TRANSIENT)
        assert len(cache) == 2
        cache.session_for(self._case(30), FAST_TRANSIENT)  # refresh 30
        cache.session_for(self._case(50), FAST_TRANSIENT)  # evicts 40
        keys = {key[0] for key in cache._grids}
        assert keys == {30, 50}

    def test_sibling_sessions_share_grid_resources(self):
        cache = _SessionCache(max_grids=2)
        first = cache.session_for(CORNER_PLAN.cases[0], FAST_TRANSIENT)
        other = dataclasses.replace(CORNER_PLAN.cases[0], corner="rhs-tight")
        second = cache.session_for(other, FAST_TRANSIENT)
        assert second is not first
        assert second.netlist is first.netlist
        assert second.stamped is first.stamped


class TestSymbolicNumericSplit:
    def _matrix(self, seed: int) -> sp.csr_matrix:
        rng = np.random.default_rng(7)
        base = sp.random(40, 40, density=0.12, random_state=rng, format="csr")
        matrix = (base + base.T + 80.0 * sp.eye(40)).tocsr()
        matrix.data = matrix.data * np.random.default_rng(seed).uniform(0.5, 1.5, matrix.nnz)
        return matrix

    def test_fingerprint_is_values_free(self):
        a, b = self._matrix(1), self._matrix(2)
        assert sparsity_fingerprint(a) == sparsity_fingerprint(b)
        assert a.data.tobytes() != b.data.tobytes()

    def test_canonical_csc_bitwise_matches_plain_conversion(self):
        clear_pattern_cache()
        for seed in (1, 2, 3):
            matrix = self._matrix(seed)
            cached = canonical_csc(matrix)
            plain = sp.csc_matrix(matrix)
            assert cached.data.tobytes() == plain.data.tobytes()
            assert np.array_equal(cached.indices, plain.indices)
            assert np.array_equal(cached.indptr, plain.indptr)

    def test_refactor_counts_and_matches_fresh_solver(self):
        clear_pattern_cache()
        reset_factorization_counters()
        first = DirectSolver(self._matrix(1))
        second_matrix = self._matrix(2)
        refactored = first.refactor(second_matrix)
        counters = factorization_counters()
        assert counters["symbolic_analysis"] == 1
        assert counters["symbolic_reuse"] == 1
        assert counters["numeric_refactor"] == 1
        rhs = np.random.default_rng(0).normal(size=40)
        clear_pattern_cache()
        fresh = DirectSolver(second_matrix)
        assert refactored.solve(rhs).tobytes() == fresh.solve(rhs).tobytes()

    def test_refactor_rejects_shape_mismatch(self):
        solver = DirectSolver(self._matrix(1))
        with pytest.raises(SolverError, match="shape"):
            solver.refactor(sp.eye(10, format="csr"))


class TestSpanSolver:
    def test_spans_match_per_case_solves_bitwise(self):
        rng = np.random.default_rng(3)
        base = sp.random(25, 25, density=0.2, random_state=rng, format="csr")
        inner = DirectSolver((base + base.T + 50.0 * sp.eye(25)).tocsr())
        spans = (2, 6, 1, 4)
        tracks = sum(spans)
        rhs = rng.normal(size=tracks * 25)

        split = BlockDiagonalSolver(inner, tracks=tracks, num_nodes=25, spans=spans).solve(rhs)

        blocks = rhs.reshape(tracks, 25)
        offset = 0
        expected = np.empty_like(blocks)
        for count in spans:
            # exactly the unbatched call: one solve_many per case's tracks
            expected[offset : offset + count] = inner.solve_many(
                blocks[offset : offset + count].T
            ).T
            offset += count
        assert split.tobytes() == expected.reshape(-1).tobytes()

    def test_spans_must_cover_tracks(self):
        inner = DirectSolver(sp.eye(5, format="csr"))
        with pytest.raises(SolverError, match="spans"):
            BlockDiagonalSolver(inner, tracks=4, num_nodes=5, spans=(2, 3))
