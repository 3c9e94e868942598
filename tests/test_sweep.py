"""Tests for the repro.sweep subsystem: plans, runner, store, artifacts, regress gate."""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cli import main as cli_main
from repro.errors import AnalysisError, SolverError, StoreError
from repro.sim import TransientConfig
from repro.sim.linear import (
    DirectSolver,
    canonical_csc,
    clear_pattern_cache,
    factorization_counters,
    reset_factorization_counters,
    sparsity_fingerprint,
)
from repro.sweep import (
    SCHEMA,
    BenchRecord,
    MemoryBackend,
    ShardedNpzBackend,
    SweepCase,
    SweepPlan,
    SweepRunner,
    case_backend,
    check_throughput,
    compare_records,
    corner_names,
    corner_spec,
    grid_seed_for,
    plan_fingerprint,
    record_from_outcome,
    record_from_store,
)
from repro.sweep.runner import _SessionCache

FAST_TRANSIENT = TransientConfig(t_stop=1.2e-9, dt=0.2e-9)

#: Records and sharded stores written by since-removed code paths.
#: ``record.json`` / ``store/`` predate the ``hierarchical`` engine's removal:
#: every case carries ``"partitions"``, and one case is a ``hierarchical``
#: run with ``partitions=2``.  ``batched_record.json`` / ``batched_store/``
#: come from the batched sweep scheduler: the record's config carries
#: ``"batched": true``, its stacked cases carry ``reused_factorization`` and
#: one case ran the ``degree-block-cg`` solver; the store holds the two
#: stacked cases.  ``mor_record.json`` / ``mor_store/`` hold one ``opera``
#: case and one case of the since-removed ``mor`` engine with
#: ``mor_order=2``; ``mor_smoke_baseline.json`` is the smoke baseline as it
#: stood before its two ``mor`` cases were dropped.
LEGACY = Path(__file__).parent / "data" / "legacy_sweep"


@pytest.fixture(scope="module")
def small_outcome():
    """A tiny executed sweep shared by the runner/record/regress tests."""
    plan = SweepPlan.grid(
        [60, 90],
        engines=("opera", "montecarlo"),
        orders=(1,),
        samples=8,
        transient=FAST_TRANSIENT,
        base_seed=5,
    )
    return SweepRunner(workers=1, keep_statistics=True).run(plan)


class TestCorners:
    def test_known_corners(self):
        assert "paper" in corner_names()
        assert "rhs-only" in corner_names()

    def test_paper_corner_is_paper_defaults(self):
        from repro.variation import VariationSpec

        assert corner_spec("paper") == VariationSpec.paper_defaults()

    def test_rhs_only_corner_disables_matrix_variation(self):
        spec = corner_spec("rhs-only")
        assert not spec.vary_conductance
        assert not spec.vary_capacitance

    def test_unknown_corner_lists_names(self):
        with pytest.raises(AnalysisError, match="paper"):
            corner_spec("nope")


class TestSweepPlan:
    def test_grid_product(self):
        plan = SweepPlan.grid(
            [60, 90],
            engines=("opera", "montecarlo", "deterministic"),
            orders=(1, 2),
            samples=8,
            transient=FAST_TRANSIENT,
        )
        # chaos engine: one case per order; others: one case per grid
        assert len(plan) == 2 * (2 + 1 + 1)
        names = [case.name for case in plan]
        assert len(set(names)) == len(names)

    def test_case_seeds_are_deterministic_and_distinct(self):
        plan_a = SweepPlan.grid([60, 90], samples=8, transient=FAST_TRANSIENT)
        plan_b = SweepPlan.grid([60, 90], samples=8, transient=FAST_TRANSIENT)
        assert [c.seed for c in plan_a] == [c.seed for c in plan_b]
        assert len({c.seed for c in plan_a}) == len(plan_a.cases)

    def test_base_seed_changes_case_seeds(self):
        plan_a = SweepPlan.grid([60], samples=8, base_seed=0, transient=FAST_TRANSIENT)
        plan_b = SweepPlan.grid([60], samples=8, base_seed=1, transient=FAST_TRANSIENT)
        assert [c.seed for c in plan_a] != [c.seed for c in plan_b]

    def test_grid_seed_matches_helper(self):
        plan = SweepPlan.grid([60], samples=8, transient=FAST_TRANSIENT)
        assert all(case.grid_seed == grid_seed_for(60) for case in plan)

    def test_empty_plan_rejected(self):
        with pytest.raises(AnalysisError):
            SweepPlan(cases=())
        with pytest.raises(AnalysisError):
            SweepPlan.grid([], transient=FAST_TRANSIENT)

    def test_duplicate_cases_rejected(self):
        case = SweepCase(engine="opera", nodes=60, order=2)
        with pytest.raises(AnalysisError, match="duplicate"):
            SweepPlan(cases=(case, case))

    def test_case_validates_corner_eagerly(self):
        with pytest.raises(AnalysisError):
            SweepCase(engine="opera", nodes=60, corner="bogus")

    def test_mc_run_options(self):
        case = SweepCase(
            engine="montecarlo",
            nodes=60,
            samples=16,
            antithetic=True,
            store_nodes=(1, 2),
            workers=3,
            chunk_size=8,
            seed=99,
        )
        options = case.run_options()
        assert options == {
            "samples": 16,
            "seed": 99,
            "antithetic": True,
            "workers": 3,
            "chunk_size": 8,
            "store_nodes": (1, 2),
        }

    def test_mc_workers_excluded_from_identity(self):
        serial = SweepCase(engine="montecarlo", nodes=60, samples=16, workers=1)
        chunked = SweepCase(engine="montecarlo", nodes=60, samples=16, workers=4)
        assert serial.key() == chunked.key()
        assert serial.name == chunked.name

    def test_grid_mc_workers_applies_to_mc_cases_only(self):
        plan = SweepPlan.grid(
            [60],
            engines=("opera", "montecarlo"),
            samples=8,
            mc_workers=4,
            transient=FAST_TRANSIENT,
        )
        by_engine = {case.engine: case for case in plan}
        assert by_engine["montecarlo"].workers == 4
        assert by_engine["opera"].workers == 1

    def test_grid_mc_chunk_size_applies(self):
        plan = SweepPlan.grid(
            [60],
            engines=("montecarlo",),
            samples=16,
            mc_chunk_size=4,
            transient=FAST_TRANSIENT,
        )
        assert plan.cases[0].chunk_size == 4

    def test_antithetic_parity_validated_at_construction(self):
        with pytest.raises(AnalysisError, match="even sample count"):
            SweepCase(engine="montecarlo", nodes=60, samples=15, antithetic=True)
        with pytest.raises(AnalysisError, match="even chunk_size"):
            SweepCase(
                engine="montecarlo",
                nodes=60,
                samples=16,
                antithetic=True,
                chunk_size=7,
            )

    def test_grid_rounds_odd_antithetic_samples_up(self):
        plan = SweepPlan.grid(
            [60],
            engines=("montecarlo",),
            samples=7,
            antithetic=True,
            transient=FAST_TRANSIENT,
        )
        assert plan.cases[0].samples == 8

    def test_chaos_run_options(self):
        assert SweepCase(engine="opera", nodes=60, order=3).run_options() == {"order": 3}

    def test_preexisting_seed_identities_unchanged(self):
        # Optional fields must not move seeds of cases without them.
        case = SweepCase(engine="opera", nodes=100, order=2)
        assert case.seed_identity() == ("opera", 100, 2, None, "paper")


class TestSweepRunner:
    def test_results_in_plan_order(self, small_outcome):
        assert [r.name for r in small_outcome.results] == [c.name for c in small_outcome.plan.cases]

    def test_statistics_kept(self, small_outcome):
        opera = small_outcome.case(engine="opera", nodes=60)
        assert opera.has_statistics
        assert opera.mean.shape == (FAST_TRANSIENT.num_steps + 1, opera.num_nodes)
        assert np.all(opera.std_drop >= 0)

    def test_parallel_matches_serial(self, small_outcome):
        parallel = SweepRunner(workers=2, keep_statistics=True).run(small_outcome.plan)
        for a, b in zip(small_outcome, parallel):
            assert a.name == b.name
            assert a.num_nodes == b.num_nodes
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.std, b.std)

    def test_speedups_vs_mc(self, small_outcome):
        speedups = small_outcome.speedups()
        assert set(speedups) == {"opera-n60-o1-paper", "opera-n90-o1-paper"}
        assert all(value > 0 for value in speedups.values())

    def test_case_lookup_errors(self, small_outcome):
        with pytest.raises(AnalysisError, match="no sweep case"):
            small_outcome.case(engine="opera", nodes=999)
        with pytest.raises(AnalysisError, match="ambiguous"):
            small_outcome.case(engine="opera")

    def test_case_rejects_unknown_criteria_with_field_listing(self, small_outcome):
        with pytest.raises(AnalysisError, match="valid fields.*engine"):
            small_outcome.case(engin="opera")
        with pytest.raises(AnalysisError, match="engin, nodez"):
            small_outcome.case(engin="opera", nodez=60)

    def test_case_no_match_lists_nearest_cases(self, small_outcome):
        # engine matches two cases, nodes matches none: the near-misses
        # (the opera cases) must lead the listing.
        with pytest.raises(AnalysisError, match="nearest.*opera-n60-o1-paper"):
            small_outcome.case(engine="opera", nodes=999)

    def test_case_requires_criteria(self, small_outcome):
        with pytest.raises(AnalysisError, match="at least one criterion"):
            small_outcome.case()

    def test_aggregates(self, small_outcome):
        aggregates = small_outcome.aggregates()
        assert set(aggregates) == {"opera", "montecarlo", "overall"}
        assert aggregates["opera"]["cases"] == 2
        assert aggregates["overall"]["cases"] == 4
        assert aggregates["overall"]["wall_time_total_s"] > 0
        # The overall entry is the RunningMoments.merge of the engines.
        merged_mean = (
            aggregates["opera"]["worst_drop_mean_v"] * 2
            + aggregates["montecarlo"]["worst_drop_mean_v"] * 2
        ) / 4
        assert aggregates["overall"]["worst_drop_mean_v"] == pytest.approx(merged_mean)

    def test_aggregates_never_carry_cases_reusing_factorization(self, small_outcome):
        for summary in small_outcome.aggregates().values():
            assert "cases_reusing_factorization" not in summary

    def test_keep_raw_ships_native_result(self):
        plan = SweepPlan(
            cases=(SweepCase(engine="opera", nodes=60, order=1),),
            transient=FAST_TRANSIENT,
        )
        outcome = SweepRunner(workers=1, keep_raw=True).run(plan)
        assert hasattr(outcome.results[0].raw, "worst_node")

    def test_statistics_absent_without_flag(self):
        plan = SweepPlan(
            cases=(SweepCase(engine="opera", nodes=60, order=1),),
            transient=FAST_TRANSIENT,
        )
        result = SweepRunner(workers=1).run(plan).results[0]
        assert not result.has_statistics
        with pytest.raises(AnalysisError, match="keep_statistics"):
            _ = result.mean_drop

    def test_workers_validation(self):
        with pytest.raises(AnalysisError):
            SweepRunner(workers=0)


class TestSessionCacheLru:
    CASE = SweepCase(engine="opera", nodes=90, order=2, corner="rhs-only")

    def test_evicts_least_recent_grid(self):
        cache = _SessionCache(max_grids=2)
        for nodes in (30, 40):
            cache.session_for(dataclasses.replace(self.CASE, nodes=nodes), FAST_TRANSIENT)
        assert len(cache) == 2
        # refresh 30, then 50 evicts 40
        cache.session_for(dataclasses.replace(self.CASE, nodes=30), FAST_TRANSIENT)
        cache.session_for(dataclasses.replace(self.CASE, nodes=50), FAST_TRANSIENT)
        keys = {key[0] for key in cache._grids}
        assert keys == {30, 50}

    def test_sibling_sessions_share_grid_resources(self):
        cache = _SessionCache(max_grids=2)
        first = cache.session_for(self.CASE, FAST_TRANSIENT)
        other = dataclasses.replace(self.CASE, corner="rhs-tight")
        second = cache.session_for(other, FAST_TRANSIENT)
        assert second is not first
        assert second.netlist is first.netlist
        assert second.stamped is first.stamped


class TestSymbolicNumericSplit:
    """The sparsity-pattern cache behind ``canonical_csc`` and ``refactor``."""

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


class TestBenchRecord:
    def test_record_reports_throughput(self, small_outcome):
        record = record_from_outcome(small_outcome)
        assert "batched" not in record.config
        assert record.config["cases_per_second"] == pytest.approx(
            len(small_outcome.plan.cases) / small_outcome.wall_time
        )

    def test_round_trip(self, small_outcome):
        record = record_from_outcome(small_outcome, config={"suite": "test"})
        rebuilt = BenchRecord.from_json(record.to_json())
        assert rebuilt.to_dict() == record.to_dict()
        assert rebuilt.schema == SCHEMA
        assert rebuilt.config["suite"] == "test"
        assert rebuilt.config["workers"] == 1

    def test_schema_fields_present(self, small_outcome):
        record = record_from_outcome(small_outcome)
        payload = json.loads(record.to_json())
        assert payload["schema"] == SCHEMA
        for case in payload["cases"]:
            for key in (
                "name",
                "engine",
                "nodes",
                "num_nodes",
                "corner",
                "order",
                "samples",
                "seed",
                "wall_time_s",
                "worst_drop_v",
                "max_std_v",
                "speedup_vs_mc",
            ):
                assert key in case, key

    def test_speedup_recorded_for_non_mc_cases(self, small_outcome):
        record = record_from_outcome(small_outcome)
        by_engine = {}
        for case in record.cases:
            by_engine.setdefault(case["engine"], []).append(case)
        assert all(c["speedup_vs_mc"] is None for c in by_engine["montecarlo"])
        assert all(c["speedup_vs_mc"] > 0 for c in by_engine["opera"])

    def test_unknown_schema_rejected(self, small_outcome):
        record = record_from_outcome(small_outcome)
        payload = record.to_dict()
        payload["schema"] = "repro.sweep/bench-record/v999"
        with pytest.raises(AnalysisError, match="schema"):
            BenchRecord.from_dict(payload)

    def test_missing_case_field_rejected(self, small_outcome):
        payload = record_from_outcome(small_outcome).to_dict()
        del payload["cases"][0]["wall_time_s"]
        with pytest.raises(AnalysisError, match="wall_time_s"):
            BenchRecord.from_dict(payload)

    def test_invalid_json_rejected(self):
        with pytest.raises(AnalysisError, match="JSON"):
            BenchRecord.from_json("{not json")

    def test_write_and_load(self, small_outcome, tmp_path):
        record = record_from_outcome(small_outcome)
        path = record.write(tmp_path / "nested" / "sweep.json")
        assert BenchRecord.load(path).to_dict() == record.to_dict()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(AnalysisError, match="does not exist"):
            BenchRecord.load(tmp_path / "absent.json")

    def test_old_records_without_partitions_still_match(self):
        legacy_case = {
            "name": "opera-n100-o2-paper",
            "engine": "opera",
            "nodes": 100,
            "num_nodes": 104,
            "corner": "paper",
            "order": 2,
            "samples": None,
            "seed": 1,
            "wall_time_s": 0.1,
            "worst_drop_v": 0.05,
            "max_std_v": 0.01,
            "speedup_vs_mc": None,
        }
        record = BenchRecord(cases=(legacy_case,))
        (key,) = record.case_map().keys()
        assert key == ("opera", 100, 2, None, "paper")


def _stable_cases(record: BenchRecord) -> list:
    """Record case entries with the timing-dependent fields stripped.

    Wall times (and the speedups derived from them) are the only fields a
    resume legitimately changes; everything else must be bit-identical.
    """
    cases = []
    for case in record.cases:
        entry = dict(case)
        entry.pop("wall_time_s")
        entry.pop("speedup_vs_mc")
        cases.append(entry)
    return cases


def _assert_same_results(expected_outcome, actual_outcome):
    """Every case of both outcomes agrees bit-for-bit (timing excluded)."""
    for expected, actual in zip(expected_outcome, actual_outcome):
        assert actual.name == expected.name
        assert actual.seed == expected.seed
        assert actual.worst_drop == expected.worst_drop
        assert actual.max_std == expected.max_std
        np.testing.assert_array_equal(actual.times, expected.times)
        np.testing.assert_array_equal(actual.mean, expected.mean)
        np.testing.assert_array_equal(actual.std, expected.std)


class TestStoreBackends:
    def test_memory_backend_roundtrip(self, small_outcome):
        store = small_outcome.store
        assert isinstance(store, MemoryBackend)
        assert len(store) == len(small_outcome.plan.cases)
        for case in small_outcome.plan.cases:
            assert store.contains(case)
            assert store.get(case).name == case.name
        assert [r.name for r in store.iter_results()] != []
        assert store.keys() == frozenset(c.store_key() for c in small_outcome.plan.cases)

    def test_store_key_excludes_workers(self):
        serial = SweepCase(engine="montecarlo", nodes=60, samples=16, workers=1)
        chunked = dataclasses.replace(serial, workers=4)
        assert serial.store_key() == chunked.store_key()

    def test_store_key_includes_sampling_knobs(self):
        base = SweepCase(engine="montecarlo", nodes=60, samples=16)
        assert base.store_key() != dataclasses.replace(base, chunk_size=8).store_key()
        assert base.store_key() != dataclasses.replace(base, antithetic=True).store_key()
        assert base.store_key() != dataclasses.replace(base, grid_seed=123).store_key()

    def test_plan_fingerprint_pins_transient_and_base_seed(self, small_outcome):
        fingerprint = plan_fingerprint(small_outcome.plan)
        assert fingerprint["base_seed"] == 5
        assert fingerprint["transient"]["steps"] == FAST_TRANSIENT.num_steps
        assert small_outcome.store.fingerprint == fingerprint

    def test_duplicate_append_rejected(self, small_outcome):
        store = small_outcome.store
        case = small_outcome.plan.cases[0]
        with pytest.raises(StoreError, match="append-only"):
            store.append(case, store.get(case))

    def test_missing_case_error_names_case(self):
        store = MemoryBackend()
        case = SweepCase(engine="opera", nodes=60, order=1)
        with pytest.raises(StoreError, match="not in this results store"):
            store.get(case)

    def test_npz_store_persists_across_reopen(self, small_outcome, tmp_path):
        plan = small_outcome.plan
        store = ShardedNpzBackend(tmp_path / "store", shard_size=2)
        SweepRunner(workers=1, keep_statistics=True).run(plan, store=store)
        shards = sorted((tmp_path / "store").glob("shard-*.npz"))
        assert len(shards) == 2  # 4 cases, 2 per shard
        assert (tmp_path / "store" / "manifest.json").exists()

        reopened = ShardedNpzBackend(tmp_path / "store")
        reopened.open(plan)
        assert len(reopened) == len(plan.cases)
        for case in plan.cases:
            stored = reopened.get(case)
            expected = small_outcome.store.get(case)
            np.testing.assert_array_equal(stored.mean, expected.mean)
            np.testing.assert_array_equal(stored.std, expected.std)
            assert stored.worst_drop == expected.worst_drop

    def test_npz_store_rejects_mismatched_fingerprint(self, small_outcome, tmp_path):
        plan = small_outcome.plan
        ShardedNpzBackend(tmp_path / "store").open(plan)
        other = dataclasses.replace(plan, transient=TransientConfig(t_stop=2.4e-9, dt=0.2e-9))
        with pytest.raises(StoreError, match="different plan"):
            ShardedNpzBackend(tmp_path / "store").open(other)

    def test_npz_store_refuses_raw_payloads(self, small_outcome, tmp_path):
        plan = small_outcome.plan
        runner = SweepRunner(workers=1, keep_raw=True)
        with pytest.raises(StoreError, match="raw engine payloads"):
            runner.run(plan, store=ShardedNpzBackend(tmp_path / "store"))

    def test_shard_size_validated(self, tmp_path):
        with pytest.raises(StoreError, match="shard_size"):
            ShardedNpzBackend(tmp_path / "store", shard_size=0)

    def test_record_from_empty_store_rejected(self):
        with pytest.raises(StoreError, match="empty results store"):
            record_from_store(MemoryBackend())


class TestResume:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_interrupted_resume_is_bit_identical(self, small_outcome, tmp_path, workers):
        """Kill a campaign half-way, resume it, and get the uninterrupted numbers."""
        plan = small_outcome.plan
        store_dir = tmp_path / "store"
        truncated = dataclasses.replace(plan, cases=plan.cases[: len(plan.cases) // 2])
        SweepRunner(workers=1, keep_statistics=True).run(
            truncated, store=ShardedNpzBackend(store_dir, shard_size=1)
        )

        store = ShardedNpzBackend(store_dir, shard_size=1)
        outcome = SweepRunner(workers=workers, keep_statistics=True).resume(plan, store)
        assert outcome.executed == len(plan.cases) - len(truncated.cases)
        assert outcome.reused == len(truncated.cases)
        _assert_same_results(small_outcome, outcome)

        exported = record_from_store(store, plan=plan)
        baseline = record_from_outcome(small_outcome)
        assert _stable_cases(exported) == _stable_cases(baseline)
        assert exported.config["base_seed"] == baseline.config["base_seed"]
        assert exported.config["transient"] == baseline.config["transient"]

    def test_resume_after_dropping_shards(self, small_outcome, tmp_path):
        """Losing shards (a harsher kill) only re-runs the lost cases."""
        plan = small_outcome.plan
        store_dir = tmp_path / "store"
        SweepRunner(workers=1, keep_statistics=True).run(
            plan, store=ShardedNpzBackend(store_dir, shard_size=1)
        )
        shards = sorted(store_dir.glob("shard-*.npz"))
        assert len(shards) == len(plan.cases)
        for shard in shards[1::2]:
            shard.unlink()

        store = ShardedNpzBackend(store_dir, shard_size=1)
        outcome = SweepRunner(workers=2, keep_statistics=True).resume(plan, store)
        assert outcome.executed == len(shards[1::2])
        assert outcome.reused == len(plan.cases) - len(shards[1::2])
        _assert_same_results(small_outcome, outcome)
        assert _stable_cases(record_from_store(store, plan=plan)) == _stable_cases(
            record_from_outcome(small_outcome)
        )

    def test_fully_cached_resume_makes_zero_solver_calls(
        self, small_outcome, tmp_path, monkeypatch
    ):
        plan = small_outcome.plan
        store_dir = tmp_path / "store"
        SweepRunner(workers=1, keep_statistics=True).run(plan, store=ShardedNpzBackend(store_dir))

        import repro.sweep.runner as runner_module

        def boom(args):
            raise AssertionError("a fully-cached resume must not execute cases")

        monkeypatch.setattr(runner_module, "_execute_case", boom)
        store = ShardedNpzBackend(store_dir)
        outcome = SweepRunner(workers=1, keep_statistics=True).resume(plan, store)
        assert outcome.executed == 0
        assert outcome.reused == len(plan.cases)
        _assert_same_results(small_outcome, outcome)

    def test_memory_store_acts_as_cache_within_process(self, small_outcome, monkeypatch):
        """Re-running a plan against a populated in-memory store re-solves nothing."""
        import repro.sweep.runner as runner_module

        monkeypatch.setattr(
            runner_module,
            "_execute_case",
            lambda args: (_ for _ in ()).throw(AssertionError("cache miss")),
        )
        outcome = SweepRunner(workers=1, keep_statistics=True).resume(
            small_outcome.plan, small_outcome.store
        )
        assert outcome.executed == 0
        assert outcome.reused == len(small_outcome.plan.cases)

    def test_resume_requires_store(self, small_outcome):
        with pytest.raises(StoreError, match="results store"):
            SweepRunner(workers=1).resume(small_outcome.plan, None)

    def test_record_from_store_insertion_order_without_plan(self, small_outcome):
        record = record_from_store(small_outcome.store)
        assert len(record.cases) == len(small_outcome.plan.cases)
        assert {c["name"] for c in record.cases} == {c.name for c in small_outcome.plan.cases}


class TestLegacyArtifacts:
    """Artifacts from before the ``hierarchical`` engine's removal still work."""

    NAMES = ("opera-n100-o1-paper", "montecarlo-n100-s8-paper")

    @staticmethod
    def _plan():
        """The legacy artifacts' plan without its hierarchical case."""
        return SweepPlan.grid(
            [100],
            engines=("opera", "montecarlo"),
            orders=(1,),
            samples=8,
            mc_chunk_size=4,
            transient=TransientConfig(t_stop=4 * 0.2e-9, dt=0.2e-9),
            base_seed=0,
        )

    def test_store_keys_unchanged(self):
        opera, montecarlo = self._plan().cases
        assert opera.store_key() == "opera|100|1|None|paper|grid=9740|seed=1810238154"
        assert montecarlo.store_key() == (
            "montecarlo|100|None|8|paper|grid=9740|antithetic=1|chunk=4|seed=1032100742"
        )

    def test_record_loads_and_compares(self):
        record = BenchRecord.load(LEGACY / "record.json")
        assert len(record.case_map()) == 3
        report = compare_records(record, record)
        assert report.ok
        assert {delta.name for delta in report.deltas} == {
            *self.NAMES,
            "hierarchical-n100-o1-p2-paper",
        }

    def test_resume_skips_every_kept_case(self, tmp_path):
        shutil.copytree(LEGACY / "store", tmp_path / "store")
        store = ShardedNpzBackend(tmp_path / "store")
        outcome = SweepRunner(keep_statistics=True).resume(self._plan(), store)
        assert (outcome.executed, outcome.reused) == (0, 2)
        assert tuple(result.name for result in outcome) == self.NAMES
        # The hierarchical entry still loads, with its partitions ignored.
        engines = sorted(result.engine for result in store.iter_results())
        assert engines == ["hierarchical", "montecarlo", "opera"]

        report = compare_records(
            BenchRecord.load(LEGACY / "record.json"), record_from_outcome(outcome)
        )
        assert tuple(delta.name for delta in report.deltas) == self.NAMES
        assert not report.regressions
        assert report.missing == ("hierarchical-n100-o1-p2-paper",)

    def test_legacy_records_report_the_backend_they_ran(self):
        for name in ("record.json", "mor_record.json"):
            cases = BenchRecord.load(LEGACY / name).cases
            assert {case_backend(case) for case in cases} == {"direct"}
        cases = BenchRecord.load(LEGACY / "batched_record.json").cases
        assert [case_backend(case) for case in cases] == ["direct", "direct", "degree-block-cg"]

    def test_resume_across_the_default_change_shows_each_backend(self, tmp_path):
        """The stored cases ran when every engine defaulted to ``direct``; the
        ``opera`` case run on resume takes the ``mean-block-cg`` default of
        the coupled system.  Keys and identities do not name the backend."""
        plan = SweepPlan.grid(
            [100],
            engines=("opera", "montecarlo"),
            orders=(1, 2),
            samples=8,
            mc_chunk_size=4,
            transient=TransientConfig(t_stop=4 * 0.2e-9, dt=0.2e-9),
            base_seed=0,
        )
        # The new solver=None case keeps the key it had before the change.
        assert plan.cases[1].store_key() == "opera|100|2|None|paper|grid=9740|seed=477681722"
        shutil.copytree(LEGACY / "store", tmp_path / "store")
        store = ShardedNpzBackend(tmp_path / "store")
        outcome = SweepRunner(keep_statistics=True).resume(plan, store)
        assert (outcome.executed, outcome.reused) == (1, 2)
        expected = {
            "opera-n100-o1-paper": "direct",
            "opera-n100-o2-paper": "mean-block-cg",
            "montecarlo-n100-s8-paper": "direct",
        }
        assert {result.name: result.backend for result in outcome} == expected
        record = record_from_outcome(outcome)
        assert {case["name"]: case["backend"] for case in record.cases} == expected
        assert all(case["solver"] is None for case in record.cases)

        reopened = ShardedNpzBackend(tmp_path / "store")
        reopened.open(plan)
        assert {result.name: result.backend for result in reopened.iter_results()} == {
            **expected,
            "hierarchical-n100-o1-p2-paper": "direct",
        }
        report = compare_records(BenchRecord.load(LEGACY / "record.json"), record)
        assert {delta.name for delta in report.deltas} == set(self.NAMES)

    BATCHED_NAMES = ("opera-n100-o1-rhs-only", "decoupled-n100-o1-rhs-only")

    @staticmethod
    def _batched_plan():
        """The batched artifacts' plan without its ``decoupled`` and
        ``degree-block-cg`` cases."""
        case = SweepCase(
            "opera", 100, grid_seed=grid_seed_for(100), corner="rhs-only", order=1
        ).with_derived_seed(0)
        return SweepPlan((case,), transient=TransientConfig(t_stop=4 * 0.2e-9, dt=0.2e-9))

    def test_batched_store_key_unchanged(self):
        opera = self._batched_plan().cases[0]
        assert opera.store_key() == "opera|100|1|None|rhs-only|grid=9740|seed=1778303611"

    def test_batched_record_loads_and_compares(self):
        record = BenchRecord.load(LEGACY / "batched_record.json")
        assert record.config["batched"] is True
        assert [case.get("reused_factorization") for case in record.cases] == [False, True, None]
        assert record.cases[2]["solver"] == "degree-block-cg"
        assert len(record.case_map()) == 3
        report = compare_records(record, record)
        assert report.ok
        assert {delta.name for delta in report.deltas} == {
            *self.BATCHED_NAMES,
            "opera-n100-o1-degree-block-cg-paper",
        }

    def test_batched_store_resumes_every_kept_case(self, tmp_path):
        shutil.copytree(LEGACY / "batched_store", tmp_path / "store")
        store = ShardedNpzBackend(tmp_path / "store")
        outcome = SweepRunner(keep_statistics=True).resume(self._batched_plan(), store)
        assert (outcome.executed, outcome.reused) == (0, 1)
        assert tuple(result.name for result in outcome) == self.BATCHED_NAMES[:1]
        # The stored reused_factorization flags are ignored on load.
        assert all(result.has_statistics for result in outcome)
        assert "cases_reusing_factorization" not in outcome.aggregates()["overall"]

        report = compare_records(
            BenchRecord.load(LEGACY / "batched_record.json"), record_from_outcome(outcome)
        )
        assert tuple(delta.name for delta in report.deltas) == self.BATCHED_NAMES[:1]
        assert not report.regressions
        assert report.missing == (
            "decoupled-n100-o1-rhs-only",
            "opera-n100-o1-degree-block-cg-paper",
        )

    MOR_NAMES = ("opera-n100-o1-paper", "mor-n100-o1-r2-paper")

    @staticmethod
    def _mor_plan():
        """The mor artifacts' plan without its ``mor`` case."""
        return SweepPlan.grid(
            [100],
            engines=("opera",),
            orders=(1,),
            transient=TransientConfig(t_stop=4 * 0.2e-9, dt=0.2e-9),
            base_seed=0,
        )

    def test_mor_store_key_unchanged(self):
        (opera,) = self._mor_plan().cases
        assert opera.store_key() == "opera|100|1|None|paper|grid=9740|seed=1810238154"

    def test_mor_record_loads_and_compares(self):
        record = BenchRecord.load(LEGACY / "mor_record.json")
        assert [case["engine"] for case in record.cases] == ["opera", "mor"]
        assert all("mor_order" in case for case in record.cases)
        report = compare_records(record, record)
        assert report.ok
        assert {delta.name for delta in report.deltas} == set(self.MOR_NAMES)

    def test_mor_store_resumes_every_kept_case(self, tmp_path):
        shutil.copytree(LEGACY / "mor_store", tmp_path / "store")
        store = ShardedNpzBackend(tmp_path / "store")
        outcome = SweepRunner(keep_statistics=True).resume(self._mor_plan(), store)
        assert (outcome.executed, outcome.reused) == (0, 1)
        assert tuple(result.name for result in outcome) == self.MOR_NAMES[:1]
        # The mor entry still loads, with its mor_order ignored.
        engines = sorted(result.engine for result in store.iter_results())
        assert engines == ["mor", "opera"]

        report = compare_records(
            BenchRecord.load(LEGACY / "mor_record.json"), record_from_outcome(outcome)
        )
        assert tuple(delta.name for delta in report.deltas) == self.MOR_NAMES[:1]
        assert not report.regressions
        assert report.missing == ("mor-n100-o1-r2-paper",)

    def test_smoke_baseline_differs_only_by_its_mor_cases(self):
        old = BenchRecord.load(LEGACY / "mor_smoke_baseline.json")
        assert [case["mor_order"] for case in old.cases if case["engine"] == "mor"] == [2, 2]
        current = BenchRecord.load(
            Path(__file__).parents[1] / "benchmarks" / "results" / "smoke_baseline.json"
        )
        assert current.config == old.config
        assert list(current.cases) == [case for case in old.cases if case["engine"] != "mor"]
        report = compare_records(old, current)
        assert not report.regressions
        assert report.missing == ("mor-n120-o2-r2-paper", "mor-n250-o2-r2-paper")


def _record_with_wall_times(small_outcome, scale: float) -> BenchRecord:
    payload = record_from_outcome(small_outcome).to_dict()
    for case in payload["cases"]:
        case["wall_time_s"] = max(case["wall_time_s"], 0.2) * scale
    return BenchRecord.from_dict(payload)


class TestRegress:
    def test_throughput_gate_clamps_fast_runs(self, small_outcome):
        record = record_from_outcome(small_outcome)
        fast = check_throughput(record, min_cases_per_second=1e12, min_seconds=3600.0)
        assert fast.ok  # wall under the clamp passes any floor
        slow = check_throughput(record, min_cases_per_second=1e12, min_seconds=0.0)
        assert not slow.ok
        assert "cases/s" in slow.format()

    def test_identical_records_pass(self, small_outcome):
        record = record_from_outcome(small_outcome)
        report = compare_records(record, record)
        assert report.ok
        assert not report.regressions
        assert "OK" in report.format()

    def test_large_regression_fails(self, small_outcome):
        baseline = _record_with_wall_times(small_outcome, 1.0)
        slower = _record_with_wall_times(small_outcome, 3.0)
        report = compare_records(baseline, slower, max_regression_percent=75.0)
        assert not report.ok
        assert len(report.regressions) == len(baseline.cases)
        assert "FAIL" in report.format()

    def test_speedup_within_threshold_passes(self, small_outcome):
        baseline = _record_with_wall_times(small_outcome, 1.0)
        faster = _record_with_wall_times(small_outcome, 0.5)
        assert compare_records(baseline, faster).ok

    def test_min_seconds_clamps_noise(self, small_outcome):
        baseline = _record_with_wall_times(small_outcome, 1.0)
        # 3x regression, but in absolute terms everything stays under the floor
        slower = _record_with_wall_times(small_outcome, 3.0)
        report = compare_records(baseline, slower, min_seconds=10.0)
        assert report.ok

    def test_mismatched_transients_rejected(self, small_outcome):
        baseline = record_from_outcome(small_outcome)
        payload = record_from_outcome(small_outcome).to_dict()
        payload["config"]["transient"] = {"t_stop": 9e-9, "dt": 1e-10, "steps": 90}
        current = BenchRecord.from_dict(payload)
        with pytest.raises(AnalysisError, match="not .?comparable|transient"):
            compare_records(baseline, current)

    def test_missing_case_fails(self, small_outcome):
        baseline = record_from_outcome(small_outcome)
        payload = baseline.to_dict()
        payload["cases"] = payload["cases"][1:]
        current = BenchRecord.from_dict(payload)
        report = compare_records(baseline, current)
        assert not report.ok
        assert len(report.missing) == 1

    def test_added_case_does_not_gate(self, small_outcome):
        current = record_from_outcome(small_outcome)
        payload = current.to_dict()
        payload["cases"] = payload["cases"][1:]
        baseline = BenchRecord.from_dict(payload)
        report = compare_records(baseline, current)
        assert report.ok
        assert len(report.added) == 1

    def test_regress_cli(self, small_outcome, tmp_path, capsys):
        from repro.sweep.regress import main as regress_main

        base_path = tmp_path / "base.json"
        _record_with_wall_times(small_outcome, 1.0).write(base_path)
        slow_path = tmp_path / "slow.json"
        _record_with_wall_times(small_outcome, 4.0).write(slow_path)

        assert regress_main([str(base_path), str(base_path)]) == 0
        assert regress_main([str(base_path), str(slow_path)]) == 1
        assert regress_main([str(base_path), str(slow_path), "--max-regression", "1000"]) == 0
        capsys.readouterr()  # silence report output


class TestSweepCli:
    def test_sweep_writes_artifact_and_gates(self, tmp_path, capsys):
        output = tmp_path / "sweep.json"
        args = [
            "sweep",
            "--nodes",
            "60",
            "--engines",
            "opera,montecarlo",
            "--samples",
            "8",
            "--steps",
            "5",
            "--output",
            str(output),
        ]
        assert cli_main(args) == 0
        record = BenchRecord.load(output)
        assert len(record.cases) == 2
        out = capsys.readouterr().out
        assert "speedup vs MC" in out

        # gate against itself: passes
        assert cli_main(args + ["--baseline", str(output)]) == 0
        capsys.readouterr()

    def test_sweep_store_mode_persists_and_reuses(self, tmp_path, capsys):
        store_dir = tmp_path / "campaign"
        args = [
            "sweep",
            "--nodes",
            "60",
            "--engines",
            "opera",
            "--samples",
            "8",
            "--steps",
            "5",
            "--output",
            str(tmp_path / "sweep.json"),
            "--store",
            str(store_dir),
            "--shard-size",
            "1",
        ]
        assert cli_main(args) == 0
        assert (store_dir / "manifest.json").exists()
        assert list(store_dir.glob("shard-*.npz"))
        capsys.readouterr()

        # Same campaign again: everything is served from the store.
        assert cli_main(args + ["--resume"]) == 0
        assert "from store" in capsys.readouterr().out

    def test_sweep_resume_requires_store(self, capsys):
        assert cli_main(["sweep", "--nodes", "60", "--samples", "8", "--resume"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_sweep_resume_rejects_missing_store_dir(self, tmp_path, capsys):
        args = [
            "sweep",
            "--nodes",
            "60",
            "--samples",
            "8",
            "--store",
            str(tmp_path / "absent"),
            "--resume",
        ]
        assert cli_main(args) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_sweep_rejects_unknown_engine(self, capsys):
        assert cli_main(["sweep", "--nodes", "60", "--engines", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_sweep_rejects_removed_batch_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["sweep", "--nodes", "60", "--samples", "8", "--batch"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "unrecognized arguments: --batch" in err

    def test_sweep_rejects_removed_mor_order_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["sweep", "--nodes", "60", "--samples", "8", "--mor-order", "2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "unrecognized arguments: --mor-order 2" in err

    def test_sweep_rejects_unknown_corner(self, capsys):
        assert cli_main(["sweep", "--nodes", "60", "--samples", "8", "--corners", "bogus"]) == 2
        assert "corner" in capsys.readouterr().err
