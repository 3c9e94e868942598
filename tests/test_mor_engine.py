"""Tests of the macromodel-accelerated ``mor`` engine and its plumbing.

Covers: accuracy against the exact ``opera`` engine, the reduced
block-operator algebra and its dense block solver, scheme-registry
compatibility of the adapter, session macromodel caching across runs and
corners (with the ``covers`` reuse guard), the sweep ``mor_order``
append-only identity conventions, the sparsity-pattern cache exposure in
``factorization_counters``.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import Analysis
from repro.errors import AnalysisError, SolverError
from repro.mor import MorSystemAdapter, ReducedBlockSolver, mor_atom_count
from repro.sim.transient import TransientConfig
from repro.sweep.plan import SweepCase, SweepPlan, corner_spec

TRANSIENT = TransientConfig(t_stop=1.2e-9, dt=0.2e-9)

#: The issue's accuracy gate: mean/std within 1e-3 relative at default order.
ACCURACY = 1e-3


def _relative_gap(candidate: np.ndarray, reference: np.ndarray) -> float:
    return float(np.max(np.abs(candidate - reference)) / np.max(np.abs(reference)))


@pytest.fixture(scope="module")
def mor_session():
    return Analysis.from_spec(350, transient=TRANSIENT)


@pytest.fixture(scope="module")
def mor_view(mor_session):
    return mor_session.run("mor", order=2)


@pytest.fixture(scope="module")
def opera_view(mor_session):
    return mor_session.run("opera", order=2)


class TestMorEngineAccuracy:
    def test_mean_matches_opera(self, mor_view, opera_view):
        assert _relative_gap(mor_view.mean(), opera_view.mean()) < ACCURACY

    def test_std_matches_opera(self, mor_view, opera_view):
        assert _relative_gap(mor_view.std(), opera_view.std()) < ACCURACY

    def test_reduced_system_is_smaller(self, mor_view):
        stats = mor_view.mor_stats
        assert stats["reduced_size"] < stats["full_size"]
        assert stats["macromodels_built"] >= 2
        assert stats["reduction_order"] == 2
        assert len(stats["block_orders"]) == stats["macromodels_built"]

    def test_store_coefficients_matches_summary_path(self, mor_session, mor_view):
        full = mor_session.run("mor", order=2, store_coefficients=True)
        assert np.allclose(full.mean(), mor_view.mean(), atol=1e-12)
        assert np.allclose(full.std(), mor_view.std(), atol=1e-12)

    def test_higher_reduction_order_stays_within_gate(self, mor_session, opera_view):
        fine = mor_session.run("mor", order=2, mor_order=3)
        assert _relative_gap(fine.std(), opera_view.std()) < ACCURACY
        assert fine.mor_stats["reduction_order"] == 3

    def test_rejects_dc_mode(self, mor_session):
        with pytest.raises(AnalysisError):
            mor_session.run("mor", mode="dc")

    def test_rejects_bad_reduction_order(self, mor_session):
        with pytest.raises(AnalysisError):
            mor_session.run("mor", mor_order=0)

    def test_rejects_unknown_option(self, mor_session):
        with pytest.raises(AnalysisError):
            mor_session.run("mor", not_an_option=1)

    def test_atom_count_heuristic(self):
        assert mor_atom_count(10) == 2
        assert mor_atom_count(2570) == 2
        assert mor_atom_count(25700) == 2
        assert mor_atom_count(90000) == 4
        assert mor_atom_count(10**9) == 8  # capped


class TestMorSchemeCompatibility:
    @pytest.mark.parametrize("scheme", ["backward-euler", "trapezoidal"])
    def test_registered_schemes_march(self, mor_session, scheme):
        mor = mor_session.run("mor", order=2, scheme=scheme)
        reference = mor_session.run("opera", order=2, scheme=scheme)
        assert _relative_gap(mor.mean(), reference.mean()) < ACCURACY


class TestMacromodelCache:
    def test_second_run_reuses_every_macromodel(self):
        session = Analysis.from_spec(350, transient=TRANSIENT)
        first = session.run("mor", order=2)
        second = session.run("mor", order=2)
        assert first.mor_stats["macromodels_reused"] == 0
        assert second.mor_stats["macromodels_built"] == 0
        assert second.mor_stats["macromodels_reused"] == first.mor_stats["macromodels_built"]
        info = session.cache_info()["macromodel"]
        assert info["hits"] == second.mor_stats["macromodels_reused"]
        assert info["misses"] == first.mor_stats["macromodels_built"]

    def test_corner_swap_reuses_macromodels(self):
        session = Analysis.from_spec(
            350, transient=TRANSIENT, variation=corner_spec("paper")
        )
        first = session.run("mor", order=2)
        session.with_variation(corner_spec("wide"))
        second = session.run("mor", order=2)
        assert second.mor_stats["macromodels_built"] == 0
        assert second.mor_stats["macromodels_reused"] == first.mor_stats["macromodels_built"]
        # The reused bases still meet the accuracy gate on the new corner.
        reference = session.run("opera", order=2)
        assert _relative_gap(second.std(), reference.std()) < ACCURACY

    def test_different_reduction_order_is_a_different_model(self):
        session = Analysis.from_spec(350, transient=TRANSIENT)
        session.run("mor", order=2, mor_order=2)
        other = session.run("mor", order=2, mor_order=3)
        assert other.mor_stats["macromodels_built"] > 0
        assert other.mor_stats["macromodels_reused"] == 0

    def test_coverage_guard_rebuilds_on_novel_directions(self):
        session = Analysis.from_spec(350, transient=TRANSIENT)
        session.run("mor", order=2)
        cache = session._caches["macromodel"]
        assert cache
        key, model = next(iter(cache.items()))
        span = model.input_span
        assert span.shape[1] < model.interior.size  # guard is non-trivial
        # A direction orthogonal to the build-time input span is not covered.
        rng = np.random.default_rng(0)
        novel = rng.standard_normal(model.interior.size)
        novel -= span @ (span.T @ novel)
        novel /= np.linalg.norm(novel)
        assert not model.covers([novel])
        # Directions inside the span keep the cache hit ...
        hit, reused = session.macromodel(
            key, lambda: None, lambda cached: cached.covers([span[:, 0]])
        )
        assert reused is True and hit is model
        # ... while a failing guard forces a rebuild that replaces the entry.
        sentinel = object()
        rebuilt, reused = session.macromodel(
            key, lambda: sentinel, lambda cached: cached.covers([novel])
        )
        assert reused is False and rebuilt is sentinel
        assert cache[key] is sentinel


class TestReducedBlockSystem:
    @pytest.fixture(scope="class")
    def reduced_pair(self):
        from repro.chaos.triples import triple_product_tensors
        from repro.mor.macromodel import block_coupling, build_block_macromodel
        from repro.mor.reduced import build_reduced_operators, reduce_rhs_series
        from repro.partition import system_partition

        session = Analysis.from_spec(200, transient=TRANSIENT)
        system = session.system
        galerkin = session.galerkin(2)
        partition = system_partition(system, num_atoms=2)
        boundary = partition.boundary
        series = galerkin.rhs_series(TRANSIENT.times())
        g_nominal = sp.csr_matrix(system.g_nominal)
        c_nominal = sp.csr_matrix(system.c_nominal)
        models, local_columns = [], []
        for atom, interior in enumerate(partition.interiors):
            if not interior.size:
                continue
            adjacency, columns = block_coupling(system, interior, boundary)
            models.append(
                build_block_macromodel(
                    atom,
                    interior,
                    g_nominal[interior][:, interior],
                    c_nominal[interior][:, interior],
                    adjacency,
                    np.empty(0, dtype=int),
                    [],
                    2,
                )
            )
            local_columns.append(columns)
        active = set(galerkin.conductance_coefficients) | set(
            galerkin.capacitance_coefficients
        )
        tensors = triple_product_tensors(galerkin.basis, active)
        conductance, capacitance = build_reduced_operators(
            models,
            local_columns,
            boundary,
            galerkin.basis.size,
            galerkin.conductance_coefficients,
            galerkin.capacitance_coefficients,
            tensors,
        )
        reduced_series = reduce_rhs_series(series, models, boundary, galerkin.basis.size)
        return conductance, capacitance, reduced_series, series, boundary, galerkin

    @staticmethod
    def _densify(operator) -> np.ndarray:
        """Explicit dense matrix of a ReducedBlockOperator from its pieces."""
        dense = np.zeros((operator.size, operator.size))
        tail = operator.boundary_offset
        dense[tail:, tail:] = operator.interface.toarray()
        for diag, forward, reverse, cols, offset in zip(
            operator.diag,
            operator.couple_ib,
            operator.couple_bi,
            operator.col_index,
            operator.offsets,
        ):
            rank = diag.shape[0]
            dense[offset : offset + rank, offset : offset + rank] = diag
            if cols.size:
                dense[offset : offset + rank, tail + cols] = forward
                dense[tail + cols, offset : offset + rank] += reverse
        return dense

    def test_matvec_matches_densified_operator(self, reduced_pair):
        conductance, capacitance, _, _, _, _ = reduced_pair
        rng = np.random.default_rng(5)
        for operator in (conductance, capacitance):
            dense = self._densify(operator)
            x = rng.standard_normal(operator.size)
            assert np.allclose(operator.matvec(x), dense @ x, atol=1e-9)
            assert np.allclose(operator @ x, dense @ x, atol=1e-9)

    def test_scalar_algebra_composes(self, reduced_pair):
        conductance, capacitance, _, _, _, _ = reduced_pair
        h = 2.0e-10
        composed = conductance + capacitance / h
        rng = np.random.default_rng(11)
        x = rng.standard_normal(composed.size)
        direct = conductance.matvec(x) + capacitance.matvec(x) / h
        assert np.allclose(composed.matvec(x), direct, rtol=1e-12, atol=1e-14)
        doubled = 2.0 * conductance
        assert np.allclose(doubled.matvec(x), 2.0 * conductance.matvec(x))
        with pytest.raises(TypeError):
            conductance + 2.0  # operators only compose with operators

    def test_solver_roundtrip(self, reduced_pair):
        conductance, capacitance, _, _, _, _ = reduced_pair
        lhs = conductance + capacitance / 2.0e-10
        rng = np.random.default_rng(13)
        x = rng.standard_normal(lhs.size)
        solver = ReducedBlockSolver(lhs)
        assert solver.shape == lhs.shape
        assert np.allclose(solver.solve(lhs.matvec(x)), x, atol=1e-6)

    def test_reduced_rhs_keeps_boundary_rows_exact(self, reduced_pair):
        _, _, reduced_series, series, boundary, galerkin = reduced_pair
        tail = reduced_series.size - galerkin.basis.size * boundary.size
        out = np.empty(reduced_series.size)
        reduced_series.fill(0, out)
        for index, waveform in series.waveforms:
            segment = out[
                tail + index * boundary.size : tail + (index + 1) * boundary.size
            ]
            assert np.allclose(segment, waveform[0, boundary])

    def test_adapter_prepares_for_registered_scheme(self, reduced_pair):
        from repro.stepping import resolve_scheme

        conductance, capacitance, reduced_series, _, _, _ = reduced_pair
        adapter = MorSystemAdapter(conductance, capacitance, reduced_series)
        prepared = adapter.prepare(
            resolve_scheme("backward-euler"), reduced_series.times, 2.0e-10
        )
        assert prepared.forms.matrix_free is True
        assert prepared.rhs_series is reduced_series
        state = prepared.step_solver.solve(np.ones(adapter.size))
        assert state.shape == (adapter.size,)
        dc = prepared.dc_solver_factory().solve(np.ones(adapter.size))
        assert dc.shape == (adapter.size,)

    def test_adapter_rejects_foreign_time_axis(self, reduced_pair):
        from repro.stepping import resolve_scheme

        conductance, capacitance, reduced_series, _, _, _ = reduced_pair
        adapter = MorSystemAdapter(conductance, capacitance, reduced_series)
        with pytest.raises(SolverError):
            adapter.prepare(
                resolve_scheme("backward-euler"), reduced_series.times + 1e-10, 2.0e-10
            )


class TestSweepMorOrder:
    def test_mor_order_append_only_identity(self):
        plain = SweepCase(engine="mor", nodes=100, order=2)
        tagged = SweepCase(engine="mor", nodes=100, order=2, mor_order=3)
        assert tagged.key() == plain.key() + (3,)
        assert tagged.seed_identity() == plain.seed_identity() + (3,)
        assert "-r3-" in tagged.name
        assert "-r3-" not in plain.name

    def test_preexisting_seed_identities_unchanged(self):
        # The field's introduction must not move seeds of cases without it.
        case = SweepCase(engine="opera", nodes=100, order=2)
        assert case.seed_identity() == ("opera", 100, 2, None, "paper")

    def test_mor_order_rejected_for_other_engines(self):
        with pytest.raises(AnalysisError):
            SweepCase(engine="opera", nodes=100, order=2, mor_order=2)
        with pytest.raises(AnalysisError):
            SweepCase(engine="mor", nodes=100, order=2, mor_order=0)

    def test_run_options_forwarding(self):
        case = SweepCase(engine="mor", nodes=100, order=2, mor_order=3)
        assert case.run_options() == {"order": 2, "mor_order": 3}

    def test_grid_applies_mor_order_to_mor_cases_only(self):
        plan = SweepPlan.grid([100], engines=("opera", "mor"), mor_order=3)
        by_engine = {case.engine: case for case in plan.cases}
        assert by_engine["mor"].mor_order == 3
        assert by_engine["opera"].mor_order is None

    def test_result_record_carries_mor_order(self):
        from repro.sweep.runner import SweepCaseResult

        result = SweepCaseResult(
            engine="mor",
            nodes=100,
            corner="paper",
            order=2,
            samples=None,
            seed=1,
            name="mor-n100-o2-r3-paper",
            num_nodes=100,
            wall_time=0.1,
            worst_drop=0.01,
            max_std=0.001,
            mor_order=3,
        )
        assert result.key()[-1] == 3
        assert result.to_record()["mor_order"] == 3


class TestPatternCacheExposure:
    def test_counters_report_cache_occupancy(self):
        from repro.sim.linear import (
            clear_pattern_cache,
            factorization_counters,
            make_solver,
        )

        clear_pattern_cache()
        before = factorization_counters()
        assert before["pattern_cache_entries"] == 0
        assert before["pattern_cache_limit"] >= 1
        make_solver(sp.identity(8, format="csr") * 2.0)
        assert factorization_counters()["pattern_cache_entries"] == 1

    def test_limit_setter_evicts_and_restores(self):
        from repro.sim.linear import (
            clear_pattern_cache,
            factorization_counters,
            make_solver,
            set_pattern_cache_limit,
        )

        clear_pattern_cache()
        for size in (5, 6, 7):
            make_solver(sp.identity(size, format="csr") * 3.0)
        assert factorization_counters()["pattern_cache_entries"] == 3
        previous = set_pattern_cache_limit(2)
        try:
            counters = factorization_counters()
            assert counters["pattern_cache_entries"] == 2
            assert counters["pattern_cache_limit"] == 2
            with pytest.raises(SolverError):
                set_pattern_cache_limit(0)
        finally:
            set_pattern_cache_limit(previous)
        assert factorization_counters()["pattern_cache_limit"] == previous
