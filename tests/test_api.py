"""Tests for the ``repro.api`` facade: sessions, registries, caching, results.

Covers the acceptance criteria of the API redesign:

* the ``Analysis`` facade runs all five built-in engines on one session;
* repeated runs reuse the cached chaos basis and LU factorisation (asserted
  by object identity);
* registry registration/lookup errors for engines and solvers;
* result-protocol conformance for every engine;
* the legacy free functions still produce the same numbers as the facade.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    Analysis,
    AnalysisResult,
    ComparisonResult,
    engine_names,
    register_engine,
    register_solver,
    solver_names,
    unregister_engine,
    unregister_solver,
)
from repro.api.result import EngineResult
from repro.cli import main as cli_main
from repro.errors import AnalysisError, SolverError
from repro.opera import OperaConfig, run_opera_transient
from repro.sim import TransientConfig, make_solver, transient_analysis
from repro.sim.linear import DirectSolver, matrix_fingerprint
from repro.variation import VariationSpec, build_stochastic_system


@pytest.fixture(scope="module")
def session(small_netlist):
    """A session over the shared small grid with a short time axis."""
    s = Analysis.from_netlist(small_netlist)
    s.with_transient(t_stop=1.0e-9, dt=0.25e-9)
    return s


@pytest.fixture(scope="module")
def rhs_only_session(small_netlist):
    """A session whose variation touches only the excitation (current germs),
    so ``opera`` takes the decoupled special case."""
    s = Analysis.from_netlist(
        small_netlist,
        variation=VariationSpec(vary_conductance=False, vary_capacitance=False),
    )
    s.with_transient(t_stop=1.0e-9, dt=0.25e-9)
    return s


# ---------------------------------------------------------------------------
# Session construction
# ---------------------------------------------------------------------------
class TestConstruction:
    def test_from_netlist(self, small_netlist):
        s = Analysis.from_netlist(small_netlist)
        assert s.num_nodes == s.stamped.num_nodes > 0

    def test_from_spec_gridspec(self, small_grid_spec):
        s = Analysis.from_spec(small_grid_spec)
        assert s.netlist.num_nodes > 0

    def test_from_spec_node_count(self):
        s = Analysis.from_spec(80, seed=3)
        assert s.num_nodes > 0

    def test_from_spice(self, small_netlist, tmp_path):
        from repro.grid import write_spice

        deck = tmp_path / "grid.sp"
        write_spice(small_netlist, deck)
        s = Analysis.from_spice(str(deck))
        assert s.num_nodes == small_netlist.num_nodes

    def test_from_system(self, small_system):
        s = Analysis.from_system(small_system)
        assert s.num_nodes == small_system.num_nodes
        with pytest.raises(AnalysisError):
            _ = s.netlist

    def test_empty_constructor_rejected(self):
        with pytest.raises(AnalysisError):
            Analysis()

    def test_with_transient_overrides(self, small_netlist):
        s = Analysis.from_netlist(small_netlist)
        s.with_transient(t_stop=2.0e-9, dt=0.5e-9)
        assert s.transient.t_stop == pytest.approx(2.0e-9)
        assert s.transient.dt == pytest.approx(0.5e-9)

    def test_with_variation_invalidates_system(self, small_netlist):
        s = Analysis.from_netlist(small_netlist)
        first = s.system
        s.with_variation(VariationSpec(combine_wt=False))
        assert s.system is not first
        assert s.system.num_variables == 3  # xi_W, xi_T, xi_L


# ---------------------------------------------------------------------------
# Engines through the facade
# ---------------------------------------------------------------------------
class TestEngines:
    def test_builtin_engine_names(self):
        names = engine_names()
        for expected in ("opera", "montecarlo", "deterministic", "pce-regression"):
            assert expected in names
        for removed in ("randomwalk", "decoupled", "mor"):
            assert removed not in names

    def test_every_engine_on_one_session(self, rhs_only_session):
        """Acceptance: the facade runs every built-in engine on the same
        session object, each returning a protocol-conformant result."""
        results = {
            "opera": rhs_only_session.run("opera", order=2),
            "montecarlo": rhs_only_session.run("montecarlo", samples=8, seed=1),
            "deterministic": rhs_only_session.run("deterministic"),
            "pce-regression": rhs_only_session.run("pce-regression", order=1, samples=20),
        }
        for name, result in results.items():
            assert isinstance(result, AnalysisResult), name
            assert result.engine == name
            mean = result.mean()
            std = result.std()
            assert mean.shape == std.shape
            assert np.all(np.isfinite(mean))
            assert result.worst_drop() >= 0.0
            summary = result.to_dict()
            assert summary["engine"] == name
            assert "worst_drop" in summary

    def test_opera_dc_mode(self, session):
        result = session.run("opera", mode="dc", order=2)
        assert result.mode == "dc"
        assert result.mean().shape == (session.num_nodes,)
        assert result.to_dict()["order"] == 2

    def test_deterministic_dc_mode(self, session):
        result = session.run("deterministic", mode="dc")
        assert np.all(result.std() == 0.0)

    def test_montecarlo_dc_mode(self, session):
        result = session.run("montecarlo", mode="dc", samples=6, seed=2)
        assert result.to_dict()["num_samples"] == 6

    def test_unknown_engine_lists_choices(self, session):
        listing = "registered engines: " + ", ".join(engine_names())
        # Typos and engines that no longer exist fail the same way.
        for name in ("bogus", "hierarchical", "randomwalk", "decoupled", "mor"):
            with pytest.raises(AnalysisError, match="registered engines") as info:
                session.run(name)
            assert listing in str(info.value)

    def test_unknown_option_rejected(self, session):
        with pytest.raises(AnalysisError, match="unknown option"):
            session.run("opera", order=2, frobnicate=True)

    def test_time_axis_override_per_run(self, session):
        result = session.run("opera", order=1, t_stop=0.5e-9, dt=0.25e-9)
        assert result.raw.times.size == 3  # t=0, 0.25ns, 0.5ns


# ---------------------------------------------------------------------------
# Caching
# ---------------------------------------------------------------------------
class TestCaching:
    def test_basis_identity_across_runs(self, small_netlist):
        s = Analysis.from_netlist(small_netlist)
        s.with_transient(t_stop=1.0e-9, dt=0.25e-9)
        first = s.run("opera", order=2)
        second = s.run("opera", order=2)
        assert first.raw.basis is second.raw.basis

    def test_lu_identity_across_runs(self, small_netlist):
        """Acceptance: a repeated run(order=2) reuses the LU factorisation."""
        s = Analysis.from_netlist(small_netlist)
        s.with_transient(t_stop=1.0e-9, dt=0.25e-9)
        s.run("opera", order=2)
        solvers_after_first = dict(s._caches["solver"])
        assert solvers_after_first  # the run factorised something
        s.run("opera", order=2)
        assert dict(s._caches["solver"]) == solvers_after_first  # no new entries
        for key, solver in s._caches["solver"].items():
            assert solvers_after_first[key] is solver  # same objects reused
        info = s.cache_info()
        assert info["solver"]["hits"] >= len(solvers_after_first)
        assert info["basis"]["hits"] >= 1
        assert info["galerkin"]["hits"] >= 1

    def test_galerkin_cache_identity(self, session):
        assert session.galerkin(2) is session.galerkin(2)

    def test_solver_cache_keyed_by_content(self, session):
        matrix = session.stamped.conductance
        a = session.solver(matrix, method="direct")
        b = session.solver(matrix.copy(), method="direct")  # equal content
        assert a is b
        c = session.solver(2.0 * matrix, method="direct")
        assert c is not a

    def test_nominal_transient_cached_per_config(self, session):
        config = TransientConfig(t_stop=1.0e-9, dt=0.5e-9)
        assert session.nominal_transient(config) is session.nominal_transient(config)

    def test_order_change_builds_new_basis(self, session):
        assert session.basis(1) is not session.basis(2)
        assert session.basis(1) is session.basis(1)

    def test_clear_caches(self, small_netlist):
        s = Analysis.from_netlist(small_netlist)
        s.with_transient(t_stop=1.0e-9, dt=0.5e-9)
        s.run("opera", order=1)
        assert any(s._caches.values())
        s.clear_caches()
        assert not any(s._caches.values())

    def test_matrix_fingerprint_stability(self, small_stamped):
        g = small_stamped.conductance
        assert matrix_fingerprint(g) == matrix_fingerprint(g.copy().tocsc())
        assert matrix_fingerprint(g) != matrix_fingerprint(2.0 * g)


# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------
class TestEngineRegistry:
    def test_register_and_run_custom_engine(self, session):
        @register_engine("api-test-null")
        def _null_engine(sess, mode=None, **options):
            result = sess.run("deterministic", mode=mode)
            view = EngineResult("api-test-null", result.mode, result.raw, sess.vdd)
            view.mean = result.mean
            view.std = result.std
            return view

        try:
            assert "api-test-null" in engine_names()
            result = session.run("api-test-null")
            assert result.engine == "api-test-null"
        finally:
            unregister_engine("api-test-null")
        assert "api-test-null" not in engine_names()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(AnalysisError, match="already registered"):
            register_engine("opera", lambda session, mode=None, **kw: None)

    def test_overwrite_allowed_explicitly(self, session):
        @register_engine("api-test-overwrite")
        def _v1(sess, mode=None, **options):
            return sess.run("deterministic")

        try:
            register_engine(
                "api-test-overwrite",
                lambda sess, mode=None, **kw: sess.run("deterministic", mode="dc"),
                overwrite=True,
            )
            assert session.run("api-test-overwrite").mode == "dc"
        finally:
            unregister_engine("api-test-overwrite")
        assert "api-test-overwrite" not in engine_names()

    def test_unregister_unknown_raises(self):
        with pytest.raises(AnalysisError):
            unregister_engine("never-registered")


class TestSolverRegistry:
    def test_builtin_solver_names(self):
        names = solver_names()
        for expected in ("direct", "cg", "mean-block-cg"):
            assert expected in names
        assert "degree-block-cg" not in names

    def test_unknown_solver_lists_choices(self, small_stamped):
        listing = "registered solvers: " + ", ".join(solver_names())
        # Typos and backends that no longer exist fail the same way.
        for name in ("bogus", "schur", "schwarz-cg", "ilu-cg", "degree-block-cg"):
            with pytest.raises(SolverError, match="registered solvers") as info:
                make_solver(small_stamped.conductance, method=name)
            assert listing in str(info.value)

    def test_register_custom_solver_reaches_engines(self, small_netlist):
        calls = []

        @register_solver("api-test-direct")
        def _tracked_direct(matrix, **options):
            calls.append(matrix.shape)
            return DirectSolver(matrix)

        try:
            s = Analysis.from_netlist(small_netlist)
            s.with_transient(t_stop=1.0e-9, dt=0.5e-9)
            result = s.run("opera", order=1, solver="api-test-direct")
            assert calls, "the registered solver factory was never used"
            assert np.all(np.isfinite(result.mean()))
        finally:
            unregister_solver("api-test-direct")
        with pytest.raises(SolverError):
            make_solver(s.stamped.conductance, method="api-test-direct")

    def test_duplicate_solver_registration_rejected(self):
        with pytest.raises(SolverError, match="already registered"):
            register_solver("direct", lambda matrix, **kw: None)


# ---------------------------------------------------------------------------
# solve_many vectorisation
# ---------------------------------------------------------------------------
class TestSolveMany:
    def test_direct_solve_many_matches_column_loop(self, small_stamped, rng):
        solver = make_solver(small_stamped.conductance, method="direct")
        rhs = rng.standard_normal((small_stamped.num_nodes, 7))
        batched = solver.solve_many(rhs)
        looped = np.column_stack([solver.solve(rhs[:, j]) for j in range(7)])
        np.testing.assert_allclose(batched, looped, rtol=1e-12, atol=1e-14)

    def test_direct_solve_many_shape_check(self, small_stamped):
        solver = make_solver(small_stamped.conductance, method="direct")
        with pytest.raises(SolverError):
            solver.solve_many(np.ones((small_stamped.num_nodes + 1, 3)))


# ---------------------------------------------------------------------------
# compare() and summarize()
# ---------------------------------------------------------------------------
class TestCompare:
    def test_compare_assembles_table_row(self, small_netlist):
        s = Analysis.from_netlist(small_netlist)
        s.with_transient(t_stop=1.0e-9, dt=0.25e-9)
        comparison = s.compare(order=2, samples=12, seed=4)
        assert isinstance(comparison, ComparisonResult)
        assert comparison.row.num_nodes == s.num_nodes
        assert comparison.speedup > 0
        rendered = str(comparison)
        assert "Speedup" in rendered
        summary = comparison.to_dict()
        assert summary["num_nodes"] == s.num_nodes

    def test_compare_stores_worst_node_samples(self, small_netlist):
        s = Analysis.from_netlist(small_netlist)
        s.with_transient(t_stop=1.0e-9, dt=0.25e-9)
        comparison = s.compare(order=2, samples=8, seed=4)
        worst = int(comparison.reference.raw.worst_node())
        samples = comparison.baseline.raw.drop_samples(worst, time_index=None)
        assert samples.shape[0] == 8

    def test_summarize_default_run(self, small_netlist):
        s = Analysis.from_netlist(small_netlist)
        s.with_transient(t_stop=1.0e-9, dt=0.25e-9)
        report = s.summarize()
        assert report.vdd == pytest.approx(s.vdd)
        assert "worst node" in str(report)

    def test_summarize_rejects_dc_results(self, session):
        result = session.run("opera", mode="dc")
        with pytest.raises(AnalysisError, match="time axis"):
            session.summarize(result)

    def test_compare_with_non_chaos_reference_engine(self, small_netlist):
        """compare() must not force chaos-only options onto other engines."""
        s = Analysis.from_netlist(small_netlist)
        s.with_transient(t_stop=1.0e-9, dt=0.25e-9)
        comparison = s.compare(
            reference_engine="opera",
            baseline_engine="montecarlo",
            samples=8,
            reference_options={"store_coefficients": False},
        )
        assert comparison.row.num_nodes == s.num_nodes


# ---------------------------------------------------------------------------
# Legacy free functions keep working and agree with the facade
# ---------------------------------------------------------------------------
class TestLegacyCompatibility:
    def test_run_opera_transient_matches_facade(self, small_netlist, small_stamped):
        transient = TransientConfig(t_stop=1.0e-9, dt=0.25e-9)
        system = build_stochastic_system(small_stamped, VariationSpec.paper_defaults())
        legacy = run_opera_transient(system, OperaConfig(transient=transient, order=2))

        s = Analysis.from_netlist(small_netlist, stamped=small_stamped)
        s.with_transient(transient)
        facade = s.run("opera", order=2)

        np.testing.assert_allclose(legacy.mean_voltage, facade.mean(), atol=1e-12)
        np.testing.assert_allclose(legacy.std_voltage, facade.std(), atol=1e-12)

    def test_transient_analysis_matches_deterministic_engine(self, small_netlist, small_stamped):
        transient = TransientConfig(t_stop=1.0e-9, dt=0.25e-9)
        legacy = transient_analysis(small_stamped, transient)
        s = Analysis.from_netlist(small_netlist, stamped=small_stamped)
        facade = s.run("deterministic", transient=transient)
        np.testing.assert_allclose(legacy.voltages, facade.mean(), atol=1e-14)

    def test_top_level_exports(self):
        import repro

        for name in (
            "Analysis",
            "AnalysisResult",
            "compare",
            "register_engine",
            "register_solver",
            "engine_names",
            "solver_names",
        ):
            assert hasattr(repro, name), name


# ---------------------------------------------------------------------------
# CLI integration with the registries
# ---------------------------------------------------------------------------
class TestCLIEngineFlags:
    COMMON = ["--synthetic-nodes", "60", "--seed", "4", "--t-stop", "1e-9", "--dt", "0.5e-9"]

    def test_analyze_with_montecarlo_engine(self, capsys):
        code = cli_main(["analyze", *self.COMMON, "--engine", "montecarlo", "--samples", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "montecarlo" in out
        assert "worst_drop" in out

    def test_analyze_unknown_engine_fails_with_listing(self, capsys):
        for name in ("bogus", "hierarchical", "randomwalk", "decoupled", "mor"):
            code = cli_main(["analyze", *self.COMMON, "--engine", name])
            assert code == 2
            err = capsys.readouterr().err
            assert "registered engines: " + ", ".join(engine_names()) in err

    def test_analyze_unknown_solver_fails_with_listing(self, capsys):
        for name in ("bogus", "schur", "schwarz-cg", "ilu-cg", "degree-block-cg"):
            code = cli_main(["analyze", *self.COMMON, "--solver", name])
            assert code == 2
            err = capsys.readouterr().err
            assert "registered solvers: " + ", ".join(solver_names()) in err

    def test_analyze_with_cg_solver(self, capsys):
        code = cli_main(["analyze", *self.COMMON, "--solver", "cg"])
        assert code == 0
        assert "worst node" in capsys.readouterr().out

class TestSolverStats:
    def test_session_aggregates_cg_stats(self, small_netlist):
        from repro.api import Analysis

        session = Analysis.from_netlist(small_netlist).with_transient(t_stop=1.0e-9, dt=0.2e-9)
        assert session.solver_stats() == {}
        result = session.run("opera", order=1, solver="cg")
        stats = session.solver_stats()
        assert "cg" in stats
        assert stats["cg"]["solves"] > 0
        assert stats["cg"]["total_iterations"] > 0
        assert stats["cg"]["last_relative_residual"] < 1e-6
        # The run's result view carries the same diagnostics in to_dict().
        summary = result.to_dict()
        assert summary["solver_stats"]["cg"]["solves"] == stats["cg"]["solves"]

    def test_direct_backend_contributes_no_stats(self, small_netlist):
        from repro.api import Analysis

        session = Analysis.from_netlist(small_netlist).with_transient(t_stop=1.0e-9, dt=0.2e-9)
        result = session.run("deterministic")
        assert session.solver_stats() == {}
        assert "solver_stats" not in result.to_dict()
    def test_view_stats_are_per_run_not_cumulative(self, small_netlist):
        from repro.api import Analysis

        session = Analysis.from_netlist(small_netlist).with_transient(
            t_stop=1.0e-9, dt=0.2e-9
        )
        first = session.run("opera", order=1, solver="cg")
        second = session.run("opera", order=1, solver="cg")
        first_solves = first.to_dict()["solver_stats"]["cg"]["solves"]
        second_solves = second.to_dict()["solver_stats"]["cg"]["solves"]
        # The session cache is cumulative, but each view reports only the
        # work of its own run (the second reuses cached factorisations and
        # performs the same number of solves, not first + second).
        assert second_solves <= first_solves
        total = session.solver_stats()["cg"]["solves"]
        assert total == first_solves + second_solves


class TestTelemetryStepStats:
    """Per-step solver metrics attached under ``solver_stats["steps"]``.

    While :func:`repro.telemetry.profile` is active, :meth:`Analysis.run`
    claims the step-loop aggregate of its own run for every registered
    transient engine; without telemetry nothing is attached and the
    waveforms are bit-identical either way.
    """

    ENGINE_OPTIONS = {
        "opera": {"order": 1},
        "montecarlo": {"samples": 4, "seed": 1, "workers": 1},
        "deterministic": {},
        "pce-regression": {"order": 1, "samples": 12, "seed": 1},
    }

    @pytest.fixture()
    def fresh_rhs_session(self, small_netlist):
        """A fresh rhs-only session per test: cached results never ran a
        step loop, so they (correctly) carry no per-step stats."""
        s = Analysis.from_netlist(
            small_netlist,
            variation=VariationSpec(vary_conductance=False, vary_capacitance=False),
        )
        return s.with_transient(t_stop=1.0e-9, dt=0.25e-9)

    @pytest.mark.parametrize("engine", sorted(ENGINE_OPTIONS))
    def test_steps_block_for_every_transient_engine(self, fresh_rhs_session, engine):
        import math

        from repro import telemetry

        with telemetry.profile():
            view = fresh_rhs_session.run(
                engine, mode="transient", **self.ENGINE_OPTIONS[engine]
            )
        steps = view.solver_stats["steps"]
        assert steps["steps"] > 0
        assert steps["solves"] >= steps["steps"]
        assert steps["warm_starts"] + steps["cold_starts"] == steps["solves"]
        assert steps["lhs_hoists"] >= 1
        assert steps["lhs_reused_solves"] == steps["solves"] - steps["lhs_hoists"]
        assert steps["total_iterations"] >= 0
        for key in ("last_relative_residual", "max_relative_residual"):
            assert steps[key] is None or math.isfinite(steps[key])
        # The block survives (sorted) in the JSON summary.
        summary = view.to_dict()["solver_stats"]["steps"]
        assert list(summary) == sorted(summary)

    def test_cg_iteration_counts_and_warm_starts(self, small_netlist):
        import math

        from repro import telemetry

        session = Analysis.from_netlist(small_netlist).with_transient(
            t_stop=1.0e-9, dt=0.25e-9
        )
        with telemetry.profile():
            view = session.run("opera", order=1, solver="cg")
        steps = view.solver_stats["steps"]
        # Every CG solve iterates at least once and reports its residual.
        assert steps["total_iterations"] >= steps["solves"] > 0
        assert math.isfinite(steps["last_relative_residual"])
        assert steps["max_relative_residual"] >= steps["last_relative_residual"] >= 0.0
        # The step loop feeds the previous state to warm-start-capable solvers.
        assert steps["warm_starts"] == steps["solves"]
        assert steps["warm_start_hit_rate"] == 1.0

    def test_no_steps_block_without_telemetry(self, rhs_only_session):
        view = rhs_only_session.run("deterministic", mode="transient")
        assert "steps" not in (view.solver_stats or {})

    def test_waveforms_bit_identical_with_telemetry(self, small_netlist):
        from repro import telemetry

        session = Analysis.from_netlist(small_netlist).with_transient(
            t_stop=1.0e-9, dt=0.25e-9
        )
        for engine, options in (
            ("opera", {"order": 1}),
            ("montecarlo", {"samples": 6, "seed": 3}),
        ):
            baseline = session.run(engine, **options)
            with telemetry.profile():
                profiled = session.run(engine, **options)
            assert np.array_equal(baseline.mean(), profiled.mean())
            assert np.array_equal(baseline.std(), profiled.std())

