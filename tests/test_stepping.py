"""Tests of the unified time-integration core (``repro.stepping``).

Covers the scheme registry, the hoisted step forms, the convergence order
of every built-in scheme on an analytic RC reference, the no-behaviour-
change contract of the engine rewiring (frozen pre-refactor waveforms,
``tests/data/stepping_reference.npz``), cross-engine equivalence per
scheme, and the ``scheme`` plumbing through sweeps and the CLI.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import Analysis
from repro.errors import SchemeError
from repro.linalg.operator import KronSumOperator
from repro.sim import ConjugateGradientSolver, DirectSolver, TransientConfig
from repro.sim.transient import run_transient
from repro.stepping import (
    BackwardEulerScheme,
    MnaSystemAdapter,
    StepLoop,
    ThetaScheme,
    TrapezoidalScheme,
    register_scheme,
    resolve_scheme,
    scheme_names,
    step_forms,
    supports_warm_start,
    unregister_scheme,
)
from repro.sweep.plan import SweepCase, SweepPlan, corner_spec

REFERENCE = Path(__file__).parent / "data" / "stepping_reference.npz"

#: Settings of the frozen reference scenario (tests/data/make_stepping_reference.py).
REF_NODES = 120
REF_GRID_SEED = 3
REF_TRANSIENT = dict(t_stop=8 * 0.2e-9, dt=0.2e-9)
REF_ORDER = 2
REF_MC = dict(samples=16, chunk_size=8)


# ---------------------------------------------------------------------------
# Registry and schemes
# ---------------------------------------------------------------------------
class TestSchemeRegistry:
    def test_builtins_registered(self):
        names = scheme_names()
        for name in ("backward-euler", "trapezoidal", "theta"):
            assert name in names

    def test_resolve_by_name(self):
        assert isinstance(resolve_scheme("trapezoidal"), TrapezoidalScheme)
        assert isinstance(resolve_scheme("backward-euler"), BackwardEulerScheme)
        assert isinstance(resolve_scheme(" Trapezoidal "), TrapezoidalScheme)

    def test_resolve_passes_instances_through(self):
        scheme = ThetaScheme(0.7)
        assert resolve_scheme(scheme) is scheme

    def test_parametrised_spec(self):
        scheme = resolve_scheme("theta:0.75")
        assert isinstance(scheme, ThetaScheme)
        assert scheme.theta == 0.75
        assert scheme.spec == "theta:0.75"
        assert resolve_scheme(scheme.spec) == scheme

    def test_unknown_scheme_raises_listing(self):
        with pytest.raises(SchemeError, match="registered schemes"):
            resolve_scheme("magic")
        # SchemeError doubles as ValueError for configuration callers.
        with pytest.raises(ValueError):
            resolve_scheme("magic")

    def test_theta_needs_parameter(self):
        with pytest.raises(SchemeError, match="parameter"):
            resolve_scheme("theta")
        with pytest.raises(SchemeError):
            resolve_scheme("theta:not-a-number")

    def test_parameterless_schemes_reject_parameters(self):
        with pytest.raises(SchemeError, match="takes no parameter"):
            resolve_scheme("trapezoidal:2")

    def test_theta_stability_range(self):
        with pytest.raises(SchemeError):
            ThetaScheme(0.4)
        with pytest.raises(SchemeError):
            ThetaScheme(1.1)

    def test_theta_limits_reproduce_builtins_exactly(self):
        assert ThetaScheme(1.0).coefficients == BackwardEulerScheme().coefficients
        assert ThetaScheme(0.5).coefficients == TrapezoidalScheme().coefficients

    def test_convergence_orders(self):
        assert TrapezoidalScheme().convergence_order == 2
        assert BackwardEulerScheme().convergence_order == 1
        assert ThetaScheme(0.5).convergence_order == 2
        assert ThetaScheme(0.75).convergence_order == 1

    def test_custom_scheme_registration(self):
        @register_scheme("damped-test")
        def build(parameter=None):
            return ThetaScheme(0.8)

        try:
            scheme = resolve_scheme("damped-test")
            assert isinstance(scheme, ThetaScheme)
            # A registered scheme is a valid TransientConfig method.
            config = TransientConfig(t_stop=1.0, dt=0.1, method="damped-test")
            assert config.scheme == ThetaScheme(0.8)
        finally:
            unregister_scheme("damped-test")
        with pytest.raises(SchemeError):
            resolve_scheme("damped-test")

    def test_transient_config_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            TransientConfig(t_stop=1.0, dt=0.1, method="magic")

    def test_transient_config_accepts_parametrised_scheme(self):
        config = TransientConfig(t_stop=1.0, dt=0.1, method="theta:0.6")
        assert isinstance(config.scheme, ThetaScheme)


class TestStepForms:
    def _matrices(self):
        conductance = sp.csr_matrix(
            np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        )
        capacitance = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
        return conductance, capacitance

    def test_trapezoidal_explicit_forms(self):
        conductance, capacitance = self._matrices()
        h = 0.25
        forms = step_forms("trapezoidal", conductance, capacitance, h)
        assert not forms.matrix_free
        np.testing.assert_array_equal(
            forms.lhs.toarray(), (conductance + 2.0 * capacitance / h).toarray()
        )
        np.testing.assert_array_equal(
            forms.rhs_capacitance.toarray(), (2.0 * capacitance / h).toarray()
        )
        np.testing.assert_array_equal(forms.rhs_conductance.toarray(), conductance.toarray())
        assert forms.rhs_u_new == 1.0 and forms.rhs_u_old == 1.0

    def test_backward_euler_explicit_forms(self):
        conductance, capacitance = self._matrices()
        h = 0.5
        forms = step_forms("backward-euler", conductance, capacitance, h)
        np.testing.assert_array_equal(
            forms.lhs.toarray(), (conductance + capacitance / h).toarray()
        )
        np.testing.assert_array_equal(
            forms.rhs_capacitance.toarray(), (capacitance / h).toarray()
        )
        assert forms.rhs_conductance is None
        assert forms.rhs_u_old == 0.0

    def test_operator_forms_are_matrix_free(self):
        conductance, capacitance = self._matrices()
        identity = sp.identity(2, format="csr")
        g_op = KronSumOperator([(identity, conductance)])
        c_op = KronSumOperator([(identity, capacitance)])
        forms = step_forms("trapezoidal", g_op, c_op, 0.25)
        assert forms.matrix_free
        x = np.arange(6, dtype=float)
        explicit = step_forms(
            "trapezoidal", sp.kron(identity, conductance), sp.kron(identity, capacitance), 0.25
        )
        np.testing.assert_allclose(forms.lhs.matvec(x), explicit.lhs @ x, atol=1e-13)

    def test_rejects_bad_step(self):
        conductance, capacitance = self._matrices()
        with pytest.raises(SchemeError):
            step_forms("trapezoidal", conductance, capacitance, 0.0)


# ---------------------------------------------------------------------------
# Convergence order on an analytic RC reference
# ---------------------------------------------------------------------------
def _rc_error(scheme_spec: str, dt: float) -> float:
    """Max waveform error of ``c x' + g x = sin(w t)`` vs the analytic solution.

    The initial condition is placed on the particular solution, so the
    exact response stays purely sinusoidal (no decaying homogeneous term)
    and the measured error is the scheme's accumulation error alone.
    """
    g, c, omega, t_stop = 1.0, 1.0, 2.0 * np.pi, 1.0
    denominator = g * g + (c * omega) ** 2
    a = g / denominator
    b = -c * omega / denominator

    def exact(t):
        return a * np.sin(omega * t) + b * np.cos(omega * t)

    conductance = sp.csr_matrix(np.array([[g]]))
    capacitance = sp.csr_matrix(np.array([[c]]))
    config = TransientConfig(t_stop=t_stop, dt=dt, method=scheme_spec)
    result = run_transient(
        conductance,
        capacitance,
        lambda t: np.array([np.sin(omega * t)]),
        config,
        x0=np.array([b]),
    )
    return float(np.max(np.abs(result.voltages[:, 0] - exact(result.times))))


class TestConvergenceOrder:
    @pytest.mark.parametrize(
        "scheme_spec, expected_order",
        [
            ("backward-euler", 1),
            ("trapezoidal", 2),
            ("theta:0.5", 2),
            ("theta:0.75", 1),
        ],
    )
    def test_observed_order(self, scheme_spec, expected_order):
        errors = [_rc_error(scheme_spec, dt) for dt in (4e-3, 2e-3, 1e-3)]
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        observed = float(np.mean(orders))
        assert observed == pytest.approx(expected_order, abs=0.35)

    def test_trapezoidal_beats_backward_euler(self):
        assert _rc_error("trapezoidal", 2e-3) < _rc_error("backward-euler", 2e-3) / 10.0


# ---------------------------------------------------------------------------
# No-behaviour-change contract: frozen pre-refactor waveforms
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def reference_archive():
    return np.load(REFERENCE)


@pytest.fixture(scope="module")
def reference_sessions():
    paper = Analysis.from_spec(
        REF_NODES, seed=REF_GRID_SEED, transient=TransientConfig(**REF_TRANSIENT)
    )
    rhs_only = Analysis.from_spec(
        REF_NODES,
        seed=REF_GRID_SEED,
        variation=corner_spec("rhs-only"),
        transient=TransientConfig(**REF_TRANSIENT),
    )
    return paper, rhs_only


class TestPreRefactorEquivalence:
    """Every rewired engine reproduces its pre-``repro.stepping`` waveforms.

    The archive was generated by the *old* per-engine loops (see
    ``tests/data/make_stepping_reference.py``); <= 1e-12 on mean and std is
    the refactor's acceptance contract for every engine and both historical
    methods.  The ``decoupled/*`` arrays were written by the since-removed
    ``decoupled`` engine alias; ``opera`` on the RHS-only session takes the
    same decoupled special case and must still reproduce them.
    """

    @pytest.mark.parametrize("method", ["trapezoidal", "backward-euler"])
    @pytest.mark.parametrize("archive_key", ["opera", "montecarlo", "decoupled"])
    def test_engine_matches_frozen_reference(
        self, reference_archive, reference_sessions, archive_key, method
    ):
        paper, rhs_only = reference_sessions
        if archive_key == "decoupled":
            view = rhs_only.run("opera", order=REF_ORDER, method=method)
        elif archive_key == "montecarlo":
            view = paper.run("montecarlo", method=method, **REF_MC)
        else:
            view = paper.run("opera", order=REF_ORDER, method=method)
        _assert_matches_archive(view, reference_archive, archive_key, method)

    @pytest.mark.parametrize("method", ["trapezoidal", "backward-euler"])
    @pytest.mark.parametrize("archive_key", ["opera", "decoupled"])
    def test_direct_matches_frozen_reference(
        self, reference_archive, reference_sessions, archive_key, method
    ):
        """The paper's reference path, ``opera`` with ``direct``, stays pinned
        next to the default (``mean-block-cg`` on the coupled system)."""
        paper, rhs_only = reference_sessions
        session = rhs_only if archive_key == "decoupled" else paper
        view = session.run("opera", order=REF_ORDER, method=method, solver="direct")
        assert view.solver == "direct"
        _assert_matches_archive(view, reference_archive, archive_key, method)


def _assert_matches_archive(view, archive, archive_key, method):
    np.testing.assert_allclose(
        view.mean(), archive[f"{archive_key}/{method}/mean"], rtol=0.0, atol=1e-12
    )
    np.testing.assert_allclose(
        view.std(), archive[f"{archive_key}/{method}/std"], rtol=0.0, atol=1e-12
    )


# ---------------------------------------------------------------------------
# Cross-engine equivalence per scheme
# ---------------------------------------------------------------------------
class TestCrossEngineEquivalence:
    @pytest.mark.parametrize("scheme", ["backward-euler", "trapezoidal", "theta:0.7"])
    def test_decoupled_vs_forced_coupled(self, reference_sessions, scheme):
        _, rhs_only = reference_sessions
        # RHS-only variation: opera routes itself to the decoupled special case.
        decoupled = rhs_only.run("opera", order=REF_ORDER, scheme=scheme)
        coupled = rhs_only.run(
            "opera", order=REF_ORDER, scheme=scheme, force_coupled=True
        )
        np.testing.assert_allclose(decoupled.mean(), coupled.mean(), rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(decoupled.std(), coupled.std(), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize(
        "solver, run",
        [
            pytest.param(
                solver,
                run,
                marks=pytest.mark.xfail(
                    solver == "cg" and run == "force-coupled",
                    reason="cg is not exact: its rtol=1e-10 is relative to |b|, and "
                    "the coupled run misses 1e-9 (2.4e-9 on the mean)",
                    raises=AssertionError,
                    strict=True,
                ),
            )
            for solver in ("direct", "cg", "mean-block-cg")
            for run in ("transient", "force-coupled", "dc")
        ],
    )
    def test_every_solver_on_the_rhs_only_corner(self, reference_sessions, solver, run):
        """Every solver name runs ``opera`` on the RHS-only corner and matches
        ``direct``.  The decoupled special case is an ``n x n`` system, so it
        runs ``mean-block-cg`` as ``direct`` (it used to hand that backend
        the nominal matrix and raise ``SolverError``)."""
        _, rhs_only = reference_sessions
        options = {
            "transient": {},
            "force-coupled": {"force_coupled": True},
            "dc": {"mode": "dc"},
        }[run]
        reference = rhs_only.run("opera", order=REF_ORDER, solver="direct", **options)
        view = rhs_only.run("opera", order=REF_ORDER, solver=solver, **options)
        decoupled = run == "transient"
        assert view.solver == ("direct" if decoupled and solver == "mean-block-cg" else solver)
        assert view.to_dict()["solver"] == view.solver
        np.testing.assert_allclose(view.mean(), reference.mean(), rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(view.std(), reference.std(), rtol=0.0, atol=1e-9)

    def test_decoupled_run_forwards_solver_options(self, reference_sessions):
        """``solver_options`` reach the decoupled special case's solver: a
        tighter ``cg`` tolerance tightens the match to ``direct``, which the
        default tolerance leaves at 9.43e-10 on the mean."""
        _, rhs_only = reference_sessions
        reference = rhs_only.run("opera", order=REF_ORDER, solver="direct")
        tight = rhs_only.run("opera", order=REF_ORDER, solver="cg", solver_options={"rtol": 1e-13})
        assert tight.solver == "cg"
        assert np.max(np.abs(tight.mean() - reference.mean())) < 1e-11
        np.testing.assert_allclose(tight.std(), reference.std(), rtol=0.0, atol=1e-11)

    def test_default_solver_follows_the_form(self, reference_sessions):
        paper, rhs_only = reference_sessions
        assert paper.run("opera", order=REF_ORDER).solver == "mean-block-cg"
        assert paper.run("opera", order=REF_ORDER, mode="dc").solver == "mean-block-cg"
        assert rhs_only.run("opera", order=REF_ORDER).solver == "direct"
        assert rhs_only.run("opera", order=REF_ORDER, force_coupled=True).solver == "mean-block-cg"
        for engine in ("deterministic", "montecarlo"):
            options = {"samples": 4} if engine == "montecarlo" else {}
            assert paper.run(engine, **options).solver == "direct"
            assert paper.run(engine, mode="dc", **options).solver == "direct"

    def test_montecarlo_accepts_theta_scheme(self, reference_sessions):
        paper, _ = reference_sessions
        view = paper.run("montecarlo", scheme="theta:0.7", samples=8, chunk_size=8)
        assert view.mean().shape[0] == int(REF_TRANSIENT["t_stop"] / REF_TRANSIENT["dt"]) + 1
        assert np.all(np.isfinite(view.mean()))

    def test_theta_half_is_bitwise_trapezoidal(self, reference_sessions):
        paper, _ = reference_sessions
        trapezoidal = paper.run("opera", order=REF_ORDER, scheme="trapezoidal")
        theta = paper.run("opera", order=REF_ORDER, scheme="theta:0.5")
        np.testing.assert_array_equal(theta.mean(), trapezoidal.mean())
        np.testing.assert_array_equal(theta.std(), trapezoidal.std())


# ---------------------------------------------------------------------------
# Warm starting (moved into the stepping core)
# ---------------------------------------------------------------------------
class TestWarmStart:
    def test_duck_typing(self):
        matrix = sp.csr_matrix(np.diag([2.0, 3.0]))
        assert not supports_warm_start(DirectSolver(matrix))
        assert supports_warm_start(ConjugateGradientSolver(matrix))

    def test_step_loop_rerun_is_stable(self):
        """Re-running a StepLoop rebuilds its prepared state cleanly."""
        conductance = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        capacitance = sp.csr_matrix(np.diag([1.0, 2.0]))
        adapter = MnaSystemAdapter(
            conductance, capacitance, rhs_function=lambda t: np.array([1.0, 0.5 * t])
        )
        loop = StepLoop(adapter, "trapezoidal", np.linspace(0.0, 1.0, 6), 0.2)
        first = loop.run()
        second = loop.run()
        np.testing.assert_array_equal(second.states, first.states)


# ---------------------------------------------------------------------------
# Sweep and CLI plumbing
# ---------------------------------------------------------------------------
class TestSweepScheme:
    def test_scheme_in_name_key_and_options(self):
        case = SweepCase(engine="opera", nodes=100, order=2, scheme="backward-euler")
        assert "backward-euler" in case.name
        assert case.key()[-1] == "backward-euler"
        assert case.run_options()["scheme"] == "backward-euler"

    def test_seed_identity_is_append_only(self):
        plain = SweepCase(engine="opera", nodes=100, order=2)
        assert plain.seed_identity() == ("opera", 100, 2, None, "paper")
        scheduled = SweepCase(engine="opera", nodes=100, order=2, scheme="backward-euler")
        assert scheduled.seed_identity() == ("opera", 100, 2, None, "paper", "backward-euler")

    def test_invalid_scheme_fails_at_construction(self):
        with pytest.raises(SchemeError):
            SweepCase(engine="opera", nodes=100, order=2, scheme="magic")

    def test_grid_threads_scheme_to_every_case(self):
        plan = SweepPlan.grid([100], engines=("opera", "montecarlo"), scheme="backward-euler")
        assert all(case.scheme == "backward-euler" for case in plan.cases)

    def test_grid_without_scheme_keeps_legacy_seeds(self):
        with_scheme = SweepPlan.grid([100], engines=("opera",), scheme="backward-euler")
        without = SweepPlan.grid([100], engines=("opera",))
        assert without.cases[0].scheme is None
        assert with_scheme.cases[0].seed != without.cases[0].seed


class TestCliScheme:
    def test_unknown_scheme_fails_fast(self, capsys):
        from repro.cli import main

        code = main(["analyze", "--synthetic-nodes", "60", "--scheme", "magic"])
        assert code == 2
        assert "registered schemes" in capsys.readouterr().err

    def test_sweep_scheme_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep",
                "--nodes",
                "60",
                "--engines",
                "opera",
                "--steps",
                "3",
                "--scheme",
                "backward-euler",
            ]
        )
        assert code == 0
        assert "backward-euler" in capsys.readouterr().out
