"""The analysis-engine registry and the three core engines.

An *engine* is a callable ``engine(session, mode=None, **options)`` that runs
one kind of analysis on an :class:`~repro.api.session.Analysis` session and
returns an object satisfying the :class:`~repro.api.result.AnalysisResult`
protocol.  Engines are looked up by name through
:meth:`Analysis.run(engine=...) <repro.api.session.Analysis.run>`, and new
backends plug in with a decorator::

    @register_engine("my-sampler")
    def run_my_sampler(session, mode=None, **options):
        ...

Built-ins:

``opera``
    The paper's stochastic Galerkin method (transient or DC), automatically
    using the decoupled special case when only the excitation varies.
``montecarlo``
    The sampling reference (transient or DC).
``deterministic``
    A single nominal run with every germ at zero (transient or DC).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

from ..errors import AnalysisError
from ..montecarlo.engine import (
    MonteCarloConfig,
    run_monte_carlo_dc,
    run_monte_carlo_transient,
)
from ..opera.config import OperaConfig
from ..opera.engine import run_opera_dc, run_opera_transient
from ..registry import Registry
from ..sim.dc import dc_operating_point
from ..sim.transient import TransientConfig
from ..telemetry import current_telemetry
from .result import (
    DeterministicResultView,
    MonteCarloResultView,
    StochasticResultView,
)

__all__ = [
    "register_engine",
    "unregister_engine",
    "engine_names",
    "get_engine",
]

_ENGINES = Registry("engine", AnalysisError)


def register_engine(name: str, runner=None, *, overwrite: bool = False):
    """Register an engine ``runner(session, mode=None, **options)``.

    Usable directly or as a decorator; registered names become valid
    arguments to :meth:`Analysis.run` and the CLI ``--engine`` flag.
    """
    return _ENGINES.register(name, runner, overwrite=overwrite)


def unregister_engine(name: str) -> None:
    """Remove a registered engine."""
    _ENGINES.unregister(name)


def engine_names() -> tuple:
    """Names of all registered engines, sorted."""
    return _ENGINES.names()


def get_engine(name: str):
    """Resolve an engine name (raises :class:`AnalysisError` with a listing)."""
    return _ENGINES.get(name)


# ---------------------------------------------------------------------------
# Shared option handling
# ---------------------------------------------------------------------------
_TRANSIENT_OVERRIDES = ("t_stop", "dt", "t_start", "method")


def _resolve_transient(session, options: dict) -> TransientConfig:
    """Pop time-axis options and merge them over the session default.

    ``scheme=`` is the engine-facing alias of ``method=`` (any registered
    stepping-scheme spec, e.g. ``"trapezoidal"`` or ``"theta:0.75"``); it
    wins when both are supplied.
    """
    base = options.pop("transient", None)
    if base is None:
        base = session.transient
    overrides = {key: options.pop(key) for key in _TRANSIENT_OVERRIDES if key in options}
    scheme = options.pop("scheme", None)
    if scheme is not None:
        overrides["method"] = str(scheme)
    if overrides:
        base = dataclasses.replace(base, **overrides)
    return base


def _reject_unknown(options: dict, engine: str, mode: str) -> None:
    if options:
        unknown = ", ".join(sorted(options))
        raise AnalysisError(f"unknown option(s) for engine {engine!r} (mode {mode!r}): {unknown}")


def _check_mode(engine: str, mode: str, supported: tuple) -> None:
    if mode not in supported:
        raise AnalysisError(
            f"engine {engine!r} supports mode(s) {', '.join(map(repr, supported))}; "
            f"got {mode!r}"
        )


#: Cumulative counters of :meth:`Analysis.solver_stats`; everything else is
#: a "latest value" field reported as-is.
_SOLVER_COUNTERS = (
    "instances",
    "solves",
    "total_iterations",
    "warm_starts",
    "cold_starts",
)


def _solver_stats_delta(before: dict, after: dict):
    """Per-run solver diagnostics: counter growth since ``before``.

    The session's solver cache (and therefore :meth:`Analysis.solver_stats`)
    is cumulative across runs; subtracting the snapshot taken when the engine
    started yields the work attributable to *this* run.  Backends whose
    counters did not move are dropped; returns ``None`` when nothing moved.
    """
    delta = {}
    for method, stats in after.items():
        previous = before.get(method, {})
        entry = {}
        moved = False
        for name in _SOLVER_COUNTERS:
            if name in stats:
                entry[name] = stats[name] - previous.get(name, 0)
                if entry[name]:
                    moved = True
        for name, value in stats.items():
            if name not in _SOLVER_COUNTERS:
                entry[name] = value
        if moved:
            delta[method] = entry
    return delta or None


# ---------------------------------------------------------------------------
# Built-in engines
# ---------------------------------------------------------------------------
@register_engine("opera")
def _run_opera_engine(session, mode: Optional[str] = None, **options):
    """Stochastic Galerkin analysis (chaos expansion of the response)."""
    mode = mode or "transient"
    _check_mode("opera", mode, ("transient", "dc"))
    order = int(options.pop("order", 2))
    solver = options.pop("solver", None)
    solver_options = options.pop("solver_options", None)
    stats_before = session.solver_stats()
    system = session.system

    if mode == "dc":
        t = float(options.pop("t", 0.0))
        _reject_unknown(options, "opera", mode)
        started = time.perf_counter()
        with current_telemetry().span("opera.assemble", phase="assemble", order=order):
            galerkin = session.galerkin(order)
        field = run_opera_dc(
            system,
            t=t,
            solver=solver,
            solver_factory=session.solver,
            solver_options=solver_options,
            galerkin=galerkin,
        )
        elapsed = time.perf_counter() - started
        view = StochasticResultView("opera", "dc", field, system.vdd, wall_time=elapsed)
        view.solver_stats = _solver_stats_delta(stats_before, session.solver_stats())
        return view

    transient = _resolve_transient(session, options)
    config = OperaConfig(
        transient=transient,
        order=order,
        solver=solver,
        solver_options=solver_options,
        store_coefficients=bool(options.pop("store_coefficients", True)),
        force_coupled=bool(options.pop("force_coupled", False)),
    )
    _reject_unknown(options, "opera", mode)
    galerkin = None
    if system.has_matrix_variation or config.force_coupled:
        with current_telemetry().span("opera.assemble", phase="assemble", order=order):
            galerkin = session.galerkin(order)
    result = run_opera_transient(
        system,
        config,
        basis=session.basis(order),
        solver_factory=session.solver,
        galerkin=galerkin,
    )
    view = StochasticResultView("opera", "transient", result, system.vdd)
    view.transient = transient
    view.solver_stats = _solver_stats_delta(stats_before, session.solver_stats())
    return view


@register_engine("montecarlo")
def _run_montecarlo_engine(session, mode: Optional[str] = None, **options):
    """Monte Carlo reference (full deterministic run per germ sample)."""
    mode = mode or "transient"
    _check_mode("montecarlo", mode, ("transient", "dc"))
    samples = options.pop("samples", None)
    if samples is None:
        samples = options.pop("num_samples", 200)
    samples = int(samples)
    seed = int(options.pop("seed", 0))
    solver = options.pop("solver", None)
    workers = int(options.pop("workers", 1))
    chunk_size = options.pop("chunk_size", None)
    if chunk_size is not None:
        chunk_size = int(chunk_size)
    system = session.system

    if mode == "dc":
        t = float(options.pop("t", 0.0))
        _reject_unknown(options, "montecarlo", mode)
        result = run_monte_carlo_dc(
            system,
            num_samples=samples,
            t=t,
            seed=seed,
            solver=solver,
            workers=workers,
            chunk_size=chunk_size,
        )
        return MonteCarloResultView("montecarlo", "dc", result, system.vdd)

    transient = _resolve_transient(session, options)
    config = MonteCarloConfig(
        transient=transient,
        num_samples=samples,
        seed=seed,
        antithetic=bool(options.pop("antithetic", False)),
        store_nodes=tuple(options.pop("store_nodes", ())),
        solver=solver,
        workers=workers,
        chunk_size=chunk_size,
    )
    _reject_unknown(options, "montecarlo", mode)
    result = run_monte_carlo_transient(system, config)
    view = MonteCarloResultView("montecarlo", "transient", result, system.vdd)
    view.transient = transient
    return view


@register_engine("deterministic")
def _run_deterministic_engine(session, mode: Optional[str] = None, **options):
    """Nominal analysis with every germ at zero (no variation)."""
    mode = mode or "transient"
    _check_mode("deterministic", mode, ("transient", "dc"))
    solver = options.pop("solver", None)
    stats_before = session.solver_stats()

    if mode == "dc":
        t = float(options.pop("t", 0.0))
        _reject_unknown(options, "deterministic", mode)
        started = time.perf_counter()
        result = dc_operating_point(session.stamped, t=t, solver=solver)
        elapsed = time.perf_counter() - started
        return DeterministicResultView(
            "deterministic", "dc", result, session.stamped.vdd, wall_time=elapsed
        )

    transient = _resolve_transient(session, options)
    if solver is not None and solver != transient.solver:
        transient = dataclasses.replace(transient, solver=solver)
    _reject_unknown(options, "deterministic", mode)
    started = time.perf_counter()
    result = session.nominal_transient(transient)
    elapsed = time.perf_counter() - started
    view = DeterministicResultView(
        "deterministic", "transient", result, result.vdd, wall_time=elapsed
    )
    view.transient = transient
    view.solver_stats = _solver_stats_delta(stats_before, session.solver_stats())
    return view


# The linalg subsystem registers the "mean-block-cg" solver backend and the
# regression subsystem the "pce-regression" engine on import; pulling them in
# here makes them available to everything that goes through the registries.
from .. import linalg as _linalg  # noqa: E402,F401
from ..regression import engine as _regression_engine  # noqa: E402,F401
