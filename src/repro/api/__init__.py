"""Unified analysis facade: sessions, engine registry, result protocol.

This package is the recommended entry point of the library::

    from repro.api import Analysis

    session = Analysis.from_spec(GridSpec(nx=20, ny=20, seed=1))
    result = session.run("opera", order=2)        # -> AnalysisResult
    print(session.compare(samples=200))           # Table-1 style row

See :class:`Analysis` for session construction and caching,
:func:`register_engine` / :func:`register_solver` for adding backends, and
:class:`AnalysisResult` for the uniform result protocol.

Summary schema
--------------
``AnalysisResult.to_dict()`` returns a JSON-safe summary with the keys
``engine``, ``mode``, ``vdd``, ``wall_time``, ``num_values``,
``worst_drop`` and ``max_std`` (plus engine-specific extras such as
``order`` / ``basis_size`` / ``num_samples``).  When the run produced
solver diagnostics the summary carries a ``solver_stats`` block whose keys
are **recursively sorted** (deterministic ordering across engines,
backends and serialisations):

``solver_stats.<backend>``
    Per-run counter growth of each cached solver backend that did work:
    ``instances``, ``solves``, ``total_iterations``, ``warm_starts``,
    ``cold_starts`` plus the backend's latest-value
    fields (``last_iterations``, ``last_relative_residual``, ...).
``solver_stats.steps``
    Present while telemetry is enabled
    (:func:`repro.telemetry.profile`): the per-step aggregate of the
    shared integration loop -- ``steps``, ``solves``,
    ``total_iterations``, ``warm_starts`` / ``cold_starts`` /
    ``warm_start_hit_rate``, ``lhs_hoists`` / ``lhs_reused_solves`` and
    final/max relative residuals (see
    :class:`repro.telemetry.StepStats`).
"""

from ..sim.linear import (
    register_solver,
    solver_names,
    unregister_solver,
)
from .compare import ComparisonResult, compare
from .engines import engine_names, get_engine, register_engine, unregister_engine
from .result import (
    AnalysisResult,
    DeterministicResultView,
    EngineResult,
    MonteCarloResultView,
    StochasticResultView,
)
from .session import DEFAULT_TRANSIENT, Analysis

__all__ = [
    "Analysis",
    "DEFAULT_TRANSIENT",
    "AnalysisResult",
    "EngineResult",
    "StochasticResultView",
    "MonteCarloResultView",
    "DeterministicResultView",
    "ComparisonResult",
    "compare",
    "register_engine",
    "unregister_engine",
    "engine_names",
    "get_engine",
    "register_solver",
    "unregister_solver",
    "solver_names",
]
