"""The shared result protocol of the analysis engines.

Every engine registered with :func:`repro.api.register_engine` returns an
object satisfying :class:`AnalysisResult`: a uniform, engine-agnostic view of
"what happened" -- mean and sigma of the node voltages, the worst voltage
drop, the wall time -- regardless of whether the numbers came from a chaos
expansion, a Monte Carlo sweep or a deterministic run.  The
engine-specific result object (with its full, richer API) stays reachable
through ``.raw``, so nothing is lost by going through the facade.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol, runtime_checkable

import numpy as np

from ..chaos.response import StochasticField, StochasticTransientResult
from ..errors import AnalysisError

__all__ = [
    "AnalysisResult",
    "EngineResult",
    "StochasticResultView",
    "MonteCarloResultView",
    "DeterministicResultView",
]


def _sorted_stats(value):
    """Recursively key-sorted copy of a stats mapping.

    ``to_dict()`` output is compared and serialised across engines and
    processes, so the ``solver_stats`` block must not depend on insertion
    order (which differs between backends and telemetry on/off).
    """
    if isinstance(value, dict):
        return {key: _sorted_stats(value[key]) for key in sorted(value)}
    return value


@runtime_checkable
class AnalysisResult(Protocol):
    """What every engine run returns, regardless of the backend.

    ``mean()`` and ``std()`` return node-voltage statistics shaped
    ``(num_times, num_nodes)`` for transient runs and ``(num_nodes,)`` for DC
    runs (engines analysing a node subset return that subset).
    """

    engine: str
    mode: str
    wall_time: Optional[float]

    def mean(self) -> np.ndarray:
        """Mean node voltages."""
        ...

    def std(self) -> np.ndarray:
        """Standard deviation of the node voltages (zero for deterministic runs)."""
        ...

    def worst_drop(self) -> float:
        """Largest mean voltage drop ``VDD - v`` over all analysed points."""
        ...

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary of the run."""
        ...


class EngineResult:
    """Base implementation of :class:`AnalysisResult` wrapping a raw result."""

    def __init__(
        self,
        engine: str,
        mode: str,
        raw: Any,
        vdd: float,
        wall_time: Optional[float] = None,
    ):
        self.engine = str(engine)
        self.mode = str(mode)
        self.raw = raw
        self.vdd = float(vdd)
        if wall_time is None:
            wall_time = getattr(raw, "wall_time", None)
        self.wall_time = wall_time
        #: The linear-solver backend the run used, as the solving code
        #: resolved it with :func:`~repro.sim.linear.resolve_solver` (e.g.
        #: ``"mean-block-cg"`` for a default coupled ``opera`` run,
        #: ``"direct"`` for its decoupled special case); read from the raw
        #: result's ``solver`` attribute, ``None`` when it has none.
        self.solver: Optional[str] = getattr(raw, "solver", None)
        #: Linear-solver diagnostics of the run (iteration counts, final
        #: residuals, factorisation times), attached by engines whose solver
        #: backends expose them; ``None`` when unavailable.  While telemetry
        #: is enabled, :meth:`Analysis.run` additionally attaches the
        #: per-step aggregate of the shared integration loop under the
        #: ``"steps"`` key (see the ``repro.api`` docstring for the schema).
        self.solver_stats: Optional[Dict[str, Any]] = None

    def mean(self) -> np.ndarray:
        raise NotImplementedError

    def std(self) -> np.ndarray:
        raise NotImplementedError

    def worst_drop(self) -> float:
        return float(np.max(self.vdd - self.mean()))

    def to_dict(self) -> Dict[str, Any]:
        std = self.std()
        summary = {
            "engine": self.engine,
            "mode": self.mode,
            "vdd": self.vdd,
            "wall_time": self.wall_time,
            "num_values": int(self.mean().size),
            "worst_drop": self.worst_drop(),
            "max_std": float(np.max(std)) if std.size else 0.0,
        }
        if self.solver is not None:
            summary["solver"] = self.solver
        if self.solver_stats:
            summary["solver_stats"] = _sorted_stats(self.solver_stats)
        return summary

    def __repr__(self) -> str:
        wall = f", wall_time={self.wall_time:.3f}s" if self.wall_time is not None else ""
        return (
            f"<{type(self).__name__} engine={self.engine!r} mode={self.mode!r} "
            f"worst_drop={self.worst_drop():.4g}V{wall}>"
        )


class StochasticResultView(EngineResult):
    """Chaos-expansion results (the ``opera`` engine)."""

    def __init__(self, engine: str, mode: str, raw, vdd: float, wall_time=None):
        if not isinstance(raw, (StochasticTransientResult, StochasticField)):
            raise AnalysisError(
                "StochasticResultView wraps chaos-expansion results, got "
                f"{type(raw).__name__}"
            )
        super().__init__(engine, mode, raw, vdd, wall_time)

    @property
    def basis(self):
        """The polynomial chaos basis of the expansion."""
        return self.raw.basis

    def mean(self) -> np.ndarray:
        if isinstance(self.raw, StochasticField):
            return self.raw.mean
        return self.raw.mean_voltage

    def std(self) -> np.ndarray:
        if isinstance(self.raw, StochasticField):
            return self.raw.std
        return self.raw.std_voltage

    def to_dict(self) -> Dict[str, Any]:
        summary = super().to_dict()
        summary["basis_size"] = int(self.raw.basis.size)
        summary["order"] = int(self.raw.basis.order)
        return summary


class MonteCarloResultView(EngineResult):
    """Sampled statistics (the ``montecarlo`` engine, transient or DC)."""

    def mean(self) -> np.ndarray:
        return self.raw.mean_voltage

    def std(self) -> np.ndarray:
        return self.raw.std_voltage

    def to_dict(self) -> Dict[str, Any]:
        summary = super().to_dict()
        summary["num_samples"] = int(self.raw.num_samples)
        return summary


class DeterministicResultView(EngineResult):
    """A single nominal run (the ``deterministic`` engine); sigma is zero."""

    def mean(self) -> np.ndarray:
        return np.asarray(self.raw.voltages, dtype=float)

    def std(self) -> np.ndarray:
        return np.zeros_like(self.mean())
