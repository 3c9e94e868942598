"""The shared fixed-step integration loop.

One :class:`StepLoop` drives every transient engine of the library -- the
deterministic simulator, the coupled (augmented Galerkin) OPERA engine, the
decoupled special case and each Monte Carlo sample.  The loop owns
everything the per-engine copies used to duplicate:

* the preallocated RHS work buffers (one assembly path for explicit CSR
  forms and matrix-free operators alike);
* the ``rhs_series`` double-buffering (per-step excitation becomes a buffer
  fill, with the two buffers swapped instead of copied);
* warm starting -- solvers whose ``solve`` accepts an ``x0`` initial guess
  (duck-typed once, here) receive the previous step's state;
* step callbacks (streaming observers) and optional waveform storage.

Engines differ only in their :class:`SystemAdapter`: one ``prepare`` call
yields the scheme's hoisted :class:`~repro.stepping.schemes.StepForms`, the
solvers, and the excitation source for a given time axis (see
:mod:`repro.stepping.adapters` for the concrete adapters).
"""

from __future__ import annotations

import abc
import inspect
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from ..errors import SolverError
from ..telemetry import StepStats, current_telemetry
from .schemes import StepForms, SteppingScheme, resolve_scheme

__all__ = [
    "StepCallback",
    "PreparedSystem",
    "SystemAdapter",
    "StepHistory",
    "StepLoop",
    "supports_warm_start",
]

#: Signature of a streaming observer: ``callback(step_index, time, state)``.
StepCallback = Callable[[int, float, np.ndarray], None]


def supports_warm_start(solver) -> bool:
    """True when ``solver.solve`` accepts an ``x0`` initial guess.

    The loop consults this once per run for whatever solver the adapter
    supplied -- iterative backends (``cg``, ``mean-block-cg``) opt in
    simply by having the parameter, direct backends by not having it.
    """
    try:
        return "x0" in inspect.signature(solver.solve).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False


@dataclass
class PreparedSystem:
    """Everything :meth:`SystemAdapter.prepare` hands the loop for one run.

    Attributes
    ----------
    forms:
        The scheme's hoisted LHS / RHS objects.
    step_solver:
        Solver for the constant step matrix (``solve(b)`` or
        ``solve(b, x0=...)``).
    dc_solver_factory:
        Zero-argument factory for the initial-condition solver (the DC
        system ``G x = u(t_0)``); called only when no explicit ``x0`` is
        supplied, so adapters defer that factorisation.
    rhs_series:
        Optional precomputed excitation table with
        ``fill(step_index, out) -> out`` (e.g.
        :class:`repro.chaos.galerkin.AugmentedRhsSeries`).  When present
        the per-step RHS is a buffer fill.
    rhs_function:
        Fallback callable returning the excitation vector at a time;
        required when ``rhs_series`` is absent.
    """

    forms: StepForms
    step_solver: object
    dc_solver_factory: Callable[[], object]
    rhs_series: Optional[object] = None
    rhs_function: Optional[Callable[[float], np.ndarray]] = None


class SystemAdapter(abc.ABC):
    """What one engine must supply to run on the shared :class:`StepLoop`.

    Concrete adapters (:mod:`repro.stepping.adapters`) wrap the
    deterministic MNA system, the augmented Galerkin system (explicit or
    matrix-free) and the decoupled chaos tracks.
    """

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Dimension of the state vector."""

    @abc.abstractmethod
    def prepare(self, scheme: SteppingScheme, times: np.ndarray, h: float) -> PreparedSystem:
        """Hoist forms, build solvers and bind the excitation for one run."""


@dataclass
class StepHistory:
    """Result of one :meth:`StepLoop.run`: the time axis, the stored states
    (``None`` in streaming mode), the final state, and -- when telemetry is
    enabled -- the :class:`~repro.telemetry.StepStats` aggregate of the
    run's per-step solves."""

    times: np.ndarray
    states: Optional[np.ndarray]
    final: np.ndarray
    stats: Optional[StepStats] = None


class StepLoop:
    """The fixed-step driver: one loop, every engine.

    Parameters
    ----------
    adapter:
        The engine's :class:`SystemAdapter`.
    scheme:
        A :class:`~repro.stepping.schemes.SteppingScheme` or spec string
        (``"trapezoidal"``, ``"backward-euler"``, ``"theta:0.75"``, any
        registered name).
    times:
        The full time axis including the initial point (uniformly spaced
        by ``h``; typically ``TransientConfig.times()``).
    h:
        The fixed step size.
    """

    def __init__(
        self,
        adapter: SystemAdapter,
        scheme: Union[str, SteppingScheme],
        times: np.ndarray,
        h: float,
    ):
        self.adapter = adapter
        self.scheme = resolve_scheme(scheme)
        self.times = np.asarray(times, dtype=float)
        if self.times.size < 2:
            raise SolverError("the time axis needs at least two points")
        self.h = float(h)
        if self.h <= 0:
            raise SolverError(f"step size must be positive, got {h}")

    def run(
        self,
        x0: Optional[np.ndarray] = None,
        callback: Optional[StepCallback] = None,
        store: bool = True,
    ) -> StepHistory:
        """Integrate over the time axis.

        ``x0`` overrides the initial condition (default: the DC solution at
        the first time point).  ``callback(step, t, state)`` observes every
        accepted step including step 0; ``store=False`` skips waveform
        storage (streaming mode).
        """
        adapter = self.adapter
        times = self.times
        n = adapter.size
        telemetry = current_telemetry()
        with telemetry.span(
            "stepping.prepare", phase="factor", adapter=type(adapter).__name__
        ):
            prepared = adapter.prepare(self.scheme, times, self.h)
        forms = prepared.forms
        series = prepared.rhs_series
        rhs_function = prepared.rhs_function
        if series is None and rhs_function is None:
            raise SolverError("either rhs_function or rhs_series is required")

        # ---------------------------------------------------------- excitation
        if series is not None:
            series_times = getattr(series, "times", None)
            if series_times is not None and (
                len(series_times) != times.size
                or not np.allclose(series_times, times, rtol=0.0, atol=1e-18)
            ):
                raise SolverError("rhs_series does not match the configured time axis")
            u_now = np.zeros(n)
            u_previous = np.zeros(n)
            series.fill(0, u_previous)
            rhs_initial = u_previous
        else:
            rhs_initial = np.asarray(rhs_function(float(times[0])), dtype=float)

        # --------------------------------------------------- initial condition
        if x0 is None:
            with telemetry.span("stepping.dc", phase="factor"):
                x = prepared.dc_solver_factory().solve(rhs_initial)
        else:
            x = np.asarray(x0, dtype=float).copy()
            if x.shape != (n,):
                raise SolverError(f"x0 must have shape ({n},)")

        solver = prepared.step_solver
        warm_start = supports_warm_start(solver)
        # Per-step stats are collected only while telemetry is enabled; the
        # instrumentation merely *reads* the solver's diagnostics after each
        # solve, so trajectories are bit-identical with telemetry on or off
        # and the disabled path costs nothing per step.
        record = telemetry.enabled
        step_stats = StepStats() if record else None
        solver_diag = getattr(solver, "stats", None) if record else None
        two_term = forms.rhs_u_old != 0.0
        rhs_capacitance = forms.rhs_capacitance
        rhs_conductance = forms.rhs_conductance
        matrix_free = forms.matrix_free
        work = np.empty(n)
        b = np.empty(n)

        def product(matrix, vector: np.ndarray) -> np.ndarray:
            """``matrix @ vector`` written into ``work``, either representation."""
            if matrix_free:
                return matrix.matvec(vector, out=work)
            np.copyto(work, matrix @ vector)
            return work

        history = np.empty((times.size, n)) if store else None
        if store:
            history[0] = x
        if callback is not None:
            callback(0, float(times[0]), x)

        rhs_previous = rhs_initial

        with telemetry.span("stepping.march", phase="step", steps=times.size - 1):
            for k in range(1, times.size):
                t = float(times[k])
                if series is not None:
                    rhs_now = series.fill(k, u_now)
                else:
                    rhs_now = np.asarray(rhs_function(t), dtype=float)

                # --------------------------------------------- RHS assembly
                # b = p u_{k+1} + q u_k + c (C/h) x_k - |d| G x_k, in place.
                # Unit coefficients cost a pass but no rounding (x * 1.0 is
                # exact), so every scheme takes this one path.
                np.multiply(rhs_now, forms.rhs_u_new, out=b)
                if two_term:
                    b += np.multiply(rhs_previous, forms.rhs_u_old, out=work)
                if rhs_capacitance is not None:
                    b += product(rhs_capacitance, x)
                if rhs_conductance is not None:
                    b -= product(rhs_conductance, x)

                x = solver.solve(b, x0=x) if warm_start else solver.solve(b)
                if record:
                    if solver_diag is None:
                        step_stats.record_solve(warm_start)
                    else:
                        step_stats.record_solve(
                            warm_start,
                            solver_diag.get("last_iterations"),
                            solver_diag.get("last_relative_residual"),
                        )
                if store:
                    history[k] = x
                if callback is not None:
                    callback(k, t, x)
                if series is not None:
                    # Swap buffers: the one holding U(t_k) becomes
                    # "previous", the stale one is overwritten next fill.
                    u_now, u_previous = u_previous, u_now
                    rhs_previous = u_previous
                else:
                    rhs_previous = rhs_now

        if record:
            step_stats.steps = times.size - 1
            # One hoisted LHS serves the whole run: every solve after the
            # first reuses the factorisation/operator built in prepare().
            step_stats.lhs_hoists = 1
            step_stats.lhs_reused_solves = max(0, step_stats.solves - 1)
            telemetry.record_step_stats(step_stats)

        return StepHistory(times=times, states=history, final=x, stats=step_stats)
