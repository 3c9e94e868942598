"""Fixed-step transient integration of the power grid MNA equations.

The grid satisfies ``C dx/dt + G x = u(t)``.  The paper carries out its
transient analysis with a fixed time step, which lets both the deterministic
and the stochastic (augmented) systems reuse a single matrix factorisation
for all steps.  Integration runs on the shared :mod:`repro.stepping` core:
``TransientConfig.method`` names any registered
:class:`~repro.stepping.SteppingScheme` -- the built-ins are

* backward Euler  : ``(G + C/h) x_{k+1} = u_{k+1} + (C/h) x_k``
* trapezoidal     : ``(G + 2C/h) x_{k+1} = u_{k+1} + u_k + (2C/h - G) x_k``
* theta:<value>   : the generalised theta-method (``theta:1`` = backward
  Euler, ``theta:0.5`` = trapezoidal)

The initial condition defaults to the DC solution at the start time, which is
the standard choice for IR-drop analysis (the grid starts in steady state).

``G`` and ``C`` may be explicit sparse matrices or lazy operators
(:class:`repro.linalg.KronSumOperator`).  With operators the integrator runs
a matrix-free fast path: the stepping operator is composed without assembly
(operator-aware backends like ``mean-block-cg`` consume it directly; others
get a one-time CSR materialisation), per-step matvecs write into
preallocated work buffers, every loop invariant is hoisted, and -- when the
caller supplies a precomputed ``rhs_series`` -- the per-step right-hand side
is a buffer fill instead of a rebuild.  All of that now lives in
:class:`~repro.stepping.StepLoop`; this module is the thin deterministic
entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import SolverError
from ..grid.stamping import StampedSystem
from ..stepping import MnaSystemAdapter, StepCallback, StepLoop, SteppingScheme, resolve_scheme
from .results import TransientResult

__all__ = ["TransientConfig", "run_transient", "transient_analysis", "StepCallback"]


@dataclass(frozen=True)
class TransientConfig:
    """Settings of a fixed-step transient run.

    Attributes
    ----------
    t_stop:
        End time of the simulation (seconds).
    dt:
        Fixed step size (seconds).
    t_start:
        Start time; the initial condition is the DC solution at this time
        unless an explicit ``x0`` is supplied to the integrator.
    method:
        Spec of a registered stepping scheme: ``"backward-euler"``
        (default), ``"trapezoidal"``, ``"theta:<value>"``, or any name
        added with :func:`repro.stepping.register_scheme`.
    solver:
        Linear solver used for the (constant) integration matrix: any
        registered backend name, e.g. ``"direct"``, ``"cg"`` or (for
        augmented Galerkin systems) ``"mean-block-cg"``.  ``None`` (the
        default) lets :func:`~repro.sim.linear.resolve_solver` pick from the
        system's form: ``mean-block-cg`` for a Galerkin operator, ``direct``
        for an ``n x n`` system.
    """

    t_stop: float
    dt: float
    t_start: float = 0.0
    method: str = "backward-euler"
    solver: Optional[str] = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_stop <= self.t_start:
            raise ValueError("t_stop must be greater than t_start")
        # Unknown schemes raise SchemeError, which is also a ValueError --
        # the exception configuration callers historically caught here.
        resolve_scheme(self.method)

    @property
    def scheme(self) -> SteppingScheme:
        """The resolved stepping scheme of :attr:`method`."""
        return resolve_scheme(self.method)

    @property
    def num_steps(self) -> int:
        """Number of integration steps (at least 1)."""
        return max(int(round((self.t_stop - self.t_start) / self.dt)), 1)

    def times(self) -> np.ndarray:
        """All time points including the initial one."""
        return self.t_start + self.dt * np.arange(self.num_steps + 1)


#: Signature of a solver provider: ``solver_factory(matrix, method=..., **options)``.
#: Defaults to :func:`~repro.sim.linear.make_solver`; the :class:`repro.api.Analysis`
#: facade injects a caching provider so repeated runs reuse factorisations.
SolverFactory = Callable[..., "object"]


def run_transient(
    conductance,
    capacitance,
    rhs_function: Optional[Callable[[float], np.ndarray]],
    config: TransientConfig,
    x0: Optional[np.ndarray] = None,
    vdd: float = 1.0,
    callback: Optional[StepCallback] = None,
    store: bool = True,
    solver_factory: Optional[SolverFactory] = None,
    rhs_series=None,
    solver_options: Optional[dict] = None,
) -> TransientResult:
    """Integrate ``C dx/dt + G x = rhs(t)`` with a fixed step.

    Parameters
    ----------
    conductance, capacitance:
        ``G`` and ``C`` -- sparse matrices (same shape) or lazy operators
        (:class:`repro.linalg.KronSumOperator`); operators keep the whole
        run matrix-free (see the module docstring).
    rhs_function:
        Callable returning the excitation vector at a given time.  May be
        ``None`` when ``rhs_series`` is supplied.
    config:
        Step size, horizon, scheme and solver selection.
    x0:
        Initial node voltages; defaults to the DC solution at ``t_start``.
    vdd:
        Supply voltage recorded in the result (used for drop conversions).
    callback:
        Optional observer invoked after every accepted step (including the
        initial condition as step 0).
    store:
        When false, voltage waveforms are not retained (streaming mode);
        the result then only carries the time axis.
    solver_factory:
        Optional provider of linear solvers with the signature of
        :func:`~repro.sim.linear.make_solver`; a caching provider lets
        repeated runs share factorisations.
    rhs_series:
        Optional precomputed excitation table with a
        ``fill(step_index, out) -> out`` method (e.g.
        :class:`repro.chaos.galerkin.AugmentedRhsSeries` from
        ``GalerkinSystem.rhs_series(config.times())``).  When given, the
        loop fills a preallocated buffer per step instead of calling
        ``rhs_function``; the series must cover exactly ``config.times()``.
    solver_options:
        Extra keyword arguments forwarded to the solver factory (e.g.
        ``rtol`` for iterative backends).
    """
    if rhs_function is None and rhs_series is None:
        raise SolverError("either rhs_function or rhs_series is required")
    adapter = MnaSystemAdapter(
        conductance,
        capacitance,
        rhs_function=rhs_function,
        rhs_series=rhs_series,
        solver=config.solver,
        solver_factory=solver_factory,
        solver_options=solver_options,
    )
    loop = StepLoop(adapter, config.scheme, config.times(), config.dt)
    history = loop.run(x0=x0, callback=callback, store=store)
    return TransientResult(
        times=history.times, voltages=history.states, vdd=vdd, solver=adapter.solver
    )


def transient_analysis(
    system: StampedSystem,
    config: TransientConfig,
    callback: Optional[StepCallback] = None,
    store: bool = True,
    solver_factory: Optional[SolverFactory] = None,
) -> TransientResult:
    """Nominal (deterministic) transient analysis of a stamped power grid."""
    return run_transient(
        system.conductance,
        system.capacitance,
        system.rhs,
        config,
        vdd=system.vdd,
        callback=callback,
        store=store,
        solver_factory=solver_factory,
    )
