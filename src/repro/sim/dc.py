"""DC (steady-state) power grid analysis.

The DC operating point solves ``G x = U`` where ``U`` collects the pad
injections and the drain currents at a chosen time instant (or their peak
values).  It is used to obtain nominal IR-drop maps, to calibrate synthetic
grids, and to provide initial conditions for the transient integrator.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..grid.stamping import StampedSystem
from .linear import LinearSolver, _is_lazy_operator, make_solver, resolve_solver
from .results import DCResult

__all__ = ["solve_dc", "dc_operating_point"]


def solve_dc(
    conductance: sp.spmatrix,
    rhs: np.ndarray,
    solver: Optional[str] = None,
    **solver_options,
) -> np.ndarray:
    """Solve ``G x = rhs`` and return the node voltages.

    ``solver=None`` takes the default of
    :func:`~repro.sim.linear.resolve_solver` for the matrix's form.
    """
    solver = resolve_solver(solver, galerkin=_is_lazy_operator(conductance), options=solver_options)
    linear: LinearSolver = make_solver(conductance, method=solver, **solver_options)
    return linear.solve(np.asarray(rhs, dtype=float))


def dc_operating_point(
    system: StampedSystem,
    t: float = 0.0,
    solver: Optional[str] = None,
    **solver_options,
) -> DCResult:
    """DC operating point of a stamped power grid at time ``t``.

    The capacitors are open at DC, so only the conductance matrix and the
    excitation ``U(t) = G1*VDD - i(t)`` enter the solve.
    """
    solver = resolve_solver(solver, galerkin=False, options=solver_options)
    voltages = solve_dc(system.conductance, system.rhs(t), solver=solver, **solver_options)
    return DCResult(voltages=voltages, vdd=system.vdd, solver=solver)
