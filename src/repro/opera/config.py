"""Configuration of an OPERA stochastic analysis."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional

from ..errors import AnalysisError
from ..sim.transient import TransientConfig

__all__ = ["OperaConfig"]


@dataclass(frozen=True)
class OperaConfig:
    """Settings of a stochastic (OPERA) transient analysis.

    Attributes
    ----------
    transient:
        Time axis, step size, integration method and linear solver of the
        underlying fixed-step integrator.
    order:
        Total order ``p`` of the chaos expansion.  The paper finds order 2
        or 3 sufficient for realistic variation magnitudes.
    solver:
        Linear solver (any registered backend, e.g. ``"direct"``,
        ``"cg"``, ``"mean-block-cg"``); overrides the transient config's
        solver.  When neither names one,
        :func:`~repro.sim.linear.resolve_solver` picks from the system's
        form: ``mean-block-cg`` for the augmented Galerkin system,
        ``direct`` for the ``n x n`` system of the decoupled special case.
        The operator-only ``mean-block-cg`` named on the decoupled case
        also runs ``direct``.  On the augmented system the solver fixes the
        form of the matrices: lazy Kronecker-sum operators for backends
        that consume them (``mean-block-cg``, ``cg``), explicit CSR
        otherwise (see
        :meth:`~repro.chaos.galerkin.GalerkinSystem.for_solver`).  The
        paper's reference is ``direct`` on the explicit matrix.
    scheme:
        Stepping-scheme spec for the augmented transient (any registered
        scheme, e.g. ``"trapezoidal"``, ``"backward-euler"``,
        ``"theta:0.75"``); defaults to the transient config's method.
    solver_options:
        Extra keyword arguments for the solver factory (``rtol``,
        ``maxiter``, ...).
    store_coefficients:
        Keep the full chaos coefficients at every time step (needed for
        distributions / Figures 1-2).  When false only mean and variance are
        retained, which saves memory on very large grids.
    force_coupled:
        Assemble and solve the full augmented system even when the grid
        matrices are deterministic (used to cross-check the decoupled
        special-case path).
    """

    transient: TransientConfig
    order: int = 2
    solver: Optional[str] = None
    scheme: Optional[str] = None
    solver_options: Optional[Mapping] = None
    store_coefficients: bool = True
    force_coupled: bool = False

    def __post_init__(self):
        if self.order < 0:
            raise AnalysisError("expansion order must be non-negative")
        if self.scheme is not None:
            from ..stepping import resolve_scheme

            resolve_scheme(self.scheme)  # raises SchemeError with a listing

    @property
    def effective_transient(self) -> TransientConfig:
        """The transient config with the ``solver``/``scheme`` overrides folded in."""
        transient = self.transient
        if self.solver is not None and self.solver != transient.solver:
            transient = replace(transient, solver=self.solver)
        if self.scheme is not None and self.scheme != transient.method:
            transient = replace(transient, method=self.scheme)
        return transient
