"""The OPERA stochastic analysis engine.

This module turns a :class:`~repro.variation.model.StochasticSystem` into the
stochastic voltage response of the grid:

1. build the orthonormal chaos basis matched to the germ distributions
   (Hermite for Gaussian germs, per the Askey scheme);
2. assemble the augmented Galerkin system ``(G~ + s C~) a(s) = U~(s)``
   (Eq. (19) of the paper);
3. integrate it with the same fixed-step scheme as the deterministic
   simulator (one factorisation, repeated solves);
4. return the chaos coefficients of every node voltage at every time point,
   from which means, variances, higher moments and densities follow
   analytically.

When the grid matrices are deterministic (only the excitation varies), the
engine automatically falls back to the decoupled special case of
Section 5.1, which reuses a single factorisation of the nominal matrix.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Mapping, Optional

import numpy as np
import scipy.sparse as sp

from ..chaos.basis import PolynomialChaosBasis
from ..chaos.galerkin import GalerkinSystem
from ..chaos.response import StochasticField, StochasticTransientResult
from ..sim.linear import make_solver, resolve_solver
from ..stepping import GalerkinSystemAdapter, StepLoop
from ..telemetry import current_telemetry
from ..variation.model import StochasticSystem
from .config import OperaConfig
from .special_case import run_decoupled_transient

__all__ = ["build_basis", "build_galerkin_system", "run_opera_dc", "run_opera_transient"]


def build_basis(system: StochasticSystem, order: int) -> PolynomialChaosBasis:
    """Chaos basis matched to the system's germ variables."""
    return PolynomialChaosBasis(
        families=system.variable_families(),
        order=order,
        num_vars=system.num_variables,
    )


def _matrix_coefficients(
    basis: PolynomialChaosBasis,
    nominal: sp.spmatrix,
    sensitivities: Mapping[int, sp.spmatrix],
) -> Dict[int, sp.spmatrix]:
    """Map an affine parameter model onto chaos-basis coefficient matrices.

    The nominal matrix is the coefficient of the constant basis function; a
    first-order sensitivity to germ ``k`` is the coefficient of that germ's
    degree-one basis function (for Gaussian germs ``psi = xi`` exactly).
    """
    coefficients: Dict[int, sp.spmatrix] = {0: nominal}
    if basis.order >= 1:
        for var, matrix in sensitivities.items():
            coefficients[basis.first_order_index(var)] = matrix
    return coefficients


def build_galerkin_system(
    system: StochasticSystem,
    basis: PolynomialChaosBasis,
) -> GalerkinSystem:
    """Assemble the augmented (Galerkin-projected) MNA system.

    The matrices are built as matrix-free Kronecker-sum operators; the
    explicit CSR form is materialised on first use (see
    :class:`~repro.chaos.galerkin.GalerkinSystem`).
    """
    return GalerkinSystem(
        basis=basis,
        conductance_coefficients=_matrix_coefficients(
            basis, system.g_nominal, system.g_sensitivities
        ),
        capacitance_coefficients=_matrix_coefficients(
            basis, system.c_nominal, system.c_sensitivities
        ),
        excitation_coefficients=lambda t: system.excitation.pc_coefficients(basis, t),
        num_nodes=system.num_nodes,
    )


def run_opera_dc(
    system: StochasticSystem,
    order: int = 2,
    t: float = 0.0,
    solver: Optional[str] = None,
    basis: Optional[PolynomialChaosBasis] = None,
    solver_factory: Optional[Callable] = None,
    solver_options: Optional[Mapping] = None,
    galerkin: Optional[GalerkinSystem] = None,
) -> StochasticField:
    """Stochastic DC analysis: chaos expansion of the steady-state voltages.

    ``solver=None`` runs ``mean-block-cg``, the default for the Galerkin
    system (see :func:`~repro.sim.linear.resolve_solver`).  The solver
    backend fixes the form of ``G~`` (see
    :meth:`~repro.chaos.galerkin.GalerkinSystem.for_solver`);
    ``solver_options`` is forwarded to the solver factory.  ``basis``,
    ``solver_factory`` and ``galerkin`` let a caching caller supply
    precomputed intermediates, as for :func:`run_opera_transient`.
    """
    if galerkin is None:
        if basis is None:
            basis = build_basis(system, order)
        with current_telemetry().span("opera.assemble", phase="assemble", order=basis.order):
            galerkin = build_galerkin_system(system, basis)
    factory = solver_factory if solver_factory is not None else make_solver
    solver = resolve_solver(solver, galerkin=True)
    conductance = galerkin.for_solver("conductance", solver)
    solution = factory(conductance, method=solver, **dict(solver_options or {})).solve(
        galerkin.rhs(t)
    )
    field = StochasticField(
        galerkin.basis, galerkin.split(solution), vdd=system.vdd, node_names=system.node_names
    )
    field.solver = solver
    return field


def run_opera_transient(
    system: StochasticSystem,
    config: OperaConfig,
    basis: Optional[PolynomialChaosBasis] = None,
    solver_factory: Optional[Callable] = None,
    galerkin: Optional[GalerkinSystem] = None,
) -> StochasticTransientResult:
    """Stochastic transient analysis of a power grid (the OPERA method).

    Returns the chaos coefficients of every node voltage at every time point
    (or mean/variance only, when ``config.store_coefficients`` is false).
    ``basis``, ``solver_factory`` and ``galerkin`` let a caching caller (the
    :class:`repro.api.Analysis` facade) supply precomputed intermediates.
    """
    if basis is None:
        basis = build_basis(system, config.order)

    if not system.has_matrix_variation and not config.force_coupled:
        return run_decoupled_transient(system, config, basis=basis, solver_factory=solver_factory)

    started = time.perf_counter()
    if galerkin is None:
        with current_telemetry().span(
            "opera.assemble", phase="assemble", order=basis.order
        ):
            galerkin = build_galerkin_system(system, basis)
    transient = config.effective_transient
    times = transient.times()
    num_nodes = system.num_nodes

    store_full = config.store_coefficients
    if store_full:
        coefficients = np.zeros((times.size, basis.size, num_nodes))
    else:
        mean = np.zeros((times.size, num_nodes))
        variance = np.zeros((times.size, num_nodes))

    def collect(step: int, t: float, stacked: np.ndarray) -> None:
        blocks = stacked.reshape(basis.size, num_nodes)
        if store_full:
            coefficients[step] = blocks
        else:
            mean[step] = blocks[0]
            if basis.size > 1:
                variance[step] = np.sum(blocks[1:] ** 2, axis=0)

    # The adapter binds the form the solver consumes, the solver and the
    # precomputed rhs_series; the shared StepLoop does the marching.
    adapter = GalerkinSystemAdapter(
        galerkin,
        solver=transient.solver,
        solver_factory=solver_factory,
        solver_options=config.solver_options,
    )
    StepLoop(adapter, transient.scheme, times, transient.dt).run(
        callback=collect, store=False
    )
    elapsed = time.perf_counter() - started

    if store_full:
        return StochasticTransientResult(
            times=times,
            basis=basis,
            vdd=system.vdd,
            coefficients=coefficients,
            node_names=system.node_names,
            wall_time=elapsed,
            solver=adapter.solver,
        )
    return StochasticTransientResult(
        times=times,
        basis=basis,
        vdd=system.vdd,
        mean=mean,
        variance=variance,
        node_names=system.node_names,
        wall_time=elapsed,
        solver=adapter.solver,
    )
