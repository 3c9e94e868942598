"""Decoupled OPERA analysis for right-hand-side-only variation (Section 5.1).

When the grid matrices ``G`` and ``C`` are deterministic and only the
excitation ``U(t, xi)`` is stochastic (e.g. lognormal leakage currents from
threshold-voltage variation), the Galerkin system block-diagonalises: the
chaos coefficients of the response satisfy *independent* deterministic
equations

``(G + sC) a_j(s) = U_j(s)``    for  ``j = 0 .. N``

(Eq. (27) of the paper).  A single factorisation of the stepping matrix is
therefore shared by every coefficient and every time step, which is what
makes this special case almost as cheap as a single nominal simulation.

The marching runs on the shared :mod:`repro.stepping` core: the active
coefficients are stacked into one state vector behind a
:class:`~repro.stepping.DecoupledSystemAdapter` (block-diagonal step matrix
``I_J (x) (aG + bC/h)``), so each step is a single multi-RHS solve of the
one ``n x n`` factorisation and any registered scheme applies.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from ..chaos.basis import PolynomialChaosBasis
from ..chaos.response import StochasticTransientResult
from ..errors import AnalysisError
from ..stepping import DecoupledSystemAdapter, StackedRhsSeries, StepLoop
from ..variation.model import StochasticSystem
from .config import OperaConfig

__all__ = ["run_decoupled_transient"]


def run_decoupled_transient(
    system: StochasticSystem,
    config: OperaConfig,
    basis: Optional[PolynomialChaosBasis] = None,
    solver_factory: Optional[Callable] = None,
) -> StochasticTransientResult:
    """Stochastic transient analysis with deterministic G and C.

    Raises :class:`AnalysisError` if the system actually has matrix
    variation; use the general engine in that case.  ``solver_factory``
    optionally supplies (possibly cached) linear solvers in place of
    :func:`~repro.sim.linear.make_solver`.
    """
    if system.has_matrix_variation:
        raise AnalysisError(
            "the decoupled special case requires deterministic G and C; "
            "this system has matrix variation"
        )
    if basis is None:
        basis = PolynomialChaosBasis(
            families=system.variable_families(),
            order=config.order,
            num_vars=system.num_variables,
        )

    started = time.perf_counter()
    transient = config.effective_transient
    times = transient.times()
    n = system.num_nodes

    conductance = system.g_nominal.tocsr()
    capacitance = system.c_nominal.tocsr()

    # The active chaos coefficients are those the excitation produces at all.
    series = StackedRhsSeries.from_coefficients(
        lambda t: system.excitation.pc_coefficients(basis, t), times, n
    )
    active = series.indices

    coefficients = np.zeros((times.size, basis.size, n))
    solver = None  # no active track: nothing to solve
    if active:
        adapter = DecoupledSystemAdapter(
            conductance,
            capacitance,
            tracks=len(active),
            rhs_series=series,
            solver=config.effective_transient.solver,
            solver_factory=solver_factory,
            solver_options=config.solver_options,
        )
        active_rows = np.asarray(active, dtype=int)

        def scatter(step: int, t: float, stacked: np.ndarray) -> None:
            coefficients[step, active_rows] = stacked.reshape(len(active), n)

        StepLoop(adapter, transient.scheme, times, transient.dt).run(
            callback=scatter, store=False
        )
        solver = adapter.solver

    elapsed = time.perf_counter() - started
    if config.store_coefficients:
        return StochasticTransientResult(
            times=times,
            basis=basis,
            vdd=system.vdd,
            coefficients=coefficients,
            node_names=system.node_names,
            wall_time=elapsed,
            solver=solver,
        )
    mean = coefficients[:, 0, :]
    variance = np.sum(coefficients[:, 1:, :] ** 2, axis=1)
    return StochasticTransientResult(
        times=times,
        basis=basis,
        vdd=system.vdd,
        mean=mean,
        variance=variance,
        node_names=system.node_names,
        wall_time=elapsed,
        solver=solver,
    )

