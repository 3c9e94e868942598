"""PRIMA-style passive model order reduction (implementation-note extension).

The paper's implementation discussion (Section 5.2) points out that the cost
of solving the augmented OPERA system can be reduced further with model order
reduction, since the designer usually only cares about the voltages (and
their statistics) at a modest number of observation nodes.  This module
provides a block-Arnoldi / PRIMA-style congruence-transform reduction:

1. choose input/observation ports (columns of ``B``);
2. build an orthonormal basis ``V`` of the block Krylov subspace
   ``span{A^k R, k = 0..q-1}`` with ``A = G^{-1} C`` and ``R = G^{-1} B``;
3. project congruently: ``G_r = V^T G V``, ``C_r = V^T C V``, ``B_r = V^T B``.

Congruence transformation preserves passivity for RC grids (symmetric
positive semi-definite ``G`` and ``C``), and the reduced model matches the
first ``q`` block moments of the original transfer function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from ..errors import SolverError
from ..sim.linear import make_solver, resolve_solver
from ..sim.transient import TransientConfig, run_transient

__all__ = ["ReducedModel", "prima_reduce"]


@dataclass
class ReducedModel:
    """A reduced-order model ``(G_r, C_r, B_r)`` with its projection basis ``V``."""

    conductance: np.ndarray
    capacitance: np.ndarray
    input_map: np.ndarray
    projection: np.ndarray

    @property
    def order(self) -> int:
        """Dimension of the reduced state space."""
        return self.conductance.shape[0]

    @property
    def num_ports(self) -> int:
        return self.input_map.shape[1]

    def expand(self, reduced_states: np.ndarray) -> np.ndarray:
        """Lift reduced states back to full node voltages (``V @ x_r``)."""
        reduced_states = np.asarray(reduced_states, dtype=float)
        return reduced_states @ self.projection.T

    def transient(
        self,
        port_currents: Callable[[float], np.ndarray],
        config: TransientConfig,
        vdd: float = 1.0,
    ):
        """Run a transient on the reduced model.

        ``port_currents(t)`` returns the current injected at each port; the
        reduced right-hand side is ``B_r @ port_currents(t)``.
        """
        conductance = sp.csr_matrix(self.conductance)
        capacitance = sp.csr_matrix(self.capacitance)

        def rhs(t: float) -> np.ndarray:
            return self.input_map @ np.asarray(port_currents(t), dtype=float)

        return run_transient(conductance, capacitance, rhs, config, vdd=vdd)


def prima_reduce(
    conductance: sp.spmatrix,
    capacitance: sp.spmatrix,
    ports: np.ndarray,
    num_moments: int = 2,
    solver: Optional[str] = None,
    deflation_tolerance: float = 1e-12,
) -> ReducedModel:
    """Reduce an RC system with a block-Arnoldi (PRIMA) congruence projection.

    Parameters
    ----------
    conductance, capacitance:
        The full sparse ``G`` and ``C`` matrices (``n x n``).
    ports:
        Either an ``(n, m)`` dense input matrix ``B`` or a 1-D array of node
        indices; in the latter case ``B`` selects unit injections at those
        nodes.
    num_moments:
        Number of block moments to match (Krylov depth ``q``); the reduced
        order is at most ``q * m``.
    solver:
        Linear solver used for the repeated ``G``-solves; ``None`` runs
        ``direct`` (``G`` is an ``n x n`` matrix).
    deflation_tolerance:
        Columns whose *relative* norm falls below this value after
        orthogonalisation are dropped (deflation of converged directions).
        Every raw Krylov column is normalised before Gram-Schmidt, so the
        test is scale-invariant: stiff systems whose higher moment blocks
        carry tiny absolute magnitudes (``G``-dominated grids with
        femtosecond time constants) still contribute their directions.

    Notes
    -----
    When the requested Krylov space can already span the full state space
    (``num_moments * m >= n``) the reduction falls back to the exact
    identity projection: the "reduced" model is the original system and
    ``expand`` is a no-op reshape.
    """
    conductance = sp.csr_matrix(conductance)
    capacitance = sp.csr_matrix(capacitance)
    n = conductance.shape[0]
    if conductance.shape != capacitance.shape:
        raise SolverError("G and C must have identical shapes")
    if num_moments < 1:
        raise SolverError("num_moments must be at least 1")

    ports = np.asarray(ports)
    if ports.ndim == 1:
        input_matrix = np.zeros((n, ports.size))
        for column, node in enumerate(ports.astype(int)):
            if not (0 <= node < n):
                raise SolverError(f"port node {node} out of range")
            input_matrix[node, column] = 1.0
    elif ports.ndim == 2 and ports.shape[0] == n:
        input_matrix = ports.astype(float)
    else:
        raise SolverError("ports must be node indices or an (n, m) input matrix")

    if num_moments * input_matrix.shape[1] >= n:
        # The block Krylov space can span the whole state space: reducing
        # would only add projection noise, so fall back to the exact model.
        projection = np.eye(n)
        return ReducedModel(
            conductance=np.asarray(conductance.todense(), dtype=float),
            capacitance=np.asarray(capacitance.todense(), dtype=float),
            input_map=input_matrix.copy(),
            projection=projection,
        )

    g_solver = make_solver(conductance, method=resolve_solver(solver, galerkin=False))

    def orthonormalize(block: np.ndarray, basis_columns: list) -> np.ndarray:
        """Modified Gram-Schmidt of ``block`` against existing columns.

        Columns are normalised *before* orthogonalisation so the deflation
        test compares the orthogonal residual against the column's own
        scale rather than an absolute threshold.
        """
        kept = []
        for column in block.T:
            norm = np.linalg.norm(column)
            if norm == 0.0:
                continue
            vector = column / norm
            for _ in range(2):  # MGS with one re-orthogonalisation pass
                for existing in basis_columns:
                    vector -= existing * (existing @ vector)
                for existing in kept:
                    vector -= existing * (existing @ vector)
            norm = np.linalg.norm(vector)
            if norm > deflation_tolerance:
                kept.append(vector / norm)
        return np.array(kept).T if kept else np.empty((block.shape[0], 0))

    basis_columns: list = []
    block = g_solver.solve_many(input_matrix)
    block = orthonormalize(np.atleast_2d(block.T).T, basis_columns)
    for column in block.T:
        basis_columns.append(column)

    previous_block = block
    for _ in range(1, num_moments):
        if previous_block.shape[1] == 0:
            break
        raw = g_solver.solve_many(capacitance @ previous_block)
        new_block = orthonormalize(raw, basis_columns)
        for column in new_block.T:
            basis_columns.append(column)
        previous_block = new_block

    if not basis_columns:
        raise SolverError("PRIMA produced an empty projection basis")
    projection = np.column_stack(basis_columns)

    reduced_conductance = projection.T @ (conductance @ projection)
    reduced_capacitance = projection.T @ (capacitance @ projection)
    reduced_inputs = projection.T @ input_matrix
    return ReducedModel(
        conductance=reduced_conductance,
        capacitance=reduced_capacitance,
        input_map=reduced_inputs,
        projection=projection,
    )
