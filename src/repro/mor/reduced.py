"""The reduced augmented system: block operators and their dense solver.

Projecting each atom's interior through its macromodel basis ``V_k`` turns
the augmented (Galerkin) system ``sum_m T_m (x) A_m`` into a small
block-structured system that is never materialised globally:

* per-atom diagonal blocks ``D_k = sum_m T_m (x) (V_k^T A_m[I,I] V_k)``
  (dense, chaos-major within the atom),
* per-atom interface couplings ``E_k = sum_m T_m (x) (V_k^T A_m[I,B_k])``
  and ``F_k = sum_m T_m (x) (A_m[B_k,I] V_k)`` against the atom's *local*
  boundary columns only,
* the exact (unreduced) interface block ``sum_m T_m (x) A_m[B,B]``.

:class:`ReducedBlockOperator` carries those pieces with the scalar-scaling
/ addition / ``matvec`` surface :func:`repro.stepping.schemes.step_forms`
needs for its matrix-free path, so any registered stepping scheme composes
the reduced LHS and RHS forms without special-casing.
:class:`ReducedBlockSolver` then factors a composed LHS by dense block
elimination: eliminate every reduced atom, factor the dense interface
Schur complement, back-substitute.

The reduced state vector is atom-major; within an atom (and within the
boundary tail) entries are chaos-major: ``z_k[p * r_k + i]`` is chaos block
``p`` of reduced coordinate ``i`` -- exactly the layout ``kron(T_m, .)``
produces, so no permutations appear anywhere.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_factor, lu_solve

from ..errors import SolverError
from ..linalg.operator import kron_sum_csr
from ..telemetry import current_telemetry
from .macromodel import BlockMacromodel

__all__ = [
    "ReducedBlockOperator",
    "ReducedBlockSolver",
    "ReducedRhsSeries",
    "build_reduced_operators",
    "reduce_rhs_series",
]


class ReducedBlockOperator:
    """``sum_m T_m (x) A_m`` after per-atom congruence projection.

    Supports exactly the operator algebra the stepping core's matrix-free
    path uses -- scalar scaling, addition of same-layout operators, and
    ``matvec(x, out=...)`` -- so scheme forms (``a G + b C/h`` and the RHS
    products) compose without materialising anything.
    """

    __slots__ = ("diag", "couple_ib", "couple_bi", "interface", "col_index", "offsets", "boundary_offset", "size")

    def __init__(
        self,
        diag: Sequence[np.ndarray],
        couple_ib: Sequence[np.ndarray],
        couple_bi: Sequence[np.ndarray],
        interface: sp.spmatrix,
        col_index: Sequence[np.ndarray],
        offsets: Sequence[int],
        boundary_offset: int,
    ):
        self.diag = list(diag)
        self.couple_ib = list(couple_ib)
        self.couple_bi = list(couple_bi)
        self.interface = sp.csr_matrix(interface)
        self.col_index = list(col_index)
        self.offsets = list(offsets)
        self.boundary_offset = int(boundary_offset)
        self.size = self.boundary_offset + self.interface.shape[0]

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.size, self.size)

    # ------------------------------------------------------- operator algebra
    def _scaled(self, factor: float) -> "ReducedBlockOperator":
        factor = float(factor)
        return ReducedBlockOperator(
            [factor * block for block in self.diag],
            [factor * block for block in self.couple_ib],
            [factor * block for block in self.couple_bi],
            self.interface * factor,
            self.col_index,
            self.offsets,
            self.boundary_offset,
        )

    def __mul__(self, factor):
        if not np.isscalar(factor):
            return NotImplemented
        return self._scaled(factor)

    __rmul__ = __mul__

    def __truediv__(self, factor):
        if not np.isscalar(factor):
            return NotImplemented
        return self._scaled(1.0 / float(factor))

    def __add__(self, other):
        if not isinstance(other, ReducedBlockOperator):
            return NotImplemented
        if self.offsets != other.offsets or self.boundary_offset != other.boundary_offset:
            raise SolverError("cannot add reduced operators with different block layouts")
        return ReducedBlockOperator(
            [a + b for a, b in zip(self.diag, other.diag)],
            [a + b for a, b in zip(self.couple_ib, other.couple_ib)],
            [a + b for a, b in zip(self.couple_bi, other.couple_bi)],
            self.interface + other.interface,
            self.col_index,
            self.offsets,
            self.boundary_offset,
        )

    # ---------------------------------------------------------------- products
    def matvec(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.size,):
            raise SolverError(f"operand has shape {x.shape}, expected ({self.size},)")
        if out is None:
            out = np.empty(self.size)
        tail = self.interface @ x[self.boundary_offset :]
        for block, coupling, reverse, cols, offset in zip(
            self.diag, self.couple_ib, self.couple_bi, self.col_index, self.offsets
        ):
            segment = x[offset : offset + block.shape[0]]
            out[offset : offset + block.shape[0]] = block @ segment
            if cols.size:
                out[offset : offset + block.shape[0]] += coupling @ x[self.boundary_offset + cols]
                tail[cols] += reverse @ segment
        out[self.boundary_offset :] = tail
        return out

    def __matmul__(self, x):
        return self.matvec(x)


class ReducedBlockSolver:
    """Dense block elimination of a :class:`ReducedBlockOperator` LHS.

    LU-factor every atom's dense diagonal block, form the dense
    interface Schur complement ``S = S0 - sum_k F_k D_k^{-1} E_k``, and
    solve by eliminate / interface solve / back-substitute.  Direct (no
    warm start), so the shared step loop treats it like any factorisation.
    """

    def __init__(self, operator: ReducedBlockOperator):
        started = time.perf_counter()
        with current_telemetry().span(
            "solver.factor", phase="factor", solver="mor-block", blocks=len(operator.diag)
        ):
            self.operator = operator
            self._block_lu = [lu_factor(block) for block in operator.diag]
            self._eliminated = [
                lu_solve(lu, coupling) if coupling.shape[1] else coupling
                for lu, coupling in zip(self._block_lu, operator.couple_ib)
            ]
            schur = np.asarray(operator.interface.todense())
            for reverse, eliminated, cols in zip(
                operator.couple_bi, self._eliminated, operator.col_index
            ):
                if cols.size:
                    schur[np.ix_(cols, cols)] -= reverse @ eliminated
            self._interface_lu = lu_factor(schur)
        self.factor_time = time.perf_counter() - started
        self.shape = operator.shape

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        operator = self.operator
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (operator.size,):
            raise SolverError(f"right-hand side has shape {rhs.shape}, expected ({operator.size},)")
        reduced_tail = rhs[operator.boundary_offset :].copy()
        eliminated_states: List[np.ndarray] = []
        for lu, reverse, cols, offset, block in zip(
            self._block_lu,
            operator.couple_bi,
            operator.col_index,
            operator.offsets,
            operator.diag,
        ):
            state = lu_solve(lu, rhs[offset : offset + block.shape[0]])
            eliminated_states.append(state)
            if cols.size:
                reduced_tail[cols] -= reverse @ state
        tail = lu_solve(self._interface_lu, reduced_tail)
        out = np.empty(operator.size)
        for state, eliminated, cols, offset in zip(
            eliminated_states, self._eliminated, operator.col_index, operator.offsets
        ):
            if cols.size:
                state = state - eliminated @ tail[cols]
            out[offset : offset + state.size] = state
        out[operator.boundary_offset :] = tail
        return out


class ReducedRhsSeries:
    """Precomputed reduced excitation table with the step loop's contract."""

    def __init__(self, times: np.ndarray, table: np.ndarray):
        self.times = np.asarray(times, dtype=float)
        self._table = np.asarray(table, dtype=float)
        if self._table.shape[0] != self.times.size:
            raise SolverError(
                f"reduced RHS table has {self._table.shape[0]} rows for "
                f"{self.times.size} time points"
            )

    @property
    def size(self) -> int:
        return self._table.shape[1]

    def fill(self, step: int, out: np.ndarray) -> np.ndarray:
        if out.shape != (self._table.shape[1],):
            raise SolverError(
                f"out buffer has shape {out.shape}, expected ({self._table.shape[1]},)"
            )
        out[:] = self._table[step]
        return out


def _layout(models: Sequence[BlockMacromodel], basis_size: int, boundary_size: int):
    """Offsets of the atom-major reduced state vector."""
    offsets: List[int] = []
    offset = 0
    for model in models:
        offsets.append(offset)
        offset += basis_size * model.order
    return offsets, offset, offset + basis_size * boundary_size


def _kron_accumulate(out: np.ndarray, tensor: sp.spmatrix, block: np.ndarray) -> None:
    """``out += kron(T, block)`` exploiting the tensor's sparsity."""
    rows, cols = block.shape
    coo = tensor.tocoo()
    for i, j, value in zip(coo.row, coo.col, coo.data):
        out[i * rows : (i + 1) * rows, j * cols : (j + 1) * cols] += value * block
    return None


def build_reduced_operators(
    models: Sequence[BlockMacromodel],
    local_columns: Sequence[np.ndarray],
    boundary: np.ndarray,
    basis_size: int,
    conductance_coefficients: Mapping[int, sp.spmatrix],
    capacitance_coefficients: Mapping[int, sp.spmatrix],
    tensors: Mapping[int, sp.spmatrix],
) -> Tuple[ReducedBlockOperator, ReducedBlockOperator]:
    """Project both augmented matrices through the per-atom macromodels.

    Returns the reduced ``(G~, C~)`` operator pair sharing one layout.  The
    mean-coefficient diagonal projections ``V^T A_0 V`` are taken from the
    macromodels (computed once by the reduction and valid by cache-key
    equality of the nominal blocks); everything else is projected here.
    """
    boundary = np.asarray(boundary, dtype=int)
    offsets, boundary_offset, _ = _layout(models, basis_size, boundary.size)
    pieces: Dict[str, List] = {"g_diag": [], "g_ib": [], "g_bi": [], "c_diag": [], "c_ib": [], "c_bi": []}
    col_index: List[np.ndarray] = []
    for model, cols in zip(models, local_columns):
        cols = np.asarray(cols, dtype=int)
        interior = model.interior
        basis = model.projection
        rank = model.order
        width = cols.size
        expanded = np.concatenate(
            [page * boundary.size + cols for page in range(basis_size)]
        ) if width else np.empty(0, dtype=int)
        col_index.append(expanded.astype(int))
        boundary_cols = boundary[cols]
        for prefix, coefficients, nominal in (
            ("g", conductance_coefficients, model.conductance),
            ("c", capacitance_coefficients, model.capacitance),
        ):
            diag = np.zeros((basis_size * rank, basis_size * rank))
            forward = np.zeros((basis_size * rank, basis_size * width))
            reverse = np.zeros((basis_size * width, basis_size * rank))
            for index, matrix in coefficients.items():
                matrix = sp.csr_matrix(matrix)
                interior_rows = matrix[interior]
                if index == 0:
                    projected = nominal
                else:
                    inner = interior_rows[:, interior]
                    projected = basis.T @ (inner @ basis) if inner.nnz else None
                if projected is not None:
                    _kron_accumulate(diag, tensors[index], projected)
                if width:
                    forward_block = interior_rows[:, boundary_cols]
                    if forward_block.nnz:
                        _kron_accumulate(
                            forward, tensors[index], basis.T @ np.asarray(forward_block.todense())
                        )
                    reverse_block = matrix[boundary_cols][:, interior]
                    if reverse_block.nnz:
                        _kron_accumulate(reverse, tensors[index], reverse_block @ basis)
            pieces[f"{prefix}_diag"].append(diag)
            pieces[f"{prefix}_ib"].append(forward)
            pieces[f"{prefix}_bi"].append(reverse)

    interfaces = {}
    for prefix, coefficients in (("g", conductance_coefficients), ("c", capacitance_coefficients)):
        terms = []
        for index, matrix in coefficients.items():
            block = sp.csr_matrix(matrix)[boundary][:, boundary]
            terms.append((tensors[index], sp.csr_matrix(block)))
        interfaces[prefix] = kron_sum_csr(terms)

    conductance = ReducedBlockOperator(
        pieces["g_diag"], pieces["g_ib"], pieces["g_bi"], interfaces["g"],
        col_index, offsets, boundary_offset,
    )
    capacitance = ReducedBlockOperator(
        pieces["c_diag"], pieces["c_ib"], pieces["c_bi"], interfaces["c"],
        col_index, offsets, boundary_offset,
    )
    return conductance, capacitance


def reduce_rhs_series(
    series,
    models: Sequence[BlockMacromodel],
    boundary: np.ndarray,
    basis_size: int,
) -> ReducedRhsSeries:
    """Project an :class:`~repro.chaos.galerkin.AugmentedRhsSeries` table.

    Interior rows are projected through each atom's basis (one BLAS-3
    product per active chaos index per atom); boundary rows are copied
    exactly.
    """
    boundary = np.asarray(boundary, dtype=int)
    offsets, boundary_offset, size = _layout(models, basis_size, boundary.size)
    times = series.times
    table = np.zeros((times.size, size))
    for index, waveform in series.waveforms:
        for model, offset in zip(models, offsets):
            rank = model.order
            table[:, offset + index * rank : offset + (index + 1) * rank] = (
                waveform[:, model.interior] @ model.projection
            )
        table[
            :,
            boundary_offset + index * boundary.size : boundary_offset + (index + 1) * boundary.size,
        ] = waveform[:, boundary]
    return ReducedRhsSeries(times, table)
