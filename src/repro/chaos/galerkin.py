"""Galerkin (stochastic) projection of the MNA system.

This is the numerical heart of OPERA.  Writing the stochastic response as a
truncated chaos expansion ``x(s, xi) = sum_i a_i(s) psi_i(xi)`` and requiring
the truncation residual to be orthogonal to every retained basis function
(Eq. (10) of the paper) yields one large *deterministic* system

``(G~ + s C~) a(s) = U~(s)``

whose blocks are

``G~[j, i] = sum_m E[psi_m psi_i psi_j] G_m``

for a parameter expansion ``G(xi) = sum_m G_m psi_m(xi)`` (and likewise for
``C~``), while the right-hand-side block ``j`` is simply the ``j``-th chaos
coefficient of ``U`` because the basis is orthonormal.

The augmented matrices are sums of Kronecker products ``sum_m T_m (x) A_m``.
:class:`GalerkinSystem` keeps them as lazy
:class:`~repro.linalg.KronSumOperator` objects, whose application costs a
handful of small sparse-dense products instead of a ``P n``-sized matvec --
the form the matrix-free ``mean-block-cg`` path runs on.  The explicit CSR
sum (one linear-time COO concatenation, preserving the sparsity of the grid
matrices exactly), which direct factorisations need, is materialised from
the operator on first use.  :meth:`GalerkinSystem.for_solver` picks the form
a solver backend consumes.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..errors import AnalysisError, BasisError
from ..linalg.operator import KronSumOperator, kron_sum_csr
from ..sim.linear import solver_accepts_operator
from .basis import PolynomialChaosBasis
from .triples import triple_product_tensors

__all__ = [
    "assemble_augmented_matrix",
    "assemble_augmented_operator",
    "assemble_augmented_rhs",
    "split_augmented_vector",
    "AugmentedRhsSeries",
    "GalerkinSystem",
]


def _checked_coefficients(
    coefficient_matrices: Mapping[int, sp.spmatrix],
) -> Mapping[int, sp.spmatrix]:
    if not coefficient_matrices:
        raise AnalysisError("at least the mean matrix (index 0) must be provided")
    shapes = {matrix.shape for matrix in coefficient_matrices.values()}
    if len(shapes) != 1:
        raise AnalysisError("all coefficient matrices must share the same shape")
    return coefficient_matrices


def assemble_augmented_matrix(
    basis: PolynomialChaosBasis,
    coefficient_matrices: Mapping[int, sp.spmatrix],
) -> sp.csr_matrix:
    """Assemble ``sum_m kron(T_m, A_m)`` for a parameter expansion of a matrix.

    Parameters
    ----------
    basis:
        The chaos basis of the response.
    coefficient_matrices:
        Mapping from *basis index* ``m`` to the matrix coefficient ``A_m`` of
        the parameter expansion ``A(xi) = sum_m A_m psi_m(xi)``.  For the
        paper's affine (first-order) parameter model the keys are ``0`` and
        the first-order indices of the varying germs.

    Every term's COO triplets are concatenated and folded in one pass, so
    assembly is linear in the total fill (the incremental ``sum + term``
    accumulation it replaces cost O(terms^2) CSR merges).
    """
    coefficient_matrices = _checked_coefficients(coefficient_matrices)
    tensors = triple_product_tensors(basis, coefficient_matrices.keys())
    return kron_sum_csr(
        [(tensors[m], sp.csr_matrix(matrix)) for m, matrix in coefficient_matrices.items()]
    )


def assemble_augmented_operator(
    basis: PolynomialChaosBasis,
    coefficient_matrices: Mapping[int, sp.spmatrix],
) -> KronSumOperator:
    """The lazy (matrix-free) counterpart of :func:`assemble_augmented_matrix`.

    Returns a :class:`~repro.linalg.KronSumOperator` representing
    ``sum_m T_m (x) A_m`` without materialising it; the triple-product
    factors come from the per-basis cache, so operators assembled for the
    same basis share them (and operator sums merge matching terms).
    """
    coefficient_matrices = _checked_coefficients(coefficient_matrices)
    tensors = triple_product_tensors(basis, coefficient_matrices.keys())
    return KronSumOperator(
        [(tensors[m], sp.csr_matrix(matrix)) for m, matrix in coefficient_matrices.items()]
    )


def assemble_augmented_rhs(
    basis: PolynomialChaosBasis,
    coefficient_vectors: Mapping[int, np.ndarray],
    num_nodes: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Stack the chaos coefficients of the excitation into the augmented RHS.

    Because the basis is orthonormal, the Galerkin right-hand side block ``j``
    equals the ``j``-th chaos coefficient of ``U`` (zero if absent).  Passing
    ``out`` reuses the caller's buffer (it is zeroed first) so a stepping
    loop does not allocate ``P * n`` zeros per step.
    """
    size = basis.size * num_nodes
    if out is None:
        out = np.zeros(size)
    else:
        if out.shape != (size,):
            raise AnalysisError(f"out buffer has shape {out.shape}, expected ({size},)")
        out[:] = 0.0
    for index, vector in coefficient_vectors.items():
        if not (0 <= index < basis.size):
            raise BasisError(
                f"excitation refers to basis index {index}, but the basis has "
                f"only {basis.size} functions (order too low?)"
            )
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (num_nodes,):
            raise AnalysisError(
                f"excitation coefficient {index} has shape {vector.shape}, "
                f"expected ({num_nodes},)"
            )
        out[index * num_nodes : (index + 1) * num_nodes] = vector
    return out


def split_augmented_vector(vector: np.ndarray, basis_size: int, num_nodes: int) -> np.ndarray:
    """Reshape a stacked augmented vector into ``(basis_size, num_nodes)`` blocks."""
    vector = np.asarray(vector, dtype=float)
    expected = basis_size * num_nodes
    if vector.shape != (expected,):
        raise AnalysisError(f"augmented vector has shape {vector.shape}, expected ({expected},)")
    return vector.reshape(basis_size, num_nodes)


class AugmentedRhsSeries:
    """Per-basis-index excitation waveforms precomputed over a whole time axis.

    A transient loop that calls ``galerkin.rhs(t)`` per step rebuilds the
    excitation's coefficient dictionary and restacks it into a fresh
    ``P * n`` vector every time.  This object evaluates the coefficients for
    *all* time points up front (one waveform array of shape
    ``(num_times, n)`` per active basis index) so that the per-step right-
    hand side becomes a plain buffer fill: :meth:`fill` copies the active
    rows into the caller's buffer and touches nothing else.
    """

    def __init__(self, galerkin: "GalerkinSystem", times: np.ndarray):
        times = np.asarray(times, dtype=float)
        self.times = times
        self.basis_size = galerkin.basis.size
        self.num_nodes = galerkin.num_nodes
        waveforms: Dict[int, np.ndarray] = {}
        for step, t in enumerate(times):
            for index, vector in galerkin.excitation_coefficients(float(t)).items():
                if not (0 <= index < self.basis_size):
                    raise BasisError(
                        f"excitation refers to basis index {index}, but the basis "
                        f"has only {self.basis_size} functions (order too low?)"
                    )
                table = waveforms.get(index)
                if table is None:
                    table = np.zeros((times.size, self.num_nodes))
                    waveforms[index] = table
                vector = np.asarray(vector, dtype=float)
                if vector.shape != (self.num_nodes,):
                    raise AnalysisError(
                        f"excitation coefficient {index} has shape {vector.shape}, "
                        f"expected ({self.num_nodes},)"
                    )
                table[step] = vector
        self._waveforms: Tuple[Tuple[int, np.ndarray], ...] = tuple(
            sorted(waveforms.items())
        )

    @property
    def active_indices(self) -> Tuple[int, ...]:
        """Basis indices with a non-trivial excitation waveform."""
        return tuple(index for index, _ in self._waveforms)

    def fill(self, step: int, out: np.ndarray) -> np.ndarray:
        """Write ``U~(times[step])`` into ``out`` (shape ``(P * n,)``).

        The buffer is zeroed (a vectorised memset, trivial next to the dict
        rebuild and restack this replaces) and the active waveform rows are
        copied in; nothing is allocated.
        """
        expected = self.basis_size * self.num_nodes
        if out.shape != (expected,):
            raise AnalysisError(f"out buffer has shape {out.shape}, expected ({expected},)")
        out[:] = 0.0
        blocks = out.reshape(self.basis_size, self.num_nodes)
        for index, table in self._waveforms:
            blocks[index] = table[step]
        return out

    def dense(self) -> np.ndarray:
        """The full stacked RHS for every time point, shape ``(T, P * n)``."""
        table = np.zeros((self.times.size, self.basis_size * self.num_nodes))
        for step in range(self.times.size):
            self.fill(step, table[step])
        return table


class GalerkinSystem:
    """The augmented deterministic system produced by the Galerkin projection.

    Parameters
    ----------
    basis:
        Chaos basis of the response.
    conductance_coefficients, capacitance_coefficients:
        Parameter expansions of ``G`` and ``C`` (basis index -> matrix).
    excitation_coefficients:
        Callable returning the excitation's chaos coefficients at a time.
    num_nodes:
        Number of grid nodes (the block size).

    The augmented matrices are built as lazy
    :class:`~repro.linalg.KronSumOperator` objects; their explicit CSR form
    is materialised (and cached) on first access.

    Attributes
    ----------
    conductance, capacitance:
        Augmented CSR matrices ``G~`` and ``C~`` of Eq. (19).
    conductance_operator, capacitance_operator:
        The same matrices as lazy Kronecker-sum operators.
    """

    def __init__(
        self,
        basis: PolynomialChaosBasis,
        conductance_coefficients: Mapping[int, sp.spmatrix],
        capacitance_coefficients: Mapping[int, sp.spmatrix],
        excitation_coefficients: Callable[[float], Mapping[int, np.ndarray]],
        num_nodes: int,
    ):
        self.basis = basis
        self.num_nodes = int(num_nodes)
        self._conductance_coefficients = _checked_coefficients(conductance_coefficients)
        self._capacitance_coefficients = _checked_coefficients(capacitance_coefficients)
        self._excitation_coefficients = excitation_coefficients
        self._matrices: Dict[str, sp.csr_matrix] = {}
        self._operators: Dict[str, KronSumOperator] = {
            "conductance": assemble_augmented_operator(basis, conductance_coefficients),
            "capacitance": assemble_augmented_operator(basis, capacitance_coefficients),
        }

    # ------------------------------------------------------- representations
    def _matrix(self, which: str) -> sp.csr_matrix:
        matrix = self._matrices.get(which)
        if matrix is None:
            matrix = self._operator(which).to_csr()
            self._matrices[which] = matrix
        return matrix

    def _operator(self, which: str) -> KronSumOperator:
        return self._operators[which]

    def for_solver(self, which: str, solver: str):
        """``G~`` (``which="conductance"``) or ``C~`` in the form ``solver`` consumes.

        The lazy operator when the registered backend declares
        ``accepts_operator`` (``mean-block-cg``, ``cg``), the explicit CSR
        matrix otherwise (``direct``), so an operator-aware run never
        materialises the Kronecker sum.
        """
        if solver_accepts_operator(solver):
            return self._operator(which)
        return self._matrix(which)

    @property
    def conductance_coefficients(self) -> Mapping[int, sp.spmatrix]:
        """The parameter expansion of ``G`` (basis index -> matrix)."""
        return self._conductance_coefficients

    @property
    def capacitance_coefficients(self) -> Mapping[int, sp.spmatrix]:
        """The parameter expansion of ``C`` (basis index -> matrix)."""
        return self._capacitance_coefficients

    @property
    def conductance(self) -> sp.csr_matrix:
        """Explicit augmented conductance ``G~`` (materialised on first use)."""
        return self._matrix("conductance")

    @property
    def capacitance(self) -> sp.csr_matrix:
        """Explicit augmented capacitance ``C~`` (materialised on first use)."""
        return self._matrix("capacitance")

    @property
    def conductance_operator(self) -> KronSumOperator:
        """Matrix-free view of ``G~`` (built and cached on first use)."""
        return self._operator("conductance")

    @property
    def capacitance_operator(self) -> KronSumOperator:
        """Matrix-free view of ``C~`` (built and cached on first use)."""
        return self._operator("capacitance")

    @property
    def size(self) -> int:
        """Dimension of the augmented system (= basis.size * num_nodes)."""
        return self.basis.size * self.num_nodes

    # ------------------------------------------------------------ excitation
    def excitation_coefficients(self, t: float) -> Mapping[int, np.ndarray]:
        """The excitation's chaos coefficients at time ``t`` (basis index -> vector)."""
        return self._excitation_coefficients(t)

    def rhs(self, t: float, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Stacked augmented right-hand side ``U~(t)`` (optionally into ``out``)."""
        return assemble_augmented_rhs(
            self.basis, self._excitation_coefficients(t), self.num_nodes, out=out
        )

    def rhs_series(self, times: np.ndarray) -> AugmentedRhsSeries:
        """Precompute the excitation waveforms over a whole time axis.

        The returned :class:`AugmentedRhsSeries` turns the per-step RHS of a
        transient loop into a buffer fill; see its docstring.
        """
        return AugmentedRhsSeries(self, times)

    def split(self, augmented_vector: np.ndarray) -> np.ndarray:
        """Reshape an augmented solution into ``(basis.size, num_nodes)``."""
        return split_augmented_vector(augmented_vector, self.basis.size, self.num_nodes)
