"""Block-preconditioned CG backend for the augmented Galerkin system.

``mean-block-cg``: matrix-free CG with an ``I_P (x) M0^{-1}`` preconditioner.
The augmented Galerkin stepping operator ``G~ + C~/h`` is, to first order,
block-diagonal: its ``(j, j)`` chaos block equals the nominal step matrix
``M0 = G_0 + C_0/h`` and the off-diagonal coupling is scaled by the (small)
process-variation sensitivities.  One sparse LU of the ``n x n`` mean block
therefore preconditions the whole ``P n x P n`` system extremely well, and
because the preconditioner is ``I_P (x) M0^{-1}``, applying it to a stacked
residual is a *single* 2-D SuperLU solve over all ``P`` chaos blocks at
once -- not ``P`` separate back-substitutions.

Combined with the matrix-free :class:`~repro.linalg.operator.KronSumOperator`
application, every CG iteration costs ``O(sum_m nnz(A_m) P)`` plus one
``n x n`` back-substitution per chaos block, so the solve scales with the
grid fill instead of the factorisation fill of the explicit Kronecker sum.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import SolverError
from ..sim.linear import PreconditionedCGSolver, canonical_csc, register_solver
from ..telemetry import current_telemetry
from .operator import KronSumOperator, is_operator

__all__ = ["MeanBlockCGSolver"]


class MeanBlockCGSolver(PreconditionedCGSolver):
    """Conjugate gradients on a Kronecker-sum operator, preconditioned by
    one LU of the mean (nominal) block applied to all chaos blocks at once.

    Parameters
    ----------
    operator:
        A :class:`~repro.linalg.operator.KronSumOperator` (the natural
        input), or an explicit sparse matrix together with ``num_nodes``
        so the ``n x n`` mean block can be sliced out of the top-left
        corner.
    num_nodes:
        Block size ``n``; required only for explicit-matrix input.
    mean_block:
        Optional override of the preconditioner matrix ``M0`` (defaults to
        the operator's :meth:`~repro.linalg.operator.KronSumOperator.mean_block`).
    rtol, maxiter:
        CG convergence tolerance and iteration cap; non-convergence raises
        :class:`~repro.errors.ConvergenceError`.  The default is tight
        (``1e-14``): the mean-block preconditioner converges in ~10
        iterations anyway (tightening from 1e-13 costs about one more), and
        the tight tolerance keeps the matrix-free transient within ~1e-10
        of the explicit direct solve -- the accuracy contract the engine
        tests and the operator benchmark pin down.

    Every solve updates ``stats`` (solve/iteration counters and the true
    final relative residual), matching the diagnostics contract of the
    other iterative backends.
    """

    method_name = "mean-block-cg"
    error_label = "mean-block CG"

    def __init__(
        self,
        operator: Union[KronSumOperator, sp.spmatrix],
        num_nodes: Optional[int] = None,
        mean_block: Optional[sp.spmatrix] = None,
        rtol: float = 1e-14,
        maxiter: int = 2000,
    ):
        if is_operator(operator):
            self._operator = operator
            self._apply = operator.as_linear_operator()
            self.basis_size = operator.basis_size
            self.num_nodes = operator.num_nodes
            if mean_block is None:
                mean_block = operator.mean_block()
        else:
            matrix = sp.csr_matrix(operator)
            if matrix.shape[0] != matrix.shape[1]:
                raise SolverError("mean-block-cg requires a square system")
            if num_nodes is None:
                raise SolverError(
                    "mean-block-cg needs a KronSumOperator (lazy Galerkin "
                    "assembly) or an explicit matrix plus num_nodes=<block "
                    "size> to locate the mean block"
                )
            num_nodes = int(num_nodes)
            if num_nodes <= 0 or matrix.shape[0] % num_nodes:
                raise SolverError(
                    f"block size {num_nodes} does not tile a system of "
                    f"dimension {matrix.shape[0]}"
                )
            self._operator = matrix
            self._apply = spla.aslinearoperator(matrix)
            self.num_nodes = num_nodes
            self.basis_size = matrix.shape[0] // num_nodes
            if mean_block is None:
                mean_block = matrix[: self.num_nodes, : self.num_nodes]
        self.shape = (
            self.basis_size * self.num_nodes,
            self.basis_size * self.num_nodes,
        )
        self.rtol = float(rtol)
        self.maxiter = int(maxiter)

        mean_block = canonical_csc(mean_block)
        if mean_block.shape != (self.num_nodes, self.num_nodes):
            raise SolverError(
                f"mean block has shape {mean_block.shape}, expected "
                f"({self.num_nodes}, {self.num_nodes})"
            )
        try:
            with current_telemetry().span(
                "solver.factor", phase="factor", solver=self.method_name
            ):
                self._mean_lu = spla.splu(mean_block)
        except RuntimeError as exc:  # singular mean block
            raise SolverError(f"mean-block LU factorisation failed: {exc}") from exc
        self._configure_cg(
            self._apply,
            residual_target=self._operator,
            preconditioner=spla.LinearOperator(
                self.shape, matvec=self._apply_mean_inverse, dtype=float
            ),
        )

    def _apply_mean_inverse(self, residual: np.ndarray) -> np.ndarray:
        """``(I_P (x) M0^{-1}) r``: one 2-D solve over all chaos blocks."""
        blocks = np.asarray(residual, dtype=float).reshape(self.basis_size, self.num_nodes)
        return self._mean_lu.solve(blocks.T).T.ravel()


@register_solver("mean-block-cg")
def _build_mean_block_cg(matrix, **options) -> MeanBlockCGSolver:
    return MeanBlockCGSolver(matrix, **options)


#: Consumed by :func:`repro.sim.linear.make_solver`: this backend takes lazy
#: operators as-is instead of having them materialised to CSR first.
_build_mean_block_cg.accepts_operator = True
