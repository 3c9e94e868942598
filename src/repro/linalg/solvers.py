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

import numpy as np
import scipy.sparse.linalg as spla

from ..errors import SolverError
from ..sim.linear import PreconditionedCGSolver, register_solver, sparse_lu
from ..telemetry import current_telemetry
from .operator import KronSumOperator, is_operator

__all__ = ["MeanBlockCGSolver"]


class MeanBlockCGSolver(PreconditionedCGSolver):
    """Conjugate gradients on a Kronecker-sum operator, preconditioned by
    one LU of the mean (nominal) block applied to all chaos blocks at once.

    Parameters
    ----------
    operator:
        A :class:`~repro.linalg.operator.KronSumOperator`; its
        :meth:`~repro.linalg.operator.KronSumOperator.mean_block` is the
        preconditioner matrix ``M0``.  An explicit matrix carries no block
        structure and is rejected.
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
        operator: KronSumOperator,
        rtol: float = 1e-14,
        maxiter: int = 2000,
    ):
        if not is_operator(operator):
            raise SolverError(
                "mean-block-cg needs a KronSumOperator (the Galerkin system's "
                "operator form) to locate the mean block; got "
                f"{type(operator).__name__}"
            )
        self._operator = operator
        self._apply = operator.as_linear_operator()
        self.basis_size = operator.basis_size
        self.num_nodes = operator.num_nodes
        self.shape = operator.shape
        self.rtol = float(rtol)
        self.maxiter = int(maxiter)

        try:
            with current_telemetry().span(
                "solver.factor", phase="factor", solver=self.method_name
            ):
                self._mean_lu = sparse_lu(operator.mean_block())
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
#: Consumed by :func:`repro.sim.linear.resolve_solver`: an ``n x n`` system
#: has no chaos blocks, so ``direct`` solves it instead.
_build_mean_block_cg.operator_only = True
