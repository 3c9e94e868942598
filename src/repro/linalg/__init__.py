"""Matrix-free structured linear algebra for the augmented Galerkin system.

The OPERA Galerkin projection produces matrices that are sums of Kronecker
products ``sum_m T_m (x) A_m`` (small triple-product factors ``T_m`` times
sparse grid matrices ``A_m``).  This package keeps that structure *lazy*:

* :class:`KronSumOperator` -- the lazy operator itself: ``matvec``/``matmat``
  via reshape + batched sparse-dense products, ``diagonal()``,
  ``mean_block()``, ``to_csr()`` fallback and scalar/additive composition
  (``G_op + C_op / h`` without ever assembling the kron);
* :class:`MeanBlockCGSolver` -- the ``mean-block-cg`` solver backend:
  conjugate gradients on the operator, preconditioned by one LU of the
  ``n x n`` nominal (mean) block applied to all ``P`` chaos blocks in a
  single 2-D solve (the ``I_P (x) M0^{-1}`` structure);
* :func:`kron_sum_csr` -- linear-time explicit assembly (single COO
  concatenation) shared by the operator's ``to_csr`` and
  :func:`repro.chaos.galerkin.assemble_augmented_matrix`.

Importing this package registers the ``mean-block-cg`` backend with the
solver registry; :mod:`repro.api` imports it, so the backend is available
everywhere a solver name is accepted.
"""

from .operator import KronSumOperator, KronTerm, is_operator, kron_sum_csr
from .solvers import MeanBlockCGSolver

__all__ = [
    "KronSumOperator",
    "KronTerm",
    "MeanBlockCGSolver",
    "kron_sum_csr",
    "is_operator",
]
