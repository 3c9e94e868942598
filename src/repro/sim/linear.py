"""Sparse linear solver wrappers used by the DC, transient and OPERA engines.

Power-grid conductance matrices are symmetric, positive definite and very
sparse, so the default solver is a cached sparse LU factorisation (SuperLU via
``scipy.sparse.linalg.splu``), which matches the "single factorisation,
repeated solves" usage pattern of both the transient integrator and the
special-case analysis of Section 5.1 of the paper.  A Jacobi-preconditioned
conjugate-gradient solver is provided for large systems where
factorisation memory is a concern (the iterative-solver route the paper
mentions in its implementation notes).

Solvers are pluggable: each backend registers a factory under a name with
:func:`register_solver`, and :func:`make_solver` resolves names through the
registry, so new backends (e.g. multigrid, GPU solvers) can be added without
touching the engines that consume them.
"""

from __future__ import annotations

import abc
import hashlib
from collections import OrderedDict
from typing import Mapping, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import ConvergenceError, SolverError
from ..registry import Registry
from ..telemetry import current_telemetry

__all__ = [
    "LinearSolver",
    "DirectSolver",
    "PreconditionedCGSolver",
    "ConjugateGradientSolver",
    "make_solver",
    "register_solver",
    "unregister_solver",
    "solver_names",
    "solver_factory",
    "solver_accepts_operator",
    "resolve_solver",
    "matrix_fingerprint",
    "sparsity_fingerprint",
    "canonical_csc",
    "sparse_lu",
    "factorization_counters",
    "reset_factorization_counters",
    "clear_pattern_cache",
    "set_pattern_cache_limit",
]


def _is_lazy_operator(obj) -> bool:
    """Duck-typed test for lazy operators (``repro.linalg.KronSumOperator``).

    Defined here (rather than imported from :mod:`repro.linalg`) because the
    linalg package registers its backend through this module -- importing it
    back would be circular.  An operator exposes matrix-free ``matvec`` and
    the explicit-assembly escape hatch ``to_csr``.
    """
    return callable(getattr(obj, "matvec", None)) and callable(getattr(obj, "to_csr", None))


# ---------------------------------------------------------------------------
# Sparsity-pattern cache for the CSR -> CSC conversion
# ---------------------------------------------------------------------------
#
# Corner sweeps factorise many matrices that share one sparsity pattern (the
# same grid topology stamped with different parameter values).  Where each
# nonzero lands in the column-ordered CSC layout SuperLU consumes depends
# only on the pattern, so that layout is cached process-wide, keyed by a
# values-free pattern fingerprint, and a same-pattern conversion is a single
# value gather.  This is all the cache saves: every ``splu`` call still runs
# its own fill-reducing ordering and symbolic analysis.  The gathered matrix
# is bitwise identical to a plain conversion, so the factors (and every
# downstream trajectory) equal the uncached path's.

_FACTOR_COUNTERS = {"symbolic_analysis": 0, "symbolic_reuse": 0, "numeric_refactor": 0}


def factorization_counters() -> dict:
    """Snapshot of the process-wide factorisation counters.

    ``symbolic_analysis`` counts CSR -> CSC layouts computed for a new
    sparsity pattern, ``symbolic_reuse`` counts conversions served from a
    cached layout, and ``numeric_refactor`` counts
    :meth:`DirectSolver.refactor` calls.  The names are historical: ``splu``
    runs its own ordering and symbolic analysis on every factorisation.
    The same names are emitted as telemetry counters when tracing is
    enabled.  ``pattern_cache_entries`` /
    ``pattern_cache_limit`` report the occupancy and LRU bound of the
    process-wide sparsity-pattern cache those counters describe (see
    :func:`set_pattern_cache_limit`).
    """
    snapshot = dict(_FACTOR_COUNTERS)
    snapshot["pattern_cache_entries"] = len(_PATTERN_CACHE)
    snapshot["pattern_cache_limit"] = _PATTERN_CACHE_SIZE
    return snapshot


def reset_factorization_counters() -> None:
    """Zero the factorisation counters (test/bench isolation)."""
    for name in _FACTOR_COUNTERS:
        _FACTOR_COUNTERS[name] = 0


def clear_pattern_cache() -> None:
    """Drop all cached sparsity patterns (test/bench isolation)."""
    _PATTERN_CACHE.clear()


def set_pattern_cache_limit(limit: int) -> int:
    """Set the LRU bound of the process-wide sparsity-pattern cache.

    Mirrors the session cache's ``max_grids`` knob: long multi-topology
    campaigns can widen (or tighten) the bound to match how many distinct
    patterns are live at once.  Evicts immediately if the new limit is
    below the current occupancy; returns the previous limit.
    """
    global _PATTERN_CACHE_SIZE
    limit = int(limit)
    if limit < 1:
        raise SolverError(f"pattern cache limit must be at least 1, got {limit}")
    previous = _PATTERN_CACHE_SIZE
    _PATTERN_CACHE_SIZE = limit
    while len(_PATTERN_CACHE) > _PATTERN_CACHE_SIZE:
        _PATTERN_CACHE.popitem(last=False)
    return previous


def sparsity_fingerprint(matrix) -> str:
    """Values-free pattern hash: shape + CSR structure, no data.

    Two matrices get the same fingerprint exactly when they have identical
    shape and an identical nonzero layout (same ``indptr``/``indices`` in CSR
    form), i.e. when the CSC layout of one serves the conversion of the
    other.  Lazy operators with their own content ``fingerprint``
    delegate to it (their pattern is implied by their content identity).
    """
    own = getattr(matrix, "fingerprint", None)
    if callable(own):
        return own()
    matrix = sp.csr_matrix(matrix)
    digest = hashlib.sha1()
    digest.update(repr(matrix.shape).encode())
    digest.update(matrix.indptr.tobytes())
    digest.update(matrix.indices.tobytes())
    return digest.hexdigest()


class _SparsityPattern:
    """Cached CSR -> CSC layout of one sparsity pattern.

    Holds the canonical CSC structure and the CSR-data -> CSC-data gather
    permutation, computed once by converting an index-tagged structural
    clone.  ``csc_from`` then rebuilds ``sp.csc_matrix(csr)`` for any
    same-pattern matrix without re-running the structural conversion, with
    bitwise-identical data layout (the conversion's placement depends only
    on the structure, never on the values).  ``symmetric`` records whether
    the pattern equals that of its transpose, which picks the fill-reducing
    ordering of :func:`sparse_lu`.
    """

    __slots__ = ("shape", "csc_indices", "csc_indptr", "gather", "symmetric")

    def __init__(self, csr: sp.csr_matrix):
        tagged = sp.csr_matrix(
            (np.arange(csr.nnz, dtype=np.intp), csr.indices, csr.indptr), shape=csr.shape
        )
        csc = tagged.tocsc()
        self.shape = csr.shape
        self.csc_indices = csc.indices
        self.csc_indptr = csc.indptr
        self.gather = csc.data
        # The CSC arrays of ``A`` are the CSR arrays of ``A^T`` (rows sorted).
        rows = tagged if tagged.has_sorted_indices else tagged.sorted_indices()
        self.symmetric = (
            csr.shape[0] == csr.shape[1]
            and np.array_equal(rows.indptr, csc.indptr)
            and np.array_equal(rows.indices, csc.indices)
        )

    def csc_from(self, csr: sp.csr_matrix) -> sp.csc_matrix:
        return sp.csc_matrix(
            (csr.data[self.gather], self.csc_indices, self.csc_indptr), shape=self.shape
        )


_PATTERN_CACHE: "OrderedDict[str, _SparsityPattern]" = OrderedDict()
_PATTERN_CACHE_SIZE = 32


def _pattern_for(csr: sp.csr_matrix) -> _SparsityPattern:
    key = sparsity_fingerprint(csr)
    pattern = _PATTERN_CACHE.get(key)
    if pattern is not None:
        _PATTERN_CACHE.move_to_end(key)
        _FACTOR_COUNTERS["symbolic_reuse"] += 1
        current_telemetry().count("symbolic_reuse")
        return pattern
    pattern = _SparsityPattern(csr)
    _PATTERN_CACHE[key] = pattern
    while len(_PATTERN_CACHE) > _PATTERN_CACHE_SIZE:
        _PATTERN_CACHE.popitem(last=False)
    _FACTOR_COUNTERS["symbolic_analysis"] += 1
    return pattern


def canonical_csc(matrix) -> sp.csc_matrix:
    """``sp.csc_matrix(matrix)``, with symbolic-analysis reuse for CSR input.

    The returned matrix is bitwise identical (structure and data ordering)
    to a plain ``sp.csc_matrix(matrix)`` conversion; CSR inputs whose
    sparsity pattern was seen before skip the structural analysis and pay
    only a value gather.  :func:`sparse_lu` makes the same conversion.
    """
    if sp.issparse(matrix) and matrix.format == "csr":
        return _pattern_for(matrix).csc_from(matrix)
    return sp.csc_matrix(matrix)


def _pattern_is_symmetric(matrix: sp.csc_matrix) -> bool:
    """True when a square CSC matrix has the nonzero pattern of its transpose."""
    if matrix.shape[0] != matrix.shape[1]:
        return False
    # The CSR arrays of ``A`` are the CSC arrays of ``A^T``.
    transpose = matrix.tocsr()
    if not matrix.has_sorted_indices:
        matrix = matrix.sorted_indices()
    same_indptr = np.array_equal(matrix.indptr, transpose.indptr)
    return same_indptr and np.array_equal(matrix.indices, transpose.indices)


def sparse_lu(matrix):
    """SuperLU factors of a square sparse matrix, ordered for its pattern.

    This is the single funnel every LU build in the library goes through:
    :class:`DirectSolver` (grid step matrices ``aG + bC/h``, DC and PRIMA
    matrices, and the explicit ``nP x nP`` augmented Galerkin matrix of
    ``opera``/``direct``) and the mean-block preconditioner of
    :mod:`repro.linalg.solvers`.  CSR input is converted through the
    sparsity-pattern cache (see :func:`canonical_csc`), which also holds
    whether the pattern is symmetric; other input is converted and checked
    directly.

    All of those matrices have a symmetric pattern: they get the
    minimum-degree ordering of ``A^T + A`` in SuperLU's symmetric mode,
    which prefers diagonal pivots.  On grid step matrices of 2.5k-10k nodes
    that leaves about 40% fewer nonzeros in ``L + U`` than COLAMD and makes
    factors and solves 30-40% faster.  Unsymmetric patterns (possible in
    hand-written SPICE decks) keep SuperLU's default COLAMD ordering.
    """
    if sp.issparse(matrix) and matrix.format == "csr":
        pattern = _pattern_for(matrix)
        matrix, symmetric = pattern.csc_from(matrix), pattern.symmetric
    else:
        matrix = sp.csc_matrix(matrix)
        symmetric = _pattern_is_symmetric(matrix)
    if symmetric:
        return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    return spla.splu(matrix, permc_spec="COLAMD")


class LinearSolver(abc.ABC):
    """A reusable solver for ``A x = b`` with a fixed matrix ``A``."""

    @abc.abstractmethod
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for a single right-hand side (1-D array)."""

    def solve_many(self, rhs_columns: np.ndarray) -> np.ndarray:
        """Solve for several right-hand sides given as columns of a 2-D array."""
        rhs_columns = np.asarray(rhs_columns, dtype=float)
        if rhs_columns.ndim == 1:
            return self.solve(rhs_columns)
        return np.column_stack([self.solve(rhs_columns[:, j]) for j in range(rhs_columns.shape[1])])


class DirectSolver(LinearSolver):
    """Sparse LU factorisation (SuperLU) with cached factors."""

    def solve_many(self, rhs_columns: np.ndarray) -> np.ndarray:
        """Solve for all columns in one SuperLU call (2-D RHS support)."""
        rhs_columns = np.asarray(rhs_columns, dtype=float)
        if rhs_columns.ndim == 1:
            return self.solve(rhs_columns)
        if rhs_columns.shape[0] != self.shape[0]:
            raise SolverError(
                f"right-hand sides have length {rhs_columns.shape[0]}, "
                f"expected {self.shape[0]}"
            )
        solution = self._lu.solve(rhs_columns)
        if not np.all(np.isfinite(solution)):
            raise SolverError("direct solve produced non-finite values")
        return solution

    def __init__(self, matrix: sp.spmatrix):
        shape = np.shape(matrix)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise SolverError("direct solver requires a square matrix")
        try:
            with current_telemetry().span("solver.factor", phase="factor", solver="direct"):
                self._lu = sparse_lu(matrix)
        except RuntimeError as exc:  # singular matrix
            raise SolverError(f"LU factorisation failed: {exc}") from exc
        self.shape = shape

    def refactor(self, matrix: sp.spmatrix) -> "DirectSolver":
        """A new solver for a same-pattern matrix with different values.

        The CSR -> CSC layout is served from the process-wide pattern
        cache, so the conversion is a value gather; ``splu`` then runs its
        full ordering, symbolic analysis and numeric factorisation as
        usual.  The result is bitwise identical to ``DirectSolver(matrix)``
        (a pattern that happens not to match falls back to a fresh
        conversion).
        """
        if sp.issparse(matrix) and matrix.shape != self.shape:
            raise SolverError(
                f"refactor expects a matrix of shape {self.shape}, got {matrix.shape}"
            )
        _FACTOR_COUNTERS["numeric_refactor"] += 1
        current_telemetry().count("numeric_refactor")
        return DirectSolver(matrix)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.shape[0]:
            raise SolverError(
                f"right-hand side has length {rhs.shape[0]}, expected {self.shape[0]}"
            )
        solution = self._lu.solve(rhs)
        if not np.all(np.isfinite(solution)):
            raise SolverError("direct solve produced non-finite values")
        return solution


class PreconditionedCGSolver(LinearSolver):
    """Shared scaffolding of every preconditioned-CG backend.

    The two CG backends of the library (``cg`` here and ``mean-block-cg``
    in :mod:`repro.linalg.solvers`) differ only in how they build their
    preconditioner; the solve loop, the
    diagnostics bookkeeping and the warm-started multi-RHS sweep are
    identical.  This base class holds that common machinery:

    * :meth:`solve` runs :func:`scipy.sparse.linalg.cg` with iteration
      counting, converts non-convergence into
      :class:`~repro.errors.ConvergenceError`, and updates ``stats`` (solve
      and iteration counters plus the final *true* relative residual
      ``|b - Ax| / |b|``);
    * :meth:`solve_many` sweeps the columns of a 2-D right-hand side,
      warm-starting each solve from the previous column's solution --
      consecutive right-hand sides of the transient/Galerkin callers are
      strongly correlated, so the warm start typically saves a large
      fraction of the iterations the naive cold-start loop would spend.

    Subclasses set :attr:`method_name` (the ``stats["method"]`` value) and
    :attr:`error_label` (the noun used in error messages), populate
    ``self.shape``, and call :meth:`_configure_cg` at the end of their
    ``__init__``.
    """

    #: Backend name recorded in ``stats["method"]``.
    method_name: str = "cg"
    #: Human-readable solver noun used in convergence/error messages.
    error_label: str = "conjugate gradients"

    def _configure_cg(
        self,
        cg_target,
        residual_target=None,
        preconditioner=None,
    ) -> None:
        """Install the CG operands and initialise the ``stats`` dict.

        ``cg_target`` is what :func:`scipy.sparse.linalg.cg` iterates on (a
        sparse matrix, lazy operator or ``LinearOperator``);
        ``residual_target`` is what the true-residual check multiplies by
        (defaults to ``cg_target``; the block backends pass their native
        operator here and a wrapped ``LinearOperator`` to CG).
        """
        self._cg_target = cg_target
        self._residual_target = residual_target if residual_target is not None else cg_target
        self._preconditioner = preconditioner
        self.stats = {
            "method": self.method_name,
            "solves": 0,
            "total_iterations": 0,
            "last_iterations": 0,
            "last_relative_residual": None,
            "warm_starts": 0,
            "cold_starts": 0,
        }

    def solve(self, rhs: np.ndarray, x0: Optional[np.ndarray] = None) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.shape[0],):
            raise SolverError(
                f"right-hand side has shape {rhs.shape}, expected ({self.shape[0]},)"
            )
        iterations = 0

        def count(_):
            nonlocal iterations
            iterations += 1

        solution, info = spla.cg(
            self._cg_target,
            rhs,
            x0=x0,
            rtol=self.rtol,
            maxiter=self.maxiter,
            M=self._preconditioner,
            callback=count,
        )
        if info > 0:
            raise ConvergenceError(
                f"{self.error_label} did not converge in {self.maxiter} iterations"
            )
        if info < 0:
            raise SolverError(f"{self.error_label} reported an illegal input")
        rhs_norm = float(np.linalg.norm(rhs))
        residual = float(np.linalg.norm(rhs - self._residual_target @ solution))
        self.stats["solves"] += 1
        self.stats["warm_starts" if x0 is not None else "cold_starts"] += 1
        self.stats["total_iterations"] += iterations
        self.stats["last_iterations"] = iterations
        self.stats["last_relative_residual"] = residual / rhs_norm if rhs_norm > 0 else residual
        return solution

    def solve_many(self, rhs_columns: np.ndarray) -> np.ndarray:
        """Warm-started column sweep (previous solution as the next ``x0``)."""
        rhs_columns = np.asarray(rhs_columns, dtype=float)
        if rhs_columns.ndim == 1:
            return self.solve(rhs_columns)
        if rhs_columns.shape[0] != self.shape[0]:
            raise SolverError(
                f"right-hand sides have length {rhs_columns.shape[0]}, "
                f"expected {self.shape[0]}"
            )
        solution = np.empty_like(rhs_columns)
        previous: Optional[np.ndarray] = None
        for j in range(rhs_columns.shape[1]):
            previous = self.solve(rhs_columns[:, j], x0=previous)
            solution[:, j] = previous
        return solution


class ConjugateGradientSolver(PreconditionedCGSolver):
    """Preconditioned conjugate gradients for symmetric positive definite systems.

    Parameters
    ----------
    matrix:
        The SPD system matrix -- an explicit sparse matrix or a lazy
        operator (e.g. :class:`repro.linalg.KronSumOperator`), in which
        case every CG matvec runs matrix-free.
    preconditioner:
        ``"jacobi"`` (diagonal scaling), ``None``, a
        :class:`scipy.sparse.linalg.LinearOperator`, or a bare callable
        applying ``M^{-1}`` to a vector.
    rtol, maxiter:
        Convergence tolerance and iteration cap; failure to converge raises
        :class:`~repro.errors.ConvergenceError`.

    Every solve updates the ``stats`` attribute: solve and iteration
    counters plus the final (true) relative residual ``|b - Ax| / |b|`` of
    the most recent solve.

    This is not an exact path.  ``rtol`` is relative to ``|b|``, which the
    pad injection dominates, so the node voltages carry a larger error.  On
    plain MNA DC of the perfbench grids (``workloads.build_session(N, 1)``,
    ``OMP_NUM_THREADS=1``, best of 3) ``cg`` takes 0.004 / 0.015 / 0.036 s
    against 0.012 / 0.073 / 0.201 s for ``direct`` on 2.5k / 10k / 25k
    nodes, with a max error of 1.1e-6 / 2.4e-6 / 1.8e-6 of the max IR drop.
    A 12-step transient runs at par with ``direct``.
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        preconditioner: Optional[object] = "jacobi",
        rtol: float = 1e-10,
        maxiter: int = 2000,
    ):
        self._matrix = matrix if _is_lazy_operator(matrix) else sp.csr_matrix(matrix)
        if self._matrix.shape[0] != self._matrix.shape[1]:
            raise SolverError("CG solver requires a square matrix")
        self.shape = self._matrix.shape
        self.rtol = float(rtol)
        self.maxiter = int(maxiter)
        with current_telemetry().span(
            "solver.factor", phase="factor", solver=self.method_name
        ):
            built = self._build_preconditioner(preconditioner)
        self._configure_cg(self._matrix, preconditioner=built)

    def _build_preconditioner(self, kind):
        if kind is None:
            return None
        if isinstance(kind, str):
            if kind == "jacobi":
                diagonal = self._matrix.diagonal()
                if np.any(diagonal <= 0):
                    raise SolverError("Jacobi preconditioner requires positive diagonal")
                inverse_diagonal = 1.0 / diagonal
                return spla.LinearOperator(self.shape, matvec=lambda x: inverse_diagonal * x)
            raise SolverError(f"unknown preconditioner {kind!r}")
        if isinstance(kind, spla.LinearOperator):
            return kind
        if callable(kind):
            return spla.LinearOperator(self.shape, matvec=kind)
        raise SolverError(
            "preconditioner must be a name, a LinearOperator or a callable; "
            f"got {type(kind).__name__}"
        )


# ---------------------------------------------------------------------------
# Solver registry
# ---------------------------------------------------------------------------
_SOLVERS = Registry("solver", SolverError)


def register_solver(name: str, factory=None, *, overwrite: bool = False):
    """Register a solver factory ``factory(matrix, **options) -> LinearSolver``.

    Usable as a decorator::

        @register_solver("amg")
        def build_amg(matrix, **options):
            return MyAMGSolver(matrix, **options)

    After registration the backend is available everywhere a solver name is
    accepted (``make_solver``, ``TransientConfig.solver``, the ``--solver``
    CLI flag, ...).
    """
    return _SOLVERS.register(name, factory, overwrite=overwrite)


def unregister_solver(name: str) -> None:
    """Remove a registered solver backend."""
    _SOLVERS.unregister(name)


def solver_names() -> tuple:
    """Names of all registered solver backends, sorted."""
    return _SOLVERS.names()


def solver_factory(method: str):
    """Resolve a solver name to its factory (raises :class:`SolverError`)."""
    return _SOLVERS.get(method)


def solver_accepts_operator(method: str) -> bool:
    """True when the named backend consumes lazy operators directly.

    Factories opt in by setting ``accepts_operator = True`` on themselves;
    :func:`make_solver` materialises operators to CSR for everyone else.
    Unknown names return False (the caller will hit the registry's error
    with its name listing soon enough).
    """
    try:
        factory = _SOLVERS.get(method)
    except SolverError:
        return False
    return bool(getattr(factory, "accepts_operator", False))


def resolve_solver(
    name: Optional[str], *, galerkin: bool, options: Optional[Mapping] = None
) -> str:
    """The backend that solves a system of the given form.

    The one place the default solver is decided; every entry point takes
    ``solver=None`` and asks here.

    * A Galerkin operator (the augmented ``P n x P n`` system of OPERA)
      gets ``name``, or ``"mean-block-cg"`` when none is named.
    * An ``n x n`` system (the decoupled special case, Monte Carlo
      samples, deterministic and DC solves) gets ``name``, or ``"direct"``
      when none is named.  A backend that only runs on a Galerkin operator
      (its factory sets ``operator_only``, as ``mean-block-cg`` does) also
      gets ``"direct"`` there: its preconditioner would be the exact LU of
      that same matrix.  ``options`` are the solver options the caller
      will forward; options meant for a backend this rule replaces raise
      :class:`~repro.errors.SolverError` rather than reach ``direct``.

    Unknown names are returned unchanged, so :func:`make_solver` reports
    them with the registry's listing.
    """
    if name is None:
        return "mean-block-cg" if galerkin else "direct"
    if not galerkin:
        try:
            factory = _SOLVERS.get(name)
        except SolverError:
            return name
        if getattr(factory, "operator_only", False):
            if options:
                raise SolverError(
                    f"solver {name!r} runs only on a Galerkin operator, so this "
                    f"n x n system runs 'direct'; the options {sorted(options)} "
                    f"were meant for {name!r}"
                )
            return "direct"
    return name


def make_solver(matrix: sp.spmatrix, method: str = "direct", **options) -> LinearSolver:
    """Construct a linear solver for ``matrix``.

    Parameters
    ----------
    matrix:
        System matrix -- an explicit sparse matrix, or a lazy operator
        (:class:`repro.linalg.KronSumOperator`).  Operators are forwarded
        as-is to backends that declare ``accepts_operator`` on their
        factory (``cg``, ``mean-block-cg``) and
        materialised with ``to_csr()`` for everything else, so every
        backend works with either input.  The OPERA paths pick the form
        up front through
        :meth:`~repro.chaos.galerkin.GalerkinSystem.for_solver`, which
        applies the same rule.
    method:
        Name of a registered backend; the built-ins are ``"direct"``
        (sparse LU) and ``"cg"`` (Jacobi-preconditioned CG).  Importing
        :mod:`repro.linalg` (or :mod:`repro.api`) additionally registers
        ``"mean-block-cg"`` (matrix-free CG with the ``I_P (x) M0^{-1}``
        mean-block preconditioner).
    options:
        Forwarded to the solver factory (e.g. ``rtol``, ``maxiter``).
    """
    factory = _SOLVERS.get(method)
    if _is_lazy_operator(matrix) and not getattr(factory, "accepts_operator", False):
        matrix = matrix.to_csr()
    return factory(matrix, **options)


@register_solver("direct")
def _build_direct(matrix: sp.spmatrix, **options) -> DirectSolver:
    return DirectSolver(matrix, **options)


@register_solver("cg")
def _build_cg(matrix: sp.spmatrix, **options) -> ConjugateGradientSolver:
    options.setdefault("preconditioner", "jacobi")
    return ConjugateGradientSolver(matrix, **options)


_build_cg.accepts_operator = True


def matrix_fingerprint(matrix: sp.spmatrix) -> str:
    """Content hash of a sparse matrix, usable as a factorisation cache key.

    Two matrices with identical shape, sparsity structure and values map to
    the same fingerprint, so a cache keyed by it can recognise "the same
    system matrix" across independently assembled objects (e.g. the stepping
    matrix ``G + C/h`` rebuilt by two runs with identical settings).

    Lazy operators that carry their own content hash (e.g.
    :class:`repro.linalg.KronSumOperator.fingerprint`) are fingerprinted
    through it, so the session solver cache works for operator-backed
    solvers too.
    """
    own = getattr(matrix, "fingerprint", None)
    if callable(own):
        return own()
    # Copy before canonicalising: sum_duplicates() would otherwise rewrite
    # the caller's matrix in place when it is already CSR.
    matrix = sp.csr_matrix(matrix, copy=True)
    matrix.sum_duplicates()
    digest = hashlib.sha1()
    digest.update(repr(matrix.shape).encode())
    digest.update(matrix.indptr.tobytes())
    digest.update(matrix.indices.tobytes())
    digest.update(matrix.data.tobytes())
    return digest.hexdigest()
