"""Pluggable coefficient fitters for regression polynomial chaos.

A *fitter* solves the linear least-squares (or penalised) problem

``min_c  || targets - matrix @ c ||``

for one design matrix and any number of right-hand sides at once, and is
looked up by name through a small registry (the same pattern as the solver
and engine registries)::

    @register_fitter("my-fitter")
    def fit_my_way(matrix, targets, **options):
        return coefficients, {"note": "diagnostics dict"}

Built-ins:

``ols`` (aliases ``lstsq``, ``least-squares``)
    Ordinary least squares via :func:`numpy.linalg.lstsq` -- one multi-RHS
    solve shared by every target column.
``ridge``
    Tikhonov-regularised normal equations.  ``alpha`` may be a single value
    or a sequence, in which case K-fold cross-validation picks the winner.
``omp``
    Orthogonal matching pursuit: greedy support growth with an exact
    least-squares refit per step -- the classic sparse-recovery baseline.
``lasso``
    Coordinate-descent L1 regression on the precomputed Gram matrix.  With
    ``alpha=None`` (default) the penalty is selected by K-fold
    cross-validation over an automatic log-spaced grid.

Cross-validation folds are derived from an explicit ``cv_seed`` through one
:func:`numpy.random.default_rng` permutation, so model selection is fully
deterministic and -- because fitting always happens in the driver process --
independent of how many workers sampled the training data.

The penalised fitters never shrink the *mean*: by convention column
``intercept_column`` (default 0, the constant basis function) is exempt from
the L1/L2 penalty, so ``mean()`` of a fitted expansion stays unbiased.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import RegressionError
from ..registry import Registry

__all__ = [
    "FitResult",
    "fit_coefficients",
    "register_fitter",
    "unregister_fitter",
    "fitter_names",
    "get_fitter",
    "kfold_indices",
]

_FITTERS = Registry("fitter", RegressionError)


def register_fitter(name: str, fitter=None, *, overwrite: bool = False):
    """Register ``fitter(matrix, targets, **options) -> (coefficients, diagnostics)``."""
    return _FITTERS.register(name, fitter, overwrite=overwrite)


def unregister_fitter(name: str) -> None:
    """Remove a registered fitter."""
    _FITTERS.unregister(name)


def fitter_names() -> tuple:
    """Names of all registered fitters, sorted."""
    return _FITTERS.names()


def get_fitter(name: str):
    """Resolve a fitter name (raises :class:`RegressionError` with a listing)."""
    return _FITTERS.get(name)


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients plus fitter-specific diagnostics.

    ``coefficients`` mirrors the dimensionality of the targets that were
    passed in: ``(num_terms,)`` for a single right-hand side,
    ``(num_terms, num_rhs)`` for a batch.
    """

    coefficients: np.ndarray
    fitter: str
    diagnostics: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_terms(self) -> int:
        return self.coefficients.shape[0]


def fit_coefficients(
    matrix: np.ndarray,
    targets: np.ndarray,
    method: str = "ols",
    **options,
) -> FitResult:
    """Fit chaos coefficients with a registered fitter.

    Parameters
    ----------
    matrix:
        Design matrix of shape ``(num_samples, num_terms)`` (typically
        ``DesignMatrix.matrix``).
    targets:
        Sampled responses, shape ``(num_samples,)`` or
        ``(num_samples, num_rhs)``.
    method:
        Registered fitter name.
    options:
        Forwarded to the fitter.
    """
    fitter = get_fitter(method)
    matrix = np.asarray(matrix, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if matrix.ndim != 2:
        raise RegressionError("design matrix must be 2-D (num_samples, num_terms)")
    single = targets.ndim == 1
    columns = targets[:, None] if single else targets
    if columns.ndim != 2 or columns.shape[0] != matrix.shape[0]:
        raise RegressionError(
            f"targets have shape {targets.shape}, expected "
            f"({matrix.shape[0]},) or ({matrix.shape[0]}, num_rhs)"
        )
    coefficients, diagnostics = fitter(matrix, columns, **options)
    coefficients = np.asarray(coefficients, dtype=float)
    return FitResult(
        coefficients=coefficients[:, 0] if single else coefficients,
        fitter=str(method).strip().lower(),
        diagnostics=dict(diagnostics),
    )


# ---------------------------------------------------------------------------
# Cross-validation scaffolding
# ---------------------------------------------------------------------------
def kfold_indices(num_samples: int, folds: int, seed: int = 0) -> List[np.ndarray]:
    """Deterministic K-fold validation index sets.

    One permutation of ``range(num_samples)`` is drawn from
    ``np.random.default_rng(seed)`` and split into ``folds`` near-equal
    parts, so the folds depend only on ``(num_samples, folds, seed)`` --
    never on worker counts, execution order or global RNG state.
    """
    if folds < 2:
        raise RegressionError(f"cross-validation needs at least 2 folds, got {folds}")
    if folds > num_samples:
        raise RegressionError(
            f"cannot split {num_samples} samples into {folds} folds"
        )
    order = np.random.default_rng(int(seed)).permutation(num_samples)
    return [np.sort(part) for part in np.array_split(order, folds)]


def _cross_validate(matrix, targets, candidates, fit_one, folds, seed):
    """Mean validation MSE of each candidate; returns (best index, scores).

    ``fit_one(train_matrix, train_targets, candidate)`` must return the
    coefficient array of one candidate setting.  Ties break toward the
    earlier candidate so selection is order-stable.
    """
    num_samples = matrix.shape[0]
    fold_sets = kfold_indices(num_samples, folds, seed)
    scores = np.zeros(len(candidates))
    everything = np.arange(num_samples)
    for validation in fold_sets:
        train = np.setdiff1d(everything, validation, assume_unique=True)
        if train.size < 1:
            raise RegressionError("a cross-validation fold has no training samples")
        for k, candidate in enumerate(candidates):
            coefficients = fit_one(matrix[train], targets[train], candidate)
            residual = targets[validation] - matrix[validation] @ coefficients
            scores[k] += np.mean(residual**2)
    scores /= len(fold_sets)
    return int(np.argmin(scores)), scores


def _penalty_weights(num_terms: int, intercept_column: Optional[int]) -> np.ndarray:
    """Per-column penalty multipliers; the intercept column (if any) gets 0."""
    weights = np.ones(num_terms)
    if intercept_column is not None:
        column = int(intercept_column)
        if not (0 <= column < num_terms):
            raise RegressionError(
                f"intercept_column {column} out of range for {num_terms} terms"
            )
        weights[column] = 0.0
    return weights


# ---------------------------------------------------------------------------
# Built-in fitters
# ---------------------------------------------------------------------------
def _fit_ols(matrix, targets, rcond=None):
    """Ordinary least squares (single multi-RHS :func:`numpy.linalg.lstsq`)."""
    coefficients, _, rank, singular = np.linalg.lstsq(matrix, targets, rcond=rcond)
    smallest = singular[-1] if singular.size else 0.0
    diagnostics = {
        "rank": int(rank),
        "condition": float(singular[0] / smallest) if smallest > 0 else float("inf"),
    }
    return coefficients, diagnostics


register_fitter("ols", _fit_ols)
register_fitter("lstsq", _fit_ols)
register_fitter("least-squares", _fit_ols)


def _solve_ridge(matrix, targets, alpha, weights):
    gram = matrix.T @ matrix
    gram = gram + np.diag(float(alpha) * weights)
    return np.linalg.solve(gram, matrix.T @ targets)


@register_fitter("ridge")
def _fit_ridge(
    matrix,
    targets,
    alpha=1e-6,
    intercept_column=0,
    folds=5,
    cv_seed=0,
):
    """Tikhonov regularisation; a sequence ``alpha`` triggers K-fold CV."""
    weights = _penalty_weights(matrix.shape[1], intercept_column)
    diagnostics: Dict[str, Any] = {"intercept_column": intercept_column}
    if isinstance(alpha, (Sequence, np.ndarray)) and not isinstance(alpha, str):
        candidates = [float(a) for a in alpha]
        if not candidates:
            raise RegressionError("ridge needs at least one candidate alpha")
        best, scores = _cross_validate(
            matrix,
            targets,
            candidates,
            lambda a, y, candidate: _solve_ridge(a, y, candidate, weights),
            folds,
            cv_seed,
        )
        alpha = candidates[best]
        diagnostics.update(
            cv_alphas=candidates,
            cv_scores=[float(s) for s in scores],
            folds=int(folds),
            cv_seed=int(cv_seed),
        )
    alpha = float(alpha)
    if alpha < 0:
        raise RegressionError(f"ridge alpha must be non-negative, got {alpha}")
    diagnostics["alpha"] = alpha
    return _solve_ridge(matrix, targets, alpha, weights), diagnostics


@register_fitter("omp")
def _fit_omp(matrix, targets, num_terms=None, tol=1e-12, intercept_column=0):
    """Orthogonal matching pursuit: greedy support growth, exact refit per step.

    Each right-hand side grows its own support (starting from the intercept
    column) until either ``num_terms`` columns are active or the residual
    drops below ``tol`` times the target norm.
    """
    num_samples, num_columns = matrix.shape
    budget = min(num_samples, num_columns) if num_terms is None else int(num_terms)
    if not (1 <= budget <= num_columns):
        raise RegressionError(
            f"omp num_terms must be in [1, {num_columns}], got {budget}"
        )
    column_scale = np.linalg.norm(matrix, axis=0)
    column_scale[column_scale <= 0] = np.inf  # degenerate columns never selected
    coefficients = np.zeros((num_columns, targets.shape[1]))
    supports: List[List[int]] = []
    for j in range(targets.shape[1]):
        y = targets[:, j]
        support: List[int] = []
        if intercept_column is not None:
            support.append(int(intercept_column))
        floor = tol * max(np.linalg.norm(y), 1e-300)
        residual = y
        solution = np.zeros(0)
        while True:
            if support:
                solution, *_ = np.linalg.lstsq(matrix[:, support], y, rcond=None)
                residual = y - matrix[:, support] @ solution
            if len(support) >= budget or np.linalg.norm(residual) <= floor:
                break
            correlation = np.abs(matrix.T @ residual) / column_scale
            correlation[support] = -1.0
            pick = int(np.argmax(correlation))
            if correlation[pick] <= 0:
                break
            support.append(pick)
        coefficients[support, j] = solution
        supports.append(sorted(support))
    sizes = [len(s) for s in supports]
    diagnostics = {
        "max_terms": budget,
        "tol": float(tol),
        "support_sizes": sizes,
        "supports": supports if targets.shape[1] <= 32 else None,
    }
    return coefficients, diagnostics


def _lasso_descent(gram, moment, alpha, weights, max_iter, tol):
    """Cyclic coordinate descent on 1/(2m)||y - Ac||^2 + alpha * sum w_j |c_j|.

    Works entirely on the precomputed (scaled) Gram matrix ``gram = A^T A / m``
    and moment vector ``moment = A^T y / m``.
    """
    num_columns = gram.shape[0]
    coefficients = np.zeros(num_columns)
    gradient = np.zeros(num_columns)  # gram @ coefficients, kept incrementally
    diagonal = np.diag(gram)
    for _ in range(max_iter):
        worst = 0.0
        for j in range(num_columns):
            if diagonal[j] <= 0:
                continue
            rho = moment[j] - gradient[j] + diagonal[j] * coefficients[j]
            threshold = alpha * weights[j]
            if rho > threshold:
                updated = (rho - threshold) / diagonal[j]
            elif rho < -threshold:
                updated = (rho + threshold) / diagonal[j]
            else:
                updated = 0.0
            delta = updated - coefficients[j]
            if delta:
                gradient += gram[:, j] * delta
                coefficients[j] = updated
                worst = max(worst, abs(delta))
        if worst <= tol:
            break
    return coefficients


def _lasso_fit_all(matrix, targets, alpha, weights, max_iter, tol):
    num_samples = matrix.shape[0]
    gram = matrix.T @ matrix / num_samples
    moments = matrix.T @ targets / num_samples
    coefficients = np.empty((matrix.shape[1], targets.shape[1]))
    for j in range(targets.shape[1]):
        coefficients[:, j] = _lasso_descent(
            gram, moments[:, j], alpha, weights, max_iter, tol
        )
    return coefficients


@register_fitter("lasso")
def _fit_lasso(
    matrix,
    targets,
    alpha=None,
    intercept_column=0,
    folds=5,
    cv_seed=0,
    num_alphas=15,
    alpha_floor=1e-3,
    max_iter=1000,
    tol=1e-10,
    debias=False,
):
    """Coordinate-descent Lasso; ``alpha=None`` selects it by K-fold CV.

    The automatic grid spans ``[alpha_floor, 1] * alpha_max`` on a log scale,
    where ``alpha_max`` is the smallest penalty that zeroes every penalised
    coefficient.  ``debias=True`` refits the selected support by ordinary
    least squares (removing the L1 shrinkage bias while keeping the sparsity
    pattern).
    """
    weights = _penalty_weights(matrix.shape[1], intercept_column)
    num_samples = matrix.shape[0]
    diagnostics: Dict[str, Any] = {"intercept_column": intercept_column}

    if alpha is None:
        moments = np.abs(matrix.T @ targets / num_samples)
        alpha_max = float(np.max(moments[weights > 0])) if np.any(weights > 0) else 0.0
        if alpha_max <= 0:
            alpha = 0.0
        else:
            candidates = list(
                alpha_max * np.logspace(0.0, np.log10(alpha_floor), int(num_alphas))
            )
            best, scores = _cross_validate(
                matrix,
                targets,
                candidates,
                lambda a, y, candidate: _lasso_fit_all(a, y, candidate, weights, max_iter, tol),
                folds,
                cv_seed,
            )
            alpha = candidates[best]
            diagnostics.update(
                cv_alphas=[float(a) for a in candidates],
                cv_scores=[float(s) for s in scores],
                folds=int(folds),
                cv_seed=int(cv_seed),
            )
    alpha = float(alpha)
    if alpha < 0:
        raise RegressionError(f"lasso alpha must be non-negative, got {alpha}")
    coefficients = _lasso_fit_all(matrix, targets, alpha, weights, max_iter, tol)

    if debias:
        for j in range(targets.shape[1]):
            support = np.flatnonzero(coefficients[:, j])
            if support.size:
                refit, *_ = np.linalg.lstsq(
                    matrix[:, support], targets[:, j], rcond=None
                )
                coefficients[:, j] = 0.0
                coefficients[support, j] = refit
    diagnostics.update(
        alpha=alpha,
        debias=bool(debias),
        nonzeros=[int(np.count_nonzero(coefficients[:, j])) for j in range(targets.shape[1])],
    )
    return coefficients, diagnostics
