"""Polynomial chaos basis construction.

:class:`PolynomialChaosBasis` is the central object of the OPERA method: the
finite, orthonormal set of multivariate polynomials ``{psi_0, ..., psi_N}``
in the germ variables onto which the stochastic voltage response is
projected (Eq. (8) of the paper).  Each germ dimension carries its own
univariate family selected by the Askey scheme (Hermite for Gaussian germs,
Legendre for uniform, ...), and the multivariate functions are products of
univariate ones indexed by total-degree multi-indices.

All basis functions are normalised to unit variance, so that

* ``E[psi_i psi_j] = delta_ij``,
* the mean of an expansion is its 0-th coefficient,
* the variance is the sum of squares of the remaining coefficients.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import BasisError
from .askey import (
    jacobi_norm_squared,
    jacobi_value,
    laguerre_norm_squared,
    laguerre_value,
    legendre_norm_squared,
    legendre_value,
)
from .hermite import hermite_norm_squared, hermite_triple_product, hermite_value
from .multiindex import MultiIndex, total_degree_multi_indices
from .quadrature import (
    gauss_hermite_rule,
    gauss_jacobi_rule,
    gauss_laguerre_rule,
    gauss_legendre_rule,
    tensor_grid,
)

__all__ = [
    "PolynomialFamily",
    "HermiteFamily",
    "LegendreFamily",
    "LaguerreFamily",
    "JacobiFamily",
    "family_for",
    "PolynomialChaosBasis",
]


class PolynomialFamily(abc.ABC):
    """A univariate orthogonal polynomial family paired with its germ density."""

    name: str = "abstract"

    @abc.abstractmethod
    def evaluate(self, order: int, x):
        """Evaluate the (unnormalised) polynomial of ``order`` at ``x``."""

    @abc.abstractmethod
    def norm_squared(self, order: int) -> float:
        """``E[phi_order(xi)^2]`` under the germ density."""

    @abc.abstractmethod
    def quadrature(self, num_points: int):
        """Gauss rule ``(nodes, weights)`` integrating against the germ density."""

    @abc.abstractmethod
    def sample_germ(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw germ samples."""

    def triple_product(self, a: int, b: int, c: int) -> float:
        """``E[phi_a phi_b phi_c]``; default implementation uses exact quadrature."""
        num_points = (a + b + c) // 2 + 1
        nodes, weights = self.quadrature(max(num_points, 1))
        values = self.evaluate(a, nodes) * self.evaluate(b, nodes) * self.evaluate(c, nodes)
        return float(np.sum(weights * values))

    def evaluate_normalized(self, order: int, x):
        """Unit-variance polynomial of ``order`` at ``x``."""
        return self.evaluate(order, x) / np.sqrt(self.norm_squared(order))


class HermiteFamily(PolynomialFamily):
    """Probabilists' Hermite polynomials; germ is standard normal."""

    name = "hermite"

    def evaluate(self, order, x):
        return hermite_value(order, x)

    def norm_squared(self, order):
        return hermite_norm_squared(order)

    def quadrature(self, num_points):
        return gauss_hermite_rule(num_points)

    def sample_germ(self, rng, size):
        return rng.standard_normal(size)

    def triple_product(self, a, b, c):
        return hermite_triple_product(a, b, c)


class LegendreFamily(PolynomialFamily):
    """Legendre polynomials; germ is uniform on ``[-1, 1]``."""

    name = "legendre"

    def evaluate(self, order, x):
        return legendre_value(order, x)

    def norm_squared(self, order):
        return legendre_norm_squared(order)

    def quadrature(self, num_points):
        return gauss_legendre_rule(num_points)

    def sample_germ(self, rng, size):
        return rng.uniform(-1.0, 1.0, size)


class LaguerreFamily(PolynomialFamily):
    """Laguerre polynomials; germ is a unit-rate exponential."""

    name = "laguerre"

    def evaluate(self, order, x):
        return laguerre_value(order, x)

    def norm_squared(self, order):
        return laguerre_norm_squared(order)

    def quadrature(self, num_points):
        return gauss_laguerre_rule(num_points)

    def sample_germ(self, rng, size):
        return rng.exponential(1.0, size)


class JacobiFamily(PolynomialFamily):
    """Jacobi polynomials; germ has a Beta-type density on ``[-1, 1]``."""

    name = "jacobi"

    def __init__(self, alpha: float = 1.0, beta: float = 1.0):
        if alpha <= -1 or beta <= -1:
            raise BasisError("Jacobi parameters must exceed -1")
        self.alpha = float(alpha)
        self.beta = float(beta)

    def evaluate(self, order, x):
        return jacobi_value(order, x, self.alpha, self.beta)

    def norm_squared(self, order):
        return jacobi_norm_squared(order, self.alpha, self.beta)

    def quadrature(self, num_points):
        return gauss_jacobi_rule(num_points, self.alpha, self.beta)

    def sample_germ(self, rng, size):
        b = rng.beta(self.beta + 1.0, self.alpha + 1.0, size)
        return 2.0 * b - 1.0


_FAMILY_ALIASES = {
    "hermite": HermiteFamily,
    "gaussian": HermiteFamily,
    "normal": HermiteFamily,
    "lognormal": HermiteFamily,
    "legendre": LegendreFamily,
    "uniform": LegendreFamily,
    "laguerre": LaguerreFamily,
    "gamma": LaguerreFamily,
    "exponential": LaguerreFamily,
}


def family_for(name: Union[str, PolynomialFamily]) -> PolynomialFamily:
    """Resolve a family name (or pass through an instance) to a family object."""
    if isinstance(name, PolynomialFamily):
        return name
    key = str(name).lower()
    if key in ("jacobi", "beta"):
        return JacobiFamily()
    try:
        return _FAMILY_ALIASES[key]()
    except KeyError:
        raise BasisError(f"unknown polynomial family {name!r}") from None


class PolynomialChaosBasis:
    """Orthonormal total-degree polynomial chaos basis.

    Parameters
    ----------
    families:
        Either a single family (name or instance) shared by all dimensions,
        or one family per germ dimension.
    num_vars:
        Number of germ variables (required when a single family is given).
    order:
        Total-degree truncation order ``p``.
    """

    def __init__(
        self,
        families: Union[str, PolynomialFamily, Sequence[Union[str, PolynomialFamily]]],
        order: int,
        num_vars: Optional[int] = None,
    ):
        if order < 0:
            raise BasisError("expansion order must be non-negative")
        if isinstance(families, (str, PolynomialFamily)):
            if num_vars is None:
                raise BasisError("num_vars is required when a single family is given")
            family_list = [family_for(families) for _ in range(num_vars)]
        else:
            family_list = [family_for(f) for f in families]
            if num_vars is not None and num_vars != len(family_list):
                raise BasisError("num_vars disagrees with the number of families")
        if not family_list:
            raise BasisError("at least one germ dimension is required")

        self.families: Tuple[PolynomialFamily, ...] = tuple(family_list)
        self.order = int(order)
        self.multi_indices: Tuple[MultiIndex, ...] = tuple(
            total_degree_multi_indices(len(self.families), self.order)
        )
        self._index_lookup: Dict[MultiIndex, int] = {
            mi: i for i, mi in enumerate(self.multi_indices)
        }
        self._norms = np.array(
            [
                np.prod([f.norm_squared(k) for f, k in zip(self.families, mi)])
                for mi in self.multi_indices
            ]
        )

    # ------------------------------------------------------------------ sizes
    @property
    def num_vars(self) -> int:
        return len(self.families)

    @property
    def size(self) -> int:
        """Number of retained basis functions (``N + 1`` in the paper)."""
        return len(self.multi_indices)

    def __len__(self) -> int:
        return self.size

    def degree(self, index: int) -> int:
        """Total degree of basis function ``index``."""
        return int(sum(self.multi_indices[index]))

    @property
    def degrees(self) -> np.ndarray:
        return np.array([sum(mi) for mi in self.multi_indices], dtype=int)

    # ---------------------------------------------------------------- lookups
    def index_of(self, multi_index: Sequence[int]) -> int:
        """Position of a multi-index in the basis ordering."""
        key = tuple(int(k) for k in multi_index)
        try:
            return self._index_lookup[key]
        except KeyError:
            raise BasisError(
                f"multi-index {key} is not part of this order-{self.order} basis"
            ) from None

    def first_order_index(self, var: int) -> int:
        """Index of the degree-1 basis function of germ variable ``var``."""
        if not (0 <= var < self.num_vars):
            raise BasisError(f"variable index {var} out of range")
        unit = tuple(1 if d == var else 0 for d in range(self.num_vars))
        return self.index_of(unit)

    # -------------------------------------------------------------- evaluation
    def evaluate(self, xi: np.ndarray) -> np.ndarray:
        """Evaluate all (orthonormal) basis functions at germ points.

        Parameters
        ----------
        xi:
            Either one germ point of shape ``(num_vars,)`` or a batch of
            shape ``(m, num_vars)``.

        Returns
        -------
        Array of shape ``(size,)`` or ``(m, size)`` respectively.
        """
        xi = np.asarray(xi, dtype=float)
        single = xi.ndim == 1
        points = xi[None, :] if single else xi
        if points.shape[1] != self.num_vars:
            raise BasisError(
                f"germ points have {points.shape[1]} dimensions, expected {self.num_vars}"
            )

        max_degree_per_dim = [max(mi[d] for mi in self.multi_indices) for d in range(self.num_vars)]
        # Pre-compute univariate values per dimension and degree.
        univariate: List[np.ndarray] = []
        for d, family in enumerate(self.families):
            table = np.empty((max_degree_per_dim[d] + 1, points.shape[0]))
            for k in range(max_degree_per_dim[d] + 1):
                table[k] = family.evaluate(k, points[:, d])
            univariate.append(table)

        values = np.empty((points.shape[0], self.size))
        for i, mi in enumerate(self.multi_indices):
            product = np.ones(points.shape[0])
            for d, k in enumerate(mi):
                if k:
                    product = product * univariate[d][k]
            values[:, i] = product / np.sqrt(self._norms[i])
        return values[0] if single else values

    # ------------------------------------------------------------- inner prods
    def norm_squared(self, index: int) -> float:
        """Norm of the basis function; identically 1 because it is normalised."""
        if not (0 <= index < self.size):
            raise BasisError(f"basis index {index} out of range")
        return 1.0

    def triple_product(self, i: int, j: int, k: int) -> float:
        """``E[psi_i psi_j psi_k]`` of orthonormal basis functions."""
        mi, mj, mk = (
            self.multi_indices[i],
            self.multi_indices[j],
            self.multi_indices[k],
        )
        value = 1.0
        for d, family in enumerate(self.families):
            value *= family.triple_product(mi[d], mj[d], mk[d])
            if value == 0.0:
                return 0.0
        return value / np.sqrt(self._norms[i] * self._norms[j] * self._norms[k])

    # ---------------------------------------------------------------- sampling
    def sample_germ(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` germ vectors, shape ``(size, num_vars)``."""
        return np.column_stack([family.sample_germ(rng, size) for family in self.families])

    def quadrature(self, points_per_dim: int):
        """Tensor-product Gauss rule matching the germ densities."""
        rules = [family.quadrature(points_per_dim) for family in self.families]
        return tensor_grid(rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ",".join(f.name for f in self.families)
        return (
            f"PolynomialChaosBasis(order={self.order}, num_vars={self.num_vars}, "
            f"families=[{names}], size={self.size})"
        )
