"""Containers for stochastic responses expressed as chaos expansions.

Once the Galerkin system has been solved, every node voltage is an explicit
polynomial in the germ variables:

``v_node(t, xi) = sum_i a_i,node(t) psi_i(xi)``.

Because the basis is orthonormal the first two moments are immediate --
mean ``a_0`` and variance ``sum_{i >= 1} a_i^2`` (the orthonormal-basis form
of Eq. (23)) -- and any other statistic (higher moments, densities,
percentiles) can be obtained by directly sampling the polynomial, which costs
microseconds instead of a grid solve per sample.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..errors import AnalysisError
from .basis import PolynomialChaosBasis

__all__ = ["StochasticField", "StochasticTransientResult"]


class StochasticField:
    """A vector-valued random field expressed in a chaos basis.

    ``coefficients`` has shape ``(basis.size, num_values)``: one chaos
    coefficient vector per retained basis function.
    """

    def __init__(
        self,
        basis: PolynomialChaosBasis,
        coefficients: np.ndarray,
        vdd: Optional[float] = None,
        node_names: Optional[Sequence[str]] = None,
    ):
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.ndim == 1:
            coefficients = coefficients[:, None]
        if coefficients.shape[0] != basis.size:
            raise AnalysisError(
                f"coefficients have {coefficients.shape[0]} rows, expected {basis.size}"
            )
        self.basis = basis
        self.coefficients = coefficients
        self.vdd = vdd
        self.node_names = tuple(node_names) if node_names is not None else None

    # ------------------------------------------------------------------ sizes
    @property
    def num_values(self) -> int:
        return self.coefficients.shape[1]

    # ---------------------------------------------------------------- moments
    @property
    def mean(self) -> np.ndarray:
        """Mean of every entry (the coefficient of the constant function)."""
        return self.coefficients[0].copy()

    @property
    def variance(self) -> np.ndarray:
        """Variance of every entry: sum of squared higher-order coefficients."""
        if self.basis.size == 1:
            return np.zeros(self.num_values)
        return np.sum(self.coefficients[1:] ** 2, axis=0)

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.variance)

    def central_moments(
        self,
        max_order: int = 4,
        num_samples: int = 20000,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Central moments 1..max_order estimated by sampling the expansion.

        Returns an array of shape ``(max_order, num_values)``; the first row
        is identically zero (first central moment).
        """
        if max_order < 1:
            raise AnalysisError("max_order must be at least 1")
        samples = self.sample(num_samples=num_samples, rng=rng)
        centered = samples - self.mean[None, :]
        return np.stack([np.mean(centered**k, axis=0) for k in range(1, max_order + 1)])

    def skewness(self, num_samples: int = 20000, rng=None) -> np.ndarray:
        """Skewness of every entry (sampled from the expansion)."""
        moments = self.central_moments(3, num_samples=num_samples, rng=rng)
        variance = np.maximum(moments[1], 1e-300)
        return moments[2] / variance**1.5

    def kurtosis(self, num_samples: int = 20000, rng=None) -> np.ndarray:
        """Excess kurtosis of every entry (sampled from the expansion)."""
        moments = self.central_moments(4, num_samples=num_samples, rng=rng)
        variance = np.maximum(moments[1], 1e-300)
        return moments[3] / variance**2 - 3.0

    # --------------------------------------------------------------- sampling
    def evaluate(self, xi: np.ndarray) -> np.ndarray:
        """Evaluate the field at germ values ``xi`` (single point or batch)."""
        psi = self.basis.evaluate(xi)
        return psi @ self.coefficients

    def sample(self, num_samples: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw ``num_samples`` realisations; shape ``(num_samples, num_values)``."""
        rng = rng or np.random.default_rng()
        xi = self.basis.sample_germ(rng, num_samples)
        return self.evaluate(xi)

    def percentiles(
        self,
        q: Union[float, Sequence[float]],
        num_samples: int = 20000,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Percentiles of every entry estimated by sampling the expansion."""
        samples = self.sample(num_samples=num_samples, rng=rng)
        return np.percentile(samples, q, axis=0)

    # ------------------------------------------------------------------ drops
    def drop_field(self) -> "StochasticField":
        """Return the field of voltage drops ``VDD - v`` (requires ``vdd``)."""
        if self.vdd is None:
            raise AnalysisError("this field carries no VDD reference")
        coefficients = -self.coefficients.copy()
        coefficients[0] += self.vdd
        return StochasticField(self.basis, coefficients, vdd=self.vdd, node_names=self.node_names)


class StochasticTransientResult:
    """Stochastic voltage waveforms: one chaos expansion per node per time point.

    The result can be held in two forms:

    * ``coefficients`` of shape ``(num_times, basis.size, num_nodes)`` --
      the full analytic representation (default);
    * statistics only (``mean``/``variance`` arrays of shape
      ``(num_times, num_nodes)``) for very large grids.
    """

    def __init__(
        self,
        times: np.ndarray,
        basis: PolynomialChaosBasis,
        vdd: float,
        coefficients: Optional[np.ndarray] = None,
        mean: Optional[np.ndarray] = None,
        variance: Optional[np.ndarray] = None,
        node_names: Optional[Sequence[str]] = None,
        wall_time: Optional[float] = None,
        solver: Optional[str] = None,
    ):
        self.times = np.asarray(times, dtype=float)
        self.basis = basis
        self.vdd = float(vdd)
        self.node_names = tuple(node_names) if node_names is not None else None
        self.wall_time = wall_time
        #: The linear-solver backend that ran, as the solving code resolved it.
        self.solver = solver

        if coefficients is not None:
            coefficients = np.asarray(coefficients, dtype=float)
            if coefficients.ndim != 3 or coefficients.shape[0] != self.times.size:
                raise AnalysisError(
                    "coefficients must have shape (num_times, basis.size, num_nodes)"
                )
            if coefficients.shape[1] != basis.size:
                raise AnalysisError("coefficient block count must match the basis size")
            self.coefficients = coefficients
            self._mean = coefficients[:, 0, :]
            self._variance = (
                np.sum(coefficients[:, 1:, :] ** 2, axis=1)
                if basis.size > 1
                else np.zeros_like(self._mean)
            )
        else:
            if mean is None or variance is None:
                raise AnalysisError("either full coefficients or mean+variance must be provided")
            self.coefficients = None
            self._mean = np.asarray(mean, dtype=float)
            self._variance = np.asarray(variance, dtype=float)
            if self._mean.shape != self._variance.shape:
                raise AnalysisError("mean and variance must have the same shape")
            if self._mean.shape[0] != self.times.size:
                raise AnalysisError("statistics must have one row per time point")

    # ------------------------------------------------------------------ sizes
    @property
    def num_times(self) -> int:
        return self.times.size

    @property
    def num_nodes(self) -> int:
        return self._mean.shape[1]

    @property
    def has_coefficients(self) -> bool:
        return self.coefficients is not None

    # ---------------------------------------------------------------- voltages
    @property
    def mean_voltage(self) -> np.ndarray:
        """Mean node voltages, shape ``(num_times, num_nodes)``."""
        return self._mean

    @property
    def variance(self) -> np.ndarray:
        """Voltage variance, shape ``(num_times, num_nodes)``."""
        return self._variance

    @property
    def std_voltage(self) -> np.ndarray:
        return np.sqrt(np.maximum(self._variance, 0.0))

    # ------------------------------------------------------------------ drops
    @property
    def mean_drop(self) -> np.ndarray:
        """Mean voltage drops ``VDD - v``."""
        return self.vdd - self._mean

    @property
    def std_drop(self) -> np.ndarray:
        """Standard deviation of the drops (same as the voltage sigma)."""
        return self.std_voltage

    def peak_mean_drop_per_node(self) -> np.ndarray:
        """Worst mean drop over time for each node."""
        return np.max(self.mean_drop, axis=0)

    def worst_node(self) -> int:
        """Node with the largest worst-case mean drop."""
        return int(np.argmax(self.peak_mean_drop_per_node()))

    def peak_time_index(self, node: int) -> int:
        """Time index at which ``node`` sees its largest mean drop."""
        return int(np.argmax(self.mean_drop[:, node]))

    # ------------------------------------------------------------ distributions
    def field_at(self, time_index: int) -> StochasticField:
        """Full stochastic field (all nodes) at one time index."""
        if not self.has_coefficients:
            raise AnalysisError("this result was stored in statistics-only mode")
        return StochasticField(
            self.basis,
            self.coefficients[time_index],
            vdd=self.vdd,
            node_names=self.node_names,
        )

    def node_expansion(self, node: int, time_index: int) -> np.ndarray:
        """Chaos coefficients of one node voltage at one time index."""
        if not self.has_coefficients:
            raise AnalysisError("this result was stored in statistics-only mode")
        return self.coefficients[time_index, :, node].copy()

    def drop_samples(
        self,
        node: int,
        time_index: int,
        num_samples: int = 10000,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Sample the voltage-drop distribution of one node at one time index."""
        if not self.has_coefficients:
            raise AnalysisError("this result was stored in statistics-only mode")
        rng = rng or np.random.default_rng()
        xi = self.basis.sample_germ(rng, num_samples)
        psi = self.basis.evaluate(xi)
        voltages = psi @ self.coefficients[time_index, :, node]
        return self.vdd - voltages

    def node_index(self, name: str) -> int:
        """Index of a named node."""
        if self.node_names is None:
            raise AnalysisError("this result carries no node names")
        try:
            return self.node_names.index(name)
        except ValueError:
            raise AnalysisError(f"unknown node {name!r}") from None
