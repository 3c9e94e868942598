"""Streaming statistics for Monte Carlo sweeps.

Monte Carlo over a power grid produces one full voltage waveform matrix per
sample; storing them all is wasteful, so the engine accumulates running
moments with Welford's algorithm (numerically stable single-pass mean and
variance) over arrays of arbitrary shape.

Accumulators built independently -- e.g. one per worker process of a chunked
Monte Carlo sweep -- combine losslessly with :meth:`RunningMoments.merge`,
which applies the parallel variance formula of Chan, Golub and LeVeque; the
merged moments match a single-stream accumulation of the concatenated
samples up to floating-point round-off.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import AnalysisError

__all__ = ["RunningMoments"]


class RunningMoments:
    """Welford running mean / variance accumulator for equal-shaped arrays."""

    def __init__(self, shape: Optional[Tuple[int, ...]] = None):
        self._count = 0
        self._mean: Optional[np.ndarray] = None
        self._m2: Optional[np.ndarray] = None
        self._shape = tuple(shape) if shape is not None else None
        if self._shape is not None:
            self._mean = np.zeros(self._shape)
            self._m2 = np.zeros(self._shape)

    @property
    def count(self) -> int:
        """Number of samples accumulated so far."""
        return self._count

    def update(self, sample: np.ndarray) -> None:
        """Add one sample (an array of the accumulator's shape)."""
        sample = np.asarray(sample, dtype=float)
        if self._mean is None:
            self._shape = sample.shape
            self._mean = np.zeros(self._shape)
            self._m2 = np.zeros(self._shape)
        if sample.shape != self._shape:
            raise AnalysisError(
                f"sample shape {sample.shape} does not match accumulator shape {self._shape}"
            )
        self._count += 1
        delta = sample - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (sample - self._mean)

    def merge(self, other: "RunningMoments") -> "RunningMoments":
        """Fold another accumulator into this one (parallel variance combine).

        Implements the pairwise update of Chan, Golub & LeVeque (1983): with
        partial counts ``n_a``/``n_b``, means and second central moments, the
        combined statistics are

        ``n = n_a + n_b``,
        ``mean = mean_a + delta * n_b / n``,
        ``M2 = M2_a + M2_b + delta**2 * n_a * n_b / n``

        where ``delta = mean_b - mean_a``.  The result matches accumulating
        every sample through a single :meth:`update` stream up to
        floating-point round-off, so independently accumulated worker chunks
        merge losslessly.  Returns ``self`` for chaining; ``other`` is left
        untouched.  Empty accumulators merge as no-ops.
        """
        if not isinstance(other, RunningMoments):
            raise AnalysisError(f"can only merge RunningMoments, got {type(other).__name__}")
        if other._count == 0:
            return self
        if self._shape is not None and other._shape != self._shape:
            raise AnalysisError(
                f"cannot merge accumulator of shape {other._shape} into "
                f"accumulator of shape {self._shape}"
            )
        if self._count == 0:
            self._shape = other._shape
            self._mean = other._mean.copy()
            self._m2 = other._m2.copy()
            self._count = other._count
            return self
        count = self._count + other._count
        delta = other._mean - self._mean
        self._mean = self._mean + delta * (other._count / count)
        self._m2 = self._m2 + other._m2 + delta * delta * (self._count * other._count / count)
        self._count = count
        return self

    def state(self) -> Tuple[int, Optional[np.ndarray], Optional[np.ndarray]]:
        """The accumulator's ``(count, mean, M2)`` triple (copies).

        Together with :meth:`from_state` this gives a compact, picklable
        transfer format for shipping per-chunk moments between worker
        processes without serialising the accumulator object itself.
        """
        if self._count == 0:
            return 0, None, None
        return self._count, self._mean.copy(), self._m2.copy()

    @classmethod
    def from_state(
        cls,
        count: int,
        mean: Optional[np.ndarray],
        m2: Optional[np.ndarray],
    ) -> "RunningMoments":
        """Rebuild an accumulator from a :meth:`state` triple."""
        moments = cls()
        if count:
            if mean is None or m2 is None:
                raise AnalysisError("non-empty state needs mean and M2 arrays")
            mean = np.asarray(mean, dtype=float)
            m2 = np.asarray(m2, dtype=float)
            if mean.shape != m2.shape:
                raise AnalysisError(
                    f"state mean shape {mean.shape} does not match M2 shape {m2.shape}"
                )
            moments._count = int(count)
            moments._shape = mean.shape
            moments._mean = mean.copy()
            moments._m2 = m2.copy()
        return moments

    @property
    def mean(self) -> np.ndarray:
        """Running mean."""
        if self._mean is None or self._count == 0:
            raise AnalysisError("no samples accumulated yet")
        return self._mean.copy()

    def variance(self, ddof: int = 1) -> np.ndarray:
        """Running variance (sample variance by default, ``ddof=1``)."""
        if self._m2 is None or self._count == 0:
            raise AnalysisError("no samples accumulated yet")
        if self._count <= ddof:
            return np.zeros_like(self._m2)
        return self._m2 / (self._count - ddof)

    def std(self, ddof: int = 1) -> np.ndarray:
        """Running standard deviation."""
        return np.sqrt(self.variance(ddof=ddof))
