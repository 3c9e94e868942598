"""Result containers for deterministic DC and transient simulations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["DCResult", "TransientResult"]


@dataclass(frozen=True)
class DCResult:
    """Node voltages of a DC (steady-state) solution.

    ``solver`` is the linear-solver backend that ran.
    """

    voltages: np.ndarray
    vdd: float
    solver: Optional[str] = None

    @property
    def drops(self) -> np.ndarray:
        """Voltage drops ``VDD - V`` at every node."""
        return self.vdd - self.voltages

    @property
    def worst_drop(self) -> float:
        """Largest drop across all nodes."""
        return float(np.max(self.drops))

    def worst_node(self) -> int:
        """Index of the node with the largest drop."""
        return int(np.argmax(self.drops))


class TransientResult:
    """Node voltage waveforms from a fixed-step transient simulation.

    Attributes
    ----------
    times:
        Time points, shape ``(n_steps + 1,)``.
    voltages:
        Node voltages, shape ``(n_steps + 1, n_nodes)``; may be ``None`` when
        the simulation was run in streaming (callback-only) mode.
    vdd:
        Nominal supply voltage used to convert voltages to drops.
    solver:
        The linear-solver backend that ran.
    """

    def __init__(
        self,
        times: np.ndarray,
        voltages: Optional[np.ndarray],
        vdd: float,
        solver: Optional[str] = None,
    ):
        self.times = np.asarray(times, dtype=float)
        self.voltages = None if voltages is None else np.asarray(voltages, dtype=float)
        self.vdd = float(vdd)
        self.solver = solver
        if self.voltages is not None and self.voltages.shape[0] != self.times.size:
            raise ValueError("voltages must have one row per time point")

    # ------------------------------------------------------------------ shape
    @property
    def num_steps(self) -> int:
        return self.times.size - 1

    @property
    def num_nodes(self) -> int:
        if self.voltages is None:
            raise ValueError("this result was produced in streaming mode")
        return self.voltages.shape[1]

    # ------------------------------------------------------------------ access
    def node_series(self, node: int) -> np.ndarray:
        """Voltage waveform of one node."""
        if self.voltages is None:
            raise ValueError("this result was produced in streaming mode")
        return self.voltages[:, node]

    def at_time(self, t: float) -> np.ndarray:
        """Node voltages at time ``t`` (linear interpolation between steps)."""
        if self.voltages is None:
            raise ValueError("this result was produced in streaming mode")
        return np.array(
            [np.interp(t, self.times, self.voltages[:, j]) for j in range(self.num_nodes)]
        )

    # ------------------------------------------------------------------- drops
    @property
    def drops(self) -> np.ndarray:
        """Voltage drops ``VDD - V`` for every time point and node."""
        if self.voltages is None:
            raise ValueError("this result was produced in streaming mode")
        return self.vdd - self.voltages

    def peak_drop_per_node(self) -> np.ndarray:
        """Worst drop over time for each node."""
        return np.max(self.drops, axis=0)

    def worst_drop(self) -> float:
        """Worst drop over all nodes and time points."""
        return float(np.max(self.drops))

    def worst_node(self) -> int:
        """Index of the node with the worst drop over the whole simulation."""
        return int(np.argmax(self.peak_drop_per_node()))

    def time_of_peak_drop(self, node: int) -> float:
        """Time at which ``node`` experiences its largest drop."""
        series = self.drops[:, node]
        return float(self.times[int(np.argmax(series))])
