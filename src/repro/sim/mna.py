"""Convenience wrapper bundling the MNA matrices with simulation entry points.

:class:`MNASystem` is the deterministic-simulation facade: it owns the
nominal ``G`` and ``C`` matrices and the excitation of a power grid and
exposes ``dc()`` and ``transient()`` methods.  The stochastic engines build
on the same matrices through :mod:`repro.variation` and :mod:`repro.opera`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..errors import SolverError
from ..grid.netlist import PowerGridNetlist
from ..grid.stamping import StampedSystem, stamp
from .dc import solve_dc
from .results import DCResult, TransientResult
from .transient import TransientConfig, run_transient

__all__ = ["MNASystem"]


class MNASystem:
    """Deterministic MNA system ``(G + sC) x = U`` with simulation helpers."""

    def __init__(
        self,
        conductance: sp.spmatrix,
        capacitance: sp.spmatrix,
        rhs_function: Callable[[float], np.ndarray],
        vdd: float = 1.0,
        node_names: Optional[Sequence[str]] = None,
    ):
        self.conductance = sp.csr_matrix(conductance)
        self.capacitance = sp.csr_matrix(capacitance)
        if self.conductance.shape != self.capacitance.shape:
            raise SolverError("G and C must have identical shapes")
        self.rhs_function = rhs_function
        self.vdd = float(vdd)
        self.node_names = tuple(node_names) if node_names is not None else None
        if self.node_names is not None and len(self.node_names) != self.num_nodes:
            raise SolverError("node_names length must match the matrix dimension")

    # ---------------------------------------------------------- construction
    @classmethod
    def from_stamped(cls, stamped: StampedSystem) -> "MNASystem":
        """Build an MNA system from stamped power-grid matrices."""
        return cls(
            conductance=stamped.conductance,
            capacitance=stamped.capacitance,
            rhs_function=stamped.rhs,
            vdd=stamped.vdd,
            node_names=stamped.node_names,
        )

    @classmethod
    def from_netlist(cls, netlist: PowerGridNetlist) -> "MNASystem":
        """Stamp ``netlist`` and wrap the result."""
        return cls.from_stamped(stamp(netlist))

    # ------------------------------------------------------------- simulation
    @property
    def num_nodes(self) -> int:
        return self.conductance.shape[0]

    def dc(self, t: float = 0.0, solver: Optional[str] = None) -> DCResult:
        """DC operating point at time ``t``."""
        voltages = solve_dc(self.conductance, self.rhs_function(t), solver=solver)
        return DCResult(voltages=voltages, vdd=self.vdd)

    def transient(
        self,
        config: TransientConfig,
        x0: Optional[np.ndarray] = None,
        store: bool = True,
    ) -> TransientResult:
        """Fixed-step transient simulation."""
        return run_transient(
            self.conductance,
            self.capacitance,
            self.rhs_function,
            config,
            x0=x0,
            vdd=self.vdd,
            store=store,
        )

    def node_index(self, name: str) -> int:
        """Index of a named node (requires node names to be attached)."""
        if self.node_names is None:
            raise SolverError("this MNA system carries no node names")
        try:
            return self.node_names.index(name)
        except ValueError:
            raise SolverError(f"unknown node {name!r}") from None
