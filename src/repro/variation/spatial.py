"""Spatially correlated intra-die variation (extension of the paper's model).

The paper's experiments use *inter-die* variation: one germ per physical
parameter, shared by the whole die.  Its introduction, however, motivates the
general case of intra-die (across-die) variation, and the framework supports
it directly: model each physical parameter as a spatial random field, expand
the field over a small set of independent germs with principal component
analysis (exactly the orthogonal transformation the paper points to), and
feed the resulting multi-germ affine model to the same Galerkin machinery.

This module implements that extension for the synthetic grids produced by
:mod:`repro.grid.generator`:

1. the die is divided into rectangular regions
   (:class:`~repro.variation.regions.RegionPartition`);
2. every region carries a local deviation of the metal (W/T) parameters and
   of the channel length, with an exponential spatial correlation
   ``exp(-d / L_corr)`` between region centres;
3. the correlated per-region deviations are decorrelated with PCA, keeping
   the components that explain a requested fraction of the variance;
4. region-wise conductance and gate-capacitance groups are stamped
   separately, so each retained germ obtains its own sparse sensitivity
   matrix; its drain-current sensitivity is the grid's drain currents
   weighted node by node with the germ's region weights.

The result is an ordinary :class:`~repro.variation.model.StochasticSystem`
with ``m_G + m_L`` Gaussian germs, usable with both the OPERA engine and the
Monte Carlo baseline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..errors import VariationModelError
from ..grid.elements import ResistorKind
from ..grid.netlist import PowerGridNetlist
from ..grid.stamping import StampedSystem, stamp
from .correlation import correlation_from_distance, decorrelate_gaussian
from .model import AffineExcitation, ConstantSensitivity, GermVariable, StochasticSystem
from .regions import RegionPartition

__all__ = ["SpatialVariationSpec", "build_spatial_stochastic_system"]

_NODE_NAME_RE = re.compile(r"^n(?P<layer>\d+)_(?P<row>\d+)_(?P<col>\d+)$")


@dataclass(frozen=True)
class SpatialVariationSpec:
    """Magnitudes and correlation structure of the intra-die variation.

    Attributes
    ----------
    sigma_w, sigma_t, sigma_l:
        Relative 1-sigma variation of metal width, metal thickness and
        channel length *per region* (total intra-die sigma).
    correlation_length:
        Correlation length of the exponential spatial model, in micrometres.
        Long lengths recover the inter-die (fully correlated) behaviour;
        short lengths make the regions nearly independent.
    node_pitch:
        Physical spacing of adjacent bottom-layer nodes in micrometres, used
        to convert region centres to physical distances.
    energy_fraction:
        Fraction of the spatial-field variance the retained principal
        components must explain (controls the number of germs).
    max_components:
        Optional hard cap on the number of retained components per field.
    current_leff_sensitivity, gate_cap_fraction, pads_vary:
        Same meaning as in :class:`~repro.variation.model.VariationSpec`.
    vary_conductance, vary_channel_length:
        Switches for the two spatial fields.
    """

    sigma_w: float = 0.20 / 3.0
    sigma_t: float = 0.15 / 3.0
    sigma_l: float = 0.20 / 3.0
    correlation_length: float = 200.0
    node_pitch: float = 10.0
    energy_fraction: float = 0.95
    max_components: Optional[int] = None
    current_leff_sensitivity: float = 1.3
    gate_cap_fraction: float = 0.40
    pads_vary: bool = True
    vary_conductance: bool = True
    vary_channel_length: bool = True

    def __post_init__(self):
        for label, value in (
            ("sigma_w", self.sigma_w),
            ("sigma_t", self.sigma_t),
            ("sigma_l", self.sigma_l),
        ):
            if value < 0 or value >= 1.0 / 3.0 + 1e-12:
                raise VariationModelError(f"{label} must lie in [0, 1/3); got {value}")
        if self.correlation_length <= 0:
            raise VariationModelError("correlation_length must be positive")
        if self.node_pitch <= 0:
            raise VariationModelError("node_pitch must be positive")
        if not (0.0 < self.energy_fraction <= 1.0):
            raise VariationModelError("energy_fraction must lie in (0, 1]")
        if self.max_components is not None and self.max_components < 1:
            raise VariationModelError("max_components must be at least 1")

    @property
    def sigma_g(self) -> float:
        """Relative 1-sigma of the combined per-region conductance deviation."""
        return float(np.sqrt(self.sigma_w**2 + self.sigma_t**2))


def _node_coordinates(name: str) -> Optional[Tuple[int, int]]:
    """Bottom-mesh (row, col) of a generator-named node, any layer."""
    match = _NODE_NAME_RE.match(name)
    if not match:
        return None
    return int(match.group("row")), int(match.group("col"))


def _region_of_node(partition: RegionPartition, name: str) -> Optional[int]:
    coords = _node_coordinates(name)
    if coords is None:
        return None
    return partition.region_of(*coords)


def _stamp_two_terminal(rows, cols, values, i, j, value):
    if i is not None:
        rows.append(i), cols.append(i), values.append(value)
    if j is not None:
        rows.append(j), cols.append(j), values.append(value)
    if i is not None and j is not None:
        rows.append(i), cols.append(j), values.append(-value)
        rows.append(j), cols.append(i), values.append(-value)


def _region_conductances(
    netlist: PowerGridNetlist,
    partition: RegionPartition,
    include_pads: bool,
) -> Tuple[List[sp.csr_matrix], List[np.ndarray]]:
    """Per-region conductance matrices and per-region pad-current vectors."""
    n = netlist.num_nodes
    buffers = [([], [], []) for _ in range(partition.num_regions)]
    pad_currents = [np.zeros(n) for _ in range(partition.num_regions)]

    def index(name: str) -> Optional[int]:
        return None if netlist.is_ground(name) else netlist.node_index(name)

    for resistor in netlist.resistors:
        if resistor.kind == ResistorKind.PACKAGE:
            continue
        region = _region_of_node(partition, resistor.a)
        if region is None:
            region = _region_of_node(partition, resistor.b)
        if region is None:
            raise VariationModelError(
                f"cannot locate resistor terminal {resistor.a!r} on the die; "
                "spatial variation requires generator-style node names"
            )
        rows, cols, values = buffers[region]
        _stamp_two_terminal(
            rows, cols, values, index(resistor.a), index(resistor.b), resistor.conductance
        )

    if include_pads:
        for pad in netlist.pads:
            region = _region_of_node(partition, pad.node)
            if region is None:
                continue
            rows, cols, values = buffers[region]
            i = netlist.node_index(pad.node)
            rows.append(i), cols.append(i), values.append(pad.conductance)
            pad_currents[region][i] += pad.conductance * pad.vdd

    matrices = [
        sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()
        for rows, cols, values in buffers
    ]
    return matrices, pad_currents


def _region_gate_capacitances(
    netlist: PowerGridNetlist,
    partition: RegionPartition,
    gate_cap_fraction: float,
) -> List[sp.csr_matrix]:
    """Per-region gate-load capacitance matrices (Leff-sensitive part)."""
    n = netlist.num_nodes
    buffers = [([], [], []) for _ in range(partition.num_regions)]

    def index(name: str) -> Optional[int]:
        return None if netlist.is_ground(name) else netlist.node_index(name)

    tagged = any(c.is_gate_load for c in netlist.capacitors)
    for capacitor in netlist.capacitors:
        if tagged and not capacitor.is_gate_load:
            continue
        terminal = capacitor.a if not netlist.is_ground(capacitor.a) else capacitor.b
        region = _region_of_node(partition, terminal)
        if region is None:
            continue
        value = capacitor.capacitance if tagged else gate_cap_fraction * capacitor.capacitance
        rows, cols, values = buffers[region]
        _stamp_two_terminal(rows, cols, values, index(capacitor.a), index(capacitor.b), value)

    return [
        sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()
        for rows, cols, values in buffers
    ]


def _node_regions(partition: RegionPartition, node_names) -> np.ndarray:
    """Region index of every node (any layer); -1 for nodes outside every region."""
    regions = (_region_of_node(partition, name) for name in node_names)
    return np.array([-1 if region is None else region for region in regions], dtype=int)


def _spatial_germs(
    partition: RegionPartition,
    pitch: float,
    spec: SpatialVariationSpec,
) -> np.ndarray:
    """PCA transform mapping independent germs to per-region deviations.

    Returns the ``(num_regions, num_components)`` matrix ``A`` such that the
    correlated unit-variance per-region deviations are ``A @ xi``.
    """
    centers = partition.region_centers() * pitch
    covariance = correlation_from_distance(
        centers, correlation_length=spec.correlation_length, sigma=1.0
    )
    pca = decorrelate_gaussian(
        covariance,
        num_components=spec.max_components,
        energy_fraction=spec.energy_fraction,
    )
    return pca.transform


def build_spatial_stochastic_system(
    netlist: PowerGridNetlist,
    partition: RegionPartition,
    spec: Optional[SpatialVariationSpec] = None,
    stamped: Optional[StampedSystem] = None,
) -> StochasticSystem:
    """Build a stochastic system with spatially correlated intra-die variation.

    Parameters
    ----------
    netlist:
        A generator-style power-grid netlist (node names carry coordinates).
    partition:
        The die partition defining the spatial resolution of the fields.
    spec:
        Variation magnitudes and correlation structure.
    stamped:
        Optional pre-stamped system (to avoid stamping twice).
    """
    spec = spec or SpatialVariationSpec()
    stamped = stamped if stamped is not None else stamp(netlist)

    transform = _spatial_germs(partition, spec.node_pitch, spec)
    num_components = transform.shape[1]

    variables: List[GermVariable] = []
    g_sens: Dict[int, sp.csr_matrix] = {}
    c_sens: Dict[int, sp.csr_matrix] = {}
    rhs_sens: Dict[int, ConstantSensitivity] = {}
    drain_weights: Dict[int, np.ndarray] = {}

    if spec.vary_conductance and spec.sigma_g > 0:
        region_g, region_pads = _region_conductances(
            netlist, partition, include_pads=spec.pads_vary
        )
        for component in range(num_components):
            index = len(variables)
            variables.append(GermVariable(name=f"xi_G_s{component}", family="hermite"))
            matrix = sp.csr_matrix(stamped.conductance.shape)
            pad_vector = np.zeros(stamped.num_nodes)
            for region in range(partition.num_regions):
                weight = spec.sigma_g * transform[region, component]
                if weight == 0.0:
                    continue
                matrix = matrix + weight * region_g[region]
                pad_vector = pad_vector + weight * region_pads[region]
            g_sens[index] = matrix.tocsr()
            if spec.pads_vary and np.any(pad_vector):
                rhs_sens[index] = ConstantSensitivity(pad_vector)

    if spec.vary_channel_length and spec.sigma_l > 0:
        region_c = _region_gate_capacitances(netlist, partition, spec.gate_cap_fraction)
        node_region = _node_regions(partition, stamped.node_names)
        on_die = node_region >= 0
        for component in range(num_components):
            index = len(variables)
            variables.append(GermVariable(name=f"xi_L_s{component}", family="hermite"))
            matrix = sp.csr_matrix(stamped.capacitance.shape)
            weights = spec.sigma_l * transform[:, component]
            for region in range(partition.num_regions):
                if weights[region] == 0.0:
                    continue
                matrix = matrix + weights[region] * region_c[region]
            c_sens[index] = matrix.tocsr()

            # Leff row -d_k * i(t): each node takes its region's weight.
            node_weight = np.zeros(stamped.num_nodes)
            node_weight[on_die] = spec.current_leff_sensitivity * weights[node_region[on_die]]
            drain_weights[index] = node_weight

    if not variables:
        raise VariationModelError("the spatial variation spec enables no random variables")

    excitation = AffineExcitation(
        None, rhs_sens, len(variables), drain=stamped, drain_weights=drain_weights
    )
    return StochasticSystem(
        variables=tuple(variables),
        g_nominal=stamped.conductance,
        c_nominal=stamped.capacitance,
        g_sensitivities=g_sens,
        c_sensitivities=c_sens,
        excitation=excitation,
        vdd=stamped.vdd,
        node_names=stamped.node_names,
    )
