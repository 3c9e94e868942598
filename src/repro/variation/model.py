"""Stochastic power-grid system construction (Eq. (12)-(14) of the paper).

This module converts a deterministic stamped power grid plus a
:class:`VariationSpec` into a :class:`StochasticSystem`:

``G(xi) = G_a + sum_k G_k xi_k``,  ``C(xi) = C_a + sum_k C_k xi_k``,
``U(t, xi) = U_a(t) + sum_k U_k(t) xi_k``  (or a general polynomial-chaos
expansion of ``U`` for nonlinear excitations such as lognormal leakage).

The sensitivities follow the paper's first-order physical model:

* wire/via conductance scales linearly with metal width ``W`` and thickness
  ``T`` (``G ~ W*T / rho``), so its relative sensitivity to the normalised
  germs is ``sigma_W`` and ``sigma_T``;  since both act identically on ``G``
  they can be combined into a single germ ``xi_G`` with relative sigma
  ``sqrt(sigma_W^2 + sigma_T^2)`` (Eq. (14));
* the MOS gate-load part of the capacitance scales linearly with the channel
  length ``Leff`` (``Cgate ~ Weff*Leff*Cox``);
* the block drain currents scale with ``Leff`` through a first-order
  sensitivity coefficient;
* the pad injection term ``G1*VDD`` of the excitation inherits the
  conductance variation when the pad resistance is treated as on-die metal.

The same module defines the excitation abstraction shared by the OPERA
(Galerkin) engine and the Monte Carlo baseline.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..errors import VariationModelError
from ..grid.stamping import StampedSystem

__all__ = [
    "VariationSpec",
    "GermVariable",
    "StochasticExcitation",
    "AffineExcitation",
    "SummedExcitation",
    "ConstantSensitivity",
    "StochasticSystem",
    "build_stochastic_system",
]


@dataclass(frozen=True)
class VariationSpec:
    """Inter-die process variation magnitudes (1-sigma, relative to nominal).

    The paper's experiments use maximum 3-sigma variations of 20 % in W,
    15 % in T (hence 25 % in the combined conductance germ) and 20 % in
    Leff; :meth:`paper_defaults` reproduces exactly those settings.

    Attributes
    ----------
    sigma_w, sigma_t, sigma_l:
        Relative 1-sigma variation of interconnect width, interconnect
        thickness and device channel length.
    gate_cap_fraction:
        Fraction of the total grid capacitance that follows Leff; only used
        as a fallback when the netlist does not tag gate-load capacitors.
    current_leff_sensitivity:
        First-order sensitivity of the block drain currents to the
        normalised Leff germ (dI/I per unit xi_L, in units of sigma_l).
    pads_vary:
        Whether the pad series conductance (and hence the ``G1*VDD`` part of
        the excitation) follows the W/T variation.
    combine_wt:
        Combine the W and T germs into the single conductance germ ``xi_G``
        as in Eq. (14) of the paper (2 germs total); otherwise keep W, T and
        Leff as three separate germs.
    vary_conductance, vary_capacitance, vary_currents:
        Master switches for each variation mechanism (used by ablations).
    """

    sigma_w: float = 0.20 / 3.0
    sigma_t: float = 0.15 / 3.0
    sigma_l: float = 0.20 / 3.0
    gate_cap_fraction: float = 0.40
    current_leff_sensitivity: float = 1.3
    pads_vary: bool = True
    combine_wt: bool = True
    vary_conductance: bool = True
    vary_capacitance: bool = True
    vary_currents: bool = True

    def __post_init__(self):
        for label, value in (
            ("sigma_w", self.sigma_w),
            ("sigma_t", self.sigma_t),
            ("sigma_l", self.sigma_l),
        ):
            if value < 0 or value >= 1.0 / 3.0 + 1e-12:
                raise VariationModelError(
                    f"{label} must lie in [0, 1/3) so that 3-sigma excursions "
                    f"keep the parameters physical; got {value}"
                )
        if not (0.0 <= self.gate_cap_fraction <= 1.0):
            raise VariationModelError("gate_cap_fraction must lie in [0, 1]")

    @classmethod
    def paper_defaults(cls) -> "VariationSpec":
        """The exact setting of the paper's experiments (Section 6)."""
        return cls(
            sigma_w=0.20 / 3.0,
            sigma_t=0.15 / 3.0,
            sigma_l=0.20 / 3.0,
            gate_cap_fraction=0.40,
            current_leff_sensitivity=1.3,
            pads_vary=True,
            combine_wt=True,
        )

    @classmethod
    def from_three_sigma_percent(
        cls, w: float = 20.0, t: float = 15.0, l: float = 20.0, **kwargs
    ) -> "VariationSpec":
        """Build a spec from 3-sigma percentages (the paper's convention)."""
        return cls(
            sigma_w=w / 100.0 / 3.0,
            sigma_t=t / 100.0 / 3.0,
            sigma_l=l / 100.0 / 3.0,
            **kwargs,
        )

    @property
    def sigma_g(self) -> float:
        """Relative 1-sigma variation of the combined conductance germ xi_G."""
        return math.sqrt(self.sigma_w**2 + self.sigma_t**2)


@dataclass(frozen=True)
class GermVariable:
    """One normalised (zero-mean, unit-variance) random variable of the model."""

    name: str
    family: str = "hermite"

    def __post_init__(self):
        if not self.name:
            raise VariationModelError("germ variables need a non-empty name")


# ---------------------------------------------------------------------------
# Excitations
# ---------------------------------------------------------------------------
class StochasticExcitation(abc.ABC):
    """Right-hand side ``U(t, xi)`` of the stochastic MNA system.

    Two views of the same object are needed:

    * :meth:`sample` -- exact evaluation at a germ realisation, used by the
      Monte Carlo baseline;
    * :meth:`pc_coefficients` -- the coefficients of the excitation in the
      orthonormal chaos basis, used by the Galerkin projection.
    """

    @abc.abstractmethod
    def sample(self, t: float, xi: np.ndarray) -> np.ndarray:
        """Evaluate ``U(t, xi)`` for one germ realisation ``xi``."""

    @abc.abstractmethod
    def pc_coefficients(self, basis, t: float) -> Dict[int, np.ndarray]:
        """Coefficients of ``U(t, .)`` on the orthonormal basis.

        Returns a mapping from basis index to coefficient vector; absent
        indices are zero.
        """

    def nominal(self, t: float) -> np.ndarray:
        """Mean excitation (the coefficient of the constant basis function)."""
        return self.sample(t, np.zeros(self.num_variables))

    @property
    @abc.abstractmethod
    def num_variables(self) -> int:
        """Number of germ variables this excitation depends on."""


class ConstantSensitivity:
    """A time-independent sensitivity vector as a callable of time.

    A plain class (rather than a closure) so that excitations built from it
    -- and hence whole :class:`StochasticSystem` objects -- can be pickled
    and shipped to worker processes by the chunked Monte Carlo engine and
    the :mod:`repro.sweep` runner.
    """

    def __init__(self, vector: np.ndarray):
        self.vector = np.asarray(vector, dtype=float)

    def __call__(self, t: float) -> np.ndarray:
        return self.vector


class AffineExcitation(StochasticExcitation):
    """``U(t, xi) = u0(t) + sum_k u_k(t) xi_k`` (first-order germ dependence).

    ``sensitivities`` maps germ *variable index* to the function returning
    that germ's sensitivity vector at time ``t``.

    Drain-weighted form (``drain`` given, ``nominal`` ``None``): the rows
    that follow the drain currents of paper Eq. (13) share one evaluation
    of ``i(t) = drain.drain_current_vector(t)`` per :meth:`sample` /
    :meth:`pc_coefficients` call:

    * the nominal row is ``u0(t) = pad - i(t)``, with ``pad = G1*VDD`` the
      stamped pad injection ``drain.pad_current``;
    * each germ ``k`` of ``drain_weights`` gets the Leff row
      ``u_k(t) = -d_k * i(t)``.  ``d_k`` is fixed at build time: a scalar
      ``s`` (``current_leff_sensitivity * sigma_l``) for the inter-die
      germ, or the per-node vector ``s * sum_r w_kr * [node in region r]``
      for an intra-die germ with region weights ``w_kr``.

    :meth:`sample` accumulates ``xi_k * u_k`` onto ``u0`` over the
    ``sensitivities`` first and then over ``drain_weights``, each in
    insertion order.
    """

    def __init__(
        self,
        nominal: Optional[Callable[[float], np.ndarray]],
        sensitivities: Mapping[int, Callable[[float], np.ndarray]],
        num_variables: int,
        *,
        drain: Optional[StampedSystem] = None,
        drain_weights: Optional[Mapping[int, float | np.ndarray]] = None,
    ):
        if (nominal is None) == (drain is None):
            raise VariationModelError(
                "AffineExcitation needs exactly one of a nominal function and a drain system"
            )
        if drain_weights and drain is None:
            raise VariationModelError("drain_weights need the drain system they scale")
        self._nominal = nominal
        self._drain = drain
        self._sensitivities = dict(sensitivities)
        self._num_variables = int(num_variables)
        # Stored negated: the Leff row is ``(-d_k) * i``, i.e. ``-(d_k * i)``.
        self._drain_weights: Dict[int, np.ndarray] = {}
        for var, weight in (drain_weights or {}).items():
            weight = np.asarray(weight, dtype=float)
            if weight.ndim != 0 and weight.shape != (drain.num_nodes,):
                raise VariationModelError(
                    f"drain weight of variable {var} has shape {weight.shape}; expected "
                    f"a scalar or ({drain.num_nodes},)"
                )
            self._drain_weights[var] = -weight
        for var in (*self._sensitivities, *self._drain_weights):
            if not (0 <= var < self._num_variables):
                raise VariationModelError(
                    f"sensitivity refers to variable {var} but only "
                    f"{self._num_variables} germ variables exist"
                )
        if self._sensitivities.keys() & self._drain_weights.keys():
            raise VariationModelError("a germ has either a sensitivity or a drain weight, not both")

    @property
    def num_variables(self) -> int:
        return self._num_variables

    def _nominal_row(self, t: float) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(u0(t), i(t))``; ``i`` is ``None`` without a drain system."""
        if self._drain is None:
            return np.array(self._nominal(t), dtype=float, copy=True), None
        current = self._drain.drain_current_vector(t)
        return self._drain.pad_current - current, current

    def sample(self, t: float, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        value, current = self._nominal_row(t)
        for var, sensitivity in self._sensitivities.items():
            value += xi[var] * np.asarray(sensitivity(t), dtype=float)
        for var, weight in self._drain_weights.items():
            value += xi[var] * (weight * current)
        return value

    def pc_coefficients(self, basis, t: float) -> Dict[int, np.ndarray]:
        value, current = self._nominal_row(t)
        coefficients = {0: value}
        if getattr(basis, "order", 1) >= 1:
            for var, sensitivity in self._sensitivities.items():
                index = basis.first_order_index(var)
                coefficients[index] = np.asarray(sensitivity(t), dtype=float)
            for var, weight in self._drain_weights.items():
                coefficients[basis.first_order_index(var)] = weight * current
        return coefficients


class SummedExcitation(StochasticExcitation):
    """Point-wise sum of several excitations sharing the same germ vector."""

    def __init__(self, parts: Sequence[StochasticExcitation]):
        if not parts:
            raise VariationModelError("SummedExcitation needs at least one part")
        sizes = {part.num_variables for part in parts}
        if len(sizes) > 1:
            raise VariationModelError("all excitation parts must share the germ vector")
        self.parts = list(parts)

    @property
    def num_variables(self) -> int:
        return self.parts[0].num_variables

    def sample(self, t: float, xi: np.ndarray) -> np.ndarray:
        total = self.parts[0].sample(t, xi)
        for part in self.parts[1:]:
            total = total + part.sample(t, xi)
        return total

    def pc_coefficients(self, basis, t: float) -> Dict[int, np.ndarray]:
        combined: Dict[int, np.ndarray] = {}
        for part in self.parts:
            for index, vector in part.pc_coefficients(basis, t).items():
                if index in combined:
                    combined[index] = combined[index] + vector
                else:
                    combined[index] = np.array(vector, copy=True)
        return combined


# ---------------------------------------------------------------------------
# Stochastic system
# ---------------------------------------------------------------------------
@dataclass
class StochasticSystem:
    """The stochastic MNA system ``(G(xi) + sC(xi)) x = U(s, xi)``.

    Attributes
    ----------
    variables:
        Ordered germ variables; their order defines the meaning of a germ
        realisation vector ``xi``.
    g_nominal, c_nominal:
        Mean conductance and capacitance matrices.
    g_sensitivities, c_sensitivities:
        First-order sensitivity matrices keyed by germ variable index.
    excitation:
        The stochastic right-hand side.
    vdd:
        Supply voltage (for drop conversions).
    node_names:
        Node labels aligned with the matrix ordering.
    """

    variables: Tuple[GermVariable, ...]
    g_nominal: sp.csr_matrix
    c_nominal: sp.csr_matrix
    g_sensitivities: Dict[int, sp.csr_matrix]
    c_sensitivities: Dict[int, sp.csr_matrix]
    excitation: StochasticExcitation
    vdd: float
    node_names: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        self.g_nominal = sp.csr_matrix(self.g_nominal)
        self.c_nominal = sp.csr_matrix(self.c_nominal)
        if self.g_nominal.shape != self.c_nominal.shape:
            raise VariationModelError("G and C must have identical shapes")
        for mapping_name, mapping in (
            ("g_sensitivities", self.g_sensitivities),
            ("c_sensitivities", self.c_sensitivities),
        ):
            for var, matrix in mapping.items():
                if not (0 <= var < len(self.variables)):
                    raise VariationModelError(
                        f"{mapping_name} refers to unknown variable index {var}"
                    )
                if matrix.shape != self.g_nominal.shape:
                    raise VariationModelError(
                        f"{mapping_name}[{var}] has shape {matrix.shape}, "
                        f"expected {self.g_nominal.shape}"
                    )
        if self.excitation.num_variables != len(self.variables):
            raise VariationModelError("excitation germ count does not match the system's variables")

    # ------------------------------------------------------------------ shape
    @property
    def num_nodes(self) -> int:
        return self.g_nominal.shape[0]

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def has_matrix_variation(self) -> bool:
        """True when G or C depends on the germs (the general OPERA case)."""
        return bool(self.g_sensitivities) or bool(self.c_sensitivities)

    def variable_names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def variable_families(self) -> Tuple[str, ...]:
        return tuple(v.family for v in self.variables)

    # --------------------------------------------------------------- sampling
    def realize_matrices(self, xi: np.ndarray) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
        """Return ``(G(xi), C(xi))`` for one germ realisation."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.num_variables,):
            raise VariationModelError(f"xi must have shape ({self.num_variables},), got {xi.shape}")
        conductance = self.g_nominal.copy()
        for var, matrix in self.g_sensitivities.items():
            conductance = conductance + float(xi[var]) * matrix
        capacitance = self.c_nominal.copy()
        for var, matrix in self.c_sensitivities.items():
            capacitance = capacitance + float(xi[var]) * matrix
        return conductance.tocsr(), capacitance.tocsr()

    def realize_rhs(self, xi: np.ndarray) -> Callable[[float], np.ndarray]:
        """Return the deterministic excitation ``t -> U(t, xi)`` for one sample."""
        xi = np.asarray(xi, dtype=float)
        return lambda t: self.excitation.sample(t, xi)

    def nominal_rhs(self) -> Callable[[float], np.ndarray]:
        """Excitation with every germ at zero (the nominal design)."""
        zero = np.zeros(self.num_variables)
        return lambda t: self.excitation.sample(t, zero)


# ---------------------------------------------------------------------------
# Builder (paper Eq. (13)-(14))
# ---------------------------------------------------------------------------
def build_stochastic_system(
    stamped: StampedSystem,
    spec: Optional[VariationSpec] = None,
) -> StochasticSystem:
    """Build the stochastic system for inter-die W/T/Leff variation.

    Parameters
    ----------
    stamped:
        The stamped (nominal) power grid.
    spec:
        Variation magnitudes and switches; defaults to the paper's settings.
    """
    spec = spec or VariationSpec.paper_defaults()

    variables: List[GermVariable] = []
    g_sens: Dict[int, sp.csr_matrix] = {}
    c_sens: Dict[int, sp.csr_matrix] = {}
    rhs_sens: Dict[int, Callable[[float], np.ndarray]] = {}
    drain_weights: Dict[int, float] = {}

    if spec.pads_vary:
        g_varying = (stamped.g_wire + stamped.g_package).tocsr()
        pad_varying = stamped.pad_current
    else:
        g_varying = stamped.g_wire.tocsr()
        pad_varying = np.zeros(stamped.num_nodes)

    def add_variable(name: str) -> int:
        variables.append(GermVariable(name=name, family="hermite"))
        return len(variables) - 1

    # --- conductance (and the pad part of the excitation) --------------------
    if spec.vary_conductance and (spec.sigma_w > 0 or spec.sigma_t > 0):
        if spec.combine_wt:
            index = add_variable("xi_G")
            g_sens[index] = (spec.sigma_g * g_varying).tocsr()
            if spec.pads_vary:
                rhs_sens[index] = ConstantSensitivity(spec.sigma_g * pad_varying)
        else:
            if spec.sigma_w > 0:
                index = add_variable("xi_W")
                g_sens[index] = (spec.sigma_w * g_varying).tocsr()
                if spec.pads_vary:
                    rhs_sens[index] = ConstantSensitivity(spec.sigma_w * pad_varying)
            if spec.sigma_t > 0:
                index = add_variable("xi_T")
                g_sens[index] = (spec.sigma_t * g_varying).tocsr()
                if spec.pads_vary:
                    rhs_sens[index] = ConstantSensitivity(spec.sigma_t * pad_varying)

    # --- channel length: gate capacitance and drain currents -----------------
    needs_leff = (spec.vary_capacitance or spec.vary_currents) and spec.sigma_l > 0
    if needs_leff:
        index = add_variable("xi_L")
        if spec.vary_capacitance:
            gate_cap = stamped.c_gate
            if gate_cap.nnz == 0:
                # Untagged netlist: fall back to a fraction of the total capacitance.
                gate_cap = spec.gate_cap_fraction * stamped.capacitance
            c_sens[index] = (spec.sigma_l * gate_cap).tocsr()
        if spec.vary_currents:
            drain_weights[index] = spec.current_leff_sensitivity * spec.sigma_l

    if not variables:
        raise VariationModelError(
            "the variation spec enables no random variables; nothing to analyse"
        )

    excitation = AffineExcitation(
        nominal=None,
        sensitivities=rhs_sens,
        num_variables=len(variables),
        drain=stamped,
        drain_weights=drain_weights,
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
