"""One-step time-integration schemes and their registry.

Every transient engine of this library integrates the same linear DAE

``C dx/dt + G x = u(t)``

with a fixed step ``h``.  A *scheme* reduces one step of that integration
to a linear solve

``(a G + b C/h) x_{k+1} = p u_{k+1} + q u_k + (c C/h + d G) x_k``

so it is fully described by the six scalars ``(a, b, p, q, c, d)``
(:class:`SchemeCoefficients`).  :func:`step_forms` turns the scalars into
the hoisted per-step objects a stepping loop needs -- the constant LHS
matrix and the prescaled RHS product matrices -- in either representation
the caller supplies: explicit CSR matrices *or* matrix-free lazy operators
(anything supporting scalar scaling, ``+`` and ``matvec``, e.g.
:class:`repro.linalg.KronSumOperator`).

Built-in schemes (all A-stable for their valid parameter ranges):

``backward-euler``
    ``(G + C/h) x_{k+1} = u_{k+1} + (C/h) x_k`` -- first order.
``trapezoidal``
    ``(G + 2C/h) x_{k+1} = u_{k+1} + u_k + (2C/h - G) x_k`` -- second
    order; the form the paper uses (one factorisation, repeated solves).
``theta`` / ``theta:<value>``
    The generalised theta-method, normalised so the ``u_{k+1}``
    coefficient is 1: ``theta=1`` reproduces backward Euler exactly and
    ``theta=0.5`` the trapezoidal rule exactly (same floating-point
    coefficients).  A-stable for ``theta >= 0.5``; second order only at
    ``theta = 0.5``.

New schemes plug in with a decorator and become valid everywhere a scheme
name is accepted (``TransientConfig.method``, ``Analysis.run(scheme=...)``,
``SweepCase.scheme``, the ``--scheme`` CLI flags)::

    @register_scheme("bdf1-damped")
    def build_damped(parameter=None):
        return ThetaScheme(0.8)

A spec string may carry one parameter after a colon (``"theta:0.75"``);
the raw text after the colon reaches the factory as ``parameter``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Union

from ..errors import SchemeError
from ..registry import Registry

__all__ = [
    "SchemeCoefficients",
    "SteppingScheme",
    "BackwardEulerScheme",
    "TrapezoidalScheme",
    "ThetaScheme",
    "StepForms",
    "step_forms",
    "register_scheme",
    "unregister_scheme",
    "scheme_names",
    "get_scheme",
    "resolve_scheme",
]


@dataclass(frozen=True)
class SchemeCoefficients:
    """The six scalars of a one-step update (see the module docstring).

    ``C``-side coefficients multiply the hoisted ``C/h`` -- never ``C``
    itself -- so schemes stay step-size-agnostic and the loop hoists one
    scaled matrix for the whole run.
    """

    lhs_conductance: float  # a:  LHS = a G + b (C/h)
    lhs_capacitance: float  # b
    rhs_u_new: float  # p:  RHS = p u_{k+1} + q u_k + ...
    rhs_u_old: float  # q
    rhs_capacitance: float  # c:  ... + c (C/h) x_k + d G x_k
    rhs_conductance: float  # d   (d <= 0 for the built-ins)
    convergence_order: int  # formal order of accuracy in h


class SteppingScheme(abc.ABC):
    """A one-step integration method for ``C dx/dt + G x = u(t)``."""

    #: Registry name of the scheme family.
    name: str = "?"

    @property
    @abc.abstractmethod
    def coefficients(self) -> SchemeCoefficients:
        """The scheme's update scalars."""

    @property
    def convergence_order(self) -> int:
        """Formal order of accuracy (trapezoidal: 2, backward Euler: 1)."""
        return self.coefficients.convergence_order

    @property
    def uses_previous_rhs(self) -> bool:
        """Whether the update references ``u_k`` (needs a second RHS buffer)."""
        return self.coefficients.rhs_u_old != 0.0

    @property
    def spec(self) -> str:
        """Round-trippable spec string (``resolve_scheme(scheme.spec)``)."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.spec!r}>"

    def __eq__(self, other) -> bool:
        return isinstance(other, SteppingScheme) and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)


class BackwardEulerScheme(SteppingScheme):
    """First-order implicit Euler; heavily damped, the robust default."""

    name = "backward-euler"

    _COEFFICIENTS = SchemeCoefficients(
        lhs_conductance=1.0,
        lhs_capacitance=1.0,
        rhs_u_new=1.0,
        rhs_u_old=0.0,
        rhs_capacitance=1.0,
        rhs_conductance=0.0,
        convergence_order=1,
    )

    @property
    def coefficients(self) -> SchemeCoefficients:
        return self._COEFFICIENTS


class TrapezoidalScheme(SteppingScheme):
    """Second-order trapezoidal rule, in the paper's ``2C/h`` form."""

    name = "trapezoidal"

    _COEFFICIENTS = SchemeCoefficients(
        lhs_conductance=1.0,
        lhs_capacitance=2.0,
        rhs_u_new=1.0,
        rhs_u_old=1.0,
        rhs_capacitance=2.0,
        rhs_conductance=-1.0,
        convergence_order=2,
    )

    @property
    def coefficients(self) -> SchemeCoefficients:
        return self._COEFFICIENTS


class ThetaScheme(SteppingScheme):
    """The generalised theta-method, normalised to a unit ``u_{k+1}`` weight.

    The textbook update ``C (x_{k+1} - x_k)/h = theta (u - G x)_{k+1}
    + (1 - theta) (u - G x)_k`` is divided by ``theta`` so that
    ``theta=1`` and ``theta=0.5`` reproduce the backward-Euler and
    trapezoidal coefficient sets *exactly* (bit for bit), not merely up to
    an equivalent rescaling.  Requires ``0.5 <= theta <= 1`` (the A-stable
    range).
    """

    name = "theta"

    def __init__(self, theta: float = 0.55):
        theta = float(theta)
        if not 0.5 <= theta <= 1.0:
            raise SchemeError(
                f"theta must lie in [0.5, 1.0] (the A-stable range); got {theta}"
            )
        self.theta = theta
        ratio = (1.0 - theta) / theta
        self._coefficients = SchemeCoefficients(
            lhs_conductance=1.0,
            lhs_capacitance=1.0 / theta,
            rhs_u_new=1.0,
            rhs_u_old=ratio,
            rhs_capacitance=1.0 / theta,
            rhs_conductance=-ratio,
            convergence_order=2 if theta == 0.5 else 1,
        )

    @property
    def coefficients(self) -> SchemeCoefficients:
        return self._coefficients

    @property
    def spec(self) -> str:
        return f"{self.name}:{self.theta:g}"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
_SCHEMES = Registry("scheme", SchemeError)


def register_scheme(name: str, factory=None, *, overwrite: bool = False):
    """Register a scheme factory ``factory(parameter=None) -> SteppingScheme``.

    Usable directly or as a decorator.  ``parameter`` receives the raw text
    after the colon of a ``"name:parameter"`` spec (``None`` otherwise);
    parameterless schemes should reject a non-``None`` value.
    """
    return _SCHEMES.register(name, factory, overwrite=overwrite)


def unregister_scheme(name: str) -> None:
    """Remove a registered scheme."""
    _SCHEMES.unregister(name)


def scheme_names() -> tuple:
    """Names of all registered schemes, sorted."""
    return _SCHEMES.names()


def get_scheme(name: str):
    """Resolve a scheme name to its factory (raises :class:`SchemeError`)."""
    return _SCHEMES.get(name)


def resolve_scheme(spec: Union[str, SteppingScheme]) -> SteppingScheme:
    """A :class:`SteppingScheme` from a spec string (or pass one through).

    Specs are ``"name"`` or ``"name:parameter"`` -- e.g. ``"trapezoidal"``,
    ``"theta:0.75"``.  Unknown names raise :class:`SchemeError` with the
    registry's listing (also a ``ValueError``, for configuration callers).
    """
    if isinstance(spec, SteppingScheme):
        return spec
    text = str(spec).strip()
    name, _, parameter = text.partition(":")
    factory = _SCHEMES.get(name)
    scheme = factory(parameter=parameter.strip() if parameter else None)
    if not isinstance(scheme, SteppingScheme):
        raise SchemeError(
            f"scheme factory {name!r} returned {type(scheme).__name__}, "
            "expected a SteppingScheme"
        )
    return scheme


def _reject_parameter(name: str, parameter) -> None:
    if parameter is not None:
        raise SchemeError(f"scheme {name!r} takes no parameter; got {parameter!r}")


@register_scheme("backward-euler")
def _build_backward_euler(parameter=None) -> BackwardEulerScheme:
    _reject_parameter("backward-euler", parameter)
    return BackwardEulerScheme()


@register_scheme("trapezoidal")
def _build_trapezoidal(parameter=None) -> TrapezoidalScheme:
    _reject_parameter("trapezoidal", parameter)
    return TrapezoidalScheme()


@register_scheme("theta")
def _build_theta(parameter=None) -> ThetaScheme:
    if parameter is None:
        raise SchemeError(
            "the theta scheme needs its parameter spelled out, e.g. "
            "'theta:0.75' (theta=1 is backward Euler, theta=0.5 trapezoidal)"
        )
    try:
        theta = float(parameter)
    except ValueError:
        raise SchemeError(f"theta parameter must be a number; got {parameter!r}") from None
    return ThetaScheme(theta)


# ---------------------------------------------------------------------------
# Hoisted per-step forms
# ---------------------------------------------------------------------------
@dataclass
class StepForms:
    """The loop-invariant objects of one scheme on one system.

    ``lhs`` is the constant step matrix ``a G + b (C/h)``;
    ``rhs_capacitance`` / ``rhs_conductance`` are the prescaled RHS product
    matrices ``c (C/h)`` and ``(-d) G`` (``None`` when the coefficient is
    zero; the conductance term is stored positively and *subtracted* by the
    loop, matching the sign convention of the built-in schemes).  All three
    share the representation of the inputs -- explicit CSR or lazy
    operator; ``matrix_free`` records which, and picks whether the loop
    applies them with ``matvec(x, out=...)`` or a plain ``@`` product.
    """

    scheme: SteppingScheme
    lhs: object
    rhs_capacitance: Optional[object]
    rhs_conductance: Optional[object]
    rhs_u_new: float
    rhs_u_old: float
    matrix_free: bool


def _scaled(matrix, factor: float):
    """``factor * matrix`` with the exact-identity short-circuit."""
    return matrix if factor == 1.0 else factor * matrix


def step_forms(
    scheme: Union[str, SteppingScheme],
    conductance,
    capacitance,
    h: float,
    matrix_free: Optional[bool] = None,
) -> StepForms:
    """Hoist a scheme's per-step LHS and RHS objects for ``(G, C, h)``.

    ``conductance`` / ``capacitance`` may be explicit sparse matrices or
    lazy operators; the forms come out in the same representation.  The
    scalings mirror the expressions the engines historically used
    (``C / h`` first, then small-integer factors), so the default schemes
    reproduce the pre-``repro.stepping`` arithmetic bit for bit.
    """
    scheme = resolve_scheme(scheme)
    if h <= 0:
        raise SchemeError(f"step size must be positive, got {h}")
    c = scheme.coefficients
    scaled_capacitance = capacitance / h
    lhs = _scaled(conductance, c.lhs_conductance) + _scaled(scaled_capacitance, c.lhs_capacitance)
    rhs_capacitance = (
        _scaled(scaled_capacitance, c.rhs_capacitance)
        if c.rhs_capacitance != 0.0
        else None
    )
    rhs_conductance = (
        _scaled(conductance, -c.rhs_conductance) if c.rhs_conductance != 0.0 else None
    )
    if matrix_free is None:
        matrix_free = callable(getattr(conductance, "matvec", None))
    return StepForms(
        scheme=scheme,
        lhs=lhs,
        rhs_capacitance=rhs_capacitance,
        rhs_conductance=rhs_conductance,
        rhs_u_new=c.rhs_u_new,
        rhs_u_old=c.rhs_u_old,
        matrix_free=bool(matrix_free),
    )
