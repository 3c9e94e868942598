"""The unified time-integration core.

Every transient engine of the library -- the deterministic simulator, the
coupled and decoupled OPERA paths and each Monte Carlo sample -- integrates
``C dx/dt + G x = u(t)`` with the same fixed-step machinery from this
package:

* :mod:`repro.stepping.schemes` -- the :class:`SteppingScheme` registry
  (``trapezoidal``, ``backward-euler``, the generalised ``theta`` method,
  plus anything added with :func:`register_scheme`), each reducing one step
  to scalar coefficients and hoisted LHS / RHS forms in either explicit-CSR
  or matrix-free operator representation;
* :mod:`repro.stepping.loop` -- the single :class:`StepLoop` driver owning
  the preallocated buffers, the ``rhs_series`` double-buffering,
  warm-started iterative solves and step callbacks;
* :mod:`repro.stepping.adapters` -- the :class:`SystemAdapter`
  implementations wiring the engines' systems (deterministic MNA,
  augmented Galerkin, decoupled tracks) onto the loop.

Pick a scheme anywhere a time axis is configured::

    TransientConfig(t_stop=8e-9, dt=0.2e-9, method="trapezoidal")
    session.run("opera", order=2, scheme="backward-euler")
    opera-run analyze ... --scheme theta:0.75
"""

from .adapters import (
    BlockDiagonalSolver,
    DecoupledSystemAdapter,
    GalerkinSystemAdapter,
    MnaSystemAdapter,
    StackedRhsSeries,
)
from .loop import (
    PreparedSystem,
    StepCallback,
    StepHistory,
    StepLoop,
    SystemAdapter,
    supports_warm_start,
)
from .schemes import (
    BackwardEulerScheme,
    SchemeCoefficients,
    StepForms,
    SteppingScheme,
    ThetaScheme,
    TrapezoidalScheme,
    get_scheme,
    register_scheme,
    resolve_scheme,
    scheme_names,
    step_forms,
    unregister_scheme,
)

__all__ = [
    "SteppingScheme",
    "SchemeCoefficients",
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
    "StepLoop",
    "StepHistory",
    "StepCallback",
    "SystemAdapter",
    "PreparedSystem",
    "supports_warm_start",
    "MnaSystemAdapter",
    "GalerkinSystemAdapter",
    "DecoupledSystemAdapter",
    "StackedRhsSeries",
    "BlockDiagonalSolver",
]
