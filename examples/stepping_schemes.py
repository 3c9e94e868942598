"""Stepping schemes side by side: accuracy vs damping on one grid.

Every transient engine integrates ``C dx/dt + G x = u(t)`` through the
shared ``repro.stepping`` core, so the scheme is a one-keyword choice on
any engine.  This example runs the OPERA engine under the three built-in
schemes against a fine-step reference, and registers a custom scheme to
show the extension point.

Note the trade-off the numbers expose: the excitation is a sharp-edged
pulse train, and at coarse steps the second-order trapezoidal rule *rings*
on the edges while the damped first-order schemes stay monotone -- so
backward Euler can come out closer here despite its lower formal order.
(The clean convergence-order measurement on a smooth RC reference lives in
``tests/test_stepping.py``.)

Run with:  python examples/stepping_schemes.py
"""

import numpy as np

from repro import Analysis
from repro.stepping import (
    ThetaScheme,
    register_scheme,
    resolve_scheme,
    unregister_scheme,
)

session = Analysis.from_spec(500, seed=1)
session.with_transient(t_stop=4.0e-9, dt=0.4e-9)

# A fine-step trapezoidal run (4x smaller step) as the accuracy yardstick.
reference = session.run("opera", order=2, scheme="trapezoidal", dt=0.1e-9)
reference_mean = reference.mean()[::4]

print(f"{'scheme':>16s}  {'order':>5s}  {'max |mean - ref| (mV)':>22s}")
for spec in ("trapezoidal", "backward-euler", "theta:0.75"):
    opera = session.run("opera", order=2, scheme=spec)
    error = 1e3 * float(np.max(np.abs(opera.mean() - reference_mean)))
    convergence = resolve_scheme(spec).convergence_order
    print(f"{spec:>16s}  {convergence:5d}  {error:22.4f}")

# The same keyword works on every engine (``opera`` is still on theta:0.75):
montecarlo = session.run("montecarlo", samples=64, scheme="theta:0.75")
print(
    f"\ntheta:0.75 across engines: opera worst drop "
    f"{1e3 * opera.worst_drop():.1f} mV, "
    f"MC worst drop {1e3 * montecarlo.worst_drop():.1f} mV"
)

# Custom schemes plug into the same registry the CLI and sweeps resolve.
register_scheme("damped", lambda parameter=None: ThetaScheme(0.8))
try:
    damped = session.run("opera", order=2, scheme="damped")
    print(f"custom 'damped' scheme: worst drop {1e3 * damped.worst_drop():.1f} mV")
finally:
    unregister_scheme("damped")
