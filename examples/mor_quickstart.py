"""Macromodel-accelerated analysis in ~25 lines.

Builds a synthetic grid, runs the exact ``opera`` engine (with the
matrix-free ``mean-block-cg`` solver, the fastest exact path) and the
macromodel-accelerated ``mor`` engine side by side (the mor statistics
match to well below 1e-3 relative at the default reduction order), then
demonstrates the session macromodel cache: a second run and a different
variation corner both reuse the PRIMA macromodels built by the first run,
because the projection bases depend only on the nominal block matrices and
the port structure.

Run with:  python examples/mor_quickstart.py
"""

import numpy as np

from repro import Analysis
from repro.sweep.plan import corner_spec

session = Analysis.from_spec(5000, seed=1).with_transient(t_stop=2.4e-9, dt=0.2e-9)

# --- 1. accuracy: mor vs the exact opera engine ---------------------------
exact = session.run("opera", order=2, solver="mean-block-cg")
mor = session.run("mor", order=2)
mean_scale = np.max(np.abs(exact.mean()))
std_scale = np.max(np.abs(exact.std()))
mean_error = np.max(np.abs(mor.mean() - exact.mean())) / mean_scale
sigma_error = np.max(np.abs(mor.std() - exact.std())) / std_scale
print(f"mor vs opera: relative mean error {mean_error:.2e}, "
      f"relative sigma error {sigma_error:.2e}")
stats = mor.mor_stats
print(f"reduced {stats['reduced_size']} of {stats['full_size']} unknowns "
      f"(q={stats['reduction_order']}, block orders {stats['block_orders']})")
print(f"opera {exact.wall_time:.2f} s   mor {mor.wall_time:.2f} s "
      f"({exact.wall_time / mor.wall_time:.1f}x)")

# --- 2. the macromodel cache: warm runs and corner reuse ------------------
warm = session.run("mor", order=2)
print(f"warm run: built {warm.mor_stats['macromodels_built']}, "
      f"reused {warm.mor_stats['macromodels_reused']}")

# A different corner rescales the sensitivity magnitudes but keeps the
# nominal block matrices, so the cached macromodels still apply:
corner = session.with_variation(corner_spec("wide")).run("mor", order=2)
print(f"wide corner: built {corner.mor_stats['macromodels_built']}, "
      f"reused {corner.mor_stats['macromodels_reused']}")
