"""Regenerate ``stepping_reference.npz`` -- frozen pre-refactor waveforms.

The archive pins the mean/std waveforms the stochastic engines produced
*before* the shared ``repro.stepping`` core existed, for both one-step
methods.  ``tests/test_stepping.py`` asserts that the rewired engines
still reproduce these numbers to <= 1e-12, which is the refactor's
no-behaviour-change contract.  The committed archive also holds arrays of
the since-removed ``hierarchical`` engine; nothing reads them.  The
``decoupled/*`` arrays were written by the since-removed ``decoupled``
engine alias and are now reproduced by ``opera`` on the RHS-only session.

Regenerate (only after an *intentional* numerical change) with::

    PYTHONPATH=src python tests/data/make_stepping_reference.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.api import Analysis
from repro.sim import TransientConfig
from repro.sweep.plan import corner_spec

#: Grid + axis settings of the frozen scenario (small: the archive is
#: committed, and the contract is about arithmetic, not scale).
NODES = 120
GRID_SEED = 3
TRANSIENT = dict(t_stop=8 * 0.2e-9, dt=0.2e-9)
ORDER = 2
MC_SAMPLES = 16
MC_CHUNK = 8
METHODS = ("trapezoidal", "backward-euler")

OUTPUT = Path(__file__).parent / "stepping_reference.npz"


def build_sessions():
    paper = Analysis.from_spec(
        NODES, seed=GRID_SEED, transient=TransientConfig(**TRANSIENT)
    )
    rhs_only = Analysis.from_spec(
        NODES,
        seed=GRID_SEED,
        variation=corner_spec("rhs-only"),
        transient=TransientConfig(**TRANSIENT),
    )
    return paper, rhs_only


def main() -> None:
    paper, rhs_only = build_sessions()
    arrays = {}
    for method in METHODS:
        runs = {
            "opera": paper.run("opera", order=ORDER, method=method),
            "montecarlo": paper.run(
                "montecarlo",
                samples=MC_SAMPLES,
                chunk_size=MC_CHUNK,
                method=method,
            ),
            # RHS-only variation: opera takes the decoupled special case.
            "decoupled": rhs_only.run("opera", order=ORDER, method=method),
        }
        for engine, view in runs.items():
            arrays[f"{engine}/{method}/mean"] = np.asarray(view.mean(), dtype=float)
            arrays[f"{engine}/{method}/std"] = np.asarray(view.std(), dtype=float)
    np.savez_compressed(OUTPUT, **arrays)
    print(f"wrote {OUTPUT} ({len(arrays)} arrays)")


if __name__ == "__main__":
    main()
