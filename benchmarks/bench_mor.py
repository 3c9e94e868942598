"""Macromodel (``mor``) engine vs the fastest exact path: the MOR benchmark.

Three measurements, scaled by the shared ``OPERA_BENCH_*`` environment
variables (see ``_bench_config.py``):

1. **Engine comparison** on every bench grid plus one large grid
   (``OPERA_MOR_LARGE_NODES``, default ``10x`` the largest bench grid):
   the wall time of the exact reference -- ``opera`` with the matrix-free
   ``mean-block-cg`` solver, cold on its own session -- vs the ``mor``
   engine cold (macromodels built, on a second session of the same grid)
   and warm (macromodels reused from that session's cache), with the
   mean/std agreement of the two engines recorded per grid.  The gates --
   warm speedup ``>= 2x`` on the large grid and mean/std within ``1e-3``
   relative everywhere -- are checked here; failures are recorded under
   ``config.gate_failures`` in the artifact and fail the run.
2. **Corner sweep** (3 corners of the largest grid through the sweep
   runner): sibling corner sessions share the macromodel cache exactly like
   they share factorizations, so corners after the first must report
   ``macromodels_reused > 0`` in their telemetry counters.
3. The sweep cases land in the :class:`~repro.sweep.BenchRecord` schema as
   ``BENCH_mor.json`` at the repo root, with the engine comparison and the
   reuse evidence in the ``config`` block.

The committed artifact was produced with::

    OPERA_MOR_LARGE_NODES=25700 PYTHONPATH=src \
    python benchmarks/bench_mor.py --output BENCH_mor.json
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.api import Analysis
from repro.sweep import (
    BenchRecord,
    SweepCase,
    SweepPlan,
    SweepRunner,
    compare_records,
    record_from_outcome,
)
from repro.sweep.plan import grid_seed_for

from _bench_config import bench_node_counts, bench_store, bench_transient, bench_workers

#: Base seed of the mor bench plan (fixed for reproducibility).
BASE_SEED = 47

#: Chaos order of every comparison (the paper's default).
ORDER = 2

#: Corners of the macromodel-reuse sweep.
CORNERS = ("paper", "tight", "wide")

#: The exact reference every mor timing is compared against.
REFERENCE = {"engine": "opera", "solver": "mean-block-cg"}

#: Accuracy gate: mor mean/std within this relative error of the reference.
ACCURACY_GATE = 1e-3

#: Wall-time gate on the large grid: warm mor must beat the reference by this.
SPEEDUP_GATE = 2.0

#: Perf gates only apply to grids at least this large (CI runs tiny grids).
GATED_NODES = 10_000


def large_node_count() -> int:
    """The large-grid size: env override or ``10x`` the largest bench grid."""
    raw = os.environ.get("OPERA_MOR_LARGE_NODES", "").strip()
    if raw:
        return int(raw)
    return 10 * max(bench_node_counts())


def _session(nodes: int) -> Analysis:
    """A session on the bench grid with its stochastic system built, so the
    timed runs exclude grid generation and the system build."""
    session = Analysis.from_spec(nodes, seed=grid_seed_for(nodes, BASE_SEED))
    session.with_transient(bench_transient())
    session.system
    return session


def time_engines(nodes: int) -> dict:
    """Exact reference vs mor (cold + warm) on one grid, with accuracy."""
    reference = _session(nodes).run(REFERENCE["engine"], order=ORDER, solver=REFERENCE["solver"])
    session = _session(nodes)
    cold = session.run("mor", order=ORDER)
    warm = session.run("mor", order=ORDER)

    mean_scale = float(np.max(np.abs(reference.mean())))
    std_scale = float(np.max(np.abs(reference.std())))
    return {
        "nodes": int(session.num_nodes),
        "order": ORDER,
        "reference_s": float(reference.wall_time),
        "mor_cold_s": float(cold.wall_time),
        "mor_warm_s": float(warm.wall_time),
        "speedup_cold": float(reference.wall_time / cold.wall_time),
        "speedup_warm": float(reference.wall_time / warm.wall_time),
        "mean_relative_error": float(
            np.max(np.abs(warm.mean() - reference.mean())) / mean_scale
        ),
        "std_relative_error": float(
            np.max(np.abs(warm.std() - reference.std())) / max(std_scale, 1e-300)
        ),
        "mor_stats": dict(cold.mor_stats),
        "warm_mor_stats": dict(warm.mor_stats),
    }


def corner_sweep_plan(nodes: int) -> SweepPlan:
    """Three corners of one topology through the ``mor`` engine."""
    grid_seed = grid_seed_for(nodes, BASE_SEED)
    cases = tuple(
        SweepCase(
            engine="mor",
            nodes=int(nodes),
            grid_seed=grid_seed,
            order=ORDER,
            corner=corner,
        ).with_derived_seed(BASE_SEED)
        for corner in CORNERS
    )
    return SweepPlan(cases=cases, transient=bench_transient(), base_seed=BASE_SEED)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_mor.json",
        help="where to write the BenchRecord JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="gate against this baseline artifact (exit 1 on regression)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=300.0,
        metavar="PCT",
        help="allowed wall-time growth vs the baseline, percent (default %(default)s)",
    )
    args = parser.parse_args(argv)

    failures = []
    comparisons = []
    for nodes in [*bench_node_counts(), large_node_count()]:
        print(f"engine comparison on ~{nodes} nodes, order {ORDER}")
        timing = time_engines(nodes)
        comparisons.append(timing)
        print(
            f"  opera/mean-block-cg {timing['reference_s']:8.3f}s   "
            f"mor cold {timing['mor_cold_s']:8.3f}s   "
            f"warm {timing['mor_warm_s']:8.3f}s   "
            f"speedup {timing['speedup_cold']:.2f}x/{timing['speedup_warm']:.2f}x warm"
        )
        print(
            f"  reduced {timing['mor_stats']['reduced_size']} of "
            f"{timing['mor_stats']['full_size']}   "
            f"mean err {timing['mean_relative_error']:.2e}   "
            f"std err {timing['std_relative_error']:.2e}"
        )
        if timing["mean_relative_error"] > ACCURACY_GATE:
            failures.append(f"mean error gate failed on {timing['nodes']} nodes")
        if timing["std_relative_error"] > ACCURACY_GATE:
            failures.append(f"std error gate failed on {timing['nodes']} nodes")
        if timing["warm_mor_stats"]["macromodels_reused"] == 0:
            failures.append(f"warm run rebuilt macromodels on {timing['nodes']} nodes")
        if timing["nodes"] >= GATED_NODES and timing["speedup_warm"] < SPEEDUP_GATE:
            failures.append(
                f"warm speedup {timing['speedup_warm']:.2f}x < {SPEEDUP_GATE}x "
                f"on {timing['nodes']} nodes"
            )

    sweep_nodes = large_node_count()
    plan = corner_sweep_plan(sweep_nodes)
    outcome = SweepRunner(workers=bench_workers(), telemetry=True).run(
        plan, store=bench_store("mor")
    )
    built = reused = 0
    for result in outcome:
        counters = (result.telemetry or {}).get("counters", {})
        built += int(counters.get("macromodels_built", 0))
        reused += int(counters.get("macromodels_reused", 0))
        print(f"  {result.name:40s} {result.wall_time:8.3f}s")
    print(
        f"corner sweep ({len(outcome)} corners): "
        f"{built} macromodel(s) built, {reused} reused"
    )
    if reused == 0:
        failures.append("corner sweep reused no macromodels")

    record = record_from_outcome(
        outcome,
        config={
            "suite": "mor",
            "order": ORDER,
            "reference": dict(REFERENCE),
            "engine_comparison": comparisons,
            "corner_sweep": {
                "nodes": int(sweep_nodes),
                "corners": list(CORNERS),
                "macromodels_built": built,
                "macromodels_reused": reused,
            },
            "gates": {
                "accuracy_relative": ACCURACY_GATE,
                "warm_speedup_min": SPEEDUP_GATE,
                "gated_nodes_min": GATED_NODES,
            },
            "gate_failures": list(failures),
        },
    )
    path = record.write(args.output)
    print(f"wrote {path}")

    if args.baseline is not None:
        report = compare_records(
            BenchRecord.load(args.baseline),
            record,
            max_regression_percent=args.max_regression,
            min_seconds=0.5,
        )
        print()
        print(report.format())
        if not report.ok:
            return 1

    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
