"""The measured process of one benchmark run.

``run.py`` starts it once per run, alone, with BLAS/OpenMP pinned to one
thread (sweep pool workers inherit that environment).  It builds the
workload's inputs from the seed, times the workload for ``--seconds`` and
writes the metrics, the failure counts and the outputs to check into the
run directory.  It computes no reference: ``reference.py`` does, in a
process of its own, so reference work shows neither in the timings nor in
the peak RSS measured here.

A time metric is the fastest of its timed repeats.  The host only ever
slows a repeat down, and its slow spells last seconds to tens of seconds,
so the fastest repeat of a run moves far less between runs than the median
(see README.md).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from repro.sim.linear import clear_pattern_cache
from repro.sweep import SweepPlan, SweepRunner

import tracer as tracing
import workloads

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Shortest timed region; a faster set-up is timed as a batch of repeats.
MIN_REGION_S = 1.0
#: Fewest timed rounds of an analysis / a sweep, whatever ``--seconds`` allows.
MIN_ROUNDS = 5
MIN_SWEEPS = 3
#: Traced set-ups per traced run.
TRACED_SETUPS = 3
#: Repeats of an operation must reproduce its first outputs to this tolerance.
REPEAT_RTOL = 1e-12

#: Per-layer metrics whose key in the per-run layer totals differs from
#: their name; every other layer metric is its own key.
LAYER_KEYS = {
    "linalg.cg_solves": "linalg.cg_calls",
    "linalg.cg_iterations": "linalg.cg_extra",
    "stepping.steps": "stepping.march_extra",
    "trace.other_s": "other_s",
    "trace.wall_s": "wall_s",
}
#: Layers measured on the traced set-ups; all others on the traced operations
#: (on corner-sweep both are the sweeps, whose pool workers build the grids).
SETUP_LAYERS = {"grid.generate_s", "grid.stamp_s", "variation.build_s"}


class Run:
    """Failure accounting, timing and trace bookkeeping of one run."""

    def __init__(self, tracer: tracing.Tracer):
        self.attempted = 0
        self.failed = 0
        self.tracer = tracer
        self.traced = False
        #: Wall time the bench measured around each traced run, by run id.
        self.walls = {}

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        print(f"measure.py: failed operation: {message}", file=sys.stderr)

    def attempt(self, operation, count: int = 1):
        """``operation()``; a raised error fails its ``count`` operations."""
        self.attempted += count
        try:
            return operation()
        except Exception:  # boundary of the measured loop: record, keep going
            self.fail(traceback.format_exc(), count)
            return None

    def timed(self, operation, run_id: str):
        """``(wall seconds, result)`` of ``operation`` after a full collection.

        Traced, the call is the root span ``bench.<kind>`` of run ``run_id``.
        """
        gc.collect()
        if not self.traced:
            started = time.perf_counter()
            result = operation()
            return time.perf_counter() - started, result
        self.tracer.run = run_id
        started = time.perf_counter()
        try:
            result = self.tracer.call("bench." + run_id.split("-")[0], operation)
        finally:
            # Raised or not, the root span is recorded and needs its wall.
            self.walls[run_id] = time.perf_counter() - started
        return self.walls[run_id], result

    def with_tracer(self, operation):
        """``operation`` with the tracer installed around each call."""

        def traced(run_id):
            self.tracer.install()
            self.traced = True
            try:
                return operation(run_id)
            finally:
                self.traced = False
                self.tracer.uninstall()

        return traced

    def rounds(self, operations, seconds: float, minimum: int):
        """Call each ``(kind, operation, count)`` in turn, round after round,
        for ``seconds`` and at least ``minimum`` rounds.

        Returns one list per operation of the results of ``operation(run_id)``
        by round, ``None`` where the call raised (its ``count`` operations
        fail).  Taking turns spreads every operation over the whole run.
        """
        results = [[] for _ in operations]
        started = time.perf_counter()
        index = 0
        while index < minimum or time.perf_counter() - started < seconds:
            for column, (kind, operation, count) in zip(results, operations):
                run_id = f"{kind}-{index}"
                column.append(self.attempt(lambda: operation(run_id), count))
            index += 1
        return results


def done(results):
    """The results of the calls that did not raise."""
    return [result for result in results if result is not None]


def fastest(metrics: dict, name: str, walls) -> None:
    """Set time metric ``name`` to the fastest of ``walls`` (unset if all failed)."""
    walls = done(walls)
    if walls:
        metrics[name] = (min(walls), "s")


class Outputs:
    """The first outputs of every operation, and the check that each repeat
    is finite and reproduces them (they go to the reference check)."""

    def __init__(self):
        self.first = {}

    def check(self, run: Run, arrays) -> None:
        bad = [name for name, value in arrays.items() if not np.all(np.isfinite(value))]
        for name, value in arrays.items():
            first = self.first.setdefault(name, value)
            scale = max(float(np.max(np.abs(first), initial=0.0)), 1e-300)
            if value.shape != first.shape or np.max(np.abs(value - first), initial=0.0) > (
                REPEAT_RTOL * scale
            ):
                bad.append(name)
        if bad:
            run.fail("outputs non-finite or not reproduced: " + ", ".join(bad))

    def save(self, path: Path) -> None:
        np.savez(path, **self.first)


def setup_round(run: Run, build, count: int, run_id: str) -> float:
    """Seconds per set-up, timed over ``count`` set-ups in one region.

    Each set-up is dropped before the next starts, so the peak RSS does not
    depend on ``count`` (which follows the warm-up's speed).
    """

    def builds():
        for _ in range(count):
            build()

    wall, _ = run.timed(builds, run_id)
    return wall / count


def paired_overhead(untraced, traced) -> "float | None":
    """Median over adjacent (untraced, traced) pairs of traced / untraced - 1."""
    ratios = [b / a - 1.0 for a, b in zip(untraced, traced) if a is not None and b is not None]
    return statistics.median(ratios) if ratios else None


def trace_metrics(run: Run, setups, ops, overhead: "float | None", sweeps=()):
    """Per-layer metrics of the traced runs; fails the run on a broken identity."""
    spans = run.tracer.spans
    for error in tracing.identity_errors(spans, run.walls, pooled=bool(sweeps)):
        run.fail("trace identity: " + error)
    per_run = tracing.layer_totals(spans, tracing.self_times(spans))
    for run_id, wall in run.walls.items():
        per_run.setdefault(run_id, {})["wall_s"] = wall
    metrics = {}
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_frac":
            values = [] if overhead is None else [overhead]
        elif name.startswith("sweep."):
            values = [stats[name] for stats in sweeps] or [0]
        else:
            # A layer the run never entered has no spans: its total is zero.
            key = LAYER_KEYS.get(name, name)
            run_ids = setups if name in SETUP_LAYERS else ops
            values = [per_run.get(run_id, {}).get(key, 0) for run_id in run_ids]
        if values:
            metrics[name] = (statistics.median(values), metric["unit"])
    return metrics


# --------------------------------------------------------------- workloads
def measure_single(args, run: Run, outputs: Outputs):
    """opera-cg and montecarlo: one cold ``Analysis.run`` per timed repeat."""
    config = workloads.SIZES[args.size][args.workload]
    build = functools.partial(workloads.build_session, config["nodes"], args.seed)
    if args.workload == "opera-cg":
        engine = workloads.run_opera_cg
    else:
        engine = functools.partial(
            workloads.run_montecarlo, samples=config["samples"], seed=args.seed
        )

    # Warm-up set-up, discarded; its time sizes the timed set-up rounds.
    warmup = run.attempt(lambda: run.timed(build, "setup-warmup"))
    if warmup is None:
        return {}
    first_setup, session = warmup

    def analysis(run_id):
        fresh = workloads.fresh_analysis(session)
        clear_pattern_cache()
        wall, view = run.timed(lambda: engine(fresh), run_id)
        outputs.check(run, {"mean": view.mean(), "std": view.std()})
        return wall

    run.attempt(lambda: analysis("warmup"))
    if not args.trace:
        per_round = max(1, math.ceil(MIN_REGION_S / first_setup))
        setups, walls = run.rounds(
            (("setup", lambda run_id: setup_round(run, build, per_round, run_id), 1),
             ("analysis", analysis, 1)),
            args.seconds,
            MIN_ROUNDS,
        )
        metrics = {}
        fastest(metrics, "setup_s", setups)
        fastest(metrics, "analysis_s", walls)
        if len(metrics) == 2:
            # A cold case from netlist to drop map: set-up plus analysis.
            cold = metrics["setup_s"][0] + metrics["analysis_s"][0]
            metrics["cases_per_s"] = (1.0 / cold, "1/s")
        return metrics

    traced_build = run.with_tracer(lambda run_id: run.timed(build, run_id))
    setups = [f"setup-{index}" for index in range(TRACED_SETUPS)]
    for run_id in setups:
        run.attempt(lambda: traced_build(run_id))
    untraced, traced = run.rounds(
        (("untraced", analysis, 1), ("analysis", run.with_tracer(analysis), 1)),
        args.seconds,
        2,
    )
    ops = [run_id for run_id in run.walls if run_id.startswith("analysis-")]
    return trace_metrics(run, setups, ops, paired_overhead(untraced, traced))


def measure_sweep(args, run: Run, outputs: Outputs):
    """corner-sweep: one cold ``SweepRunner.run`` per timed repeat."""
    nodes = workloads.SIZES[args.size][args.workload]["nodes"]
    plan = workloads.sweep_plan(nodes, args.seed)
    workers = workloads.sweep_workers()
    # Traced runs keep the telemetry counters on in both halves of each pair,
    # so the overhead is the tracer's alone.
    telemetry = bool(args.trace)

    def sweep(run_id, sweep_plan=plan):
        runner = SweepRunner(workers=workers, keep_statistics=True, telemetry=telemetry)
        clear_pattern_cache()
        wall, outcome = run.timed(lambda: runner.run(sweep_plan), run_id)
        results = outcome.results
        for result in results:
            outputs.check(run, {f"{result.name}__mean": result.mean,
                                f"{result.name}__std": result.std})
        case_sum = sum(result.wall_time for result in results)
        counters = (outcome.telemetry_summary() or {}).get("counters", {})
        return {
            "wall": wall,
            "case_walls": {result.name: result.wall_time for result in results},
            "sweep.cases": len(results),
            "sweep.case_s_sum": case_sum,
            # Busy share of the pool: summed case wall over wall x workers.
            "sweep.busy_frac": case_sum / (wall * workers),
            "sweep.idle_s": wall * workers - case_sum,
            "sweep.symbolic_reuse": counters.get("symbolic_reuse", 0),
            "sweep.numeric_refactor": counters.get("numeric_refactor", 0),
            "sweep.shm_bytes": counters.get("shm_bytes", 0),
        }

    # Warm-up: the plan's first two cases through a pool, discarded.
    warmup = SweepPlan(cases=plan.cases[:2], transient=plan.transient, base_seed=plan.base_seed)
    run.attempt(lambda: sweep("warmup", warmup), len(warmup))
    if not args.trace:

        def build():
            return [workloads.build_session(count, args.seed) for count in nodes]

        def setup_pair(run_id):
            # Two set-up rounds per sweep, which lasts several times longer.
            return min(setup_round(run, build, per_round, f"{run_id}.{half}") for half in "ab")

        first_setup = run.attempt(lambda: run.timed(build, "setup-warmup"))
        per_round = max(1, math.ceil(MIN_REGION_S / first_setup[0])) if first_setup else 1
        sweeps, setups = run.rounds(
            (("sweep", sweep, len(plan)), ("setup", setup_pair, 2)), args.seconds, MIN_SWEEPS
        )
        metrics = {}
        sweeps = done(sweeps)
        if sweeps:
            # Mean over the cases of each case's fastest wall time.
            walls = [s["case_walls"] for s in sweeps]
            analysis_s = statistics.fmean(min(w[name] for w in walls) for name in walls[0])
            metrics["analysis_s"] = (analysis_s, "s")
            metrics["cases_per_s"] = (max(len(plan) / s["wall"] for s in sweeps), "1/s")
        fastest(metrics, "setup_s", setups)
        return metrics

    untraced, traced = run.rounds(
        (("untraced", sweep, len(plan)), ("sweep", run.with_tracer(sweep), len(plan))),
        args.seconds,
        1,
    )
    run.tracer.collect_spills()
    overhead = paired_overhead(
        [s and s["wall"] for s in untraced], [s and s["wall"] for s in traced]
    )
    ops = [run_id for run_id in run.walls if run_id.startswith("sweep-")]
    return trace_metrics(run, ops, ops, overhead, done(traced))


def peak_rss_mib() -> float:
    """High-water RSS of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)

    run = Run(tracing.Tracer(args.run_dir))
    outputs = Outputs()
    measure = measure_sweep if args.workload == "corner-sweep" else measure_single
    metrics = measure(args, run, outputs)
    if args.trace:
        tracing.write_spans(args.spans, run.tracer.spans, run.walls)
    else:
        metrics["peak_rss_mb"] = (peak_rss_mib(), "MiB")
    outputs.save(args.run_dir / "outputs.npz")
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (args.run_dir / "measured.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
