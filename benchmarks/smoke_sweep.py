"""CI smoke sweep: run the sweep runner on tiny grids and emit an artifact.

This is the entry point of the ``bench-smoke`` CI job.  Scale comes from the
``OPERA_BENCH_*`` environment variables shared by every bench module (see
``_bench_config.py``); the job sets them to tiny values, runs this script,
uploads the emitted :class:`~repro.sweep.BenchRecord` JSON as a workflow
artifact, and gates it against the committed baseline
``benchmarks/results/smoke_baseline.json``.

The CI job runs in *store mode*: a first invocation with ``--store DIR
--interrupt N`` executes only the first ``N`` cases into a sharded on-disk
results store and exits (a stand-in for a killed campaign), and a second
invocation with the same ``--store`` resumes -- reusing the persisted
cases, executing the rest, and gating the record exported from the store
(:func:`repro.sweep.record_from_store`) against the committed baseline.

Regenerate the baseline after an intentional perf change with the same
environment the CI job uses::

    OPERA_BENCH_NODE_COUNTS=120,250 OPERA_BENCH_MC_SAMPLES=16 \
    OPERA_BENCH_STEPS=6 OPERA_BENCH_WORKERS=2 PYTHONPATH=src \
    python benchmarks/smoke_sweep.py --output benchmarks/results/smoke_baseline.json
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.sweep import (
    BenchRecord,
    ShardedNpzBackend,
    SweepCase,
    SweepPlan,
    SweepRunner,
    check_throughput,
    compare_records,
    record_from_outcome,
    record_from_store,
)
from repro.sweep.plan import grid_seed_for

from _bench_config import (
    RESULTS_DIR,
    bench_mc_samples,
    bench_node_counts,
    bench_transient,
    bench_workers,
)

#: Base seed of the smoke plan; fixed so baseline and current runs match.
BASE_SEED = 11

#: Shard size of the smoke store: tiny, so even the interrupted first half
#: of the CI campaign flushes several shards and the resume genuinely reads
#: multi-shard state back.
STORE_SHARD_SIZE = 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=RESULTS_DIR / "smoke_sweep.json",
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
        help="allowed wall-time growth vs the baseline, percent "
        "(generous: CI runners vary; default %(default)s)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.5,
        metavar="S",
        help="clamp wall times up to this floor before comparing; generous "
        "because baseline and current run on different hardware "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--min-throughput",
        type=float,
        default=None,
        metavar="CPS",
        help="require the run to sustain this many cases/second "
        "(clamped: runs at most --throughput-min-seconds long always pass)",
    )
    parser.add_argument(
        "--throughput-min-seconds",
        type=float,
        default=2.0,
        metavar="S",
        help="total wall time below which the throughput floor is waived "
        "(default %(default)s; CI smoke grids are tiny and noisy)",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help="stream completed cases into a sharded .npz results store; "
        "cases already present are reused instead of re-run",
    )
    parser.add_argument(
        "--interrupt",
        type=int,
        default=None,
        metavar="N",
        help="run only the first N plan cases into the store and exit "
        "(simulates a killed campaign; requires --store)",
    )
    args = parser.parse_args(argv)
    if args.interrupt is not None and args.store is None:
        parser.error("--interrupt requires --store")

    plan = SweepPlan.grid(
        bench_node_counts(),
        # pce-regression rides the same grid: one non-intrusive case per
        # grid, chunked over the same worker count as Monte Carlo.  Its
        # cases are appended by identity, so pre-existing case seeds are
        # untouched (append-only identity rule).
        engines=("opera", "montecarlo", "pce-regression"),
        orders=(2,),
        samples=bench_mc_samples(),
        mc_workers=bench_workers(),
        # Small chunks so even the tiny CI sample counts split into several
        # chunks and the job genuinely exercises the process-pool path.
        mc_chunk_size=8,
        transient=bench_transient(),
        base_seed=BASE_SEED,
    )
    # One matrix-free case per grid (the opera engine on the lazy
    # Kronecker-sum operators with the mean-block-cg backend) and one
    # backward-euler case per grid (the opera engine through the shared
    # repro.stepping core on the first-order scheme), so the smoke job
    # exercises -- and the gate tracks -- the operator path and the scheme
    # plumbing.  Since opera defaults to mean-block-cg, one more case per
    # grid runs the paper's reference path (the explicit Kronecker LU of
    # the direct backend); it is newer than the committed baseline, so the
    # gate reports it as added until the baseline is regenerated.
    # Hand-built appended cases derive their seeds via the append-only
    # identity, so the grid cases' seeds are unchanged.
    def extra_case(nodes: int, **fields) -> SweepCase:
        return SweepCase(
            engine="opera",
            nodes=int(nodes),
            grid_seed=grid_seed_for(nodes, BASE_SEED),
            order=2,
            **fields,
        ).with_derived_seed(BASE_SEED)

    extras = tuple(
        extra_case(nodes, **fields)
        for nodes in bench_node_counts()
        for fields in (
            {"solver": "mean-block-cg"},
            {"scheme": "backward-euler"},
            {"solver": "direct"},
        )
    )
    plan = dataclasses.replace(plan, cases=plan.cases + extras)

    if args.interrupt is not None:
        # Interrupted campaign: execute only a prefix of the plan into the
        # store, then stop -- the next (resuming) invocation picks up the
        # remaining cases from the flushed shards.
        truncated = dataclasses.replace(plan, cases=plan.cases[: args.interrupt])
        store = ShardedNpzBackend(args.store, shard_size=STORE_SHARD_SIZE)
        outcome = SweepRunner(workers=bench_workers()).run(truncated, store=store)
        print(
            f"smoke sweep interrupted after {outcome.executed} of "
            f"{len(plan.cases)} case(s); store at {args.store}"
        )
        return 0

    store = None
    if args.store is not None:
        store = ShardedNpzBackend(args.store, shard_size=STORE_SHARD_SIZE)
    outcome = SweepRunner(workers=bench_workers()).run(plan, store=store)
    if store is not None:
        # Exercise the store's export view: the artifact the gate consumes
        # is rebuilt purely from the persisted shards.
        record = record_from_store(store, plan=plan, config={"suite": "smoke"})
    else:
        record = record_from_outcome(outcome, config={"suite": "smoke"})

    speedups = outcome.speedups()
    reused = f" ({outcome.reused} from store)" if outcome.reused else ""
    print(f"smoke sweep: {len(outcome)} case(s), wall {outcome.wall_time:.2f}s{reused}")
    for result in outcome:
        speed = speedups.get(result.name)
        suffix = f"  speedup vs MC {speed:.2f}x" if speed is not None else ""
        print(f"  {result.name:40s} {result.wall_time:8.3f}s{suffix}")

    path = record.write(args.output)
    print(f"wrote {path}")

    if args.min_throughput is not None:
        # Gate throughput on the live outcome (store exports have no sweep
        # wall time), with the clamped floor: tiny CI runs pass vacuously.
        live = record_from_outcome(outcome)
        throughput = check_throughput(
            live, args.min_throughput, min_seconds=args.throughput_min_seconds
        )
        print(throughput.format())
        if not throughput.ok:
            return 1

    if args.baseline is not None:
        report = compare_records(
            BenchRecord.load(args.baseline),
            record,
            max_regression_percent=args.max_regression,
            min_seconds=args.min_seconds,
        )
        print()
        print(report.format())
        if not report.ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
