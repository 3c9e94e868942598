"""Command-line interface of the OPERA reproduction.

Five sub-commands cover the typical flow of the tool:

``opera-run generate``
    Synthesise a power grid and write it as a SPICE-subset deck.

``opera-run analyze``
    Run a stochastic analysis on a SPICE deck (or a freshly generated grid)
    and print the variation report.  ``--engine`` selects any registered
    analysis engine (``opera``, ``montecarlo``, ``deterministic``, ...) and
    ``--solver`` any registered linear-solver backend.

``opera-run compare``
    Run the stochastic engine and the Monte Carlo reference on the same grid
    and print the Table-1 style accuracy/speed-up row.

``opera-run sweep``
    Fan a grid of cases (node counts x engines x chaos orders x variation
    corners) out over worker processes, print the per-case wall times and
    speedups, and optionally emit a ``BenchRecord`` JSON artifact and gate
    it against a baseline artifact (see :mod:`repro.sweep`).  With
    ``--store DIR`` completed cases stream into an append-only on-disk
    results store as they finish; ``--resume`` restarts an interrupted
    campaign from that store, executing only the missing cases.  With
    ``--telemetry`` every case is profiled in its worker process and the
    merged campaign summary lands in the artifact.

``opera-run trace-report``
    Summarise a telemetry trace written by ``analyze --profile PATH``:
    per-phase wall-time totals, per-solver spans, step-loop statistics.

All analysis work is routed through the :class:`repro.api.Analysis` session
facade, so the sub-commands are thin argument adapters; unknown engine or
solver names produce the registry's listing of valid choices.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .api import Analysis, engine_names, get_engine, solver_names
from .errors import ReproError
from .grid import generate_power_grid, spec_for_node_count, write_spice
from .sim import TransientConfig
from .sim.linear import solver_factory
from .stepping import resolve_scheme, scheme_names
from .variation import VariationSpec

__all__ = ["main", "build_parser"]


def _int_list(text: str) -> List[int]:
    """Parse a comma-separated list of integers (argparse type)."""
    values = [int(token) for token in text.split(",") if token.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers")
    return values


def _str_list(text: str) -> List[str]:
    """Parse a comma-separated list of names (argparse type)."""
    values = [token.strip() for token in text.split(",") if token.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of names")
    return values


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="opera-run",
        description="Stochastic power grid analysis under process variations (OPERA).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="synthesise a power grid SPICE deck")
    generate.add_argument("output", help="path of the SPICE deck to write")
    generate.add_argument("--nodes", type=int, default=2000, help="approximate node count")
    generate.add_argument("--layers", type=int, default=2, help="number of metal layers")
    generate.add_argument("--blocks", type=int, default=9, help="number of functional blocks")
    generate.add_argument("--seed", type=int, default=0, help="generator seed")

    def add_analysis_arguments(sub: argparse.ArgumentParser) -> None:
        source = sub.add_mutually_exclusive_group(required=True)
        source.add_argument("--spice", help="SPICE-subset deck to analyse")
        source.add_argument(
            "--synthetic-nodes",
            type=int,
            help="generate a synthetic grid with roughly this many nodes",
        )
        sub.add_argument("--seed", type=int, default=0, help="synthetic grid seed")
        sub.add_argument(
            "--order",
            type=int,
            default=None,
            help="chaos expansion order (engine default: 2)",
        )
        sub.add_argument("--t-stop", type=float, default=8e-9, help="transient horizon (s)")
        sub.add_argument("--dt", type=float, default=0.2e-9, help="transient step (s)")
        sub.add_argument(
            "--solver",
            default=None,
            metavar="NAME",
            help=f"linear solver backend (registered: {', '.join(solver_names())})",
        )
        sub.add_argument(
            "--three-sigma",
            nargs=3,
            type=float,
            default=(20.0, 15.0, 20.0),
            metavar=("W", "T", "L"),
            help="3-sigma variation percentages for W, T and Leff",
        )

    analyze = subparsers.add_parser("analyze", help="run a stochastic analysis")
    add_analysis_arguments(analyze)
    analyze.add_argument(
        "--engine",
        default="opera",
        metavar="NAME",
        help=f"analysis engine (registered: {', '.join(engine_names())})",
    )
    analyze.add_argument(
        "--samples",
        type=int,
        default=None,
        help="sample count for the sampling engines (montecarlo default: 200; "
        "pce-regression default: twice the basis size)",
    )
    analyze.add_argument(
        "--degree",
        type=int,
        dest="order",
        help="alias of --order (regression-PCE vocabulary)",
    )
    analyze.add_argument(
        "--fit",
        default=None,
        metavar="NAME",
        help="coefficient fitter for the pce-regression engine "
        "(registered: ols, ridge, omp, lasso, ...)",
    )
    analyze.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (montecarlo / pce-regression chunking)",
    )
    analyze.add_argument(
        "--scheme",
        default=None,
        metavar="NAME",
        help="stepping scheme of the transient (registered: "
        f"{', '.join(scheme_names())}; parametrised specs like theta:0.75 "
        "are accepted)",
    )
    analyze.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="profile the run with repro.telemetry and write the JSON-lines "
        "trace (schema repro.telemetry/trace/v1) to PATH; inspect it with "
        "'opera-run trace-report PATH'",
    )

    compare = subparsers.add_parser("compare", help="compare OPERA against Monte Carlo")
    add_analysis_arguments(compare)
    compare.add_argument("--samples", type=int, default=200, help="Monte Carlo sample count")

    from .sweep.plan import corner_names  # deferred: keeps CLI import light

    sweep = subparsers.add_parser(
        "sweep",
        help="run a parallel analysis sweep and emit a benchmark artifact",
    )
    sweep.add_argument(
        "--nodes",
        type=_int_list,
        default=[600, 1200, 2500],
        metavar="N,N,...",
        help="target node counts of the synthetic grids (default: 600,1200,2500)",
    )
    sweep.add_argument(
        "--engines",
        type=_str_list,
        default=["opera", "montecarlo"],
        metavar="NAME,NAME,...",
        help=f"engines to sweep (registered: {', '.join(engine_names())})",
    )
    sweep.add_argument(
        "--orders",
        type=_int_list,
        default=[2],
        metavar="K,K,...",
        help="chaos expansion orders for the chaos engines (default: 2)",
    )
    sweep.add_argument(
        "--corners",
        type=_str_list,
        default=["paper"],
        metavar="NAME,NAME,...",
        help=f"variation corners (known: {', '.join(corner_names())})",
    )
    sweep.add_argument(
        "--samples", type=int, default=200, help="Monte Carlo sample count per MC case"
    )
    sweep.add_argument("--workers", type=int, default=1, help="worker processes for the sweep")
    sweep.add_argument(
        "--mc-workers",
        type=int,
        default=None,
        help="chunk workers inside each Monte Carlo case (default: --workers)",
    )
    sweep.add_argument(
        "--scheme",
        default=None,
        metavar="NAME",
        help=f"stepping scheme of every case (registered: {', '.join(scheme_names())})",
    )
    sweep.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persist completed cases in a sharded .npz results store at DIR "
        "(append-only; cases already in the store are reused instead of re-run)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted campaign from an existing --store directory, "
        "executing only the missing cases",
    )
    sweep.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="N",
        help="cases per store shard (default: 64); smaller shards flush "
        "progress to disk more often",
    )
    sweep.add_argument("--steps", type=int, default=12, help="transient steps of every case")
    sweep.add_argument("--dt", type=float, default=0.2e-9, help="transient step size (s)")
    sweep.add_argument("--base-seed", type=int, default=0, help="plan base seed")
    sweep.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the BenchRecord JSON artifact here",
    )
    sweep.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="gate the sweep against this baseline BenchRecord (exit 1 on regression)",
    )
    sweep.add_argument(
        "--max-regression",
        type=float,
        default=None,
        metavar="PCT",
        help="allowed wall-time growth vs the baseline, percent (default: 75)",
    )
    sweep.add_argument(
        "--telemetry",
        action="store_true",
        help="profile every case in its worker process; per-case summaries "
        "persist with the results and the merged campaign summary lands in "
        "the BenchRecord artifact",
    )

    trace_report = subparsers.add_parser(
        "trace-report",
        help="summarise a telemetry trace written by analyze --profile",
    )
    trace_report.add_argument(
        "trace",
        help="JSON-lines trace file (schema repro.telemetry/trace/v1)",
    )

    return parser


def _build_session(args: argparse.Namespace) -> Analysis:
    """An :class:`Analysis` session from the common sub-command arguments."""
    w, t, l = args.three_sigma
    variation = VariationSpec.from_three_sigma_percent(w=w, t=t, l=l)
    transient = TransientConfig(t_stop=args.t_stop, dt=args.dt)
    if getattr(args, "spice", None):
        return Analysis.from_spice(args.spice, variation=variation, transient=transient)
    spec = spec_for_node_count(args.synthetic_nodes, seed=args.seed)
    return Analysis.from_spec(spec, variation=variation, transient=transient)


def _check_names(args: argparse.Namespace) -> None:
    """Fail fast on unknown engine/solver names, before any expensive setup.

    Both registries are consulted through their own (case-normalising)
    lookups, so the CLI accepts exactly what the library accepts.
    """
    if args.solver is not None:
        solver_factory(args.solver)  # raises SolverError with a listing
    if getattr(args, "engine", None) is not None:
        get_engine(args.engine)  # raises AnalysisError with a listing
    if getattr(args, "scheme", None) is not None:
        resolve_scheme(args.scheme)  # raises SchemeError with a listing
    if getattr(args, "fit", None) is not None:
        from .regression.fit import get_fitter

        get_fitter(args.fit)  # raises RegressionError with a listing


def _command_generate(args: argparse.Namespace) -> int:
    spec = spec_for_node_count(
        args.nodes, num_layers=args.layers, num_blocks=args.blocks, seed=args.seed
    )
    netlist = generate_power_grid(spec)
    write_spice(netlist, args.output)
    print(f"wrote {netlist.stats()} to {args.output}")
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    _check_names(args)
    session = _build_session(args)
    # Only user-supplied options are forwarded, so every registered engine
    # works with its own defaults, and an engine that does not understand an
    # explicit option rejects it with a clear AnalysisError instead of the
    # CLI silently dropping it.
    options = {}
    if args.solver is not None:
        options["solver"] = args.solver
    if args.order is not None:
        options["order"] = args.order
    if args.samples is not None:
        options["samples"] = args.samples
    if args.workers is not None:
        options["workers"] = args.workers
    if getattr(args, "scheme", None) is not None:
        options["scheme"] = args.scheme
    if getattr(args, "fit", None) is not None:
        options["fit"] = args.fit
    trace_path = None
    if getattr(args, "profile", None):
        from .telemetry import profile, write_trace

        with profile() as tele:
            result = session.run(args.engine, **options)
        trace_path = write_trace(tele, args.profile)
    else:
        result = session.run(args.engine, **options)

    if hasattr(result.raw, "basis"):
        # Chaos-expansion engines get the full designer-facing report.
        print(session.summarize(result))
    else:
        summary = result.to_dict()
        print(f"engine {result.engine} ({result.mode} mode)")
        for key, value in summary.items():
            if key in ("engine", "mode"):
                continue
            print(f"  {key:12s}: {value}")
    if trace_path is not None:
        print(f"wrote telemetry trace to {trace_path}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    _check_names(args)
    session = _build_session(args)
    solver_options = {"solver": args.solver} if args.solver is not None else {}
    comparison = session.compare(
        order=args.order if args.order is not None else 2,
        samples=args.samples if args.samples is not None else 200,
        reference_options=solver_options,
        baseline_options=solver_options,
    )
    print(comparison.table(title="OPERA vs Monte Carlo"))
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .errors import StoreError
    from .sweep import (
        ShardedNpzBackend,
        SweepPlan,
        SweepRunner,
        BenchRecord,
        compare_records,
        record_from_outcome,
    )
    from .sweep.regress import DEFAULT_MAX_REGRESSION_PERCENT

    for engine in args.engines:
        get_engine(engine)  # fail fast with the registry's listing
    if args.scheme is not None:
        resolve_scheme(args.scheme)  # fail fast with the registry's listing
    if args.resume and args.store is None:
        raise StoreError("--resume needs --store DIR (the interrupted campaign's store)")
    if args.shard_size is not None and args.store is None:
        raise StoreError("--shard-size only applies together with --store DIR")
    store = None
    if args.store is not None:
        if args.resume and not Path(args.store).exists():
            raise StoreError(
                f"store {args.store} does not exist; drop --resume to start "
                "a fresh campaign there"
            )
        store_options = {} if args.shard_size is None else {"shard_size": args.shard_size}
        store = ShardedNpzBackend(args.store, **store_options)
    transient = TransientConfig(t_stop=args.steps * args.dt, dt=args.dt)
    plan = SweepPlan.grid(
        args.nodes,
        engines=args.engines,
        orders=args.orders,
        corners=args.corners,
        samples=args.samples,
        mc_workers=args.mc_workers if args.mc_workers is not None else args.workers,
        scheme=args.scheme,
        transient=transient,
        base_seed=args.base_seed,
    )
    runner = SweepRunner(workers=args.workers, telemetry=args.telemetry)
    outcome = runner.resume(plan, store) if args.resume else runner.run(plan, store=store)
    record = record_from_outcome(outcome)

    speedups = outcome.speedups()
    reused = f", {outcome.reused} from store" if outcome.reused else ""
    print(
        f"sweep: {len(outcome)} case(s), workers={args.workers}, "
        f"wall {outcome.wall_time:.2f}s ({outcome.executed} executed{reused})"
    )
    for result in outcome:
        speed = speedups.get(result.name)
        suffix = f"  speedup vs MC {speed:6.2f}x" if speed is not None else ""
        print(
            f"  {result.name:40s} {result.num_nodes:6d} nodes  "
            f"{result.wall_time:8.3f}s  worst drop {result.worst_drop:.4f}V{suffix}"
        )

    if args.telemetry:
        merged = outcome.telemetry_summary()
        if merged is not None:
            phases = merged.get("phases", {})
            breakdown = ", ".join(
                f"{phase} {phases[phase]['total_s']:.3f}s" for phase in sorted(phases)
            )
            print(f"telemetry: {merged['cases']} case(s) profiled; {breakdown}")

    if args.output:
        path = record.write(args.output)
        print(f"wrote benchmark artifact to {path}")

    if args.baseline:
        threshold = (
            args.max_regression
            if args.max_regression is not None
            else DEFAULT_MAX_REGRESSION_PERCENT
        )
        report = compare_records(
            BenchRecord.load(args.baseline), record, max_regression_percent=threshold
        )
        print()
        print(report.format())
        if not report.ok:
            return 1
    return 0


def _command_trace_report(args: argparse.Namespace) -> int:
    from .telemetry import read_trace, render_report

    try:
        events = read_trace(args.trace)
    except OSError as exc:
        print(f"opera-run: error: cannot read trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"opera-run: error: {exc}", file=sys.stderr)
        return 2
    print(render_report(events))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by the ``opera-run`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _command_generate,
        "analyze": _command_analyze,
        "compare": _command_compare,
        "sweep": _command_sweep,
        "trace-report": _command_trace_report,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"opera-run: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
