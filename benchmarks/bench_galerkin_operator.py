"""Explicit-kron vs matrix-free Galerkin: the linalg-subsystem benchmark.

Three comparisons, scaled by the shared ``OPERA_BENCH_*`` environment
variables (see ``_bench_config.py``):

1. **Assemble**: explicit CSR assembly of ``G~``/``C~`` (one COO
   concatenation) vs lazy :class:`~repro.linalg.KronSumOperator`
   construction, at growing chaos order on the largest grid.
2. **Apply**: one application of the stepping matrix ``G~ + C~/h`` --
   explicit CSR matvec vs matrix-free operator matvec.
3. **Solve**: the coupled stochastic transient, explicit assembly + direct
   LU vs lazy assembly + ``mean-block-cg`` (one ``n x n`` mean-block LU
   preconditioning all ``P`` chaos blocks), with the wall-time speedup and
   the mean/std agreement of the two paths recorded per grid and order.

The engine comparison doubles as a solver-ablation sweep
(``opera-nN-oK-direct-paper`` vs ``opera-nN-oK-mean-block-cg-paper`` cases), so
matrix-free wall times are tracked in the same
:class:`~repro.sweep.BenchRecord` schema as every other perf artifact.  The
record lands at the repo root as ``BENCH_galerkin.json`` (the perf
trajectory of this optimisation), with the raw assemble/apply timings and
the accuracy contract in its ``config`` block.

Run a larger study with::

    OPERA_BENCH_NODE_COUNTS=2500,10000 PYTHONPATH=src \
    python benchmarks/bench_galerkin_operator.py --output BENCH_galerkin.json
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.api import Analysis
from repro.chaos.galerkin import assemble_augmented_matrix, assemble_augmented_operator
from repro.opera.engine import _matrix_coefficients, build_basis
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

#: Base seed of the operator bench plan (fixed for reproducibility).
BASE_SEED = 31

#: Chaos orders of the raw operator comparison.
ORDERS = (2, 3)

#: Repetitions of the apply-timing loop.
APPLY_REPEATS = 5


def time_raw_operator(nodes: int, order: int) -> dict:
    """Assemble + apply wall times, explicit CSR vs lazy operator."""
    session = Analysis.from_spec(nodes, seed=grid_seed_for(nodes, BASE_SEED))
    system = session.system
    basis = build_basis(system, order)
    g_coefficients = _matrix_coefficients(basis, system.g_nominal, system.g_sensitivities)
    c_coefficients = _matrix_coefficients(basis, system.c_nominal, system.c_sensitivities)
    h = bench_transient().dt

    started = time.perf_counter()
    explicit_g = assemble_augmented_matrix(basis, g_coefficients)
    explicit_c = assemble_augmented_matrix(basis, c_coefficients)
    explicit_step = explicit_g + explicit_c / h
    explicit_assemble_s = time.perf_counter() - started

    started = time.perf_counter()
    lazy_g = assemble_augmented_operator(basis, g_coefficients)
    lazy_c = assemble_augmented_operator(basis, c_coefficients)
    lazy_step = lazy_g + lazy_c * (1.0 / h)
    lazy_assemble_s = time.perf_counter() - started

    x = np.linspace(0.0, 1.0, explicit_step.shape[0])
    out = np.empty(explicit_step.shape[0])
    started = time.perf_counter()
    for _ in range(APPLY_REPEATS):
        explicit_step @ x
    explicit_apply_s = (time.perf_counter() - started) / APPLY_REPEATS
    started = time.perf_counter()
    for _ in range(APPLY_REPEATS):
        lazy_step.matvec(x, out=out)
    lazy_apply_s = (time.perf_counter() - started) / APPLY_REPEATS
    apply_error = float(
        np.max(np.abs(lazy_step.matvec(x) - explicit_step @ x))
        / max(np.max(np.abs(explicit_step @ x)), 1e-300)
    )

    return {
        "nodes": int(system.num_nodes),
        "order": int(order),
        "basis_size": int(basis.size),
        "augmented_dim": int(explicit_step.shape[0]),
        "explicit_nnz": int(explicit_step.nnz),
        "explicit_assemble_s": float(explicit_assemble_s),
        "lazy_assemble_s": float(lazy_assemble_s),
        "explicit_apply_s": float(explicit_apply_s),
        "lazy_apply_s": float(lazy_apply_s),
        "apply_relative_error": apply_error,
    }


def time_transient_paths(nodes: int, order: int) -> dict:
    """Coupled transient: explicit+direct vs matrix-free mean-block-cg."""
    transient = bench_transient()
    session = Analysis.from_spec(nodes, seed=grid_seed_for(nodes, BASE_SEED))
    session.with_transient(transient)

    direct = session.run("opera", order=order, solver="direct", store_coefficients=False)
    session.clear_caches()  # fresh factorisations: time full cost per path
    matrix_free = session.run(
        "opera", order=order, solver="mean-block-cg", store_coefficients=False
    )

    mean_scale = float(np.max(np.abs(direct.mean())))
    std_scale = float(np.max(np.abs(direct.std())))
    mean_error = float(np.max(np.abs(matrix_free.mean() - direct.mean())) / mean_scale)
    std_error = float(np.max(np.abs(matrix_free.std() - direct.std())) / max(std_scale, 1e-300))
    return {
        "nodes": int(session.num_nodes),
        "order": int(order),
        "explicit_direct_s": float(direct.wall_time),
        "matrix_free_s": float(matrix_free.wall_time),
        "speedup": (
            float(direct.wall_time / matrix_free.wall_time)
            if matrix_free.wall_time > 0
            else None
        ),
        "mean_relative_error": mean_error,
        "std_relative_error": std_error,
        "solver_stats": matrix_free.solver_stats,
    }


def solver_ablation_plan(node_counts, order: int) -> SweepPlan:
    """Paired opera cases per grid: explicit direct vs mean-block-cg."""
    cases = []
    for nodes in node_counts:
        grid_seed = grid_seed_for(nodes, BASE_SEED)
        for solver in ("direct", "mean-block-cg"):
            case = SweepCase(
                engine="opera",
                nodes=int(nodes),
                grid_seed=grid_seed,
                order=order,
                solver=solver,
            )
            cases.append(case.with_derived_seed(BASE_SEED))
    return SweepPlan(cases=tuple(cases), transient=bench_transient(), base_seed=BASE_SEED)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_galerkin.json",
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
    parser.add_argument(
        "--order",
        type=int,
        default=2,
        help="chaos order of the engine-level sweep cases (default %(default)s)",
    )
    args = parser.parse_args(argv)

    largest = max(bench_node_counts())
    raw_operator = []
    raw_transient = []
    for order in ORDERS:
        print(f"raw operator comparison on ~{largest} nodes, order {order}")
        raw = time_raw_operator(largest, order)
        raw_operator.append(raw)
        print(
            f"  assemble explicit {raw['explicit_assemble_s']:8.3f}s   "
            f"lazy {raw['lazy_assemble_s']:8.3f}s"
        )
        print(
            f"  apply    explicit {raw['explicit_apply_s']:8.5f}s   "
            f"lazy {raw['lazy_apply_s']:8.5f}s   "
            f"(rel err {raw['apply_relative_error']:.2e})"
        )
        timing = time_transient_paths(largest, order)
        raw_transient.append(timing)
        print(
            f"  transient direct {timing['explicit_direct_s']:8.3f}s   "
            f"mean-block-cg {timing['matrix_free_s']:8.3f}s   "
            f"speedup {timing['speedup']:.2f}x   "
            f"mean err {timing['mean_relative_error']:.2e}   "
            f"std err {timing['std_relative_error']:.2e}"
        )

    plan = solver_ablation_plan(bench_node_counts(), args.order)
    outcome = SweepRunner(workers=bench_workers()).run(plan, store=bench_store("galerkin-operator"))
    record = record_from_outcome(
        outcome,
        config={
            "suite": "galerkin-operator",
            "raw_operator": raw_operator,
            "raw_transient": raw_transient,
        },
    )

    print(f"engine sweep: {len(outcome)} case(s), wall {outcome.wall_time:.2f}s")
    for result in outcome:
        print(f"  {result.name:48s} {result.wall_time:8.3f}s")

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
