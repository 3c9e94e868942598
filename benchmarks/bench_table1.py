"""Table 1 reproduction: OPERA vs Monte Carlo over several grid sizes.

This harness drives the :mod:`repro.sweep` subsystem: one
:class:`~repro.sweep.SweepPlan` covers every benchmark grid with an OPERA
order-2 case and a Monte Carlo case, executed by a
:class:`~repro.sweep.SweepRunner` (``OPERA_BENCH_WORKERS`` controls the
process-pool width; the statistics are identical for any worker count).
From the sweep results each test then

* computes the average/maximum percentage errors of mu and sigma and the
  average +/-3-sigma spread as a percentage of the nominal drop,
* appends the row to ``benchmarks/results/table1.txt`` next to the paper's
  original Table 1 for shape comparison,

and the module fixture writes the sweep's :class:`~repro.sweep.BenchRecord`
artifact (wall times, worst drops, OPERA-vs-MC speedups) to
``benchmarks/results/table1_sweep.json``.

Scale is controlled by the environment variables documented in
``benchmarks/_bench_config.py``; absolute times differ from the 2005
testbed, but the shape (mu errors << sigma errors, spreads around
+/-30-45 %, OPERA much faster than Monte Carlo) is what the reproduction
checks.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis import (
    PAPER_TABLE1,
    Table1Row,
    compare_to_monte_carlo,
    format_table1,
    three_sigma_spread_percent,
)
from repro.api import Analysis
from repro.sweep import SweepCase, SweepPlan, SweepRunner, record_from_outcome
from repro.sweep.plan import corner_spec, grid_seed_for

from _bench_config import (
    bench_mc_samples,
    bench_node_counts,
    bench_store,
    bench_transient,
    bench_workers,
    write_result,
)

#: Base seed of the Table-1 sweep plan (fixed for reproducible rows).
BASE_SEED = 7


def _direct_case(nodes: int) -> SweepCase:
    """An opera case on the explicit Kronecker sum with the direct LU (the
    paper's method; the default case runs ``mean-block-cg``)."""
    return SweepCase(
        engine="opera",
        nodes=int(nodes),
        grid_seed=grid_seed_for(nodes, BASE_SEED),
        order=2,
        solver="direct",
    ).with_derived_seed(BASE_SEED)


@pytest.fixture(scope="module")
def table1_sweep(results_dir):
    """One sweep over all benchmark grids: OPERA order-2 (matrix-free
    ``mean-block-cg`` and explicit direct) + Monte Carlo."""
    plan = SweepPlan.grid(
        bench_node_counts(),
        engines=("opera", "montecarlo"),
        orders=(2,),
        samples=bench_mc_samples(),
        mc_workers=bench_workers(),
        transient=bench_transient(),
        base_seed=BASE_SEED,
    )
    plan = dataclasses.replace(
        plan, cases=plan.cases + tuple(_direct_case(nodes) for nodes in bench_node_counts())
    )
    runner = SweepRunner(workers=bench_workers(), keep_statistics=True)
    # With OPERA_BENCH_STORE set, Table-1 rows are resumable: re-runs (or
    # runs killed half-way) reuse the persisted cases instead of re-solving.
    outcome = runner.run(plan, store=bench_store("table1"))
    record = record_from_outcome(outcome, config={"suite": "table1"})
    record.write(results_dir / "table1_sweep.json")
    return outcome


@pytest.mark.parametrize("target_nodes", bench_node_counts())
def test_matrix_free_solver_matches_direct(table1_sweep, target_nodes):
    """The default (``mean-block-cg``) case reproduces the explicit-direct
    statistics: the tight CG tolerance keeps the Table-1 rows
    solver-independent.
    """
    direct = table1_sweep.case(engine="opera", nodes=target_nodes, solver="direct")
    fast = table1_sweep.case(engine="opera", nodes=target_nodes, solver=None)
    np.testing.assert_allclose(fast.mean, direct.mean, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(fast.std, direct.std, rtol=0.0, atol=1e-9)


def _nominal_transient(outcome, nodes: int):
    """The nominal (no-variation) transient of the sweep's grid for ``nodes``."""
    case = next(
        case for case in outcome.plan.cases if case.engine == "opera" and case.nodes == nodes
    )
    session = Analysis.from_spec(
        case.nodes,
        seed=case.grid_seed,
        variation=corner_spec(case.corner),
        transient=outcome.plan.transient,
    )
    return session.nominal_transient()


@pytest.mark.parametrize("target_nodes", bench_node_counts())
def test_table1_row(table1_sweep, table1_rows, results_dir, target_nodes):
    """One row of Table 1: accuracy and speed-up for a single grid."""
    opera = table1_sweep.case(engine="opera", nodes=target_nodes, solver=None)
    mc = table1_sweep.case(engine="montecarlo", nodes=target_nodes)

    metrics = compare_to_monte_carlo(opera, mc)
    nominal = _nominal_transient(table1_sweep, target_nodes)
    spread = three_sigma_spread_percent(opera, nominal)

    row = Table1Row.from_metrics(
        name=f"synthetic-{opera.num_nodes}",
        num_nodes=opera.num_nodes,
        metrics=metrics,
        three_sigma_spread=spread,
        monte_carlo_seconds=mc.wall_time,
        opera_seconds=opera.wall_time,
    )
    table1_rows[opera.num_nodes] = row

    # Shape assertions mirroring the paper's findings.
    assert metrics.average_mean_error_percent < 1.0
    assert metrics.average_sigma_error_percent < 25.0
    assert 20.0 < spread < 60.0
    assert row.speedup > 3.0

    transient = table1_sweep.plan.transient
    rows = [table1_rows[key] for key in sorted(table1_rows)]
    text = "\n\n".join(
        [
            format_table1(
                rows,
                title=(
                    "Table 1 (reproduced on synthetic grids; "
                    f"MC samples = {bench_mc_samples()}, "
                    f"steps = {transient.num_steps}, order-2 expansion, "
                    f"sweep workers = {bench_workers()})"
                ),
            ),
            format_table1(PAPER_TABLE1, title="Table 1 (paper, for shape comparison)"),
        ]
    )
    write_result(results_dir, "table1.txt", text + "\n")
