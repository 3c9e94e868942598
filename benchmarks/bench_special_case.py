"""Section 5.1 special case: RHS-only (leakage) variation.

The paper shows that when only the drain currents vary, the Galerkin system
decouples into independent solves that share a single LU factorisation
(Eq. (27)).  This bench drives both paths through the engine registry:

* times the ``opera`` engine (which routes RHS-only variation to the
  decoupled path) and ``opera`` with ``force_coupled=True`` on the same
  leakage-variation session and checks they produce identical statistics
  -- the decoupled path must also be substantially faster;
* times the ``montecarlo`` engine for the speed-up figure;
* records the exact moments the special case produces (the improvement the
  paper claims over the variance *bounds* of prior work).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import compare_to_monte_carlo
from repro.api import Analysis
from repro.variation import LeakageVariationSpec, RegionPartition, build_leakage_system

from _bench_config import bench_mc_samples, bench_node_counts, bench_transient, write_result


@pytest.fixture(scope="module")
def leakage_session(grid_cache):
    target = sorted(bench_node_counts())[len(bench_node_counts()) // 2]
    spec, netlist, stamped, _ = grid_cache.get(target)
    partition = RegionPartition(nx=spec.nx, ny=spec.ny, region_rows=2, region_cols=2)
    system = build_leakage_system(stamped, partition, LeakageVariationSpec(vth_sigma=0.03))
    session = Analysis.from_netlist(netlist, stamped=stamped).with_system(system)
    session.with_transient(bench_transient())
    return session


def test_decoupled_solver_speed(benchmark, leakage_session, results_dir):
    """Time the decoupled special-case path (single factorisation)."""
    decoupled = benchmark.pedantic(
        leakage_session.run,
        kwargs=dict(engine="opera", order=2),
        rounds=1,
        iterations=1,
    ).raw

    coupled = leakage_session.run("opera", order=2, force_coupled=True).raw
    np.testing.assert_allclose(decoupled.mean_voltage, coupled.mean_voltage, atol=1e-10)
    np.testing.assert_allclose(decoupled.std_drop, coupled.std_drop, atol=1e-12)
    assert decoupled.wall_time < coupled.wall_time

    text = (
        "Section 5.1 special case (RHS-only leakage variation)\n"
        f"grid nodes                 : {leakage_session.num_nodes}\n"
        f"chaos terms (order 2, r=4) : {decoupled.basis.size}\n"
        f"decoupled wall time  (s)   : {decoupled.wall_time:.3f}\n"
        f"force-coupled wall time (s): {coupled.wall_time:.3f}\n"
        f"decoupled speed-up         : {coupled.wall_time / decoupled.wall_time:.1f}x\n"
        f"max |mean difference| (V)  : {np.max(np.abs(decoupled.mean_voltage - coupled.mean_voltage)):.2e}\n"
        f"max |sigma difference| (V) : {np.max(np.abs(decoupled.std_drop - coupled.std_drop)):.2e}\n"
    )
    write_result(results_dir, "special_case.txt", text)


def test_special_case_accuracy_vs_monte_carlo(benchmark, leakage_session, results_dir):
    """Exact moments from the decoupled path vs the Monte Carlo reference."""
    opera_result = benchmark.pedantic(
        leakage_session.run,
        kwargs=dict(engine="opera", order=3),
        rounds=1,
        iterations=1,
    ).raw
    mc_result = leakage_session.run(
        "montecarlo",
        samples=bench_mc_samples(),
        seed=37,
        antithetic=True,
    ).raw
    metrics = compare_to_monte_carlo(opera_result, mc_result)
    assert metrics.average_mean_error_percent < 2.0

    text = (
        "Special case accuracy against Monte Carlo "
        f"({mc_result.num_samples} samples)\n{metrics}\n"
        f"OPERA wall time (s): {opera_result.wall_time:.3f}\n"
        f"MC wall time (s)   : {mc_result.wall_time:.3f}\n"
        f"speed-up           : {mc_result.wall_time / opera_result.wall_time:.1f}x\n"
    )
    write_result(results_dir, "special_case_accuracy.txt", text)
