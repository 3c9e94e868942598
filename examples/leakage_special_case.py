"""Section 5.1 special case: lognormal leakage currents from Vth variation.

The chip is divided into regions, each with its own Gaussian threshold-voltage
germ.  Because only the right-hand side of the MNA system is random, the
Galerkin system decouples: a single LU factorisation of (G + C/h) serves every
chaos coefficient and every time step.  Unlike the prior statistical
approaches the paper cites (which bound the variance), the expansion gives the
moments exactly -- this script prints them and cross-checks against Monte
Carlo.

The prebuilt leakage system is injected into an :class:`repro.Analysis`
session with ``with_system``, after which the ``opera`` engine (which takes
the decoupled special case on its own) and the ``montecarlo`` engine (and
the comparison metrics) run as usual.

Run with:  python examples/leakage_special_case.py [--regions 2] [--vth-sigma 0.03]
"""

import argparse

from repro import (
    Analysis,
    GridSpec,
    LeakageVariationSpec,
    RegionPartition,
    build_leakage_system,
    compare_to_monte_carlo,
    generate_power_grid,
    stamp,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regions", type=int, default=2, help="number of chip regions")
    parser.add_argument("--vth-sigma", type=float, default=0.03, help="per-region Vth sigma (V)")
    parser.add_argument("--samples", type=int, default=200, help="Monte Carlo samples")
    args = parser.parse_args()

    spec = GridSpec(nx=16, ny=16, num_layers=2, num_blocks=6, pad_spacing=2, seed=9)
    netlist = generate_power_grid(spec)
    stamped = stamp(netlist)

    partition = RegionPartition(nx=spec.nx, ny=spec.ny, region_rows=args.regions, region_cols=1)
    leakage_spec = LeakageVariationSpec(vth_sigma=args.vth_sigma)
    system = build_leakage_system(stamped, partition, leakage_spec)

    session = Analysis.from_netlist(netlist, stamped=stamped).with_system(system)
    session.with_transient(t_stop=3.0e-9, dt=0.2e-9)
    print(f"grid: {netlist.stats()}")
    print(
        f"leakage model: {partition.num_regions} regions, "
        f"lognormal sigma s = {leakage_spec.lognormal_sigma:.3f}"
    )

    opera_view = session.run("opera", order=3)
    opera_result = opera_view.raw
    print(f"OPERA (decoupled special case) finished in {opera_view.wall_time:.2f} s")

    worst = int(opera_result.worst_node())
    step = opera_result.peak_time_index(worst)
    field = opera_result.field_at(step).drop_field()
    print()
    print(f"worst node: index {worst} at t = {opera_result.times[step] * 1e9:.2f} ns")
    print(f"  exact mean drop      : {1e3 * field.mean[worst]:.3f} mV")
    print(f"  exact sigma          : {1e3 * field.std[worst]:.4f} mV")
    print(f"  sampled skewness     : {field.skewness()[worst]:.3f} (lognormal tail)")
    print(f"  sampled excess kurt. : {field.kurtosis()[worst]:.3f}")
    p01, p99 = field.percentiles([1, 99])[:, worst]
    print(f"  1%/99% drop percentiles: {1e3 * p01:.3f} / {1e3 * p99:.3f} mV")

    print()
    print(f"running Monte Carlo ({args.samples} samples) for cross-check ...")
    mc_view = session.run("montecarlo", samples=args.samples, seed=3, antithetic=True)
    metrics = compare_to_monte_carlo(opera_result, mc_view.raw)
    print(f"  {metrics}")
    print(f"  speed-up over this Monte Carlo: " f"{mc_view.wall_time / opera_view.wall_time:.0f}x")


if __name__ == "__main__":
    main()
