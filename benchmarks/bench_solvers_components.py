"""Micro-benchmarks of the building blocks (implementation-notes section).

The paper's implementation discussion attributes most of the cost to the
augmented-system solves and points at sparse solvers and model order
reduction as the levers.  These benches time the individual components so a
user can see where the milliseconds go on their machine:

* grid synthesis and MNA stamping,
* Galerkin assembly of the augmented matrices,
* one factorise+solve of the augmented system with each linear solver,
* nominal transient vs OPERA transient (the per-analysis overhead factor),
* PRIMA reduction of the nominal grid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid import generate_power_grid, spec_for_node_count, stamp
from repro.mor import prima_reduce
from repro.opera import build_basis, build_galerkin_system
from repro.sim import make_solver, solver_names, transient_analysis

from _bench_config import bench_node_counts, bench_transient, write_result


@pytest.fixture(scope="module")
def component_grid(grid_cache):
    target = sorted(bench_node_counts())[0]
    return grid_cache.get(target)


def test_grid_generation(benchmark):
    spec = spec_for_node_count(sorted(bench_node_counts())[0], seed=3)
    netlist = benchmark(generate_power_grid, spec)
    assert netlist.num_nodes > 0


def test_mna_stamping(benchmark, component_grid):
    _, netlist, _, _ = component_grid
    stamped = benchmark(stamp, netlist)
    assert stamped.conductance.nnz > 0


def test_galerkin_assembly(benchmark, component_grid):
    _, _, _, system = component_grid
    basis = build_basis(system, order=2)

    def assemble():
        return build_galerkin_system(system, basis)

    galerkin = benchmark(assemble)
    assert galerkin.conductance.shape[0] == basis.size * system.num_nodes


@pytest.mark.parametrize("method", solver_names())
def test_augmented_solve_by_method(benchmark, component_grid, results_dir, method):
    """Factorise/precondition + one solve of the augmented conductance system.

    Parametrised over the solver registry, so backends added with
    ``register_solver`` are picked up automatically; each gets the form of
    ``G~`` it consumes.
    """
    _, _, _, system = component_grid
    basis = build_basis(system, order=2)
    galerkin = build_galerkin_system(system, basis)
    conductance = galerkin.for_solver("conductance", method)
    rhs = galerkin.rhs(0.0)

    def factor_and_solve():
        solver = make_solver(conductance, method=method)
        return solver.solve(rhs)

    solution = benchmark(factor_and_solve)
    reference = make_solver(galerkin.conductance, method="direct").solve(rhs)
    np.testing.assert_allclose(solution, reference, rtol=1e-5, atol=1e-8)


def test_nominal_vs_opera_overhead(benchmark, component_grid, results_dir):
    """How much more expensive is the order-2 OPERA run than one nominal run?

    The augmented system is 6x larger, so a factor of roughly 6-30x is
    expected -- far below the ~1000x of a 1000-sample Monte Carlo.
    """
    from repro.api import Analysis

    _, netlist, stamped, system = component_grid
    transient = bench_transient()
    session = (
        Analysis.from_netlist(netlist, stamped=stamped)
        .with_system(system)
        .with_transient(transient)
    )

    opera_view = benchmark.pedantic(
        session.run, kwargs=dict(engine="opera", order=2), rounds=1, iterations=1
    )
    import time

    started = time.perf_counter()
    transient_analysis(stamped, transient)
    nominal_seconds = time.perf_counter() - started

    overhead = (opera_view.wall_time or 0.0) / max(nominal_seconds, 1e-9)
    text = (
        "OPERA overhead relative to one nominal transient (order 2, 2 germs)\n"
        f"nominal transient (s): {nominal_seconds:.3f}\n"
        f"OPERA transient (s)  : {opera_view.wall_time:.3f}\n"
        f"overhead factor      : {overhead:.1f}x "
        "(a 1000-sample Monte Carlo costs ~1000x)\n"
    )
    write_result(results_dir, "opera_overhead.txt", text)
    assert overhead < 200.0


def test_prima_reduction(benchmark, component_grid):
    _, _, stamped, _ = component_grid
    ports = np.unique(np.concatenate([stamped.source_nodes[:8], stamped.pad_nodes[:4]]))
    model = benchmark(prima_reduce, stamped.conductance, stamped.capacitance, ports, 2)
    assert model.order <= 2 * ports.size
