"""Workload definitions shared by the measured and the reference process.

Both processes rebuild the same inputs from ``--seed`` through these
functions, so no reference output ever passes through the measured
process.  See README.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import statistics
import zlib

import numpy as np

from repro.api import Analysis
from repro.grid.blocks import place_blocks
from repro.grid.generator import spec_for_node_count
from repro.sim.transient import TransientConfig
from repro.sweep import SweepPlan
from repro.sweep.plan import corner_names

#: Every workload integrates 12 backward-Euler steps of 0.2 ns.
TRANSIENT = TransientConfig(t_stop=2.4e-9, dt=0.2e-9)

#: Workload parameters per size; ``tiny`` is the self-test's scaled-down copy.
SIZES = {
    "full": {
        "opera-cg": {"nodes": 10_000},
        "montecarlo": {"nodes": 2_500, "samples": 5},
        "corner-sweep": {"nodes": (2_500, 5_000)},
    },
    "tiny": {
        "opera-cg": {"nodes": 300},
        "montecarlo": {"nodes": 150, "samples": 6},
        "corner-sweep": {"nodes": (80, 120)},
    },
}

#: A grid qualifies when its blocks cover the median area to within this share.
COVERAGE_BAND = 0.02
#: Candidate generator seeds tried per benchmark seed.
CANDIDATES = 2_000


def _coverage(nodes: int, grid_seed: int) -> int:
    """Bottom-layer nodes under functional blocks (hence current sources).

    Replays the generator's block placement, its first draw from
    ``default_rng(seed)``, without building the netlist.
    """
    spec = spec_for_node_count(nodes, seed=grid_seed)
    blocks = place_blocks(spec.nx, spec.ny, spec.num_blocks, np.random.default_rng(grid_seed))
    return sum((block.row1 - block.row0) * (block.col1 - block.col0) for block in blocks)


@functools.lru_cache(maxsize=None)
def _median_coverage(nodes: int) -> float:
    return statistics.median(_coverage(nodes, seed) for seed in range(201))


@functools.lru_cache(maxsize=None)
def grid_seed(nodes: int, seed: int) -> int:
    """The grid generator seed of benchmark ``seed``.

    Block sizes are random, so the number of current sources -- and with it
    the excitation work of every engine -- spreads by about a quarter
    between generator seeds.  The benchmark therefore takes, from a
    sequence of candidates derived from ``seed``, the first grid whose
    block coverage is within :data:`COVERAGE_BAND` of the median, so runs
    on different seeds measure grids of one size and one load.
    """
    target = _median_coverage(nodes)
    best, best_gap = None, None
    for index in range(CANDIDATES):
        candidate = zlib.crc32(f"{nodes}|{seed}|{index}".encode()) % 1_000_000
        gap = abs(_coverage(nodes, candidate) - target) / target
        if gap <= COVERAGE_BAND:
            return candidate
        if best_gap is None or gap < best_gap:
            best, best_gap = candidate, gap
    return best


def build_session(nodes: int, seed: int) -> Analysis:
    """Grid generation, MNA stamping and stochastic-system build: the set-up."""
    session = Analysis.from_spec(nodes, seed=grid_seed(nodes, seed), transient=TRANSIENT)
    session.stamped
    session.system
    return session


def fresh_analysis(session: Analysis) -> Analysis:
    """A cold session over an already-built grid: no cached basis, LU or assembly."""
    return Analysis(
        session.netlist, stamped=session.stamped, system=session.system, transient=TRANSIENT
    )


def run_opera_cg(session: Analysis):
    return session.run("opera", order=2, solver="mean-block-cg")


def run_montecarlo(session: Analysis, samples: int, seed: int):
    return session.run("montecarlo", samples=samples, seed=seed)


def run_reference(session: Analysis):
    """``opera`` with the direct solver: the accuracy reference of every engine."""
    return session.run("opera", order=2, solver="direct")


def sweep_plan(nodes, seed: int) -> SweepPlan:
    """``opera`` at orders 1 and 2 over every named corner on each grid size."""
    plan = SweepPlan.grid(
        nodes,
        engines=("opera",),
        orders=(1, 2),
        corners=corner_names(),
        transient=TRANSIENT,
        base_seed=seed,
    )
    cases = tuple(
        dataclasses.replace(case, grid_seed=grid_seed(case.nodes, seed)) for case in plan.cases
    )
    return SweepPlan(cases=cases, transient=TRANSIENT, base_seed=seed)


def sweep_workers() -> int:
    return min(2, os.cpu_count() or 1)
