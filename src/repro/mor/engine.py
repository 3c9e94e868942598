"""The ``mor`` analysis engine: macromodel-accelerated partitioned OPERA.

Runs the paper's stochastic Galerkin analysis on a fixed atom tiling of the
grid (:func:`repro.partition.system_partition`) and replaces every atom's
interior by a one-time PRIMA reduction of its nominal block
(:mod:`repro.mor.macromodel`): the augmented system is projected
through the per-atom bases onto a small block system
(:mod:`repro.mor.reduced`) whose size is the interface plus a handful of
reduced coordinates per atom, the step loop marches *only* that system, and
per-node statistics are back-substituted through the stored projection
bases afterwards (one BLAS-3 product per atom).

Accuracy is controlled by the reduction order ``mor_order`` (matched block
moments ``q``); the default ``q = 2`` reproduces the exact engines' mean
and standard deviation to well below ``1e-3`` relative error on the bench
grids.  Because the projection basis depends only on the nominal block
matrices and the port structure -- never on a corner's sensitivity
magnitudes -- macromodels are cached on the :class:`~repro.api.Analysis`
session and reused across corners, schemes and repeated runs (guarded by
:meth:`~repro.mor.macromodel.BlockMacromodel.covers`), mirroring how the
sweep runner reuses factorizations across corners of one topology.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..api.engines import (
    _check_mode,
    _reject_unknown,
    _resolve_transient,
    register_engine,
)
from ..api.result import StochasticResultView
from ..chaos.galerkin import GalerkinSystem
from ..chaos.response import StochasticTransientResult
from ..chaos.triples import triple_product_tensors
from ..errors import AnalysisError
from ..partition.partitioner import GridPartition, system_partition
from ..sim.transient import TransientConfig
from ..stepping import StepLoop
from ..telemetry import current_telemetry
from ..variation.model import StochasticSystem
from .adapter import MorSystemAdapter
from .macromodel import (
    block_coupling,
    build_block_macromodel,
    excitation_directions,
    macromodel_key,
)
from .reduced import build_reduced_operators, reduce_rhs_series

__all__ = ["mor_atom_count", "run_mor_transient"]

#: The default reduction order (matched block moments ``q``).
DEFAULT_REDUCTION_ORDER = 2


def mor_atom_count(num_nodes: int) -> int:
    """The engine's default atom count for a grid of ``num_nodes`` nodes.

    Coarse on purpose: the reduced
    system's size is dominated by the interface (every cut adds roughly
    ``2 sqrt(n)`` boundary nodes times the chaos-basis size), while each
    atom contributes only ``ports x q`` reduced coordinates -- so fewer,
    larger atoms keep the marched system small.  Measured on a 25857-node
    grid, 2 atoms run ~2.6x faster than 4 and ~4x faster than 8 at equal
    accuracy; the count only grows past ``~40k`` nodes to bound the dense
    per-atom block sizes.
    """
    return max(2, min(8, 1 << int(np.log2(max(1.0, num_nodes / 20000)))))


def _uncached_macromodel(key, builder, verify):
    """Provider used when no session cache is attached: always build."""
    return builder(), False


def run_mor_transient(
    system: StochasticSystem,
    galerkin: GalerkinSystem,
    transient: TransientConfig,
    partition: Optional[GridPartition] = None,
    atoms: Optional[int] = None,
    reduction_order: int = DEFAULT_REDUCTION_ORDER,
    observe: Sequence[int] = (),
    store_coefficients: bool = False,
    macromodel_provider=None,
) -> StochasticTransientResult:
    """Macromodel-accelerated stochastic Galerkin transient.

    Parameters
    ----------
    system, galerkin:
        The stochastic system and its assembled augmented Galerkin system.
    transient:
        Time axis and integration scheme (any registered stepping scheme).
    partition:
        Optional node partition; defaults to :func:`system_partition` with
        :func:`mor_atom_count` atoms.
    atoms:
        Atom-count override (changes the tiling and the reduced system).
    reduction_order:
        Matched block moments ``q`` of every atom's PRIMA reduction.
    observe:
        Global node indices whose voltages must be reproduced *exactly* to
        moment order; added to the reduction ports of the atoms containing
        them.  Statistics at every node are always produced -- this only
        sharpens accuracy at specific nodes of interest.
    store_coefficients:
        Keep the full chaos-coefficient tensor (memory-hungry on large
        grids); by default only mean/variance waveforms are stored.
    macromodel_provider:
        ``provider(key, builder, verify) -> (model, reused)`` hook for
        cross-run macromodel caching (see :meth:`repro.api.Analysis.macromodel`).
        ``None`` builds every block fresh.
    """
    if reduction_order < 1:
        raise AnalysisError(f"mor_order must be at least 1, got {reduction_order}")
    started = time.perf_counter()
    telemetry = current_telemetry()
    provider = macromodel_provider if macromodel_provider is not None else _uncached_macromodel
    basis = galerkin.basis
    num_nodes = system.num_nodes
    observe = np.asarray(sorted(set(int(node) for node in observe)), dtype=int)
    if observe.size and (observe.min() < 0 or observe.max() >= num_nodes):
        raise AnalysisError("observe nodes out of range")
    if partition is None:
        partition = system_partition(
            system, num_atoms=atoms if atoms is not None else mor_atom_count(num_nodes)
        )
    boundary = partition.boundary
    if not boundary.size:
        raise AnalysisError("mor engine requires a partition with a non-empty boundary")

    times = transient.times()
    series = galerkin.rhs_series(times)

    g_nominal = sp.csr_matrix(system.g_nominal)
    c_nominal = sp.csr_matrix(system.c_nominal)
    models = []
    local_columns = []
    built = reused_count = 0
    for atom, interior in enumerate(partition.interiors):
        if not interior.size:
            continue
        g_interior = g_nominal[interior][:, interior]
        c_interior = c_nominal[interior][:, interior]
        adjacency, columns = block_coupling(system, interior, boundary)
        observed = np.where(np.isin(interior, observe))[0]
        directions = excitation_directions(series.waveforms, interior)
        key = macromodel_key(g_interior, c_interior, adjacency, observed, reduction_order)

        def builder(
            atom=atom,
            interior=interior,
            g_interior=g_interior,
            c_interior=c_interior,
            adjacency=adjacency,
            observed=observed,
            directions=directions,
            key=key,
        ):
            return build_block_macromodel(
                atom,
                interior,
                g_interior,
                c_interior,
                adjacency,
                observed,
                directions,
                reduction_order,
                key=key,
            )

        model, reused = provider(key, builder, lambda model: model.covers(directions))
        if reused:
            reused_count += 1
            telemetry.count("macromodels_reused")
        else:
            built += 1
            telemetry.count("macromodels_built")
        models.append(model)
        local_columns.append(columns)

    tensors = triple_product_tensors(
        basis,
        set(galerkin.conductance_coefficients) | set(galerkin.capacitance_coefficients),
    )
    with telemetry.span(
        "mor.project", phase="project", blocks=len(models), order=int(reduction_order)
    ):
        conductance, capacitance = build_reduced_operators(
            models,
            local_columns,
            boundary,
            basis.size,
            galerkin.conductance_coefficients,
            galerkin.capacitance_coefficients,
            tensors,
        )
        reduced_series = reduce_rhs_series(series, models, boundary, basis.size)

    adapter = MorSystemAdapter(conductance, capacitance, reduced_series)
    history = StepLoop(adapter, transient.scheme, times, transient.dt).run(store=True)

    # Back-substitute per-node statistics through the projection bases: one
    # BLAS-3 lift per atom, exact copy for the interface.
    states = history.states
    if store_coefficients:
        coefficients = np.zeros((times.size, basis.size, num_nodes))
    else:
        mean = np.zeros((times.size, num_nodes))
        variance = np.zeros((times.size, num_nodes))

    def scatter(nodes: np.ndarray, lifted: np.ndarray) -> None:
        if store_coefficients:
            coefficients[:, :, nodes] = lifted
        else:
            mean[:, nodes] = lifted[:, 0, :]
            if basis.size > 1:
                variance[:, nodes] = np.sum(lifted[:, 1:, :] ** 2, axis=1)

    for model, offset in zip(models, conductance.offsets):
        rank = model.order
        reduced = states[:, offset : offset + basis.size * rank]
        reduced = reduced.reshape(times.size, basis.size, rank)
        scatter(model.interior, reduced @ model.projection.T)
    tail = states[:, conductance.boundary_offset :]
    scatter(boundary, tail.reshape(times.size, basis.size, boundary.size))

    elapsed = time.perf_counter() - started
    if store_coefficients:
        result = StochasticTransientResult(
            times=times,
            basis=basis,
            vdd=system.vdd,
            coefficients=coefficients,
            node_names=system.node_names,
            wall_time=elapsed,
        )
    else:
        result = StochasticTransientResult(
            times=times,
            basis=basis,
            vdd=system.vdd,
            mean=mean,
            variance=variance,
            node_names=system.node_names,
            wall_time=elapsed,
        )
    result.partition_stats = {
        **partition.stats(),
        "augmented_interface_nodes": int(basis.size * boundary.size),
    }
    result.mor_stats = {
        "reduction_order": int(reduction_order),
        "reduced_size": int(adapter.size),
        "full_size": int(basis.size * num_nodes),
        "macromodels_built": int(built),
        "macromodels_reused": int(reused_count),
        "block_orders": [int(model.order) for model in models],
    }
    return result


@register_engine("mor")
def _run_mor_engine(session, mode: Optional[str] = None, **options):
    """Macromodel-accelerated partitioned stochastic Galerkin analysis.

    Options: ``order`` (chaos order, default 2), ``mor_order`` (PRIMA
    reduction order ``q``, default 2), ``atoms`` (tiling override),
    ``observe`` (node indices added to the reduction ports),
    ``store_coefficients`` and time-axis overrides
    (``t_stop``/``dt``/``scheme``/...).  Transient only.  Macromodels are
    cached on the session and reused across corners (see
    :meth:`repro.api.Analysis.macromodel`).
    """
    mode = mode or "transient"
    _check_mode("mor", mode, ("transient",))
    order = int(options.pop("order", 2))
    reduction_order = int(options.pop("mor_order", DEFAULT_REDUCTION_ORDER))
    atoms = options.pop("atoms", None)
    if atoms is not None:
        atoms = int(atoms)
    observe = tuple(options.pop("observe", ()))
    store_coefficients = bool(options.pop("store_coefficients", False))
    transient = _resolve_transient(session, options)
    _reject_unknown(options, "mor", mode)

    system = session.system
    galerkin = session.galerkin(order)
    result = run_mor_transient(
        system,
        galerkin,
        transient,
        atoms=atoms,
        reduction_order=reduction_order,
        observe=observe,
        store_coefficients=store_coefficients,
        macromodel_provider=session.macromodel,
    )
    view = StochasticResultView("mor", "transient", result, system.vdd)
    view.transient = transient
    view.partition_stats = result.partition_stats
    view.mor_stats = result.mor_stats
    return view
