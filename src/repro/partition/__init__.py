"""Deterministic graph partitioning of power-grid systems.

:mod:`~repro.partition.partitioner` cuts a grid's node set into mutually
decoupled block interiors plus a global interface (vertex separator).  The
``mor`` engine is its consumer: :func:`system_partition` gives the fixed
atom tiling whose interiors it reduces to per-block macromodels::

    from repro.partition import partition_system, system_partition

    partition = partition_system(stamped, 4)          # G/C structure only
    atoms = system_partition(session.system, 2)       # + every sensitivity
"""

from .partitioner import (
    GridPartition,
    coordinate_bisection,
    graph_bisection,
    node_coordinates,
    partition_matrix,
    partition_system,
    system_partition,
    union_structure,
)

__all__ = [
    "GridPartition",
    "coordinate_bisection",
    "graph_bisection",
    "node_coordinates",
    "partition_matrix",
    "partition_system",
    "system_partition",
    "union_structure",
]
