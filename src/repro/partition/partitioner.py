"""Deterministic graph partitioning of power-grid MNA systems.

The partitioner cuts the node set of a stamped MNA system (or any sparse
symmetric matrix) into ``num_parts`` blocks plus a *global interface*: a
vertex separator containing every node with a neighbour in a different
block.  Block interiors are therefore mutually decoupled, so each one can
be reduced independently against the interface (what the ``mor`` engine's
per-atom macromodels do).

Two bisection strategies are provided, both fully deterministic (stable
sorts, index-order tie breaking, no randomness):

* **coordinate bisection** -- when the node names follow the synthetic
  generator's ``n{layer}_{row}_{col}`` convention, nodes are split
  recursively along the longer (row/col) axis at the median coordinate.
  Via stacks share (row, col) across layers, so cuts run vertically through
  the whole metal stack and the interface stays one grid line wide;
* **graph bisection** -- for arbitrary netlists, nodes are ordered by
  breadth-first search from a pseudo-peripheral vertex and split at the
  median of that ordering; recursion yields ``num_parts`` blocks.

Both strategies accept any ``num_parts >= 1`` (not just powers of two):
recursion splits the target part count as evenly as the node counts allow.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..errors import AnalysisError

__all__ = [
    "GridPartition",
    "coordinate_bisection",
    "graph_bisection",
    "node_coordinates",
    "partition_matrix",
    "partition_system",
    "union_structure",
    "system_partition",
]

#: Node-name pattern of :func:`repro.grid.generator.node_name`.
_NODE_NAME = re.compile(r"^n(\d+)_(\d+)_(\d+)$")


@dataclass(eq=False)
class GridPartition:
    """A node partition: ``num_parts`` disjoint interiors plus one interface.

    Attributes
    ----------
    num_nodes:
        Total node count of the partitioned system.
    interiors:
        One sorted index array per part; interiors are mutually disjoint and
        (by construction) share no matrix edge with another interior.
    boundary:
        Sorted indices of the interface (separator) nodes.
    assignments:
        The part id every node was assigned to before separator promotion
        (interface nodes keep theirs); useful for diagnostics.
    """

    num_nodes: int
    interiors: Tuple[np.ndarray, ...]
    boundary: np.ndarray
    assignments: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        covered = int(sum(interior.size for interior in self.interiors))
        covered += int(self.boundary.size)
        if covered != self.num_nodes:
            raise AnalysisError(
                f"partition covers {covered} of {self.num_nodes} nodes; "
                "interiors and boundary must tile the node set exactly"
            )

    @property
    def num_parts(self) -> int:
        return len(self.interiors)

    @property
    def interior_sizes(self) -> Tuple[int, ...]:
        return tuple(int(interior.size) for interior in self.interiors)

    @property
    def interface_fraction(self) -> float:
        """Fraction of all nodes promoted to the global interface."""
        if self.num_nodes == 0:
            return 0.0
        return float(self.boundary.size) / float(self.num_nodes)

    def stats(self) -> Dict:
        """JSON-friendly partition diagnostics."""
        return {
            "num_parts": self.num_parts,
            "num_nodes": self.num_nodes,
            "interface_nodes": int(self.boundary.size),
            "interface_fraction": self.interface_fraction,
            "interior_sizes": list(self.interior_sizes),
        }

    def validate_against(self, matrix: sp.spmatrix) -> None:
        """Check that no matrix edge connects two different interiors."""
        matrix = sp.csr_matrix(matrix)
        owner = np.full(self.num_nodes, -1, dtype=int)
        for part, interior in enumerate(self.interiors):
            owner[interior] = part
        coo = matrix.tocoo()
        row_owner = owner[coo.row]
        col_owner = owner[coo.col]
        bad = (row_owner >= 0) & (col_owner >= 0) & (row_owner != col_owner)
        if np.any(bad):
            raise AnalysisError(
                "partition is not a vertex separator: "
                f"{int(np.count_nonzero(bad))} matrix entr(ies) couple two "
                "different block interiors"
            )


# ---------------------------------------------------------------------------
# Bisection strategies
# ---------------------------------------------------------------------------
def _split_counts(num_parts: int) -> Tuple[int, int]:
    """How a recursive bisection divides a part budget (left, right)."""
    left = num_parts // 2
    return left, num_parts - left


def coordinate_bisection(coords: np.ndarray, num_parts: int) -> np.ndarray:
    """Assign each node a part id by recursive median coordinate bisection.

    ``coords`` has shape ``(num_nodes, d)``; the split axis is the one with
    the widest spread, ties going to the lower axis index, and the split
    point is the size-weighted median of a stable coordinate sort (so equal
    coordinates break ties by node index, deterministically).
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2:
        raise AnalysisError("coords must have shape (num_nodes, d)")
    if num_parts < 1:
        raise AnalysisError(f"num_parts must be at least 1, got {num_parts}")
    assignments = np.zeros(coords.shape[0], dtype=int)

    def recurse(indices: np.ndarray, parts: int, first_part: int) -> None:
        if parts <= 1 or indices.size <= 1:
            assignments[indices] = first_part
            return
        local = coords[indices]
        spreads = local.max(axis=0) - local.min(axis=0)
        axis = int(np.argmax(spreads))
        order = np.argsort(local[:, axis], kind="stable")
        left_parts, right_parts = _split_counts(parts)
        cut = (indices.size * left_parts) // parts
        cut = min(max(cut, 1), indices.size - 1)
        recurse(indices[order[:cut]], left_parts, first_part)
        recurse(indices[order[cut:]], right_parts, first_part + left_parts)

    recurse(np.arange(coords.shape[0]), int(num_parts), 0)
    return assignments


def _bfs_order(adjacency: sp.csr_matrix, indices: np.ndarray) -> np.ndarray:
    """Deterministic BFS ordering of ``indices`` in the induced subgraph.

    The start vertex is a pseudo-peripheral node: a lowest-degree vertex
    (ties to the lowest index), re-rooted once at the farthest vertex of its
    BFS tree.  Disconnected components are appended in index order.
    """
    sub = adjacency[indices][:, indices].tocsr()
    sub.sort_indices()
    n = indices.size
    degrees = np.diff(sub.indptr)

    def bfs(start: int) -> np.ndarray:
        seen = np.zeros(n, dtype=bool)
        order = np.empty(n, dtype=int)
        count = 0
        queue = [start]
        seen[start] = True
        while count < n:
            if not queue:
                remaining = np.flatnonzero(~seen)
                queue = [int(remaining[0])]
                seen[queue[0]] = True
            head = 0
            while head < len(queue):
                vertex = queue[head]
                head += 1
                order[count] = vertex
                count += 1
                row = sub.indices[sub.indptr[vertex] : sub.indptr[vertex + 1]]
                for neighbour in row:
                    if not seen[neighbour]:
                        seen[neighbour] = True
                        queue.append(int(neighbour))
            queue = []
        return order

    start = int(np.lexsort((np.arange(n), degrees))[0])
    first_pass = bfs(start)
    order = bfs(int(first_pass[-1]))
    return indices[order]


def graph_bisection(adjacency: sp.spmatrix, num_parts: int) -> np.ndarray:
    """Assign part ids by recursive BFS-ordering bisection of a graph."""
    adjacency = sp.csr_matrix(adjacency)
    if adjacency.shape[0] != adjacency.shape[1]:
        raise AnalysisError("adjacency must be square")
    if num_parts < 1:
        raise AnalysisError(f"num_parts must be at least 1, got {num_parts}")
    assignments = np.zeros(adjacency.shape[0], dtype=int)

    def recurse(indices: np.ndarray, parts: int, first_part: int) -> None:
        if parts <= 1 or indices.size <= 1:
            assignments[indices] = first_part
            return
        order = _bfs_order(adjacency, indices)
        left_parts, right_parts = _split_counts(parts)
        cut = (indices.size * left_parts) // parts
        cut = min(max(cut, 1), indices.size - 1)
        recurse(np.sort(order[:cut]), left_parts, first_part)
        recurse(np.sort(order[cut:]), right_parts, first_part + left_parts)

    recurse(np.arange(adjacency.shape[0]), int(num_parts), 0)
    return assignments


def node_coordinates(node_names: Sequence[str]) -> Optional[np.ndarray]:
    """Parse generator-style node names into ``(row, col)`` coordinates.

    Returns ``None`` unless *every* name matches ``n{layer}_{row}_{col}``.
    The layer is deliberately dropped: via stacks then share a coordinate,
    so coordinate bisection cuts vertically through the metal stack and
    never strands an upper-layer node away from its tile.
    """
    coords = np.empty((len(node_names), 2), dtype=float)
    for i, name in enumerate(node_names):
        match = _NODE_NAME.match(name)
        if match is None:
            return None
        coords[i, 0] = float(match.group(2))
        coords[i, 1] = float(match.group(3))
    return coords


# ---------------------------------------------------------------------------
# Separator extraction and the public entry points
# ---------------------------------------------------------------------------
def _separate(structure: sp.csr_matrix, assignments: np.ndarray) -> GridPartition:
    """Promote every cross-part-coupled node to the interface."""
    n = structure.shape[0]
    coo = structure.tocoo()
    cross = assignments[coo.row] != assignments[coo.col]
    on_boundary = np.zeros(n, dtype=bool)
    on_boundary[coo.row[cross]] = True
    on_boundary[coo.col[cross]] = True
    num_parts = int(assignments.max()) + 1 if n else 1
    interiors = tuple(
        np.flatnonzero((assignments == part) & ~on_boundary)
        for part in range(num_parts)
    )
    return GridPartition(
        num_nodes=n,
        interiors=interiors,
        boundary=np.flatnonzero(on_boundary),
        assignments=assignments.copy(),
    )


def partition_matrix(
    matrix: sp.spmatrix,
    num_parts: int,
    coords: Optional[np.ndarray] = None,
) -> GridPartition:
    """Partition the index set of a sparse matrix into blocks + interface.

    Uses coordinate bisection when ``coords`` is given (one ``(row, col)``
    pair per node), otherwise deterministic graph bisection on the matrix's
    sparsity structure.  ``num_parts == 1`` yields a single all-interior
    block and an empty interface (the monolithic special case).
    """
    matrix = sp.csr_matrix(matrix)
    if matrix.shape[0] != matrix.shape[1]:
        raise AnalysisError("can only partition a square system matrix")
    if num_parts < 1:
        raise AnalysisError(f"num_parts must be at least 1, got {num_parts}")
    n = matrix.shape[0]
    num_parts = min(int(num_parts), max(n, 1))
    if num_parts == 1:
        return GridPartition(
            num_nodes=n,
            interiors=(np.arange(n),),
            boundary=np.empty(0, dtype=int),
            assignments=np.zeros(n, dtype=int),
        )
    if coords is not None:
        assignments = coordinate_bisection(coords, num_parts)
    else:
        assignments = graph_bisection(matrix, num_parts)
    return _separate(matrix, assignments)


def partition_system(stamped, num_parts: int) -> GridPartition:
    """Partition a :class:`~repro.grid.stamping.StampedSystem` (or anything
    with ``conductance``/``capacitance``/``node_names``).

    The separator is computed against the union sparsity of ``G`` and ``C``
    so that no electrical coupling -- resistive or capacitive -- ever crosses
    two block interiors.  Generator-style node names enable coordinate
    bisection; anything else falls back to graph bisection.
    """
    structure = union_structure(stamped.conductance, stamped.capacitance)
    names = getattr(stamped, "node_names", None)
    coords = node_coordinates(names) if names else None
    return partition_matrix(structure, num_parts, coords=coords)


def union_structure(*matrices: sp.spmatrix) -> sp.csr_matrix:
    """Sparsity union of several equally-shaped matrices (data all ones)."""
    total = None
    for matrix in matrices:
        part = sp.csr_matrix(matrix, copy=True)
        part.data = np.abs(part.data)
        total = part if total is None else total + part
    total.eliminate_zeros()
    total.data = np.ones_like(total.data)
    return total


def system_partition(system, num_atoms: int) -> GridPartition:
    """Tile a :class:`~repro.variation.model.StochasticSystem` into ``num_atoms`` blocks.

    The separator is computed against the union sparsity of the nominal
    matrices *and every sensitivity matrix*, so no coupling of any germ
    realisation crosses two interiors.  Generator-style node names enable
    coordinate bisection; other netlists fall back to graph bisection.
    """
    structure = union_structure(
        system.g_nominal,
        system.c_nominal,
        *system.g_sensitivities.values(),
        *system.c_sensitivities.values(),
    )
    coords = None
    if system.node_names is not None:
        coords = node_coordinates(system.node_names)
    return partition_matrix(structure, num_atoms, coords=coords)
