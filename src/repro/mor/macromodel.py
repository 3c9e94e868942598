"""Per-block passive macromodels for the partitioned stochastic engine.

The ``mor`` engine tiles the grid into atoms
(:func:`repro.partition.system_partition`) and reduces each atom's
*nominal* interior system ``(G0_II, C0_II)`` once to a small passive
macromodel with :func:`repro.mor.prima.prima_reduce`.  The reduction ports are

* the atom's interface-adjacent interior nodes (unit injections at every
  interior node structurally coupled to the partition boundary by *any*
  coefficient matrix), so the projected block reproduces the port response
  an exact Schur condensation would use, to first order;
* the spatial directions of the block's excitation waveforms (normalised
  rows of the active chaos-coefficient tables restricted to the interior) --
  corner sweeps scale these waveforms, so the *directions* are
  corner-invariant and one basis serves every corner;
* any requested observation nodes that fall inside the atom.

The stored projection basis ``V`` depends only on the nominal block
matrices and the port structure, never on the corner's sensitivity
magnitudes; :func:`macromodel_key` fingerprints exactly those inputs so an
:class:`~repro.api.Analysis` session (and the sweep runner's shared corner
sessions) can reuse one reduction across corners, schemes and repeated
runs.  :meth:`BlockMacromodel.covers` is the guard on every cache hit: a
cached basis is only reused when it still contains the current excitation
directions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..sim.linear import matrix_fingerprint
from ..telemetry import current_telemetry
from ..variation.model import StochasticSystem
from .prima import prima_reduce

__all__ = [
    "BlockMacromodel",
    "block_coupling",
    "excitation_directions",
    "macromodel_key",
    "build_block_macromodel",
]

#: Relative residual above which a cached basis no longer covers an
#: excitation direction (see :meth:`BlockMacromodel.covers`).
COVERAGE_TOLERANCE = 1e-8


@dataclass
class BlockMacromodel:
    """One atom's reduced model: projection basis plus projected nominals.

    ``projection`` is the orthonormal PRIMA basis ``V`` (``|I_k| x r_k``);
    ``conductance`` / ``capacitance`` are the congruence projections
    ``V^T G0_II V`` / ``V^T C0_II V`` of the *nominal* block matrices,
    reused as the mean-coefficient blocks of the reduced augmented system.
    ``input_span`` is an orthonormal basis of the PRIMA *input* columns
    (port injections plus excitation directions) -- the reuse guard: any
    excitation inside that span generates a Krylov space the stored ``V``
    already matched moment-by-moment.
    """

    atom: int
    interior: np.ndarray
    projection: np.ndarray
    conductance: np.ndarray
    capacitance: np.ndarray
    input_span: np.ndarray
    reduction_order: int
    num_ports: int
    key: Tuple = field(default=(), repr=False)

    @property
    def order(self) -> int:
        """Dimension of the reduced block state."""
        return self.projection.shape[1]

    def covers(self, directions: Sequence[np.ndarray], tolerance: float = COVERAGE_TOLERANCE) -> bool:
        """Whether the build-time input span contains the given directions.

        The reuse guard of the session macromodel cache: corners scale the
        excitation waveforms, so their normalised spatial directions are
        usually unchanged and the check passes; a corner that genuinely
        excites new directions fails it and triggers a rebuild.  Checked
        against ``input_span`` (not ``projection``): PRIMA's Krylov basis
        spans the *moment responses* of the inputs, so a new excitation is
        reproduced exactly when it lies inside the original input span.
        """
        span = self.input_span
        for direction in directions:
            residual = direction - span @ (span.T @ direction)
            if np.linalg.norm(residual) > tolerance:
                return False
        return True


def block_coupling(
    system: StochasticSystem, interior: np.ndarray, boundary: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Structural interior/boundary coupling of one atom, over *all* matrices.

    Returns ``(rows, cols)``: the interior-local indices adjacent to the
    boundary (the atom's reduction ports) and the boundary-local indices the
    atom couples to (the columns of its reduced coupling blocks).  The union
    runs over the nominal matrices and every sensitivity, mirroring
    :func:`repro.partition.system_partition`'s union structure.
    """
    matrices = [system.g_nominal, system.c_nominal]
    matrices += list(system.g_sensitivities.values())
    matrices += list(system.c_sensitivities.values())
    accumulated = None
    for matrix in matrices:
        block = sp.csr_matrix(abs(sp.csr_matrix(matrix))[interior][:, boundary])
        accumulated = block if accumulated is None else accumulated + block
    coo = accumulated.tocoo()
    return np.unique(coo.row), np.unique(coo.col)


def excitation_directions(
    waveforms: Iterable[Tuple[int, np.ndarray]],
    interior: np.ndarray,
    *,
    duplicate_tolerance: float = 1e-10,
) -> List[np.ndarray]:
    """Unit spatial directions of the excitation restricted to one interior.

    Every row of every active chaos-coefficient waveform table is restricted
    to the interior and normalised; (near-)duplicate directions -- ramps and
    plateaus repeat one spatial pattern across many steps -- are dropped so
    the PRIMA input block stays small.
    """
    kept: List[np.ndarray] = []
    for _, table in waveforms:
        local = table[:, interior]
        for row in local:
            norm = np.linalg.norm(row)
            if norm == 0.0:
                continue
            direction = row / norm
            if any(abs(direction @ other) > 1.0 - duplicate_tolerance for other in kept):
                continue
            kept.append(direction)
    return kept


def _ports_digest(adjacency: np.ndarray, observed: np.ndarray) -> str:
    payload = adjacency.astype(np.int64).tobytes() + b"|" + observed.astype(np.int64).tobytes()
    return hashlib.sha1(payload).hexdigest()


def macromodel_key(
    g_interior: sp.spmatrix,
    c_interior: sp.spmatrix,
    adjacency: np.ndarray,
    observed: np.ndarray,
    reduction_order: int,
) -> Tuple:
    """The session-cache key of one block's macromodel.

    Fingerprints exactly the inputs the projection basis depends on: the
    nominal block matrices (content fingerprint), the structural port set
    and the reduction order.  Deliberately *excludes* the excitation
    content -- corners rescale waveforms without changing their directions,
    and :meth:`BlockMacromodel.covers` guards the exceptional case.
    """
    return (
        matrix_fingerprint(sp.csr_matrix(g_interior)),
        matrix_fingerprint(sp.csr_matrix(c_interior)),
        _ports_digest(np.asarray(adjacency), np.asarray(observed)),
        int(reduction_order),
    )


def build_block_macromodel(
    atom: int,
    interior: np.ndarray,
    g_interior: sp.spmatrix,
    c_interior: sp.spmatrix,
    adjacency: np.ndarray,
    observed: np.ndarray,
    directions: Sequence[np.ndarray],
    reduction_order: int,
    key: Tuple = (),
) -> BlockMacromodel:
    """Reduce one atom's nominal interior system to a passive macromodel.

    The PRIMA input matrix stacks unit injections at the structural ports
    (interface-adjacent interior nodes plus observed interior nodes) with
    the excitation's unit spatial directions; the reduction runs in a
    ``mor.reduce`` telemetry span (phase ``reduce``).
    """
    size = int(interior.size)
    port_nodes = np.union1d(np.asarray(adjacency, dtype=int), np.asarray(observed, dtype=int))
    columns = np.zeros((size, port_nodes.size + len(directions)))
    columns[port_nodes, np.arange(port_nodes.size)] = 1.0
    for offset, direction in enumerate(directions):
        columns[:, port_nodes.size + offset] = direction
    with current_telemetry().span(
        "mor.reduce",
        phase="reduce",
        atom=int(atom),
        ports=int(columns.shape[1]),
        order=int(reduction_order),
    ):
        model = prima_reduce(
            sp.csr_matrix(g_interior),
            sp.csr_matrix(c_interior),
            columns,
            num_moments=int(reduction_order),
        )
        # Orthonormal basis of the exact input column space (SVD rather than
        # unpivoted QR, whose diagonal-of-R rank test is unreliable).
        left, singular, _ = np.linalg.svd(columns, full_matrices=False)
        kept = singular > 1e-12 * (singular[0] if singular.size else 1.0)
    return BlockMacromodel(
        atom=int(atom),
        interior=np.asarray(interior, dtype=int),
        projection=model.projection,
        conductance=model.conductance,
        capacitance=model.capacitance,
        input_span=left[:, kept],
        reduction_order=int(reduction_order),
        num_ports=int(columns.shape[1]),
        key=tuple(key),
    )
