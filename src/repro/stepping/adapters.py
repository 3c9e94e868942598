"""Concrete :class:`~repro.stepping.loop.SystemAdapter` implementations.

Three adapters cover the library's transient engines:

:class:`MnaSystemAdapter`
    The deterministic MNA system ``C dx/dt + G x = u(t)`` with explicit
    sparse matrices *or* lazy operators and a pluggable solver backend --
    the adapter behind :func:`repro.sim.transient.run_transient` (and
    therefore every Monte Carlo sample).
:class:`GalerkinSystemAdapter`
    The augmented (Galerkin-projected) system of the OPERA method in the
    form its solver consumes: an operator-aware backend (``mean-block-cg``,
    ``cg``) runs matrix-free on :class:`~repro.linalg.KronSumOperator`
    representations, ``direct`` on the explicit CSR matrices.
:class:`DecoupledSystemAdapter`
    The Section-5.1 special case (deterministic matrices, stochastic
    excitation): the state stacks the active chaos coefficients, the step
    matrix is ``I_J (x) (a G + b C/h)``, so one ``n x n`` factorisation
    serves every coefficient and each step is a single multi-RHS solve.

All solver construction is funnelled through a caller-supplied
``solver_factory`` (defaulting to :func:`repro.sim.linear.make_solver`), so
the :class:`repro.api.Analysis` session's fingerprint-keyed solver cache
keeps working across every engine.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..errors import SolverError
from .loop import PreparedSystem, SystemAdapter
from .schemes import StepForms, SteppingScheme, step_forms

__all__ = [
    "MnaSystemAdapter",
    "GalerkinSystemAdapter",
    "DecoupledSystemAdapter",
    "StackedRhsSeries",
    "BlockDiagonalSolver",
]


def _is_operator(obj) -> bool:
    """Lazy-operator test -- the single definition in ``repro.sim.linear``.

    Imported per call (like :func:`_default_factory`) because ``repro.sim``
    imports this package at module load.
    """
    from ..sim.linear import _is_lazy_operator

    return _is_lazy_operator(obj)


def _default_factory():
    # Deferred: repro.sim imports this package at module load.
    from ..sim.linear import make_solver

    return make_solver


def _resolve_solver(
    solver: Optional[str], galerkin: bool, options: Optional[Mapping] = None
) -> str:
    """:func:`repro.sim.linear.resolve_solver`, imported per call like the above."""
    from ..sim.linear import resolve_solver

    return resolve_solver(solver, galerkin=galerkin, options=options)


# ---------------------------------------------------------------------------
# Deterministic MNA
# ---------------------------------------------------------------------------
class MnaSystemAdapter(SystemAdapter):
    """The plain MNA system: ``G``/``C`` matrices (or operators), one solver.

    Parameters
    ----------
    conductance, capacitance:
        ``G`` and ``C`` -- both explicit sparse matrices or both lazy
        operators (mixing representations is rejected, as before).
    rhs_function, rhs_series:
        The excitation: a callable of time, or a precomputed table with
        ``fill(step, out)`` covering the loop's time axis (at least one is
        required by the loop).
    solver:
        Registered linear-solver backend name; ``None`` takes the default
        of :func:`~repro.sim.linear.resolve_solver` for the form of ``G``
        (``mean-block-cg`` for lazy operators, ``direct`` for matrices).
    solver_factory:
        Optional solver provider with the signature of
        :func:`repro.sim.linear.make_solver` (the session facade injects
        its caching provider here).
    solver_options:
        Extra keyword arguments for the solver factory.
    """

    def __init__(
        self,
        conductance,
        capacitance,
        *,
        rhs_function: Optional[Callable[[float], np.ndarray]] = None,
        rhs_series=None,
        solver: Optional[str] = None,
        solver_factory: Optional[Callable] = None,
        solver_options: Optional[Mapping] = None,
    ):
        matrix_free = _is_operator(conductance)
        if matrix_free != _is_operator(capacitance):
            raise SolverError(
                "G and C must both be explicit sparse matrices or both lazy "
                "operators; mixing the representations is not supported "
                "(materialise one side with to_csr() or build both as operators)"
            )
        if not matrix_free:
            conductance = sp.csr_matrix(conductance)
            capacitance = sp.csr_matrix(capacitance)
        if conductance.shape != capacitance.shape:
            raise SolverError("G and C must have identical shapes")
        self._conductance = conductance
        self._capacitance = capacitance
        self._matrix_free = matrix_free
        self._rhs_function = rhs_function
        self._rhs_series = rhs_series
        self._options = dict(solver_options or {})
        self.solver = _resolve_solver(solver, matrix_free, self._options)
        self._factory = solver_factory

    @property
    def size(self) -> int:
        return self._conductance.shape[0]

    # Overridden by GalerkinSystemAdapter to build the series per time axis.
    def _series_for(self, times: np.ndarray):
        return self._rhs_series

    def _make_solver(self, matrix):
        factory = self._factory if self._factory is not None else _default_factory()
        return factory(matrix, method=self.solver, **self._options)

    def prepare(self, scheme: SteppingScheme, times: np.ndarray, h: float) -> PreparedSystem:
        forms = step_forms(
            scheme, self._conductance, self._capacitance, h, matrix_free=self._matrix_free
        )
        return PreparedSystem(
            forms=forms,
            step_solver=self._make_solver(forms.lhs),
            dc_solver_factory=lambda: self._make_solver(self._conductance),
            rhs_series=self._series_for(times),
            rhs_function=self._rhs_function,
        )


# ---------------------------------------------------------------------------
# Augmented Galerkin (operator-aware)
# ---------------------------------------------------------------------------
class GalerkinSystemAdapter(MnaSystemAdapter):
    """The coupled augmented system ``(G~ + s C~) a = U~`` of OPERA.

    ``solver=None`` runs ``mean-block-cg``.  The solver picks the form of
    ``G~`` and ``C~`` (see
    :meth:`~repro.chaos.galerkin.GalerkinSystem.for_solver`): lazy
    operators for operator-aware backends, explicit CSR otherwise.  The
    excitation is always the Galerkin system's precomputed
    :meth:`~repro.chaos.galerkin.GalerkinSystem.rhs_series` for the loop's
    exact time axis.
    """

    def __init__(
        self,
        galerkin,
        *,
        solver: Optional[str] = None,
        solver_factory: Optional[Callable] = None,
        solver_options: Optional[Mapping] = None,
    ):
        solver = _resolve_solver(solver, True)
        super().__init__(
            galerkin.for_solver("conductance", solver),
            galerkin.for_solver("capacitance", solver),
            rhs_function=galerkin.rhs,
            solver=solver,
            solver_factory=solver_factory,
            solver_options=solver_options,
        )
        self._galerkin = galerkin

    def _series_for(self, times: np.ndarray):
        # Precomputed per-basis-index excitation waveforms: the per-step
        # augmented RHS becomes a buffer fill (identical values either way).
        return self._galerkin.rhs_series(times)


# ---------------------------------------------------------------------------
# Decoupled special case (RHS-only variation)
# ---------------------------------------------------------------------------
class StackedRhsSeries:
    """Excitation table for a fixed tuple of chaos tracks.

    ``fill(step, out)`` writes the stacked ``(tracks * n)`` excitation of
    one time point into the caller's buffer -- the decoupled counterpart of
    :class:`repro.chaos.galerkin.AugmentedRhsSeries`, restricted to the
    active coefficient tracks.
    """

    def __init__(
        self,
        times: np.ndarray,
        waveforms: np.ndarray,
        indices: Sequence[int],
    ):
        self.times = np.asarray(times, dtype=float)
        waveforms = np.asarray(waveforms, dtype=float)
        if waveforms.ndim != 3 or waveforms.shape[0] != self.times.size:
            raise SolverError(
                f"waveforms must have shape (num_times, tracks, nodes); got {waveforms.shape}"
            )
        self._waveforms = waveforms
        #: Chaos basis index of each track.
        self.indices = tuple(int(index) for index in indices)

    @classmethod
    def from_coefficients(
        cls,
        coefficients_at: Callable[[float], Mapping[int, np.ndarray]],
        times: np.ndarray,
        num_nodes: int,
    ) -> "StackedRhsSeries":
        """Evaluate a coefficient function over a time axis.

        The tracks are the coefficients of the first time point, in
        ascending order of their chaos index.
        """
        times = np.asarray(times, dtype=float)
        evaluated = [coefficients_at(float(t)) for t in times]
        indices = sorted(evaluated[0])
        table = np.zeros((times.size, len(indices), num_nodes))
        zeros = np.zeros(num_nodes)
        for step, current in enumerate(evaluated):
            for position, index in enumerate(indices):
                table[step, position] = np.asarray(current.get(index, zeros), dtype=float)
        return cls(times, table, indices)

    def fill(self, step: int, out: np.ndarray) -> np.ndarray:
        expected = self._waveforms.shape[1] * self._waveforms.shape[2]
        if out.shape != (expected,):
            raise SolverError(f"out buffer has shape {out.shape}, expected ({expected},)")
        out.reshape(self._waveforms.shape[1], self._waveforms.shape[2])[:] = self._waveforms[
            step
        ]
        return out


class _TrackStackProduct:
    """``I_J (x) A`` applied to a stacked ``(J * n)`` vector.

    The per-track products are the columns of one sparse-dense product, so
    applying the block-diagonal operator costs exactly ``J`` grid matvecs.
    """

    __slots__ = ("_matrix", "_tracks")

    def __init__(self, matrix: sp.spmatrix, tracks: int):
        self._matrix = matrix
        self._tracks = int(tracks)

    def matvec(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        n = self._matrix.shape[0]
        blocks = x.reshape(self._tracks, n)
        result = (self._matrix @ blocks.T).T
        if out is None:
            return result.reshape(-1)
        out.reshape(self._tracks, n)[:] = result
        return out


class BlockDiagonalSolver:
    """``I_J (x) A`` solves through one inner ``n x n`` solver.

    ``solve`` reshapes the stacked right-hand side into per-track columns
    and delegates to the inner solver's ``solve_many`` -- for the direct
    backend that is a single multi-RHS back-substitution over all tracks.
    """

    def __init__(self, inner, tracks: int, num_nodes: int):
        self.inner = inner
        self.tracks = int(tracks)
        self.num_nodes = int(num_nodes)
        size = self.tracks * self.num_nodes
        self.shape = (size, size)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.shape[0],):
            raise SolverError(
                f"right-hand side has shape {rhs.shape}, expected ({self.shape[0]},)"
            )
        blocks = rhs.reshape(self.tracks, self.num_nodes)
        solution = self.inner.solve_many(blocks.T)
        return np.ascontiguousarray(solution.T).reshape(-1)


class DecoupledSystemAdapter(SystemAdapter):
    """``J`` independent copies of the nominal system (Section 5.1).

    With deterministic ``G`` and ``C`` the Galerkin system block-
    diagonalises: every active chaos coefficient satisfies an independent
    deterministic equation with the *same* matrices.  The adapter stacks
    the active tracks into one state vector so the shared loop steps them
    all at once: the hoisted products are ``I_J (x) A`` applications and
    each solve is one multi-RHS back-substitution of the single ``n x n``
    factorisation.  ``solver`` resolves as for any ``n x n`` system:
    ``None`` and the operator-only ``mean-block-cg`` both run ``direct``.
    """

    def __init__(
        self,
        conductance: sp.spmatrix,
        capacitance: sp.spmatrix,
        tracks: int,
        rhs_series: StackedRhsSeries,
        *,
        solver: Optional[str] = None,
        solver_factory: Optional[Callable] = None,
        solver_options: Optional[Mapping] = None,
    ):
        self._conductance = sp.csr_matrix(conductance)
        self._capacitance = sp.csr_matrix(capacitance)
        if self._conductance.shape != self._capacitance.shape:
            raise SolverError("G and C must have identical shapes")
        self._tracks = int(tracks)
        if self._tracks < 1:
            raise SolverError(f"need at least one active track, got {tracks}")
        self._series = rhs_series
        self._options = dict(solver_options or {})
        self.solver = _resolve_solver(solver, False, self._options)
        self._factory = solver_factory

    @property
    def num_nodes(self) -> int:
        return self._conductance.shape[0]

    @property
    def size(self) -> int:
        return self._tracks * self.num_nodes

    def _block_solver(self, matrix) -> BlockDiagonalSolver:
        factory = self._factory if self._factory is not None else _default_factory()
        inner = factory(matrix, method=self.solver, **self._options)
        return BlockDiagonalSolver(inner, self._tracks, self.num_nodes)

    def prepare(self, scheme: SteppingScheme, times: np.ndarray, h: float) -> PreparedSystem:
        inner = step_forms(
            scheme, self._conductance, self._capacitance, h, matrix_free=False
        )
        forms = StepForms(
            scheme=inner.scheme,
            lhs=inner.lhs,
            rhs_capacitance=(
                _TrackStackProduct(inner.rhs_capacitance, self._tracks)
                if inner.rhs_capacitance is not None
                else None
            ),
            rhs_conductance=(
                _TrackStackProduct(inner.rhs_conductance, self._tracks)
                if inner.rhs_conductance is not None
                else None
            ),
            rhs_u_new=inner.rhs_u_new,
            rhs_u_old=inner.rhs_u_old,
            matrix_free=True,
        )
        return PreparedSystem(
            forms=forms,
            step_solver=self._block_solver(inner.lhs),
            dc_solver_factory=lambda: self._block_solver(self._conductance),
            rhs_series=self._series,
        )
