"""Monte Carlo baseline for stochastic power-grid analysis.

This is the "golden" reference the paper compares OPERA against: draw germ
samples, realise the corresponding grid matrices and excitation, run a full
deterministic transient per sample, and accumulate the statistics of the node
voltages.  The engine streams Welford statistics so memory stays flat in the
number of samples, and can optionally record the full per-sample waveforms of
a few selected nodes (used for the distribution plots of Figures 1-2).

Chunked execution
-----------------
With ``MonteCarloConfig(workers=N)`` (or an explicit ``chunk_size``) the
sweep is split into fixed-size chunks, each drawing its germs from an
independently seeded :class:`GermSampler` stream (children of one
:class:`numpy.random.SeedSequence` spawned from ``seed``) and accumulating
its own Welford moments; chunks run on a
:class:`concurrent.futures.ProcessPoolExecutor` and the per-chunk moments
are folded together with :meth:`RunningMoments.merge`.  The chunk layout
depends only on ``num_samples`` and ``chunk_size`` -- never on ``workers``
-- and chunks are merged in index order, so the statistics of a chunked
sweep are bit-identical for any worker count (the unchunked single-stream
path, ``workers=1`` without ``chunk_size``, remains byte-compatible with
earlier releases).  Systems that cannot be pickled fall back to in-process
chunk execution with a warning.
"""

from __future__ import annotations

import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from ..sim.dc import solve_dc
from ..sim.linear import resolve_solver
from ..sim.transient import TransientConfig, run_transient
from ..variation.model import StochasticSystem
from .sampler import GermSampler
from .statistics import RunningMoments

__all__ = ["MonteCarloConfig", "MonteCarloTransientResult", "MonteCarloDCResult",
           "run_monte_carlo_transient", "run_monte_carlo_dc",
           "DEFAULT_CHUNK_SIZE"]

#: Samples per chunk when chunked execution is requested without an explicit
#: ``chunk_size``.  A fixed (worker-independent) default keeps the chunk
#: layout -- and therefore the merged statistics -- identical for any
#: ``workers`` count.  Even, so antithetic pairs never straddle chunks.
DEFAULT_CHUNK_SIZE = 32


def _chunk_layout(num_samples: int, chunk_size: Optional[int]) -> Tuple[int, ...]:
    """Per-chunk sample counts of a chunked sweep.

    The single source of the worker-invariance guarantee: the layout depends
    only on ``num_samples`` and ``chunk_size`` (defaulting to
    :data:`DEFAULT_CHUNK_SIZE`), never on the worker count.  Shared by the
    transient and DC paths.
    """
    size = chunk_size or DEFAULT_CHUNK_SIZE
    full, remainder = divmod(num_samples, size)
    sizes = [size] * full
    if remainder:
        sizes.append(remainder)
    return tuple(sizes)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Settings of a Monte Carlo sweep.

    Attributes
    ----------
    transient:
        Time axis and integration settings (shared with the OPERA run so the
        comparison is apples-to-apples).
    num_samples:
        Number of Monte Carlo samples; the paper uses 1000.
    seed:
        Seed of the germ sampler.
    antithetic:
        Use antithetic pairs for variance reduction (symmetric germs only).
    store_nodes:
        Node indices whose full per-sample drop waveforms are recorded
        (needed for distribution plots).
    solver:
        Linear solver for the per-sample factorisations; overrides the
        transient config's solver.  Each sample is an ``n x n`` system, so
        ``None`` (with no transient solver either) runs ``direct`` (see
        :func:`~repro.sim.linear.resolve_solver`).
    workers:
        Number of worker processes.  ``1`` (default) runs serially on the
        legacy single-stream path unless ``chunk_size`` is set; ``> 1``
        enables chunked execution over a process pool.
    chunk_size:
        Samples per chunk in chunked mode; defaults to
        :data:`DEFAULT_CHUNK_SIZE`.  Setting it with ``workers=1`` runs the
        chunked path in-process (useful to reproduce a parallel run's
        statistics serially).  Must be even when ``antithetic`` is set so
        antithetic pairs never straddle a chunk boundary.
    """

    transient: TransientConfig
    num_samples: int = 1000
    seed: int = 0
    antithetic: bool = False
    store_nodes: Tuple[int, ...] = ()
    solver: Optional[str] = None
    workers: int = 1
    chunk_size: Optional[int] = None

    def __post_init__(self):
        if self.num_samples < 2:
            raise AnalysisError("Monte Carlo needs at least 2 samples")
        if self.workers < 1:
            raise AnalysisError(f"workers must be at least 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 2:
            raise AnalysisError(f"chunk_size must be at least 2, got {self.chunk_size}")
        if self.antithetic and self.chunked:
            size = self.chunk_size or DEFAULT_CHUNK_SIZE
            if size % 2:
                raise AnalysisError(
                    "antithetic sampling needs an even chunk_size so that "
                    f"(xi, -xi) pairs stay within one chunk; got {size}"
                )
            if self.num_samples % 2:
                raise AnalysisError(
                    "antithetic chunked sampling needs an even num_samples "
                    "so the final chunk is not left with an unpaired sample; "
                    f"got {self.num_samples}"
                )

    @property
    def effective_transient(self) -> TransientConfig:
        """The transient config with the ``solver`` override folded in."""
        if self.solver is None or self.solver == self.transient.solver:
            return self.transient
        return replace(self.transient, solver=self.solver)

    @property
    def chunked(self) -> bool:
        """Whether this configuration uses the chunked execution path."""
        return self.workers > 1 or self.chunk_size is not None

    def chunk_sizes(self) -> Tuple[int, ...]:
        """Per-chunk sample counts.

        The layout depends only on ``num_samples`` and ``chunk_size`` (never
        on ``workers``), which is what makes chunked statistics invariant to
        the worker count.
        """
        if not self.chunked:
            return (self.num_samples,)
        return _chunk_layout(self.num_samples, self.chunk_size)


class MonteCarloTransientResult:
    """Statistics of a Monte Carlo transient sweep."""

    def __init__(
        self,
        times: np.ndarray,
        mean_voltage: np.ndarray,
        variance: np.ndarray,
        num_samples: int,
        vdd: float,
        node_names: Optional[Sequence[str]] = None,
        node_drop_samples: Optional[Dict[int, np.ndarray]] = None,
        wall_time: Optional[float] = None,
        solver: Optional[str] = None,
    ):
        self.times = np.asarray(times, dtype=float)
        self._mean = np.asarray(mean_voltage, dtype=float)
        self._variance = np.asarray(variance, dtype=float)
        self.num_samples = int(num_samples)
        self.vdd = float(vdd)
        self.node_names = tuple(node_names) if node_names is not None else None
        self.node_drop_samples = node_drop_samples or {}
        self.wall_time = wall_time
        #: The per-sample linear-solver backend that ran.
        self.solver = solver

    # ------------------------------------------------------------------ sizes
    @property
    def num_times(self) -> int:
        return self.times.size

    @property
    def num_nodes(self) -> int:
        return self._mean.shape[1]

    # ------------------------------------------------------------- statistics
    @property
    def mean_voltage(self) -> np.ndarray:
        return self._mean

    @property
    def variance(self) -> np.ndarray:
        return self._variance

    @property
    def std_voltage(self) -> np.ndarray:
        return np.sqrt(np.maximum(self._variance, 0.0))

    @property
    def mean_drop(self) -> np.ndarray:
        return self.vdd - self._mean

    @property
    def std_drop(self) -> np.ndarray:
        return self.std_voltage

    def drop_samples(self, node: int, time_index: Optional[int] = None) -> np.ndarray:
        """Recorded per-sample drops of a stored node (all times or one index)."""
        if node not in self.node_drop_samples:
            raise AnalysisError(f"node {node} was not in store_nodes when the sweep was run")
        samples = self.node_drop_samples[node]
        return samples if time_index is None else samples[:, time_index]


@dataclass(frozen=True)
class MonteCarloDCResult:
    """Statistics of a Monte Carlo DC sweep."""

    mean_voltage: np.ndarray
    variance: np.ndarray
    num_samples: int
    vdd: float
    wall_time: Optional[float] = None
    solver: Optional[str] = None

    @property
    def std_voltage(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.variance, 0.0))

    @property
    def mean_drop(self) -> np.ndarray:
        return self.vdd - self.mean_voltage

    @property
    def std_drop(self) -> np.ndarray:
        return self.std_voltage


def _draw_samples(system: StochasticSystem, config: MonteCarloConfig) -> np.ndarray:
    sampler = GermSampler(system, seed=config.seed)
    if config.antithetic:
        return sampler.sample_antithetic(config.num_samples)
    return sampler.sample(config.num_samples)


def _accumulate_transient_chunk(
    system: StochasticSystem,
    transient: TransientConfig,
    germs: np.ndarray,
    store_nodes: Tuple[int, ...],
) -> Tuple[RunningMoments, Dict[int, np.ndarray]]:
    """One deterministic transient per germ; Welford moments + stored drops."""
    moments = RunningMoments()
    stored: Dict[int, List[np.ndarray]] = {node: [] for node in store_nodes}
    for xi in germs:
        conductance, capacitance = system.realize_matrices(xi)
        rhs = system.realize_rhs(xi)
        result = run_transient(
            conductance,
            capacitance,
            rhs,
            transient,
            vdd=system.vdd,
            store=True,
        )
        moments.update(result.voltages)
        for node in store_nodes:
            stored[node].append(system.vdd - result.voltages[:, node])
    waveforms = {
        node: np.vstack(samples) if samples else np.empty((0, transient.num_steps + 1))
        for node, samples in stored.items()
    }
    return moments, waveforms


#: The system a chunk worker operates on.  Installed once per worker process
#: by the pool initializer (so the system is pickled once per worker, not
#: once per chunk) and set directly for in-process chunk execution.
_CHUNK_SYSTEM: Optional[StochasticSystem] = None


def _init_chunk_worker(system: StochasticSystem) -> None:
    global _CHUNK_SYSTEM
    _CHUNK_SYSTEM = system


def _transient_chunk_job(args):
    """Worker entry point of a chunked transient sweep (module-level for pickling)."""
    transient, chunk_seed, chunk_samples, antithetic, store_nodes = args
    system = _CHUNK_SYSTEM
    sampler = GermSampler(system, seed=chunk_seed)
    if antithetic:
        germs = sampler.sample_antithetic(chunk_samples)
    else:
        germs = sampler.sample(chunk_samples)
    moments, waveforms = _accumulate_transient_chunk(system, transient, germs, store_nodes)
    return moments.state() + (waveforms,)


def _dc_chunk_job(args):
    """Worker entry point of a chunked DC sweep (module-level for pickling)."""
    t, chunk_seed, chunk_samples, solver = args
    system = _CHUNK_SYSTEM
    sampler = GermSampler(system, seed=chunk_seed)
    germs = sampler.sample(chunk_samples)
    moments = RunningMoments()
    for xi in germs:
        conductance, _ = system.realize_matrices(xi)
        voltages = solve_dc(conductance, system.excitation.sample(t, xi), solver=solver)
        moments.update(voltages)
    return moments.state()


def _system_ships_to_workers(system: StochasticSystem) -> bool:
    """Whether ``system`` can be pickled into worker processes."""
    try:
        pickle.dumps(system)
        return True
    except Exception:  # pickle raises a zoo: PicklingError, TypeError, ...
        return False


def _run_chunk_jobs(
    jobs: List[tuple], worker, workers: int, system: StochasticSystem
) -> List[tuple]:
    """Run chunk jobs in order, over a process pool when possible.

    The system is shipped to each worker process exactly once (pool
    initializer); the per-chunk job tuples carry only seeds and settings.
    Results come back in chunk-index order regardless of completion order
    (``ProcessPoolExecutor.map`` preserves ordering), so downstream merges
    are deterministic for any worker count.
    """
    if workers > 1 and len(jobs) > 1:
        if _system_ships_to_workers(system):
            with ProcessPoolExecutor(
                max_workers=min(workers, len(jobs)),
                initializer=_init_chunk_worker,
                initargs=(system,),
            ) as pool:
                return list(pool.map(worker, jobs))
        warnings.warn(
            "stochastic system cannot be pickled into worker processes; "
            "running Monte Carlo chunks serially in-process",
            RuntimeWarning,
            stacklevel=3,
        )
    previous = _CHUNK_SYSTEM
    _init_chunk_worker(system)
    try:
        return [worker(job) for job in jobs]
    finally:
        _init_chunk_worker(previous)


def _chunk_seeds(seed: int, num_chunks: int) -> List[np.random.SeedSequence]:
    """Independent, non-overlapping per-chunk seed sequences."""
    return np.random.SeedSequence(seed).spawn(num_chunks)


def run_monte_carlo_transient(
    system: StochasticSystem, config: MonteCarloConfig
) -> MonteCarloTransientResult:
    """Monte Carlo transient sweep over the process-variation space.

    With ``config.workers > 1`` (or an explicit ``chunk_size``) the sweep
    runs chunked: statistics are identical for any worker count given the
    same ``seed``, ``num_samples`` and ``chunk_size``; see the module
    docstring.
    """
    started = time.perf_counter()
    transient = config.effective_transient
    # Resolved once here, so the chunk workers and the result agree.
    transient = replace(transient, solver=resolve_solver(transient.solver, galerkin=False))
    times = transient.times()

    if config.chunked:
        sizes = config.chunk_sizes()
        seeds = _chunk_seeds(config.seed, len(sizes))
        jobs = [
            (
                transient,
                chunk_seed,
                chunk_samples,
                config.antithetic,
                config.store_nodes,
            )
            for chunk_seed, chunk_samples in zip(seeds, sizes)
        ]
        outcomes = _run_chunk_jobs(jobs, _transient_chunk_job, config.workers, system)
        moments = RunningMoments()
        chunk_waveforms: Dict[int, List[np.ndarray]] = {node: [] for node in config.store_nodes}
        for count, mean, m2, waveforms in outcomes:
            moments.merge(RunningMoments.from_state(count, mean, m2))
            for node in config.store_nodes:
                chunk_waveforms[node].append(waveforms[node])
        node_drop_samples = {node: np.vstack(parts) for node, parts in chunk_waveforms.items()}
        num_samples = moments.count
    else:
        germs = _draw_samples(system, config)
        moments, node_drop_samples = _accumulate_transient_chunk(
            system, transient, germs, config.store_nodes
        )
        num_samples = germs.shape[0]

    elapsed = time.perf_counter() - started
    return MonteCarloTransientResult(
        times=times,
        mean_voltage=moments.mean,
        variance=moments.variance(ddof=1),
        num_samples=num_samples,
        vdd=system.vdd,
        node_names=system.node_names,
        node_drop_samples=node_drop_samples,
        wall_time=elapsed,
        solver=transient.solver,
    )


def run_monte_carlo_dc(
    system: StochasticSystem,
    num_samples: int = 1000,
    t: float = 0.0,
    seed: int = 0,
    solver: Optional[str] = None,
    workers: int = 1,
    chunk_size: Optional[int] = None,
) -> MonteCarloDCResult:
    """Monte Carlo DC sweep (steady-state IR drop under variation).

    ``workers`` / ``chunk_size`` behave exactly as in the transient sweep:
    chunked statistics depend on the seed and chunk layout but never on the
    worker count.
    """
    if num_samples < 2:
        raise AnalysisError("Monte Carlo needs at least 2 samples")
    if workers < 1:
        raise AnalysisError(f"workers must be at least 1, got {workers}")
    if chunk_size is not None and chunk_size < 2:
        raise AnalysisError(f"chunk_size must be at least 2, got {chunk_size}")
    started = time.perf_counter()
    solver = resolve_solver(solver, galerkin=False)
    if workers > 1 or chunk_size is not None:
        sizes = _chunk_layout(num_samples, chunk_size)
        seeds = _chunk_seeds(seed, len(sizes))
        jobs = [
            (t, chunk_seed, chunk_samples, solver)
            for chunk_seed, chunk_samples in zip(seeds, sizes)
        ]
        outcomes = _run_chunk_jobs(jobs, _dc_chunk_job, workers, system)
        moments = RunningMoments()
        for state in outcomes:
            moments.merge(RunningMoments.from_state(*state))
    else:
        sampler = GermSampler(system, seed=seed)
        germs = sampler.sample(num_samples)
        moments = RunningMoments()
        for xi in germs:
            conductance, _ = system.realize_matrices(xi)
            voltages = solve_dc(conductance, system.excitation.sample(t, xi), solver=solver)
            moments.update(voltages)
    elapsed = time.perf_counter() - started
    return MonteCarloDCResult(
        mean_voltage=moments.mean,
        variance=moments.variance(ddof=1),
        num_samples=num_samples,
        vdd=system.vdd,
        wall_time=elapsed,
        solver=solver,
    )
