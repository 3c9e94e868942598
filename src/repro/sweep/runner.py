"""Parallel execution of sweep plans over a streaming results backend.

:class:`SweepRunner` fans the cases of a :class:`~repro.sweep.plan.SweepPlan`
out over a :class:`concurrent.futures.ProcessPoolExecutor`.  Cases -- not
Monte Carlo samples -- are the unit of parallelism here; each case runs one
engine end to end through the :class:`repro.api.Analysis` facade.  Every
worker process keeps a session cache keyed by ``(nodes, grid_seed, corner,
transient)``, so the cases that share a grid reuse the session's chaos
bases, factorisations and Galerkin assemblies exactly as a serial run would.

Completed cases stream into a :class:`~repro.sweep.store.ResultsBackend` as
workers return them (no driver-side result list), and the returned
:class:`SweepOutcome` is a lazy read-view over that backend in plan order.
Cases whose store key is already present are served from the backend
instead of a solver, which is both the result cache and the resume path:
:meth:`SweepRunner.resume` re-runs a plan against the store of a killed
campaign and executes only the missing cases.

Because every case carries its own deterministic seed (see
:mod:`repro.sweep.plan`), the *numbers* a sweep produces are identical for
any ``workers`` count -- and for any interrupt/resume split of the
campaign; only the wall times change.
"""

from __future__ import annotations

import dataclasses
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from ..errors import AnalysisError, StoreError
from ..montecarlo.statistics import RunningMoments
from ..sim.transient import TransientConfig
from ..telemetry import merge_summaries, profile
from .plan import SweepCase, SweepPlan, corner_spec
from .store import MemoryBackend, ResultsBackend

__all__ = ["SweepRunner", "SweepCaseResult", "SweepOutcome", "speedups_for"]


@dataclass(frozen=True)
class SweepCaseResult:
    """Summary of one executed case (plus optional full statistics).

    ``times`` / ``mean`` / ``std`` are populated only when the runner was
    built with ``keep_statistics=True``; they allow accuracy comparisons
    (e.g. Table-1 error metrics) between cases without re-running anything.
    ``telemetry`` carries the case's :meth:`repro.telemetry.Telemetry.summary`
    (phase timings, solver counters, per-step stats) when the runner was
    built with ``telemetry=True``; it is JSON-safe and travels through every
    results backend.  ``solver`` is the backend the case asked for (part of
    its identity, ``None`` for the engine's default); ``backend`` is the one
    that ran, as the engine resolved it (see
    :func:`repro.sweep.record.case_backend` for entries written before it
    was recorded).
    """

    engine: str
    nodes: int
    corner: str
    order: Optional[int]
    samples: Optional[int]
    seed: int
    name: str
    num_nodes: int
    wall_time: float
    worst_drop: float
    max_std: float
    vdd: float = 1.0
    solver: Optional[str] = None
    scheme: Optional[str] = None
    backend: Optional[str] = None
    telemetry: Optional[Dict] = field(default=None, repr=False)
    times: Optional[np.ndarray] = field(default=None, repr=False)
    mean: Optional[np.ndarray] = field(default=None, repr=False)
    std: Optional[np.ndarray] = field(default=None, repr=False)
    raw: Optional[object] = field(default=None, repr=False)

    def key(self) -> Tuple:
        """Identity used to match results across sweeps (excludes seeds).

        Mirrors :meth:`repro.sweep.plan.SweepCase.key`: optional fields
        join the identity only when set, so pre-existing identities are
        unchanged.
        """
        identity = (self.engine, self.nodes, self.order, self.samples, self.corner)
        if self.solver is not None:
            identity = identity + (self.solver,)
        if self.scheme is not None:
            identity = identity + (self.scheme,)
        return identity

    @property
    def has_statistics(self) -> bool:
        return self.mean is not None

    @property
    def mean_drop(self) -> np.ndarray:
        """Mean voltage drop (requires ``keep_statistics``)."""
        return self.vdd - self._require_statistics("mean_drop")[0]

    @property
    def std_drop(self) -> np.ndarray:
        """Standard deviation of the drop (requires ``keep_statistics``)."""
        return self._require_statistics("std_drop")[1]

    def _require_statistics(self, what: str) -> Tuple[np.ndarray, np.ndarray]:
        if self.mean is None or self.std is None:
            raise AnalysisError(
                f"{what} needs full statistics; run the sweep with "
                "SweepRunner(keep_statistics=True)"
            )
        return self.mean, self.std

    def to_record(self) -> Dict:
        """The case's :mod:`repro.sweep.record` artifact entry."""
        record = {
            "name": self.name,
            "engine": self.engine,
            "nodes": int(self.nodes),
            "num_nodes": int(self.num_nodes),
            "corner": self.corner,
            "order": None if self.order is None else int(self.order),
            "samples": None if self.samples is None else int(self.samples),
            "solver": None if self.solver is None else str(self.solver),
            "scheme": None if self.scheme is None else str(self.scheme),
            "seed": int(self.seed),
            "wall_time_s": float(self.wall_time),
            "worst_drop_v": float(self.worst_drop),
            "max_std_v": float(self.max_std),
        }
        if self.backend is not None:
            record["backend"] = str(self.backend)
        if self.telemetry is not None:
            record["telemetry"] = dict(self.telemetry)
        return record


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------
class _SessionCache:
    """Bounded per-process cache of Analysis sessions.

    An LRU over *grid identities* ``(nodes, grid_seed)``: a multi-grid
    campaign touches each grid's cases in bursts, so only the most recent
    grids are worth holding, and evicting a whole grid drops every corner
    session (bases, factorisations, Galerkin assemblies) it accumulated.
    Corner sessions within one grid share the generated netlist and the
    stamped MNA system -- both are deterministic functions of the grid
    identity, so the sharing is value-free.
    """

    def __init__(self, max_grids: int = 4):
        self.max_grids = int(max_grids)
        self._grids: "OrderedDict[Tuple, Dict]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._grids)

    def grid_keys(self) -> Tuple:
        return tuple(self._grids)

    def clear(self) -> None:
        self._grids.clear()

    def session_for(self, case: SweepCase, transient: TransientConfig):
        from ..api import Analysis  # deferred: workers import lazily

        grid_key = (case.nodes, case.grid_seed)
        grid = self._grids.get(grid_key)
        if grid is None:
            grid = {}
            self._grids[grid_key] = grid
            while len(self._grids) > self.max_grids:
                self._grids.popitem(last=False)
        else:
            self._grids.move_to_end(grid_key)
        key = (case.corner, transient)
        session = grid.get(key)
        if session is None:
            sibling = next(iter(grid.values()), None)
            if sibling is None:
                session = Analysis.from_spec(
                    case.nodes,
                    seed=case.grid_seed,
                    variation=corner_spec(case.corner),
                    transient=transient,
                )
            else:
                # Same grid, new corner: reuse the sibling's netlist and
                # stamped system instead of regenerating them (bit-identical
                # -- grid generation and stamping are deterministic).
                session = Analysis(
                    sibling.netlist,
                    stamped=sibling.stamped,
                    variation=corner_spec(case.corner),
                    transient=transient,
                )
            # Every corner session and every run on this grid asks for the
            # same fixed time grid; memoise the drain-current sums (the
            # cached values are identical to uncached evaluation).
            session.stamped.enable_drain_cache()
            grid[key] = session
        return session


#: Per-process cache of Analysis sessions.  Worker processes are long-lived
#: within one sweep, so cases sharing a grid reuse the session's chaos bases,
#: LU factorisations and Galerkin assemblies; the LRU bound keeps multi-grid
#: campaigns from accumulating one session set per grid ever visited.
_WORKER_SESSIONS = _SessionCache()


def _execute_case(args) -> SweepCaseResult:
    """Run one case (module-level so process pools can pickle it)."""
    case, transient, keep_statistics, keep_raw, profile_case = args
    session = _WORKER_SESSIONS.session_for(case, transient)
    started = time.perf_counter()
    telemetry = None
    if profile_case:
        # A fresh per-case telemetry context, activated *inside* the worker
        # process: the summary is plain JSON-safe data, so it pickles back
        # to the driver with the result no matter the workers count.
        with profile() as tele:
            view = session.run(case.engine, mode="transient", **case.run_options())
        telemetry = tele.summary()
    else:
        view = session.run(case.engine, mode="transient", **case.run_options())
    elapsed = time.perf_counter() - started
    mean = view.mean()
    std = view.std()
    wall = view.wall_time if view.wall_time is not None else elapsed
    return SweepCaseResult(
        engine=case.engine,
        nodes=case.nodes,
        corner=case.corner,
        order=case.order,
        samples=case.samples,
        solver=case.solver,
        scheme=case.scheme,
        backend=getattr(view, "solver", None),
        telemetry=telemetry,
        seed=case.seed,
        name=case.name,
        num_nodes=int(mean.shape[-1]),
        wall_time=float(wall),
        worst_drop=float(view.worst_drop()),
        max_std=float(np.max(std)) if std.size else 0.0,
        vdd=float(session.vdd),
        times=np.asarray(view.raw.times, dtype=float)
        if keep_statistics and hasattr(view.raw, "times")
        else None,
        mean=np.asarray(mean, dtype=float) if keep_statistics else None,
        std=np.asarray(std, dtype=float) if keep_statistics else None,
        raw=view.raw if keep_raw else None,
    )


# --------------------------------------------------------------------------
# Driver side
# --------------------------------------------------------------------------
def speedups_for(results: Iterable[SweepCaseResult]) -> Dict[str, float]:
    """Wall-time speedup of every non-Monte-Carlo case vs its MC baseline.

    The baseline of a case is the ``montecarlo`` case on the same grid and
    corner; grids without an MC case contribute nothing.  One pass for the
    baselines, one for the ratios -- callers may hand in any result
    iterable (a materialised list or a backend scan).
    """
    results = list(results)
    baselines = {
        (result.nodes, result.corner): result.wall_time
        for result in results
        if result.engine == "montecarlo"
    }
    speedups: Dict[str, float] = {}
    for result in results:
        if result.engine == "montecarlo":
            continue
        baseline = baselines.get((result.nodes, result.corner))
        if baseline is None or result.wall_time <= 0:
            continue
        speedups[result.name] = baseline / result.wall_time
    return speedups


@dataclass(frozen=True)
class SweepOutcome:
    """Lazy read-view over the results backend of one executed plan.

    Iteration and :meth:`case` walk ``plan.cases`` in plan order and fetch
    each result from the backend on demand -- nothing is materialised until
    asked for.  ``executed``/``reused`` split the plan into cases this run
    actually solved and cases served from the store.
    """

    store: ResultsBackend
    plan: SweepPlan
    workers: int
    wall_time: float
    executed: int = 0
    reused: int = 0

    def __len__(self) -> int:
        return len(self.plan.cases)

    def __iter__(self) -> Iterator[SweepCaseResult]:
        for case in self.plan.cases:
            yield self.store.get(case)

    @property
    def results(self) -> Tuple[SweepCaseResult, ...]:
        """All results, materialised in plan order (backward-compatible)."""
        return tuple(self)

    def case(self, **criteria) -> SweepCaseResult:
        """The unique result matching the given attribute values.

        Criteria are :class:`SweepCaseResult` field names; unknown names
        fail fast with the valid list, and a no-match error names the
        nearest stored cases so typos are obvious.
        """
        if not criteria:
            raise AnalysisError(
                "case() needs at least one criterion, e.g. case(engine='opera', nodes=600)"
            )
        valid = {f.name for f in dataclasses.fields(SweepCaseResult)}
        unknown = sorted(set(criteria) - valid)
        if unknown:
            raise AnalysisError(
                f"unknown case criterion(s): {', '.join(unknown)}; "
                f"valid fields: {', '.join(sorted(valid))}"
            )
        results = list(self)
        matches = [
            result
            for result in results
            if all(getattr(result, key) == value for key, value in criteria.items())
        ]
        if not matches:
            scored = sorted(
                results,
                key=lambda result: sum(
                    getattr(result, key) == value for key, value in criteria.items()
                ),
                reverse=True,
            )
            nearest = ", ".join(result.name for result in scored[:5])
            raise AnalysisError(
                f"no sweep case matches {criteria!r}; nearest of the "
                f"{len(results)} case(s): {nearest}"
            )
        if len(matches) > 1:
            names = ", ".join(result.name for result in matches)
            raise AnalysisError(f"criteria {criteria!r} are ambiguous: {names}")
        return matches[0]

    def speedups(self) -> Dict[str, float]:
        """Wall-time speedups vs the per-grid Monte Carlo baselines."""
        return speedups_for(self)

    def moments(self) -> Dict[str, RunningMoments]:
        """Per-engine running moments over ``(wall_time, worst_drop, max_std)``.

        One incremental plan-order pass over the backend -- constant memory
        beyond the accumulators, no per-case lists -- so the values are
        deterministic for any worker count and any interrupt/resume split.
        """
        per_engine: Dict[str, RunningMoments] = {}
        for result in self:
            accumulator = per_engine.setdefault(result.engine, RunningMoments())
            accumulator.update(np.array([result.wall_time, result.worst_drop, result.max_std]))
        return per_engine

    def aggregates(self) -> Dict[str, Dict[str, float]]:
        """Summary statistics per engine plus an ``overall`` entry.

        The per-engine accumulators of :meth:`moments` are folded into the
        overall one with :meth:`RunningMoments.merge` in sorted engine
        order, so the combine is deterministic.
        """
        per_engine = self.moments()
        overall = RunningMoments()
        summaries: Dict[str, Dict[str, float]] = {}
        for engine in sorted(per_engine):
            summaries[engine] = _moments_summary(per_engine[engine])
            overall.merge(per_engine[engine])
        summaries["overall"] = _moments_summary(overall)
        return summaries

    def telemetry_summary(self) -> Optional[Dict]:
        """The campaign's merged per-case telemetry summary.

        One plan-order pass over the backend, folding every case's
        telemetry block with :func:`repro.telemetry.merge_summaries`; the
        merge order is the plan order, so the result is deterministic for
        any worker count and any interrupt/resume split.  ``None`` when the
        sweep ran without ``SweepRunner(telemetry=True)``.
        """
        return merge_summaries(
            result.telemetry for result in self if result.telemetry is not None
        )


def _moments_summary(moments: RunningMoments) -> Dict[str, float]:
    mean = moments.mean
    std = moments.std()
    total = float(mean[0] * moments.count)
    return {
        "cases": int(moments.count),
        "wall_time_total_s": total,
        "wall_time_mean_s": float(mean[0]),
        "wall_time_std_s": float(std[0]),
        "worst_drop_mean_v": float(mean[1]),
        "worst_drop_std_v": float(std[1]),
        "max_std_mean_v": float(mean[2]),
        "cases_per_second": float(moments.count) / total if total > 0 else None,
    }


class SweepRunner:
    """Executes :class:`SweepPlan` objects, optionally over a process pool.

    Parameters
    ----------
    workers:
        Number of worker processes; ``1`` runs in-process (and still reuses
        sessions across cases through the same cache).
    keep_statistics:
        Ship the full mean/std arrays (and the time axis) back with every
        case.  Costs bandwidth on big grids; needed for accuracy metrics.
    keep_raw:
        Ship the engine-native raw result back with every case (chaos
        coefficients, recorded Monte Carlo waveforms, ...); the heaviest
        option, used by the Figure-1/2 distribution benches.  Only backends
        with ``supports_raw`` (the default :class:`MemoryBackend`) accept
        it.
    retain_sessions:
        Keep driver-side sessions cached across :meth:`run` calls.  By
        default the cache is cleared after every run so long-lived driver
        processes do not accumulate factorisations; staged sweeps that run
        several plans on the same grids (e.g. the Figure-1/2 bench) opt in
        to reuse the grid setup.
    telemetry:
        Profile every executed case: each case runs inside its own
        :func:`repro.telemetry.profile` context (in the worker process that
        executes it) and ships the JSON-safe summary back on
        :attr:`SweepCaseResult.telemetry`.  The summaries persist through
        every results backend and merge deterministically via
        :meth:`SweepOutcome.telemetry_summary`.
    """

    def __init__(
        self,
        workers: int = 1,
        keep_statistics: bool = False,
        keep_raw: bool = False,
        retain_sessions: bool = False,
        telemetry: bool = False,
    ):
        if workers < 1:
            raise AnalysisError(f"workers must be at least 1, got {workers}")
        self.workers = int(workers)
        self.keep_statistics = bool(keep_statistics)
        self.keep_raw = bool(keep_raw)
        self.retain_sessions = bool(retain_sessions)
        self.telemetry = bool(telemetry)

    def run(self, plan: SweepPlan, store: Optional[ResultsBackend] = None) -> SweepOutcome:
        """Execute the cases of ``plan`` that ``store`` does not already hold.

        With the default ``store=None`` a fresh in-memory
        :class:`~repro.sweep.store.MemoryBackend` is used and every case
        executes -- the historical behaviour, signature-compatible with all
        pre-store call sites.  With an explicit backend, cases whose store
        key is present are served from the backend (zero solver calls);
        everything else executes and streams into the backend as it
        completes.

        Scheduling: sampled cases (Monte Carlo, regression PCE) that chunk
        over their own worker pool (``case.workers > 1``) execute in the
        driver process, one at a time, while every other case fans out over
        the case pool.  Process counts therefore *add* (``workers + chunk
        workers``) instead of multiplying --
        nesting a chunk pool per pool worker would oversubscribe the
        machine -- and the sweep's critical path (usually its largest MC
        case) still gets split across processes.
        """
        backend = store if store is not None else MemoryBackend()
        backend.open(plan)
        if self.keep_raw and not backend.supports_raw:
            raise StoreError(
                f"{type(backend).__name__} cannot hold raw engine payloads; "
                "run with keep_raw=False or the in-memory backend"
            )
        pending = [case for case in plan.cases if not backend.contains(case)]
        reused = len(plan.cases) - len(pending)
        started = time.perf_counter()
        driver_cases = [
            case
            for case in pending
            if case.engine in ("montecarlo", "pce-regression") and case.workers > 1
        ]
        driver_set = set(driver_cases)
        pooled_cases = [case for case in pending if case not in driver_set]

        pooled = self.workers > 1 and len(pooled_cases) > 1

        def job(payload) -> Tuple:
            return (payload, plan.transient, self.keep_statistics, self.keep_raw, self.telemetry)

        try:
            if pooled:
                with ProcessPoolExecutor(
                    max_workers=min(self.workers, len(pooled_cases))
                ) as pool:
                    futures = {pool.submit(_execute_case, job(case)): case for case in pooled_cases}
                    try:
                        # Driver-side MC cases overlap with the pool's work.
                        for case in driver_cases:
                            backend.append(case, _execute_case(job(case)))
                        # Stream pooled results into the backend as they
                        # finish, not in submission order: the backend owns
                        # ordering (the outcome view reads in plan order) and
                        # an interrupt loses only the unflushed tail, not
                        # everything after the first straggler.
                        for future in as_completed(futures):
                            backend.append(futures[future], future.result())
                    except BaseException:
                        # Abort: stop feeding the pool and let in-flight
                        # cases finish before the pool is torn down.
                        pool.shutdown(wait=True, cancel_futures=True)
                        raise
            else:
                for case in pending:
                    backend.append(case, _execute_case(job(case)))
        finally:
            # Cases executed in this process cached their sessions in the
            # module-global; drop them so long-lived drivers do not leak
            # factorisations and Galerkin assemblies across sweeps.  Flush
            # the backend even on failure: every already-streamed case is
            # progress a resume can build on.
            if not self.retain_sessions:
                _WORKER_SESSIONS.clear()
            backend.finalize()
        elapsed = time.perf_counter() - started
        return SweepOutcome(
            store=backend,
            plan=plan,
            workers=self.workers,
            wall_time=elapsed,
            executed=len(pending),
            reused=reused,
        )

    def resume(self, plan: SweepPlan, store: ResultsBackend) -> SweepOutcome:
        """Continue an interrupted campaign from ``store``.

        Cases already in the store are skipped (their persisted results are
        served as-is); only the missing ones execute.  Because every case
        is independently seeded, the combined statistics -- and the
        exported :class:`~repro.sweep.record.BenchRecord` cases -- are
        bit-identical to an uninterrupted run for any worker count.  A
        fully-populated store resumes with zero solver calls.
        """
        if store is None:
            raise StoreError(
                "resume needs the results store of the interrupted campaign, "
                "e.g. ShardedNpzBackend('campaign-store/')"
            )
        return self.run(plan, store=store)
