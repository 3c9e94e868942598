"""The :class:`Analysis` session facade.

An :class:`Analysis` owns everything one grid analysis needs -- the netlist,
the stamped MNA system, the :class:`~repro.variation.model.VariationSpec`,
the default transient settings -- plus a cache of the expensive
intermediates:

* polynomial chaos bases, keyed by ``(families, order)``;
* linear solvers (LU factorisations / preconditioners), keyed by the
  content fingerprint of the system matrix, the backend name and its
  options;
* assembled Galerkin (augmented) systems, keyed by expansion order;
* nominal deterministic transients, keyed by their
  :class:`~repro.sim.transient.TransientConfig`.

Repeated runs on the same session -- an order-1 vs order-2 ablation, an
OPERA-then-Monte-Carlo comparison, a solver shoot-out -- therefore reuse
work instead of rebuilding it.  Every registered engine runs through
:meth:`Analysis.run` and returns an object satisfying the
:class:`~repro.api.result.AnalysisResult` protocol.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Sequence, Union

import scipy.sparse as sp

from ..chaos.basis import PolynomialChaosBasis
from ..chaos.galerkin import GalerkinSystem
from ..errors import AnalysisError
from ..grid.generator import GridSpec, generate_power_grid, spec_for_node_count
from ..grid.netlist import PowerGridNetlist
from ..grid.spice_io import read_spice
from ..grid.stamping import StampedSystem, stamp
from ..opera.report import OperaReport
from ..opera.report import summarize as _summarize_report
from ..sim.linear import LinearSolver, make_solver, matrix_fingerprint, sparsity_fingerprint
from ..sim.results import TransientResult
from ..sim.transient import TransientConfig, transient_analysis
from ..telemetry import current_telemetry
from ..variation.model import StochasticSystem, VariationSpec, build_stochastic_system
from .engines import get_engine
from .result import AnalysisResult

__all__ = ["Analysis", "DEFAULT_TRANSIENT"]

#: Default time axis of a session (matches the CLI defaults: 8 ns, 0.2 ns step).
DEFAULT_TRANSIENT = TransientConfig(t_stop=8e-9, dt=0.2e-9)


class Analysis:
    """A reusable analysis session for one power grid.

    Build one with :meth:`from_spice`, :meth:`from_spec` or
    :meth:`from_netlist`, optionally adjust it with the fluent ``with_*``
    methods, then call :meth:`run` with any registered engine name::

        session = Analysis.from_spec(GridSpec(nx=20, ny=20, seed=1))
        opera = session.run("opera", order=2)
        mc = session.run("montecarlo", samples=200)
        print(session.compare())

    The session caches chaos bases, factorisations, Galerkin assemblies and
    nominal transients, so follow-up runs skip the expensive setup.
    """

    _CACHE_NAMES = ("basis", "solver", "galerkin", "nominal")

    def __init__(
        self,
        netlist: Optional[PowerGridNetlist] = None,
        *,
        stamped: Optional[StampedSystem] = None,
        system: Optional[StochasticSystem] = None,
        variation: Optional[VariationSpec] = None,
        transient: Optional[TransientConfig] = None,
        name: Optional[str] = None,
    ):
        if netlist is None and stamped is None and system is None:
            raise AnalysisError(
                "Analysis needs a netlist, a stamped system or a stochastic "
                "system; use Analysis.from_spice / from_spec / from_netlist"
            )
        self._netlist = netlist
        self._stamped = stamped
        self._system = system
        self._system_injected = system is not None
        self._variation = variation
        self._transient = transient if transient is not None else DEFAULT_TRANSIENT
        if name is None and netlist is not None:
            name = getattr(netlist, "name", None)
        self.name = name or "analysis"

        self._caches: Dict[str, Dict[Any, Any]] = {key: {} for key in self._CACHE_NAMES}
        self._stats: Dict[str, Dict[str, int]] = {
            key: {"hits": 0, "misses": 0} for key in self._CACHE_NAMES
        }
        # Sparsity-pattern index over the solver cache: maps
        # (pattern fingerprint, method, options) to the cache key of the most
        # recent solver built for that pattern, so a new corner's matrix is
        # built through Solver.refactor, reusing the cached CSC layout.
        self._pattern_index: Dict[Any, Any] = {}

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_spice(cls, path: str, **kwargs) -> "Analysis":
        """Session for a SPICE-subset deck on disk."""
        return cls(read_spice(path), **kwargs)

    @classmethod
    def from_spec(cls, spec: Union[GridSpec, int], *, seed: int = 0, **kwargs) -> "Analysis":
        """Session for a synthetic grid from a :class:`GridSpec` (or a target
        node count, which is resolved via :func:`spec_for_node_count`)."""
        if isinstance(spec, int):
            spec = spec_for_node_count(spec, seed=seed)
        return cls(generate_power_grid(spec), **kwargs)

    @classmethod
    def from_netlist(cls, netlist: PowerGridNetlist, **kwargs) -> "Analysis":
        """Session for an already-built netlist."""
        return cls(netlist, **kwargs)

    @classmethod
    def from_system(cls, system: StochasticSystem, **kwargs) -> "Analysis":
        """Session for a prebuilt stochastic system (e.g. leakage or spatial
        variation models); grid-level features that need the netlist or the
        stamped matrices are unavailable."""
        return cls(system=system, **kwargs)

    # ------------------------------------------------------------- components
    @property
    def netlist(self) -> PowerGridNetlist:
        if self._netlist is None:
            raise AnalysisError("this session was built without a netlist")
        return self._netlist

    @property
    def stamped(self) -> StampedSystem:
        """The stamped (nominal) MNA system, stamped on first use."""
        if self._stamped is None:
            self._stamped = stamp(self.netlist)
        return self._stamped

    @property
    def variation(self) -> VariationSpec:
        """The process-variation spec (defaults to the paper's settings)."""
        if self._variation is None:
            self._variation = VariationSpec.paper_defaults()
        return self._variation

    @property
    def system(self) -> StochasticSystem:
        """The stochastic MNA system, built on first use."""
        if self._system is None:
            self._system = build_stochastic_system(self.stamped, self.variation)
        return self._system

    @property
    def transient(self) -> TransientConfig:
        """Default time axis used when a run does not override it."""
        return self._transient

    @property
    def vdd(self) -> float:
        return self._system.vdd if self._system is not None else self.stamped.vdd

    @property
    def num_nodes(self) -> int:
        return self._system.num_nodes if self._system is not None else self.stamped.num_nodes

    # ------------------------------------------------------------ configuration
    def with_variation(self, spec: VariationSpec) -> "Analysis":
        """Swap the variation model; invalidates the derived stochastic system."""
        self._variation = spec
        self._system = None
        self._system_injected = False
        self._caches["galerkin"].clear()
        return self

    def with_system(self, system: StochasticSystem) -> "Analysis":
        """Inject a prebuilt stochastic system (leakage, spatial, custom)."""
        self._system = system
        self._system_injected = True
        self._caches["galerkin"].clear()
        return self

    def with_transient(
        self, transient: Optional[TransientConfig] = None, **overrides
    ) -> "Analysis":
        """Set the default time axis (``with_transient(t_stop=4e-9, dt=0.1e-9)``)."""
        base = transient if transient is not None else self._transient
        if overrides:
            base = dataclasses.replace(base, **overrides)
        self._transient = base
        return self

    # ------------------------------------------------------------------ caches
    def basis(
        self,
        order: int,
        families: Optional[Sequence[str]] = None,
    ) -> PolynomialChaosBasis:
        """Chaos basis for ``order`` (cached by ``(families, order)``)."""
        if families is None:
            families = self.system.variable_families()
        key = (tuple(families), int(order))
        cache = self._caches["basis"]
        if key not in cache:
            self._stats["basis"]["misses"] += 1
            cache[key] = PolynomialChaosBasis(families=key[0], order=key[1], num_vars=len(key[0]))
        else:
            self._stats["basis"]["hits"] += 1
        return cache[key]

    def solver(self, matrix, method: str = "direct", **options) -> LinearSolver:
        """A linear solver for ``matrix``, cached by content fingerprint.

        Drop-in replacement for :func:`~repro.sim.linear.make_solver`; the
        engines receive this bound method as their ``solver_factory`` so
        factorisations survive across runs on the same session.
        """
        key = (
            matrix_fingerprint(matrix),
            str(method).lower(),
            tuple(sorted(options.items())),
        )
        cache = self._caches["solver"]
        if key not in cache:
            self._stats["solver"]["misses"] += 1
            cache[key] = self._build_solver(matrix, key, method, options)
        else:
            self._stats["solver"]["hits"] += 1
        return cache[key]

    def _build_solver(self, matrix, key, method, options) -> LinearSolver:
        """Build a solver, refactoring a cached same-pattern sibling if any.

        When the cache already holds a solver for the same sparsity pattern
        (same topology, different corner values) with a ``refactor``
        method, the new solver comes from ``sibling.refactor(matrix)``,
        which reuses only the cached CSR -> CSC layout -- bit-identical to
        a cold build.
        """
        built = None
        if sp.issparse(matrix):
            pattern_key = (sparsity_fingerprint(matrix), key[1], key[2])
            sibling = self._caches["solver"].get(self._pattern_index.get(pattern_key))
            refactor = getattr(sibling, "refactor", None)
            if callable(refactor):
                built = refactor(matrix)
            self._pattern_index[pattern_key] = key
        if built is None:
            built = make_solver(matrix, method=method, **options)
        return built

    def galerkin(self, order: int) -> GalerkinSystem:
        """The augmented (Galerkin) system for ``order`` (cached).

        Both modes of the ``opera`` engine share it.  The system holds lazy
        (matrix-free) operators and each run takes the form its solver
        consumes (:meth:`~repro.chaos.galerkin.GalerkinSystem.for_solver`):
        an operator-aware run (``solver="mean-block-cg"``) never assembles
        the explicit Kronecker sum; a direct-solver run materialises the
        CSR matrices on first access, and both forms then stay cached on
        the same object for every later run.
        """
        from ..opera.engine import build_galerkin_system

        key = int(order)
        cache = self._caches["galerkin"]
        if key not in cache:
            self._stats["galerkin"]["misses"] += 1
            cache[key] = build_galerkin_system(self.system, self.basis(order))
        else:
            self._stats["galerkin"]["hits"] += 1
        return cache[key]

    def nominal_transient(self, transient: Optional[TransientConfig] = None) -> TransientResult:
        """Deterministic (no-variation) transient, cached per time axis."""
        config = transient if transient is not None else self._transient
        cache = self._caches["nominal"]
        if config not in cache:
            self._stats["nominal"]["misses"] += 1
            cache[config] = transient_analysis(self.stamped, config, solver_factory=self.solver)
        else:
            self._stats["nominal"]["hits"] += 1
        return cache[config]

    def solver_stats(self) -> Dict[str, Dict[str, Any]]:
        """Aggregated diagnostics of every cached solver exposing ``stats``.

        Iterative backends (``cg``, ``mean-block-cg``) report solve and
        iteration counters plus their most recent relative residual.
        Counters are summed per backend name over the session's cached
        solver instances; "latest" fields take the maximum.
        Backends without ``stats`` (e.g. ``direct``) contribute nothing.
        """
        aggregated: Dict[str, Dict[str, Any]] = {}
        for key, solver in self._caches["solver"].items():
            stats = getattr(solver, "stats", None)
            if not isinstance(stats, dict):
                continue
            method = key[1]
            entry = aggregated.setdefault(method, {"instances": 0})
            entry["instances"] += 1
            for name in (
                "solves",
                "total_iterations",
                "warm_starts",
                "cold_starts",
            ):
                if stats.get(name) is not None:
                    entry[name] = entry.get(name, 0) + stats[name]
            for name in (
                "last_iterations",
                "last_relative_residual",
            ):
                if stats.get(name) is not None:
                    entry[name] = max(entry.get(name, 0), stats[name])
        return aggregated

    def cache_info(self) -> Dict[str, Dict[str, int]]:
        """Sizes and hit/miss counters of every session cache."""
        return {
            name: {"size": len(self._caches[name]), **self._stats[name]}
            for name in self._CACHE_NAMES
        }

    def clear_caches(self) -> None:
        """Drop every cached intermediate (bases, factorisations, ...)."""
        for cache in self._caches.values():
            cache.clear()

    # -------------------------------------------------------------------- runs
    def run(self, engine: str = "opera", mode: Optional[str] = None, **options):
        """Run a registered engine on this session.

        Parameters
        ----------
        engine:
            Name of a registered engine (``"opera"``, ``"montecarlo"``,
            ``"deterministic"``, ``"pce-regression"``, or any name added
            with :func:`repro.api.register_engine`).
        mode:
            ``"transient"`` or ``"dc"``; every engine picks its natural
            default when omitted.
        options:
            Engine-specific settings (``order=``, ``samples=``, ``solver=``,
            ``t_stop=``/``dt=`` time-axis overrides, ...).  Unknown options
            raise :class:`~repro.errors.AnalysisError`.

        Returns
        -------
        AnalysisResult
            A uniform result view; the engine-native result stays available
            as ``result.raw``.

        Notes
        -----
        While telemetry is enabled (:func:`repro.telemetry.profile` /
        :func:`repro.telemetry.enable_telemetry`), the run is wrapped in an
        ``engine.<name>`` span (phase ``run``) and the per-step solver
        aggregate recorded by the shared step loop is attached to the
        result as ``view.solver_stats["steps"]`` -- for *every* transient
        engine, since they all integrate through
        :class:`~repro.stepping.loop.StepLoop`.  Instrumentation only reads
        solver state, so results are bit-identical with telemetry on or off.
        """
        runner = get_engine(engine)
        telemetry = current_telemetry()
        if not telemetry.enabled:
            return runner(self, mode=mode, **options)
        # Claim only this run's step loops: discard anything recorded by
        # earlier, unrelated loops, then drain what the engine produced.
        telemetry.pop_step_stats()
        with telemetry.span(f"engine.{engine}", phase="run", engine=engine):
            view = runner(self, mode=mode, **options)
        steps = telemetry.pop_step_stats()
        if steps is not None and hasattr(view, "solver_stats"):
            stats = dict(view.solver_stats or {})
            stats["steps"] = steps.to_dict()
            view.solver_stats = stats
        return view

    def compare(self, **kwargs):
        """OPERA-vs-baseline accuracy/speed-up row; see :func:`repro.api.compare`."""
        from .compare import compare as _compare

        return _compare(self, **kwargs)

    def summarize(
        self,
        result: Optional[AnalysisResult] = None,
        nominal: Optional[TransientResult] = None,
        **kwargs,
    ) -> OperaReport:
        """Designer-facing report of a stochastic transient result.

        Runs the ``opera`` engine with session defaults when ``result`` is
        omitted.  The nominal reference transient is taken from the session
        cache unless supplied (or unless the session has no grid to run it
        on, in which case the mean drop serves as the reference).
        """
        if result is None:
            result = self.run("opera")
        raw = getattr(result, "raw", result)
        if not hasattr(raw, "times"):
            raise AnalysisError(
                "summarize() needs a stochastic transient result; got a "
                f"{type(raw).__name__} (DC results have no time axis)"
            )
        if nominal is None and (self._netlist is not None or self._stamped is not None):
            transient = getattr(result, "transient", None) or self._transient
            candidate = self.nominal_transient(transient)
            if candidate.times.shape == raw.times.shape:
                nominal = candidate
        return _summarize_report(raw, nominal, **kwargs)

    def __repr__(self) -> str:
        size = (
            self.num_nodes
            if (self._system is not None or self._stamped is not None or self._netlist is not None)
            else "?"
        )
        return f"<Analysis {self.name!r}: {size} nodes>"
