"""Sweep plans: declarative grids of analysis cases.

A :class:`SweepCase` is a small, picklable description of one engine run --
which synthetic grid (target node count + generator seed), which engine,
which chaos order or sample count, and which *variation corner* (a named
:class:`~repro.variation.model.VariationSpec`).  A :class:`SweepPlan` is an
ordered collection of cases sharing one transient configuration, typically
built as the cartesian product ``node counts x engines x orders x corners``
via :meth:`SweepPlan.grid`.

Cases are deterministic: every case carries a seed derived (stably, via
CRC-32 of its identity) from the plan's ``base_seed``, so a case produces
the same numbers whether it runs serially, on a process pool, or alone --
and the same numbers tomorrow.  The runner lives in
:mod:`repro.sweep.runner`.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..errors import AnalysisError
from ..montecarlo.engine import DEFAULT_CHUNK_SIZE
from ..sim.transient import TransientConfig
from ..variation.model import VariationSpec

__all__ = [
    "SweepCase",
    "SweepPlan",
    "corner_spec",
    "corner_names",
    "grid_seed_for",
    "case_seed_for",
    "DEFAULT_SWEEP_TRANSIENT",
]

#: Default time axis of sweep plans (short: sweeps time many engine runs).
DEFAULT_SWEEP_TRANSIENT = TransientConfig(t_stop=2.4e-9, dt=0.2e-9)

#: Engines whose options include a chaos expansion order.
_CHAOS_ENGINES = ("opera", "pce-regression")

#: Engines that consume germ samples (and therefore chunked ``workers`` /
#: ``chunk_size`` settings plus a sample count in their identity).
_SAMPLED_ENGINES = ("montecarlo", "pce-regression")

# Named variation corners.  "paper" is the experiment setting of Section 6;
# "wide"/"tight" bracket it; the "rhs-only" family disables matrix variation
# so the decoupled special case applies ("rhs-wide"/"rhs-tight" bracket the
# excitation sigmas the same way "wide"/"tight" bracket the paper corner).
_CORNERS: Dict[str, Dict] = {
    "paper": {},
    "wide": {"w": 30.0, "t": 20.0, "l": 30.0},
    "tight": {"w": 10.0, "t": 8.0, "l": 10.0},
    "rhs-only": {"vary_conductance": False, "vary_capacitance": False},
    "rhs-wide": {
        "w": 30.0,
        "t": 20.0,
        "l": 30.0,
        "vary_conductance": False,
        "vary_capacitance": False,
    },
    "rhs-tight": {
        "w": 10.0,
        "t": 8.0,
        "l": 10.0,
        "vary_conductance": False,
        "vary_capacitance": False,
    },
}


def corner_names() -> Tuple[str, ...]:
    """Names of all predefined variation corners, sorted."""
    return tuple(sorted(_CORNERS))


def corner_spec(name: str) -> VariationSpec:
    """The :class:`VariationSpec` of a named corner."""
    key = str(name).strip().lower()
    if key not in _CORNERS:
        known = ", ".join(corner_names())
        raise AnalysisError(f"unknown variation corner {name!r}; known corners: {known}")
    overrides = dict(_CORNERS[key])
    if not overrides:
        return VariationSpec.paper_defaults()
    sigma = {field: overrides.pop(field) for field in ("w", "t", "l") if field in overrides}
    if sigma:
        return VariationSpec.from_three_sigma_percent(**sigma, **overrides)
    return dataclasses.replace(VariationSpec.paper_defaults(), **overrides)


@dataclass(frozen=True)
class SweepCase:
    """One engine run of a sweep: grid, engine, settings, deterministic seed.

    ``workers`` applies to the sampled engines (``montecarlo``,
    ``pce-regression``) only: the case's sample sweep is chunked (fixed
    ``chunk_size``-sample chunks, independently seeded streams) and fanned
    over that many processes.  Sampled cases always run the chunked path --
    even with ``workers=1`` -- so their statistics never depend on the
    worker count; ``workers`` is therefore excluded from the case identity
    (:meth:`key`, :attr:`name`, seeds).

    ``solver`` selects a registered linear-solver backend for the case
    (``None`` keeps the engine default); it is part of the case identity
    when set -- a solver ablation (e.g. explicit ``direct`` vs matrix-free
    ``mean-block-cg``) sweeps exactly this field.

    ``scheme`` selects a registered stepping scheme for the case's
    transient (``None`` keeps the plan transient's method); when set it
    joins the case identity the same append-only way, so a scheme ablation
    (e.g. ``trapezoidal`` vs ``backward-euler``) sweeps exactly this field
    and pre-existing case identities keep their seeds.
    """

    engine: str
    nodes: int
    grid_seed: int = 0
    corner: str = "paper"
    order: Optional[int] = None
    samples: Optional[int] = None
    antithetic: bool = False
    store_nodes: Tuple[int, ...] = ()
    workers: int = 1
    chunk_size: int = DEFAULT_CHUNK_SIZE
    solver: Optional[str] = None
    scheme: Optional[str] = None
    seed: int = 0

    def __post_init__(self):
        if self.nodes < 4:
            raise AnalysisError(f"cases need at least 4 nodes, got {self.nodes}")
        if self.workers < 1:
            raise AnalysisError(f"workers must be at least 1, got {self.workers}")
        if self.solver is not None and not str(self.solver).strip():
            raise AnalysisError("solver must be a non-empty backend name or None")
        if self.scheme is not None:
            from ..stepping import resolve_scheme

            resolve_scheme(self.scheme)  # fail at plan construction, not in a worker
        corner_spec(self.corner)  # validate eagerly, before any worker sees it
        if self.engine == "montecarlo" and self.antithetic:
            # Mirror MonteCarloConfig's chunked-antithetic parity rules here
            # so a bad case fails at plan construction, not inside a worker.
            if self.chunk_size % 2:
                raise AnalysisError(
                    "antithetic Monte Carlo cases need an even chunk_size; "
                    f"got {self.chunk_size}"
                )
            if (self.samples or 200) % 2:
                raise AnalysisError(
                    "antithetic Monte Carlo cases need an even sample count; "
                    f"got {self.samples}"
                )

    @property
    def name(self) -> str:
        """Stable human-readable case label, e.g. ``opera-n600-o2-paper``."""
        parts = [self.engine, f"n{self.nodes}"]
        if self.order is not None:
            parts.append(f"o{self.order}")
        if self.samples is not None:
            parts.append(f"s{self.samples}")
        if self.solver is not None:
            parts.append(self.solver)
        if self.scheme is not None:
            parts.append(self.scheme)
        parts.append(self.corner)
        return "-".join(parts)

    def key(self) -> Tuple:
        """Identity used to match cases across sweeps (excludes seeds).

        Optional fields (``solver``, ``scheme``) are appended
        *only when set*, so the identities (and hence the derived seeds) of
        cases without them predate and survive the fields' introduction.
        """
        identity = (self.engine, self.nodes, self.order, self.samples, self.corner)
        if self.solver is not None:
            identity = identity + (self.solver,)
        if self.scheme is not None:
            identity = identity + (self.scheme,)
        return identity

    def seed_identity(self) -> Tuple:
        """The identity tuple seed derivation uses: :meth:`key`.

        Hand-built cases should derive their seed with
        :meth:`with_derived_seed` -- exactly what :meth:`SweepPlan.grid`
        does.
        """
        return self.key()

    def store_key(self) -> str:
        """The case's results-store key (see :mod:`repro.sweep.store`).

        Extends the append-only :meth:`seed_identity` with every remaining
        field that can change the case's *numbers* -- the grid generator
        seed, the derived case seed, and (for the sampled engines) the
        chunking settings the statistics depend on.  ``workers`` is the one
        deliberate exclusion: sampled engines chunk identically for every
        worker count, so re-running a stored case with more processes is a
        cache hit, not a different result.  Optional fields follow the same
        append-only convention as :meth:`seed_identity`, so keys of cases
        that predate a field survive its introduction.
        """
        parts = [str(part) for part in self.seed_identity()]
        parts.append(f"grid={self.grid_seed}")
        if self.engine in _SAMPLED_ENGINES:
            parts.append(f"antithetic={int(self.antithetic)}")
            parts.append(f"chunk={self.chunk_size}")
            if self.store_nodes:
                parts.append("stored=" + ",".join(str(node) for node in self.store_nodes))
        parts.append(f"seed={self.seed}")
        return "|".join(parts)

    def with_derived_seed(self, base_seed: int) -> "SweepCase":
        """A copy whose seed is derived from ``base_seed`` and the identity.

        The one sanctioned way to seed hand-built cases (solver/scheme
        ablations, appended bench cases): it applies the same append-only
        :meth:`seed_identity` convention as :meth:`SweepPlan.grid`, so a
        hand-built case and a grid-built case with equal identities get
        equal seeds.
        """
        return dataclasses.replace(self, seed=_case_seed(base_seed, self.seed_identity()))

    def run_options(self) -> Dict:
        """Options forwarded to :meth:`repro.api.Analysis.run`."""
        options: Dict = {}
        if self.order is not None:
            options["order"] = int(self.order)
        if self.solver is not None:
            options["solver"] = str(self.solver)
        if self.scheme is not None:
            options["scheme"] = str(self.scheme)
        if self.engine == "montecarlo":
            options["samples"] = int(self.samples or 200)
            options["seed"] = int(self.seed)
            options["antithetic"] = bool(self.antithetic)
            # Always chunked (even serially) so the statistics are invariant
            # to the worker count; see the class docstring.
            options["workers"] = int(self.workers)
            options["chunk_size"] = int(self.chunk_size)
            if self.store_nodes:
                options["store_nodes"] = tuple(int(node) for node in self.store_nodes)
        elif self.engine == "pce-regression":
            # The regression engine shares the chunked-sampling contract:
            # germ draws depend on (seed, samples, chunk_size), never on the
            # worker count, so sweep statistics stay bit-identical.
            options["samples"] = int(self.samples or 200)
            options["seed"] = int(self.seed)
            options["workers"] = int(self.workers)
            options["chunk_size"] = int(self.chunk_size)
        return options


def _case_seed(base_seed: int, identity: Tuple) -> int:
    """A stable per-case seed: CRC-32 of the case identity under ``base_seed``."""
    text = f"{base_seed}|" + "|".join(str(part) for part in identity)
    return zlib.crc32(text.encode("utf-8")) & 0x7FFFFFFF


def case_seed_for(base_seed: int, identity: Tuple) -> int:
    """The deterministic seed a case identity receives under ``base_seed``.

    Exposed so harnesses that hand-build :class:`SweepCase` objects outside
    :meth:`SweepPlan.grid` (e.g. solver-ablation benchmarks) derive seeds
    the same way the grid builder does.
    """
    return _case_seed(base_seed, identity)


def grid_seed_for(nodes: int, base_seed: int = 0) -> int:
    """The generator seed :meth:`SweepPlan.grid` assigns to a grid size.

    Exposed so callers (e.g. the benchmark harnesses) can rebuild the exact
    grid a sweep case ran on.
    """
    return _case_seed(base_seed, ("grid", nodes)) % 10_000


@dataclass(frozen=True)
class SweepPlan:
    """An ordered set of :class:`SweepCase` sharing one transient config."""

    cases: Tuple[SweepCase, ...]
    transient: TransientConfig = DEFAULT_SWEEP_TRANSIENT
    base_seed: int = 0

    def __post_init__(self):
        if not self.cases:
            raise AnalysisError("a sweep plan needs at least one case")
        names = [case.name for case in self.cases]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise AnalysisError(f"duplicate case(s) in sweep plan: {', '.join(sorted(duplicates))}")

    def __len__(self) -> int:
        return len(self.cases)

    def __iter__(self) -> Iterator[SweepCase]:
        return iter(self.cases)

    @classmethod
    def grid(
        cls,
        node_counts: Sequence[int],
        engines: Sequence[str] = ("opera", "montecarlo"),
        orders: Sequence[int] = (2,),
        corners: Sequence[str] = ("paper",),
        samples: int = 200,
        antithetic: bool = True,
        mc_workers: int = 1,
        mc_chunk_size: int = DEFAULT_CHUNK_SIZE,
        scheme: Optional[str] = None,
        transient: Optional[TransientConfig] = None,
        base_seed: int = 0,
    ) -> "SweepPlan":
        """The cartesian product ``node_counts x engines x orders x corners``.

        Chaos engines (``opera``, ``pce-regression``) get one case per expansion
        order; sampling and deterministic engines get a single case per grid
        and corner.  Every case receives a deterministic seed derived from
        ``base_seed`` and its identity, and every grid a generator seed
        derived from its node count, so plans are reproducible end to end.

        ``mc_workers`` chunks each Monte Carlo case over that many processes
        (the dominant wall-time lever: a sweep's critical path is usually
        its largest MC case, which case-level parallelism alone cannot
        split); ``mc_chunk_size`` sets the chunk granularity (statistics
        depend on it, but never on ``mc_workers``).  With ``antithetic``,
        ``samples`` is rounded up to even so (xi, -xi) pairs fill whole
        chunks.

        ``scheme`` overrides the stepping scheme of every case (``None``
        keeps the plan transient's method); set it on individual hand-built
        cases for scheme ablations instead.
        """
        if not node_counts:
            raise AnalysisError("grid plans need at least one node count")
        if not engines:
            raise AnalysisError("grid plans need at least one engine")
        if antithetic and samples % 2:
            samples += 1
        cases = []
        for corner in corners:
            for nodes in node_counts:
                grid_seed = grid_seed_for(nodes, base_seed)
                for engine in engines:
                    engine_orders = orders if engine in _CHAOS_ENGINES else (None,)
                    for order in engine_orders:
                        engine_samples = samples if engine in _SAMPLED_ENGINES else None
                        case = SweepCase(
                            engine=engine,
                            nodes=int(nodes),
                            grid_seed=grid_seed,
                            corner=str(corner),
                            order=None if order is None else int(order),
                            samples=engine_samples,
                            antithetic=bool(antithetic) if engine == "montecarlo" else False,
                            workers=int(mc_workers) if engine in _SAMPLED_ENGINES else 1,
                            chunk_size=int(mc_chunk_size),
                            scheme=None if scheme is None else str(scheme),
                        )
                        cases.append(case.with_derived_seed(base_seed))
        return cls(
            cases=tuple(cases),
            transient=transient if transient is not None else DEFAULT_SWEEP_TRANSIENT,
            base_seed=int(base_seed),
        )
