"""OPERA reproduction: stochastic power-grid analysis under process variations.

This package reproduces "Stochastic Power Grid Analysis Considering Process
Variations" (Ghanta, Vrudhula, Panda, Wang -- DATE 2005).  It contains:

* :mod:`repro.grid` -- power-grid netlists, a synthetic multi-layer grid
  generator, SPICE-subset I/O and MNA stamping;
* :mod:`repro.sim` -- deterministic DC and fixed-step transient simulation;
* :mod:`repro.stepping` -- the unified time-integration core every transient
  engine runs on: the :class:`~repro.stepping.SteppingScheme` registry
  (``trapezoidal``, ``backward-euler``, ``theta:<value>``), the shared
  :class:`~repro.stepping.StepLoop` driver and the per-engine system
  adapters (pick a scheme anywhere with ``scheme=...`` or ``--scheme``);
* :mod:`repro.variation` -- process-variation models (inter-die W/T/Leff,
  intra-die Vth/leakage) producing stochastic MNA systems;
* :mod:`repro.chaos` -- polynomial chaos bases (Hermite and the wider Askey
  scheme), Galerkin projection and stochastic-response containers;
* :mod:`repro.opera` -- the OPERA engine: stochastic DC/transient analysis
  with the decoupled special case for RHS-only variation;
* :mod:`repro.montecarlo` -- the Monte Carlo reference;
* :mod:`repro.analysis` -- accuracy metrics, Table-1 assembly and the
  Figure-1/2 distribution comparisons;
* :mod:`repro.linalg` -- matrix-free Kronecker-sum operators for the
  augmented Galerkin system (:class:`~repro.linalg.KronSumOperator`) and
  the block-preconditioned CG backend ``mean-block-cg`` (one
  nominal-block LU preconditioning all chaos blocks at once);
* :mod:`repro.mor` -- PRIMA-style model order reduction of one RC system
  (extension; not an analysis engine);
* :mod:`repro.api` -- the unified :class:`~repro.api.Analysis` session
  facade, the engine/solver registries and the shared result protocol;
* :mod:`repro.sweep` -- parallel execution of many analyses (node counts x
  engines x chaos orders x variation corners) over a process pool, with
  versioned benchmark artifacts and a wall-time regression gate
  (``opera-run sweep``).

Quick start -- the :class:`~repro.api.Analysis` facade is the recommended
entry point.  A session owns the grid, the variation model and a cache of
expensive intermediates (chaos bases, factorisations, Galerkin assemblies),
so repeated runs reuse work::

    from repro import Analysis, GridSpec

    session = Analysis.from_spec(GridSpec(nx=30, ny=30, seed=1))
    session.with_transient(t_stop=8e-9, dt=0.2e-9)

    opera = session.run("opera", order=2)          # chaos expansion
    mc = session.run("montecarlo", samples=200)    # sampling reference
    print(session.summarize(opera))                # worst node, 3-sigma spread
    print(session.compare(samples=200))            # Table-1 accuracy/speed-up row

Every engine (``opera``, ``montecarlo``, ``deterministic``,
``pce-regression``, plus anything added with
:func:`~repro.api.register_engine`) returns an
:class:`~repro.api.AnalysisResult`: uniform ``mean()``, ``std()``,
``worst_drop()``, ``wall_time`` and ``to_dict()``, with the engine-native
result reachable as ``result.raw``.  Linear-solver backends are pluggable the
same way through :func:`~repro.api.register_solver`.

The underlying free functions (``run_opera_transient``,
``run_monte_carlo_transient``, ``transient_analysis``, ...) remain available
for fine-grained control and backwards compatibility::

    from repro import (
        GridSpec, generate_power_grid, stamp,
        VariationSpec, build_stochastic_system,
        OperaConfig, TransientConfig, run_opera_transient, summarize,
    )

    netlist = generate_power_grid(GridSpec(nx=30, ny=30, seed=1))
    system = build_stochastic_system(stamp(netlist), VariationSpec.paper_defaults())
    config = OperaConfig(transient=TransientConfig(t_stop=8e-9, dt=0.2e-9), order=2)
    print(summarize(run_opera_transient(system, config)))
"""

from .api import (
    Analysis,
    AnalysisResult,
    ComparisonResult,
    compare,
    engine_names,
    register_engine,
    register_solver,
    solver_names,
    unregister_engine,
    unregister_solver,
)
from .analysis import (
    AccuracyMetrics,
    SobolIndices,
    Table1Row,
    ascii_histogram,
    compare_to_monte_carlo,
    drop_distribution_comparison,
    format_table1,
    sobol_indices,
    three_sigma_spread_percent,
    transient_total_indices,
)
from .chaos import (
    PolynomialChaosBasis,
    StochasticField,
    StochasticTransientResult,
)
from .errors import (
    AnalysisError,
    BasisError,
    ConvergenceError,
    NetlistError,
    ReproError,
    SolverError,
    SpiceFormatError,
    StampingError,
    StoreError,
    VariationModelError,
)
from .grid import (
    GridSpec,
    PowerGridNetlist,
    Technology,
    default_technology,
    generate_power_grid,
    read_spice,
    spec_for_node_count,
    stamp,
    write_spice,
)
from .linalg import KronSumOperator, MeanBlockCGSolver
from .montecarlo import MonteCarloConfig, run_monte_carlo_dc, run_monte_carlo_transient
from .opera import (
    OperaConfig,
    run_decoupled_transient,
    run_opera_dc,
    run_opera_transient,
    summarize,
)
from .sim import MNASystem, TransientConfig, dc_operating_point, transient_analysis
from .sweep import (
    BenchRecord,
    MemoryBackend,
    ShardedNpzBackend,
    SweepCase,
    SweepPlan,
    SweepRunner,
    record_from_store,
)
from .variation import (
    LeakageVariationSpec,
    RegionPartition,
    SpatialVariationSpec,
    VariationSpec,
    build_leakage_system,
    build_spatial_stochastic_system,
    build_stochastic_system,
)
from .waveforms import ClockedActivity, Constant, PeriodicPulse, PiecewiseLinear

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "AnalysisResult",
    "ComparisonResult",
    "compare",
    "engine_names",
    "register_engine",
    "register_solver",
    "solver_names",
    "unregister_engine",
    "unregister_solver",
    "BenchRecord",
    "MemoryBackend",
    "ShardedNpzBackend",
    "SweepCase",
    "SweepPlan",
    "SweepRunner",
    "record_from_store",
    "AccuracyMetrics",
    "Table1Row",
    "ascii_histogram",
    "compare_to_monte_carlo",
    "drop_distribution_comparison",
    "format_table1",
    "three_sigma_spread_percent",
    "PolynomialChaosBasis",
    "StochasticField",
    "StochasticTransientResult",
    "AnalysisError",
    "BasisError",
    "ConvergenceError",
    "NetlistError",
    "ReproError",
    "SolverError",
    "SpiceFormatError",
    "StampingError",
    "StoreError",
    "VariationModelError",
    "GridSpec",
    "PowerGridNetlist",
    "Technology",
    "default_technology",
    "generate_power_grid",
    "read_spice",
    "spec_for_node_count",
    "stamp",
    "write_spice",
    "KronSumOperator",
    "MeanBlockCGSolver",
    "MonteCarloConfig",
    "run_monte_carlo_dc",
    "run_monte_carlo_transient",
    "OperaConfig",
    "run_decoupled_transient",
    "run_opera_dc",
    "run_opera_transient",
    "summarize",
    "MNASystem",
    "TransientConfig",
    "dc_operating_point",
    "transient_analysis",
    "LeakageVariationSpec",
    "RegionPartition",
    "SpatialVariationSpec",
    "VariationSpec",
    "build_leakage_system",
    "build_spatial_stochastic_system",
    "build_stochastic_system",
    "SobolIndices",
    "sobol_indices",
    "transient_total_indices",
    "ClockedActivity",
    "Constant",
    "PeriodicPulse",
    "PiecewiseLinear",
    "__version__",
]
