"""Parallel sweep subsystem: plans, process-pool execution, bench artifacts.

This package executes many analyses -- a grid of ``node counts x engines x
chaos orders x variation corners`` -- in parallel and serialises the
outcome as a versioned benchmark artifact:

* :mod:`repro.sweep.plan` -- :class:`SweepCase` / :class:`SweepPlan`, the
  declarative, picklable description of what to run, with deterministic
  per-case seeds;
* :mod:`repro.sweep.store` -- :class:`ResultsBackend` and its two
  implementations: the default in-memory :class:`MemoryBackend` and the
  chunked, append-only :class:`ShardedNpzBackend` for resumable on-disk
  campaigns;
* :mod:`repro.sweep.runner` -- :class:`SweepRunner`, fanning cases out over
  a :class:`concurrent.futures.ProcessPoolExecutor` with a per-worker
  session cache and streaming completed cases into the backend (results
  are identical for any worker count and any interrupt/resume split);
  :class:`SweepOutcome` is a lazy read-view over the backend;
* :mod:`repro.sweep.record` -- :class:`BenchRecord`, the JSON artifact
  (export views :func:`record_from_outcome` / :func:`record_from_store`);
* :mod:`repro.sweep.regress` -- the wall-time regression gate used by CI
  (``python -m repro.sweep baseline.json current.json``).

Quick start::

    from repro.sweep import SweepPlan, SweepRunner, record_from_outcome

    plan = SweepPlan.grid([600, 1200], engines=("opera", "montecarlo"),
                          orders=(2,), samples=100)
    outcome = SweepRunner(workers=4).run(plan)
    record_from_outcome(outcome).write("benchmarks/results/sweep.json")

Resumable campaigns persist every completed case as it finishes and skip
the stored ones on the next run::

    from repro.sweep import ShardedNpzBackend

    store = ShardedNpzBackend("campaign-store/")
    outcome = SweepRunner(workers=4).resume(plan, store)   # re-runs only
    record_from_store(store, plan=plan).write("sweep.json")  # missing cases

The same flows are available from the command line as ``opera-run sweep``
(``--store DIR`` / ``--resume``).

Artifact schema (``repro.sweep/bench-record/v1``)
-------------------------------------------------
A benchmark artifact is a single JSON object::

    {
      "schema": "repro.sweep/bench-record/v1",
      "created_unix": 1753840000.0,          # seconds since the epoch, or null
      "config": {                            # how the sweep was run
        "workers": 4,
        "base_seed": 0,
        "num_cases": 6,
        "sweep_wall_time_s": 12.3,
        "transient": {"t_stop": 2.4e-9, "dt": 2e-10, "steps": 12},
        ...                                  # callers may add entries
      },
      "environment": {                       # informational, never compared
        "python": "3.11.7", "platform": "linux", "machine": "x86_64",
        "numpy": "...", "scipy": "..."
      },
      "cases": [                             # one entry per executed case
        {
          "name": "opera-n600-o2-paper",     # stable human-readable label
          "engine": "opera",                 # registered engine name
          "nodes": 600,                      # requested grid size
          "num_nodes": 613,                  # realised grid size
          "corner": "paper",                 # variation corner name
          "order": 2,                        # chaos order, or null
          "samples": null,                   # MC sample count, or null
          "solver": null,                    # requested solver, or null
          "scheme": null,                    # stepping scheme, or null
          "backend": "mean-block-cg",        # solver backend that ran
          "seed": 123456789,                 # the deterministic case seed
          "wall_time_s": 0.41,               # engine wall time, seconds
          "worst_drop_v": 0.132,             # max mean drop, volts
          "max_std_v": 0.011,                # max sigma, volts
          "speedup_vs_mc": 9.7               # vs the same grid+corner MC
        }                                    #   case, or null
      ]
    }

Cases are matched across artifacts by the identity tuple ``(engine, nodes,
order, samples, corner)``, extended by ``solver`` and ``scheme`` when set;
``name`` is derived from the same fields.  ``solver`` is the requested
backend; ``backend`` (not part of the identity) is the one that ran, so a
campaign resumed across a change of default shows which cases ran which
backend.  Entries without ``backend`` ran their ``solver``, or ``direct``
(:func:`~repro.sweep.record.case_backend`).  Optional fields may be absent on
read, and artifacts written by removed code paths still load: their
``partitions`` entries (the ``hierarchical`` engine), ``batched`` config
flag and ``reused_factorization`` case entries (the batched scheduler) and
``mor_order`` entries (the ``mor`` engine) are ignored.  The ``schema``
string is bumped on any backwards-incompatible change, and readers reject
artifacts with an unknown schema.
"""

from .plan import (
    DEFAULT_SWEEP_TRANSIENT,
    SweepCase,
    SweepPlan,
    corner_names,
    corner_spec,
    case_seed_for,
    grid_seed_for,
)
from .record import SCHEMA, BenchRecord, case_backend, record_from_outcome, record_from_store
from .regress import (
    CaseDelta,
    RegressionReport,
    ThroughputReport,
    check_throughput,
    compare_records,
)
from .runner import SweepCaseResult, SweepOutcome, SweepRunner
from .store import (
    STORE_SCHEMA,
    MemoryBackend,
    ResultsBackend,
    ShardedNpzBackend,
    plan_fingerprint,
)

__all__ = [
    "SweepCase",
    "SweepPlan",
    "DEFAULT_SWEEP_TRANSIENT",
    "corner_names",
    "corner_spec",
    "case_seed_for",
    "grid_seed_for",
    "SweepRunner",
    "SweepOutcome",
    "SweepCaseResult",
    "ResultsBackend",
    "MemoryBackend",
    "ShardedNpzBackend",
    "STORE_SCHEMA",
    "plan_fingerprint",
    "BenchRecord",
    "SCHEMA",
    "case_backend",
    "record_from_outcome",
    "record_from_store",
    "CaseDelta",
    "RegressionReport",
    "ThroughputReport",
    "check_throughput",
    "compare_records",
]
