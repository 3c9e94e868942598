"""Benchmark artifacts: serialising sweep outcomes with a stable schema.

A :class:`BenchRecord` is the JSON artifact one sweep run emits -- the CI
``bench-smoke`` job uploads it on every push and the
:mod:`repro.sweep.regress` checker compares two of them.  The schema (see
the ``SCHEMA`` constant and :mod:`repro.sweep` for the field-by-field
description) is versioned: readers reject records whose ``schema`` string
they do not understand, so silent drift is impossible.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import AnalysisError, StoreError
from ..telemetry import merge_summaries

__all__ = ["SCHEMA", "BenchRecord", "case_backend", "record_from_outcome", "record_from_store"]

#: Schema identifier of the artifact format this module reads and writes.
SCHEMA = "repro.sweep/bench-record/v1"

#: Keys every case entry must carry (``speedup_vs_mc`` may be ``None``).
_CASE_KEYS = (
    "name",
    "engine",
    "nodes",
    "num_nodes",
    "corner",
    "order",
    "samples",
    "seed",
    "wall_time_s",
    "worst_drop_v",
    "max_std_v",
    "speedup_vs_mc",
)


#: The backend every engine ran when a case named no solver, before the
#: default came to depend on the system's form.
_PRE_RESOLVER_DEFAULT = "direct"


def case_backend(case: Dict) -> str:
    """The linear-solver backend a case entry (record or store) ran.

    Entries carry it as the optional ``backend`` key.  Entries written
    before that key existed ran the ``solver`` they named, or ``direct``
    when they named none.
    """
    for key in ("backend", "solver"):
        if case.get(key) is not None:
            return str(case[key])
    return _PRE_RESOLVER_DEFAULT


def _environment() -> Dict[str, str]:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


@dataclass(frozen=True)
class BenchRecord:
    """One sweep run's benchmark artifact (schema ``repro.sweep/bench-record/v1``).

    ``telemetry`` is the optional campaign-wide merged telemetry summary
    (see :func:`repro.telemetry.merge_summaries`); it is carried only when
    the producing sweep profiled its cases, and readers of artifacts
    written before the field existed see ``None``.
    """

    cases: Tuple[Dict, ...]
    config: Dict = field(default_factory=dict)
    environment: Dict = field(default_factory=dict)
    created_unix: Optional[float] = None
    telemetry: Optional[Dict] = None
    schema: str = SCHEMA

    def __post_init__(self):
        if self.schema != SCHEMA:
            raise AnalysisError(
                f"unsupported benchmark artifact schema {self.schema!r}; "
                f"this build reads {SCHEMA!r}"
            )
        for case in self.cases:
            missing = [key for key in _CASE_KEYS if key not in case]
            if missing:
                raise AnalysisError(
                    f"benchmark case {case.get('name', '<unnamed>')!r} lacks "
                    f"schema field(s): {', '.join(missing)}"
                )

    def __len__(self) -> int:
        return len(self.cases)

    def case_map(self) -> Dict[Tuple, Dict]:
        """Cases keyed by their cross-sweep identity (engine/grid/settings).

        Like :meth:`~repro.sweep.plan.SweepCase.key`, ``solver`` and
        ``scheme`` extend the identity only when set; ``.get`` keeps
        artifacts written before those fields readable.  Legacy
        ``partitions``, ``reused_factorization`` and ``mor_order`` entries
        are ignored.
        """
        mapping: Dict[Tuple, Dict] = {}
        for case in self.cases:
            identity = (
                case["engine"],
                case["nodes"],
                case["order"],
                case["samples"],
                case["corner"],
            )
            if case.get("solver") is not None:
                identity = identity + (case["solver"],)
            if case.get("scheme") is not None:
                identity = identity + (case["scheme"],)
            mapping[identity] = case
        return mapping

    # ------------------------------------------------------------- round trip
    def to_dict(self) -> Dict:
        payload = {
            "schema": self.schema,
            "created_unix": self.created_unix,
            "config": dict(self.config),
            "environment": dict(self.environment),
            "cases": [dict(case) for case in self.cases],
        }
        if self.telemetry is not None:
            payload["telemetry"] = dict(self.telemetry)
        return payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, payload: Dict) -> "BenchRecord":
        if not isinstance(payload, dict):
            raise AnalysisError(
                f"benchmark artifact must be a JSON object, got {type(payload).__name__}"
            )
        return cls(
            cases=tuple(payload.get("cases", ())),
            config=dict(payload.get("config", {})),
            environment=dict(payload.get("environment", {})),
            created_unix=payload.get("created_unix"),
            telemetry=payload.get("telemetry"),
            schema=payload.get("schema", "<missing>"),
        )

    @classmethod
    def from_json(cls, text: str) -> "BenchRecord":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise AnalysisError(f"benchmark artifact is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    def write(self, path: Union[str, Path]) -> Path:
        """Write the artifact; parent directories are created as needed."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BenchRecord":
        path = Path(path)
        if not path.exists():
            raise AnalysisError(f"benchmark artifact {path} does not exist")
        return cls.from_json(path.read_text(encoding="utf-8"))


def _case_entries(results) -> List[Dict]:
    """Artifact case entries (with ``speedup_vs_mc``) for an outcome/store scan."""
    from .runner import speedups_for  # deferred: runner imports this module's peers

    results = list(results)
    speedups = speedups_for(results)
    cases: List[Dict] = []
    for result in results:
        entry = result.to_record()
        entry["speedup_vs_mc"] = speedups.get(result.name)
        cases.append(entry)
    return cases


def _merged_telemetry(cases: List[Dict]) -> Optional[Dict]:
    """Campaign-wide telemetry folded from the case entries, in entry order.

    ``_case_entries`` walks outcomes in plan order and stores in insertion
    order, so the merge is deterministic either way; sweeps that ran
    without profiling contribute nothing and the artifact omits the field.
    """
    return merge_summaries(
        case["telemetry"] for case in cases if case.get("telemetry") is not None
    )


def record_from_outcome(outcome, config: Optional[Dict] = None) -> BenchRecord:
    """Build the artifact of a :class:`~repro.sweep.runner.SweepOutcome`.

    One plan-order pass over the outcome's results backend; every
    non-Monte-Carlo case gets its wall-time ``speedup_vs_mc`` against the
    ``montecarlo`` case of the same grid and corner (``None`` when the plan
    has no such baseline).
    """
    cases = _case_entries(outcome)
    merged_config = {
        "workers": outcome.workers,
        "base_seed": outcome.plan.base_seed,
        "num_cases": len(cases),
        "cases_executed": int(outcome.executed),
        "cases_reused": int(outcome.reused),
        "sweep_wall_time_s": float(outcome.wall_time),
        "cases_per_second": (
            len(cases) / float(outcome.wall_time) if outcome.wall_time > 0 else None
        ),
        "transient": {
            "t_stop": outcome.plan.transient.t_stop,
            "dt": outcome.plan.transient.dt,
            "steps": outcome.plan.transient.num_steps,
        },
    }
    merged_config.update(config or {})
    return BenchRecord(
        cases=tuple(cases),
        config=merged_config,
        environment=_environment(),
        created_unix=time.time(),
        telemetry=_merged_telemetry(cases),
    )


def record_from_store(store, plan=None, config: Optional[Dict] = None) -> BenchRecord:
    """Export a results backend as a v1 :class:`BenchRecord` artifact.

    The export view of the streaming store redesign: the committed smoke
    baselines and the :mod:`repro.sweep.regress` gate keep consuming the
    unchanged v1 JSON schema no matter which backend held the results.
    With ``plan`` given, cases are exported in plan order (and every plan
    case must be present in the store); without it, in the store's
    insertion order.  The transient configuration and base seed come from
    the fingerprint the store was opened with, so two store exports gate
    against each other exactly like two live sweeps.
    """
    if plan is not None:
        results = (store.get(case) for case in plan.cases)
    else:
        results = store.iter_results()
    cases = _case_entries(results)
    if not cases:
        raise StoreError("cannot export an empty results store as a BenchRecord")
    merged_config: Dict = {"num_cases": len(cases)}
    fingerprint = getattr(store, "fingerprint", None)
    if fingerprint:
        merged_config["base_seed"] = fingerprint["base_seed"]
        merged_config["transient"] = dict(fingerprint["transient"])
    merged_config.update(config or {})
    return BenchRecord(
        cases=tuple(cases),
        config=merged_config,
        environment=_environment(),
        created_unix=time.time(),
        telemetry=_merged_telemetry(cases),
    )
