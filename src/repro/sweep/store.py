"""Results backends: where a sweep's case results live while (and after) it runs.

A :class:`ResultsBackend` is the storage side of the redesigned sweep
results API.  :class:`~repro.sweep.runner.SweepRunner` streams every
completed :class:`~repro.sweep.runner.SweepCaseResult` into the backend as
workers return it, and :class:`~repro.sweep.runner.SweepOutcome` is a lazy
read-view over the backend -- the runner never holds a result list of its
own.  Results are keyed by :meth:`repro.sweep.plan.SweepCase.store_key`, an
append-only extension of the case's seed identity covering every field that
can change the case's numbers, so a backend doubles as a result *cache*:
a case whose key is already present is served from the store instead of a
solver.

Two implementations ship:

:class:`MemoryBackend`
    The classic in-memory behaviour (and the default of
    ``SweepRunner.run``): a dict of results, raw engine payloads welcome.

:class:`ShardedNpzBackend`
    A chunked, append-only on-disk store for resumable campaigns.  Results
    are buffered and flushed in ``shard_size``-case ``.npz`` shards written
    atomically (temp file + rename), so a killed campaign keeps every
    flushed shard; ``SweepRunner.resume`` then skips the persisted cases
    and re-runs only the missing ones.  Scalar fields travel in a JSON
    metadata entry per case (floats round-trip exactly through ``repr``)
    and statistics arrays as native float64 ``.npz`` members, so a
    resumed campaign's statistics and exported
    :class:`~repro.sweep.record.BenchRecord` cases are bit-identical to an
    uninterrupted run's.

Both backends pin the plan "fingerprint" (transient configuration and base
seed) at :meth:`~ResultsBackend.open` time and refuse plans that disagree:
case keys do not encode the time axis, so reusing a store across transient
configurations would silently serve wrong numbers.

A store must be resumed with the same runner settings
(``keep_statistics``) it was started with: backends persist exactly what
the producing run shipped, so a campaign started without statistics cannot
serve them later.
"""

from __future__ import annotations

import json
import os
import tempfile
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..errors import StoreError
from .plan import SweepCase, SweepPlan
from .record import case_backend

__all__ = [
    "STORE_SCHEMA",
    "ResultsBackend",
    "MemoryBackend",
    "ShardedNpzBackend",
    "plan_fingerprint",
]

#: Schema identifier of the on-disk store layout (manifest + shards).
STORE_SCHEMA = "repro.sweep/store/v1"

#: Default number of case results per flushed shard.
DEFAULT_SHARD_SIZE = 64


def plan_fingerprint(plan: SweepPlan) -> Dict:
    """The plan settings a results store is pinned to.

    Case store keys cover everything *per-case* that changes the numbers;
    the fingerprint covers the plan-wide remainder -- the shared transient
    configuration (same shape as the ``BenchRecord`` config entry, so
    :func:`~repro.sweep.record.record_from_store` can export it) and the
    base seed.
    """
    transient = plan.transient
    return {
        "base_seed": int(plan.base_seed),
        "transient": {
            "t_stop": float(transient.t_stop),
            "dt": float(transient.dt),
            "steps": int(transient.num_steps),
        },
    }


class ResultsBackend(ABC):
    """Protocol of a sweep results store.

    Lifecycle: the runner calls :meth:`open` with the plan before executing
    anything, :meth:`append` once per freshly executed case, and
    :meth:`finalize` when the sweep ends (including on failure, so partial
    progress survives).  :meth:`contains`/:meth:`get` serve the cache and
    the :class:`~repro.sweep.runner.SweepOutcome` read-view;
    :meth:`iter_results` walks everything stored, in insertion order.
    """

    #: Whether :meth:`append` accepts results carrying raw engine payloads
    #: (``SweepRunner(keep_raw=True)``).
    supports_raw = False

    def __init__(self):
        self._fingerprint: Optional[Dict] = None

    @property
    def fingerprint(self) -> Optional[Dict]:
        """The pinned plan fingerprint (``None`` before :meth:`open`)."""
        return self._fingerprint

    def open(self, plan: SweepPlan) -> None:
        """Bind the backend to ``plan``; reject incompatible reuse."""
        self._pin_fingerprint(plan_fingerprint(plan))

    def _pin_fingerprint(self, fingerprint: Dict) -> None:
        if self._fingerprint is not None and self._fingerprint != fingerprint:
            raise StoreError(
                "results store was opened for a different plan "
                f"(stored fingerprint {self._fingerprint!r}, new plan "
                f"{fingerprint!r}); use one store per transient "
                "configuration and base seed"
            )
        self._fingerprint = fingerprint

    @abstractmethod
    def append(self, case: SweepCase, result) -> None:
        """Store the result of ``case``; duplicate keys are an error."""

    @abstractmethod
    def contains(self, case: SweepCase) -> bool:
        """Whether a result for ``case`` (by store key) is present."""

    @abstractmethod
    def get(self, case: SweepCase):
        """The stored :class:`SweepCaseResult` of ``case``; raises if absent."""

    @abstractmethod
    def iter_results(self) -> Iterator:
        """All stored results, in insertion order."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored results."""

    def keys(self) -> frozenset:
        """Store keys of every stored case (order-free)."""
        return frozenset(result_key for result_key in self._iter_keys())

    @abstractmethod
    def _iter_keys(self) -> Iterator[str]: ...

    def finalize(self) -> None:
        """Flush pending state; safe to call more than once."""

    def _missing(self, case: SweepCase) -> StoreError:
        return StoreError(
            f"case {case.name!r} (key {case.store_key()!r}) is not in this "
            f"results store ({len(self)} case(s) stored)"
        )

    def _duplicate(self, case: SweepCase) -> StoreError:
        return StoreError(
            f"results store already holds case {case.name!r} "
            f"(key {case.store_key()!r}); stored cases are append-only -- "
            "skip cases via contains() instead of re-appending them"
        )


class MemoryBackend(ResultsBackend):
    """The default backend: results held in a plain in-process dict.

    Byte-for-byte the pre-store behaviour of the sweep runner -- results
    (including raw engine payloads) live in memory for the lifetime of the
    :class:`~repro.sweep.runner.SweepOutcome` and vanish with it.
    """

    supports_raw = True

    def __init__(self):
        super().__init__()
        self._results: Dict[str, object] = {}

    def append(self, case: SweepCase, result) -> None:
        key = case.store_key()
        if key in self._results:
            raise self._duplicate(case)
        self._results[key] = result

    def contains(self, case: SweepCase) -> bool:
        return case.store_key() in self._results

    def get(self, case: SweepCase):
        try:
            return self._results[case.store_key()]
        except KeyError:
            raise self._missing(case) from None

    def iter_results(self) -> Iterator:
        return iter(self._results.values())

    def __len__(self) -> int:
        return len(self._results)

    def _iter_keys(self) -> Iterator[str]:
        return iter(self._results)


# --------------------------------------------------------------------------
# Sharded on-disk backend
# --------------------------------------------------------------------------
_MANIFEST_NAME = "manifest.json"
_SHARD_PATTERN = "shard-*.npz"


def _shard_name(index: int) -> str:
    return f"shard-{index:06d}.npz"


def _entry_payload(key: str, result) -> Dict:
    """The JSON-safe scalar payload of one stored case."""
    entry = result.to_record()
    entry["vdd"] = float(result.vdd)
    entry["store_key"] = key
    return entry


def _result_from_entry(entry: Dict, times, mean, std):
    from .runner import SweepCaseResult  # deferred: runner imports this module

    return SweepCaseResult(
        engine=str(entry["engine"]),
        nodes=int(entry["nodes"]),
        corner=str(entry["corner"]),
        order=None if entry["order"] is None else int(entry["order"]),
        samples=None if entry["samples"] is None else int(entry["samples"]),
        seed=int(entry["seed"]),
        name=str(entry["name"]),
        num_nodes=int(entry["num_nodes"]),
        wall_time=float(entry["wall_time_s"]),
        worst_drop=float(entry["worst_drop_v"]),
        max_std=float(entry["max_std_v"]),
        vdd=float(entry["vdd"]),
        solver=None if entry["solver"] is None else str(entry["solver"]),
        scheme=None if entry["scheme"] is None else str(entry["scheme"]),
        backend=case_backend(entry),
        telemetry=entry.get("telemetry"),
        times=times,
        mean=mean,
        std=std,
    )


class ShardedNpzBackend(ResultsBackend):
    """Chunked, append-only on-disk results store (``.npz`` shards).

    Layout (one directory)::

        store/
          manifest.json     # schema + pinned plan fingerprint
          shard-000000.npz  # up to shard_size cases: meta_<i> (JSON string)
          shard-000001.npz  #   + optional times_<i>/mean_<i>/std_<i> arrays
          ...

    Appends are buffered and flushed one full shard at a time; each shard
    is written to a temporary file in the store directory and renamed into
    place, so readers (and a resume after a kill) only ever see complete
    shards.  A crash loses at most the unflushed tail of the buffer --
    bounded by ``shard_size`` cases -- and :meth:`finalize` flushes the
    partial remainder, so an orderly interruption loses nothing.

    Raw engine payloads are refused (``supports_raw = False``): they are
    arbitrary objects with no stable serialisation; campaigns that need
    them keep the in-memory backend.
    """

    def __init__(self, path: Union[str, Path], shard_size: int = DEFAULT_SHARD_SIZE):
        super().__init__()
        if shard_size < 1:
            raise StoreError(f"shard_size must be at least 1, got {shard_size}")
        self.path = Path(path)
        self.shard_size = int(shard_size)
        #: key -> (shard path, slot within the shard), for flushed cases.
        self._index: Dict[str, Tuple[Path, int]] = {}
        #: Flushed keys in shard order, then pending keys in append order.
        self._sequence: List[str] = []
        #: key -> result, for appended-but-unflushed cases.
        self._pending: Dict[str, object] = {}
        self._next_shard = 0
        self._opened = False
        # One-shard read cache: plan-order reads of a completion-order store
        # hop between shards; keeping the last NpzFile open amortises that.
        self._open_shard: Optional[Tuple[Path, object]] = None

    # ------------------------------------------------------------------ open
    def open(self, plan: SweepPlan) -> None:
        self.path.mkdir(parents=True, exist_ok=True)
        fingerprint = plan_fingerprint(plan)
        manifest_path = self.path / _MANIFEST_NAME
        if manifest_path.exists():
            manifest = self._load_manifest(manifest_path)
            self._pin_fingerprint(manifest["fingerprint"])
            self._pin_fingerprint(fingerprint)
        else:
            self._pin_fingerprint(fingerprint)
            self._write_atomic(
                manifest_path,
                json.dumps(
                    {"schema": STORE_SCHEMA, "fingerprint": fingerprint},
                    indent=2,
                    sort_keys=True,
                ).encode("utf-8"),
            )
        if not self._opened:
            self._scan_shards()
            self._opened = True

    def _load_manifest(self, manifest_path: Path) -> Dict:
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"cannot read store manifest {manifest_path}: {exc}") from None
        schema = manifest.get("schema")
        if schema != STORE_SCHEMA:
            raise StoreError(
                f"results store {self.path} has schema {schema!r}; "
                f"this build reads {STORE_SCHEMA!r}"
            )
        if "fingerprint" not in manifest:
            raise StoreError(f"store manifest {manifest_path} lacks a plan fingerprint")
        return manifest

    def _scan_shards(self) -> None:
        for shard_path in sorted(self.path.glob(_SHARD_PATTERN)):
            with np.load(shard_path) as shard:
                for slot in range(_shard_count(shard)):
                    entry = json.loads(shard[f"meta_{slot}"].item())
                    key = str(entry["store_key"])
                    self._index[key] = (shard_path, slot)
                    self._sequence.append(key)
            stem_index = int(shard_path.stem.split("-", 1)[1])
            self._next_shard = max(self._next_shard, stem_index + 1)

    # ---------------------------------------------------------------- writes
    def append(self, case: SweepCase, result) -> None:
        key = case.store_key()
        if key in self._index or key in self._pending:
            raise self._duplicate(case)
        if getattr(result, "raw", None) is not None:
            raise StoreError(
                "the sharded npz store cannot hold raw engine payloads; run "
                "without keep_raw or use the in-memory backend"
            )
        self._pending[key] = result
        self._sequence.append(key)
        while len(self._pending) >= self.shard_size:
            self._flush_shard(self.shard_size)

    def _flush_shard(self, count: int) -> None:
        keys = list(self._pending)[:count]
        payload: Dict[str, object] = {}
        for slot, key in enumerate(keys):
            result = self._pending[key]
            payload[f"meta_{slot}"] = np.array(
                json.dumps(_entry_payload(key, result), sort_keys=True)
            )
            for field in ("times", "mean", "std"):
                value = getattr(result, field)
                if value is not None:
                    payload[f"{field}_{slot}"] = np.asarray(value, dtype=float)
        shard_path = self.path / _shard_name(self._next_shard)
        handle, tmp_name = tempfile.mkstemp(prefix=".tmp-shard-", suffix=".npz", dir=self.path)
        try:
            with os.fdopen(handle, "wb") as stream:
                np.savez(stream, **payload)
            os.replace(tmp_name, shard_path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        for slot, key in enumerate(keys):
            self._index[key] = (shard_path, slot)
            del self._pending[key]
        self._next_shard += 1

    @staticmethod
    def _write_atomic(path: Path, data: bytes) -> None:
        handle, tmp_name = tempfile.mkstemp(prefix=".tmp-", dir=path.parent)
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise

    def finalize(self) -> None:
        """Flush the partial tail shard and release the read handle."""
        if self._pending:
            self._flush_shard(len(self._pending))
        self._close_shard()

    # ----------------------------------------------------------------- reads
    def contains(self, case: SweepCase) -> bool:
        key = case.store_key()
        return key in self._index or key in self._pending

    def get(self, case: SweepCase):
        key = case.store_key()
        if key in self._pending:
            return self._pending[key]
        try:
            shard_path, slot = self._index[key]
        except KeyError:
            raise self._missing(case) from None
        return self._read_slot(shard_path, slot)

    def _read_slot(self, shard_path: Path, slot: int):
        shard = self._shard_handle(shard_path)
        entry = json.loads(shard[f"meta_{slot}"].item())
        arrays = {
            field: shard[f"{field}_{slot}"] if f"{field}_{slot}" in shard.files else None
            for field in ("times", "mean", "std")
        }
        return _result_from_entry(entry, **arrays)

    def _shard_handle(self, shard_path: Path):
        if self._open_shard is not None and self._open_shard[0] == shard_path:
            return self._open_shard[1]
        self._close_shard()
        try:
            handle = np.load(shard_path)
        except (OSError, ValueError) as exc:
            raise StoreError(f"cannot read store shard {shard_path}: {exc}") from None
        self._open_shard = (shard_path, handle)
        return handle

    def _close_shard(self) -> None:
        if self._open_shard is not None:
            self._open_shard[1].close()
            self._open_shard = None

    def iter_results(self) -> Iterator:
        for key in self._sequence:
            if key in self._pending:
                yield self._pending[key]
            else:
                shard_path, slot = self._index[key]
                yield self._read_slot(shard_path, slot)

    def __len__(self) -> int:
        return len(self._index) + len(self._pending)

    def _iter_keys(self) -> Iterator[str]:
        return iter(self._sequence)


def _shard_count(shard) -> int:
    """Number of case slots in a loaded shard file."""
    return sum(1 for name in shard.files if name.startswith("meta_"))
