"""Span tracer of the benchmark's traced mode (``--trace 1``).

The tracer measures each layer from outside: it replaces public methods of
the program's classes with timing wrappers.  Methods are looked up on the
class at call time, so every caller goes through the wrapper, including
code that imported the class by name.  A module function re-imported by
name elsewhere would slip past a wrapper, so only class attributes are
wrapped: ``Analysis.from_spec`` stands for grid generation and the
``Analysis.stamped`` / ``Analysis.system`` properties for stamping and the
stochastic-system build.

Each call becomes one span ``[name, start, end, parent, run, extra]``.
Spans stay in memory and are written when the run ends.  Sweep pool
workers inherit the wrappers through ``fork``; a worker starts an empty
span list of its own and appends each finished root span tree to a
per-process spill file, which the main process merges after the sweep.

A span's self time is its duration minus the durations of its children.
Self times of every span under a root add up to the root's duration; the
bench's own root span holds the time spent outside every layer (``other``).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

#: ``(module, class, attribute, span name, options)`` of every wrapped layer
#: entry point.  Options: ``outermost`` -- a call nested in a span of the same
#: name records nothing (``SummedExcitation.sample`` calling its parts,
#: ``matvec`` forwarding to ``matmat``); ``miss`` -- record only when the
#: predicate holds (cached properties: only the building access is timed);
#: ``extra`` -- a count read after the call (CG iterations, time steps).
TARGETS = (
    ("repro.api.session", "Analysis", "from_spec", "grid.generate", {}),
    ("repro.api.session", "Analysis", "stamped", "grid.stamp",
     {"miss": lambda self: self._stamped is None}),
    ("repro.api.session", "Analysis", "system", "variation.build",
     {"miss": lambda self: self._system is None}),
    ("repro.api.session", "Analysis", "run", "api.run", {}),
    ("repro.grid.stamping", "StampedSystem", "drain_current_vector", "grid.drain", {}),
    ("repro.grid.stamping", "StampedSystem", "drain_current_matrix", "grid.drain", {}),
    *(
        (module, cls, method, "variation.excite", {"outermost": True})
        for module, cls in (
            ("repro.variation.model", "AffineExcitation"),
            ("repro.variation.model", "SummedExcitation"),
            ("repro.variation.leakage", "RegionLeakageExcitation"),
        )
        for method in ("sample", "pc_coefficients")
    ),
    ("repro.variation.model", "StochasticSystem", "realize_matrices", "variation.realize", {}),
    ("repro.chaos.basis", "PolynomialChaosBasis", "__init__", "chaos.basis", {}),
    ("repro.chaos.galerkin", "GalerkinSystem", "__init__", "chaos.assemble", {}),
    ("repro.chaos.galerkin", "GalerkinSystem", "_matrix", "chaos.assemble",
     {"miss": lambda self, which: which not in self._matrices}),
    ("repro.chaos.galerkin", "GalerkinSystem", "_operator", "chaos.assemble",
     {"miss": lambda self, which: which not in self._operators}),
    ("repro.chaos.galerkin", "GalerkinSystem", "rhs_series", "chaos.rhs_series", {}),
    ("repro.stepping.adapters", "StackedRhsSeries", "from_coefficients",
     "chaos.rhs_series", {}),
    ("repro.linalg.operator", "KronSumOperator", "matvec", "linalg.matvec",
     {"outermost": True}),
    ("repro.linalg.operator", "KronSumOperator", "matmat", "linalg.matvec",
     {"outermost": True}),
    ("repro.sim.linear", "PreconditionedCGSolver", "solve", "linalg.cg",
     {"extra": lambda self, result: self.stats["last_iterations"]}),
    ("repro.linalg.solvers", "MeanBlockCGSolver", "__init__", "linalg.precond_factor", {}),
    ("repro.linalg.solvers", "MeanBlockCGSolver", "_apply_mean_inverse",
     "linalg.precond_apply", {}),
    ("repro.sim.linear", "DirectSolver", "__init__", "sim.factor", {}),
    ("repro.sim.linear", "DirectSolver", "solve", "sim.solve", {"outermost": True}),
    ("repro.sim.linear", "DirectSolver", "solve_many", "sim.solve", {"outermost": True}),
    ("repro.stepping.adapters", "MnaSystemAdapter", "prepare", "stepping.prepare", {}),
    ("repro.stepping.adapters", "DecoupledSystemAdapter", "prepare", "stepping.prepare", {}),
    ("repro.stepping.loop", "StepLoop", "run", "stepping.march",
     {"extra": lambda self, result: self.times.size - 1}),
)


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self, spill_dir: Path):
        self.pid = os.getpid()
        self.spill_dir = Path(spill_dir)
        #: Run id stamped on new spans; forked workers keep the main process's.
        self.run: Optional[str] = None
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._forked = False
        self._restore: List[tuple] = []

    # ------------------------------------------------------------ recording
    def _own_process(self) -> None:
        # A forked pool worker inherits a copy of the main process's spans and of
        # its open stack; it starts empty, keeping only the run id.
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self._stack = []
            self._forked = True

    def innermost(self) -> Optional[str]:
        """Name of the innermost open span of this process."""
        self._own_process()
        return self.spans[self._stack[-1]][0] if self._stack else None

    def call(self, name: str, fn, args=(), kwargs=None, extra=None):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        self._own_process()
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if extra is not None:
            span[5] = extra(args[0], result)
        if self._forked and not self._stack:
            self._spill()
        return result

    def _spill(self) -> None:
        with open(self.spill_dir / f"spill-{self.pid}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def collect_spills(self) -> None:
        """Append (and delete) the root trees pool workers spilled."""
        for path in sorted(self.spill_dir.glob("spill-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    offset = len(self.spans)
                    for name, start, end, parent, run, extra in json.loads(line):
                        parent = None if parent is None else parent + offset
                        self.spans.append([name, start, end, parent, run, extra])
            path.unlink()

    # ------------------------------------------------------------- wrapping
    def install(self) -> None:
        """Wrap every :data:`TARGETS` attribute (undone by :meth:`uninstall`)."""
        for module, class_name, attr, name, options in TARGETS:
            cls = getattr(importlib.import_module(module), class_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, _wrap_attribute(self, original, name, **options))
            self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            setattr(*self._restore.pop())


def _wrap_function(tracer: Tracer, fn, name: str, outermost=False, miss=None, extra=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if (outermost and tracer.innermost() == name) or (
            miss is not None and not miss(*args, **kwargs)
        ):
            return fn(*args, **kwargs)
        return tracer.call(name, fn, args, kwargs, extra)

    return wrapper


def _wrap_attribute(tracer: Tracer, original, name: str, **options):
    if isinstance(original, property):
        return property(_wrap_function(tracer, original.fget, name, **options))
    if isinstance(original, classmethod):
        return classmethod(_wrap_function(tracer, original.__func__, name, **options))
    return _wrap_function(tracer, original, name, **options)


# ------------------------------------------------------------------ analysis
def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one process nest (calls are single-threaded), so children
    never overlap and the subtraction is exact.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(span[2] - span[1]) - covered[index] for index, span in enumerate(spans)]


def tree_totals(spans: List[list], selves: List[float]) -> Dict[int, float]:
    """Sum of the self times of every root's tree, keyed by the root index."""
    root_of: List[int] = []
    totals: Dict[int, float] = {}
    for index, span in enumerate(spans):
        root = index if span[3] is None else root_of[span[3]]
        root_of.append(root)
        totals[root] = totals.get(root, 0.0) + selves[index]
    return totals


def identity_errors(spans: List[list], walls: Dict[str, float], pooled: bool) -> List[str]:
    """Violations of "layer self times + other = wall time".

    A bench root (``bench.*``) must account for the wall time the bench
    measured around it.  Any other root is a pool worker's tree when the
    runs used a pool (``pooled``) and must account for its own duration;
    without a pool it is a span that escaped the bench's tree.  No self
    time may be negative (overlapping children).
    """
    selves = self_times(spans)
    errors = [
        f"{spans[index][0]} has negative self time {own:.3g} s"
        for index, own in enumerate(selves)
        if own < -1e-9
    ]
    for root, total in tree_totals(spans, selves).items():
        name, start, end, _, run, _ = spans[root]
        if name.startswith("bench."):
            expected, tolerance = walls[run], 1e-3 * walls[run] + 2e-4
        elif not pooled:
            errors.append(f"{run}/{name} ran outside the bench's root span")
            continue
        else:
            expected, tolerance = end - start, 1e-9 * (end - start) + 1e-12
        if abs(total - expected) > tolerance:
            errors.append(f"{run}/{name}: self times sum to {total:.6f} s, wall {expected:.6f} s")
    return errors


def layer_totals(spans: List[list], selves: List[float]) -> Dict[str, Dict[str, float]]:
    """Per run id: ``<span>_s`` (self), ``<span>_calls`` and ``<span>_extra``;
    the bench root's self time is ``other_s``."""
    totals: Dict[str, Dict[str, float]] = {}
    for (name, _, _, _, run, extra), own in zip(spans, selves):
        entry = totals.setdefault(run, {})
        if name.startswith("bench."):
            entry["other_s"] = entry.get("other_s", 0.0) + own
            continue
        entry[f"{name}_s"] = entry.get(f"{name}_s", 0.0) + own
        entry[f"{name}_calls"] = entry.get(f"{name}_calls", 0) + 1
        if extra is not None:
            entry[f"{name}_extra"] = entry.get(f"{name}_extra", 0) + extra
    return totals


def write_spans(path: Path, spans: List[list], walls: Dict[str, float]) -> None:
    """One JSON object per line: the bench walls, then every span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for run, wall in sorted(walls.items()):
            handle.write(json.dumps({"run": run, "wall_s": wall}) + "\n")
        for index, (name, start, end, parent, run, extra) in enumerate(spans):
            record = {"id": index, "name": name, "start": start, "end": end,
                      "parent": parent, "run": run, "extra": extra}
            handle.write(json.dumps(record) + "\n")


def read_spans(path: Path):
    """Inverse of :func:`write_spans`: ``(spans, walls)``."""
    spans: List[list] = []
    walls: Dict[str, float] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "wall_s" in record:
                walls[record["run"]] = record["wall_s"]
            else:
                spans.append([record["name"], record["start"], record["end"],
                              record["parent"], record["run"], record["extra"]])
    return spans, walls
