"""Structured tracing and solver metrics for every layer of the library.

The observability backbone: a :class:`Telemetry` context collects nested
:class:`Span` timers (monotonic clocks), typed :class:`Counter` /
:class:`Gauge` metrics and the per-step solver aggregate
:class:`StepStats`; a versioned JSON-lines exporter
(:data:`TRACE_SCHEMA` = ``repro.telemetry/trace/v1``) persists traces for
``opera-run trace-report`` and the CI schema gate
(``python -m repro.telemetry.validate``).

Telemetry is **off by default** and free when off: instrumented code calls
:func:`current_telemetry`, which returns the no-op :data:`NULL` singleton
until a context is installed -- results are bit-identical either way,
because instrumentation only ever *reads* solver state.

Enable it scoped::

    from repro import telemetry

    with telemetry.profile() as tele:
        view = session.run("opera", mode="transient")
    telemetry.write_trace(tele, "trace.jsonl")

or process-wide with :func:`enable_telemetry` / :func:`disable_telemetry`.
The sweep runner has its own switch (``SweepRunner(telemetry=True)``) that
profiles each worker-process case and ships the summary back with the
result.
"""

from .core import (
    NULL,
    Counter,
    Gauge,
    NullTelemetry,
    Span,
    Telemetry,
    current_telemetry,
    disable_telemetry,
    enable_telemetry,
    merge_summaries,
    profile,
)
from .report import phase_summary, render_report, solver_summary
from .stepstats import StepStats
from .trace import REQUIRED_FIELDS, TRACE_SCHEMA, read_trace, trace_events, write_trace

__all__ = [
    "Counter",
    "Gauge",
    "NULL",
    "NullTelemetry",
    "REQUIRED_FIELDS",
    "Span",
    "StepStats",
    "TRACE_SCHEMA",
    "Telemetry",
    "current_telemetry",
    "disable_telemetry",
    "enable_telemetry",
    "merge_summaries",
    "phase_summary",
    "profile",
    "read_trace",
    "render_report",
    "solver_summary",
    "trace_events",
    "validate_trace",
    "write_trace",
]


def __getattr__(name: str):
    # ``validate`` also runs as ``python -m repro.telemetry.validate``;
    # importing it with the package would execute it twice (runpy warns).
    if name == "validate_trace":
        from .validate import validate_trace

        return validate_trace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
