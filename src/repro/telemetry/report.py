"""Render a per-phase / per-solver summary table from a v1 trace.

Consumed by the ``opera-run trace-report`` subcommand: the per-phase totals
are computed from top-level spans only (depth-0 spans already contain their
children), so the phase column sums to the recorded run wall time instead of
double-counting nested sections.  A second table breaks the ``factor`` and
``step`` time down by the ``solver`` attribute of the emitting span.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["phase_summary", "solver_summary", "render_report"]

#: Canonical display order of the phases; unknown phases sort after these.
_PHASE_ORDER = ("run", "assemble", "factor", "step", "fit", "other")


def _phase_rank(phase: str) -> tuple:
    try:
        return (_PHASE_ORDER.index(phase), phase)
    except ValueError:
        return (len(_PHASE_ORDER), phase)


def _spans(events: List[dict]) -> List[dict]:
    return [event for event in events if event.get("type") == "span"]


def phase_summary(events: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per-phase call counts, total and self durations.

    ``total_s`` sums every span of the phase; ``top_s`` sums only the
    depth-0 spans (those not enclosed by another span), which is the column
    that adds up to the run wall time.
    """
    totals: Dict[str, Dict[str, float]] = {}
    for event in _spans(events):
        phase = event.get("phase", "other")
        entry = totals.setdefault(phase, {"count": 0, "total_s": 0.0, "top_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += event["duration_s"]
        if event.get("depth", 0) == 0:
            entry["top_s"] += event["duration_s"]
    return {phase: totals[phase] for phase in sorted(totals, key=_phase_rank)}


def solver_summary(events: List[dict]) -> Dict[str, Dict[str, float]]:
    """Count and total duration of spans that carry a ``solver`` attribute."""
    totals: Dict[str, Dict[str, float]] = {}
    for event in _spans(events):
        solver = (event.get("attrs") or {}).get("solver")
        if solver is None:
            continue
        entry = totals.setdefault(str(solver), {"count": 0, "total_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += event["duration_s"]
    return {name: totals[name] for name in sorted(totals)}


def _table(title: str, header: tuple, rows: List[tuple]) -> List[str]:
    widths = [
        max(len(str(header[col])), max((len(str(row[col])) for row in rows), default=0))
        for col in range(len(header))
    ]

    def fmt(row: tuple) -> str:
        cells = [str(row[0]).ljust(widths[0])]
        cells += [str(row[col]).rjust(widths[col]) for col in range(1, len(header))]
        return "  " + "  ".join(cells)

    lines = [title, fmt(header)]
    lines.append("  " + "  ".join("-" * width for width in widths))
    lines.extend(fmt(row) for row in rows)
    return lines


def render_report(events: List[dict]) -> str:
    """The full trace report: meta line, phase table, solver table, steps."""
    lines: List[str] = []
    meta = next((event for event in events if event.get("type") == "meta"), None)
    elapsed = None
    if meta is not None:
        elapsed = (meta.get("attrs") or {}).get("elapsed_s")
        spans = (meta.get("attrs") or {}).get("spans")
        header = f"trace: {spans} span(s)"
        if elapsed is not None:
            header += f", recorded wall time {elapsed:.4f}s"
        lines.append(header)

    phases = phase_summary(events)
    if phases:
        rows = [
            (
                phase,
                entry["count"],
                f"{entry['total_s']:.4f}",
                f"{entry['top_s']:.4f}",
            )
            for phase, entry in phases.items()
        ]
        top_total = sum(entry["top_s"] for entry in phases.values())
        rows.append(("(sum of top-level)", "", "", f"{top_total:.4f}"))
        lines.append("")
        lines.extend(_table("per-phase totals", ("phase", "count", "total_s", "top_s"), rows))
        if elapsed:
            coverage = 100.0 * top_total / elapsed
            lines.append(f"  top-level span coverage: {coverage:.1f}% of wall time")

    solvers = solver_summary(events)
    if solvers:
        rows = [
            (name, entry["count"], f"{entry['total_s']:.4f}")
            for name, entry in solvers.items()
        ]
        lines.append("")
        lines.extend(_table("per-solver spans", ("solver", "count", "total_s"), rows))

    steps = next((event for event in events if event.get("type") == "step_stats"), None)
    if steps is not None:
        stats = steps.get("stats") or {}
        lines.append("")
        lines.append("step stats")
        for key in sorted(stats):
            lines.append(f"  {key:24s} {stats[key]}")

    counters = [event for event in events if event.get("type") == "counter"]
    if counters:
        lines.append("")
        lines.append("counters")
        for event in counters:
            lines.append(f"  {event['name']:24s} {event['value']}")

    return "\n".join(lines) if lines else "trace: no events"
