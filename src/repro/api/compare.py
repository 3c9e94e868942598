"""The ``compare`` helper: one Table-1 row from a single session.

This subsumes what the CLI, the examples and the Table-1 benchmark used to
assemble by hand: run the stochastic reference engine and the Monte Carlo
baseline on the same time axis, compute the accuracy metrics and the
3-sigma spread against the cached nominal transient, and wrap everything in
a :class:`ComparisonResult` whose ``str()`` is the familiar Table-1 layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..analysis.metrics import (
    AccuracyMetrics,
    compare_to_monte_carlo,
    three_sigma_spread_percent,
)
from ..analysis.tables import Table1Row, format_table1
from ..sim.results import TransientResult
from ..sim.transient import TransientConfig
from .result import AnalysisResult

__all__ = ["ComparisonResult", "compare"]


@dataclass(frozen=True)
class ComparisonResult:
    """Accuracy and speed-up of a stochastic engine against Monte Carlo."""

    row: Table1Row
    metrics: AccuracyMetrics
    three_sigma_spread_percent: float
    reference: AnalysisResult
    baseline: AnalysisResult
    nominal: Optional[TransientResult]

    @property
    def speedup(self) -> float:
        """Baseline wall time divided by reference wall time."""
        return self.row.speedup

    def table(self, title: Optional[str] = None) -> str:
        """The single-row Table-1 rendering."""
        return format_table1([self.row], title=title)

    def __str__(self) -> str:
        return self.table(title=f"{self.reference.engine} vs {self.baseline.engine}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.row.name,
            "num_nodes": self.row.num_nodes,
            "average_mean_error_percent": self.row.average_mean_error_percent,
            "maximum_mean_error_percent": self.row.maximum_mean_error_percent,
            "average_sigma_error_percent": self.row.average_sigma_error_percent,
            "maximum_sigma_error_percent": self.row.maximum_sigma_error_percent,
            "three_sigma_spread_percent": self.three_sigma_spread_percent,
            "baseline_seconds": self.row.monte_carlo_seconds,
            "reference_seconds": self.row.opera_seconds,
            "speedup": self.speedup,
        }


def compare(
    session,
    *,
    order: int = 2,
    samples: int = 200,
    seed: int = 0,
    antithetic: bool = True,
    transient: Optional[TransientConfig] = None,
    name: Optional[str] = None,
    reference_engine: str = "opera",
    baseline_engine: str = "montecarlo",
    reference_options: Optional[dict] = None,
    baseline_options: Optional[dict] = None,
) -> ComparisonResult:
    """Run ``reference_engine`` and ``baseline_engine`` and assemble one row.

    The baseline Monte Carlo automatically records the reference's worst
    node, so distribution comparisons (Figures 1/2) work on the returned raw
    results without a re-run.  The nominal transient reference comes from the
    session cache when the session owns a grid.
    """
    transient = transient if transient is not None else session.transient

    reference_opts = dict(reference_options or {})
    if reference_engine == "opera":
        reference_opts.setdefault("order", order)
    reference = session.run(
        reference_engine,
        mode="transient",
        transient=transient,
        **reference_opts,
    )

    baseline_opts = dict(baseline_options or {})
    if baseline_engine == "montecarlo":
        baseline_opts.setdefault("samples", samples)
        baseline_opts.setdefault("seed", seed)
        baseline_opts.setdefault("antithetic", antithetic)
        if hasattr(reference.raw, "worst_node"):
            baseline_opts.setdefault("store_nodes", (int(reference.raw.worst_node()),))
    baseline = session.run(baseline_engine, mode="transient", transient=transient, **baseline_opts)

    metrics = compare_to_monte_carlo(reference.raw, baseline.raw)

    nominal = None
    if session._netlist is not None or session._stamped is not None:
        nominal = session.nominal_transient(transient)
    spread = three_sigma_spread_percent(reference.raw, nominal)

    row = Table1Row.from_metrics(
        name=name or session.name,
        num_nodes=session.num_nodes,
        metrics=metrics,
        three_sigma_spread=spread,
        monte_carlo_seconds=baseline.wall_time or 0.0,
        opera_seconds=reference.wall_time or 0.0,
    )
    return ComparisonResult(
        row=row,
        metrics=metrics,
        three_sigma_spread_percent=spread,
        reference=reference,
        baseline=baseline,
        nominal=nominal,
    )
