"""Tests for :mod:`repro.telemetry`: contexts, traces, reports, sweep wiring.

Covers the acceptance criteria of the observability PR:

* the disabled default is a shared no-op (no per-call allocation, no state);
* spans nest, time monotonically and group into phases;
* per-step solver stats merge associatively and round-trip through dicts;
* the JSON-lines trace exporter writes schema-versioned events that the
  validator accepts and the reader rejects when foreign;
* the trace report's per-phase totals are consistent with the run wall time;
* sweep campaigns ship per-case summaries through every results backend and
  merge them deterministically into the benchmark artifact.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.telemetry import (
    NULL,
    REQUIRED_FIELDS,
    TRACE_SCHEMA,
    NullTelemetry,
    StepStats,
    Telemetry,
    current_telemetry,
    disable_telemetry,
    enable_telemetry,
    merge_summaries,
    phase_summary,
    profile,
    read_trace,
    render_report,
    trace_events,
    validate_trace,
    write_trace,
)
from repro.telemetry.validate import main as validate_main


# ---------------------------------------------------------------------------
# Core context
# ---------------------------------------------------------------------------
class TestNullTelemetry:
    def test_disabled_is_the_default(self):
        assert current_telemetry() is NULL
        assert not NULL.enabled

    def test_null_span_is_shared_and_reentrant(self):
        first = NULL.span("a", phase="step")
        second = NULL.span("b")
        assert first is second  # one stateless instance, no allocation
        with first:
            with second:
                pass

    def test_null_methods_are_noops(self):
        NULL.count("x", 3)
        NULL.gauge("y", 1.0)
        NULL.record_step_stats(StepStats(steps=1))
        assert NULL.pop_step_stats() is None

    def test_null_has_no_instance_dict(self):
        assert not hasattr(NullTelemetry(), "__dict__")


class TestTelemetryContext:
    def test_spans_nest_and_record_depth(self):
        tele = Telemetry()
        with tele.span("outer", phase="run"):
            with tele.span("inner", phase="factor"):
                pass
        by_name = {event["name"]: event for event in tele.events}
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["depth"] == 1
        # Inner closes first, so sequence numbers order by completion.
        assert by_name["inner"]["seq"] < by_name["outer"]["seq"]
        assert by_name["outer"]["duration_s"] >= by_name["inner"]["duration_s"] >= 0.0

    def test_phase_totals_group_and_sort(self):
        tele = Telemetry()
        with tele.span("a", phase="factor"):
            pass
        with tele.span("b", phase="factor"):
            pass
        with tele.span("c"):
            pass
        totals = tele.phase_totals()
        assert list(totals) == sorted(totals)
        assert totals["factor"]["count"] == 2
        assert totals["other"]["count"] == 1

    def test_counters_and_gauges(self):
        tele = Telemetry()
        tele.count("solves")
        tele.count("solves", 2)
        tele.gauge("residual", 1e-9)
        assert tele.counters["solves"].value == 3
        assert tele.gauges["residual"].value == 1e-9

    def test_step_stats_pending_drain(self):
        tele = Telemetry()
        assert tele.pop_step_stats() is None
        tele.record_step_stats(StepStats(steps=2, solves=2))
        tele.record_step_stats(StepStats(steps=3, solves=3))
        pending = tele.pop_step_stats()
        assert pending.steps == 5 and pending.solves == 5
        assert tele.pop_step_stats() is None  # drained
        assert tele.step_stats.steps == 5  # the cumulative aggregate remains

    def test_summary_is_json_safe_and_sorted(self):
        tele = Telemetry()
        with tele.span("a", phase="step"):
            pass
        tele.count("solves", 4)
        tele.record_step_stats(StepStats(steps=4, solves=4))
        summary = tele.summary()
        assert list(summary) == sorted(summary)
        json.dumps(summary)  # must not raise
        assert summary["spans"] == 1
        assert summary["step_stats"]["steps"] == 4

    def test_profile_restores_previous_context(self):
        outer = enable_telemetry()
        try:
            with profile() as inner:
                assert current_telemetry() is inner
                assert inner is not outer
            assert current_telemetry() is outer
        finally:
            disable_telemetry()
        assert current_telemetry() is NULL

    def test_enable_disable_round_trip(self):
        tele = enable_telemetry()
        assert current_telemetry() is tele
        assert disable_telemetry() is tele
        assert current_telemetry() is NULL


class TestStepStats:
    def test_record_solve_tracks_warm_cold_and_residuals(self):
        stats = StepStats()
        stats.record_solve(True, iterations=5, residual=1e-8)
        stats.record_solve(False, iterations=3, residual=1e-6)
        assert stats.solves == 2
        assert stats.warm_starts == 1 and stats.cold_starts == 1
        assert stats.total_iterations == 8
        assert stats.last_relative_residual == 1e-6
        assert stats.max_relative_residual == 1e-6
        assert stats.warm_start_hit_rate == 0.5

    def test_merge_is_additive_and_keeps_extrema(self):
        first = StepStats(steps=2, solves=2, total_iterations=10)
        first.record_solve(True, residual=1e-7)
        second = StepStats(steps=3, solves=3, total_iterations=5)
        second.record_solve(False, residual=1e-5)
        first.merge(second)
        assert first.steps == 5
        assert first.solves == 7  # (2 + 1 recorded) + (3 + 1 recorded)
        assert first.max_relative_residual == 1e-5
        assert first.last_relative_residual == 1e-5  # the later run's last

    def test_dict_round_trip_ignores_derived_keys(self):
        stats = StepStats(steps=4, solves=4, warm_starts=3, cold_starts=1)
        payload = stats.to_dict()
        assert list(payload) == sorted(payload)
        assert payload["warm_start_hit_rate"] == 0.75
        restored = StepStats.from_dict(payload)
        assert restored == stats

    def test_empty_rates_are_none(self):
        stats = StepStats()
        assert stats.warm_start_hit_rate is None
        assert stats.mean_iterations is None


class TestMergeSummaries:
    def _summary(self, phase_s: float, solves: int) -> dict:
        tele = Telemetry()
        with tele.span("work", phase="step"):
            pass
        tele.events[-1]["duration_s"] = phase_s  # pin for exact arithmetic
        tele.count("solves", solves)
        tele.record_step_stats(StepStats(steps=solves, solves=solves))
        return tele.summary()

    def test_merge_sums_deterministically(self):
        merged = merge_summaries([self._summary(0.25, 2), self._summary(0.5, 3)])
        assert merged["cases"] == 2
        assert merged["phases"]["step"] == {"count": 2, "total_s": 0.75}
        assert merged["counters"]["solves"] == 5
        assert merged["step_stats"]["steps"] == 5
        assert list(merged) == sorted(merged)

    def test_merge_of_nothing_is_none(self):
        assert merge_summaries([]) is None
        assert merge_summaries([None, {}]) is None


# ---------------------------------------------------------------------------
# Trace export / validation / report
# ---------------------------------------------------------------------------
@pytest.fixture()
def traced(tmp_path):
    """A small context with spans, metrics and step stats, written to disk."""
    tele = Telemetry()
    with tele.span("engine.opera", phase="run", engine="opera"):
        with tele.span("solver.factor", phase="factor", solver="direct"):
            pass
        with tele.span("stepping.march", phase="step"):
            pass
    tele.count("solves", 4)
    tele.gauge("residual", 2e-9)
    tele.record_step_stats(StepStats(steps=4, solves=4, cold_starts=4))
    path = write_trace(tele, tmp_path / "trace.jsonl")
    return tele, path


class TestTrace:
    def test_every_event_carries_the_required_fields(self, traced):
        tele, path = traced
        events = read_trace(path)
        for event in events:
            for field in REQUIRED_FIELDS:
                assert field in event, (event, field)
            assert event["schema"] == TRACE_SCHEMA
        assert events[0]["type"] == "meta"
        types = {event["type"] for event in events}
        assert {"meta", "span", "counter", "gauge", "step_stats"} <= types

    def test_trace_events_match_written_lines(self, traced):
        tele, path = traced
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        regenerated = trace_events(tele)
        # elapsed_s moves between export calls; identity is (seq, type, name).
        assert [(e["seq"], e["type"], e["name"]) for e in lines] == [
            (e["seq"], e["type"], e["name"]) for e in regenerated
        ]

    def test_reader_rejects_foreign_schema(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"schema": "other/v9", "seq": 0}) + "\n")
        with pytest.raises(ValueError, match="schema"):
            read_trace(bad)

    def test_reader_rejects_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            read_trace(bad)


class TestValidate:
    def test_valid_trace_has_no_problems(self, traced):
        _, path = traced
        assert validate_trace(path) == []
        assert validate_main([str(path)]) == 0

    def test_missing_fields_and_bad_schema_are_reported(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        foreign = {"schema": "other/v9", "seq": 0, "type": "meta", "name": "x", "t_s": 0.0}
        bare_span = {"schema": TRACE_SCHEMA, "seq": 1, "type": "span", "name": "y", "t_s": 0.0}
        bad.write_text(json.dumps(foreign) + "\n" + json.dumps(bare_span) + "\n")
        problems = validate_trace(bad)
        assert any("schema" in problem for problem in problems)
        assert any("duration_s" in problem for problem in problems)
        assert validate_main([str(bad)]) == 1

    def test_module_runs_once_without_warnings(self, traced):
        _, path = traced
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        command = [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.telemetry.validate"]
        completed = subprocess.run(
            [*command, str(path)], env=env, capture_output=True, text=True, timeout=120
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stderr == ""

    def test_empty_and_missing_files_fail(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert validate_trace(empty)
        assert validate_trace(tmp_path / "nope.jsonl")


class TestReport:
    def test_phase_summary_top_level_spans(self, traced):
        tele, path = traced
        summary = phase_summary(read_trace(path))
        assert summary["run"]["count"] == 1
        assert summary["factor"]["count"] == 1
        # Only the depth-0 run span contributes to top-level coverage.
        assert summary["run"]["top_s"] == pytest.approx(summary["run"]["total_s"])
        assert summary["factor"]["top_s"] == 0.0

    def test_report_totals_consistent_with_wall_time(self, traced):
        tele, path = traced
        events = read_trace(path)
        meta = events[0]
        top_total = sum(
            event["duration_s"]
            for event in events
            if event["type"] == "span" and event.get("depth", 0) == 0
        )
        # Top-level spans cannot exceed the recorded wall time.
        assert top_total <= meta["attrs"]["elapsed_s"]
        text = render_report(events)
        assert "per-phase totals" in text
        assert "step stats" in text
        assert "solver" in text

    def test_report_of_empty_trace(self):
        assert render_report([]) == "trace: no events"


# ---------------------------------------------------------------------------
# Sweep integration
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_plan():
    from repro.sim.transient import TransientConfig
    from repro.sweep import SweepPlan

    return SweepPlan.grid(
        [16],
        engines=["opera", "montecarlo"],
        orders=[1],
        samples=6,
        transient=TransientConfig(t_stop=1.0e-9, dt=0.25e-9),
    )


class TestSweepTelemetry:
    def test_cases_ship_summaries_and_merge_in_plan_order(self, tiny_plan):
        from repro.sweep import SweepRunner

        outcome = SweepRunner(workers=1, telemetry=True).run(tiny_plan)
        for result in outcome:
            assert result.telemetry is not None
            assert result.telemetry["phases"]["run"]["count"] >= 1
            assert "step_stats" in result.telemetry
        merged = outcome.telemetry_summary()
        assert merged["cases"] == len(tiny_plan.cases)
        json.dumps(merged)

    def test_disabled_runner_ships_nothing(self, tiny_plan):
        from repro.sweep import SweepRunner

        outcome = SweepRunner(workers=1).run(tiny_plan)
        assert all(result.telemetry is None for result in outcome)
        assert outcome.telemetry_summary() is None

    def test_summaries_survive_the_sharded_store(self, tiny_plan, tmp_path):
        from repro.sweep import ShardedNpzBackend, SweepRunner

        store = ShardedNpzBackend(tmp_path / "store")
        SweepRunner(workers=1, telemetry=True).run(tiny_plan, store=store)
        # A fresh runner (telemetry off) resumes entirely from disk.
        reopened = ShardedNpzBackend(tmp_path / "store")
        outcome = SweepRunner(workers=1).resume(tiny_plan, reopened)
        assert outcome.reused == len(tiny_plan.cases)
        for result in outcome:
            assert result.telemetry is not None
            assert result.telemetry["phases"]["run"]["count"] >= 1
        assert outcome.telemetry_summary()["cases"] == len(tiny_plan.cases)

    def test_bench_record_carries_merged_telemetry(self, tiny_plan):
        from repro.sweep import BenchRecord, SweepRunner, record_from_outcome

        outcome = SweepRunner(workers=1, telemetry=True).run(tiny_plan)
        record = record_from_outcome(outcome)
        restored = BenchRecord.from_json(record.to_json())
        assert restored.telemetry["cases"] == len(tiny_plan.cases)
        assert all("telemetry" in case for case in restored.cases)

    def test_record_without_telemetry_omits_the_field(self, tiny_plan):
        from repro.sweep import BenchRecord, SweepRunner, record_from_outcome

        outcome = SweepRunner(workers=1).run(tiny_plan)
        record = record_from_outcome(outcome)
        payload = json.loads(record.to_json())
        assert "telemetry" not in payload
        assert BenchRecord.from_dict(payload).telemetry is None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestTraceCli:
    COMMON = ["analyze", "--synthetic-nodes", "40", "--t-stop", "1e-9", "--dt", "2.5e-10"]

    def test_analyze_profile_writes_a_valid_trace(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        trace = tmp_path / "run.jsonl"
        code = cli_main([*self.COMMON, "--order", "1", "--profile", str(trace)])
        assert code == 0
        assert "wrote telemetry trace" in capsys.readouterr().out
        assert validate_trace(trace) == []
        # Profiling is scoped: the process-wide default is restored.
        assert current_telemetry() is NULL

    def test_trace_report_command(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        trace = tmp_path / "run.jsonl"
        assert cli_main([*self.COMMON, "--order", "1", "--profile", str(trace)]) == 0
        capsys.readouterr()
        assert cli_main(["trace-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "per-phase totals" in out
        assert "run" in out

    def test_trace_report_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert cli_main(["trace-report", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_trace_report_missing_file(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["trace-report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err
