"""Scaled-down self-test of the benchmark.

    python3 perfbench/selftest.py     # from the root of a repository checkout

Runs every workload at the ``tiny`` size through ``run.py``, untraced and
traced, and asserts: the result line's keys; exactly the metric names and
units BENCHMARK.json lists; a correct run without failed operations; and,
recomputed from the span file the traced run wrote, that every traced
run's layer self times plus ``other`` add up to its wall time.  Last, it
checks that ``run.py`` fails without printing a result in a directory that
holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEED = 3


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(spec: dict, workload: str, trace: int) -> None:
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"]
                for metric in spec["per_layer" if trace else "end_to_end"]}
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == expected, (units, expected)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)), metric
    if trace:
        check_self_time_identity(workload)


def check_self_time_identity(workload: str) -> None:
    """Layer self times + other = wall, recomputed from the span file.

    Each span's self time is its duration minus its children's; summed
    over a root's tree they must give the bench's wall time for a bench
    root, and the root's duration for a pool worker's tree.
    """
    path = ROOT / ".bench_out" / "spans" / f"{workload}-tiny-seed{SEED}.jsonl"
    spans, walls = tracing.read_spans(path)
    assert walls and spans, path
    children = [0.0] * len(spans)
    for name, start, end, parent, run, extra in spans:
        if parent is not None:
            children[parent] += end - start
    layers, other, roots = {}, {}, []
    for index, (name, start, end, parent, run, extra) in enumerate(spans):
        own = end - start - children[index]
        assert own >= -1e-9, (name, own)
        root = index
        while spans[root][3] is not None:
            root = spans[root][3]
        roots.append(root)
        if root == index:
            other[root] = own
        else:
            layers[root] = layers.get(root, 0.0) + own
    # Outside a sweep every span of a run happens inside the bench's call,
    # so a span detached from the bench root would be counted twice.
    for index, root in enumerate(roots):
        run = spans[index][4]
        if not run.startswith("sweep"):
            assert spans[root][0].startswith("bench."), (run, spans[index][0])
    bench_runs = set()
    for root, own in other.items():
        name, start, end, _, run, _ = spans[root]
        total = own + layers.get(root, 0.0)
        if name.startswith("bench."):
            bench_runs.add(run)
            assert abs(total - walls[run]) <= 1e-3 * walls[run] + 2e-4, (run, total, walls[run])
        else:
            assert abs(total - (end - start)) <= 1e-9 * (end - start) + 1e-12, (run, name)
    assert bench_runs == set(walls), (bench_runs, set(walls))


def check_refuses_without_program() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench("opera-cg", 0, cwd=bare)
        assert done.returncode != 0, done
        assert "{" not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)
            print(f"selftest: {workload} trace={trace}: ok")
    check_refuses_without_program()
    print("selftest: run.py refuses to run without the program: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
