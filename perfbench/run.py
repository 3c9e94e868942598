"""Run one benchmark workload once and print its result.

    python3 perfbench/run.py --workload opera-cg --seed 1 --seconds 20 --trace 0

Run it from the root of a repository checkout; the program is the
pure-Python package under ``src/``, so there is nothing to build.  A run
starts two processes in turn, each alone on the machine, both with
BLAS/OpenMP pinned to one thread:

1. ``measure.py`` -- this workload only: builds the inputs from the seed,
   times the workload for ``--seconds`` and records the outputs;
2. ``reference.py`` -- recomputes the expected outputs and checks the
   measured ones against the workload's accuracy contract.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones).  ``--size tiny`` runs
the scaled-down workloads of ``selftest.py``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("opera-cg", "montecarlo", "corner-sweep")
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Wall-clock caps that keep one run well inside 180 seconds.
MEASURE_TIMEOUT_S = 120.0
REFERENCE_TIMEOUT_S = 45.0
#: Scratch space of the runs, inside the checkout (ignored by git).
OUT_DIR = Path(".bench_out")


def run_child(command, env, timeout: float) -> bool:
    """Run ``command`` in a process group of its own; True on exit code 0.

    On a timeout or an interrupt the whole group (pool workers included)
    is killed and the child reaped before returning.
    """
    process = subprocess.Popen(command, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        return process.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        print(f"run.py: {Path(command[1]).name} ran over {timeout:.0f} s", file=sys.stderr)
        return False
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    # Terminated, unwind normally: the children's process groups are killed
    # and the run directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("run.py: no src/repro here; run from the root of a repository checkout",
              file=sys.stderr)
        return 2
    run_dir = root / OUT_DIR / f"run-{os.getpid()}"
    spans = root / OUT_DIR / "spans" / f"{args.workload}-{args.size}-seed{args.seed}.jsonl"
    run_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(root / "src"), os.environ.get("PYTHONPATH")) if part
    )
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
              "--run-dir", str(run_dir)]
    try:
        measured_ok = run_child(
            [sys.executable, str(HERE / "measure.py"), *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--spans", str(spans)],
            env,
            MEASURE_TIMEOUT_S,
        )
        if not measured_ok:
            print("run.py: the measured process failed; no result", file=sys.stderr)
            return 1
        measured = json.loads((run_dir / "measured.json").read_text())
        checked = run_child(
            [sys.executable, str(HERE / "reference.py"), *common], env, REFERENCE_TIMEOUT_S
        )
        check = json.loads((run_dir / "check.json").read_text()) if checked else None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # A check that could not run counts as one missed check.
    failed = measured["failed"] + (check["failed"] if check is not None else 1)
    result = {
        "correct": check is not None and failed == 0,
        "attempted": measured["attempted"],
        "failed": min(failed, measured["attempted"]),
        "metrics": measured["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
