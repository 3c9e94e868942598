"""The reference process of one benchmark run: recompute, then check.

``run.py`` starts it after the measured process has exited.  It rebuilds
the workload's inputs from the seed, computes the reference outputs and
checks the measured ones (``outputs.npz`` in the run directory) against
the workload's accuracy contract:

* opera-cg -- mean and std within 1e-9 (relative) of ``opera``/``direct``;
* montecarlo -- mean and std within 1e-9 of a rerun with the same seed
  and sample count, and within their confidence interval of
  ``opera``/``direct``: the mean :data:`CI_SIGMAS` standard errors, the
  std at the entry of largest sigma inside a chi-square interval;
* corner-sweep -- every case finite and within 1e-9 of a serial
  (one-process) run of the same plan.

Each operation whose outputs miss the contract counts as one failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
from scipy.stats import chi2

from repro.sweep import SweepRunner

import workloads

#: Exact engines match the reference to this relative (max-norm) error.
EXACT_RTOL = 1e-9
#: A sampled mean may sit this many standard errors from the reference.
CI_SIGMAS = 5.0
#: Each tail of the chi-square interval a sampled std must fall inside.
STD_TAIL = 1e-6


def relative_error(value, reference) -> float:
    """Max-norm error of ``value`` relative to the max-norm of ``reference``."""
    scale = float(np.max(np.abs(reference)))
    error = float(np.max(np.abs(np.asarray(value) - reference)))
    return error / scale if scale > 0 else error


def exact_errors(mean, std, ref_mean, ref_std, vdd) -> dict:
    return {
        "mean_drop_rel": relative_error(vdd - mean, vdd - ref_mean),
        "std_rel": relative_error(std, ref_std),
    }


def check_opera_cg(args, measured):
    session = workloads.build_session(workloads.SIZES[args.size]["opera-cg"]["nodes"], args.seed)
    view = workloads.run_reference(session)
    errors = exact_errors(measured["mean"], measured["std"], view.mean(), view.std(), session.vdd)
    return [("opera-cg", all(error <= EXACT_RTOL for error in errors.values()), errors)]


def check_montecarlo(args, measured):
    config = workloads.SIZES[args.size]["montecarlo"]
    samples = config["samples"]
    session = workloads.build_session(config["nodes"], args.seed)
    # The same draws again, in this process: the measured run must repeat them.
    rerun = workloads.run_montecarlo(session, samples=samples, seed=args.seed)
    errors = exact_errors(measured["mean"], measured["std"], rerun.mean(), rerun.std(),
                          session.vdd)
    ok = all(error <= EXACT_RTOL for error in errors.values())

    # The draws against the exact statistics of opera/direct: the mean within
    # CI_SIGMAS standard errors everywhere, and at the entry of largest sigma
    # the sample std inside the two-sided STD_TAIL chi-square interval of
    # ``samples`` normal draws (a std of zero falls outside it).
    view = workloads.run_reference(session)
    sigma = view.std()
    floor = 1e-12 * session.vdd
    mean_z = np.abs(measured["mean"] - view.mean()) / (sigma / np.sqrt(samples) + floor)
    peak = np.unravel_index(np.argmax(sigma), sigma.shape)
    ratio = float(measured["std"][peak] / sigma[peak])
    low, high = np.sqrt(chi2.ppf([STD_TAIL, 1.0 - STD_TAIL], samples - 1) / (samples - 1))
    errors.update(mean_sigmas=float(np.max(mean_z)), std_ratio=ratio)
    ok = ok and errors["mean_sigmas"] <= CI_SIGMAS and low <= ratio <= high
    return [("montecarlo", ok, errors)]


def check_corner_sweep(args, measured):
    plan = workloads.sweep_plan(workloads.SIZES[args.size]["corner-sweep"]["nodes"], args.seed)
    outcome = SweepRunner(workers=1, keep_statistics=True).run(plan)
    checks = []
    for result in outcome.results:
        mean = measured.get(f"{result.name}__mean")
        std = measured.get(f"{result.name}__std")
        if mean is None or std is None:
            checks.append((result.name, False, {"missing": True}))
            continue
        finite = bool(np.all(np.isfinite(mean)) and np.all(np.isfinite(std)))
        errors = exact_errors(mean, std, result.mean, result.std, result.vdd) if finite else {}
        ok = finite and all(error <= EXACT_RTOL for error in errors.values())
        checks.append((result.name, ok, errors))
    return checks


CHECKS = {
    "opera-cg": check_opera_cg,
    "montecarlo": check_montecarlo,
    "corner-sweep": check_corner_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--run-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    with np.load(args.run_dir / "outputs.npz") as archive:
        measured = {name: archive[name] for name in archive.files}
    checks = CHECKS[args.workload](args, measured)
    for name, ok, errors in checks:
        print(f"reference.py: {name}: {'ok' if ok else 'FAILED'} {errors}", file=sys.stderr)
    report = {"checked": len(checks), "failed": sum(1 for _, ok, _ in checks if not ok)}
    (args.run_dir / "check.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
