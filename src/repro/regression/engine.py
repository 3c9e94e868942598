"""The ``pce-regression`` engine: non-intrusive regression polynomial chaos.

Where the ``opera`` engine *projects* the stochastic response through the
Galerkin-augmented MNA system, this engine *samples* it: draw germ vectors,
run one fully deterministic solve per sample (embarrassingly parallel), and
fit the chaos coefficients of every node at every time point with a single
multi-right-hand-side least-squares solve against the shared design matrix.
The result is the same analytic object (:class:`StochasticTransientResult` /
:class:`StochasticField`), so moments, densities, worst drops and Sobol
indices work unchanged -- but nothing about the grid equations is ever
touched, which opens the method to any input distribution or response the
intrusive Kronecker machinery cannot assemble.

Determinism
-----------
Sampling reuses the Monte Carlo engine's chunk scaffolding: the chunk layout
depends only on ``(samples, chunk_size)``, each chunk draws from its own
:class:`numpy.random.SeedSequence` child, and chunk results are concatenated
in chunk-index order.  The germ set and the fitted coefficients are therefore
bit-identical for any ``workers`` count, and the cross-validated fitters run
in the driver process on explicitly seeded folds.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..api.engines import _check_mode, _reject_unknown, _resolve_transient, register_engine
from ..api.result import StochasticResultView
from ..chaos.basis import PolynomialChaosBasis
from ..chaos.response import StochasticField, StochasticTransientResult
from ..errors import RegressionError
from ..montecarlo import engine as _mc_engine
from ..montecarlo.engine import _chunk_layout, _chunk_seeds, _run_chunk_jobs
from ..montecarlo.sampler import GermSampler
from ..sim.dc import solve_dc
from ..sim.linear import resolve_solver
from ..sim.transient import TransientConfig, run_transient
from ..telemetry import current_telemetry
from ..variation.model import StochasticSystem
from .design import build_design_matrix
from .fit import fit_coefficients, get_fitter

__all__ = [
    "RegressionConfig",
    "run_regression_transient",
    "run_regression_dc",
    "RegressionResultView",
]

#: Fitters that solve the unpenalised least-squares problem and therefore
#: need at least as many samples as basis terms to be determined.
_DENSE_FITTERS = ("ols", "lstsq", "least-squares")


@dataclass(frozen=True)
class RegressionConfig:
    """Settings of a regression-PCE transient analysis.

    Attributes
    ----------
    transient:
        Time axis and integration settings of every per-sample solve (its
        ``solver`` field selects the per-sample linear backend).
    order:
        Total-degree truncation of the chaos basis.
    samples:
        Number of germ samples; ``None`` defaults to twice the basis size
        (the classical 2x oversampling rule).
    seed:
        Root seed of the germ sampling (chunk streams are spawned from it).
    fit:
        Registered fitter name (``ols``, ``ridge``, ``omp``, ``lasso``, ...).
    fit_options:
        Extra keyword options forwarded to the fitter.
    workers:
        Worker processes for the per-sample solves; never affects results.
    chunk_size:
        Samples per chunk (defaults to the Monte Carlo engine's chunk size).
        Changing it changes the germ stream, so keep it fixed when comparing
        runs.
    normalize:
        Equilibrate the design-matrix columns before fitting.
    """

    transient: TransientConfig
    order: int = 2
    samples: Optional[int] = None
    seed: int = 0
    fit: str = "ols"
    fit_options: Dict[str, Any] = field(default_factory=dict)
    workers: int = 1
    chunk_size: Optional[int] = None
    normalize: bool = True

    def __post_init__(self):
        if self.order < 0:
            raise RegressionError("expansion order must be non-negative")
        if self.samples is not None and self.samples < 2:
            raise RegressionError("regression PCE needs at least 2 samples")
        if self.workers < 1:
            raise RegressionError(f"workers must be at least 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise RegressionError(f"chunk_size must be at least 1, got {self.chunk_size}")
        get_fitter(self.fit)  # fail fast with the registry's listing

    def resolved_samples(self, basis: PolynomialChaosBasis) -> int:
        """The effective sample count (2x oversampling when unset)."""
        if self.samples is not None:
            return int(self.samples)
        return max(2 * basis.size, 10)


# ---------------------------------------------------------------------------
# Chunked per-sample solves (workers reuse the Monte Carlo chunk scaffolding)
# ---------------------------------------------------------------------------
def _transient_sample_job(args):
    """Worker entry point: germs and full voltage waveforms of one chunk."""
    transient, chunk_seed, chunk_samples = args
    system = _mc_engine._CHUNK_SYSTEM
    sampler = GermSampler(system, seed=chunk_seed)
    germs = sampler.sample(chunk_samples)
    voltages = np.empty((chunk_samples, transient.num_steps + 1, system.num_nodes))
    for i, xi in enumerate(germs):
        conductance, capacitance = system.realize_matrices(xi)
        rhs = system.realize_rhs(xi)
        result = run_transient(
            conductance, capacitance, rhs, transient, vdd=system.vdd, store=True
        )
        voltages[i] = result.voltages
    return germs, voltages


def _dc_sample_job(args):
    """Worker entry point: germs and DC voltages of one chunk."""
    t, chunk_seed, chunk_samples, solver = args
    system = _mc_engine._CHUNK_SYSTEM
    sampler = GermSampler(system, seed=chunk_seed)
    germs = sampler.sample(chunk_samples)
    voltages = np.empty((chunk_samples, system.num_nodes))
    for i, xi in enumerate(germs):
        conductance, _ = system.realize_matrices(xi)
        voltages[i] = solve_dc(conductance, system.excitation.sample(t, xi), solver=solver)
    return germs, voltages


def _sample_responses(system, jobs, job_fn, workers) -> Tuple[np.ndarray, np.ndarray]:
    """Run chunk jobs and merge (germs, responses) in chunk-index order."""
    outcomes = _run_chunk_jobs(jobs, job_fn, workers, system)
    germs = np.concatenate([chunk_germs for chunk_germs, _ in outcomes], axis=0)
    responses = np.concatenate([chunk_values for _, chunk_values in outcomes], axis=0)
    return germs, responses


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------
def _fit_field(basis, germs, flat_responses, fit, fit_options, normalize):
    """Design + single multi-RHS fit; returns (coefficients, diagnostics).

    ``flat_responses`` has shape ``(num_samples, num_rhs)``; the returned
    coefficients have shape ``(basis.size, num_rhs)`` in the basis scale.
    """
    design = build_design_matrix(basis, germs, normalize=normalize)
    if (
        design.num_samples < design.num_terms
        and str(fit).strip().lower() in _DENSE_FITTERS
    ):
        raise RegressionError(
            f"{design.num_samples} samples cannot determine {design.num_terms} "
            f"basis terms with the {fit!r} fitter; increase samples (>= "
            f"{design.num_terms}, ideally {2 * design.num_terms}) or switch to "
            "a sparse fitter (omp, lasso)"
        )
    with current_telemetry().span(
        "regression.fit",
        phase="fit",
        samples=design.num_samples,
        terms=design.num_terms,
    ):
        result = fit_coefficients(design.matrix, flat_responses, method=fit, **fit_options)
    coefficients = design.unscale(result.coefficients)
    diagnostics = {
        "fitter": result.fitter,
        "design": design.diagnostics(),
        "fit": result.diagnostics,
    }
    return coefficients, diagnostics


def run_regression_transient(
    system: StochasticSystem,
    config: RegressionConfig,
    basis: Optional[PolynomialChaosBasis] = None,
) -> StochasticTransientResult:
    """Regression-PCE transient analysis of a stochastic system.

    Draws ``config.samples`` germ vectors (chunked, seed-stable), runs one
    deterministic transient per sample, and fits the chaos coefficients of
    every node at every time point in one multi-RHS solve.  The returned
    result carries a ``regression_info`` attribute with the design/fit
    diagnostics.
    """
    started = time.perf_counter()
    if basis is None:
        basis = PolynomialChaosBasis(
            families=system.variable_families(),
            order=config.order,
            num_vars=system.num_variables,
        )
    samples = config.resolved_samples(basis)
    if samples < 2:
        raise RegressionError("regression PCE needs at least 2 samples")

    # Resolved once here, so the chunk workers and the result agree.
    transient = dataclasses.replace(
        config.transient, solver=resolve_solver(config.transient.solver, galerkin=False)
    )
    sizes = _chunk_layout(samples, config.chunk_size)
    seeds = _chunk_seeds(config.seed, len(sizes))
    jobs = [
        (transient, chunk_seed, chunk_samples)
        for chunk_seed, chunk_samples in zip(seeds, sizes)
    ]
    germs, responses = _sample_responses(
        system, jobs, _transient_sample_job, config.workers
    )

    num_times, num_nodes = responses.shape[1], responses.shape[2]
    coefficients, diagnostics = _fit_field(
        basis,
        germs,
        responses.reshape(samples, num_times * num_nodes),
        config.fit,
        config.fit_options,
        config.normalize,
    )
    coefficients = coefficients.reshape(basis.size, num_times, num_nodes)
    elapsed = time.perf_counter() - started
    result = StochasticTransientResult(
        times=transient.times(),
        basis=basis,
        vdd=system.vdd,
        coefficients=coefficients.transpose(1, 0, 2),
        node_names=system.node_names,
        wall_time=elapsed,
        solver=transient.solver,
    )
    result.regression_info = dict(diagnostics, num_samples=samples)
    return result


def run_regression_dc(
    system: StochasticSystem,
    order: int = 2,
    t: float = 0.0,
    samples: Optional[int] = None,
    seed: int = 0,
    fit: str = "ols",
    fit_options: Optional[Dict[str, Any]] = None,
    solver: Optional[str] = None,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    normalize: bool = True,
    basis: Optional[PolynomialChaosBasis] = None,
) -> StochasticField:
    """Regression-PCE DC analysis (steady-state IR drop under variation)."""
    started = time.perf_counter()
    get_fitter(fit)  # fail fast with the registry's listing
    if basis is None:
        basis = PolynomialChaosBasis(
            families=system.variable_families(),
            order=int(order),
            num_vars=system.num_variables,
        )
    if samples is None:
        samples = max(2 * basis.size, 10)
    samples = int(samples)
    if samples < 2:
        raise RegressionError("regression PCE needs at least 2 samples")
    if workers < 1:
        raise RegressionError(f"workers must be at least 1, got {workers}")

    solver = resolve_solver(solver, galerkin=False)
    sizes = _chunk_layout(samples, chunk_size)
    seeds = _chunk_seeds(seed, len(sizes))
    jobs = [
        (t, chunk_seed, chunk_samples)
        + (solver,)
        for chunk_seed, chunk_samples in zip(seeds, sizes)
    ]
    germs, voltages = _sample_responses(system, jobs, _dc_sample_job, workers)

    coefficients, diagnostics = _fit_field(
        basis, germs, voltages, fit, dict(fit_options or {}), normalize
    )
    field = StochasticField(
        basis, coefficients, vdd=system.vdd, node_names=system.node_names
    )
    field.wall_time = time.perf_counter() - started
    field.solver = solver
    field.regression_info = dict(diagnostics, num_samples=samples)
    return field


# ---------------------------------------------------------------------------
# Engine registration
# ---------------------------------------------------------------------------
class RegressionResultView(StochasticResultView):
    """Chaos results fitted by sampling (the ``pce-regression`` engine)."""

    def to_dict(self) -> Dict[str, Any]:
        summary = super().to_dict()
        info = getattr(self.raw, "regression_info", None) or {}
        if "num_samples" in info:
            summary["num_samples"] = int(info["num_samples"])
        if "fitter" in info:
            summary["fitter"] = info["fitter"]
        design = info.get("design")
        if design:
            summary["design_condition"] = design["condition"]
            summary["oversampling"] = design["oversampling"]
        return summary


@register_engine("pce-regression")
def _run_pce_regression_engine(session, mode: Optional[str] = None, **options):
    """Non-intrusive regression PCE (sampled solves + least-squares fit).

    Options: ``order`` (``degree`` is an alias), ``samples``, ``seed``,
    ``fit`` / ``fit_options``, ``solver`` (per-sample linear backend),
    ``workers`` / ``chunk_size`` and ``normalize``; the transient mode also
    accepts the shared time-axis overrides (``t_stop``, ``dt``, ``scheme``,
    ...), the DC mode accepts ``t``.
    """
    mode = mode or "transient"
    _check_mode("pce-regression", mode, ("transient", "dc"))
    degree = options.pop("degree", None)
    order = options.pop("order", None)
    if order is None:
        order = degree if degree is not None else 2
    order = int(order)
    samples = options.pop("samples", options.pop("num_samples", None))
    if samples is not None:
        samples = int(samples)
    seed = int(options.pop("seed", 0))
    fit = str(options.pop("fit", "ols"))
    fit_options = dict(options.pop("fit_options", None) or {})
    solver = options.pop("solver", None)
    workers = int(options.pop("workers", 1))
    chunk_size = options.pop("chunk_size", None)
    if chunk_size is not None:
        chunk_size = int(chunk_size)
    normalize = bool(options.pop("normalize", True))
    system = session.system
    basis = session.basis(order)

    if mode == "dc":
        t = float(options.pop("t", 0.0))
        _reject_unknown(options, "pce-regression", mode)
        field = run_regression_dc(
            system,
            order=order,
            t=t,
            samples=samples,
            seed=seed,
            fit=fit,
            fit_options=fit_options,
            solver=solver,
            workers=workers,
            chunk_size=chunk_size,
            normalize=normalize,
            basis=basis,
        )
        return RegressionResultView("pce-regression", "dc", field, system.vdd)

    transient = _resolve_transient(session, options)
    if solver is not None and solver != transient.solver:
        transient = dataclasses.replace(transient, solver=solver)
    config = RegressionConfig(
        transient=transient,
        order=order,
        samples=samples,
        seed=seed,
        fit=fit,
        fit_options=fit_options,
        workers=workers,
        chunk_size=chunk_size,
        normalize=normalize,
    )
    _reject_unknown(options, "pce-regression", mode)
    result = run_regression_transient(system, config, basis=basis)
    view = RegressionResultView("pce-regression", "transient", result, system.vdd)
    view.transient = transient
    return view
