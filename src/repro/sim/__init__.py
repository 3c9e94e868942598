"""Deterministic circuit simulation substrate: DC, transient, linear solvers."""

from .dc import dc_operating_point, solve_dc
from .linear import (
    ConjugateGradientSolver,
    DirectSolver,
    LinearSolver,
    make_solver,
    matrix_fingerprint,
    register_solver,
    solver_names,
    unregister_solver,
)
from .mna import MNASystem
from .results import DCResult, TransientResult
from .transient import TransientConfig, run_transient, transient_analysis

__all__ = [
    "dc_operating_point",
    "solve_dc",
    "ConjugateGradientSolver",
    "DirectSolver",
    "LinearSolver",
    "make_solver",
    "matrix_fingerprint",
    "register_solver",
    "solver_names",
    "unregister_solver",
    "MNASystem",
    "DCResult",
    "TransientResult",
    "TransientConfig",
    "run_transient",
    "transient_analysis",
]
