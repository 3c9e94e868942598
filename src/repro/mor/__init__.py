"""Model order reduction extension (PRIMA-style block Arnoldi).

:mod:`repro.mor.prima` provides the core reduction; the remaining modules
compose it with the partitioner and the stepping loop into the ``mor`` analysis
engine: per-atom passive macromodels (:mod:`repro.mor.macromodel`), the
reduced block system and its dense solver (:mod:`repro.mor.reduced`), the
stepping adapter (:mod:`repro.mor.adapter`) and the engine itself
(:mod:`repro.mor.engine`).
"""

from .adapter import MorSystemAdapter
from .engine import mor_atom_count, run_mor_transient
from .macromodel import (
    BlockMacromodel,
    block_coupling,
    build_block_macromodel,
    excitation_directions,
    macromodel_key,
)
from .prima import ReducedModel, prima_reduce
from .reduced import (
    ReducedBlockOperator,
    ReducedBlockSolver,
    ReducedRhsSeries,
    build_reduced_operators,
    reduce_rhs_series,
)

__all__ = [
    "ReducedModel",
    "prima_reduce",
    "BlockMacromodel",
    "block_coupling",
    "build_block_macromodel",
    "excitation_directions",
    "macromodel_key",
    "ReducedBlockOperator",
    "ReducedBlockSolver",
    "ReducedRhsSeries",
    "build_reduced_operators",
    "reduce_rhs_series",
    "MorSystemAdapter",
    "mor_atom_count",
    "run_mor_transient",
]
