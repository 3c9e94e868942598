"""Model order reduction extension (PRIMA-style block Arnoldi).

:mod:`repro.mor.prima` reduces one linear RC system to a passive
congruence-projected model that matches its first block moments.
"""

from .prima import ReducedModel, prima_reduce

__all__ = [
    "ReducedModel",
    "prima_reduce",
]
