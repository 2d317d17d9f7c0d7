"""Exact 2- and 3-nilpotent obstruction arithmetic for Jacobian points of
the thrice-punctured projective line over Q, Q_p (p odd) and R."""

from .arith import factor, is_fourth_power_mod, legendre, parse_rational, sqrt_mod, valuation
from .k2global import symbol_at_2, tame_symbol_odd
from .localclass import REAL, delta2_local
from .obstruct import (
    delta2_global,
    delta3_at,
    delta3_congruence,
    delta3_global_family,
    delta3_specific_lift_family,
    report,
)

__all__ = [
    "REAL",
    "delta2_global",
    "delta2_local",
    "delta3_at",
    "delta3_congruence",
    "delta3_global_family",
    "delta3_specific_lift_family",
    "factor",
    "is_fourth_power_mod",
    "legendre",
    "parse_rational",
    "report",
    "sqrt_mod",
    "symbol_at_2",
    "tame_symbol_odd",
    "valuation",
]
