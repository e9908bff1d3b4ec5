"""Exact computation of twisted Betti numbers of configuration spaces of the
complex line and of spaces of maximal tori, cross-validated by weighted point
counts over finite fields.  All arithmetic is exact rational."""

from . import chars, conf_betti, conf_counts, series, tori, zeta
from .chars import CharPoly, CycleType, builtin_rep, parse_rep
from .series import Rational, RecurrenceSpec
from .zeta import PointCountData, builtin_variety

__all__ = [
    "chars",
    "conf_betti",
    "conf_counts",
    "series",
    "tori",
    "zeta",
    "CharPoly",
    "CycleType",
    "builtin_rep",
    "parse_rep",
    "Rational",
    "RecurrenceSpec",
    "PointCountData",
    "builtin_variety",
]
