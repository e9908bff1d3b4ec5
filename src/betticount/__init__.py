"""Exact computation of twisted Betti numbers of configuration spaces of the
complex line and of spaces of maximal tori, cross-validated by weighted point
counts over finite fields.  All arithmetic is exact: integers over one denominator."""

from . import chars, conf_betti, conf_counts, series, tori, zeta
from .chars import CharPoly, cycle_type, parse_rep
from .zeta import PointCountData, builtin_variety

__all__ = [
    "chars",
    "conf_betti",
    "conf_counts",
    "series",
    "tori",
    "zeta",
    "CharPoly",
    "cycle_type",
    "parse_rep",
    "PointCountData",
    "builtin_variety",
]
