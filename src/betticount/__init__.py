"""Exact computation of twisted Betti numbers of configuration spaces of the
complex line and of spaces of maximal tori, cross-validated by weighted point
counts over finite fields.  All arithmetic is exact: integers over one denominator.

The package imports no submodule itself, so that a command loads only the
modules it runs; each name below comes from its module on first use."""

_OWNERS = {"CharPoly": "chars", "cycle_type": "chars", "parse_rep": "chars",
           "PointCountData": "zeta", "builtin_variety": "zeta"}

__all__ = ["chars", "conf_betti", "conf_counts", "series", "tori", "zeta", *_OWNERS]


def __getattr__(name: str):
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_OWNERS[name]}"), name)
