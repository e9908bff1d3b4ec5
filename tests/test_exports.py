"""Every name that a betticount module lists in __all__ resolves, and so do
the layer functions that the per-layer benchmark still traces; the library
functions that take a size or an index refuse one out of range."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import betticount
from betticount import chars, conf_counts, tori, zeta

MODULES = ["betticount", *(f"betticount.{m.name}" for m in pkgutil.iter_modules(betticount.__path__))]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("module", EXPORTING)
def test_star_import_resolves(module):
    exec(f"from {module} import *", {})


def test_the_per_layer_benchmark_traces_exactly_these_live_targets():
    # perfbench/tracer.py is read, not imported, so nothing is written under
    # perfbench/; a target resolves as Tracer.install resolves it, once its
    # module is imported.  The other
    # 19 name code that is gone, and they read 0 in every traced run.  This
    # set changes when the benchmark is retargeted, and until then nothing
    # may delete or rename these five.
    ns = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), ns)
    live = set()
    for name, module, path, _ in ns["TARGETS"]:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is not None and vars(owner).get(attr) is not None:
            live.add(name)
    assert len(ns["TARGETS"]) == 24
    assert live == {"cli.render", "chars.parse_rep", "series.taylor_coeffs",
                    "conf_counts.bruteforce_census", "zeta.closed_point_counts"}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: chars.partitions(-1), "n must be nonnegative"),
        (lambda: tori.gl_order(-1, 3), "n must be nonnegative"),
        (lambda: tori.count_oracle(3, -1), "n must be nonnegative"),
        (lambda: conf_counts.count_oracle(zeta.builtin_variety("affine", 1, 3), -1),
         "n must be nonnegative"),
        (lambda: zeta.necklace_numerator(0), "indexed by k >= 1"),
    ],
    ids=["partitions", "gl_order", "tori.count_oracle", "conf_counts.count_oracle", "necklace_numerator"],
)
def test_library_guards_refuse_an_index_out_of_range(call, message):
    with pytest.raises(ValueError, match=message):
        call()
