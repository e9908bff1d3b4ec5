"""Every name that a betticount module lists in __all__ resolves, and so do
the layer functions that the per-layer benchmark still traces."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import betticount

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
