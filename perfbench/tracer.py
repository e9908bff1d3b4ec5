"""Outside-in tracing of one `betticount` command.

Run as

    python3 perfbench/tracer.py OUT.json OP_ID -- <betticount argv>

with `src` on PYTHONPATH.  Before `cli.main` runs, every layer function in
TARGETS is wrapped at each place it is looked up: every binding of the same
object in a betticount module (`cli` binds its own `parse_rep`, `conf_betti`
its own `partition_weighted_count`), or on its class for methods.  Each call
appends a span (name, start_ns, end_ns, parent index) to an in-memory list;
the spans, the per-target extras and the lru_cache statistics are written to
OUT.json when the command ends.  A target that no longer exists is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from collections import defaultdict

# (metric name, module, attribute path, extra statistics beyond calls/self/total)
TARGETS = [
    ("cli.render", "betticount.cli", "render", ("out_bytes",)),
    ("chars.parse_rep", "betticount.chars", "parse_rep", ()),
    ("chars.CharPoly.evaluate", "betticount.chars", "CharPoly.evaluate", ()),
    ("series.BiSeries.mul", "betticount.series", "BiSeries.__mul__", ()),
    ("series.BiSeries.inverse", "betticount.series", "BiSeries.inverse", ()),
    ("series.truncated_mul", "betticount.series", "truncated_mul", ()),
    ("series.taylor_coeffs", "betticount.series", "taylor_coeffs", ()),
    ("series.recurrence_from_ratfun", "betticount.series", "recurrence_from_ratfun", ()),
    *(
        (f"{side}.{fn}", f"betticount.{side}", fn,
         ("hit_ratio",) if fn in ("generating_series", "betti_table") else ())
        for side in ("tori", "conf_betti")
        for fn in ("generating_series", "betti_table", "stable_betti_numbers",
                   "recurrence", "gl_crosscheck")
    ),
    ("tori.partition_weighted_count", "betticount.tori", "partition_weighted_count", ()),
    ("conf_counts.partition_weighted_count", "betticount.conf_counts",
     "partition_weighted_count", ()),
    ("conf_counts.weighted_count_series", "betticount.conf_counts",
     "weighted_count_series", ()),
    ("conf_counts.bruteforce_census", "betticount.conf_counts", "bruteforce_census",
     ("rss_growth_mb",)),
    ("conf_counts.limit_normalized", "betticount.conf_counts", "limit_normalized", ()),
    ("zeta.closed_point_counts", "betticount.zeta", "closed_point_counts", ()),
]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Span recorder for one op; install() patches, uninstall() restores."""

    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.spans: list = []
        self.stack: list[int] = []
        self.extra: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.caches: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, extras):
        spans, stack, extra = self.spans, self.stack, self.extra
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            rss0 = _maxrss_mb() if "rss_growth_mb" in extras else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if "rss_growth_mb" in extras:
                extra[f"{name}.rss_growth_mb"] += _maxrss_mb() - rss0
            if "out_bytes" in extras:
                extra[f"{name}.out_bytes"] += len(result.encode())
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; return the names of absent ones."""
        importlib.import_module("betticount.cli")
        modules = [m for key, m in sys.modules.items()
                   if key == "betticount" or key.startswith("betticount.")]
        for name, modname, path, extras in TARGETS:
            owner = sys.modules.get(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            if "hit_ratio" in extras:
                if hasattr(fn, "cache_info"):
                    self.caches[name] = fn
                else:
                    self.absent.append(f"{name}.hit_ratio")
            traced = self._wrap(name, fn, extras)
            holders = [owner] if outer else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, key, fn))
                        setattr(holder, key, traced)
        return self.absent

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    def dump(self) -> dict:
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses]
        return {
            "op": self.op_id,
            "spans": [s for s in self.spans if s is not None],
            "extra": dict(self.extra),
            "caches": caches,
            "absent": self.absent,
        }


def summarize(dump: dict) -> dict[str, float]:
    """Per-op metrics from a dump: calls, self_s (duration minus the time
    child spans cover) and total_s (outermost calls of a name only), plus
    the extras and cache statistics."""
    spans = dump["spans"]
    child_ns = [0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    out: dict[str, float] = defaultdict(float)
    for i, (name, t0, t1, parent) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (t1 - t0 - child_ns[i]) / 1e9
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out[f"{name}.total_s"] += (t1 - t0) / 1e9
    out.update(dump["extra"])
    for name, (hits, misses) in dump["caches"].items():
        out[f"{name}.hits"] = hits
        out[f"{name}.lookups"] = hits + misses
    return dict(out)


def main(argv: list[str]) -> int:
    out_path, op_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json OP_ID -- <betticount argv>")
    tracer = Tracer(int(op_id))
    tracer.install()
    from betticount import cli

    try:
        return cli.main(cli_argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
