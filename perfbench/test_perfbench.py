"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import itertools
import json
import sys

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

from betticount import cli, conf_betti, series  # noqa: E402

CHEAP_OP = ["count", "--variety", "affine:1", "--q", "5", "--rep", "V11", "--limits"]


def test_schedule_is_seeded_rounds_of_the_whole_pool():
    size = len(workloads.pool("verify"))
    first = list(itertools.islice(workloads.schedule("verify", 1), 3 * size))
    again = list(itertools.islice(workloads.schedule("verify", 1), 3 * size))
    other = list(itertools.islice(workloads.schedule("verify", 2), 3 * size))
    assert first == again
    assert other != first
    for k in range(3):
        assert sorted(first[k * size:(k + 1) * size]) == list(range(size))
        assert sorted(other[k * size:(k + 1) * size]) == list(range(size))


def test_pools_are_fixed_and_every_op_has_a_recorded_digest():
    expected = json.loads((run.HERE / "expected.json").read_text())
    for name in workloads.POOLS:
        ops = workloads.pool(name)
        assert ops == workloads.pool(name)
        assert sorted(expected[name]) == sorted(workloads.op_key(op) for op in ops)
    assert CHEAP_OP in workloads.pool("conf-tables")


def test_a_wrong_digest_or_exit_code_fails_the_op(tmp_path):
    want = json.loads((run.HERE / "expected.json").read_text())["conf-tables"][
        workloads.op_key(CHEAP_OP)]
    assert run.run_op(CHEAP_OP, want, tmp_path)["error"] == ""
    corrupted = dict(want, sha256="0" * 64)
    assert "sha256" in run.run_op(CHEAP_OP, corrupted, tmp_path)["error"]
    assert "exit" in run.run_op(CHEAP_OP, dict(want, exit=1), tmp_path)["error"]
    assert run.run_op(CHEAP_OP, None, tmp_path)["error"] == "no recorded digest"


def test_a_run_that_attempts_no_op_fails_without_a_result(capsys):
    code = run.main(["--workload", "conf-tables", "--seed", "1", "--seconds", "0"])
    out = capsys.readouterr().out
    assert code == 2
    assert '"correct"' not in out


def test_traced_run_reports_a_stubbed_out_layer_as_absent(monkeypatch, capsys):
    monkeypatch.delattr(series, "BiSeries")
    monkeypatch.setattr(conf_betti, "betti_table", conf_betti.betti_table.__wrapped__)
    original = cli.render
    t = tracer.Tracer(op_id=7)
    try:
        absent = t.install()
        assert cli.render is not original
        assert cli.main(["count", "--variety", "affine:1", "--q", "3", "--rep", "V1",
                         "--max-n", "5", "--format", "json"]) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    assert cli.render is original
    assert {"series.BiSeries.mul", "series.BiSeries.inverse",
            "conf_betti.betti_table.hit_ratio"} <= set(absent)
    dump = t.dump()
    assert dump["op"] == 7 and dump["absent"] == absent
    layers = tracer.summarize(dump)
    assert layers["conf_counts.weighted_count_series.calls"] == 2
    assert layers["cli.render.out_bytes"] > 0
    assert "series.BiSeries.mul.calls" not in layers

    plain = {"wall_s": 1.0}
    traced = {"wall_s": 1.5, "layers": layers, "absent": dump["absent"]}
    metrics, notes = run.per_layer([(0, plain, traced)], pool_size=1)
    assert metrics["series.BiSeries.mul.calls"] == (0.0, "count")
    assert metrics["conf_counts.weighted_count_series.calls"] == (2.0, "count")
    assert metrics["trace.overhead_ratio"] == (0.5, "ratio")
    assert any("series.BiSeries.mul" in note for note in notes)


def test_self_time_excludes_children_and_total_counts_outermost_calls():
    spans = [("a", 0, 100, -1), ("b", 10, 40, 0), ("a", 50, 70, 0), ("b", 55, 60, 2)]
    layers = tracer.summarize({"spans": spans, "extra": {}, "caches": {}})
    assert layers["a.calls"] == 2
    assert layers["a.self_s"] == pytest.approx((100 - 30 - 20 + 20 - 5) / 1e9)
    assert layers["a.total_s"] == pytest.approx(100 / 1e9)
    assert layers["b.total_s"] == pytest.approx(35 / 1e9)


def test_benchmark_json_lists_the_metrics_the_runs_report():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == run.per_layer_names()
    nominal = run.REF_NOMINAL_S
    # the machine runs at half the reference speed: every time reads halved
    slow = {"ref_wall_s": 2 * nominal, "ref_cpu_s": 2 * nominal}
    ops = [dict(slow, wall_s=w, cpu_s=w, rss_mb=20.0) for w in [1.0, 1.4, 1.2, 1.8, 4.0]]
    setup = [dict(slow, wall_s=w) for w in [0.2, 0.4, 0.6]]
    metrics, _ = run.end_to_end([(i % 2, r, None) for i, r in enumerate(ops)], 2, setup)
    assert [m["name"] for m in bench["end_to_end"]] == list(metrics)
    for m in bench["end_to_end"]:
        assert metrics[m["name"]][1] == m["unit"]
    assert metrics["setup_s"][0] == pytest.approx(0.2)
    assert metrics["wall_s_p50"][0] == pytest.approx(0.7)
    assert metrics["cpu_s_p50"][0] == pytest.approx(0.7)
    assert metrics["ops_per_s"][0] == pytest.approx(2 / (0.6 + 0.8))
    assert metrics["peak_rss_mb"][0] == 20.0


def test_each_timed_child_is_normalized_by_the_references_beside_it(tmp_path, monkeypatch):
    walls = iter([0.1, 0.3, 0.5])
    monkeypatch.setattr(run, "reference", lambda tmp: {"wall_s": next(walls), "cpu_s": 0.2})
    paced = run.Paced(tmp_path)
    first = paced(lambda: {"wall_s": 0.4, "cpu_s": 0.4})
    second = paced(lambda: {"wall_s": 0.4, "cpu_s": 0.4})
    assert first["ref_wall_s"] == pytest.approx(0.2)
    assert second["ref_wall_s"] == pytest.approx(0.4)
    assert run.normalized(first, "wall_s") == pytest.approx(2 * run.REF_NOMINAL_S)
    assert run.normalized(second, "wall_s") == pytest.approx(run.REF_NOMINAL_S)
    assert run.normalized(second, "cpu_s") == pytest.approx(2 * run.REF_NOMINAL_S)
