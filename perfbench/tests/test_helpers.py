"""Tests for the benchmark's own helpers (stdlib only, no program run).

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import config  # noqa: E402
from spans import (END, PARENT, START, SpanLog, covered, graft,  # noqa: E402
                   layer_table, self_times, subset)
from stats import (Outcomes, beyond, end_to_end,  # noqa: E402
                   latency_summary, nearest_rank, percentile,
                   tail_percentile, valid_metric_name)

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- tail percentile choice ---------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (20, 50), (39, 50), (40, 75), (54, 75), (99, 75), (100, 90),
    (999, 90), (1000, 99), (9999, 99), (10_000, 99.9), (99_999, 99.9),
    (100_000, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    q = tail_percentile(n)
    assert q == expected
    assert beyond(q, n) >= 10


def test_tail_percentile_needs_ten_beyond_the_median():
    with pytest.raises(ValueError):
        tail_percentile(19)


@pytest.mark.parametrize("workload, seconds, expected", [
    ("batch_gbm", 20, 75), ("datavalue_tmc", 20, 90),
    ("serve_zipf", 20, 99.9), ("serve_zipf", 1, 90),
    ("lineage_mixed", 20, 99), ("lineage_mixed", 1, 99),
    ("batch_gbm", 1, 50),
])
def test_workload_tail_is_capped_and_keeps_ten_beyond(workload, seconds,
                                                      expected):
    n = config.n_ops(workload, seconds)
    q = config.tail_q(workload, n)
    assert q == expected
    assert beyond(q, n) >= 10


def test_nearest_rank_is_exact_where_floats_round_up():
    # 0.9 * 100 == 90.00000000000001 in floats; the rank must stay 90.
    assert nearest_rank(90, 100) == 90
    assert nearest_rank(99.9, 1000) == 999
    assert percentile(list(range(1, 101)), 90) == 90


# -- self time from nested and sibling spans ----------------------------------


def _span(name, layer, start, end, parent, op=0):
    return [name, layer, start, end, parent, op, None]


def test_covered_merges_overlapping_children_and_clips():
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0
    assert covered((0.0, 10.0), []) == 0.0


def test_self_time_of_nested_and_sibling_spans():
    spans = [
        _span("op", "op", 0.0, 10.0, -1),
        _span("a", "core", 1.0, 7.0, 0),       # child of the root
        _span("b", "models", 2.0, 4.0, 1),     # two siblings under a
        _span("c", "models", 4.5, 6.0, 1),
        _span("d", "games", 8.0, 9.0, 0),      # sibling of a
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 2.0, 1.5, 1.0])
    table = layer_table(spans, ("models", "core", "games"))
    assert table["models"]["self_s"] == pytest.approx(3.5)
    assert table["core"]["self_s"] == pytest.approx(2.5)
    assert table["unattributed"]["self_s"] == pytest.approx(3.0)
    total = sum(v["self_s"] for k, v in table.items() if k != "op_wall_s")
    assert total == pytest.approx(table["op_wall_s"]) == pytest.approx(10.0)
    shares = sum(v["share"] for k, v in table.items() if k != "op_wall_s")
    assert shares == pytest.approx(1.0)


def test_subset_and_graft_rebuild_parent_links():
    local = [_span("op", "op", 0.0, 10.0, -1, op=7),
             _span("op", "op", 20.0, 30.0, -1, op=-1)]   # a warm-up op
    foreign = [_span("h", "serve", 1.0, 9.0, -1, op=7),
               _span("m", "models", 2.0, 3.0, 0, op=7)]
    spans = graft(subset(local, [7]), subset(foreign, [7]))
    assert [s[PARENT] for s in spans] == [-1, 0, 1]
    table = layer_table(spans, ("serve", "models"))
    assert table["op_wall_s"] == pytest.approx(10.0)
    assert table["serve"]["self_s"] == pytest.approx(7.0)
    assert table["unattributed"]["self_s"] == pytest.approx(2.0)


def test_span_log_wraps_and_restores_and_tracks_threads():
    class Model:
        def predict_proba(self, X):
            return X

    original = Model.predict_proba
    log = SpanLog()
    log.patch(Model, "predict_proba", "models.predict", "models",
              rows_of=lambda args, kwargs: len(args[1]))
    log.active = True

    def caller(op):
        with log.op(op):
            Model().predict_proba([1, 2, 3])

    threads = [threading.Thread(target=caller, args=(op,)) for op in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    log.active = False
    log.unpatch()
    assert Model.predict_proba is original
    by_op = {}
    for i, s in enumerate(log.spans):
        by_op.setdefault(s[5], []).append((i, s))
    for op, recs in by_op.items():
        (root_i, root), (_, child) = recs
        assert child[PARENT] == root_i and child[6] == 3
        assert root[START] <= child[START] <= child[END] <= root[END]


# -- metric names -------------------------------------------------------------


@pytest.mark.parametrize("name, ok", [
    ("throughput_per_s", True), ("models.predict.us_per_row", True),
    ("layer.db.share", True), ("9lives", True), ("a-b", True),
    ("", False), (".hidden", False), ("_x", False), ("has space", False),
    ("slash/name", False), ("x" * 64, True), ("x" * 65, False),
])
def test_metric_name_grammar(name, ok):
    assert valid_metric_name(name) is ok


def test_benchmark_json_names_follow_the_grammar():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for sec in ("end_to_end", "per_layer")
             for m in spec[sec]] + [w["name"] for w in spec["workloads"]]
    assert all(valid_metric_name(n) for n in names)
    assert len(names) == len(set(names))


# -- success accounting -------------------------------------------------------


def test_refused_and_failed_ops_count_as_attempted_not_succeeded():
    outcomes = Outcomes()
    outcomes.record(True)
    outcomes.record(False, "status 429")      # refused
    outcomes.record(False, "ValueError: x")   # raised
    outcomes.record(True)
    assert outcomes.attempted == 4
    assert outcomes.failed == 2
    assert outcomes.success_rate == 0.5
    assert outcomes.reasons == ["status 429", "ValueError: x"]


def test_success_rate_needs_an_attempt():
    with pytest.raises(ValueError):
        Outcomes().success_rate


def test_failed_ops_miss_every_latency_limit():
    latencies = [0.001] * 30
    ok = [True] * 30
    ok[0] = False
    summary = latency_summary(latencies, ok, 90)
    assert summary["latency_p50_ms"] == pytest.approx(1.0)
    assert summary["latency_tail_ms"] == pytest.approx(1.0)
    ok[:16] = [False] * 16
    assert math.isinf(latency_summary(latencies, ok, 90)["latency_p50_ms"])


def _replica(latencies, ok, setup_s, rss_mb):
    return {"latencies_s": latencies, "ok": ok, "unit_per_op": 8,
            "setup_s": setup_s, "peak_rss_mb": rss_mb}


def test_replicas_take_each_ops_fastest_copy_and_fail_together():
    a = _replica([0.010, 0.030, 0.020, 0.040], [True] * 4, 0.5, 100.0)
    b = _replica([0.020, 0.010, 0.020, 0.010], [True, True, False, True],
                 0.4, 120.0)
    metrics, outcomes = end_to_end([a, b], 50)
    assert outcomes.attempted == 4 and outcomes.failed == 1
    assert metrics["success_rate"] == 0.75
    # 3 ops passed in both copies, 8 units each, over 10+10+20+10 ms.
    assert metrics["throughput_per_s"] == pytest.approx(24 / 0.050)
    assert metrics["latency_p50_ms"] == pytest.approx(10.0)
    assert metrics["setup_s"] == 0.4
    assert metrics["peak_rss_mb"] == 120.0
    alone, __ = end_to_end([a], 50)
    assert alone["throughput_per_s"] == pytest.approx(32 / 0.100)
