"""Tests for repro.obs.trace: spans, nesting, export, thread safety."""

import json
import threading

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _clean_tracer():
    obs.get_tracer().reset()
    yield
    obs.get_tracer().reset()


def test_span_records_wall_time_and_attrs():
    with obs.span("work", explainer="unit", n_features=3) as s:
        s.set_attr("extra", 1)
    spans = obs.get_tracer().spans()
    assert len(spans) == 1
    (recorded,) = spans
    assert recorded.name == "work"
    assert recorded.wall_ms is not None and recorded.wall_ms >= 0.0
    assert recorded.attrs["explainer"] == "unit"
    assert recorded.attrs["n_features"] == 3
    assert recorded.attrs["extra"] == 1
    assert recorded.status == "ok"


def test_nesting_links_parent_and_rolls_up_counters():
    with obs.span("parent") as parent:
        with obs.span("child") as child:
            child.add_model_evals(2, 200)
        with obs.span("child"):
            obs.record_model_eval(rows=50)  # via the ambient span
    spans = {s.span_id: s for s in obs.get_tracer().spans()}
    recorded_parent = next(s for s in spans.values() if s.name == "parent")
    children = [s for s in spans.values() if s.name == "child"]
    assert recorded_parent.span_id == parent.span_id
    assert all(c.parent_id == parent.span_id for c in children)
    # Child counters roll up into the parent on close.
    assert recorded_parent.model_evals == 3
    assert recorded_parent.rows_evaluated == 250


def test_exception_marks_status_and_still_records():
    with pytest.raises(ValueError):
        with obs.span("boom"):
            raise ValueError("nope")
    (recorded,) = obs.get_tracer().spans()
    assert recorded.status == "error:ValueError"
    assert recorded.wall_ms is not None


def test_disabled_records_nothing():
    obs.set_enabled(False)
    try:
        with obs.span("invisible") as s:
            s.add_model_evals(1, 1)  # must be a harmless no-op
        assert obs.get_tracer().spans() == []
        assert obs.current_span() is None
    finally:
        obs.set_enabled(True)


def test_mark_and_spans_since():
    with obs.span("before"):
        pass
    mark = obs.get_tracer().mark()
    with obs.span("after"):
        pass
    since = obs.get_tracer().spans_since(mark)
    assert [s.name for s in since] == ["after"]


def test_tracer_is_a_ring_with_monotonic_marks():
    """The newest ``max_spans`` stay; marks keep counting once it is
    full, and every eviction is counted."""
    tracer = obs.Tracer(max_spans=4)
    dropped = obs.counter("obs.spans.dropped")
    before = dropped.value
    spans = [obs.Span(f"s{i}", {}, None) for i in range(10)]
    for s in spans[:8]:
        tracer.record(s)
    mark = tracer.mark()
    for s in spans[8:]:
        tracer.record(s)
    assert tracer.spans() == spans[-4:]
    assert tracer.spans_since(mark) == spans[-2:]
    assert tracer.mark() == 10
    assert dropped.value - before == 6 == tracer.dropped


def test_jsonl_export_streams_valid_records(tmp_path):
    out = tmp_path / "trace.jsonl"
    tracer = obs.get_tracer()
    tracer.start_export(str(out))
    try:
        with obs.span("exported", explainer="kernel_shap"):
            obs.record_model_eval(rows=10)
    finally:
        tracer.stop_export()
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["name"] == "exported"
    assert record["attrs"]["explainer"] == "kernel_shap"
    assert record["model_evals"] == 1
    assert record["rows_evaluated"] == 10
    assert record["wall_ms"] >= 0.0


def test_export_dump_after_the_fact(tmp_path):
    with obs.span("a"):
        pass
    with obs.span("b"):
        pass
    out = tmp_path / "dump.jsonl"
    n = obs.get_tracer().export(str(out))
    assert n == 2
    names = [json.loads(line)["name"]
             for line in out.read_text().strip().splitlines()]
    assert names == ["a", "b"]


def test_threads_do_not_share_span_context():
    seen = {}

    def worker(tag):
        # A fresh thread starts with no ambient span, even though the
        # main thread holds one open.
        seen[tag] = obs.current_span()
        with obs.span(f"thread-{tag}"):
            pass

    with obs.span("main-open"):
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert all(v is None for v in seen.values())
    names = sorted(s.name for s in obs.get_tracer().spans())
    assert names == ["main-open"] + sorted(f"thread-{i}" for i in range(4))
    # Thread spans must not have been adopted by the main thread's span.
    for s in obs.get_tracer().spans():
        if s.name.startswith("thread-"):
            assert s.parent_id is None
