"""Tests for repro.obs.metrics: counters, histograms, the eval meter."""

import numpy as np
import pytest

from repro import obs
from repro.core.base import as_predict_fn


@pytest.fixture(autouse=True)
def _clean():
    obs.get_tracer().reset()
    yield
    obs.get_tracer().reset()


def test_counter_is_monotone_and_registered():
    c = obs.counter("test.counter")
    start = c.value
    c.inc()
    c.inc(5)
    assert c.value == start + 6
    assert obs.counter("test.counter") is c  # get-or-create semantics


def test_histogram_summary_stats():
    h = obs.histogram("test.hist")
    for v in (1.0, 2.0, 3.0):
        h.observe(v)
    assert h.count >= 3
    assert h.max >= 3.0
    assert h.min <= 1.0
    assert h.mean > 0
    snap = obs.snapshot()["test.hist"]
    assert snap["type"] == "histogram"
    assert snap["count"] == h.count


def test_histogram_observe_many_equals_one_at_a_time():
    from repro.obs.metrics import Histogram

    values = np.random.default_rng(2).lognormal(0.0, 3.0, 200).tolist()
    one, many = Histogram("a"), Histogram("b")
    for v in values[:3]:
        many.observe(v)
    for v in values:
        one.observe(v)
    many.observe_many(values[3:])
    many.observe_many([])
    assert (one.count, one.sum, one.min, one.max, one.buckets) == \
        (many.count, many.sum, many.min, many.max, many.buckets)


def test_metric_name_type_conflict_raises():
    obs.counter("test.conflict")
    with pytest.raises(TypeError):
        obs.histogram("test.conflict")


def test_record_model_eval_hits_globals_and_active_span():
    calls_before = obs.counter("model.calls").value
    rows_before = obs.counter("model.rows").value
    with obs.span("metered") as s:
        obs.record_model_eval(rows=7)
        obs.record_model_eval(rows=3)
    assert obs.counter("model.calls").value == calls_before + 2
    assert obs.counter("model.rows").value == rows_before + 10
    assert s.model_evals == 2
    assert s.rows_evaluated == 10


def test_as_predict_fn_installs_the_meter(loan_logistic, loan_data):
    fn = as_predict_fn(loan_logistic)
    assert getattr(fn, "__repro_metered__", False)
    with obs.span("probe") as s:
        fn(loan_data.X[:25])
        fn(loan_data.X[0])
    assert s.model_evals == 2
    assert s.rows_evaluated == 26


def test_as_predict_fn_does_not_double_meter(loan_logistic, loan_data):
    fn = as_predict_fn(loan_logistic)
    fn2 = as_predict_fn(fn)  # re-normalizing a metered fn is the identity
    assert fn2 is fn
    with obs.span("probe") as s:
        fn2(loan_data.X[:4])
    assert s.model_evals == 1
    assert s.rows_evaluated == 4


def test_meter_disabled_is_silent(loan_logistic, loan_data):
    fn = as_predict_fn(loan_logistic)
    calls_before = obs.counter("model.calls").value
    obs.set_enabled(False)
    try:
        out = fn(loan_data.X[:10])
    finally:
        obs.set_enabled(True)
    assert out.shape == (10,)
    assert obs.counter("model.calls").value == calls_before


def test_meter_plain_callable():
    fn = as_predict_fn(lambda X: np.asarray(X)[:, 0] * 2)
    with obs.span("probe") as s:
        fn(np.ones((5, 3)))
    assert s.model_evals == 1
    assert s.rows_evaluated == 5
