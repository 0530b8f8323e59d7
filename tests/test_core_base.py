"""Tests for repro.core.base model normalization."""

import numpy as np
import pytest

from repro.core import as_predict_fn
from repro.models import LogisticRegression


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    X = rng.normal(0, 1, (100, 3))
    y = (X[:, 0] > 0).astype(int)
    return LogisticRegression(alpha=0.5).fit(X, y), X


def test_plain_callable_passthrough():
    fn = as_predict_fn(lambda X: X[:, 0] * 2)
    out = fn(np.array([[3.0, 1.0]]))
    assert out.tolist() == [6.0]


def test_auto_prefers_predict_proba(fitted):
    model, X = fitted
    fn = as_predict_fn(model)
    out = fn(X[:5])
    assert np.all((out >= 0) & (out <= 1))
    assert np.allclose(out, model.predict_proba(X[:5])[:, 1])


def test_label_output(fitted):
    model, X = fitted
    fn = as_predict_fn(model, output="label")
    assert set(np.unique(fn(X))) <= {0.0, 1.0}


def test_raw_output_uses_decision_function(fitted):
    model, X = fitted
    fn = as_predict_fn(model, output="raw")
    assert np.allclose(fn(X[:5]), model.decision_function(X[:5]))


def test_proba_requires_predict_proba():
    class OnlyPredict:
        def predict(self, X):
            return np.zeros(len(X))

    with pytest.raises(TypeError):
        as_predict_fn(OnlyPredict(), output="proba")


def test_single_row_input_accepted(fitted):
    model, X = fitted
    fn = as_predict_fn(model)
    assert fn(X[0]).shape == (1,)


def test_raw_requires_decision_function():
    class OnlyPredict:
        def predict(self, X):
            return np.zeros(len(X))

    # Regression: this used to silently degrade to predict().
    with pytest.raises(TypeError, match="decision_function"):
        as_predict_fn(OnlyPredict(), output="raw")


def test_explain_batch_matches_rowwise_explain(loan_gbm, loan_data):
    from repro import obs
    from repro.robust import GuardConfig
    from repro.shapley import KernelShapExplainer

    explainer = KernelShapExplainer(loan_gbm, loan_data.X[:20],
                                    n_samples=32, seed=0)
    X = loan_data.X[:3]
    obs.get_tracer().reset()
    try:
        batch = explainer.explain_batch(X)
        assert len(batch) == 3
        for row, attribution in zip(X, batch):
            single = explainer.explain(row)
            assert np.allclose(attribution.values, single.values)
            assert attribution.base_value == single.base_value

        spans = obs.get_tracer().spans()
        parents = [s for s in spans if s.name == "explain_batch"]
        assert len(parents) == 1
        (parent,) = parents
        assert parent.attrs["n_rows"] == 3
        # The amortized path evaluates rows against one shared plan, so
        # there are no per-row child explain spans — the batch span
        # carries the eval counters itself.
        assert parent.attrs["amortized"] is True
        assert parent.model_evals > 0
        assert parent.rows_evaluated > 0

        # A query budget no row reaches keeps the per-row loop: child
        # spans reappear and their counters roll up.
        explainer = KernelShapExplainer(
            loan_gbm, loan_data.X[:20], n_samples=32, seed=0,
            guard=GuardConfig(query_budget=10**9),
        )
        obs.get_tracer().reset()
        looped = explainer.explain_batch(X)
        for amortized_att, looped_att in zip(batch, looped):
            assert np.array_equal(amortized_att.values, looped_att.values)
        spans = obs.get_tracer().spans()
        (parent,) = [s for s in spans if s.name == "explain_batch"]
        assert parent.attrs["amortized"] is False
        children = [s for s in spans
                    if s.name == "explain" and s.parent_id == parent.span_id]
        assert len(children) == 3
        assert all(c.model_evals > 0 for c in children)
        # Child eval counters roll up into the batch span.
        assert parent.model_evals == sum(c.model_evals for c in children)
        assert parent.rows_evaluated == sum(c.rows_evaluated for c in children)
    finally:
        obs.get_tracer().reset()
