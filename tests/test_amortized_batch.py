"""Amortized batch explanation (PR 7): parity, telemetry, fallbacks.

The contract under test: ``explain_batch`` drawing one shared
:class:`~repro.games.plan.CoalitionPlan` per batch (and, for TreeSHAP,
one cached :class:`~repro.shapley.tree.TreePrecompute` per model) is a
pure performance change —

* sampling / kernel / QII / conditional SHAP batch attributions are
  **bitwise identical** to the serial per-row ``explain`` loop at equal
  seeds, on every execution backend;
* the fused TreeSHAP kernel is bitwise stable across backends and batch
  splits, and agrees with the scalar recursion to float accumulation
  order;
* ``REPRO_BATCH_PLAN=0`` / ``REPRO_PRECOMPUTE=0`` restore the per-row
  loop end to end, guard budgets keep their per-row semantics by
  skipping the fused path, and a mid-fuse failure degrades to the loop
  while counting ``coalition.plan.fallbacks``;
* plan reuse is observable: ``coalition.plan.built`` / ``.reused``
  counters and the batch span's ``amortized`` attribute.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.coalition_engine import CoalitionEngine
from repro.robust import GuardConfig, InputValidationError, PartialBatchError
from repro.shapley import (
    ConditionalShapExplainer,
    KernelShapExplainer,
    QIIExplainer,
    SamplingShapleyExplainer,
    TreeShapExplainer,
)

BACKENDS = ("serial", "thread", "process")
FAMILIES = ("sampling", "kernel", "qii", "conditional")
N_ROWS = 5


@pytest.fixture(autouse=True)
def _clean_tracer():
    obs.get_tracer().reset()
    yield
    obs.get_tracer().reset()


def make_explainer(family: str, model, data):
    """A fresh, small-budget explainer (fresh plan store per call)."""
    if family == "sampling":
        return SamplingShapleyExplainer(
            model, data.X, n_permutations=8, max_background=20, seed=5
        )
    if family == "kernel":
        return KernelShapExplainer(
            model, data.X, n_samples=40, max_background=20, seed=5
        )
    if family == "qii":
        return QIIExplainer(
            model, data.X[:20], n_permutations=6, n_samples=8, seed=5
        )
    if family == "conditional":
        return ConditionalShapExplainer(
            model, data.X[:60], k=8, n_permutations=6, seed=5
        )
    raise AssertionError(family)


def _batch_span():
    spans = [s for s in obs.get_tracer().spans() if s.name == "explain_batch"]
    assert spans, "no explain_batch span recorded"
    return spans[-1]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_amortized_batch_bitwise_parity(family, backend, loan_data,
                                        loan_logistic):
    """Shared-plan batches match the per-row loop bit for bit."""
    X = loan_data.X[:N_ROWS]
    reference = [
        make_explainer(family, loan_logistic, loan_data).explain(x)
        for x in X
    ]
    batch = make_explainer(family, loan_logistic, loan_data).explain_batch(
        X, backend=backend, n_procs=2
    )
    assert len(batch) == N_ROWS
    for ref, att in zip(reference, batch):
        assert np.array_equal(ref.values, att.values)
        assert ref.base_value == att.base_value
        assert ref.prediction == att.prediction
    assert _batch_span().attrs["amortized"] is True


def test_plan_counters_and_reuse(loan_data, loan_logistic):
    """One plan per (explainer, config); later batches ride the store."""
    explainer = make_explainer("sampling", loan_logistic, loan_data)
    X = loan_data.X[:N_ROWS]
    built = obs.counter("coalition.plan.built")
    reused = obs.counter("coalition.plan.reused")

    b0, r0 = built.value, reused.value
    first = explainer.explain_batch(X)
    assert built.value - b0 == 1
    assert reused.value - r0 == N_ROWS - 1

    b1, r1 = built.value, reused.value
    second = explainer.explain_batch(X)
    assert built.value - b1 == 0
    assert reused.value - r1 == N_ROWS
    for a, b in zip(first, second):
        assert np.array_equal(a.values, b.values)


def test_batch_plan_kill_switch(monkeypatch, loan_data, loan_logistic):
    """REPRO_BATCH_PLAN=0 restores the per-row loop, same numbers."""
    X = loan_data.X[:3]
    amortized = make_explainer("sampling", loan_logistic,
                               loan_data).explain_batch(X)
    monkeypatch.setenv("REPRO_BATCH_PLAN", "0")
    built = obs.counter("coalition.plan.built").value
    looped = make_explainer("sampling", loan_logistic,
                            loan_data).explain_batch(X)
    assert obs.counter("coalition.plan.built").value == built
    assert _batch_span().attrs["amortized"] is False
    for a, b in zip(amortized, looped):
        assert np.array_equal(a.values, b.values)


def test_guard_budgets_keep_per_row_loop(loan_data, loan_logistic):
    """Per-row deadline/query budgets veto the fused path entirely."""
    explainer = SamplingShapleyExplainer(
        loan_logistic, loan_data.X, n_permutations=8, max_background=20,
        seed=5, guard=GuardConfig(query_budget=10**9),
    )
    plain = make_explainer("sampling", loan_logistic, loan_data)
    X = loan_data.X[:3]
    guarded_atts = explainer.explain_batch(X)
    assert _batch_span().attrs["amortized"] is False
    for ref, att in zip(plain.explain_batch(X), guarded_atts):
        assert np.array_equal(ref.values, att.values)


def test_fused_failure_falls_back_and_counts(loan_data, loan_logistic):
    """A mid-fuse exception degrades to the loop + fallback counter."""

    class Exploding(SamplingShapleyExplainer):
        def _amortized_rows(self, X, lo, hi, ctx, **kwargs):
            raise RuntimeError("fused path down")

    explainer = Exploding(
        loan_logistic, loan_data.X, n_permutations=8, max_background=20,
        seed=5,
    )
    X = loan_data.X[:3]
    fallbacks = obs.counter("coalition.plan.fallbacks").value
    batch = explainer.explain_batch(X)
    assert obs.counter("coalition.plan.fallbacks").value == fallbacks + 1
    assert _batch_span().attrs["amortized"] is False
    reference = make_explainer("sampling", loan_logistic, loan_data)
    for ref, att in zip((reference.explain(x) for x in X), batch):
        assert np.array_equal(ref.values, att.values)


@pytest.mark.parametrize("backend", ("serial", "thread"))
def test_non_finite_row_fails_alone_and_the_rest_stay_fused(
        backend, monkeypatch, loan_data, loan_logistic):
    """A NaN row gets its own typed error before fusing; the other rows
    match the per-row loop bit for bit."""
    X = loan_data.X[:N_ROWS].copy()
    X[2, 0] = np.nan
    failed = obs.counter("robust.rows_failed").value
    explainer = make_explainer("sampling", loan_logistic, loan_data)
    with pytest.raises(PartialBatchError) as excinfo:
        explainer.explain_batch(X, backend=backend, n_procs=2)
    assert _batch_span().attrs["amortized"] is True
    assert obs.counter("robust.rows_failed").value == failed + 1
    (row_error,) = excinfo.value.errors
    assert row_error.index == 2
    assert isinstance(row_error.error, InputValidationError)
    assert excinfo.value.completed_indices == [0, 1, 3, 4]

    monkeypatch.setenv("REPRO_BATCH_PLAN", "0")
    looped, loop_errors = make_explainer(
        "sampling", loan_logistic, loan_data
    ).explain_batch(X, backend=backend, n_procs=2, return_errors=True)
    assert [e.index for e in loop_errors] == [2]
    assert str(loop_errors[0].error) == str(row_error.error)
    for i in (0, 1, 3, 4):
        assert np.array_equal(excinfo.value.partial[i].values,
                              looped[i].values)


def test_feature_names_ride_the_amortized_path(loan_data, loan_logistic):
    """``feature_names`` is the one kwarg the fused path serves."""
    explainer = make_explainer("sampling", loan_logistic, loan_data)
    names = [f"f{i}" for i in range(loan_data.X.shape[1])]
    built = obs.counter("coalition.plan.built").value
    batch = explainer.explain_batch(loan_data.X[:2], feature_names=names)
    assert obs.counter("coalition.plan.built").value == built + 1
    assert _batch_span().attrs["amortized"] is True
    assert all(att.feature_names == names for att in batch)


def test_batch_value_matrix_matches_value_function(loan_data, loan_logistic):
    """The fused grid equals the per-row value function, bit for bit."""
    engine = CoalitionEngine(loan_data.X, max_background=15,
                             max_batch_rows=64)
    rng = np.random.default_rng(3)
    masks = rng.random((9, loan_data.X.shape[1])) < 0.5
    X = loan_data.X[:4]
    model_fn = lambda rows: loan_logistic.predict_proba(rows)[:, -1]
    matrix = engine.batch_value_matrix(model_fn, X, masks)
    assert matrix.shape == (4, 9)
    for r in range(4):
        vf = engine.value_function(model_fn, X[r], cache=False)
        assert np.array_equal(matrix[r], vf(masks))


class TestTreeBatch:
    def test_backend_bitwise_stability(self, loan_split, loan_gbm):
        Xtr, __, __, __ = loan_split
        X = Xtr[:16]
        explainer = TreeShapExplainer(loan_gbm)
        serial = explainer.explain_batch(X, backend="serial")
        values = np.stack([a.values for a in serial])
        for backend in ("thread", "process"):
            rerun = explainer.explain_batch(X, backend=backend, n_procs=2)
            assert np.array_equal(
                values, np.stack([a.values for a in rerun])
            )
        assert _batch_span().attrs["amortized"] is True

    def test_fused_agrees_with_scalar_recursion(self, loan_split, loan_gbm):
        Xtr, __, __, __ = loan_split
        X = Xtr[:8]
        explainer = TreeShapExplainer(loan_gbm)
        batch = explainer.explain_batch(X)
        for x, att in zip(X, batch):
            scalar = explainer.explain(x)
            # Different child-visit order: equal to accumulation order,
            # not necessarily to the last ulp.
            assert np.allclose(att.values, scalar.values, atol=1e-9)
            assert att.base_value == scalar.base_value

    def test_precompute_kill_switch(self, monkeypatch, loan_split, loan_gbm):
        Xtr, __, __, __ = loan_split
        X = Xtr[:4]
        explainer = TreeShapExplainer(loan_gbm)
        monkeypatch.setenv("REPRO_PRECOMPUTE", "0")
        looped = explainer.explain_batch(X)
        assert _batch_span().attrs["amortized"] is False
        for x, att in zip(X, looped):
            assert np.array_equal(explainer.explain(x).values, att.values)

    def test_precompute_shared_across_instances(self, loan_gbm):
        a = TreeShapExplainer(loan_gbm)
        b = TreeShapExplainer(loan_gbm)
        assert a.precompute() is b.precompute()
        assert a.expected_value == b.precompute().expected_value

    def test_efficiency_of_fused_values(self, loan_split, loan_gbm):
        Xtr, __, __, __ = loan_split
        X = Xtr[:6]
        explainer = TreeShapExplainer(loan_gbm)
        for att in explainer.explain_batch(X):
            assert np.isclose(
                att.base_value + att.values.sum(), att.prediction,
                atol=1e-8,
            )
