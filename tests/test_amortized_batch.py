"""Batch explanation: parity, telemetry, fallbacks.

The contract under test: ``explain_batch`` running one estimate over a
game that holds every row (and, for TreeSHAP, one cached
:class:`~repro.shapley.tree.TreePrecompute` per model) is a pure
performance change —

* sampling / kernel / QII / conditional SHAP batch attributions are
  **bitwise identical** to the serial per-row ``explain`` loop at equal
  seeds, on every execution backend, also when rows × background
  exceed ``max_batch_rows`` (no predict call ever does);
* TreeSHAP runs one path-table kernel: ``explain`` is bitwise that
  kernel on one row, and rows are bitwise stable across backends and
  batch splits;
* guard budgets keep their per-row semantics by skipping the fused
  call, and a failure inside it degrades to the loop while counting
  ``coalition.plan.fallbacks``;
* the batch draws its walks once: ``games.walks`` grows by the walk
  budget, not budget × rows, and the batch span carries ``amortized``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.core.coalition_engine import CoalitionEngine
from repro.datasets import make_classification
from repro.models import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
)
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


def test_batch_draws_its_walks_once(loan_data, loan_logistic):
    """One estimate per batch: the walk budget, not budget × rows."""
    explainer = make_explainer("sampling", loan_logistic, loan_data)
    X = loan_data.X[:N_ROWS]
    walks = obs.counter("games.walks")

    w0 = walks.value
    first = explainer.explain_batch(X)
    assert walks.value - w0 == explainer.n_permutations
    assert first[0].meta["convergence"]["n_walks_completed"] == \
        explainer.n_permutations

    second = explainer.explain_batch(X)
    assert walks.value - w0 == 2 * explainer.n_permutations
    for a, b in zip(first, second):
        assert np.array_equal(a.values, b.values)


def test_one_explain_is_one_value_call(loan_data, loan_logistic):
    """With no budget, every walk of an explanation shares one
    ``coalition_eval`` span; the walk telemetry still counts each walk."""
    explainer = make_explainer("sampling", loan_logistic, loan_data)
    walks = obs.counter("games.walks").value
    deltas = obs.histogram("games.step_delta").count
    tracer = obs.get_tracer()
    mark = tracer.mark()
    att = explainer.explain(loan_data.X[0])
    spans = [s for s in tracer.spans_since(mark) if s.name == "coalition_eval"]
    n_walks = att.meta["convergence"]["n_walks_completed"]
    assert n_walks == explainer.n_permutations
    assert len(spans) == 1
    assert obs.counter("games.walks").value - walks == n_walks
    assert obs.histogram("games.step_delta").count - deltas == n_walks


def test_query_budget_keeps_one_walk_per_call(loan_data, loan_logistic):
    """Under a query budget walks go one per call and the budget runs
    out where it did when every walk had its own call (frozen)."""
    explainer = SamplingShapleyExplainer(
        loan_logistic, loan_data.X, n_permutations=20, max_background=20,
        seed=5, guard=GuardConfig(query_budget=700),
    )
    convergence = explainer.explain(loan_data.X[0]).meta["convergence"]
    assert convergence["converged"] is False
    assert convergence["n_walks_completed"] == 5


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
        def _explain_rows(self, X, *args, **kwargs):
            if len(X) > 1:
                raise RuntimeError("fused path down")
            return super()._explain_rows(X, *args, **kwargs)

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
        backend, loan_data, loan_logistic):
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

    # A query budget no row reaches keeps the per-row loop.
    looped, loop_errors = SamplingShapleyExplainer(
        loan_logistic, loan_data.X, n_permutations=8, max_background=20,
        seed=5, guard=GuardConfig(query_budget=10**9),
    ).explain_batch(X, backend=backend, n_procs=2, return_errors=True)
    assert _batch_span().attrs["amortized"] is False
    assert [e.index for e in loop_errors] == [2]
    assert str(loop_errors[0].error) == str(row_error.error)
    for i in (0, 1, 3, 4):
        assert np.array_equal(excinfo.value.partial[i].values,
                              looped[i].values)


def test_feature_names_ride_the_amortized_path(loan_data, loan_logistic):
    """``feature_names`` is the one kwarg the fused path serves."""
    explainer = make_explainer("sampling", loan_logistic, loan_data)
    names = [f"f{i}" for i in range(loan_data.X.shape[1])]
    walks = obs.counter("games.walks").value
    batch = explainer.explain_batch(loan_data.X[:2], feature_names=names)
    assert obs.counter("games.walks").value == \
        walks + explainer.n_permutations
    assert _batch_span().attrs["amortized"] is True
    assert all(att.feature_names == names for att in batch)


def _capped(family, model, data, max_batch_rows, sizes):
    """An explainer whose predict function records each call's rows."""
    def predict(rows):
        sizes.append(len(rows))
        return model.predict_proba(rows)[:, 1]

    if family == "sampling":
        return SamplingShapleyExplainer(
            predict, data.X, n_permutations=6, max_background=20, seed=5,
            max_batch_rows=max_batch_rows,
        )
    if family == "kernel":
        return KernelShapExplainer(
            predict, data.X, n_samples=30, max_background=20, seed=5,
            max_batch_rows=max_batch_rows,
        )
    if family == "qii":
        return QIIExplainer(
            predict, data.X[:20], n_permutations=4, n_samples=10, seed=5,
            max_batch_rows=max_batch_rows,
        )
    return ConditionalShapExplainer(
        predict, data.X[:60], k=10, n_permutations=4, seed=5,
        max_batch_rows=max_batch_rows,
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_batch_bitwise_when_rows_times_background_exceed_the_bound(
        family, loan_data, loan_logistic):
    """Five rows × 20 background (or 10 samples or neighbours) rows per
    coalition exceed a 45-row bound: each coalition's rows are split
    between calls, no call exceeds the bound, and every row still has
    the bits of its one-row explanation."""
    limit = 45
    X = loan_data.X[:N_ROWS]
    sizes: list[int] = []
    reference = [_capped(family, loan_logistic, loan_data, limit, sizes
                         ).explain(x) for x in X]
    sizes.clear()
    batch = _capped(family, loan_logistic, loan_data, limit, sizes
                    ).explain_batch(X)
    assert _batch_span().attrs["amortized"] is True
    assert max(sizes) <= limit
    for ref, att in zip(reference, batch):
        assert np.array_equal(ref.values, att.values)
        assert ref.base_value == att.base_value
        assert ref.prediction == att.prediction


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

    @pytest.mark.parametrize("kind", (
        "tree_classifier", "tree_regressor", "forest", "gbm_classifier",
        "gbm_regressor",
    ))
    def test_explain_is_the_batch_kernel_on_one_row(self, kind):
        data = make_classification(240, n_features=6, seed=21)
        y_real = data.X[:, 0] - 0.5 * data.X[:, 2]
        model = {
            "tree_classifier": lambda: DecisionTreeClassifier(
                max_depth=6, seed=0).fit(data.X, data.y),
            "tree_regressor": lambda: DecisionTreeRegressor(
                max_depth=6, seed=0).fit(data.X, y_real),
            "forest": lambda: RandomForestClassifier(
                n_estimators=6, max_depth=5, seed=0).fit(data.X, data.y),
            "gbm_classifier": lambda: GradientBoostingClassifier(
                n_estimators=8, max_depth=3, seed=0).fit(data.X, data.y),
            "gbm_regressor": lambda: GradientBoostingRegressor(
                n_estimators=8, max_depth=3, seed=0).fit(data.X, y_real),
        }[kind]()
        explainer = TreeShapExplainer(model)
        X = data.X[:23]
        singles = [explainer.explain(x) for x in X]
        for size in (1, 7, X.shape[0]):
            batch = [att for lo in range(0, X.shape[0], size)
                     for att in explainer.explain_batch(X[lo:lo + size])]
            for single, att in zip(singles, batch):
                assert np.array_equal(single.values, att.values)
                assert single.prediction == att.prediction
                assert single.base_value == att.base_value

    # sha256 of TreePrecompute.shap_values' float64 bytes on the loan
    # GBM, frozen from the path-table kernel (the recursive kernel it
    # replaced read cceae129…865eb4; max |difference| 8.9e-16): the
    # kernel's bits must not drift.
    FROZEN_FUSED = (
        "5fa374fc240e71e457ba1ed3ba983dcca38f06bdb2e58affdec5badbeeeebaaf"
    )

    def test_fused_values_match_frozen_bits(self, loan_split, loan_gbm):
        Xtr, __, __, __ = loan_split
        phi = TreeShapExplainer(loan_gbm).precompute().shap_values(Xtr[:32])
        digest = hashlib.sha256(np.ascontiguousarray(phi).tobytes())
        assert digest.hexdigest() == self.FROZEN_FUSED

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
