"""Fault-tolerant runtime: guard, budgets, fault injection, degradation.

Covers the repro.robust contract end to end: typed input/output
validation across every sampling explainer, deterministic seeded fault
injection, retry/backoff of transient failures, per-explanation
deadlines and query budgets with partial-result degradation, graceful
``explain_batch`` with poisoned rows (serial and parallel), and the
coalition engine's chunk-level retry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import AttributionExplainer, as_predict_fn
from repro.core.coalition_engine import CoalitionEngine
from repro.core.dataset import TabularDataset
from repro.datasets import make_loan_dataset
from repro.models import LogisticRegression
from repro.obs import metrics
from repro.robust import (
    BatchRowError,
    BudgetExceededError,
    FaultyModel,
    GuardConfig,
    InputValidationError,
    ModelEvaluationError,
    NonFiniteOutputError,
    OutputShapeError,
    PartialBatchError,
    ReproError,
    TransientModelError,
    check_instance,
    guard_predict_fn,
    guard_scope,
)
from repro.shapley import (
    ConditionalShapExplainer,
    KernelShapExplainer,
    QIIExplainer,
    SamplingShapleyExplainer,
)
from repro.surrogate import LimeTabularExplainer

N_FEATURES = 4
WEIGHTS = np.array([1.0, -2.0, 0.5, 0.0])


def linear_model(X: np.ndarray) -> np.ndarray:
    return np.atleast_2d(X) @ WEIGHTS


def nan_model(X: np.ndarray) -> np.ndarray:
    return np.full(np.atleast_2d(X).shape[0], np.nan)


@pytest.fixture(scope="module")
def background():
    rng = np.random.default_rng(3)
    return rng.normal(size=(40, N_FEATURES))


def _make_explainer(name: str, model, background: np.ndarray):
    """Fast-setting instance of every registered sampling explainer."""
    if name == "kernel":
        return KernelShapExplainer(model, background, n_samples=32)
    if name == "sampling":
        return SamplingShapleyExplainer(model, background, n_permutations=6)
    if name == "qii":
        return QIIExplainer(model, background, n_permutations=4, n_samples=10)
    if name == "conditional":
        return ConditionalShapExplainer(model, background, k=5,
                                        n_permutations=6)
    if name == "lime":
        data = TabularDataset(background,
                              np.zeros(background.shape[0], dtype=int))
        return LimeTabularExplainer(model, data, n_samples=40)
    raise AssertionError(name)


EXPLAINERS = ("kernel", "sampling", "qii", "conditional", "lime")


# ---------------------------------------------------------------- errors


def test_error_hierarchy():
    assert issubclass(ModelEvaluationError, ReproError)
    assert issubclass(NonFiniteOutputError, ModelEvaluationError)
    assert issubclass(OutputShapeError, ModelEvaluationError)
    assert issubclass(BudgetExceededError, ReproError)
    assert issubclass(TransientModelError, ReproError)
    # Input validation keeps ValueError compatibility so legacy
    # `except ValueError` call sites still work.
    assert issubclass(InputValidationError, ValueError)
    # Every robust failure is catchable via the single root.
    for exc in (ModelEvaluationError("m"), BudgetExceededError("b"),
                TransientModelError("t"), InputValidationError("i")):
        assert isinstance(exc, ReproError)


def test_batch_row_error_record():
    record = BatchRowError(index=3, error=ValueError("boom"))
    assert record.error_type == "ValueError"
    payload = record.to_dict()
    assert payload["index"] == 3
    assert payload["error_type"] == "ValueError"
    assert "boom" in payload["message"]


# ---------------------------------------------- input validation (typed)


@pytest.mark.parametrize("name", EXPLAINERS)
def test_wrong_width_instance_raises_typed_error(name, background):
    explainer = _make_explainer(name, linear_model, background)
    with pytest.raises(InputValidationError, match="features"):
        explainer.explain(np.zeros(N_FEATURES + 2))


@pytest.mark.parametrize("name", EXPLAINERS)
def test_nonfinite_instance_raises_typed_error(name, background):
    explainer = _make_explainer(name, linear_model, background)
    x = background[0].copy()
    x[1] = np.nan
    with pytest.raises(InputValidationError, match="non-finite"):
        explainer.explain(x)


@pytest.mark.parametrize("name", EXPLAINERS)
def test_nan_model_raises_nonfinite_error(name, background):
    explainer = _make_explainer(name, nan_model, background)
    with pytest.raises(NonFiniteOutputError):
        explainer.explain(background[0])


def test_empty_batch_raises_typed_error(background):
    explainer = _make_explainer("kernel", linear_model, background)
    with pytest.raises(InputValidationError, match="non-empty"):
        explainer.explain_batch(np.empty((0, N_FEATURES)))


def test_check_instance_contract():
    assert check_instance([1, 2, 3]).dtype == float
    with pytest.raises(InputValidationError, match="empty"):
        check_instance([])
    with pytest.raises(InputValidationError, match="convertible"):
        check_instance(["a", "b"])
    with pytest.raises(InputValidationError, match="expected 2"):
        check_instance([1.0, 2.0, 3.0], n_features=2)


# -------------------------------------------------------- guarded calls


def test_transient_failures_are_retried_then_recover():
    attempts = []

    def flaky(X):
        attempts.append(len(attempts))
        if len(attempts) < 3:
            raise TransientModelError("503")
        return np.zeros(np.atleast_2d(X).shape[0])

    guarded = guard_predict_fn(flaky, GuardConfig(retries=4, backoff_s=0.0))
    before = metrics.counter("robust.retries").value
    out = guarded(np.zeros((2, 3)))
    assert out.shape == (2,) and len(attempts) == 3
    assert metrics.counter("robust.retries").value == before + 2


def test_retries_exhausted_raises_model_evaluation_error():
    def always_down(X):
        raise TransientModelError("503")

    guarded = guard_predict_fn(always_down,
                               GuardConfig(retries=2, backoff_s=0.0))
    with pytest.raises(ModelEvaluationError) as excinfo:
        guarded(np.zeros((1, 3)))
    assert excinfo.value.attempts == 3
    assert isinstance(excinfo.value.__cause__, TransientModelError)


def test_deterministic_failures_fail_fast():
    calls = []

    def buggy(X):
        calls.append(1)
        raise IndexError("broadcast bug")

    guarded = guard_predict_fn(buggy, GuardConfig(retries=5, backoff_s=0.0))
    with pytest.raises(ModelEvaluationError):
        guarded(np.zeros((1, 3)))
    assert len(calls) == 1  # no retries for a deterministic bug


def test_wrong_shape_output_retried_then_typed():
    def truncating(X):
        return np.zeros(np.atleast_2d(X).shape[0] - 1)

    guarded = guard_predict_fn(truncating,
                               GuardConfig(retries=1, backoff_s=0.0))
    with pytest.raises(OutputShapeError):
        guarded(np.zeros((4, 3)))


def test_nonfinite_policies():
    def half_nan(X):
        out = np.arange(float(np.atleast_2d(X).shape[0]))
        out[0] = np.inf
        return out

    raising = guard_predict_fn(half_nan, GuardConfig(retries=0))
    with pytest.raises(NonFiniteOutputError):
        raising(np.zeros((4, 2)))

    imputing = guard_predict_fn(
        half_nan, GuardConfig(retries=0, on_nonfinite="impute")
    )
    out = imputing(np.zeros((4, 2)))
    # Bad entry replaced by the finite mean of the same batch.
    assert out[0] == pytest.approx(np.mean([1.0, 2.0, 3.0]))

    all_bad = guard_predict_fn(
        nan_model, GuardConfig(retries=0, on_nonfinite="impute",
                               impute_value=0.5)
    )
    assert np.all(all_bad(np.zeros((3, 2))) == 0.5)


def test_requery_recovers_from_intermittent_nan():
    calls = []

    def sometimes_nan(X):
        calls.append(1)
        n = np.atleast_2d(X).shape[0]
        return np.full(n, np.nan) if len(calls) == 1 else np.ones(n)

    guarded = guard_predict_fn(
        sometimes_nan,
        GuardConfig(retries=2, backoff_s=0.0, on_nonfinite="requery"),
    )
    assert np.all(guarded(np.zeros((2, 2))) == 1.0)
    assert len(calls) == 2


def test_guard_is_idempotent():
    fn = as_predict_fn(linear_model)
    assert fn.__repro_guarded__ and as_predict_fn(fn) is fn


def test_guard_env_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_RETRIES", "0")
    monkeypatch.setenv("REPRO_BACKOFF", "0")

    def always_down(X):
        raise TransientModelError("503")

    guarded = guard_predict_fn(always_down)
    with pytest.raises(ModelEvaluationError) as excinfo:
        guarded(np.zeros((1, 2)))
    assert excinfo.value.attempts == 1  # env disabled the retries


# ------------------------------------------------------------- budgets


def test_query_budget_enforced_in_scope():
    fn = as_predict_fn(linear_model)
    with guard_scope(GuardConfig(query_budget=5)) as scope:
        fn(np.zeros((3, N_FEATURES)))
        assert scope.rows_spent == 3
        with pytest.raises(BudgetExceededError) as excinfo:
            fn(np.zeros((3, N_FEATURES)))
    assert excinfo.value.kind == "queries"
    assert excinfo.value.budget == 5


def test_deadline_enforced_in_scope():
    fn = as_predict_fn(linear_model)
    with guard_scope(GuardConfig(deadline_s=1e-9)):
        import time

        time.sleep(0.002)
        with pytest.raises(BudgetExceededError) as excinfo:
            fn(np.zeros((1, N_FEATURES)))
    assert excinfo.value.kind == "deadline"


def test_budget_exhaustion_returns_partial_explanation():
    # Wide feature space so the coalition cache cannot serve every walk
    # (4 features would dedup to only 16 coalitions and never exhaust).
    rng = np.random.default_rng(0)
    wide = rng.normal(size=(40, 9))
    weights = np.linspace(-2.0, 2.0, 9)
    explainer = SamplingShapleyExplainer(
        lambda X: np.atleast_2d(X) @ weights, wide,
        n_permutations=40, seed=0,
        guard=GuardConfig(query_budget=4000),
    )
    fa = explainer.explain(wide[0])
    convergence = fa.meta["convergence"]
    assert convergence["converged"] is False
    assert 0 < convergence["n_walks_completed"] < \
        convergence["n_walks_requested"]
    assert "budget" in convergence["budget_error"]
    # The surviving walks still form an unbiased estimator; for a linear
    # game every walk yields the same marginals, so the partial estimate
    # matches the closed form w_i * (x_i - E[X_i]) tightly.
    exact = weights * (wide[0] - wide.mean(axis=0))
    assert np.allclose(fa.values, exact, atol=0.05)


def test_budget_too_small_for_base_value_raises(background):
    explainer = SamplingShapleyExplainer(
        linear_model, background, n_permutations=10, seed=0,
        guard=GuardConfig(query_budget=1),
    )
    with pytest.raises(BudgetExceededError):
        explainer.explain(background[0])


def test_scopes_are_per_explanation(background):
    # A budget that survives one explanation must survive a second one:
    # rows_spent resets per explain() call, not per explainer.
    explainer = KernelShapExplainer(
        linear_model, background, n_samples=16, seed=0,
        guard=GuardConfig(query_budget=5000),
    )
    first = explainer.explain(background[0])
    second = explainer.explain(background[0])
    assert np.allclose(first.values, second.values)


# ------------------------------------------------------ fault injection


def test_faulty_model_is_deterministic():
    rates = dict(error_rate=0.2, nan_rate=0.2, shape_rate=0.1)
    logs = []
    for _ in range(2):
        fm = FaultyModel(linear_model, seed=42, **rates)
        for i in range(50):
            try:
                fm(np.zeros((2, N_FEATURES)))
            except TransientModelError:
                pass
        logs.append(list(fm.fault_log))
    assert logs[0] == logs[1] and len(logs[0]) > 0
    kinds = {kind for _, kind in logs[0]}
    assert kinds <= {"error", "nan", "shape"}


def test_faulty_model_reset_rewinds_stream():
    fm = FaultyModel(linear_model, error_rate=0.5, seed=7)
    def drive():
        out = []
        for _ in range(20):
            try:
                fm(np.zeros((1, N_FEATURES)))
                out.append("ok")
            except TransientModelError:
                out.append("err")
        return out

    first = drive()
    fm.reset()
    assert drive() == first and fm.calls == 20


def test_faulty_model_rates_validation():
    with pytest.raises(ValueError, match="sum to at most 1"):
        FaultyModel(linear_model, error_rate=0.8, nan_rate=0.5)


def test_guard_recovers_exact_values_from_faulty_model(background):
    clean = _make_explainer("kernel", linear_model, background)
    faulty = KernelShapExplainer(
        FaultyModel(linear_model, error_rate=0.3, seed=5),
        background, n_samples=32,
        guard=GuardConfig(retries=25, backoff_s=0.0),
    )
    a, b = clean.explain(background[0]), faulty.explain(background[0])
    # Retries re-ask until the clean answer comes back: zero drift.
    assert np.allclose(a.values, b.values)


class _EveryKthCallFails:
    """A model whose ``predict_proba`` fails transiently every k-th call."""

    def __init__(self, model, k: int):
        self.model, self.k, self.calls = model, k, 0

    def predict_proba(self, X):
        self.calls += 1
        if self.calls % self.k == 0:
            raise TransientModelError(f"call {self.calls} failed")
        return self.model.predict_proba(X)


@pytest.mark.parametrize("k", [3, 7])
def test_sampling_values_survive_a_model_failing_every_kth_call(
    k, monkeypatch
):
    # The guard's retries re-ask the failed call, so neither the single
    # row path nor the batch path drifts from the fault-free values.
    monkeypatch.setenv("REPRO_BACKOFF", "0")
    data = make_loan_dataset(600, seed=7)
    model = LogisticRegression(alpha=1.0).fit(data.X, data.y)
    background, rows = data.X[:20], data.X[20:25]

    def explainer(m):
        return SamplingShapleyExplainer(m, background, n_permutations=10,
                                        seed=0)

    clean, flaky = explainer(model), explainer(_EveryKthCallFails(model, k))
    retries = metrics.counter("robust.retries").value
    for x in rows:
        assert np.array_equal(flaky.explain(x).values,
                              clean.explain(x).values)
    assert metrics.counter("robust.retries").value > retries
    retries = metrics.counter("robust.retries").value
    for got, want in zip(flaky.explain_batch(rows),
                         clean.explain_batch(rows)):
        assert np.array_equal(got.values, want.values)
    assert metrics.counter("robust.retries").value > retries


# ------------------------------------------------------ batch degradation


class _PoisonRowExplainer(AttributionExplainer):
    """Minimal explainer whose explain() dies on a marked row."""

    method_name = "poison_probe"

    def explain(self, x, **kwargs):
        from repro.core.explanation import FeatureAttribution

        x = np.asarray(x, dtype=float).ravel()
        if x[0] > 1e5:
            raise ModelEvaluationError("poisoned row")
        values = self.predict_fn(x[None, :]) * np.ones(x.shape[0])
        return FeatureAttribution(
            values=values / x.shape[0],
            feature_names=[f"x{i}" for i in range(x.shape[0])],
            base_value=0.0,
            prediction=float(values[0]),
            method=self.method_name,
        )


@pytest.mark.parametrize("n_procs", [1, 3])
def test_explain_batch_survives_poisoned_row(n_procs, background):
    explainer = _PoisonRowExplainer(linear_model)
    X = background[:5].copy()
    X[2, 0] = 1e9  # poison
    before = metrics.counter("robust.rows_failed").value

    results, errors = explainer.explain_batch(X, backend="thread",
                                              n_procs=n_procs,
                                              return_errors=True)
    assert len(results) == 5
    assert results[2] is None
    assert all(results[i] is not None for i in (0, 1, 3, 4))
    assert [e.index for e in errors] == [2]
    assert isinstance(errors[0].error, ModelEvaluationError)
    assert metrics.counter("robust.rows_failed").value == before + 1

    with pytest.raises(PartialBatchError) as excinfo:
        explainer.explain_batch(X, backend="thread", n_procs=n_procs)
    partial = excinfo.value
    assert partial.completed_indices == [0, 1, 3, 4]
    assert partial.partial[2] is None
    assert partial.partial[0].method == "poison_probe"


def test_explain_batch_clean_path_unchanged(background):
    explainer = _PoisonRowExplainer(linear_model)
    results = explainer.explain_batch(background[:3])
    assert isinstance(results, list) and len(results) == 3
    assert all(r.method == "poison_probe" for r in results)


def test_explain_batch_parallel_budgets_are_per_row(background):
    # Every row individually fits the budget; together they would not.
    # Per-row scoping means all rows succeed, even on the pool path.
    explainer = KernelShapExplainer(
        linear_model, background, n_samples=16, seed=0,
        guard=GuardConfig(query_budget=5000),
    )
    results = explainer.explain_batch(background[:4], backend="thread",
                                      n_procs=2)
    assert len(results) == 4 and all(r is not None for r in results)


# ------------------------------------------------- coalition chunk retry


def test_coalition_engine_chunk_retry_keeps_cache_consistent(background):
    x = background[0]
    calls = {"n": 0}

    metered = as_predict_fn(linear_model, guard=False)

    def flaky_once(X):
        calls["n"] += 1
        if calls["n"] == 1:
            raise ModelEvaluationError("first chunk dies")
        return metered(X)

    engine = CoalitionEngine(background, chunk_retries=1)
    v = engine.value_function(
        guard_predict_fn(flaky_once, GuardConfig(retries=0)), x
    )
    masks = np.zeros((3, N_FEATURES), dtype=bool)
    masks[1, 0] = True
    masks[2, :2] = True
    before = metrics.counter("robust.chunk_retries").value
    values = v(masks)
    assert metrics.counter("robust.chunk_retries").value == before + 1
    # The retried evaluation matches a never-faulty engine: nothing
    # partial was committed to the coalition cache.
    clean = CoalitionEngine(background).value_function(metered, x)
    assert np.allclose(values, clean(masks))
    # The repeat call is answered fully from cache.
    misses_before = v.cache.misses
    assert np.allclose(v(masks), values)
    assert v.cache.misses == misses_before


def test_coalition_engine_chunk_retries_exhausted(background):
    calls = {"n": 0}

    def always_down(X):
        calls["n"] += 1
        raise ModelEvaluationError("down")

    engine = CoalitionEngine(background, chunk_retries=2)
    v = engine.value_function(always_down, background[0])
    with pytest.raises(ModelEvaluationError):
        v(np.zeros((1, N_FEATURES), dtype=bool))
    assert calls["n"] == 3  # initial attempt + 2 chunk retries


# --------------------------------------------- process-backend degradation


@pytest.mark.parametrize("return_errors", [True, False])
def test_explain_batch_process_backend_poisoned_rows(return_errors, background):
    """Poisoned rows inside forked workers degrade exactly like serial ones."""
    explainer = _PoisonRowExplainer(linear_model)
    X = background[:6].copy()
    X[2, 0] = 1e9  # poison
    before = metrics.counter("robust.rows_failed").value

    if return_errors:
        results, errors = explainer.explain_batch(
            X, backend="process", n_procs=3, return_errors=True
        )
        assert len(results) == 6
        assert results[2] is None
        assert all(results[i] is not None for i in (0, 1, 3, 4, 5))
        assert [e.index for e in errors] == [2]
        # The worker's exception does not cross the pickle boundary as a
        # live object, but its type name and message survive verbatim.
        assert errors[0].error_type == "ModelEvaluationError"
        assert "poisoned row" in str(errors[0].error)
        assert metrics.counter("robust.rows_failed").value == before + 1
    else:
        with pytest.raises(PartialBatchError) as excinfo:
            explainer.explain_batch(X, backend="process", n_procs=3)
        partial = excinfo.value
        assert partial.completed_indices == [0, 1, 3, 4, 5]
        assert partial.partial[2] is None
        assert partial.partial[0].method == "poison_probe"


class _WorkerKillerExplainer(AttributionExplainer):
    """Explainer that hard-kills its own process on a marked row."""

    method_name = "worker_killer"

    def explain(self, x, **kwargs):
        import os as _os

        from repro.core.explanation import FeatureAttribution
        from repro.exec import in_worker

        x = np.asarray(x, dtype=float).ravel()
        if x[0] > 1e5 and in_worker():
            _os._exit(13)  # simulates a segfaulting / OOM-killed worker
        return FeatureAttribution(
            values=np.zeros(x.shape[0]),
            feature_names=[f"x{i}" for i in range(x.shape[0])],
            base_value=0.0,
            prediction=0.0,
            method=self.method_name,
        )


def test_explain_batch_worker_death_surfaces_as_partial(background):
    """A worker dying mid-shard fails that shard's rows; no hang, no loss
    of the batch contract (one outcome per input row)."""
    explainer = _WorkerKillerExplainer(linear_model)
    X = background[:6].copy()
    X[1, 0] = 1e9  # kills whichever worker draws shard 0
    results, errors = explainer.explain_batch(
        X, backend="process", n_procs=2, return_errors=True
    )
    assert len(results) == 6
    assert results[1] is None
    failed = {e.index for e in errors}
    assert 1 in failed
    # A broken pool may take sibling shards down with it, but every row
    # is accounted for either way.
    assert all((results[i] is None) == (i in failed) for i in range(6))
    assert any("ShardError" == e.error_type or "shard" in str(e.error).lower()
               for e in errors)


def test_worker_robust_counters_merge_into_parent(background):
    """robust.* counters incremented inside forked workers show up in the
    parent's metrics snapshot after the join."""
    flaky = FaultyModel(linear_model, error_rate=0.3, seed=11)
    explainer = KernelShapExplainer(
        flaky, background, n_samples=16, seed=0,
        guard=GuardConfig(retries=10, backoff_s=0.0),
    )
    before = metrics.counter("robust.retries").value
    results = explainer.explain_batch(background[:4], backend="process",
                                      n_procs=2)
    assert len(results) == 4 and all(r is not None for r in results)
    assert metrics.counter("robust.retries").value > before


# ------------------------------------------- backoff jitter + scope threads


def test_backoff_jitter_is_seeded_deterministic_and_capped():
    """Full-jitter delays replay exactly under a seed and never exceed
    the capped-exponential envelope."""
    from repro.robust import seed_backoff_jitter
    from repro.robust.guard import BACKOFF_CAP_S

    def run_once() -> list[float]:
        delays: list[float] = []

        def always_down(X):
            raise TransientModelError("503")

        guarded = guard_predict_fn(
            always_down,
            GuardConfig(retries=4, backoff_s=0.1, sleep=delays.append),
        )
        with pytest.raises(ModelEvaluationError):
            guarded(np.zeros((1, 3)))
        return delays

    seed_backoff_jitter(1234)
    first = run_once()
    seed_backoff_jitter(1234)
    second = run_once()
    try:
        assert first == second  # seeded: bitwise-replayable
        assert len(first) == 4
        for attempt, delay in enumerate(first, start=1):
            cap = min(0.1 * 2.0 ** (attempt - 1), BACKOFF_CAP_S)
            assert 0.0 <= delay <= cap
        # Full jitter actually jitters: four draws are not all equal.
        assert len(set(first)) > 1
    finally:
        seed_backoff_jitter(None)


def test_faulty_model_seeds_the_backoff_jitter():
    """Fault injection pins the jitter stream, so fault-injected runs
    (and their golden assertions) replay exactly."""
    from repro.robust import seed_backoff_jitter
    from repro.robust import guard as guard_mod

    try:
        FaultyModel(linear_model, error_rate=0.1, seed=77)
        first = [guard_mod._jitter_rng.uniform(0, 1) for __ in range(3)]
        FaultyModel(linear_model, error_rate=0.1, seed=77)
        second = [guard_mod._jitter_rng.uniform(0, 1) for __ in range(3)]
        assert first == second
    finally:
        seed_backoff_jitter(None)


def test_overlapping_scopes_on_threads_do_not_leak_budget():
    """Two guard scopes open concurrently on different threads each see
    their own deadline; neither clock leaks into the other."""
    import threading
    import time

    from repro.robust import remaining_s

    seen: dict[str, float | None] = {}
    barrier = threading.Barrier(2)

    def worker(name: str, deadline_s: float) -> None:
        with guard_scope(GuardConfig(deadline_s=deadline_s)):
            barrier.wait()      # both scopes are open at the same time
            time.sleep(0.05)
            seen[name] = remaining_s()
            barrier.wait()      # neither exits before the other measured

    threads = [
        threading.Thread(target=worker, args=("short", 0.2)),
        threading.Thread(target=worker, args=("long", 30.0)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert seen["short"] is not None and seen["short"] < 0.2
    # The long scope still has essentially all its budget: the short
    # scope's 0.2 s deadline did not clip it.
    assert seen["long"] is not None and seen["long"] > 25.0


def test_request_envelope_clips_nested_scopes_and_stays_thread_local():
    import threading
    import time

    from repro.robust import request_envelope
    from repro.robust.guard import envelope_remaining_s

    with request_envelope(0.5) as envelope:
        time.sleep(0.1)
        # A scope with a *larger* own deadline is clipped to what is
        # left of the envelope (queue wait eats the compute budget)...
        with guard_scope(GuardConfig(deadline_s=60.0)) as scope:
            assert scope.deadline_s is not None
            assert scope.deadline_s <= 0.41
        # ...while a tighter own deadline survives.
        with guard_scope(GuardConfig(deadline_s=0.01)) as scope:
            assert scope.deadline_s <= 0.01
        # Envelopes are thread-local: another thread sees none.
        elsewhere: list = []
        t = threading.Thread(
            target=lambda: elsewhere.append(envelope_remaining_s())
        )
        t.start()
        t.join(timeout=10)
        assert elsewhere == [None]
        assert envelope.remaining_s() is not None
    assert envelope_remaining_s() is None
