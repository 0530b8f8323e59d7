"""Coalition-evaluation engine: expansion, caching, chunking, parity.

Covers the perf-engine contract end to end:

* broadcast expansion is bitwise identical to the historical loop;
* the packed-bit value cache dedupes within and across calls and exports
  hit/miss counters through ``repro.obs.metrics``;
* chunking bounds rows-per-call without changing results;
* seeded attributions from kernel SHAP, sampling SHAP and QII are
  numerically identical between the pre-engine path (``tests.oracles``)
  and the engine path;
* the masking, conditional and data-value value functions all obey
  ``cache=False`` and record the same span geometry;
* thread-backend ``explain_batch`` matches serial output row-for-row
  and keeps span accounting intact.
"""

import numpy as np
import pytest

from repro import obs
from repro.config import setting
from repro.core.base import as_predict_fn
from repro.core.coalition_engine import (
    CoalitionEngine,
    batched_predict,
    broadcast_expand,
)
from repro.games import DataValueGame, game_value_function
from repro.robust import InputValidationError
from repro.shapley import (
    KernelShapExplainer,
    SamplingShapleyExplainer,
    shapley_qii,
)
from repro.shapley.kernel import kernel_shap
from repro.shapley.qii import _resample_features
from repro.shapley.sampling import permutation_shapley
from repro.shapley.conditional import empirical_conditional_value_function
from repro.surrogate import LimeTabularExplainer
from tests.oracles import legacy_expand, legacy_value_function


def _random_setup(seed=0, n_c=40, n_b=17, d=9):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=d)
    background = rng.normal(size=(n_b, d))
    coalitions = rng.random((n_c, d)) < rng.random((n_c, 1))
    return x, background, coalitions


class TestExpansion:
    def test_broadcast_matches_legacy_bitwise(self):
        for seed in range(5):
            x, background, coalitions = _random_setup(seed)
            new = broadcast_expand(x, coalitions, background)
            old = legacy_expand(x, coalitions, background)
            assert new.dtype == old.dtype
            assert np.array_equal(new, old)

    def test_single_coalition_vector(self):
        x, background, __ = _random_setup(1)
        mask = np.zeros(x.shape[0], dtype=bool)
        mask[2] = True
        rows = broadcast_expand(x, mask, background)
        assert rows.shape == background.shape
        assert np.all(rows[:, 2] == x[2])
        untouched = np.ones(x.shape[0], dtype=bool)
        untouched[2] = False
        assert np.array_equal(rows[:, untouched], background[:, untouched])


class TestValueCache:
    def test_dedupes_within_and_across_calls(self):
        x, background, __ = _random_setup(2, d=6)
        engine = CoalitionEngine(background)
        calls = {"rows": 0}

        def counting_fn(X):
            calls["rows"] += X.shape[0]
            return X.sum(axis=1)

        v = engine.value_function(counting_fn, x)
        masks = np.array([[True, False, True, False, False, False],
                          [False, True, False, False, False, True],
                          [True, False, True, False, False, False]])
        first = v(masks)
        rows_after_first = calls["rows"]
        # Row 2 duplicates row 0: only two unique coalitions evaluated.
        assert rows_after_first == 2 * engine.n_background
        assert first[0] == first[2]
        second = v(masks)
        assert calls["rows"] == rows_after_first  # all served from cache
        assert np.array_equal(first, second)
        assert v.cache.hits == 1 + 3
        assert v.cache.misses == 2

    def test_counters_exported_through_metrics(self):
        obs.reset_metrics()
        x, background, coalitions = _random_setup(4, n_c=12, d=5)
        engine = CoalitionEngine(background)
        v = engine.value_function(lambda X: X.sum(axis=1), x)
        v(coalitions)
        v(coalitions)
        hits = obs.counter("coalition.cache.hits").value
        misses = obs.counter("coalition.cache.misses").value
        assert hits + misses == 2 * coalitions.shape[0]
        assert hits >= coalitions.shape[0]  # the whole second call
        assert misses == len(v.cache)

    def test_cache_disabled_reevaluates(self):
        x, background, __ = _random_setup(5, d=4)
        engine = CoalitionEngine(background)
        calls = {"n": 0}

        def counting_fn(X):
            calls["n"] += 1
            return X.sum(axis=1)

        v = engine.value_function(counting_fn, x, cache=False)
        mask = np.array([[True, False, True, False]])
        v(mask)
        v(mask)
        assert calls["n"] == 2
        assert v.cache is None

    def test_values_match_legacy_path(self):
        x, background, coalitions = _random_setup(6)
        engine = CoalitionEngine(background)
        fn = lambda X: np.tanh(X @ np.linspace(-1, 1, X.shape[1]))
        v_new = engine.value_function(fn, x)
        v_old = legacy_value_function(engine, fn, x)
        assert np.array_equal(v_new(coalitions), v_old(coalitions))


class TestChunking:
    def test_batched_predict_bounds_rows_per_call(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(103, 4))
        sizes = []

        def spy(X):
            sizes.append(X.shape[0])
            return X.sum(axis=1)

        out = batched_predict(spy, rows, max_batch_rows=25)
        assert max(sizes) <= 25
        assert len(sizes) == 5
        assert np.array_equal(out, rows.sum(axis=1))

    def test_engine_chunking_preserves_values(self):
        x, background, coalitions = _random_setup(7, n_c=33, n_b=10)
        fn = lambda X: np.cos(X).sum(axis=1)
        whole = CoalitionEngine(background).value_function(fn, x)(coalitions)
        chunked_engine = CoalitionEngine(background, max_batch_rows=35)
        sizes = []

        def spy(X):
            sizes.append(X.shape[0])
            return fn(X)

        chunked = chunked_engine.value_function(spy, x)(coalitions)
        assert max(sizes) <= 35
        assert np.array_equal(whole, chunked)

    def test_chunk_geometry_lands_in_spans(self):
        x, background, coalitions = _random_setup(8, n_c=8, n_b=10)
        engine = CoalitionEngine(background, max_batch_rows=30)
        tracer = obs.get_tracer()
        mark = tracer.mark()
        engine.value_function(lambda X: X.sum(axis=1), x)(coalitions)
        spans = [s for s in tracer.spans_since(mark) if s.name == "coalition_eval"]
        assert spans
        attrs = spans[-1].attrs
        assert attrs["chunk_rows"] == 30
        assert attrs["n_chunks"] == 3
        assert attrs["cache_misses"] == 8

    def test_resolve_max_batch_rows_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_BATCH_ROWS", "123")
        assert setting("REPRO_MAX_BATCH_ROWS") == 123
        assert setting("REPRO_MAX_BATCH_ROWS", 7) == 7
        for bad in ("not-an-int", "0", "-5"):
            monkeypatch.setenv("REPRO_MAX_BATCH_ROWS", bad)
            with pytest.raises(InputValidationError,
                               match="REPRO_MAX_BATCH_ROWS"):
                setting("REPRO_MAX_BATCH_ROWS")


@pytest.fixture(scope="module")
def loan_model(loan_data):
    from repro.models import LogisticRegression

    return LogisticRegression(alpha=1.0).fit(loan_data.X, loan_data.y)


class TestSeededParity:
    """Engine path == legacy path, bit for bit, at the same seed."""

    def test_kernel_shap_parity(self, loan_data, loan_model):
        x = loan_data.X[3]
        new = KernelShapExplainer(
            loan_model, loan_data.X, n_samples=80, max_background=40, seed=5
        ).explain(x)
        legacy_v = legacy_value_function(
            CoalitionEngine(loan_data.X, max_background=40),
            as_predict_fn(loan_model), x,
        )
        old_phi, old_base = kernel_shap(legacy_v, x.shape[0], n_samples=80,
                                        seed=5)
        assert np.array_equal(new.values, old_phi)
        assert new.base_value == old_base

    def test_sampling_shap_parity(self, loan_data, loan_model):
        x = loan_data.X[8]
        new = SamplingShapleyExplainer(
            loan_model, loan_data.X, n_permutations=12, max_background=30,
            seed=2,
        ).explain(x)
        legacy_v = legacy_value_function(
            CoalitionEngine(loan_data.X, max_background=30),
            as_predict_fn(loan_model), x,
        )
        n = x.shape[0]
        old_phi, __ = permutation_shapley(legacy_v, n, n_permutations=12,
                                          seed=2)
        assert np.array_equal(new.values, old_phi)
        assert new.base_value == legacy_v(np.zeros((1, n), dtype=bool))[0]

    def test_qii_parity_with_pre_engine_loop(self, loan_data, loan_model):
        """New batched QII == a verbatim copy of the pre-engine value fn."""
        from repro.core.base import as_predict_fn

        predict_fn = as_predict_fn(loan_model)
        x = np.asarray(loan_data.X[5], dtype=float).ravel()
        n = x.shape[0]
        background = loan_data.X[:60]
        seed, n_permutations, n_samples = 4, 8, 40

        rng = np.random.default_rng(seed)

        def legacy_value_fn(masks):
            masks = np.atleast_2d(masks)
            out = np.zeros(masks.shape[0])
            for row, mask in enumerate(masks):
                absent = [j for j in range(n) if not mask[j]]
                if not absent:
                    out[row] = float(predict_fn(x[None, :])[0])
                    continue
                rows = _resample_features(x, background, absent, n_samples, rng)
                out[row] = float(np.mean(predict_fn(rows)))
            return out

        legacy_phi, __ = permutation_shapley(
            legacy_value_fn, n, n_permutations=n_permutations, seed=seed
        )
        new_phi = shapley_qii(
            predict_fn, x, background,
            n_permutations=n_permutations, n_samples=n_samples, seed=seed,
        )
        assert np.array_equal(new_phi, legacy_phi)

    def test_qii_parity_under_chunking(self, loan_data, loan_model):
        from repro.core.base import as_predict_fn

        predict_fn = as_predict_fn(loan_model)
        x = loan_data.X[5]
        background = loan_data.X[:60]
        whole = shapley_qii(
            predict_fn, x, background, n_permutations=6, n_samples=30, seed=1
        )
        chunked = shapley_qii(
            predict_fn, x, background, n_permutations=6, n_samples=30, seed=1,
            max_batch_rows=64,
        )
        assert np.array_equal(whole, chunked)

    def test_conditional_value_fn_cache_parity(self, loan_data, loan_model):
        """Cached+batched conditional v(S) == per-mask legacy evaluation."""
        from repro.core.base import as_predict_fn

        predict_fn = as_predict_fn(loan_model)
        data = loan_data.X[:80]
        x = np.asarray(loan_data.X[2], dtype=float).ravel()
        k = 15
        scale = np.maximum(data.std(axis=0), 1e-12)

        def legacy_v(masks):
            masks = np.atleast_2d(np.asarray(masks, dtype=bool))
            out = np.zeros(masks.shape[0])
            for row, mask in enumerate(masks):
                if not mask.any():
                    out[row] = float(np.mean(predict_fn(data)))
                    continue
                if mask.all():
                    out[row] = float(predict_fn(x[None, :])[0])
                    continue
                deltas = (data[:, mask] - x[mask]) / scale[mask]
                distances = np.sqrt((deltas ** 2).sum(axis=1))
                neighbors = np.argsort(distances, kind="stable")[:k]
                rows = data[neighbors].copy()
                rows[:, mask] = x[mask]
                out[row] = float(np.mean(predict_fn(rows)))
            return out

        rng = np.random.default_rng(0)
        masks = rng.random((25, x.shape[0])) < 0.5
        masks[0] = False
        masks[1] = True
        masks[7] = masks[3]  # duplicate → cache hit
        v = empirical_conditional_value_function(predict_fn, data, x, k=k)
        got = v(masks)
        assert np.array_equal(got, legacy_v(masks))
        assert v.cache.hits >= 1
        # Second call: fully cached, same numbers, no new misses.
        before = v.cache.misses
        assert np.array_equal(v(masks), got)
        assert v.cache.misses == before


class TestParallelExplainBatch:
    def test_parallel_matches_serial_row_for_row(self, loan_data, loan_model):
        X = loan_data.X[:6]
        explainer = KernelShapExplainer(
            loan_model, loan_data.X, n_samples=40, max_background=25, seed=0
        )
        serial = explainer.explain_batch(X)
        parallel = explainer.explain_batch(X, backend="thread", n_procs=2)
        assert len(serial) == len(parallel) == X.shape[0]
        for s, p in zip(serial, parallel):
            assert np.array_equal(s.values, p.values)
            assert s.base_value == p.base_value
            assert s.prediction == p.prediction

    def test_env_var_enables_parallelism(self, loan_data, loan_model, monkeypatch):
        X = loan_data.X[:3]
        explainer = SamplingShapleyExplainer(
            loan_model, loan_data.X, n_permutations=6, max_background=20, seed=1
        )
        serial = explainer.explain_batch(X)
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        monkeypatch.setenv("REPRO_N_PROCS", "2")
        from_env = explainer.explain_batch(X)
        for s, p in zip(serial, from_env):
            assert np.array_equal(s.values, p.values)

    def test_parallel_spans_roll_up(self, loan_data, loan_model):
        data = loan_data
        explainer = LimeTabularExplainer(loan_model, data, n_samples=80, seed=0)
        tracer = obs.get_tracer()
        mark = tracer.mark()
        explainer.explain_batch(data.X[:4], backend="thread", n_procs=2)
        spans = tracer.spans_since(mark)
        batch = [s for s in spans if s.name == "explain_batch"]
        children = [s for s in spans if s.name == "explain"]
        assert len(batch) == 1
        assert len(children) == 4
        assert all(c.parent_id == batch[0].span_id for c in children)
        assert batch[0].rows_evaluated == sum(c.rows_evaluated for c in children)
        assert batch[0].rows_evaluated > 0


class _CountingUtility:
    """A stand-in utility: U(S) = |S|, with every call's size recorded."""

    n_points = 4

    def __init__(self, sizes):
        self.sizes = sizes

    def __call__(self, indices):
        self.sizes.append(1)
        return float(len(indices))


def _value_fn(kind, max_batch_rows=None, cache=True):
    """``(v, sizes, rows_per_coalition)`` for one of the three value
    functions; ``sizes`` records the row count of every model call."""
    rng = np.random.default_rng(11)
    d = 4
    data = rng.normal(size=(40, d))
    x = rng.normal(size=d)
    sizes = []

    def predict(X):
        sizes.append(X.shape[0])
        return np.cos(X).sum(axis=1)

    if kind == "masking":
        engine = CoalitionEngine(data[:5], max_batch_rows=max_batch_rows)
        return engine.value_function(predict, x, cache=cache), sizes, 5
    if kind == "conditional":
        v = empirical_conditional_value_function(
            predict, data, x, k=4, cache=cache, max_batch_rows=max_batch_rows
        )
        return v, sizes, 4
    game = DataValueGame(_CountingUtility(sizes))
    v = game_value_function(game, cache=cache, max_batch_rows=max_batch_rows)
    return v, sizes, 1


# Partial masks only: the conditional game evaluates ∅ and N specially.
_MASKS = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, 1],
                   [1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1],
                   [1, 0, 1, 0]], dtype=bool)


@pytest.mark.parametrize("kind", ["masking", "conditional", "datavalue"])
class TestCacheSwitch:
    """Every value function runs through the one games evaluator."""

    def test_switch_disables_the_cache(self, kind):
        v, sizes, rows_per = _value_fn(kind, cache=False)
        assert v.cache is None
        masks = _MASKS[:3]  # row 2 duplicates row 0
        v(masks)
        assert sum(sizes) == 3 * rows_per
        v(masks)
        assert sum(sizes) == 6 * rows_per

    def test_calls_record_chunked_spans(self, kind):
        max_batch_rows = 12
        v, sizes, rows_per = _value_fn(kind, max_batch_rows)
        assert v.cache is not None
        tracer = obs.get_tracer()
        for __ in range(2):
            mark = tracer.mark()
            v(_MASKS)
            spans = [s for s in tracer.spans_since(mark)
                     if s.name == "coalition_eval"]
            assert len(spans) == 1
            attrs = spans[0].attrs
            for key in ("chunk_rows", "n_chunks", "cache_hits",
                        "cache_misses"):
                assert key in attrs
            assert attrs["chunk_rows"] <= max_batch_rows
            assert attrs["cache_hits"] + attrs["cache_misses"] == len(_MASKS)
        assert attrs["cache_misses"] == 0  # the repeat call is all hits
        assert sum(sizes) == 6 * rows_per  # one duplicate, evaluated once
        assert max(sizes) <= max_batch_rows
