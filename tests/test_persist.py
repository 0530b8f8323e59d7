"""The persist protocol: round-trips, the codec, the artifact registry.

The contracts under test, in the order they stack:

* **Equivalent copy, bitwise** — for every registered model family,
  ``from_envelope(to_envelope(m))`` predicts *bit-identically* to the
  original on the same inputs. Ephemeral state (cache counters, locks)
  is dropped and rebuilt, never serialized.
* **Canonical codec** — float64 arrays survive byte-for-byte (b64 of
  little-endian bytes), foreign byte orders decode to native writable
  arrays, object dtypes are a typed refusal.
* **Typed rejection** — unknown ``_type`` and unsupported ``_version``
  raise their own exception classes; malformed payloads raise
  ``PayloadError``, never ``KeyError``.
* **Registry** — content-addressed, immutable versions: idempotent
  same-digest re-push, conflict on different content, atomic manifest
  under concurrent pushers, 404-style errors that list what exists.
* **Snapshots** — coalition caches persist and pre-warm, guarded by the
  scope token so a foreign snapshot is a metered no-op.
* **Serve integration** — a registered artifact feeds the service:
  bumping ``/models/<name>/version`` over HTTP swaps in the registry's
  model and invalidates the warm cache; stale pins get a typed 404
  listing the registry's versions.
"""

from __future__ import annotations

import hashlib
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.coalition_engine import CoalitionEngine, CoalitionValueCache
from repro.core.explanation import (
    CounterfactualExplanation,
    DataAttribution,
    FeatureAttribution,
    Predicate,
    RuleExplanation,
)
from repro.games.adapters import FeatureMaskingGame
from repro.models import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    ExplainableBoostingClassifier,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    LinearRegression,
    LogisticRegression,
    RandomForestClassifier,
    RidgeRegression,
)
from repro.obs import metrics
from repro.persist import (
    ArtifactConflictError,
    ArtifactNotFoundError,
    ArtifactRegistry,
    PayloadError,
    UnknownTypeError,
    UnsupportedVersionError,
    dumps,
    from_envelope,
    loads,
    to_envelope,
)
from repro.persist.snapshot import (
    load_cache_snapshot,
    prewarm_cache,
    save_cache_snapshot,
    scope_token,
    snapshot_cache,
)
from repro.robust.guard import GuardConfig


@pytest.fixture(autouse=True)
def _clean_metrics():
    metrics.reset_metrics()
    yield
    metrics.reset_metrics()


def _regression_data(seed=0, n=60, d=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = X @ np.arange(1.0, d + 1.0) + 0.1 * rng.normal(size=n)
    return X, y


def _classification_data(seed=0, n=80, d=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + X[:, 1] - 0.5 * X[:, 2] > 0).astype(int)
    return X, y


def _roundtrip(obj):
    """Text-level round-trip: the path the registry and goldens use."""
    return loads(dumps(to_envelope(obj)))


# -- equivalent copy, bitwise, per model family --------------------------------

REGRESSORS = {
    "ridge": lambda: RidgeRegression(alpha=0.5),
    "linear": lambda: LinearRegression(),
    "tree_reg": lambda: DecisionTreeRegressor(max_depth=4, seed=0),
    "gbm_reg": lambda: GradientBoostingRegressor(
        n_estimators=8, max_depth=2, seed=0
    ),
}
CLASSIFIERS = {
    "logistic": lambda: LogisticRegression(alpha=1.0),
    "tree_clf": lambda: DecisionTreeClassifier(max_depth=4, seed=0),
    "forest": lambda: RandomForestClassifier(
        n_estimators=6, max_depth=3, seed=0
    ),
    "gbm_clf": lambda: GradientBoostingClassifier(
        n_estimators=8, max_depth=2, seed=0
    ),
    "ebm": lambda: ExplainableBoostingClassifier(n_rounds=12, seed=0),
}


@pytest.mark.parametrize("name", sorted(REGRESSORS))
def test_regressor_family_roundtrips_bitwise(name):
    X, y = _regression_data()
    model = REGRESSORS[name]().fit(X, y)
    copy = _roundtrip(model)
    assert type(copy) is type(model)
    assert np.array_equal(model.predict(X), copy.predict(X))
    # Canonical text is stable: re-serializing the copy reproduces the
    # exact byte stream (what the registry's content addressing hashes).
    assert dumps(to_envelope(model)) == dumps(to_envelope(copy))


@pytest.mark.parametrize("name", sorted(CLASSIFIERS))
def test_classifier_family_roundtrips_bitwise(name):
    X, y = _classification_data()
    model = CLASSIFIERS[name]().fit(X, y)
    copy = _roundtrip(model)
    assert type(copy) is type(model)
    assert np.array_equal(model.predict(X), copy.predict(X))
    assert np.array_equal(model.predict_proba(X), copy.predict_proba(X))
    assert dumps(to_envelope(model)) == dumps(to_envelope(copy))


# sha256 of ``dumps(to_envelope(model))`` for the tree families, frozen
# from the list-based TreeStructure the array fields replaced: the
# envelope text must not change with the in-memory representation.
FROZEN_TREE_ENVELOPES = {
    "tree_reg":
        "62fbf78fc3ac6bf66f917649ab6694f5e4148b423ce94a3fc44542403c269c8e",
    "gbm_reg":
        "5ad0d9e66b595bc95de0b000989e8592ab1af0aed230c05183807c8174e69359",
    "tree_clf":
        "f8438a2a5b12dbf4e806e68c4413793d5d0664419ad5376e16e156ef14e0acd9",
    "forest":
        "7b083472274adccd1f3dbc012dc5844e2db1ab79db0a7defdb88e40fb967a036",
    "gbm_clf":
        "bf77d5743581e06f761c9fea997a35207811dc40725b127d86ef158a985b358e",
}


@pytest.mark.parametrize("name", sorted(FROZEN_TREE_ENVELOPES))
def test_tree_envelopes_match_frozen_bytes(name):
    if name in REGRESSORS:
        X, y = _regression_data()
        model = REGRESSORS[name]().fit(X, y)
    else:
        X, y = _classification_data()
        model = CLASSIFIERS[name]().fit(X, y)
    model.predict(X)  # lazily built walk tables must stay out of the text
    text = dumps(to_envelope(model))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        FROZEN_TREE_ENVELOPES[name]


def test_unfitted_model_roundtrips():
    copy = _roundtrip(RidgeRegression(alpha=2.0))
    assert copy.alpha == 2.0
    X, y = _regression_data()
    copy.fit(X, y)  # still usable: fit after the round trip


# -- explanation objects -------------------------------------------------------

def test_explanation_objects_roundtrip_bitwise():
    attr = FeatureAttribution(
        values=np.array([0.5, -0.25, 1e-17]),
        feature_names=["a", "b", "c"],
        base_value=0.125,
        prediction=0.875,
        method="test",
        meta={"std_err": np.array([0.1, 0.2, 0.3]), "n": 7},
    )
    copy = _roundtrip(attr)
    assert isinstance(copy, FeatureAttribution)
    assert np.array_equal(attr.values, copy.values)
    assert np.array_equal(attr.meta["std_err"], copy.meta["std_err"])
    assert (copy.base_value, copy.prediction) == (0.125, 0.875)

    rule = RuleExplanation(
        predicates=[Predicate("f0", "<=", 0.5), Predicate("f1", ">", -1.0)],
        outcome=1.0,
        precision=0.9,
        coverage=0.25,
        method="anchors",
    )
    copy = _roundtrip(rule)
    assert isinstance(copy, RuleExplanation)
    assert [p.feature for p in copy.predicates] == ["f0", "f1"]
    assert copy.precision == 0.9

    cf = CounterfactualExplanation(
        factual=np.array([1.0, 2.0]),
        counterfactuals=np.array([[1.5, 2.0]]),
        factual_outcome=0.0,
        target_outcome=1.0,
        feature_names=["a", "b"],
        method="growing_spheres",
    )
    copy = _roundtrip(cf)
    assert np.array_equal(cf.counterfactuals, copy.counterfactuals)
    assert copy.feature_names == ["a", "b"]

    dv = DataAttribution(
        values=np.array([0.25, -0.5]),
        method="tmc",
        meta={"full_score": 0.75},
    )
    copy = _roundtrip(dv)
    assert np.array_equal(dv.values, copy.values)
    assert copy.meta["full_score"] == 0.75


def test_guard_config_roundtrips_without_ephemeral_state():
    config = GuardConfig(retries=3, backoff_s=0.5, deadline_s=12.0,
                         query_budget=1000)
    copy = _roundtrip(config)
    assert isinstance(copy, GuardConfig)
    assert (copy.retries, copy.backoff_s) == (3, 0.5)
    assert (copy.deadline_s, copy.query_budget) == (12.0, 1000)


# -- coalition caches and engines ---------------------------------------------

def _warm_engine_cache():
    X, _ = _regression_data(n=16, d=3)
    engine = CoalitionEngine(X[:8])
    model_fn = lambda Z: Z.sum(axis=1)
    v = engine.value_function(model_fn, X[10])
    masks = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=float)
    values = v(masks)
    return engine, v.cache, masks, values, model_fn, X


def test_coalition_cache_roundtrips_and_drops_counters():
    _, cache, masks, values, __, ___ = _warm_engine_cache()
    assert cache.hits + cache.misses > 0
    copy = _roundtrip(cache)
    assert isinstance(copy, CoalitionValueCache)
    assert copy.values == cache.values  # bitwise: floats compare exactly
    assert (copy.hits, copy.misses) == (0, 0)  # ephemeral, rebuilt


def test_coalition_engine_roundtrip_is_value_equivalent():
    engine, _, masks, values, model_fn, X = _warm_engine_cache()
    copy = _roundtrip(engine)
    assert isinstance(copy, CoalitionEngine)
    assert np.array_equal(copy.background, engine.background)
    v2 = copy.value_function(model_fn, X[10])
    assert np.array_equal(v2(masks), values)


def test_feature_masking_game_roundtrips_bitwise():
    X, y = _classification_data(n=40, d=3)
    model = LogisticRegression(alpha=1.0).fit(X, y)
    from repro.core.base import as_predict_fn

    game = FeatureMaskingGame(as_predict_fn(model), X[5], background=X[:10])
    masks = np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1]], dtype=float)
    want = game.value(masks)
    copy = _roundtrip(game)
    assert isinstance(copy, FeatureMaskingGame)
    assert np.array_equal(copy.value(masks), want)


# -- codec: dtypes, endianness, refusals --------------------------------------

def test_float64_arrays_roundtrip_bitwise_including_specials():
    arr = np.array([0.1 + 0.2, -0.0, np.pi, 1e-310, np.inf, -np.inf, np.nan])
    back = loads(dumps(arr))
    assert back.dtype == arr.dtype
    assert np.array_equal(arr.tobytes(), back.tobytes())  # bit-level


def test_foreign_endianness_decodes_to_native_writable():
    arr = np.arange(6.0).reshape(2, 3).astype(">f8")
    back = loads(dumps(arr))
    assert back.dtype.byteorder in ("=", "<", ">")[:2] or (
        back.dtype.isnative
    )
    assert back.flags.writeable
    assert np.array_equal(back, arr.astype(float))


@pytest.mark.parametrize("dtype", ["int64", "int32", "bool", "float32"])
def test_non_float64_dtypes_roundtrip(dtype):
    arr = np.array([[1, 0], [0, 1]]).astype(dtype)
    back = loads(dumps(arr))
    assert back.dtype == np.dtype(dtype)
    assert np.array_equal(back, arr)


def test_object_dtype_is_a_typed_refusal():
    with pytest.raises(PayloadError):
        dumps(np.array([object()]))


# -- typed rejection of foreign or future envelopes ---------------------------

def test_unknown_type_tag_raises_its_own_error():
    with pytest.raises(UnknownTypeError):
        from_envelope({"_type": "models.NotAThing", "_version": 1,
                       "state": {}})


def test_future_version_raises_unsupported_version():
    envelope = to_envelope(RidgeRegression(alpha=1.0))
    envelope["_version"] = 99
    with pytest.raises(UnsupportedVersionError):
        from_envelope(envelope)


def test_malformed_envelope_is_payload_error_not_keyerror():
    with pytest.raises(PayloadError):
        from_envelope({"_type": "models.RidgeRegression"})  # no state
    with pytest.raises(PayloadError):
        from_envelope("not an envelope at all")


# -- the artifact registry ----------------------------------------------------

def test_registry_push_get_and_latest(tmp_path):
    store = ArtifactRegistry(str(tmp_path / "reg"))
    X, y = _regression_data()
    m1 = RidgeRegression(alpha=0.1).fit(X, y)
    m2 = RidgeRegression(alpha=9.0).fit(X, y)
    record = store.push("ridge", m1, version="v1")
    assert record["version"] == "v1"
    store.push("ridge", m2, version="v2", note="retrained")
    assert store.names() == ["ridge"]
    assert store.versions("ridge") == ["v1", "v2"]
    assert store.latest_version("ridge") == "v2"
    got = store.get("ridge", "v1")
    assert np.array_equal(got.predict(X), m1.predict(X))
    latest = store.get("ridge")
    assert np.array_equal(latest.predict(X), m2.predict(X))


def test_registry_repush_idempotent_but_conflicts_on_new_content(tmp_path):
    store = ArtifactRegistry(str(tmp_path / "reg"))
    X, y = _regression_data()
    m1 = RidgeRegression(alpha=0.1).fit(X, y)
    first = store.push("m", m1, version="v1")
    again = store.push("m", m1, version="v1")  # same digest: no-op
    assert again["digest"] == first["digest"]
    m2 = RidgeRegression(alpha=5.0).fit(X, y)
    with pytest.raises(ArtifactConflictError):
        store.push("m", m2, version="v1")


def test_registry_missing_version_lists_available(tmp_path):
    store = ArtifactRegistry(str(tmp_path / "reg"))
    store.push("m", RidgeRegression(alpha=1.0), version="v1")
    with pytest.raises(ArtifactNotFoundError) as err:
        store.get("m", "v9")
    assert err.value.available == ["v1"]
    with pytest.raises(ArtifactNotFoundError):
        store.get("nope")


def test_registry_concurrent_pushes_keep_manifest_atomic(tmp_path):
    store = ArtifactRegistry(str(tmp_path / "reg"))
    n_threads, per_thread = 8, 4
    errors: list[BaseException] = []

    def pusher(k: int) -> None:
        try:
            for i in range(per_thread):
                store.push(f"model-{k}", {"weights": [float(k), float(i)]},
                           version=f"v{i}")
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    threads = [threading.Thread(target=pusher, args=(k,))
               for k in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # Every push landed and the manifest parses as one consistent index.
    assert store.names() == sorted(f"model-{k}" for k in range(n_threads))
    for k in range(n_threads):
        assert store.versions(f"model-{k}") == [
            f"v{i}" for i in range(per_thread)
        ]
        got = store.get(f"model-{k}", "v2")
        assert got == {"weights": [float(k), 2.0]}


# -- cache snapshots ----------------------------------------------------------

def test_cache_snapshot_roundtrip_and_prewarm(tmp_path):
    _, cache, masks, values, __, X = _warm_engine_cache()
    scope = scope_token(X[10], X[:8])
    path = str(tmp_path / "snap.json")
    save_cache_snapshot(path, cache, scope)
    payload = load_cache_snapshot(path)
    assert payload["scope"] == scope
    fresh = CoalitionValueCache()
    added = prewarm_cache(fresh, payload, scope)
    assert added == len(cache.values) > 0
    assert fresh.values == cache.values
    assert metrics.counter("persist.cache.prewarmed").value == added


def test_cache_snapshot_scope_mismatch_is_a_metered_noop():
    _, cache, *_rest, X = _warm_engine_cache()
    payload = snapshot_cache(cache, scope="a" * 32)
    fresh = CoalitionValueCache()
    assert prewarm_cache(fresh, payload, scope="b" * 32) == 0
    assert fresh.values == {}
    assert metrics.counter(
        "persist.cache.snapshot_scope_skips"
    ).value == 1


def test_engine_prewarms_from_env_snapshot(tmp_path, monkeypatch):
    engine, cache, masks, values, model_fn, X = _warm_engine_cache()
    scope = scope_token(X[10], engine.background)
    path = str(tmp_path / "snap.json")
    save_cache_snapshot(path, cache, scope)
    monkeypatch.setenv("REPRO_CACHE_SNAPSHOT", path)
    v = engine.value_function(model_fn, X[10])
    assert v.cache.values == cache.values  # warm before any evaluation
    assert np.array_equal(v(masks), values)
    # A different instance does not inherit the snapshot (scope guard).
    v_other = engine.value_function(model_fn, X[11])
    assert v_other.cache.values == {}


# -- serve: the registry feeds the service ------------------------------------

def _post(url: str, payload: dict, timeout: float = 15.0):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def test_serve_version_bump_loads_registry_artifact(tmp_path):
    from repro.serve import ExplainServer, ModelNotFoundError, ServeConfig

    X, y = _classification_data()
    m1 = LogisticRegression(alpha=0.5).fit(X, y)
    m2 = LogisticRegression(alpha=50.0).fit(X, y)
    store = ArtifactRegistry(str(tmp_path / "reg"))
    store.push("clf", m1, version="v1")
    store.push("clf", m2, version="v2")

    server = ExplainServer(
        ServeConfig(max_inflight=2, cache_size=16), artifacts=store
    )
    endpoint = server.add_endpoint_from_registry("clf", X[:10], version="v1")
    assert endpoint.version == "v1"
    assert endpoint.model.alpha == 0.5

    body = {"model": "clf", "instance": X[0].tolist(), "tier": "sampling",
            "params": {"n_permutations": 8, "seed": 0}}
    status, r1, __ = server.handle_explain(body)
    assert (status, r1["meta"]["model_version"]) == (200, "v1")
    status, r2, __ = server.handle_explain(body)
    assert r2["meta"]["cache"] == "hit"

    # a pin on a version the endpoint is not serving: typed 404 listing
    # the registry's versions
    status, err, __ = server.handle_explain(
        dict(body, model_version="v9")
    )
    assert status == 404
    assert err["error"]["type"] == "ModelNotFoundError"
    assert err["error"]["available_versions"] == ["v1", "v2"]

    host, port = server.start()
    try:
        base = f"http://{host}:{port}"
        status, bump = _post(f"{base}/models/clf/version", {"version": "v2"})
        assert (status, bump["version"]) == (200, "v2")
        # the *registry's* v2 model is now live...
        assert server.registry.get("clf").model.alpha == 50.0
        # ...and the warm cache was invalidated: recompute, new numbers
        status, r3, __ = server.handle_explain(body)
        assert (status, r3["meta"]["model_version"]) == (200, "v2")
        assert r3["meta"]["cache"] == "miss"
        assert r3["attribution"]["values"] != r1["attribution"]["values"]
        # bumping to a version the registry lacks: 404 envelope with
        # the available versions, endpoint untouched
        status, err = _post(f"{base}/models/clf/version", {"version": "v7"})
        assert status == 404
        assert err["error"]["available_versions"] == ["v1", "v2"]
        assert server.registry.get("clf").version == "v2"
    finally:
        server.stop()

    with pytest.raises(ModelNotFoundError):
        server.add_endpoint_from_registry("ghost", X[:10])


def test_serve_without_registry_keeps_label_bump(tmp_path, monkeypatch):
    from repro.serve import ExplainServer, ServeConfig

    monkeypatch.chdir(tmp_path)  # no .repro_registry here
    monkeypatch.delenv("REPRO_REGISTRY_DIR", raising=False)
    X, y = _classification_data()
    server = ExplainServer(ServeConfig(max_inflight=2))
    server.add_endpoint("m", LogisticRegression(alpha=1.0).fit(X, y), X[:10])
    assert server.set_model_version("m", "v2") == "v2"
    assert server.registry.get("m").version == "v2"
