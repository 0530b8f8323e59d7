"""Which program entry points the traced run wraps, and in which layer.

Layers are the program's own modules. Each entry below is a public
function or method of ``repro`` that the benchmark wraps from outside
(nothing under ``src/`` changes). A layer's self time is the time spent
in its wrapped calls minus the time their wrapped callees took, so the
coalition engine's self time excludes the model's ``predict_proba``,
the estimator's excludes the value calls it makes, and so on.
"""

from __future__ import annotations

import functools

LAYERS = ("models", "core", "games", "datavalue", "serve", "db", "obs",
          "robust")


def _rows(args, kwargs):
    X = args[1] if len(args) > 1 else kwargs.get("X")
    shape = getattr(X, "shape", None)
    return int(shape[0]) if shape else 1


def _request_id(args, kwargs):
    body = args[1] if len(args) > 1 else kwargs.get("body")
    return body.get("request_id") if isinstance(body, dict) else None


def install(log) -> None:
    """Wrap every layer entry point; call before the program objects
    the run uses are built (explainers bind their predict path then)."""
    import repro.core.base as core_base
    import repro.datavalue.data_shapley as data_shapley
    import repro.obs.instrument as obs_instrument
    import repro.serve.server as serve_server
    import repro.shapley.sampling as shapley_sampling
    from repro.core.coalition_engine import CoalitionEngine
    from repro.datavalue.utility import UtilityFunction
    from repro.db import IntervalIndex, Query, Relation
    from repro.games.adapters import DataValueGame, FeatureMaskingGame
    from repro.models import GradientBoostingClassifier, LogisticRegression
    from repro.obs.trace import Tracer
    from repro.serve import Endpoint, ExplainServer

    patch = log.patch
    for model in (GradientBoostingClassifier, LogisticRegression):
        patch(model, "predict_proba", "models.predict", "models",
              rows_of=_rows)
        patch(model, "fit", "models.fit", "models")
    patch(core_base.AttributionExplainer, "explain_batch",
          "core.explain_batch", "core")
    patch(CoalitionEngine, "batch_value_matrix", "core.batch_value_matrix",
          "core")
    patch(FeatureMaskingGame, "value", "core.masking_value", "core")
    patch(shapley_sampling, "permutation_estimator", "games.estimator",
          "games")
    patch(data_shapley, "permutation_estimator", "games.estimator", "games")
    patch(DataValueGame, "value", "games.value", "games")
    patch(UtilityFunction, "__call__", "datavalue.utility", "datavalue")
    patch(ExplainServer, "handle_explain", "serve.handle_explain", "serve",
          op_of=_request_id)
    patch(Endpoint, "explain", "serve.compute", "serve")
    for method in ("supports", "lineage"):
        patch(IntervalIndex, method, "db.read", "db")
    for method in ("insert_leaf", "delete_leaf"):
        patch(IntervalIndex, method, "db.write", "db")
    patch(Query, "execute", "db.select", "db")
    for method in ("insert", "delete"):
        patch(Relation, method, "db.write", "db")
    patch(Tracer, "record", "obs.span", "obs")
    patch(obs_instrument, "record_run", "obs.ledger", "obs")
    patch(serve_server, "record_request", "obs.ledger", "obs")
    # The predict path is built per explainer as guard(meter(fn)); wrap
    # the two factories so each built function records its own span.
    _patch_factory(log, core_base, "guard_predict_fn", "robust.guard",
                   "robust")
    _patch_factory(log, core_base, "meter_predict_fn", "obs.meter", "obs")


def _patch_factory(log, module, attr: str, name: str, layer: str) -> None:
    factory = getattr(module, attr)

    @functools.wraps(factory)
    def traced_factory(fn, *args, **kwargs):
        built = factory(fn, *args, **kwargs)
        if built is fn:
            return fn
        return log.wrap(built, name, layer)

    log.swap(module, attr, traced_factory)
