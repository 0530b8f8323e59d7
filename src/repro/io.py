"""JSON serialization for models and explanation objects.

Explanations are evidence: audits and user studies need them stored,
diffed and re-rendered long after the Python session is gone. This
module round-trips the library's explanation objects and its main models
through plain JSON (no pickle — artifacts stay inspectable and safe to
load).

Use :func:`dump_explanation` / :func:`load_explanation` for any of the
four explanation types, and :func:`dump_model` / :func:`load_model` for
the linear, logistic, tree, forest and boosting models.
"""

from __future__ import annotations

import json

import numpy as np

from .core.explanation import (
    CounterfactualExplanation,
    DataAttribution,
    FeatureAttribution,
    Predicate,
    RuleExplanation,
)
from .models.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from .models.forest import RandomForestClassifier
from .models.linear import LinearRegression, RidgeRegression
from .models.logistic import LogisticRegression
from .models.tree import DecisionTreeClassifier, DecisionTreeRegressor, TreeStructure

__all__ = [
    "dump_explanation",
    "load_explanation",
    "dump_model",
    "load_model",
]


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _restore(value):
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.asarray(value["__ndarray__"], dtype=value["dtype"])
        return {k: _restore(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_restore(v) for v in value]
    return value


# -- explanations --------------------------------------------------------------


def dump_explanation(explanation) -> str:
    """Serialize any explanation object to a JSON string."""
    if isinstance(explanation, FeatureAttribution):
        payload = {
            "type": "feature_attribution",
            "values": explanation.values.tolist(),
            "feature_names": explanation.feature_names,
            "base_value": explanation.base_value,
            "prediction": explanation.prediction,
            "method": explanation.method,
            "meta": _jsonable(explanation.meta),
        }
    elif isinstance(explanation, RuleExplanation):
        payload = {
            "type": "rule",
            "predicates": [
                [p.feature, p.op, p.value, p.feature_name]
                for p in explanation.predicates
            ],
            "outcome": explanation.outcome,
            "precision": explanation.precision,
            "coverage": explanation.coverage,
            "method": explanation.method,
            "meta": _jsonable(explanation.meta),
        }
    elif isinstance(explanation, CounterfactualExplanation):
        payload = {
            "type": "counterfactual",
            "factual": explanation.factual.tolist(),
            "counterfactuals": explanation.counterfactuals.tolist(),
            "factual_outcome": explanation.factual_outcome,
            "target_outcome": explanation.target_outcome,
            "feature_names": explanation.feature_names,
            "method": explanation.method,
            "meta": _jsonable(explanation.meta),
        }
    elif isinstance(explanation, DataAttribution):
        payload = {
            "type": "data_attribution",
            "values": explanation.values.tolist(),
            "method": explanation.method,
            "meta": _jsonable(explanation.meta),
        }
    else:
        raise TypeError(
            f"cannot serialize {type(explanation).__name__}"
        )
    return json.dumps(payload)


def load_explanation(text: str):
    """Inverse of :func:`dump_explanation`."""
    payload = json.loads(text)
    kind = payload.get("type")
    if kind == "feature_attribution":
        return FeatureAttribution(
            values=np.asarray(payload["values"], dtype=float),
            feature_names=list(payload["feature_names"]),
            base_value=payload["base_value"],
            prediction=payload["prediction"],
            method=payload["method"],
            meta=_restore(payload["meta"]),
        )
    if kind == "rule":
        return RuleExplanation(
            predicates=[
                Predicate(int(f), op, float(v), name)
                for f, op, v, name in payload["predicates"]
            ],
            outcome=payload["outcome"],
            precision=payload["precision"],
            coverage=payload["coverage"],
            method=payload["method"],
            meta=_restore(payload["meta"]),
        )
    if kind == "counterfactual":
        return CounterfactualExplanation(
            factual=np.asarray(payload["factual"], dtype=float),
            counterfactuals=np.asarray(payload["counterfactuals"], dtype=float),
            factual_outcome=payload["factual_outcome"],
            target_outcome=payload["target_outcome"],
            feature_names=list(payload["feature_names"]),
            method=payload["method"],
            meta=_restore(payload["meta"]),
        )
    if kind == "data_attribution":
        return DataAttribution(
            values=np.asarray(payload["values"], dtype=float),
            method=payload["method"],
            meta=_restore(payload["meta"]),
        )
    raise ValueError(f"unknown explanation payload type {kind!r}")


# -- models ------------------------------------------------------------------------


def dump_model(model) -> str:
    """Serialize a fitted model to a JSON string."""
    if isinstance(model, (RidgeRegression, LinearRegression)):
        payload = {
            "type": "ridge",
            "alpha": model.alpha,
            "coef": model.coef_.tolist(),
            "intercept": model.intercept_,
        }
    elif isinstance(model, LogisticRegression):
        payload = {
            "type": "logistic",
            "alpha": model.alpha,
            "coef": model.coef_.tolist(),
            "intercept": model.intercept_,
            "classes": _jsonable(list(model.classes_)),
        }
    elif isinstance(model, (DecisionTreeClassifier, DecisionTreeRegressor)):
        classifier = isinstance(model, DecisionTreeClassifier)
        tree = model.tree_.to_dict()
        tree["value"] = tree["value"].tolist()  # nested lists in the JSON
        payload = {
            "type": "tree_classifier" if classifier else "tree_regressor",
            "tree": tree,
        }
        if classifier:
            payload["classes"] = _jsonable(list(model.classes_))
        payload["n_features"] = model.n_features_
    elif isinstance(model, RandomForestClassifier):
        payload = {
            "type": "forest",
            "classes": _jsonable(list(model.classes_)),
            "trees": [json.loads(dump_model(t)) for t in model.estimators_],
        }
    elif isinstance(model, (GradientBoostingClassifier, GradientBoostingRegressor)):
        payload = {
            "type": ("gbm_classifier"
                     if isinstance(model, GradientBoostingClassifier)
                     else "gbm_regressor"),
            "learning_rate": model.learning_rate,
            "init_raw": model.init_raw_,
            "stages": [json.loads(dump_model(t)) for t in model.estimators_],
        }
        if isinstance(model, GradientBoostingClassifier):
            payload["classes"] = _jsonable(list(model.classes_))
            payload["leaf_l2"] = model.leaf_l2
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return json.dumps(payload)


def _load_model_payload(payload: dict):
    kind = payload["type"]
    if kind == "ridge":
        model = RidgeRegression(alpha=payload["alpha"])
        model.coef_ = np.asarray(payload["coef"], dtype=float)
        model.intercept_ = float(payload["intercept"])
        model._n_features = model.coef_.shape[0]
        return model
    if kind == "logistic":
        model = LogisticRegression(alpha=payload["alpha"])
        model.coef_ = np.asarray(payload["coef"], dtype=float)
        model.intercept_ = float(payload["intercept"])
        model.classes_ = np.asarray(payload["classes"])
        model._n_features = model.coef_.shape[0]
        return model
    if kind == "tree_classifier":
        model = DecisionTreeClassifier()
        model.tree_ = TreeStructure.from_dict(payload["tree"])
        model.classes_ = np.asarray(payload["classes"])
        model.n_classes_ = len(model.classes_)
        model.n_features_ = payload["n_features"]
        return model
    if kind == "tree_regressor":
        model = DecisionTreeRegressor()
        model.tree_ = TreeStructure.from_dict(payload["tree"])
        model.n_features_ = payload["n_features"]
        return model
    if kind == "forest":
        model = RandomForestClassifier()
        model.classes_ = np.asarray(payload["classes"])
        model.estimators_ = [
            _load_model_payload(t) for t in payload["trees"]
        ]
        return model
    if kind in ("gbm_classifier", "gbm_regressor"):
        if kind == "gbm_classifier":
            model = GradientBoostingClassifier(
                learning_rate=payload["learning_rate"],
                leaf_l2=payload["leaf_l2"],
            )
            model.classes_ = np.asarray(payload["classes"])
        else:
            model = GradientBoostingRegressor(
                learning_rate=payload["learning_rate"]
            )
        model.init_raw_ = float(payload["init_raw"])
        model.estimators_ = [
            _load_model_payload(t) for t in payload["stages"]
        ]
        return model
    raise ValueError(f"unknown model payload type {kind!r}")


def load_model(text: str):
    """Inverse of :func:`dump_model`."""
    return _load_model_payload(json.loads(text))
