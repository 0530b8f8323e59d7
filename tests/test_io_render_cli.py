"""Tests for serialization, rendering and the CLI."""

import hashlib

import numpy as np
import pytest

from repro.core.explanation import (
    CounterfactualExplanation,
    DataAttribution,
    FeatureAttribution,
    Predicate,
    RuleExplanation,
)
from repro.datasets import make_classification
from repro.io import dump_explanation, dump_model, load_explanation, load_model
from repro.render import render


@pytest.fixture(scope="module")
def data():
    return make_classification(200, n_features=4, seed=55)


class TestExplanationRoundTrips:
    def test_feature_attribution(self):
        original = FeatureAttribution(
            values=np.array([1.5, -0.5]),
            feature_names=["a", "b"],
            base_value=0.25,
            prediction=1.25,
            method="test",
            meta={"budget": 10, "std": np.array([0.1, 0.2])},
        )
        restored = load_explanation(dump_explanation(original))
        assert np.allclose(restored.values, original.values)
        assert restored.feature_names == original.feature_names
        assert restored.additivity_gap() == pytest.approx(
            original.additivity_gap()
        )
        assert np.allclose(restored.meta["std"], original.meta["std"])

    def test_rule(self):
        original = RuleExplanation(
            predicates=[Predicate(0, ">", 1.0, "age"),
                        Predicate(2, "==", 3.0, "job")],
            outcome=1.0, precision=0.93, coverage=0.2, method="anchors",
        )
        restored = load_explanation(dump_explanation(original))
        X = np.array([[2.0, 0.0, 3.0], [0.5, 0.0, 3.0]])
        assert restored.holds(X).tolist() == original.holds(X).tolist()
        assert restored.precision == original.precision

    def test_counterfactual(self):
        original = CounterfactualExplanation(
            factual=np.array([1.0, 2.0]),
            counterfactuals=np.array([[1.0, 5.0]]),
            factual_outcome=0.2, target_outcome=1.0,
            feature_names=["a", "b"], method="geco",
        )
        restored = load_explanation(dump_explanation(original))
        assert restored.changes(0) == original.changes(0)

    def test_data_attribution(self):
        original = DataAttribution(np.array([0.5, -1.0, 0.2]), method="loo")
        restored = load_explanation(dump_explanation(original))
        assert restored.ranking().tolist() == original.ranking().tolist()

    def test_unknown_payload_rejected(self):
        with pytest.raises(ValueError):
            load_explanation('{"type": "hologram"}')
        with pytest.raises(TypeError):
            dump_explanation(object())


class TestModelRoundTrips:
    @pytest.mark.parametrize("factory", [
        lambda: __import__("repro.models", fromlist=["LogisticRegression"]
                           ).LogisticRegression(alpha=0.7),
        lambda: __import__("repro.models", fromlist=["RidgeRegression"]
                           ).RidgeRegression(alpha=0.3),
    ])
    def test_linear_models(self, factory, data):
        model = factory()
        y = data.y if hasattr(model, "predict_proba") else data.X[:, 0]
        model.fit(data.X, y)
        restored = load_model(dump_model(model))
        assert np.allclose(restored.predict(data.X), model.predict(data.X))

    def test_tree_classifier(self, data):
        from repro.models import DecisionTreeClassifier

        model = DecisionTreeClassifier(max_depth=4, seed=0).fit(data.X, data.y)
        restored = load_model(dump_model(model))
        assert np.allclose(
            restored.predict_proba(data.X), model.predict_proba(data.X)
        )

    def test_forest(self, data):
        from repro.models import RandomForestClassifier

        model = RandomForestClassifier(
            n_estimators=5, max_depth=3, seed=0
        ).fit(data.X, data.y)
        restored = load_model(dump_model(model))
        assert np.allclose(
            restored.predict_proba(data.X), model.predict_proba(data.X)
        )

    def test_gbm_and_treeshap_on_restored(self, data):
        from repro.models import GradientBoostingClassifier
        from repro.shapley import TreeShapExplainer

        model = GradientBoostingClassifier(
            n_estimators=6, max_depth=2, seed=0
        ).fit(data.X, data.y)
        restored = load_model(dump_model(model))
        assert np.allclose(
            restored.decision_function(data.X),
            model.decision_function(data.X),
        )
        # restored models stay explainable
        a = TreeShapExplainer(model).explain(data.X[0]).values
        b = TreeShapExplainer(restored).explain(data.X[0]).values
        assert np.allclose(a, b)

    # sha256 of dump_model's text, frozen from the per-field tree
    # serializer that TreeStructure.to_dict/from_dict replaced.
    FROZEN_DUMPS = {
        "tree_classifier":
            "7597d5fc204931d57479bbe17a8bae1cb2d6e416ed0054c8a7f18b3ba5faf3d8",
        "tree_regressor":
            "382a7bd26effbdbcf61b7840b32c2acb4788e59fbfbe51ce7193b964c322fa80",
        "forest":
            "17171a227eb67b88e10d51e7ba6a3dc11f58848c0d38e2404340dd2a27efa854",
        "gbm_classifier":
            "ba046b2722d7615dae03d34e85ef842b4f0f2f995f63922eede3b79bb435d478",
        "gbm_regressor":
            "6a50d5a6470c8dddecfe97d58ee5e7c46f41936a107f5ed7091962c741a7655b",
    }

    @pytest.mark.parametrize("kind", sorted(FROZEN_DUMPS))
    def test_tree_dumps_match_frozen_text(self, kind, data):
        from repro import models

        y = data.y
        if kind == "tree_classifier":
            model = models.DecisionTreeClassifier(max_depth=4, seed=0)
        elif kind == "tree_regressor":
            model = models.DecisionTreeRegressor(max_depth=4, seed=0)
            y = data.X[:, 0] - 2.0 * data.X[:, 1] ** 2
        elif kind == "forest":
            model = models.RandomForestClassifier(
                n_estimators=5, max_depth=3, seed=0
            )
        elif kind == "gbm_classifier":
            model = models.GradientBoostingClassifier(
                n_estimators=6, max_depth=2, seed=0
            )
        else:
            model = models.GradientBoostingRegressor(
                n_estimators=6, max_depth=2, seed=0
            )
            y = data.X[:, 0] - 2.0 * data.X[:, 1] ** 2
        text = dump_model(model.fit(data.X, y))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            self.FROZEN_DUMPS[kind]
        restored = load_model(text)
        assert dump_model(restored) == text
        assert np.array_equal(restored.predict(data.X), model.predict(data.X))

    def test_unsupported_model(self):
        with pytest.raises(TypeError):
            dump_model(object())


class TestRender:
    def test_attribution_bars(self):
        att = FeatureAttribution(
            np.array([2.0, -1.0, 0.1]), ["big", "neg", "tiny"],
            prediction=1.1, method="shap",
        )
        text = render(att, top=3)
        assert "[shap]" in text and "big" in text
        assert "█" in text
        # the most important feature comes first
        assert text.index("big") < text.index("neg") < text.index("tiny")

    def test_rule_card(self):
        rule = RuleExplanation(
            [Predicate(0, ">", 5.0, "income")], 1.0, 0.95, 0.3, method="anchor"
        )
        text = render(rule)
        assert "IF" in text and "income > 5" in text and "0.950" in text

    def test_counterfactual_table(self):
        cf = CounterfactualExplanation(
            np.array([1.0, 2.0]), np.array([[1.0, 4.0]]),
            0.2, 1.0, ["a", "b"], method="dice",
        )
        text = render(cf)
        assert "b: 2 -> 4" in text

    def test_data_attribution_listing(self):
        att = DataAttribution(np.array([0.1, -2.0, 3.0]))
        text = render(att, top=1)
        assert "point 1" in text and "point 2" in text

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            render(42)


class TestCli:
    def test_info_runs(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "subpackages" in out

    def test_experiments_lists_benchmarks(self, capsys):
        from repro.cli import main

        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "E01" in out and "E07" in out

    def test_examples_lists_scripts(self, capsys):
        from repro.cli import main

        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "quickstart.py" in out

    def test_no_command_prints_help(self, capsys):
        from repro.cli import main

        assert main([]) == 2
