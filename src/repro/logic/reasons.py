"""Sufficient reasons and prime implicants for tree classifiers.

Shih, Choi & Darwiche (2018) and Darwiche & Hirth (2020) explain a
classifier's decision with a *sufficient reason*: a subset-minimal set of
features whose current values force the prediction regardless of all
other features. On a decision tree the "is this subset sufficient?" check
is linear time (one pass over the tree's leaf paths), so
minimal reasons are found exactly; the same check applied to a black box
is exponential — the intractability the tutorial flags for model-agnostic
settings.

Also provided: necessity/sufficiency degree scores connecting these
logical notions to the probabilistic ones of §2.1.3 (a feature set is
sufficient iff its LEWIS-style sufficiency score is 1).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..core.explanation import Predicate, RuleExplanation
from ..models.tree import DecisionTreeClassifier

__all__ = [
    "possible_classes",
    "is_sufficient",
    "minimal_sufficient_reason",
    "all_minimal_sufficient_reasons",
    "necessary_features",
    "reason_to_rule",
]


def possible_classes(
    model: DecisionTreeClassifier, x: np.ndarray, fixed: set[int]
) -> set[int]:
    """Classes the tree can output when only ``fixed`` features keep x's
    values and all others range freely.

    A leaf is reachable exactly when x passes every test its path makes
    on a fixed feature (``lo < x <= hi`` in the tree's
    :meth:`~repro.models.tree.TreeStructure.leaf_paths` table).
    """
    x = np.asarray(x, dtype=float).ravel()
    tree = model.tree_
    paths = tree.leaf_paths()
    values = x[paths.feature]
    passes = (paths.lo < values) & (values <= paths.hi)
    held = np.isin(paths.feature, list(fixed))
    reachable = (passes | ~held).all(axis=1)
    return set(np.argmax(tree.value[paths.leaf[reachable]], axis=1).tolist())


def is_sufficient(
    model: DecisionTreeClassifier, x: np.ndarray, subset: set[int]
) -> bool:
    """True iff fixing ``subset`` to x's values forces the prediction."""
    return len(possible_classes(model, x, set(subset))) == 1


def minimal_sufficient_reason(
    model: DecisionTreeClassifier, x: np.ndarray
) -> set[int]:
    """One subset-minimal sufficient reason, by greedy deletion.

    Starts from the features actually tested on x's decision path (always
    sufficient) and drops features whose removal keeps sufficiency.
    Greedy deletion yields a subset-minimal (not necessarily
    cardinality-minimal) reason, matching the papers' definition.
    """
    x = np.asarray(x, dtype=float).ravel()
    path_features = {f for __, f, __, __ in model.tree_.decision_path(x)}
    reason = set(path_features)
    for feature in sorted(path_features):
        trial = reason - {feature}
        if is_sufficient(model, x, trial):
            reason = trial
    return reason


def all_minimal_sufficient_reasons(
    model: DecisionTreeClassifier, x: np.ndarray, max_features: int = 20
) -> list[set[int]]:
    """Every subset-minimal sufficient reason (exhaustive; small trees).

    Searches subsets of the decision-path features in increasing size and
    keeps those sufficient with no sufficient proper subset.
    """
    x = np.asarray(x, dtype=float).ravel()
    path_features = sorted(
        {f for __, f, __, __ in model.tree_.decision_path(x)}
    )
    if len(path_features) > max_features:
        raise ValueError(
            f"decision path tests {len(path_features)} features; "
            "exhaustive enumeration is capped"
        )
    minimal: list[set[int]] = []
    for size in range(0, len(path_features) + 1):
        for subset in combinations(path_features, size):
            candidate = set(subset)
            if any(m <= candidate for m in minimal):
                continue
            if is_sufficient(model, x, candidate):
                minimal.append(candidate)
    return minimal


def necessary_features(
    model: DecisionTreeClassifier, x: np.ndarray
) -> set[int]:
    """Features in *every* minimal sufficient reason.

    Equivalent to: dropping the feature from the full feature set breaks
    sufficiency — the logical counterpart of a necessity score of 1.
    """
    x = np.asarray(x, dtype=float).ravel()
    path_features = {f for __, f, __, __ in model.tree_.decision_path(x)}
    out = set()
    for feature in path_features:
        if not is_sufficient(model, x, path_features - {feature}):
            out.add(feature)
    return out


def reason_to_rule(
    model: DecisionTreeClassifier,
    x: np.ndarray,
    reason: set[int],
    feature_names: list[str] | None = None,
    reference: np.ndarray | None = None,
) -> RuleExplanation:
    """Render a sufficient reason as a human-readable interval rule.

    The logical guarantee of a sufficient reason is *pointwise*: with the
    reason features at exactly x's values, every completion of the free
    features yields the same prediction. Generalizing each reason feature
    from its exact value to its decision-path interval (done here, so the
    rule has nonzero coverage) is a heuristic — an off-path node may
    re-test a reason feature at a different threshold — so precision is
    measured empirically on ``reference`` rather than asserted to be 1.
    It is typically very close to 1 and exactly 1 at x itself.
    """
    x = np.asarray(x, dtype=float).ravel()
    predicates = []
    for node, feature, threshold, went_left in model.tree_.decision_path(x):
        if feature not in reason:
            continue
        name = feature_names[feature] if feature_names else f"x{feature}"
        op = "<=" if went_left else ">"
        predicates.append(Predicate(feature, op, float(threshold), name))
    prediction = float(model.predict(x[None, :])[0])
    rule = RuleExplanation(
        predicates=predicates,
        outcome=prediction,
        precision=1.0,
        coverage=0.0,
        method="sufficient_reason",
    )
    if reference is not None:
        reference = np.atleast_2d(np.asarray(reference, dtype=float))
        covered = rule.holds(reference)
        rule.coverage = float(np.mean(covered))
        if covered.any():
            rule.precision = float(
                np.mean(model.predict(reference[covered]) == prediction)
            )
    return rule
