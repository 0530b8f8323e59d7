"""Seeded property tests of the Shapley axioms, per game family.

:func:`repro.games.estimators.exact_enumeration` is the library's
ground-truth oracle, so it should satisfy the four axioms that uniquely
characterize the Shapley value [Shapley 1953] on every game adapter:

* **efficiency** — Σ_i φ_i = v(N) − v(∅);
* **symmetry** — players with identical marginal contributions to every
  coalition get identical values;
* **dummy** — a player whose marginal contribution is always zero gets
  value zero;
* **linearity** — φ(αu + βw) = αφ(u) + βφ(w).

Symmetry/dummy/linearity need games where the property holds *by
construction* (duplicate background columns, zero-weight features,
additive queries, noiseless SCMs), so each family builds its own
fixtures; stochastic games (the seeded SCM samplers) get their axioms
checked on a noiseless SCM where the value function is an exact
deterministic function of the mask, plus an efficiency check in the
stochastic regime via the drawn value table itself.

The approximate estimators are held to the axioms they claim:
permutation walks telescope (efficiency to fp round-off) and the kernel
WLS solver imposes efficiency as a hard constraint, so both are checked
within tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_classification
from repro.datavalue.utility import UtilityFunction
from repro.db.relation import Relation
from repro.games.adapters import (
    DataValueGame,
    FeatureMaskingGame,
    InterventionalGame,
    TopologicalGame,
    TupleProvenanceGame,
)
from repro.games.estimators import (
    all_coalitions,
    exact_enumeration,
    kernel_wls_estimator,
    permutation_estimator,
)
from repro.models import LogisticRegression
from repro.models.model_selection import train_test_split

ATOL = 1e-12


def masks_in_enumeration_order(n: int) -> np.ndarray:
    subsets = all_coalitions(n)
    masks = np.zeros((len(subsets), n), dtype=bool)
    for row, subset in enumerate(subsets):
        masks[row, list(subset)] = True
    return masks


def grand_minus_empty(game) -> float:
    n = game.n_players
    empty = float(np.asarray(game.value(np.zeros((1, n), dtype=bool)))[0])
    grand = float(np.asarray(game.value(np.ones((1, n), dtype=bool)))[0])
    return grand - empty


# ------------------------------------------------------ feature masking


def linear_predict(weights):
    w = np.asarray(weights, dtype=float)
    return lambda X: np.atleast_2d(X) @ w


@pytest.fixture(scope="module")
def masking_parts():
    rng = np.random.default_rng(21)
    background = rng.normal(size=(20, 4))
    background[:, 1] = background[:, 0]  # columns 0 and 1 exchangeable
    x = np.array([0.8, 0.8, -1.2, 2.0])
    return background, x


def test_masking_efficiency(masking_parts):
    background, x = masking_parts
    game = FeatureMaskingGame(linear_predict([1.0, -2.0, 0.5, 0.25]), x,
                              background=background)
    phi = exact_enumeration(game)
    assert abs(phi.sum() - grand_minus_empty(game)) < 1e-9


def test_masking_symmetry_and_dummy(masking_parts):
    background, x = masking_parts
    # w0 == w1 on identical columns with x0 == x1 → symmetric; w3 == 0
    # → feature 3 never moves the output → dummy.
    game = FeatureMaskingGame(linear_predict([1.5, 1.5, -2.0, 0.0]), x,
                              background=background)
    phi = exact_enumeration(game)
    assert abs(phi[0] - phi[1]) < ATOL
    assert abs(phi[3]) < ATOL


def test_masking_linearity(masking_parts):
    background, x = masking_parts
    w_u, w_w = [1.0, -1.0, 2.0, 0.5], [0.5, 2.0, -0.5, 1.0]
    alpha, beta = 2.0, -0.75

    def phi_of(weights):
        return exact_enumeration(FeatureMaskingGame(
            linear_predict(weights), x, background=background))

    combined = alpha * np.asarray(w_u) + beta * np.asarray(w_w)
    assert np.allclose(phi_of(combined),
                       alpha * phi_of(w_u) + beta * phi_of(w_w), atol=1e-9)


# ---------------------------------------------------------- data values


class _ToyUtility:
    """Additive closed-form utility: U(S) = Σ_{i∈S} weight_i.

    Additivity makes every axiom checkable in closed form (φ_i is
    exactly weight_i) while still driving the real
    :class:`DataValueGame` mask → index-set → utility path.
    """

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)
        self.n_points = int(self.weights.shape[0])
        self.empty_score = 0.0

    def full_score(self) -> float:
        return float(self.weights.sum())

    def __call__(self, indices) -> float:
        return float(self.weights[np.asarray(indices, dtype=int)].sum())


def test_datavalue_axioms_closed_form():
    weights = np.array([0.5, 0.5, -1.0, 0.0, 2.0])
    game = DataValueGame(_ToyUtility(weights))
    phi = exact_enumeration(game)
    assert np.allclose(phi, weights, atol=ATOL)  # efficiency + all axioms
    assert abs(phi[0] - phi[1]) < ATOL           # symmetry
    assert abs(phi[3]) < ATOL                    # dummy


def test_datavalue_linearity():
    u, w = np.array([1.0, 2.0, -0.5, 0.0]), np.array([0.5, -1.0, 1.5, 2.0])
    alpha, beta = 3.0, -0.5
    phi_u = exact_enumeration(DataValueGame(_ToyUtility(u)))
    phi_w = exact_enumeration(DataValueGame(_ToyUtility(w)))
    phi_c = exact_enumeration(DataValueGame(_ToyUtility(alpha * u + beta * w)))
    assert np.allclose(phi_c, alpha * phi_u + beta * phi_w, atol=ATOL)


def test_datavalue_retraining_efficiency_and_symmetry():
    """The real retraining utility: duplicated training points are
    exchangeable, and efficiency holds on the actual fitted scores."""
    data = make_classification(50, n_features=3, n_informative=2,
                               class_sep=2.0, seed=13)
    Xtr, Xv, ytr, yv = train_test_split(data.X, data.y, test_size=0.4, seed=0)
    Xtr, ytr = Xtr[:6].copy(), ytr[:6].copy()
    Xtr[1], ytr[1] = Xtr[0], ytr[0]  # points 0 and 1 identical
    utility = UtilityFunction(lambda: LogisticRegression(alpha=1.0),
                              Xtr, ytr, Xv, yv)
    game = DataValueGame(utility)
    phi = exact_enumeration(game)
    assert abs(phi.sum() - (utility.full_score() - utility.empty_score)) < 1e-9
    assert abs(phi[0] - phi[1]) < ATOL


# ----------------------------------------------------- tuple provenance


def group_count_query(group):
    return lambda r: float(sum(1 for t in r.rows if t[1] == group))


@pytest.fixture(scope="module")
def relation():
    # groups: 0,0,1,1,2,2 — tuples 0/1 exchangeable for group-0 queries,
    # tuples 4/5 dummies for them.
    return Relation(["id", "grp"], [(i, i // 2) for i in range(6)])


def test_tuple_efficiency(relation):
    query = lambda r: (sum(1 for t in r.rows if t[1] == 0) * 2.0
                       + len(r.rows) * 0.1)
    game = TupleProvenanceGame(relation, query)
    phi = exact_enumeration(game)
    assert abs(phi.sum() - grand_minus_empty(game)) < 1e-9


def test_tuple_symmetry_and_dummy(relation):
    game = TupleProvenanceGame(relation, group_count_query(0))
    phi = exact_enumeration(game)
    assert abs(phi[0] - phi[1]) < ATOL  # same group, additive query
    assert np.allclose(phi[2:], 0.0, atol=ATOL)  # other groups never count


def test_tuple_linearity(relation):
    alpha, beta = 2.0, 5.0
    q0, q1 = group_count_query(0), group_count_query(1)
    combined = lambda r: alpha * q0(r) + beta * q1(r)
    phi0 = exact_enumeration(TupleProvenanceGame(relation, q0))
    phi1 = exact_enumeration(TupleProvenanceGame(relation, q1))
    phi_c = exact_enumeration(TupleProvenanceGame(relation, combined))
    assert np.allclose(phi_c, alpha * phi0 + beta * phi1, atol=ATOL)


# ------------------------------------------------- causal (noiseless SCM)


def make_noiseless_scm():
    """Three independent roots with zero noise: un-intervened variables
    are exactly 0, so v(S) is a deterministic function of the mask."""
    from repro.causal.scm import StructuralCausalModel

    scm = StructuralCausalModel()
    zero = lambda rng, n: np.zeros(n)
    for name in ("a", "b", "c"):
        scm.add_variable(name, [], lambda p, u: u, noise=zero)
    return scm


def make_noisy_chain_scm():
    from repro.causal.scm import StructuralCausalModel, linear_mechanism

    scm = StructuralCausalModel()
    scm.add_variable("a", [], lambda p, u: u,
                     noise=lambda rng, n: rng.normal(0, 1, n))
    scm.add_variable("b", ["a"], linear_mechanism({"a": 2.0}),
                     noise=lambda rng, n: rng.normal(0, 0.5, n))
    scm.add_variable("c", ["b"], linear_mechanism({"b": 1.5}),
                     noise=lambda rng, n: rng.normal(0, 0.5, n))
    return scm


ORDER = ["a", "b", "c"]
X_CAUSAL = np.array([1.0, 1.0, -2.0])


@pytest.mark.parametrize("family", ["topological", "interventional"])
def test_causal_axioms_noiseless(family):
    def make(weights):
        model = linear_predict(weights)
        if family == "topological":
            return TopologicalGame(make_noiseless_scm(), model, ORDER,
                                   X_CAUSAL, n_samples=10, seed=4)
        return InterventionalGame(make_noiseless_scm(), model, ORDER,
                                  X_CAUSAL, n_samples=10, seed=4)

    # w0·x0 == w1·x1 → symmetric; w2 == 0 → dummy.
    phi = exact_enumeration(make([2.0, 2.0, 0.0]))
    assert abs(phi[0] - phi[1]) < ATOL
    assert abs(phi[2]) < ATOL
    phi_eff = exact_enumeration(make([1.0, -1.5, 0.5]))
    eff_game = make([1.0, -1.5, 0.5])
    assert abs(phi_eff.sum() - grand_minus_empty(eff_game)) < 1e-9
    # Linearity in the model (identical draws under identical seeds).
    alpha, beta = 1.5, -2.0
    w_u, w_w = np.array([1.0, 0.5, 2.0]), np.array([-0.5, 1.0, 0.25])
    phi_u = exact_enumeration(make(w_u))
    phi_w = exact_enumeration(make(w_w))
    phi_c = exact_enumeration(make(alpha * w_u + beta * w_w))
    assert np.allclose(phi_c, alpha * phi_u + beta * phi_w, atol=1e-9)


@pytest.mark.parametrize("family", ["topological", "interventional"])
def test_causal_efficiency_stochastic(family):
    """In the stochastic regime, efficiency holds against the value table
    the enumeration actually drew — replayed by a fresh identical-seed
    game evaluating the same masks in the same row order."""
    model = linear_predict([1.0, 0.5, 2.0])

    def make():
        scm = make_noisy_chain_scm()
        if family == "topological":
            return TopologicalGame(scm, model, ORDER, X_CAUSAL,
                                   n_samples=40, seed=7)
        return InterventionalGame(scm, model, ORDER, X_CAUSAL,
                                  n_samples=40, seed=7)

    phi = exact_enumeration(make())
    masks = masks_in_enumeration_order(len(ORDER))
    replay = make()
    if hasattr(replay, "value_at"):
        table = replay.value_at(np.arange(masks.shape[0]), masks)
    else:
        table = replay.value(masks)
    assert abs(phi.sum() - (table[-1] - table[0])) < 1e-9


# --------------------------------------- approximate-estimator efficiency


def test_permutation_estimator_efficiency_within_tolerance(masking_parts):
    background, x = masking_parts
    game = FeatureMaskingGame(linear_predict([1.0, -2.0, 0.5, 0.25]), x,
                              background=background)
    est = permutation_estimator(game, n_permutations=8, seed=0)
    # Every walk telescopes to v(N) − v(∅); the mean of walks does too.
    assert abs(est.values.sum() - grand_minus_empty(game)) < 1e-8


def test_kernel_estimator_efficiency_within_tolerance(masking_parts):
    background, x = masking_parts
    game = FeatureMaskingGame(linear_predict([1.0, -2.0, 0.5, 0.25]), x,
                              background=background)
    phi, base = kernel_wls_estimator(game, n_samples=32, seed=0)
    n = game.n_players
    grand = float(np.asarray(game.value(np.ones((1, n), dtype=bool)))[0])
    # The WLS solver eliminates one variable against the efficiency
    # constraint, so the identity is structural, not statistical.
    assert abs(phi.sum() - (grand - base)) < 1e-8
