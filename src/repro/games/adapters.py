"""Game adapters: the five Shapley families as cooperative games.

Each adapter reduces one of the repo's workloads to the
:class:`repro.games.base.Game` protocol so the shared estimators in
:mod:`repro.games.estimators` (and through them the caching, chunking,
budget and telemetry machinery of :mod:`repro.games.engine`) apply
uniformly:

=======================  ====================================================
Adapter                  Players / value of a coalition S
=======================  ====================================================
FeatureMaskingGame       features / E_b[f(x_S, b_{N∖S})] over a background
                         sample (kernel, sampling and exact SHAP)
DataValueGame            training points / validation score of a model
                         retrained on S (Data, Beta, distributional Shapley)
TupleProvenanceGame      endogenous tuples / query answer on S plus the
                         exogenous context (Shapley of tuples, repairs)
TopologicalGame          features / E[f(X) | do(X_S = x_S)] under an SCM,
                         walks restricted to topological orders (ASV)
InterventionalGame       features / do()-interventional value with the
                         direct/indirect decomposition (causal Shapley)
GradientGame             training points / path-dependent SGD walk value
                         (G-Shapley)
=======================  ====================================================

Games over guarded predict functions declare ``guarded=True`` (budgets
are charged at the model layer); pure-Python games (utility refits,
relational queries, SGD passes) leave it ``False`` and get budget
charging and transient retries from the shared evaluator instead.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.coalition_engine import CoalitionEngine, broadcast_expand
from ..models.metrics import accuracy
from ..persist.protocol import register_serializable
from .base import BaseGame

__all__ = [
    "FeatureMaskingGame",
    "DataValueGame",
    "TupleProvenanceGame",
    "TopologicalGame",
    "InterventionalGame",
    "GradientGame",
    "sample_topological_order",
]


@register_serializable("games.FeatureMaskingGame")
class FeatureMaskingGame(BaseGame):
    """Features vs. the interventional masking value function.

    ``value`` computes only its own rows: broadcast-expand each
    coalition against the engine's background, predict, and average
    each coalition's block. Caching, chunking and chunk retries come
    from :func:`repro.games.engine.game_value_function`, which reads the
    game's ``cache`` store (built by
    :meth:`~repro.core.coalition_engine.CoalitionEngine.new_store`) and
    the engine's ``max_batch_rows`` / ``chunk_retries`` off the game —
    so every evaluator built over one game shares one store.

    Transport: ``__getstate__`` reduces the game to its rebuild recipe —
    the underlying *model* (via the predict function's
    ``__repro_spec__``), the instance, the already-subsampled background
    and the engine knobs. ``__setstate__`` re-normalizes the model and
    rebuilds the engine, so a spawn worker (or a persisted copy) gets an
    equivalent game with a fresh, empty store — values are
    deterministic, so worker evaluations are bitwise-identical and new
    cache entries ship back as deltas. A raw predict callable without a
    spec rides along as-is; if it cannot pickle, the spawn backend
    degrades to threads.
    """

    deterministic = True
    guarded = True

    def __init__(
        self,
        predict_fn: Callable[[np.ndarray], np.ndarray],
        x: np.ndarray,
        background: np.ndarray | None = None,
        engine: CoalitionEngine | None = None,
        max_background: int = 100,
        max_batch_rows: int | None = None,
        cache: bool = True,
    ) -> None:
        if engine is None:
            if background is None:
                raise ValueError(
                    "FeatureMaskingGame needs a background sample or an engine"
                )
            engine = CoalitionEngine(
                background,
                max_background=max_background,
                max_batch_rows=max_batch_rows,
            )
        self.engine = engine
        self.x = np.asarray(x, dtype=float).ravel()
        self.n_players = self.x.shape[0]
        self.rows_per_coalition = engine.n_background
        self.max_batch_rows = engine.max_batch_rows
        self.chunk_retries = engine.chunk_retries
        self._predict_fn = predict_fn
        self._cache_flag = cache
        self.cache = engine.new_store(self.x, cache)

    def value(self, coalitions: np.ndarray) -> np.ndarray:
        rows = broadcast_expand(self.x, coalitions, self.engine.background)
        preds = np.asarray(self._predict_fn(rows), dtype=float).ravel()
        return preds.reshape(-1, self.rows_per_coalition).mean(axis=1)

    def __getstate__(self) -> dict:
        spec = getattr(self._predict_fn, "__repro_spec__", None)
        return {
            "model": spec["model"] if spec else self._predict_fn,
            "output": spec["output"] if spec else "auto",
            "guard": spec["guard"] if spec else None,
            "x": self.x,
            "background": self.engine.background,
            "max_batch_rows": self.engine.max_batch_rows,
            "chunk_retries": self.engine.chunk_retries,
            "cache": self._cache_flag,
        }

    def __setstate__(self, state: dict) -> None:
        # Deferred import: core.base imports the exec layer at module
        # init, which would cycle through games at package-import time.
        from ..core.base import as_predict_fn

        background = np.atleast_2d(np.asarray(state["background"],
                                              dtype=float))
        engine = CoalitionEngine(
            background,
            # Already subsampled at original construction; keep verbatim.
            max_background=background.shape[0],
            max_batch_rows=state["max_batch_rows"],
            chunk_retries=state["chunk_retries"],
        )
        predict_fn = as_predict_fn(
            state["model"], state["output"], guard=state["guard"]
        )
        self.__init__(predict_fn, state["x"], engine=engine,
                      cache=state["cache"])

    def to_dict(self) -> dict:
        """Persist the rebuild recipe; needs a registered model.

        A game over a bare closure has no serializable model — the
        encode layer rejects it with a :class:`PayloadError` naming the
        offending type.
        """
        return self.__getstate__()

    @classmethod
    def from_dict(cls, payload: dict) -> "FeatureMaskingGame":
        obj = cls.__new__(cls)
        obj.__setstate__(payload)
        return obj


class DataValueGame(BaseGame):
    """Training points vs. the retraining utility U(S).

    Wraps a :class:`repro.datavalue.utility.UtilityFunction` (or any
    callable taking an index array). The utility's own prefix memo and
    the evaluator's packed-bit mask cache stack: the memo deduplicates
    across estimators sharing one utility, the mask cache short-circuits
    the index conversion entirely.
    """

    deterministic = True
    guarded = False

    def __init__(self, utility) -> None:
        self.utility = utility
        self.n_players = int(utility.n_points)

    @property
    def empty_value(self) -> float:
        return self.utility.empty_score

    def grand_value(self) -> float:
        return self.utility.full_score()

    def export_shard_state(self):
        """Snapshot the utility's memo + counters for a shard-merge.

        The parent captures this *before* dispatch; each worker captures
        it again *after* running its shard. :meth:`merge_shard_state`
        then folds the worker's memo entries in (idempotent — values are
        deterministic per index set) and re-counts the evaluation/cache
        counters as deltas against the pre-dispatch baseline, so
        ``datavalue.cache.hits`` / ``.misses`` and ``n_evaluations``
        aggregate instead of staying process-local (the PR 5 undercount
        fix).
        """
        u = self.utility
        return {
            "memo": dict(getattr(u, "_cache", {})),
            "n_evaluations": int(getattr(u, "n_evaluations", 0)),
            "cache_hits": int(getattr(u, "cache_hits", 0)),
            "cache_misses": int(getattr(u, "cache_misses", 0)),
        }

    def merge_shard_state(self, before, after) -> None:
        """Fold one worker's utility state back in (see export)."""
        u = self.utility
        if hasattr(u, "_cache"):
            u._cache.update(after["memo"])
        for attr in ("n_evaluations", "cache_hits", "cache_misses"):
            delta = after[attr] - before[attr]
            if delta > 0 and hasattr(u, attr):
                setattr(u, attr, getattr(u, attr) + delta)

    def value(self, coalitions: np.ndarray) -> np.ndarray:
        coalitions = np.atleast_2d(np.asarray(coalitions, dtype=bool))
        out = np.zeros(coalitions.shape[0])
        for row, mask in enumerate(coalitions):
            out[row] = self.utility(np.flatnonzero(mask))
        return out


class TupleProvenanceGame(BaseGame):
    """Endogenous tuples vs. the query answer on the sub-database.

    The value of S is ``query`` evaluated on the relation containing S
    plus every exogenous tuple — the cooperative game of Livshits et
    al.'s Shapley-of-tuples and of Deutch et al.'s repair-responsibility
    (where ``query`` counts FD violations).
    """

    deterministic = True
    guarded = False

    def __init__(self, relation, query, endogenous: list[int] | None = None
                 ) -> None:
        if endogenous is None:
            endogenous = list(range(len(relation)))
        self.relation = relation
        self.query = query
        self.endogenous = list(endogenous)
        endo = set(self.endogenous)
        self.exogenous = [i for i in range(len(relation)) if i not in endo]
        self.n_players = len(self.endogenous)
        self.player_names = [f"t{i}" for i in self.endogenous]

    def value(self, masks: np.ndarray) -> np.ndarray:
        masks = np.atleast_2d(np.asarray(masks, dtype=bool))
        out = np.zeros(masks.shape[0])
        relation = self.relation
        for row, mask in enumerate(masks):
            keep = sorted(
                self.exogenous
                + [self.endogenous[j] for j in range(self.n_players)
                   if mask[j]]
            )
            # subset() shares the schema/semiring and skips per-row
            # validation — the hot allocation of coalition evaluation.
            out[row] = float(self.query(relation.subset(keep)))
        return out


def sample_topological_order(
    parents_of: Callable[[str], list[str]],
    feature_order: list[str],
    rng: np.random.Generator,
) -> np.ndarray:
    """A random linear extension of a DAG over the listed features.

    Kahn's algorithm with uniform random tie-breaking; only edges among
    the listed features constrain the order.
    """
    index = {name: j for j, name in enumerate(feature_order)}
    remaining_parents = {
        name: {p for p in parents_of(name) if p in index}
        for name in feature_order
    }
    available = [name for name, ps in remaining_parents.items() if not ps]
    order: list[int] = []
    placed: set[str] = set()
    while available:
        pick = available.pop(rng.integers(0, len(available)))
        order.append(index[pick])
        placed.add(pick)
        for name in feature_order:
            if name in placed or name in available:
                continue
            if remaining_parents[name] <= placed:
                available.append(name)
    if len(order) != len(feature_order):
        raise RuntimeError("DAG over the features is not acyclic")
    return np.asarray(order)


class TopologicalGame(BaseGame):
    """Features vs. an SCM value function, walks in topological order.

    Asymmetric Shapley values are the uniform-Shapley estimator with the
    permutation distribution restricted to linear extensions of the
    causal DAG — expressed here as a ``permutation_sampler`` the shared
    estimator picks up automatically.

    When the value function is position-seeded (the default
    interventional one draws with ``seed + row``), the game exposes
    ``value_at`` and declares itself deterministic, so the evaluator
    caches by ``(walk position, mask)`` — every walk re-evaluates ∅ and
    the short prefixes, and those now hit the cache with values bitwise
    identical to the legacy loop's. A custom ``value_fn`` without
    position support stays uncached and is evaluated per walk exactly
    as before.
    """

    guarded = True

    def __init__(
        self,
        scm,
        predict_fn: Callable[[np.ndarray], np.ndarray] | None,
        feature_order: list[str],
        x: np.ndarray,
        n_samples: int = 400,
        seed: int = 0,
        value_fn=None,
    ) -> None:
        self.scm = scm
        self.feature_order = list(feature_order)
        self.x = np.asarray(x, dtype=float).ravel()
        self.n_players = len(self.feature_order)
        self.player_names = list(self.feature_order)
        self.seed = seed
        if value_fn is None:
            from ..causal.values import interventional_value_function

            value_fn = interventional_value_function(
                scm, predict_fn, self.feature_order, self.x,
                n_samples=n_samples, seed=seed,
            )
        self._v = value_fn
        if getattr(value_fn, "supports_positions", False):
            self.deterministic = True
            self.value_at = self._value_at

    def permutation_sampler(self, rng: np.random.Generator) -> np.ndarray:
        return sample_topological_order(
            self.scm.parents, self.feature_order, rng
        )

    def value(self, coalitions: np.ndarray) -> np.ndarray:
        return self._v(coalitions)

    def _value_at(self, positions: np.ndarray, coalitions: np.ndarray
                  ) -> np.ndarray:
        return self._v(coalitions, positions=positions)


class InterventionalGame(BaseGame):
    """Causal Shapley's game, owning the direct/indirect decomposition.

    Heskes et al. split each marginal contribution into a direct part
    (plug x_i into the model under the old intervention) and an indirect
    part (the do(X_i = x_i) shift of i's descendants). Both need *two*
    SCM expectations per walk step with a global seed counter, so the
    game implements ``walk_contributions`` — the shared estimator hands
    it whole permutations and the game accumulates ``direct_sums`` /
    ``indirect_sums`` exactly as the legacy loop did.

    The stepping seed counter makes evaluation order *part of the
    semantics*, so the game is not shardable: workers evaluating
    disjoint walks would each start from their own counter copy and
    diverge from the serial draw sequence. The exec backend serial-falls
    back (bitwise-identical by construction).
    """

    guarded = True
    deterministic = False
    shardable = False

    def __init__(
        self,
        scm,
        predict_fn: Callable[[np.ndarray], np.ndarray],
        feature_order: list[str],
        x: np.ndarray,
        n_samples: int = 400,
        seed: int = 0,
    ) -> None:
        self.scm = scm
        self.predict_fn = predict_fn
        self.feature_order = list(feature_order)
        self.x = np.asarray(x, dtype=float).ravel()
        self.n_players = len(self.feature_order)
        self.player_names = list(self.feature_order)
        self.n_samples = n_samples
        self.seed = seed
        self._counter = 0
        self.direct_sums = np.zeros(self.n_players)
        self.indirect_sums = np.zeros(self.n_players)
        self.n_walks = 0

    def _expectation(
        self,
        interventions: dict[str, float],
        plug_in: dict[int, float],
        seed: int,
    ) -> float:
        """E[f(X̃)] where X ~ do(interventions) and X̃ overrides columns."""
        values = self.scm.sample(self.n_samples, seed=seed,
                                 interventions=interventions)
        X = np.column_stack([values[name] for name in self.feature_order])
        for j, value in plug_in.items():
            X[:, j] = value
        return float(np.mean(self.predict_fn(X)))

    def value(self, coalitions: np.ndarray) -> np.ndarray:
        """Plain interventional v(S) (consumes seed-counter draws)."""
        coalitions = np.atleast_2d(np.asarray(coalitions, dtype=bool))
        out = np.zeros(coalitions.shape[0])
        for row, mask in enumerate(coalitions):
            interventions = {
                self.feature_order[j]: float(self.x[j])
                for j in range(self.n_players)
                if mask[j]
            }
            out[row] = self._expectation(
                interventions, {}, seed=self.seed + self._counter
            )
            self._counter += 1
        return out

    def walk_contributions(self, perm: np.ndarray) -> np.ndarray:
        contrib = np.zeros(self.n_players)
        coalition: dict[str, float] = {}
        plugged: dict[int, float] = {}
        v_prev = self._expectation(
            coalition, plugged, seed=self.seed + self._counter
        )
        self._counter += 1
        for player in perm:
            name = self.feature_order[player]
            # Direct: plug x_i into the model under the old intervention.
            v_direct = self._expectation(
                coalition, {**plugged, player: float(self.x[player])},
                seed=self.seed + self._counter,
            )
            self._counter += 1
            # Full: actually intervene, shifting descendants too.
            coalition[name] = float(self.x[player])
            plugged[player] = float(self.x[player])
            v_full = self._expectation(
                coalition, plugged, seed=self.seed + self._counter
            )
            self._counter += 1
            self.direct_sums[player] += v_direct - v_prev
            self.indirect_sums[player] += v_full - v_direct
            contrib[player] = v_full - v_prev
            v_prev = v_full
        self.n_walks += 1
        return contrib

    def base_value(self) -> float:
        """v(∅) at the *current* seed counter (the legacy convention:
        the base is drawn after all walks, so its draws depend on the
        number of expectations consumed)."""
        return self._expectation({}, {}, seed=self.seed + self._counter)


class GradientGame(BaseGame):
    """G-Shapley's path-dependent game over training points.

    One permutation walk is one online-SGD epoch: each point's marginal
    contribution is the validation-metric change caused by its own
    gradient step. The walk is inherently sequential and stateful, so
    the game owns it via ``walk_contributions`` — and is not shardable
    for the same reason (the exec backend serial-falls back).
    """

    guarded = False
    deterministic = False
    shardable = False

    def __init__(
        self,
        model_factory,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_val: np.ndarray,
        y_val: np.ndarray,
        learning_rate: float = 0.05,
        metric=accuracy,
    ) -> None:
        self.model_factory = model_factory
        self.X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
        self.y_train = np.asarray(y_train).ravel()
        self.X_val = X_val
        self.y_val = y_val
        self.learning_rate = learning_rate
        self.metric = metric
        self.n_players = self.X_train.shape[0]
        self.classes = np.unique(self.y_train)
        if self.classes.size != 2:
            raise ValueError("gradient_shapley supports binary classification")
        # A throwaway fit fixes the parameter dimensionality and class order.
        n = self.n_players
        template = model_factory()
        template.fit(self.X_train[:10] if n >= 10 else self.X_train,
                     self.y_train[:10] if n >= 10 else self.y_train)
        self.n_params = template.params.shape[0]

    def value(self, coalitions: np.ndarray) -> np.ndarray:
        raise NotImplementedError(
            "G-Shapley's value is path-dependent (one SGD step per point "
            "in walk order); use walk_contributions via the permutation "
            "estimator"
        )

    def walk_contributions(self, perm: np.ndarray) -> np.ndarray:
        contrib = np.zeros(self.n_players)
        # Start each pass from zero parameters without an initial fit.
        model = self.model_factory()
        model.classes_ = self.classes
        model.set_params_vector(np.zeros(self.n_params))
        previous = float(self.metric(self.y_val, model.predict(self.X_val)))
        for point in perm:
            g = model.grad(self.X_train[point : point + 1],
                           self.y_train[point : point + 1])[0]
            model.set_params_vector(model.params - self.learning_rate * g)
            current = float(self.metric(self.y_val, model.predict(self.X_val)))
            contrib[point] = current - previous
            previous = current
        return contrib
