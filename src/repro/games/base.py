"""The cooperative-game protocol every Shapley-style workload implements.

The tutorial's central structural observation (§2–3 of Pradhan et al.)
is that feature attribution (SHAP/QII), data valuation (Data Shapley),
database explanations (Shapley of tuples) and causal attribution are all
*one* computation — a Shapley value — over different cooperative games.
This module pins down the game side of that statement:

* a **Game** is ``n_players`` plus a vectorized characteristic function
  ``value(coalitions)`` mapping a boolean ``(n_coalitions, n_players)``
  matrix to one value per coalition (the batched convention the whole
  library already speaks);
* optional capability attributes tell the shared evaluator
  (:mod:`repro.games.engine`) and estimators
  (:mod:`repro.games.estimators`) what is safe and what is cheap:
  ``deterministic`` gates the packed-bit value cache, ``guarded`` says
  whether evaluations already pass through a guarded predict function
  (and therefore already charge the ambient
  :class:`repro.robust.GuardScope`), ``rows_per_coalition`` drives
  memory-bounded chunk geometry, ``value_at`` exposes position-seeded
  evaluation for games whose randomness is keyed to the batch row,
  ``permutation_sampler`` restricts permutation walks (asymmetric
  Shapley's topological orders), and ``walk_contributions`` lets
  path-dependent games (G-Shapley's SGD passes, causal Shapley's
  direct/indirect split) own one whole permutation walk.

Concrete adapters for the five families live in
:mod:`repro.games.adapters`; estimators accept either a :class:`Game`
or a bare ``value_fn`` callable, so existing call sites keep working.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np

__all__ = ["Game", "BaseGame", "FunctionGame", "as_game", "walk_masks"]


@runtime_checkable
class Game(Protocol):
    """A cooperative game in the batched-mask convention.

    Required: ``n_players`` and ``value``. Everything else is an
    optional capability read via ``getattr`` with a conservative
    default (see :class:`BaseGame` for the defaults).
    """

    n_players: int

    def value(self, coalitions: np.ndarray) -> np.ndarray:
        """One characteristic-function value per coalition row."""
        ...


class BaseGame:
    """Default capability surface shared by the concrete adapters.

    Attributes
    ----------
    player_names:
        Optional human-readable names, index-aligned with players.
    deterministic:
        ``True`` when ``value`` is a pure function of the mask, making
        packed-bit caching sound. Stochastic games (QII-style fresh
        draws per call) must stay ``False``.
    guarded:
        ``True`` when evaluation already flows through a guarded predict
        function (:func:`repro.core.base.as_predict_fn`), which charges
        the ambient :class:`~repro.robust.GuardScope` itself. ``False``
        makes the shared evaluator charge the scope and retry transient
        failures — pure-Python games (utility refits, relational
        queries) get PR 3's fault tolerance that way.
    self_evaluating:
        ``True`` only for :class:`FunctionGame`: a bare value function
        is evaluated as-is, never wrapped in the shared evaluator's
        cache, chunk loop or span. Every real game leaves it ``False``
        and has ``value`` compute only its own rows.
    rows_per_coalition:
        How many model/utility rows one coalition evaluation costs; the
        evaluator divides ``max_batch_rows`` by it to pick chunk sizes
        and charges ``rows_per_coalition`` budget rows per coalition.
        A game may also carry ``max_batch_rows`` / ``chunk_retries``
        (and a ``cache`` store it owns), which the evaluator uses when
        the caller passes none.
    shardable:
        ``True`` when independent slices of the work (permutation walks,
        coalition-matrix rows) may be evaluated by separate workers —
        i.e. evaluation carries no cross-call mutable state. Stateful
        games (a stepping seed counter, an SGD pass) set ``False`` and
        the exec backend (:mod:`repro.exec`) falls back to the serial
        path for them, which is trivially bitwise-identical. Note
        sharding is additionally gated on ``deterministic``: a game
        drawing fresh randomness per call would give different draws
        per partitioning even if it carries no state.
    """

    n_players: int = 0
    player_names: list[str] | None = None
    deterministic: bool = False
    guarded: bool = False
    self_evaluating: bool = False
    rows_per_coalition: int = 1
    shardable: bool = True

    def value(self, coalitions: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grand_value(self) -> float:
        """v(N) — evaluated directly unless an adapter knows it cheaper."""
        mask = np.ones((1, self.n_players), dtype=bool)
        return float(np.asarray(self.value(mask), dtype=float)[0])


class FunctionGame(BaseGame):
    """Wrap a bare batched ``value_fn`` callable as a :class:`Game`.

    The wrapper is deliberately capability-free (``deterministic=False``,
    ``guarded=True``): a raw callable promises nothing, so the evaluator
    neither caches it nor double-charges budgets the callable's own
    predict function may already be charging.
    """

    deterministic = False
    guarded = True
    self_evaluating = True

    def __init__(
        self,
        value_fn: Callable[[np.ndarray], np.ndarray],
        n_players: int,
        player_names: list[str] | None = None,
    ) -> None:
        self._value_fn = value_fn
        self.n_players = int(n_players)
        self.player_names = player_names

    def value(self, coalitions: np.ndarray) -> np.ndarray:
        return self._value_fn(coalitions)


def as_game(game_or_fn, n_players: int | None = None):
    """Normalize an estimator input: a :class:`Game` passes through,
    a bare callable is wrapped in :class:`FunctionGame` (which then
    requires ``n_players``)."""
    if hasattr(game_or_fn, "value") and hasattr(game_or_fn, "n_players"):
        return game_or_fn
    if not callable(game_or_fn):
        raise TypeError(
            f"expected a Game or a batched value function, got "
            f"{type(game_or_fn).__name__}"
        )
    if n_players is None:
        raise ValueError("n_players is required when passing a bare value_fn")
    return FunctionGame(game_or_fn, n_players)


def walk_masks(perm: np.ndarray, include_empty: bool = True) -> np.ndarray:
    """Prefix-coalition masks of one permutation walk.

    Row ``k`` contains the first ``k`` players of ``perm`` (with
    ``include_empty`` the first row is ∅, giving ``n+1`` rows), so
    consecutive differences of the evaluated values are the walk's
    marginal contributions.
    """
    perm = np.asarray(perm)
    n = perm.shape[0]
    masks = np.zeros((n + 1, n), dtype=bool)
    for pos, player in enumerate(perm):
        masks[pos + 1] = masks[pos]
        masks[pos + 1, player] = True
    return masks if include_empty else masks[1:]
