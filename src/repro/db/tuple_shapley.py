"""The Shapley value of tuples in query answering [Livshits, Bertossi,
Kimelfeld & Sebag 2021].

Database tuples are split into *endogenous* (whose contribution we want
to quantify) and *exogenous* (fixed context). The value of a coalition S
of endogenous tuples is the query's answer on the database containing
S plus all exogenous tuples; the Shapley value of a tuple is then its
average marginal contribution to the answer — a numeric "responsibility"
for numerical and Boolean queries alike.

Exact computation enumerates sub-databases (exponential — the paper's
hardness results are about exactly this), and the permutation sampler
gives the FPRAS-style approximation the paper proposes for the hard
cases. E19 compares both.

The game itself is a :class:`repro.games.TupleProvenanceGame`; run
through the shared evaluator, its coalition values are memoized in the
packed-bit cache, which matters because exact enumeration and
permutation walks revisit sub-databases constantly.
"""

from __future__ import annotations

from typing import Callable

from ..games.adapters import TupleProvenanceGame
from ..shapley.exact import exact_shapley
from ..shapley.sampling import permutation_shapley
from .relation import Relation

__all__ = ["shapley_of_tuples"]


def shapley_of_tuples(
    relation: Relation,
    query: Callable[[Relation], float],
    endogenous: list[int] | None = None,
    method: str = "auto",
    n_permutations: int = 200,
    seed: int = 0,
    backend: str | None = None,
    n_procs: int | None = None,
) -> dict[int, float]:
    """Shapley value of each endogenous tuple for a numeric query.

    Parameters
    ----------
    relation:
        The (single-table) database; for multi-table queries, pass the
        fact table here and close over the dimension tables in ``query``.
    query:
        Maps a sub-relation to a number (a Boolean query returns 0/1).
    endogenous:
        Tuple indices to value; all tuples by default.
    method:
        ``"exact"`` (≤ 16 endogenous tuples), ``"sampling"``, or
        ``"auto"`` — exact when feasible.
    backend:
        Execution backend (:mod:`repro.exec`); sub-database evaluations
        shard across workers (bitwise-identical values), and the query
        re-evaluation loop is pure Python, so the
        ``process`` backend is where large relations actually scale.

    Returns
    -------
    ``{tuple_index: shapley_value}``. Values sum to
    query(full) − query(exogenous only) by efficiency.
    """
    if endogenous is None:
        endogenous = list(range(len(relation)))
    n = len(endogenous)
    if method == "auto":
        method = "exact" if n <= 16 else "sampling"
    # The estimators receive the game itself (not a pre-built value
    # function): the game carries the deterministic/shardable
    # capabilities the exec backend gates on, and resolves to the
    # identical evaluator path inside the estimator.
    v = TupleProvenanceGame(relation, query, endogenous)
    if method == "exact":
        phi = exact_shapley(v, n, backend=backend, n_procs=n_procs)
    elif method == "sampling":
        phi, __ = permutation_shapley(
            v, n, n_permutations=n_permutations, seed=seed,
            backend=backend, n_procs=n_procs,
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    return {endogenous[j]: float(phi[j]) for j in range(n)}
