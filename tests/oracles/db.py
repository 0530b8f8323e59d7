"""Oracles for the db layer: the unplanned operator pipeline, full-scan
selections and FD checks, naive lineage walks over provenance DAGs, and
the pre-games tuple-Shapley value function.

Every planned or indexed path must return exactly what these return
(``tests/test_db_index_equivalence.py``); E45 times the DAG walks
against the interval index.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

import numpy as np

from repro.db import (
    FunctionalDependency,
    PredicateExplanation,
    Query,
    QueryStep,
    Relation,
    WhyNotResult,
)
from repro.db.index import ProvenanceDAG
from repro.db.planner import _Project, _Scan, _Select, _Union
from repro.db.query_explain import _rank_interventions
from repro.db.why_not import _tracked
from repro.shapley.exact import exact_shapley
from repro.shapley.sampling import permutation_shapley

__all__ = [
    "legacy_execute",
    "legacy_violations",
    "legacy_violating_tuples",
    "legacy_scope_from_relation",
    "legacy_why_not",
    "legacy_explain_aggregate",
    "legacy_descendants",
    "legacy_ancestors",
    "legacy_supports",
    "legacy_database_value_fn",
    "legacy_shapley_of_tuples",
]


# -- the relational operators --------------------------------------------------


def legacy_execute(query: Query) -> Relation:
    """The unoptimized pipeline of ``query``: each logical node runs as
    the naive ``Relation`` operator, with no pushdown and no index."""

    def naive(node) -> Relation:
        if isinstance(node, _Scan):
            return node.relation
        if isinstance(node, _Select):
            return naive(node.child).select(node.predicate)
        if isinstance(node, _Project):
            return naive(node.child).project(node.columns)
        if isinstance(node, _Union):
            return naive(node.left).union(naive(node.right))
        return naive(node.left).join(naive(node.right))

    return naive(query._root)


def legacy_violations(fd: FunctionalDependency, relation: Relation) -> int:
    """Full-scan count of the tuple pairs violating ``fd``."""
    lhs_idx = [relation._col(c) for c in fd.lhs]
    rhs_idx = [relation._col(c) for c in fd.rhs]
    groups: dict[tuple, dict[tuple, int]] = defaultdict(
        lambda: defaultdict(int)
    )
    for row in relation.rows:
        key = tuple(row[i] for i in lhs_idx)
        value = tuple(row[i] for i in rhs_idx)
        groups[key][value] += 1
    total = 0
    for value_counts in groups.values():
        counts = list(value_counts.values())
        group_size = sum(counts)
        same = sum(c * (c - 1) // 2 for c in counts)
        total += group_size * (group_size - 1) // 2 - same
    return total


def legacy_violating_tuples(fd: FunctionalDependency,
                            relation: Relation) -> set[int]:
    """Full-scan set of the tuples in some violation of ``fd``."""
    lhs_idx = [relation._col(c) for c in fd.lhs]
    rhs_idx = [relation._col(c) for c in fd.rhs]
    by_key: dict[tuple, list[int]] = defaultdict(list)
    for i, row in enumerate(relation.rows):
        by_key[tuple(row[j] for j in lhs_idx)].append(i)
    out: set[int] = set()
    for members in by_key.values():
        values = {
            i: tuple(relation.rows[i][j] for j in rhs_idx)
            for i in members
        }
        distinct = set(values.values())
        if len(distinct) > 1:
            out.update(members)
    return out


def legacy_scope_from_relation(relation: Relation, predicate) -> np.ndarray:
    """Full-scan scope mask of :func:`repro.db.scope_from_relation`."""
    mask = np.zeros(len(relation), dtype=bool)
    for i, row in enumerate(relation.rows):
        mask[i] = bool(predicate(dict(zip(relation.columns, row))))
    return mask


# -- the db explainers -----------------------------------------------------------


def legacy_why_not(
    source: Relation,
    steps: list[QueryStep],
    candidate_predicate: Callable[[dict], bool],
) -> list[WhyNotResult]:
    """The pre-index tracer of :func:`repro.db.why_not`.

    Candidate discovery scans every source row, and each stage's
    survival set is the union of all output annotations (O(total
    lineage) per stage).
    """
    candidates = [
        i for i, row in enumerate(source.rows)
        if candidate_predicate(dict(zip(source.columns, row)))
    ]
    if not candidates:
        raise ValueError("no source tuple matches the candidate description")
    current = _tracked(source)
    alive: dict[int, bool] = {i: True for i in candidates}
    results: dict[int, WhyNotResult] = {}
    for step in steps:
        nxt = step.apply(current)
        surviving: set[int] = set()
        for annotation in nxt.annotations:
            if annotation:
                surviving |= set(annotation)
        for i in candidates:
            if alive[i] and i not in surviving:
                alive[i] = False
                results[i] = WhyNotResult(
                    candidate_index=i,
                    candidate=source.rows[i],
                    picky_step=step.name,
                    detail=f"lineage lost at operator {step.name!r} "
                           f"({len(current)} -> {len(nxt)} tuples)",
                )
        current = nxt
    for i in candidates:
        if alive[i]:
            results[i] = WhyNotResult(
                candidate_index=i,
                candidate=source.rows[i],
                picky_step=None,
                detail="its lineage reaches the final result",
            )
    return [results[i] for i in candidates]


def _naive_anti_select(relation: Relation, predicate) -> Relation:
    return relation.select(lambda row, p=predicate: not p(row))


def legacy_explain_aggregate(
    relation: Relation,
    query: Callable[[Relation], float],
    direction: str = "lower",
    top_k: int = 5,
    use_conjunctions: bool = False,
    min_tuples: int = 1,
    normalize: bool = False,
) -> list[PredicateExplanation]:
    """:func:`repro.db.explain_aggregate` with every anti-selection a full
    row scan (identical candidates, scores and ordering; only the access
    path differs)."""
    return _rank_interventions(
        relation, query, direction, top_k, use_conjunctions, min_tuples,
        normalize, anti_select=_naive_anti_select,
    )


# -- provenance DAG walks ----------------------------------------------------


def legacy_descendants(dag: ProvenanceDAG, node) -> set:
    """Recursive set-building walk — the pre-index implementation."""
    out: set = set()
    stack = list(dag.children(node))
    while stack:
        current = stack.pop()
        if current in out:
            continue
        out.add(current)
        stack.extend(dag.children(current))
    return out


def legacy_ancestors(dag: ProvenanceDAG, node) -> set:
    """Full walk over parent edges."""
    out: set = set()
    stack = list(dag.parents(node))
    while stack:
        current = stack.pop()
        if current in out:
            continue
        out.add(current)
        stack.extend(dag.parents(current))
    return out


def legacy_supports(dag: ProvenanceDAG, base_node) -> list:
    """O(n) scan: DFS every root's subtree looking for the base tuple."""
    out: list = []
    for root in dag.roots():
        if root == base_node or base_node in legacy_descendants(dag, root):
            out.append(root)
    return out


# -- Shapley of tuples ---------------------------------------------------------


def legacy_database_value_fn(
    relation: Relation,
    endogenous: list[int],
    query: Callable[[Relation], float],
):
    """Batched, uncached v(masks) rebuilding the relation per coalition —
    the pre-games value function of the tuple game."""
    endogenous_set = set(endogenous)
    exogenous = [i for i in range(len(relation)) if i not in endogenous_set]

    def v(masks: np.ndarray) -> np.ndarray:
        masks = np.atleast_2d(np.asarray(masks, dtype=bool))
        out = np.zeros(masks.shape[0])
        for row, mask in enumerate(masks):
            keep = sorted(
                exogenous + [endogenous[j] for j in range(len(endogenous))
                             if mask[j]]
            )
            out[row] = float(query(relation.subset(keep)))
        return out

    return v


def legacy_shapley_of_tuples(
    relation: Relation,
    query: Callable[[Relation], float],
    endogenous: list[int] | None = None,
    method: str = "auto",
    n_permutations: int = 200,
    seed: int = 0,
) -> dict[int, float]:
    """:func:`repro.db.shapley_of_tuples` over
    :func:`legacy_database_value_fn`: the same estimators, no game and
    no coalition cache."""
    if endogenous is None:
        endogenous = list(range(len(relation)))
    n = len(endogenous)
    if method == "auto":
        method = "exact" if n <= 16 else "sampling"
    v = legacy_database_value_fn(relation, endogenous, query)
    if method == "exact":
        phi = exact_shapley(v, n)
    else:
        phi, __ = permutation_shapley(v, n, n_permutations=n_permutations,
                                      seed=seed)
    return {endogenous[j]: float(phi[j]) for j in range(n)}
