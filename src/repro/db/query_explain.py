"""Intervention-based explanations for aggregate query answers
[Roy & Suciu 2014; Meliou et al. 2010].

"Why is this aggregate so high?" is answered with *predicate
interventions*: candidate explanations are simple predicates over the
input relation; an explanation's score is how much removing the tuples it
selects moves the aggregate in the asked direction — high-scoring
predicates identify the tuple subpopulations responsible for the answer.

Candidates are generated automatically: equality predicates on
low-cardinality (categorical) attributes and quartile-range predicates on
numeric ones, plus optional pairwise conjunctions, following the
candidate spaces of the cited systems.

Candidates are **structured** planner predicates
(:class:`repro.db.planner.Eq` / :class:`~repro.db.planner.Range`), so the
anti-selection of each intervention ("every tuple the predicate does
*not* remove") runs through the planner's index access paths — a hash
probe complement or sort-index window per candidate instead of a full
row scan each.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .planner import And, Eq, Not, Query, Range
from .relation import Relation

__all__ = [
    "PredicateExplanation",
    "explain_aggregate",
]


@dataclass
class PredicateExplanation:
    """One intervention explanation for an aggregate answer."""

    description: str
    predicate: Callable[[dict], bool]
    n_removed: int
    original: float
    after_removal: float
    score: float

    def __str__(self) -> str:
        return (
            f"{self.description}: removing {self.n_removed} tuples moves "
            f"the answer {self.original:.4g} → {self.after_removal:.4g} "
            f"(score {self.score:+.4g})"
        )


def _candidate_predicates(
    relation: Relation, max_categories: int = 12
) -> list[tuple[str, Callable[[dict], bool]]]:
    """Equality predicates on categorical-looking columns and quartile
    ranges on numeric ones — structured, so the planner can index them."""
    candidates: list[tuple[str, Callable[[dict], bool]]] = []
    dicts = relation.to_dicts()
    for column in relation.columns:
        values = [row[column] for row in dicts]
        distinct = sorted(set(values), key=repr)
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in values)
        if len(distinct) <= max_categories:
            for value in distinct:
                predicate = Eq(column, value)
                candidates.append((predicate.describe(), predicate))
        elif numeric:
            ordered = sorted(values)
            quartiles = [
                ordered[int(q * (len(ordered) - 1))]
                for q in (0.25, 0.5, 0.75)
            ]
            edges = [float("-inf"), *quartiles, float("inf")]
            for lo, hi in zip(edges[:-1], edges[1:]):
                predicate = Range(column, lo, hi)
                candidates.append((predicate.describe(), predicate))
    return candidates


def _rank_interventions(
    relation: Relation,
    query: Callable[[Relation], float],
    direction: str,
    top_k: int,
    use_conjunctions: bool,
    min_tuples: int,
    normalize: bool,
    anti_select: Callable[[Relation, Callable], Relation],
) -> list[PredicateExplanation]:
    if direction not in ("lower", "higher"):
        raise ValueError("direction must be 'lower' or 'higher'")
    original = float(query(relation))
    singles = _candidate_predicates(relation)
    candidates = list(singles)
    if use_conjunctions:
        for (d1, p1), (d2, p2) in combinations(singles, 2):
            conjunction = And(p1, p2)
            candidates.append((conjunction.describe(), conjunction))
    explanations: list[PredicateExplanation] = []
    for description, predicate in candidates:
        remaining = anti_select(relation, predicate)
        n_removed = len(relation) - len(remaining)
        if n_removed < min_tuples or n_removed == len(relation):
            continue
        after = float(query(remaining))
        delta = original - after if direction == "lower" else after - original
        score = delta / n_removed if normalize else delta
        explanations.append(PredicateExplanation(
            description, predicate, n_removed, original, after, score
        ))
    explanations.sort(key=lambda e: -e.score)
    return explanations[:top_k]


def _planned_anti_select(relation: Relation, predicate) -> Relation:
    """Rows the intervention keeps, through the planner's index paths."""
    return Query(relation).select(Not(predicate)).execute()


def explain_aggregate(
    relation: Relation,
    query: Callable[[Relation], float],
    direction: str = "lower",
    top_k: int = 5,
    use_conjunctions: bool = False,
    min_tuples: int = 1,
    normalize: bool = False,
) -> list[PredicateExplanation]:
    """Rank predicate interventions by their effect on the aggregate.

    Parameters
    ----------
    query:
        Maps a sub-relation to the aggregate value being explained.
    direction:
        ``"lower"`` scores interventions by how much they *decrease* the
        answer (explaining "why so high"); ``"higher"`` the reverse.
    use_conjunctions:
        Also try pairwise conjunctions of single predicates.
    normalize:
        Divide scores by the number of removed tuples (explanations
        should not win merely by deleting everything).
    """
    return _rank_interventions(
        relation, query, direction, top_k, use_conjunctions, min_tuples,
        normalize, anti_select=_planned_anti_select,
    )
