"""Why-not provenance: explaining *missing* query answers
(§3, "Explanations in Databases" [49, 55]-adjacent; the picky-operator
method of Chapman & Jagadish).

"Why is tuple t not in the result?" is answered by replaying the query
pipeline and finding the operator at which t's lineage disappears — the
*picky* operator. A query here is an explicit sequence of named
operators over a :class:`Relation`; the tracer follows the candidate
tuples (those matching the user's description in the *input*) through
each stage and reports where each was eliminated and why (filtered out,
failed to join, projected away from the description).

Since the index/planner PR the per-stage survival check is served by a
:class:`repro.db.index.LineageSupportIndex`: each stage's output is
interval-encoded once, and "does candidate i still support some output"
becomes a sorted-interval lookup instead of unioning every output
annotation. Candidate discovery goes through
:func:`repro.db.planner.matching_indices`, so structured candidate
predicates hit the relation's indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .index import LineageSupportIndex
from .planner import matching_indices
from .provenance import LineageSemiring
from .relation import Relation

__all__ = ["QueryStep", "WhyNotResult", "why_not"]


@dataclass
class QueryStep:
    """One named operator: ``apply(relation) -> relation``."""

    name: str
    apply: Callable[[Relation], Relation]

    @staticmethod
    def select(name: str, predicate) -> "QueryStep":
        return QueryStep(name, lambda r: r.select(predicate))

    @staticmethod
    def project(name: str, columns: list[str]) -> "QueryStep":
        return QueryStep(name, lambda r: r.project(columns))

    @staticmethod
    def join(name: str, other: Relation) -> "QueryStep":
        return QueryStep(name, lambda r: r.join(other))


@dataclass
class WhyNotResult:
    """Explanation for one missing candidate tuple."""

    candidate_index: int
    candidate: tuple
    picky_step: str | None
    detail: str

    def __str__(self) -> str:
        if self.picky_step is None:
            return (f"tuple {self.candidate} survives the whole query "
                    f"({self.detail})")
        return (f"tuple {self.candidate} was eliminated by "
                f"{self.picky_step!r}: {self.detail}")


def _tracked(relation: Relation) -> Relation:
    """Re-annotate with lineage so tuple survival is a set membership."""
    semiring = LineageSemiring()
    return Relation(
        relation.columns,
        relation.rows,
        semiring,
        [semiring.tag(i) for i in range(len(relation))],
        relation.name,
    )


def _trace(
    source: Relation,
    steps: list[QueryStep],
    candidates: list[int],
) -> list[WhyNotResult]:
    """Replay the pipeline, attributing each candidate's elimination."""
    current = _tracked(source)
    alive: dict[int, bool] = {i: True for i in candidates}
    results: dict[int, WhyNotResult] = {}
    for step in steps:
        nxt = step.apply(current)
        # Interval-encode this stage's derivations once; per-candidate
        # survival is then a sorted-interval lookup, not an O(outputs)
        # union of annotations.
        support = LineageSupportIndex(nxt)
        for i in candidates:
            if alive[i] and not support.alive(i):
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


def why_not(
    source: Relation,
    steps: list[QueryStep],
    candidate_predicate: Callable[[dict], bool],
) -> list[WhyNotResult]:
    """Trace why source tuples matching a description miss the output.

    Parameters
    ----------
    source:
        The query's input relation.
    steps:
        The operator pipeline, applied in order.
    candidate_predicate:
        Describes the expected-but-missing answer in terms of the
        *source* schema — a plain callable, or a structured
        :class:`repro.db.planner.Predicate` served by the source's
        indexes.

    Returns
    -------
    One :class:`WhyNotResult` per matching source tuple: the first
    operator whose output no longer carries the tuple's lineage, or a
    note that the tuple actually survives (the answer isn't missing).
    """
    candidates = matching_indices(source, candidate_predicate)
    if not candidates:
        raise ValueError("no source tuple matches the candidate description")
    return _trace(source, steps, candidates)
