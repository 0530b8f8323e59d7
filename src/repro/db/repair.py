"""Shapley-value explanations for data repair [Deutch, Frost, Gilad &
Sheffer 2021] (§3, "Explanations in Databases").

Given integrity constraints — here functional dependencies X → Y — a
dirty relation violates them through specific tuples. The cited work
ranks tuples by their Shapley contribution to the *inconsistency* of the
database, explaining "which tuples are responsible for the violations"
and prioritizing repairs. Reproduced pieces:

* :class:`FunctionalDependency` with violation counting (the
  inconsistency measure: number of violating tuple pairs),
* :func:`repair_responsibility` — Shapley value of each tuple in the
  inconsistency game (reusing the tuple-Shapley machinery),
* :func:`greedy_repair` — delete tuples in responsibility order until
  consistency, the repair policy the explanation motivates, compared in
  tests/benchmarks against naive orderings.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass

from .index import record_hit
from .relation import Relation
from .tuple_shapley import shapley_of_tuples

__all__ = ["FunctionalDependency", "repair_responsibility", "greedy_repair"]


@dataclass(frozen=True)
class FunctionalDependency:
    """An FD ``lhs → rhs`` over attribute names.

    Violation checks group tuples by their LHS key, read from the
    relation's persistent hash index on the LHS columns (maintained
    incrementally across ``greedy_repair`` deletions).
    """

    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    def __str__(self) -> str:
        return f"{','.join(self.lhs)} -> {','.join(self.rhs)}"

    def _key_groups(self, relation: Relation):
        """LHS-key groups (ascending member row ids) via the hash index."""
        record_hit()
        return relation.indexes.hash_index(self.lhs).groups()

    def violations(self, relation: Relation) -> int:
        """Number of unordered tuple pairs violating the FD."""
        rhs_idx = [relation._col(c) for c in self.rhs]
        total = 0
        for __, members in self._key_groups(relation):
            value_counts: dict[tuple, int] = defaultdict(int)
            for i in members:
                value_counts[
                    tuple(relation.rows[i][j] for j in rhs_idx)
                ] += 1
            counts = list(value_counts.values())
            group_size = sum(counts)
            same = sum(c * (c - 1) // 2 for c in counts)
            total += group_size * (group_size - 1) // 2 - same
        return total

    def violating_tuples(self, relation: Relation) -> set[int]:
        """Indices of tuples participating in at least one violation."""
        rhs_idx = [relation._col(c) for c in self.rhs]
        out: set[int] = set()
        for __, members in self._key_groups(relation):
            distinct = {
                tuple(relation.rows[i][j] for j in rhs_idx)
                for i in members
            }
            if len(distinct) > 1:
                out.update(members)
        return out


def _total_violations(relation: Relation,
                      dependencies: list[FunctionalDependency]) -> float:
    return float(sum(fd.violations(relation) for fd in dependencies))


def repair_responsibility(
    relation: Relation,
    dependencies: list[FunctionalDependency],
    method: str = "auto",
    n_permutations: int = 200,
    seed: int = 0,
) -> dict[int, float]:
    """Shapley value of each tuple in the inconsistency game.

    The game value of a sub-database is its total violation count, so a
    tuple's value is its average marginal contribution to inconsistency —
    high values mark the tuples whose removal pacifies the most
    violations. Values sum to the dirty database's violation count.
    Only tuples involved in some violation are endogenous (clean tuples
    provably have value 0 and are fixed as context). The inconsistency
    game runs through the shared games evaluator, so repeated
    sub-databases hit the coalition cache instead of recounting
    violations.
    """
    involved: set[int] = set()
    for fd in dependencies:
        involved |= fd.violating_tuples(relation)
    if not involved:
        return {}
    values = shapley_of_tuples(
        relation,
        lambda sub: _total_violations(sub, dependencies),
        endogenous=sorted(involved),
        method=method,
        n_permutations=n_permutations,
        seed=seed,
    )
    return values


def greedy_repair(
    relation: Relation,
    dependencies: list[FunctionalDependency],
    ranking: list[int] | None = None,
    **responsibility_kwargs,
) -> tuple[Relation, list[int]]:
    """Delete tuples (most responsible first) until the FDs hold.

    Returns the repaired relation and the deleted tuple indices. A
    ``ranking`` may be supplied to evaluate alternative repair orders;
    by default the Shapley responsibility ordering is used, recomputed
    after each deletion is unnecessary because deletions only shrink the
    game (re-ranking is an easy extension).
    """
    if ranking is None:
        responsibility = repair_responsibility(
            relation, dependencies, **responsibility_kwargs
        )
        ranking = sorted(responsibility, key=lambda i: -responsibility[i])
    # Original ids of the surviving rows, ascending: a candidate's
    # position in ``current`` is one bisect.
    keep = list(range(len(relation)))
    deleted: list[int] = []
    # One O(k) copy up front; each deletion then mutates it in place and
    # the FD hash indexes are maintained incrementally (no rebuild).
    current = relation.subset(keep)
    # Positions of the tuples still in some violation, recomputed only
    # after a deletion. It is empty exactly when every violation count
    # is zero, so one pass decides both the stop and the skip.
    violating: set[int] | None = None
    for candidate in ranking:
        position = bisect_left(keep, candidate)
        if position == len(keep) or keep[position] != candidate:
            continue
        if violating is None:
            violating = set()
            for fd in dependencies:
                violating |= fd.violating_tuples(current)
            if not violating:
                break
        # Deleting a tuple that no longer violates anything is wasted
        # repair budget: skip it (earlier deletions may have pacified it).
        if position not in violating:
            continue
        current.delete(position)
        keep.pop(position)
        deleted.append(candidate)
        violating = None
    return current, deleted
