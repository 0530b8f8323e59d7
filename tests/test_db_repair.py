"""Tests for Shapley-based data-repair explanations."""

import numpy as np
import pytest

from repro.db import (
    FunctionalDependency,
    Relation,
    greedy_repair,
    repair_responsibility,
)


@pytest.fixture()
def dirty_addresses():
    # zip → city should hold; tuple 2 contradicts tuples 0-1, and tuples
    # 5-6 contradict each other symmetrically.
    return Relation(
        ["zip", "city", "street"],
        [
            ("10001", "nyc", "a"),
            ("10001", "nyc", "b"),
            ("10001", "boston", "c"),
            ("94105", "sf", "d"),
            ("94105", "sf", "e"),
            ("60601", "chicago", "f"),
            ("60601", "evanston", "g"),
        ],
        name="addr",
    )


FD = FunctionalDependency(("zip",), ("city",))


class TestViolationCounting:
    def test_counts_violating_pairs(self, dirty_addresses):
        # 10001 group: pairs (0,2) and (1,2) violate → 2; 60601: 1.
        assert FD.violations(dirty_addresses) == 3

    def test_clean_relation_has_zero(self):
        clean = Relation(["zip", "city"], [("1", "a"), ("1", "a"), ("2", "b")])
        assert FD.violations(clean) == 0
        assert FD.violating_tuples(clean) == set()

    def test_violating_tuples(self, dirty_addresses):
        assert FD.violating_tuples(dirty_addresses) == {0, 1, 2, 5, 6}

    def test_multi_attribute_fd(self):
        fd = FunctionalDependency(("a", "b"), ("c",))
        r = Relation(["a", "b", "c"],
                     [(1, 1, "x"), (1, 1, "y"), (1, 2, "x")])
        assert fd.violations(r) == 1


class TestResponsibility:
    def test_efficiency_identity(self, dirty_addresses):
        responsibility = repair_responsibility(dirty_addresses, [FD])
        assert sum(responsibility.values()) == pytest.approx(
            FD.violations(dirty_addresses)
        )

    def test_outlier_tuple_is_most_responsible(self, dirty_addresses):
        responsibility = repair_responsibility(dirty_addresses, [FD])
        # tuple 2 (the lone 'boston') participates in two violations; it
        # must outrank tuples 0/1 which share one violation each side.
        assert responsibility[2] > responsibility[0]
        assert responsibility[2] > responsibility[1]
        # symmetric conflict: equal responsibility
        assert responsibility[5] == pytest.approx(responsibility[6])

    def test_clean_tuples_excluded(self, dirty_addresses):
        responsibility = repair_responsibility(dirty_addresses, [FD])
        assert 3 not in responsibility and 4 not in responsibility

    def test_clean_database_returns_empty(self):
        clean = Relation(["zip", "city"], [("1", "a")])
        assert repair_responsibility(clean, [FD]) == {}


class TestGreedyRepair:
    def test_reaches_consistency_minimally(self, dirty_addresses):
        repaired, deleted = greedy_repair(dirty_addresses, [FD])
        assert FD.violations(repaired) == 0
        # Optimal repair deletes tuple 2 and one of {5, 6}: exactly 2.
        assert len(deleted) == 2
        assert 2 in deleted
        assert deleted[0] == 2  # most responsible goes first

    def test_bad_ranking_deletes_more(self, dirty_addresses):
        # Deleting the consistent majority first is wasteful.
        bad_order = [0, 1, 2, 5, 6]
        __, deleted_bad = greedy_repair(
            dirty_addresses, [FD], ranking=bad_order
        )
        __, deleted_good = greedy_repair(dirty_addresses, [FD])
        assert len(deleted_bad) > len(deleted_good)

    def test_multiple_fds(self, dirty_addresses):
        fd2 = FunctionalDependency(("city",), ("zip",))
        repaired, __ = greedy_repair(dirty_addresses, [FD, fd2])
        assert FD.violations(repaired) == 0
        assert fd2.violations(repaired) == 0

    def test_repeated_and_clean_candidates_are_skipped(self, dirty_addresses):
        # 3 is clean, 0 and 6 repeat, and 2 is pacified by the time it
        # comes up; the deletions are the ones the two-pass loop made.
        ranking = [3, 0, 0, 6, 1, 6, 2, 5, 4, 9, -1]
        repaired, deleted = greedy_repair(
            dirty_addresses, [FD], ranking=ranking
        )
        assert deleted == [0, 6, 1]
        assert repaired.rows == [
            ("10001", "boston", "c"), ("94105", "sf", "d"),
            ("94105", "sf", "e"), ("60601", "chicago", "f"),
        ]
