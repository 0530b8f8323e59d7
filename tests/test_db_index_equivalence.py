"""Differential harness: every planner path must equal the naive path.

The index/planner contract is *answer equivalence*: for any pipeline,
:meth:`Query.execute` (index access paths, pushdown, join strategy
selection) returns exactly what ``legacy_execute`` (the unoptimized
operator chain) returns — same columns, same rows in the same order
(hence same multiplicities), and the same provenance annotations —
under all four semirings. Seeded random generators cover
240 pipeline cases; adversarial shapes (empty relations, all-duplicate
rows, no-shared-column joins, single-row tables, unorderable columns)
and the refactored consumers (why-not, aggregate explanations, FD
checks, complaint scopes) each get explicit differential checks, as do
the interval-encoded provenance queries against the ``legacy_*`` DAG
walks and the incrementally maintained indexes against fresh rebuilds.
The ``legacy_*`` oracles live in ``tests.oracles``.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from repro.db import (
    And,
    Eq,
    FunctionalDependency,
    Not,
    Opaque,
    Query,
    QueryStep,
    Range,
    Relation,
    explain_aggregate,
    matching_indices,
    scope_from_relation,
    why_not,
)
from repro.db.index import IntervalIndex, ProvenanceDAG
from repro.db.provenance import (
    BooleanSemiring,
    CountingSemiring,
    LineageSemiring,
    WhySemiring,
)
from repro.obs import metrics
from tests.oracles import (
    legacy_ancestors,
    legacy_descendants,
    legacy_execute,
    legacy_explain_aggregate,
    legacy_scope_from_relation,
    legacy_supports,
    legacy_violating_tuples,
    legacy_violations,
    legacy_why_not,
)

SEMIRINGS = {
    "boolean": BooleanSemiring,
    "counting": CountingSemiring,
    "why": WhySemiring,
    "lineage": LineageSemiring,
}

COLUMN_POOL = ["a", "b", "c", "d", "e"]
N_SEEDS = 60  # x 4 semirings = 240 randomized pipeline cases


def _random_relation(rng: random.Random, semiring, name: str,
                     columns=None, min_rows: int = 0,
                     max_rows: int = 12) -> Relation:
    if columns is None:
        columns = rng.sample(COLUMN_POOL, rng.randint(1, 3))
    n = rng.randint(min_rows, max_rows)
    rows = [
        tuple(rng.randint(0, 4) for __ in columns) for __ in range(n)
    ]
    return Relation(columns, rows, semiring, name=name)


def _random_predicate(rng: random.Random, columns) -> object:
    column = rng.choice(columns)
    kind = rng.randint(0, 4)
    if kind == 0:
        return Eq(column, rng.randint(0, 4))
    if kind == 1:
        lo, hi = sorted((rng.randint(-1, 5), rng.randint(-1, 5)))
        return Range(column, lo, hi, lo_closed=rng.random() < 0.5,
                     hi_closed=rng.random() < 0.5)
    if kind == 2:
        return Not(_random_predicate(rng, columns))
    if kind == 3:
        other = rng.choice(columns)
        return And(Eq(column, rng.randint(0, 4)),
                   _random_predicate(rng, [other]))
    modulus = rng.randint(1, 3)
    return Opaque(lambda row, c=column, m=modulus: row[c] % (m + 1) == m,
                  f"<{column} custom>")


def _random_pipeline(rng: random.Random, semiring) -> Query:
    base = _random_relation(rng, semiring, "R0")
    query = Query(base)
    schema = list(base.columns)
    for step in range(rng.randint(1, 4)):
        op = rng.randint(0, 3)
        if op == 0:
            query = query.select(_random_predicate(rng, schema))
        elif op == 1:
            keep = rng.sample(schema, rng.randint(1, len(schema)))
            query = query.project(keep)
            schema = keep
        elif op == 2:
            other = _random_relation(rng, semiring, f"S{step}")
            query = query.join(other)
            schema = schema + [c for c in other.columns
                               if c not in schema]
        else:
            other = _random_relation(rng, semiring, f"U{step}",
                                     columns=list(schema))
            query = query.union(other)
    return query


def _assert_equivalent(query: Query, context: str = "") -> None:
    planned = query.execute()
    naive = legacy_execute(query)
    assert planned.columns == naive.columns, context
    assert planned.rows == naive.rows, context
    assert planned.annotations == naive.annotations, context


@pytest.mark.parametrize("semiring_name", sorted(SEMIRINGS))
@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_random_pipelines_match_naive(seed, semiring_name):
    rng = random.Random(1000 * seed + hash(semiring_name) % 1000)
    semiring = SEMIRINGS[semiring_name]()
    query = _random_pipeline(rng, semiring)
    _assert_equivalent(query, f"seed={seed} semiring={semiring_name}")


@pytest.mark.parametrize("semiring_name", sorted(SEMIRINGS))
def test_adversarial_shapes(semiring_name):
    semiring = SEMIRINGS[semiring_name]()
    empty = Relation(["a", "b"], [], semiring, name="empty")
    single = Relation(["a", "b"], [(1, 2)], semiring, name="single")
    dupes = Relation(["a", "b"], [(1, 1)] * 5, semiring, name="dupes")
    disjoint = Relation(["x"], [(1,), (2,)], semiring, name="disjoint")

    _assert_equivalent(Query(empty).select(Eq("a", 1)).join(single))
    _assert_equivalent(Query(single).select(Range("a", 0, 1)).union(single))
    _assert_equivalent(Query(dupes).project(["a"]).join(dupes))
    _assert_equivalent(Query(dupes).union(dupes).select(Not(Eq("a", 1))))
    _assert_equivalent(Query(single).join(disjoint))  # cartesian
    _assert_equivalent(Query(empty).join(empty).project(["a"]))


def test_unorderable_column_falls_back_to_scan():
    # Mixed int/str values: the sort index is unavailable, equality
    # probes still work, and everything stays equivalent.
    semiring = WhySemiring()
    mixed = Relation(["a", "b"], [(1, "x"), ("y", 2), (1, 3)], semiring,
                     name="mixed")
    assert mixed.indexes.sort_index("a") is None
    _assert_equivalent(Query(mixed).select(Eq("a", 1)))
    _assert_equivalent(Query(mixed).select(Not(Eq("b", "x"))))
    assert matching_indices(mixed, Eq("a", 1)) == [0, 2]


@pytest.mark.parametrize("seed", range(20))
def test_matching_indices_matches_scan(seed):
    rng = random.Random(seed)
    relation = _random_relation(rng, WhySemiring(), "M", max_rows=20)
    predicate = _random_predicate(rng, relation.columns)
    cols = relation.columns
    naive = [
        i for i, row in enumerate(relation.rows)
        if predicate(dict(zip(cols, row)))
    ]  # db: allow — this *is* the oracle scan
    assert matching_indices(relation, predicate) == naive


# -- refactored consumers vs their legacy_* oracles ----------------------------


@pytest.mark.parametrize("seed", range(10))
def test_why_not_matches_legacy(seed):
    rng = random.Random(seed)
    source = _random_relation(rng, WhySemiring(), "src", min_rows=2,
                              max_rows=10)
    other = _random_relation(rng, WhySemiring(), "dim")
    filter_col = rng.choice(source.columns)
    steps = [
        QueryStep.select("keep-low", lambda t: t[filter_col] <= 3),
        QueryStep.join("dim-join", other),
        QueryStep.project("final", [source.columns[0]]),
    ]
    predicate = Eq(source.columns[0], source.rows[0][0])
    assert why_not(source, steps, predicate) == \
        legacy_why_not(source, steps, predicate)


def test_explain_aggregate_matches_legacy():
    rng = random.Random(3)
    rows = [(rng.randint(0, 3), rng.randint(0, 100)) for __ in range(40)]
    relation = Relation(["grp", "score"], rows, name="facts")
    query = lambda r: sum(t[1] for t in r.rows)  # db: allow — aggregate
    fast = explain_aggregate(relation, query, use_conjunctions=True)
    slow = legacy_explain_aggregate(relation, query, use_conjunctions=True)
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a.description == b.description
        assert a.n_removed == b.n_removed
        assert a.original == b.original
        assert a.after_removal == b.after_removal
        assert a.score == b.score


@pytest.mark.parametrize("seed", range(10))
def test_fd_checks_match_legacy(seed):
    rng = random.Random(seed)
    relation = _random_relation(rng, WhySemiring(), "fd",
                                columns=["a", "b", "c"], max_rows=20)
    fd = FunctionalDependency(lhs=("a",), rhs=("b",))
    assert fd.violations(relation) == legacy_violations(fd, relation)
    assert fd.violating_tuples(relation) == \
        legacy_violating_tuples(fd, relation)


@pytest.mark.parametrize("seed", range(10))
def test_scope_from_relation_matches_legacy(seed):
    rng = random.Random(seed)
    relation = _random_relation(rng, WhySemiring(), "serve", min_rows=1)
    predicate = _random_predicate(rng, relation.columns)
    assert np.array_equal(
        scope_from_relation(relation, predicate),
        legacy_scope_from_relation(relation, predicate),
    )


# -- interval-encoded provenance vs naive DAG walks ----------------------------


def _random_dag(rng: random.Random) -> ProvenanceDAG:
    dag = ProvenanceDAG()
    n_base = rng.randint(1, 10)
    for i in range(n_base):
        dag.add_node(("b", i))
    pool = [("b", i) for i in range(n_base)]
    for i in range(rng.randint(0, 5)):
        kids = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        dag.add_node(("m", i), kids)
        pool.append(("m", i))
    for i in range(rng.randint(1, 4)):
        kids = rng.sample(pool, rng.randint(1, min(4, len(pool))))
        dag.add_node(("o", i), kids)
    return dag


@pytest.mark.parametrize("seed", range(30))
def test_interval_queries_match_naive_walks(seed):
    rng = random.Random(seed)
    dag = _random_dag(rng)
    index = IntervalIndex(dag)
    for node in dag.nodes:
        assert index.descendants(node) == legacy_descendants(dag, node)
        assert index.ancestors(node) == legacy_ancestors(dag, node)
        assert sorted(index.supports(node), key=repr) == \
            sorted(legacy_supports(dag, node), key=repr)


@pytest.mark.parametrize("seed", range(15))
def test_interval_incremental_maintenance(seed):
    rng = random.Random(seed)
    dag = _random_dag(rng)
    index = IntervalIndex(dag)
    parents = [n for n in dag.nodes if not dag.is_leaf(n)]
    for step in range(6):
        if parents and rng.random() < 0.6:
            parent = rng.choice(parents)
            index.insert_leaf(parent, ("new", step))
            assert ("new", step) in index.descendants(parent)
        else:
            leaves = [n for n in dag.nodes if dag.is_leaf(n)]
            if not leaves:
                continue
            index.delete_leaf(rng.choice(leaves))
        parents = [n for n in dag.nodes if not dag.is_leaf(n)]
        # after every single-tuple change, still equivalent to a walk
        # of the mutated DAG — without having rebuilt the index
        for node in dag.nodes:
            assert index.descendants(node) == legacy_descendants(dag, node)
            assert sorted(index.supports(node), key=repr) == \
                sorted(legacy_supports(dag, node), key=repr)


def test_gap_exhaustion_renumbers_transparently():
    dag = ProvenanceDAG()
    dag.add_node("root", [])
    index = IntervalIndex(dag)
    for k in range(120):  # far past float gap exhaustion per parent
        index.insert_leaf("root", f"leaf{k}")
    assert index.descendants("root") == legacy_descendants(dag, "root")


def test_tombstones_count_each_occurrence_once():
    dag = ProvenanceDAG()
    dag.add_node("root", ["a"])
    index = IntervalIndex(dag)
    before = metrics.counter("db.index.tombstones").value
    for __ in range(2):  # delete, re-insert and delete the same id
        index.insert_leaf("root", "x")
        index.delete_leaf("x")
    assert metrics.counter("db.index.tombstones").value - before == 2
    assert index.n_occurrences == 2
    assert dag.nodes == ["a", "root"]
    assert index.descendants("root") == legacy_descendants(dag, "root")


# -- relational index maintenance vs fresh rebuild -----------------------------


@pytest.mark.parametrize("seed", range(10))
def test_relation_index_maintenance_matches_rebuild(seed):
    rng = random.Random(seed)
    relation = _random_relation(rng, CountingSemiring(), "mut",
                                columns=["a", "b"], min_rows=3,
                                max_rows=15)
    hash_index = relation.indexes.hash_index(("a",))
    sort_index = relation.indexes.sort_index("b")
    for __ in range(8):
        if rng.random() < 0.5 and len(relation) > 1:
            relation.delete(rng.randrange(len(relation)))
        else:
            relation.insert((rng.randint(0, 4), rng.randint(0, 4)))
        fresh = relation.subset(range(len(relation)))
        for value in range(5):
            assert hash_index.lookup((value,)) == \
                fresh.indexes.hash_index(("a",)).lookup((value,))
            assert sort_index.range_ids(value - 1, value) == \
                fresh.indexes.sort_index("b").range_ids(value - 1, value)


def _assert_indexes_match_rebuild(relation: Relation, rng: random.Random,
                                  full: bool) -> None:
    """Narrow reads (stamps ranked one by one) first, then, when
    ``full``, the full passes that renumber every posting."""
    fresh = relation.subset(range(len(relation)))
    for columns in (("a",), ("a", "b")):
        index = relation.indexes.hash_index(columns)
        rebuilt = fresh.indexes.hash_index(columns)
        for key in itertools.product(range(10), repeat=len(columns)):
            assert index.lookup(key) == rebuilt.lookup(key), (columns, key)
    by_b = relation.indexes.sort_index("b")
    rebuilt_b = fresh.indexes.sort_index("b")
    lo = rng.randint(-1, 9)
    assert by_b.range_ids(lo, lo + 1) == rebuilt_b.range_ids(lo, lo + 1)
    predicate = And(Eq("a", rng.randint(0, 9)),
                    Range("b", lo, lo + 2, lo_closed=True))
    query = Query(relation).select(predicate)
    assert query.execute().rows == legacy_execute(query).rows
    assert query.execute().annotations == \
        legacy_execute(query).annotations
    if not full:
        return
    assert by_b.range_ids() == rebuilt_b.range_ids()
    assert by_b.range_ids(-1, 9) == rebuilt_b.range_ids(-1, 9)
    for columns in (("a",), ("a", "b")):  # key order follows insertions
        assert dict(relation.indexes.hash_index(columns).groups()) == \
            dict(fresh.indexes.hash_index(columns).groups())
    for fd in (FunctionalDependency(lhs=("a",), rhs=("b",)),
               FunctionalDependency(lhs=("a", "b"), rhs=("c",))):
        assert fd.violations(relation) == legacy_violations(fd, relation)
        assert fd.violating_tuples(relation) == \
            legacy_violating_tuples(fd, relation)


@pytest.mark.parametrize("full_every", [1, 25])
@pytest.mark.parametrize("seed", range(3))
def test_long_write_streams_match_rebuild(seed, full_every):
    """200 interleaved inserts and deletes (negative indices included)
    on up to 60 rows under two hash indexes and a sort index. Full
    passes run after every op, or every 25th op so that stamps drift
    across bursts of writes before a read renumbers them."""
    rng = random.Random(seed)
    relation = Relation(["a", "b", "c"], [
        (rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 2))
        for __ in range(rng.randint(20, 40))
    ], CountingSemiring(), name="stream")
    _assert_indexes_match_rebuild(relation, rng, full=True)
    for step in range(200):
        n = len(relation)
        if n and (n >= 60 or rng.random() < 0.5):
            relation.delete(rng.randrange(-n, n))
        else:
            relation.insert((rng.randint(0, 9), rng.randint(0, 9),
                             rng.randint(0, 2)))
        if step == 100:  # out-of-band mutation, then the protocol call
            relation.rows.pop(0)
            relation.annotations.pop(0)
            relation.rows[-1] = (9, 9, 2)
            relation.invalidate_indexes()
        _assert_indexes_match_rebuild(relation, rng,
                                      full=step % full_every == 0)
