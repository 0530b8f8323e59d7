"""Tests for the mini relational engine and its provenance propagation."""

import pytest

from repro.db import (And, CountingSemiring, Eq, Query, Range, Relation,
                      WhySemiring)
from tests.oracles import legacy_execute


@pytest.fixture()
def employees():
    return Relation(
        ["name", "dept", "salary"],
        [("ann", "cs", 100), ("bob", "cs", 120), ("cal", "ee", 90),
         ("dee", "ee", 200), ("eve", "cs", 110)],
        name="emp",
    )


@pytest.fixture()
def departments():
    return Relation(
        ["dept", "building"],
        [("cs", "X"), ("ee", "Y"), ("me", "Z")],
        name="dept",
    )


def test_schema_validation():
    with pytest.raises(ValueError):
        Relation(["a", "b"], [(1,)])
    with pytest.raises(ValueError):
        Relation(["a"], [(1,)], annotations=[])


def test_select_keeps_annotations(employees):
    rich = employees.select(lambda t: t["salary"] > 100)
    assert len(rich) == 3
    assert {t[0] for t in rich} == {"bob", "dee", "eve"}
    # annotations still identify the original base tuples
    assert rich.annotations[0] == frozenset([frozenset(["emp:1"])])


def test_project_merges_duplicate_witnesses(employees):
    depts = employees.project(["dept"])
    assert len(depts) == 2
    cs_annotation = depts.annotations[depts.rows.index(("cs",))]
    # why-provenance: three alternative single-tuple witnesses
    assert cs_annotation == frozenset([
        frozenset(["emp:0"]), frozenset(["emp:1"]), frozenset(["emp:4"])
    ])


def test_join_multiplies_annotations(employees, departments):
    joined = employees.join(departments)
    assert len(joined) == 5
    assert joined.columns == ["name", "dept", "salary", "building"]
    first = joined.annotations[0]
    # the witness pairs the employee tuple with its department tuple
    assert first == frozenset([frozenset(["emp:0", "dept:0"])])


def test_join_drops_unmatched(employees, departments):
    joined = employees.join(departments)
    assert all(t[3] in ("X", "Y") for t in joined)  # no 'me' building


def test_union_set_semantics(employees):
    cs = employees.select(lambda t: t["dept"] == "cs")
    rich = employees.select(lambda t: t["salary"] >= 110)
    both = cs.union(rich)
    names = {t[0] for t in both}
    assert names == {"ann", "bob", "eve", "dee"}
    assert len(both) == 4  # duplicates merged


def test_union_requires_same_schema(employees, departments):
    with pytest.raises(ValueError):
        employees.union(departments)


def test_group_by_aggregates(employees):
    for agg, column, expected in [
        ("count", None, {("cs", 3), ("ee", 2)}),
        ("sum", "salary", {("cs", 330), ("ee", 290)}),
        ("avg", "salary", {("cs", 110.0), ("ee", 145.0)}),
        ("min", "salary", {("cs", 100), ("ee", 90)}),
        ("max", "salary", {("cs", 120), ("ee", 200)}),
    ]:
        result = employees.group_by(["dept"], agg, column)
        assert set(result.rows) == expected


def test_group_by_validation(employees):
    with pytest.raises(ValueError):
        employees.group_by(["dept"], "median", "salary")
    with pytest.raises(ValueError):
        employees.group_by(["dept"], "sum")


def test_counting_semiring_counts_derivations():
    r = Relation(["a"], [(1,), (1,), (2,)], semiring=CountingSemiring())
    projected = r.project(["a"])
    counts = dict(zip([t[0] for t in projected], projected.annotations))
    assert counts == {1: 2, 2: 1}


def test_to_dicts(employees):
    dicts = employees.to_dicts()
    assert dicts[0] == {"name": "ann", "dept": "cs", "salary": 100}


def test_missing_column_keyerror(employees):
    with pytest.raises(KeyError):
        employees.project(["ghost"])


def test_missing_column_error_names_relation_and_columns(employees):
    # The KeyError must be actionable: which relation, which column,
    # and what *is* available (not list.index's cryptic ValueError).
    with pytest.raises(KeyError) as excinfo:
        employees.project(["ghost"])
    message = str(excinfo.value)
    assert "'emp'" in message
    assert "'ghost'" in message
    assert "name" in message and "dept" in message and "salary" in message


def test_join_no_shared_columns_is_cartesian_product(employees):
    # No shared columns: the join hashes on the empty tuple, so every
    # pair matches — a cartesian product with annotations still ⊗-ed.
    sites = Relation(["site"], [("north",), ("south",)], name="sites")
    product = employees.join(sites)
    assert product.columns == ["name", "dept", "salary", "site"]
    assert len(product) == len(employees) * len(sites)
    assert product.rows[0] == ("ann", "cs", 100, "north")
    assert product.rows[1] == ("ann", "cs", 100, "south")
    # ⊗ of two why-tags is the joint witness set.
    assert product.annotations[0] == frozenset([
        frozenset(["emp:0", "sites:0"])
    ])


def test_insert_delete_maintain_indexes(employees):
    dept_index = employees.indexes.hash_index(("dept",))
    salary_index = employees.indexes.sort_index("salary")
    assert dept_index.lookup(("cs",)) == [0, 1, 4]
    new_id = employees.insert(("fay", "cs", 95))
    assert new_id == 5
    assert dept_index.lookup(("cs",)) == [0, 1, 4, 5]
    assert 5 in salary_index.range_ids(90, 100)
    employees.delete(0)  # ann; every later id shifts down by one
    assert dept_index.lookup(("cs",)) == [0, 3, 4]
    assert employees.rows[0] == ("bob", "cs", 120)


def test_negative_delete_keeps_indexes_equal_to_a_rebuild(employees):
    dept_index = employees.indexes.hash_index(("dept",))
    salary_index = employees.indexes.sort_index("salary")
    assert employees.delete(-1) == ("eve", "cs", 110)
    fresh = employees.subset(range(len(employees)))
    for dept in ("cs", "ee"):
        assert dept_index.lookup((dept,)) == \
            fresh.indexes.hash_index(("dept",)).lookup((dept,))
    assert salary_index.range_ids(100, 200) == \
        fresh.indexes.sort_index("salary").range_ids(100, 200)
    assert salary_index.range_ids() == [0, 1, 2, 3]
    query = Query(employees).select(
        And(Eq("dept", "cs"), Range("salary", 50, 200)))
    assert query.execute().rows == legacy_execute(query).rows == [
        ("ann", "cs", 100), ("bob", "cs", 120)]


def test_delete_bursts_keep_index_bookkeeping_linear():
    # No read renumbers here, so only the delete path bounds the record
    # of deleted row stamps by the relation's size.
    relation = Relation(["a"], [(i,) for i in range(40)])
    index = relation.indexes.hash_index(("a",))
    for __ in range(39):
        relation.delete(0)
        assert len(relation.indexes._gone) <= len(relation)
    assert index.lookup((39,)) == [0]


def test_nan_column_falls_back_to_the_scan():
    # NaN compares false both ways, so a sorted column cannot place it:
    # range selects over such a column must scan, and deletes among the
    # NaN entries must leave no stale row id behind.
    nan = float("nan")
    relation = Relation(["b"], [(1.0,), (2.0,)])
    assert relation.indexes.sort_index("b") is not None
    for value in (nan, 0.5, nan, 3.0, 0.1):
        relation.insert((value,))
    assert relation.delete(3) == (0.5,)
    fresh = relation.subset(range(len(relation)))
    for window in (Range("b", 0.05, 2.0), Range("b")):
        query = Query(relation).select(window)
        assert query.execute().rows == legacy_execute(query).rows == \
            legacy_execute(Query(fresh).select(window)).rows
    assert Query(relation).select(Range("b", 0.05, 2.0)).execute().rows \
        == [(1.0,), (2.0,), (0.1,)]
    assert relation.indexes.sort_index("b") is None
    scattered = Relation(["b"], [(3.0,), (nan,), (1.0,), (2.0,), (0.5,)])
    query = Query(scattered).select(Range("b", 0.9, 3.0))
    assert query.execute().rows == legacy_execute(query).rows == [
        (3.0,), (1.0,), (2.0,)]


def test_insert_tags_never_reuse_deleted_ids(employees):
    employees.delete(4)
    inserted = employees.insert(("zed", "me", 50))
    annotation = employees.annotations[inserted]
    assert annotation == frozenset([frozenset(["emp:5"])])


def test_subset_shares_schema_and_annotations(employees):
    sub = employees.subset([4, 0])
    assert sub.columns == employees.columns
    assert sub.rows == [employees.rows[4], employees.rows[0]]
    assert sub.annotations == [employees.annotations[4],
                               employees.annotations[0]]
    assert sub.name == employees.name
    assert sub.semiring is employees.semiring
