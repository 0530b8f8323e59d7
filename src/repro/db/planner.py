"""Rule-based query planner for the provenance-aware mini engine.

Pipelines over :class:`~repro.db.relation.Relation` (select / project /
join / union) are captured as a logical tree by :class:`Query`, rewritten
by a small set of rules, and lowered to a physical plan:

* **predicate pushdown** — conjuncts of a selection move below joins
  (to the side whose schema covers them), below projections (when they
  only touch projected columns), and into both branches of a union;
  opaque callables never move.
* **access-path selection** — a selection sitting directly on a base
  relation picks the cheapest index that serves one conjunct: an
  equality predicate probes a :class:`~repro.db.index.HashIndex`, a
  range predicate becomes a :class:`~repro.db.index.SortIndex` bisect
  window (interval-window shrinking: two binary searches bound the
  scan), negated equalities/ranges read the complement. Remaining
  conjuncts run as a residual filter over the (already small) slice.
* **join strategy** — a join whose right input is a base relation runs
  index-nested-loop against that relation's persistent hash index;
  otherwise it is a hash join (the naive ``Relation.join``, which
  builds an ephemeral hash table on its right input). Joins with no
  shared columns degenerate to the cartesian product keyed on the
  empty tuple, annotations still combined by ⊗.

Every physical plan is **answer-equivalent to the naive path**: same
rows, same order, same multiplicities, same semiring annotations; the
differential harness (``tests/test_db_index_equivalence.py``) checks
every plan against the unoptimized operator pipeline.
``explain_plan()`` renders the physical tree as text; ~8 representative
renderings are frozen as goldens (``tests/goldens/db_plans.json``).

Index usage is reported through ``repro.obs`` (``db.index.hits`` /
``db.index.misses``).
"""

from __future__ import annotations

from typing import Callable

from .index import record_hit, record_miss
from .relation import Relation

__all__ = [
    "Predicate",
    "Eq",
    "Range",
    "And",
    "Not",
    "Opaque",
    "as_predicate",
    "Query",
    "matching_indices",
]


# -- structured predicates -----------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return repr(value)
    return f"{value:g}"


class Predicate:
    """A boolean predicate over a row's dict view.

    Structured subclasses expose which columns they touch, which is what
    lets the planner push them around and serve them from indexes; an
    :class:`Opaque` wrapper carries any plain callable (never optimized,
    always equivalent).
    """

    def __call__(self, row: dict) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def columns(self) -> set[str] | None:
        """Referenced columns, or None when unknown (opaque)."""
        return None


class Eq(Predicate):
    """``column == value`` — hash-index servable."""

    def __init__(self, column: str, value) -> None:
        self.column = column
        self.value = value

    def __call__(self, row: dict) -> bool:
        return row[self.column] == self.value

    def describe(self) -> str:
        return f"{self.column} = {self.value!r}"

    def columns(self) -> set[str]:
        return {self.column}


class Range(Predicate):
    """A ``lo < column <= hi`` style window — sort-index servable.

    Either bound may be None/±inf (one-sided window); closedness is per
    bound and defaults to the half-open quartile convention.
    """

    def __init__(self, column: str, lo=None, hi=None, *,
                 lo_closed: bool = False, hi_closed: bool = True) -> None:
        self.column = column
        self.lo = lo
        self.hi = hi
        self.lo_closed = lo_closed
        self.hi_closed = hi_closed

    def __call__(self, row: dict) -> bool:
        value = row[self.column]
        if self.lo is not None:
            if self.lo_closed:
                if not self.lo <= value:
                    return False
            elif not self.lo < value:
                return False
        if self.hi is not None:
            if self.hi_closed:
                if not value <= self.hi:
                    return False
            elif not value < self.hi:
                return False
        return True

    def describe(self) -> str:
        parts = []
        if self.lo is not None:
            parts.append(f"{_fmt(self.lo)} {'<=' if self.lo_closed else '<'}")
        parts.append(self.column)
        if self.hi is not None:
            parts.append(f"{'<=' if self.hi_closed else '<'} {_fmt(self.hi)}")
        return " ".join(parts)

    def columns(self) -> set[str]:
        return {self.column}


class And(Predicate):
    """Conjunction; the planner splits it into independent conjuncts."""

    def __init__(self, *parts) -> None:
        self.parts = [as_predicate(p) for p in parts]

    def __call__(self, row: dict) -> bool:
        return all(p(row) for p in self.parts)

    def describe(self) -> str:
        return " AND ".join(p.describe() for p in self.parts)

    def columns(self) -> set[str] | None:
        out: set[str] = set()
        for p in self.parts:
            cols = p.columns()
            if cols is None:
                return None
            out |= cols
        return out


class Not(Predicate):
    """Negation; indexable when the inner predicate is (complement)."""

    def __init__(self, part) -> None:
        self.part = as_predicate(part)

    def __call__(self, row: dict) -> bool:
        return not self.part(row)

    def describe(self) -> str:
        return f"NOT ({self.part.describe()})"

    def columns(self) -> set[str] | None:
        return self.part.columns()


class Opaque(Predicate):
    """Any plain callable — never pushed, never indexed."""

    def __init__(self, fn: Callable[[dict], bool],
                 description: str = "<opaque predicate>") -> None:
        self.fn = fn
        self.description = description

    def __call__(self, row: dict) -> bool:
        return self.fn(row)

    def describe(self) -> str:
        return self.description

    def columns(self) -> None:
        return None


def as_predicate(predicate) -> Predicate:
    if isinstance(predicate, Predicate):
        return predicate
    return Opaque(predicate)


def _conjuncts(predicate: Predicate) -> list[Predicate]:
    if isinstance(predicate, And):
        out: list[Predicate] = []
        for part in predicate.parts:
            out.extend(_conjuncts(part))
        return out
    return [predicate]


def _recombine(conjuncts: list[Predicate]) -> Predicate | None:
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return And(*conjuncts)


# -- logical tree --------------------------------------------------------------


class _Scan:
    def __init__(self, relation: Relation) -> None:
        self.relation = relation

    def schema(self) -> list[str]:
        return list(self.relation.columns)


class _Select:
    def __init__(self, child, predicate: Predicate,
                 pushed: bool = False) -> None:
        self.child = child
        self.predicate = predicate
        self.pushed = pushed

    def schema(self) -> list[str]:
        return self.child.schema()


class _Project:
    def __init__(self, child, columns: list[str]) -> None:
        self.child = child
        self.columns = list(columns)

    def schema(self) -> list[str]:
        return list(self.columns)


class _Join:
    def __init__(self, left, right) -> None:
        self.left = left
        self.right = right

    def schema(self) -> list[str]:
        left = self.left.schema()
        return left + [c for c in self.right.schema() if c not in left]


class _Union:
    def __init__(self, left, right) -> None:
        self.left = left
        self.right = right

    def schema(self) -> list[str]:
        return self.left.schema()


# -- rewrite rules -------------------------------------------------------------


def _push_selects(node):
    """Push selection conjuncts as deep as their columns allow."""
    if isinstance(node, _Scan):
        return node
    if isinstance(node, _Project):
        return _Project(_push_selects(node.child), node.columns)
    if isinstance(node, _Join):
        return _Join(_push_selects(node.left), _push_selects(node.right))
    if isinstance(node, _Union):
        return _Union(_push_selects(node.left), _push_selects(node.right))
    child = _push_selects(node.child)
    conjuncts = _conjuncts(node.predicate)
    if isinstance(child, _Join):
        left_schema = set(child.left.schema())
        right_schema = set(child.right.schema())
        to_left, to_right, keep = [], [], []
        for part in conjuncts:
            cols = part.columns()
            if cols is not None and cols <= left_schema:
                to_left.append(part)
            elif cols is not None and cols <= right_schema:
                to_right.append(part)
            else:
                keep.append(part)
        left, right = child.left, child.right
        if to_left:
            left = _push_selects(
                _Select(left, _recombine(to_left), pushed=True)
            )
        if to_right:
            right = _push_selects(
                _Select(right, _recombine(to_right), pushed=True)
            )
        out = _Join(left, right)
        residual = _recombine(keep)
        return _Select(out, residual, node.pushed) if residual else out
    if isinstance(child, _Project):
        cols = node.predicate.columns()
        if cols is not None and cols <= set(child.columns):
            pushed = _push_selects(
                _Select(child.child, node.predicate, pushed=True)
            )
            return _Project(pushed, child.columns)
    if isinstance(child, _Union):
        cols = node.predicate.columns()
        if cols is not None:
            return _Union(
                _push_selects(
                    _Select(child.left, node.predicate, pushed=True)
                ),
                _push_selects(
                    _Select(child.right, node.predicate, pushed=True)
                ),
            )
    return _Select(child, node.predicate, node.pushed)


# -- index access paths --------------------------------------------------------


def _servable(relation: Relation, conjunct: Predicate):
    """(kind, spec) when an index can serve the conjunct, else None."""
    if isinstance(conjunct, Eq):
        return ("hash-eq", conjunct)
    if isinstance(conjunct, Range):
        if relation.indexes.sort_index(conjunct.column) is not None:
            return ("sort-range", conjunct)
        return None
    if isinstance(conjunct, Not):
        inner = conjunct.part
        if isinstance(inner, Eq):
            return ("hash-complement", inner)
        if isinstance(inner, Range):
            if relation.indexes.sort_index(inner.column) is not None:
                return ("sort-complement", inner)
    return None


def _conjunct_ids(relation: Relation, kind: str, spec) -> list[int]:
    """Ascending row ids served by the chosen index access path."""
    if kind == "hash-eq":
        index = relation.indexes.hash_index((spec.column,))
        return index.lookup((spec.value,))
    if kind == "hash-complement":
        hit = set(
            relation.indexes.hash_index((spec.column,)).lookup((spec.value,))
        )
        return [i for i in range(len(relation)) if i not in hit]
    index = relation.indexes.sort_index(spec.column)
    if index is None:  # values mutated to unorderable since planning
        record_miss()
        cols = relation.columns
        check = spec if kind == "sort-range" else Not(spec)
        return [
            i for i, row in enumerate(relation.rows)
            if check(dict(zip(cols, row)))
        ]
    ids = index.range_ids(spec.lo, spec.hi, lo_closed=spec.lo_closed,
                          hi_closed=spec.hi_closed)
    if kind == "sort-range":
        return ids
    hit = set(ids)
    return [i for i in range(len(relation)) if i not in hit]


def _access_path(relation: Relation, predicate: Predicate):
    """Pick one index-servable conjunct; the rest become the residual.

    Returns ``(kind, spec, residual, structured)`` — kind None when the
    plan must fall back to a filter scan; ``structured`` says whether
    any conjunct looked indexable (a countable miss on fallback).
    """
    conjuncts = _conjuncts(predicate)
    structured = any(c.columns() is not None for c in conjuncts)
    for at, conjunct in enumerate(conjuncts):  # prefer equality probes
        if isinstance(conjunct, Eq):
            rest = conjuncts[:at] + conjuncts[at + 1:]
            return "hash-eq", conjunct, _recombine(rest), structured
    for at, conjunct in enumerate(conjuncts):
        served = _servable(relation, conjunct)
        if served is not None:
            rest = conjuncts[:at] + conjuncts[at + 1:]
            return served[0], served[1], _recombine(rest), structured
    return None, None, None, structured


_ACCESS_LABEL = {
    "hash-eq": "hash index",
    "hash-complement": "hash index (complement)",
    "sort-range": "sort index",
    "sort-complement": "sort index (complement)",
}


def matching_indices(relation: Relation, predicate) -> list[int]:
    """Ascending row ids of ``relation`` satisfying ``predicate``.

    The index-served entry point the why-not tracer and complaint scopes
    use; equivalent to filtering ``enumerate(relation.rows)`` and
    counted as a ``db.index`` hit or miss.
    """
    predicate = as_predicate(predicate)
    kind, spec, residual, __ = _access_path(relation, predicate)
    cols = relation.columns
    if kind is None:
        record_miss()
        return [
            i for i, row in enumerate(relation.rows)
            if predicate(dict(zip(cols, row)))
        ]
    record_hit()
    ids = _conjunct_ids(relation, kind, spec)
    if residual is None:
        return ids
    return [
        i for i in ids if residual(dict(zip(cols, relation.rows[i])))
    ]


# -- physical plan -------------------------------------------------------------


class _PhysicalNode:
    children: list

    def execute(self) -> Relation:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class _ScanNode(_PhysicalNode):
    def __init__(self, relation: Relation) -> None:
        self.relation = relation
        self.children = []

    def execute(self) -> Relation:
        return self.relation

    def describe(self) -> str:
        return (f"scan {self.relation.name} "
                f"({len(self.relation)} rows)")


class _FilterNode(_PhysicalNode):
    def __init__(self, child: _PhysicalNode, predicate: Predicate,
                 pushed: bool = False, countable_miss: bool = False) -> None:
        self.child = child
        self.predicate = predicate
        self.pushed = pushed
        self.countable_miss = countable_miss
        self.children = [child]

    def execute(self) -> Relation:
        if self.countable_miss:
            record_miss()
        return self.child.execute().select(self.predicate)

    def describe(self) -> str:
        note = " (pushed down)" if self.pushed else ""
        return f"select {self.predicate.describe()} via filter scan{note}"


class _IndexSelectNode(_PhysicalNode):
    def __init__(self, relation: Relation, kind: str, spec,
                 residual: Predicate | None, pushed: bool = False) -> None:
        self.relation = relation
        self.kind = kind
        self.spec = spec
        self.residual = residual
        self.pushed = pushed
        self.children = [_ScanNode(relation)]

    def execute(self) -> Relation:
        record_hit()
        ids = _conjunct_ids(self.relation, self.kind, self.spec)
        out = self.relation.subset(ids)
        if self.residual is not None:
            out = out.select(self.residual)
        return out

    def describe(self) -> str:
        access = (f"{_ACCESS_LABEL[self.kind]} on "
                  f"{self.relation.name}({self.spec.column})")
        shown = (self.spec.describe() if self.kind in
                 ("hash-eq", "sort-range")
                 else f"NOT ({self.spec.describe()})")
        note = f", residual: {self.residual.describe()}" if self.residual \
            else ""
        pushed = " (pushed down)" if self.pushed else ""
        return f"select {shown} via {access}{note}{pushed}"


class _HashJoinNode(_PhysicalNode):
    def __init__(self, left: _PhysicalNode, right: _PhysicalNode,
                 shared: list[str]) -> None:
        self.left = left
        self.right = right
        self.shared = shared
        self.children = [left, right]

    def execute(self) -> Relation:
        return self.left.execute().join(self.right.execute())

    def describe(self) -> str:
        return (f"join on ({', '.join(self.shared)}) — hash join "
                f"(ephemeral build on right)")


class _IndexJoinNode(_PhysicalNode):
    """Index-nested-loop: probe the right base relation's persistent
    hash index per left row. Output order matches the naive join (left
    order outer, ascending postings inner)."""

    def __init__(self, left: _PhysicalNode, right: Relation,
                 shared: list[str]) -> None:
        self.left = left
        self.right = right
        self.shared = shared
        self.children = [left, _ScanNode(right)]

    def execute(self) -> Relation:
        left = self.left.execute()
        right = self.right
        record_hit()
        index = right.indexes.hash_index(tuple(self.shared))
        my_shared = [left._col(c) for c in self.shared]
        other_only = [c for c in right.columns if c not in self.shared]
        their_rest = [right._col(c) for c in other_only]
        out_rows, out_annotations = [], []
        for row, annotation in zip(left.rows, left.annotations):
            key = tuple(row[i] for i in my_shared)
            for j in index.lookup(key):
                out_rows.append(
                    row + tuple(right.rows[j][i] for i in their_rest)
                )
                out_annotations.append(
                    left.semiring.times(annotation, right.annotations[j])
                )
        return Relation(left.columns + other_only, out_rows, left.semiring,
                        out_annotations, f"{left.name}⋈{right.name}")

    def describe(self) -> str:
        return (f"join on ({', '.join(self.shared)}) — index-nested-loop "
                f"(persistent hash index on "
                f"{self.right.name}({', '.join(self.shared)}))")


class _CartesianNode(_PhysicalNode):
    def __init__(self, left: _PhysicalNode, right: _PhysicalNode) -> None:
        self.left = left
        self.right = right
        self.children = [left, right]

    def execute(self) -> Relation:
        return self.left.execute().join(self.right.execute())

    def describe(self) -> str:
        return ("join on () — cartesian product "
                "(no shared columns, ⊗ on empty key)")


class _ProjectNode(_PhysicalNode):
    def __init__(self, child: _PhysicalNode, columns: list[str]) -> None:
        self.child = child
        self.columns = columns
        self.children = [child]

    def execute(self) -> Relation:
        return self.child.execute().project(self.columns)

    def describe(self) -> str:
        return (f"project [{', '.join(self.columns)}] "
                f"(duplicates merged by ⊕)")


class _UnionNode(_PhysicalNode):
    def __init__(self, left: _PhysicalNode, right: _PhysicalNode) -> None:
        self.left = left
        self.right = right
        self.children = [left, right]

    def execute(self) -> Relation:
        return self.left.execute().union(self.right.execute())

    def describe(self) -> str:
        return "union (set semantics, duplicates merged by ⊕)"


def _lower(node) -> _PhysicalNode:
    """Lower the rewritten logical tree to physical operators."""
    if isinstance(node, _Scan):
        return _ScanNode(node.relation)
    if isinstance(node, _Select):
        if isinstance(node.child, _Scan):
            relation = node.child.relation
            kind, spec, residual, structured = _access_path(
                relation, node.predicate
            )
            if kind is not None:
                return _IndexSelectNode(relation, kind, spec, residual,
                                        pushed=node.pushed)
            return _FilterNode(_ScanNode(relation), node.predicate,
                               pushed=node.pushed,
                               countable_miss=structured)
        return _FilterNode(_lower(node.child), node.predicate,
                           pushed=node.pushed)
    if isinstance(node, _Project):
        return _ProjectNode(_lower(node.child), node.columns)
    if isinstance(node, _Union):
        return _UnionNode(_lower(node.left), _lower(node.right))
    left_schema = node.left.schema()
    right_schema = node.right.schema()
    shared = [c for c in left_schema if c in right_schema]
    left = _lower(node.left)
    if not shared:
        return _CartesianNode(left, _lower(node.right))
    if isinstance(node.right, _Scan):
        return _IndexJoinNode(left, node.right.relation, shared)
    return _HashJoinNode(left, _lower(node.right), shared)


def _render(node: _PhysicalNode) -> str:
    lines = [node.describe()]

    def walk(children: list, prefix: str) -> None:
        for at, child in enumerate(children):
            last = at == len(children) - 1
            branch = "└─ " if last else "├─ "
            lines.append(prefix + branch + child.describe())
            walk(child.children, prefix + ("   " if last else "│  "))

    walk(node.children, "")
    return "\n".join(lines)


# -- the query builder ---------------------------------------------------------


class Query:
    """A logical pipeline over relations, planned before execution.

    Build with chained ``select`` / ``project`` / ``join`` / ``union``
    (immutable — each returns a new query), then ``execute()`` for the
    planned result or ``explain_plan()`` for the physical-plan text.
    """

    def __init__(self, relation: Relation | None = None, *, _root=None
                 ) -> None:
        if _root is not None:
            self._root = _root
        elif relation is not None:
            self._root = _Scan(relation)
        else:
            raise ValueError("Query needs a relation")

    def select(self, predicate) -> "Query":
        return Query(_root=_Select(self._root, as_predicate(predicate)))

    def project(self, columns: list[str]) -> "Query":
        return Query(_root=_Project(self._root, columns))

    def join(self, other) -> "Query":
        return Query(_root=_Join(self._root, self._as_node(other)))

    def union(self, other) -> "Query":
        return Query(_root=_Union(self._root, self._as_node(other)))

    @staticmethod
    def _as_node(other):
        return other._root if isinstance(other, Query) else _Scan(other)

    def plan(self) -> _PhysicalNode:
        return _lower(_push_selects(self._root))

    def execute(self) -> Relation:
        return self.plan().execute()

    def explain_plan(self) -> str:
        return _render(self.plan())
