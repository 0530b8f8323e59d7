"""Relational and provenance indexes for the mini engine (ROADMAP item 2).

The XPath-accelerator idea applied to provenance: instead of answering
"which tuples support this output" with full lineage walks, derivation
forests are **interval-encoded** — every node occurrence gets a
``(pre, post)`` interval from a DFS numbering, so

* the descendant closure of a node (its *lineage*) is a contiguous
  slice of the pre-sorted occurrence table — a sorted-interval range
  scan instead of a recursive walk,
* ancestor/containment checks ("does output o depend on base tuple
  t?") are O(log n) binary searches instead of O(n) traversals, and
* "which outputs does this base tuple support" resolves each
  occurrence to its covering root by one ``bisect`` into the root
  interval table.

DAG nodes shared by several parents are handled by *occurrence
expansion*: each (node, parent-slot) pair receives its own interval,
and a node maps to the list of its occurrences. Closure queries prune
with ``subtree_size`` — leaf occurrences and occurrences whose interval
is already covered by a scanned window are skipped, which is the
window-shrinking trick of the accelerator papers.

Incremental maintenance keeps single-tuple changes cheap: a leaf insert
allocates a fresh interval inside its parent's remaining **gap** (pre /
post numbers are floats, so no renumbering pass), and a delete is a
tombstone plus an O(depth) ``subtree_size`` fixup — the index is never
rebuilt for a single-tuple change (``compact()`` reclaims tombstones
when fragmentation passes 50%). E45 measures incremental maintenance
against the full rebuild.

The relational side gets :class:`HashIndex` (equality postings) and
:class:`SortIndex` (bisect range scans), built lazily per
:class:`~repro.db.relation.Relation` through :class:`RelationIndexes`
and maintained through ``Relation.insert`` / ``Relation.delete``.
Their postings hold stable row stamps rather than positions, so a
single-tuple delete touches one posting per index, and readers rank
stamps back to positions (see :class:`RelationIndexes`).
The rule-based planner (:mod:`repro.db.planner`) is the only consumer
that chooses between them and the naive scans.

Telemetry (``repro.obs`` counters): ``db.index.hits`` / ``misses``
(index-served vs fallback lookups), ``db.index.builds``,
``db.index.maintained`` (incremental updates applied),
``db.index.invalidations``, and ``db.index.tombstones``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

from ..config import setting
from ..obs import metrics

__all__ = [
    "HashIndex",
    "SortIndex",
    "SortIndexUnavailable",
    "RelationIndexes",
    "ProvenanceDAG",
    "IntervalIndex",
    "IntervalBlowupError",
    "LineageSupportIndex",
]

_HITS = "db.index.hits"
_MISSES = "db.index.misses"
_BUILDS = "db.index.builds"
_MAINTAINED = "db.index.maintained"
_INVALIDATIONS = "db.index.invalidations"
_TOMBSTONES = "db.index.tombstones"


def record_hit(n: int = 1) -> None:
    metrics.counter(_HITS).inc(n)


def record_miss(n: int = 1) -> None:
    metrics.counter(_MISSES).inc(n)


# -- relational indexes --------------------------------------------------------


class SortIndexUnavailable(TypeError):
    """The column's values are not mutually orderable (mixed types)."""


class HashIndex:
    """Equality postings ``key -> ascending row stamps`` over one or more
    columns.

    Postings keep ascending row order, so index-served selections and
    index-nested-loop joins emit rows in exactly the order the naive
    scans would — the planner's equivalence contract. Built and owned by
    a :class:`RelationIndexes`, whose stamps the postings hold.
    """

    __slots__ = ("columns", "_owner", "_positions", "_postings")

    def __init__(self, owner: "RelationIndexes", columns) -> None:
        relation = owner._relation
        self._owner = owner
        self.columns = tuple(columns)
        self._positions = [relation._col(c) for c in self.columns]
        postings: dict = {}
        for i, row in enumerate(relation.rows):
            postings.setdefault(self.key_of(row), []).append(i)
        self._postings = postings
        metrics.counter(_BUILDS).inc()

    def key_of(self, row) -> tuple:
        return tuple(row[j] for j in self._positions)

    def lookup(self, key) -> list[int]:
        """Ascending row ids matching ``key``, as a fresh list."""
        ids = self._postings.get(tuple(key), ())
        gone = self._owner._gone
        if not gone:
            return list(ids)
        return [s - bisect_left(gone, s) for s in ids]

    def groups(self):
        """``(key, ascending row ids)`` pairs, insertion-ordered; a full
        pass, so postings are renumbered to positions first."""
        self._owner._renumber()
        return self._postings.items()

    # -- incremental maintenance (no re-hash of unaffected rows) -----------

    def on_insert(self, stamp: int, row) -> None:
        self._postings.setdefault(self.key_of(row), []).append(stamp)
        metrics.counter(_MAINTAINED).inc()

    def on_delete(self, stamp: int, row) -> None:
        key = self.key_of(row)
        ids = self._postings.get(key, [])
        at = bisect_left(ids, stamp)
        if at < len(ids) and ids[at] == stamp:
            ids.pop(at)
        if not ids:
            self._postings.pop(key, None)
        metrics.counter(_MAINTAINED).inc()

    def renumber(self, gone: list[int]) -> None:
        # Stamps below every gone stamp keep their value, stamps above
        # all of them drop by len(gone); only those in between bisect.
        low, top, shift = gone[0], gone[-1], len(gone)
        for ids in self._postings.values():
            for k in range(bisect_right(ids, low), len(ids)):
                s = ids[k]
                ids[k] = s - shift if s > top else s - bisect_left(gone, s)


class SortIndex:
    """Bisect range scans over one orderable column.

    Answers ``lo < x <= hi`` windows (any bound optional / closed) with
    two binary searches plus a slice; ids are re-sorted ascending so the
    output order matches the naive filter scan. Entries of equal value
    hold ascending stamps. A value unequal to itself (NaN) has no place
    in the order, so it makes the column unavailable like a type mix.
    """

    __slots__ = ("column", "_owner", "_position", "_keys", "_ids")

    def __init__(self, owner: "RelationIndexes", column: str) -> None:
        relation = owner._relation
        self._owner = owner
        self.column = column
        self._position = relation._col(column)
        try:
            pairs = sorted(
                (row[self._position], i)
                for i, row in enumerate(relation.rows)
            )
        except TypeError as exc:
            raise SortIndexUnavailable(
                f"column {column!r} mixes unorderable types"
            ) from exc
        self._keys = [k for k, __ in pairs]
        if any(k != k for k in self._keys):
            raise SortIndexUnavailable(f"column {column!r} holds NaN")
        self._ids = [i for __, i in pairs]
        metrics.counter(_BUILDS).inc()

    def range_ids(self, lo=None, hi=None, *, lo_closed: bool = False,
                  hi_closed: bool = True) -> list[int]:
        """Ascending row ids with value in the (lo, hi] style window."""
        left = 0
        if lo is not None and lo != float("-inf"):
            left = (bisect_left if lo_closed else bisect_right)(
                self._keys, lo
            )
        right = len(self._keys)
        if hi is not None and hi != float("inf"):
            right = (bisect_right if hi_closed else bisect_left)(
                self._keys, hi
            )
        gone = self._owner._gone
        ids = sorted(self._ids[left:right])
        if not gone:
            return ids
        return [s - bisect_left(gone, s) for s in ids]

    def eq_ids(self, value) -> list[int]:
        return self.range_ids(value, value, lo_closed=True, hi_closed=True)

    def on_insert(self, stamp: int, row) -> None:
        value = row[self._position]
        if value != value:
            raise SortIndexUnavailable(f"column {self.column!r} holds NaN")
        try:
            at = bisect_right(self._keys, value)
        except TypeError as exc:
            raise SortIndexUnavailable(
                f"column {self.column!r} mixes unorderable types"
            ) from exc
        self._keys.insert(at, value)
        self._ids.insert(at, stamp)
        metrics.counter(_MAINTAINED).inc()

    def on_delete(self, stamp: int, row) -> None:
        value = row[self._position]
        lo = bisect_left(self._keys, value)
        hi = bisect_right(self._keys, value, lo)
        at = bisect_left(self._ids, stamp, lo, hi)
        if at < hi and self._ids[at] == stamp:
            self._keys.pop(at)
            self._ids.pop(at)
        metrics.counter(_MAINTAINED).inc()

    def renumber(self, gone: list[int]) -> None:
        self._ids = [s - bisect_left(gone, s) for s in self._ids]


class RelationIndexes:
    """Lazy index container attached to one :class:`Relation`.

    Indexes are built on first use, kept across queries, and maintained
    incrementally by ``Relation.insert`` / ``Relation.delete``. Any
    out-of-band mutation must call ``Relation.invalidate_indexes()`` —
    that is the invalidation protocol, and it is counted
    (``db.index.invalidations``).

    Postings hold row *stamps*, not positions: an int fixed when the row
    is added, ascending in row order, equal to the position until the
    first delete. A delete records the row's stamp as gone and removes
    it from each index, so no other posting moves: O(log n) plus one
    posting per index. A live stamp's position is its rank among the
    live stamps: the stamp minus the number of gone stamps below it, one
    ``bisect_left``. A read of k stamps ranks each (O(k log n)). A full
    pass (``groups()``) and a new index build first renumber every
    posting to its position; so does a delete that leaves more gone
    stamps than rows, which keeps memory O(n).

    The db layer takes no locks: since a reader may renumber, a
    relation and its indexes are used from one thread at a time.
    """

    def __init__(self, relation) -> None:
        self._relation = relation
        self._hash: dict[tuple, HashIndex] = {}
        self._sort: dict[str, SortIndex] = {}
        self._sort_failed: set[str] = set()
        # Ascending stamps deleted since stamps last equaled positions;
        # the live stamps are the rest of range(len(rows) + len(_gone)).
        self._gone: list[int] = []

    def hash_index(self, columns) -> HashIndex:
        key = tuple(columns)
        found = self._hash.get(key)
        if found is None:
            self._renumber()  # a new index numbers rows by position
            found = self._hash[key] = HashIndex(self, key)
        return found

    def sort_index(self, column: str) -> SortIndex | None:
        """The column's sort index, or None when values are unorderable."""
        if column in self._sort_failed:
            return None
        found = self._sort.get(column)
        if found is None:
            self._renumber()
            try:
                found = self._sort[column] = SortIndex(self, column)
            except SortIndexUnavailable:
                self._sort_failed.add(column)
                return None
        return found

    def on_insert(self, i: int, row) -> None:
        stamp = i + len(self._gone)
        for index in self._hash.values():
            index.on_insert(stamp, row)
        for column in list(self._sort):
            try:
                self._sort[column].on_insert(stamp, row)
            except SortIndexUnavailable:
                del self._sort[column]
                self._sort_failed.add(column)
                metrics.counter(_INVALIDATIONS).inc()

    def on_delete(self, i: int, row) -> None:
        gone = self._gone
        if i < 0:
            i += len(self._relation.rows) + 1  # the row is popped already
        # The stamp at position i is i plus the number of gone stamps
        # below it: the count of j with gone[j] - j <= i (non-decreasing).
        stamp = i + bisect_right(range(len(gone)), i,
                                 key=lambda j: gone[j] - j)
        insort(gone, stamp)
        for index in self._hash.values():
            index.on_delete(stamp, row)
        for index in self._sort.values():
            index.on_delete(stamp, row)
        if len(gone) > len(self._relation.rows):
            self._renumber()  # keeps _gone no longer than the relation

    def invalidate(self) -> None:
        n = len(self._hash) + len(self._sort)
        self._hash.clear()
        self._sort.clear()
        self._sort_failed.clear()
        self._gone = []
        if n:
            metrics.counter(_INVALIDATIONS).inc(n)

    def _renumber(self) -> None:
        """Rewrite every posting from stamp to position."""
        if self._gone:
            for index in (*self._hash.values(), *self._sort.values()):
                index.renumber(self._gone)
            self._gone = []


# -- provenance / lineage ------------------------------------------------------


class ProvenanceDAG:
    """A derivation DAG: derived nodes point at the nodes they consume.

    Node ids are arbitrary hashables (base tuples use the ``"R:i"`` tag
    convention). Acyclic by construction: a node's children must already
    be registered (unknown children are auto-registered as leaves).
    """

    def __init__(self) -> None:
        # Keys in insertion order: the node order of ``nodes``/``roots``.
        self._children: dict = {}
        self._parents: dict = {}

    def add_node(self, node, children=()) -> None:
        if node in self._children:
            raise ValueError(f"duplicate node {node!r}")
        children = tuple(children)
        for child in children:
            if child not in self._children:
                self._children[child] = ()
                self._parents[child] = []
            self._parents[child].append(node)
        self._children[node] = children
        self._parents.setdefault(node, [])

    def children(self, node) -> tuple:
        return self._children[node]

    def parents(self, node) -> list:
        return self._parents.get(node, [])

    @property
    def nodes(self) -> list:
        return list(self._children)

    def __contains__(self, node) -> bool:
        return node in self._children

    def __len__(self) -> int:
        return len(self._children)

    def is_leaf(self, node) -> bool:
        return not self._children[node]

    def roots(self) -> list:
        return [n for n in self._children if not self._parents.get(n)]

    @classmethod
    def from_relation(cls, relation, prefix: str = "out") -> "ProvenanceDAG":
        """Two-level forest: one node per output row over its lineage.

        Annotations must carry base-tuple ids — the Why semiring
        (witness sets) or the Lineage semiring (flat sets). Output row
        ``i`` becomes node ``"<prefix>:i"``.
        """
        dag = cls()
        for i, annotation in enumerate(relation.annotations):
            dag.add_node(f"{prefix}:{i}", _lineage_ids(annotation))
        return dag


def _lineage_ids(annotation) -> list:
    """Sorted base ids of a Why or Lineage annotation.

    Pure why-provenance (every member a witness frozenset) flattens to
    the union of witnesses; anything else keeps members as-is, matching
    the naive tracer's ``set(annotation)`` membership semantics exactly
    (mixed-semiring joins can interleave ids with witness sets).
    """
    if not annotation:
        return []
    members = list(annotation)
    if members and all(isinstance(m, frozenset) for m in members):
        flat: set = set()
        for witness in members:
            flat |= witness
        members = list(flat)
    try:
        return sorted(members)
    except TypeError:
        return sorted(members, key=repr)


class IntervalBlowupError(RuntimeError):
    """Occurrence expansion exceeded the configured cap (pathological
    DAG sharing); callers should fall back to the naive walks."""


class _Occ:
    """One occurrence of a node in the expanded derivation forest."""

    __slots__ = ("node", "pre", "post", "parent", "subtree", "alloc",
                 "alive")

    def __init__(self, node, pre, post, parent) -> None:
        self.node = node
        self.pre = pre
        self.post = post
        self.parent = parent       # occurrence id of the parent, or -1
        self.subtree = 1           # alive occurrences in this subtree
        self.alloc = pre           # high-water mark for gap allocation
        self.alive = True


class IntervalIndex:
    """Pre/post-order interval encoding of a :class:`ProvenanceDAG`.

    The DAG is expanded into a forest (one occurrence per parent slot,
    capped at ``max_occurrences``), DFS-numbered with float coordinates
    so single-tuple inserts allocate inside gaps instead of renumbering.
    All queries skip tombstoned occurrences.
    """

    def __init__(self, dag: ProvenanceDAG, max_occurrences: int | None = None
                 ) -> None:
        self.dag = dag
        cap = setting("REPRO_DB_INTERVAL_MAX_OCC", max_occurrences)
        self._cap = max(8 * len(dag), 1024) if cap is None else cap
        self._build()
        metrics.counter(_BUILDS).inc()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        self._occs: list[_Occ] = []
        self._node_occs: dict = {}
        self._by_pre: list[tuple[float, int]] = []
        self._dead = 0
        counter = 0.0
        for root in self.dag.roots():
            counter = self._number(root, -1, counter)
        self._by_pre = sorted(
            (occ.pre, oid) for oid, occ in enumerate(self._occs)
        )
        self._roots = sorted(
            (occ.pre, oid) for oid, occ in enumerate(self._occs)
            if occ.parent == -1
        )

    def _number(self, node, parent: int, counter: float) -> float:
        """Recursive-free DFS assigning pre/post and subtree sizes."""
        # (node, parent occurrence id, state) explicit stack; state is
        # the iterator over remaining children.
        oid = self._new_occ(node, counter, parent)
        counter += 1.0
        stack = [(oid, iter(self.dag.children(node)))]
        while stack:
            top_oid, children = stack[-1]
            child = next(children, None)
            if child is None:
                occ = self._occs[top_oid]
                occ.post = counter
                # Free float region for future leaf inserts: past every
                # existing child's post, strictly before our own post.
                occ.alloc = counter - 1.0
                counter += 1.0
                stack.pop()
                if occ.parent >= 0:
                    self._occs[occ.parent].subtree += occ.subtree
                continue
            child_oid = self._new_occ(child, counter, top_oid)
            counter += 1.0
            stack.append((child_oid, iter(self.dag.children(child))))
        return counter

    def _new_occ(self, node, pre: float, parent: int) -> int:
        if len(self._occs) >= self._cap:
            raise IntervalBlowupError(
                f"occurrence expansion exceeded {self._cap} "
                f"(REPRO_DB_INTERVAL_MAX_OCC) for a DAG of "
                f"{len(self.dag)} nodes"
            )
        oid = len(self._occs)
        occ = _Occ(node, pre, pre, parent)
        self._occs.append(occ)
        self._node_occs.setdefault(node, []).append(oid)
        return oid

    # -- introspection -----------------------------------------------------

    @property
    def n_occurrences(self) -> int:
        return len(self._occs) - self._dead

    @property
    def fragmentation(self) -> float:
        return self._dead / max(len(self._occs), 1)

    def interval_of(self, node) -> list[tuple[float, float]]:
        """The (pre, post] windows of the node's alive occurrences."""
        return [
            (self._occs[oid].pre, self._occs[oid].post)
            for oid in self._node_occs.get(node, [])
            if self._occs[oid].alive
        ]

    def subtree_size(self, node) -> int:
        return sum(
            self._occs[oid].subtree
            for oid in self._node_occs.get(node, [])
            if self._occs[oid].alive
        )

    # -- queries (sorted-interval range scans) -----------------------------

    def _alive_occs(self, node) -> list[_Occ]:
        return [
            self._occs[oid] for oid in self._node_occs.get(node, [])
            if self._occs[oid].alive
        ]

    def descendants(self, node) -> set:
        """Every node strictly below ``node`` — one contiguous range
        scan per occurrence, with ``subtree_size`` pruning (leaf
        occurrences skipped, windows covered by an earlier scan
        skipped)."""
        out: set = set()
        covered: list[tuple[float, float]] = []
        occs = sorted(self._alive_occs(node), key=lambda o: -o.subtree)
        for occ in occs:
            if occ.subtree <= 1:
                continue  # leaf occurrence: nothing below
            if any(lo < occ.pre and occ.post <= hi for lo, hi in covered):
                continue  # window already scanned
            lo = bisect_right(self._by_pre, (occ.pre, len(self._occs)))
            hi = bisect_left(self._by_pre, (occ.post, -1))
            for __, oid in self._by_pre[lo:hi]:
                sub = self._occs[oid]
                if sub.alive:
                    out.add(sub.node)
            covered.append((occ.pre, occ.post))
        out.discard(node)
        return out

    def lineage(self, node) -> set:
        """Base (leaf) nodes supporting ``node``."""
        found = self.descendants(node)
        if not found and self._alive_occs(node) and self.dag.is_leaf(node):
            return set()
        return {n for n in found if self.dag.is_leaf(n)}

    def ancestors(self, node) -> set:
        """Every node strictly above any occurrence of ``node``."""
        out: set = set()
        for occ in self._alive_occs(node):
            parent = occ.parent
            while parent >= 0:
                above = self._occs[parent]
                if above.alive:
                    out.add(above.node)
                parent = above.parent
        out.discard(node)
        return out

    def is_ancestor(self, above, below) -> bool:
        """Interval containment: some occurrence of ``below`` falls in
        some (pre, post] window of ``above`` — two binary searches."""
        below_pres = sorted(
            occ.pre for occ in self._alive_occs(below)
        )
        if not below_pres:
            return False
        for occ in self._alive_occs(above):
            if occ.subtree <= 1:
                continue
            at = bisect_right(below_pres, occ.pre)
            if at < len(below_pres) and below_pres[at] < occ.post:
                return True
        return False

    def supports(self, base_node) -> list:
        """Roots (query outputs) whose derivation uses ``base_node``.

        Each occurrence binary-searches the root interval table for its
        covering root — O(occurrences x log roots), no DAG walk.
        """
        out: list = []
        seen: set = set()
        for occ in self._alive_occs(base_node):
            at = bisect_right(self._roots, (occ.pre, len(self._occs))) - 1
            if at < 0:
                continue
            __, root_oid = self._roots[at]
            root = self._occs[root_oid]
            if root.alive and root.pre <= occ.pre < root.post:
                if root.node not in seen:
                    seen.add(root.node)
                    out.append(root.node)
        return out

    # -- incremental maintenance ------------------------------------------

    def insert_leaf(self, parent, node) -> None:
        """Attach a new base tuple under ``parent`` without renumbering.

        Every alive occurrence of ``parent`` receives a child interval
        allocated inside its remaining (alloc, post) gap — O(depth +
        log n) per parent occurrence, against the O(n) full rebuild.
        """
        if node in self.dag:
            raise ValueError(f"node {node!r} already indexed")
        occs = self._node_occs.get(parent)
        if not occs:
            raise KeyError(f"unknown parent {parent!r}")
        self.dag._children[parent] = self.dag.children(parent) + (node,)
        self.dag._children[node] = ()
        self.dag._parents.setdefault(node, []).append(parent)
        self.dag._parents.setdefault(parent, [])
        # Gap exhaustion: repeated inserts under one parent shrink its
        # float gap geometrically; once it nears ulp, renumber (the
        # accelerator papers renumber locally — a full compact keeps
        # this simple and stays amortized O(1) per ~25 inserts).
        for oid in occs:
            occ = self._occs[oid]
            if occ.alive and (occ.post - occ.alloc) < max(
                abs(occ.post), 1.0
            ) * 1e-12:
                self.compact()
                metrics.counter(_MAINTAINED).inc()
                return
        for oid in list(occs):
            occ = self._occs[oid]
            if not occ.alive:
                continue
            gap = occ.post - occ.alloc
            pre = occ.alloc + gap / 3.0
            post = occ.alloc + 2.0 * gap / 3.0
            occ.alloc = post
            child_oid = len(self._occs)
            child = _Occ(node, pre, post, oid)
            self._occs.append(child)
            self._node_occs.setdefault(node, []).append(child_oid)
            at = bisect_left(self._by_pre, (pre, child_oid))
            self._by_pre.insert(at, (pre, child_oid))
            walk = oid
            while walk >= 0:
                self._occs[walk].subtree += 1
                walk = self._occs[walk].parent
        metrics.counter(_MAINTAINED).inc()

    def delete_leaf(self, node) -> None:
        """Tombstone a base tuple's occurrences (no renumbering) —
        O(depth + branching) per occurrence."""
        if not self.dag.is_leaf(node):
            raise ValueError(f"{node!r} is not a leaf; delete its "
                             "subtree instead")
        tombstoned = 0
        for oid in self._node_occs.pop(node, []):
            occ = self._occs[oid]
            if not occ.alive:
                continue
            occ.alive = False
            tombstoned += 1
            walk = occ.parent
            while walk >= 0:
                self._occs[walk].subtree -= 1
                walk = self._occs[walk].parent
        self._dead += tombstoned
        for parent in self.dag.parents(node):
            self.dag._children[parent] = tuple(
                c for c in self.dag.children(parent) if c != node
            )
        self.dag._children.pop(node, None)
        self.dag._parents.pop(node, None)
        metrics.counter(_TOMBSTONES).inc(tombstoned)
        if self.fragmentation > 0.5:
            self.compact()

    def compact(self) -> None:
        """Rebuild from the (mutated) DAG, reclaiming tombstones."""
        self._build()


class LineageSupportIndex:
    """Interval index over one relation's output-to-base derivations.

    The ``why_not`` tracer asks, per pipeline stage, "does base tuple i
    still support some output?" — here that is a sorted-interval lookup
    (:meth:`supports`) instead of unioning every annotation.
    """

    def __init__(self, relation, prefix: str = "out") -> None:
        self._interval = IntervalIndex(
            ProvenanceDAG.from_relation(relation, prefix=prefix)
        )

    def supports(self, base_id) -> list:
        """Output node ids whose lineage contains ``base_id``."""
        return self._interval.supports(base_id)

    def alive(self, base_id) -> bool:
        return bool(self._interval.supports(base_id))
