"""lineage_mixed: provenance lookups and planned selections under writes.

One process holds an ``IntervalIndex`` over a derivation forest of
10**4 base tuples (branching 10: 10**3 parents, 10**2 grandparents, 10
roots) and an indexed 10**4-row ``Relation``. A seeded stream of ops is
90% reads (``supports``, ``lineage``, a planned ``Query.select(And(Eq,
Range))``) and 10% writes (``insert_leaf`` / ``delete_leaf`` and
``Relation.insert`` / ``Relation.delete`` with built indexes), writes
alternating insert and delete so both structures keep their size. The
benchmark keeps a plain-dict shadow of both structures, updated between
ops, and checks every ``CHECK_EVERY``-th read against it. No other
workload reaches the ``db`` layer.
"""

from __future__ import annotations

import random

from repro.db import (And, Eq, IntervalIndex, ProvenanceDAG, Query, Range,
                      Relation)

from common import (closed_loop, delta, layer_metrics, peak_rss_mb,
                    program_counters, result, timed_setup)
from spans import subset

N_BASE = 10_000
BRANCHING = 10
N_ROWS = 10_000
N_GROUPS = 1_000
CHECK_EVERY = 8
SETUP_REPEATS = 7
WARMUP_READS = 2_000
# Op mix: cumulative probabilities of each kind.
MIX = (
    ("supports", 0.30),
    ("lineage", 0.60),
    ("select", 0.90),
    ("leaf_write", 0.95),
    ("row_write", 1.00),
)


def _forest():
    """Level names: b (base tuples), p, m, r (roots)."""
    dag = ProvenanceDAG()
    width = N_BASE
    for level, below in (("p", "b"), ("m", "p"), ("r", "m")):
        width //= BRANCHING
        for j in range(width):
            dag.add_node((level, j), [
                (below, BRANCHING * j + k) for k in range(BRANCHING)
            ])
    return dag


def _rows(seed):
    rng = random.Random(seed)
    return [(i, rng.randrange(N_GROUPS), rng.random()) for i in range(N_ROWS)]


def build(seed):
    index = IntervalIndex(_forest())
    relation = Relation(["id", "grp", "val"], _rows(seed), name="T")
    relation.indexes.hash_index(("grp",))
    relation.indexes.sort_index("val")
    return index, relation


class Shadow:
    """Plain-dict copy of the forest and the relation, and the op stream
    drawn from it (so deletes always name a live tuple)."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed + 1)
        n_p = N_BASE // BRANCHING
        self.leaves = {p: {("b", BRANCHING * p[1] + k)
                           for k in range(BRANCHING)}
                       for p in (("p", j) for j in range(n_p))}
        self.parent = {b: p for p, bs in self.leaves.items() for b in bs}
        self.live = list(self.parent)          # for O(1) random picks
        self.slot = {b: i for i, b in enumerate(self.live)}
        self.rows = _rows(seed)
        self.next_leaf = 0
        self.next_row = N_ROWS
        self.leaf_inserting = True
        self.row_inserting = True
        self.reads = 0

    @staticmethod
    def root_of(p):
        return ("r", p[1] // (BRANCHING * BRANCHING))

    def lineage(self, node):
        if node[0] == "p":
            return set(self.leaves[node])
        out = set()
        for k in range(BRANCHING):
            out |= self.leaves[("p", BRANCHING * node[1] + k)]
        return out

    def select(self, g, lo, hi):
        return [r for r in self.rows if r[1] == g and lo < r[2] <= hi]

    def _drop_leaf(self, b):
        i = self.slot.pop(b)
        last = self.live.pop()
        if last != b:
            self.live[i] = last
            self.slot[last] = i
        self.leaves[self.parent.pop(b)].discard(b)

    def next_op(self):
        """The next op as ``(kind, args, check)``; ``check`` is True for
        the reads whose answer is compared with the shadow."""
        rng = self.rng
        u = rng.random()
        kind = next(k for k, p in MIX if u < p)
        if kind == "supports":
            args = (self.live[rng.randrange(len(self.live))],)
        elif kind == "lineage":
            if rng.random() < 0.7:
                args = (("p", rng.randrange(N_BASE // BRANCHING)),)
            else:
                args = (("m", rng.randrange(N_BASE // BRANCHING ** 2)),)
        elif kind == "select":
            lo = rng.random() * 0.5
            args = (rng.randrange(N_GROUPS), lo, lo + 0.5)
        elif kind == "leaf_write":
            if self.leaf_inserting:
                p = ("p", rng.randrange(N_BASE // BRANCHING))
                args = ("insert", p, ("n", self.next_leaf))
                self.next_leaf += 1
            else:
                args = ("delete", self.live[rng.randrange(len(self.live))])
            self.leaf_inserting = not self.leaf_inserting
        else:
            if self.row_inserting:
                args = ("insert", (self.next_row, rng.randrange(N_GROUPS),
                                   rng.random()))
                self.next_row += 1
            else:
                args = ("delete", rng.randrange(len(self.rows)))
            self.row_inserting = not self.row_inserting
        check = False
        if kind in ("supports", "lineage", "select"):
            self.reads += 1
            check = self.reads % CHECK_EVERY == 0
        return kind, args, check

    def apply(self, kind, args) -> None:
        """Mirror a write in the shadow."""
        if kind == "leaf_write":
            if args[0] == "insert":
                __, p, b = args
                self.leaves[p].add(b)
                self.parent[b] = p
                self.slot[b] = len(self.live)
                self.live.append(b)
            else:
                self._drop_leaf(args[1])
        elif kind == "row_write":
            if args[0] == "insert":
                self.rows.append(args[1])
            else:
                self.rows.pop(args[1])

    def expected(self, kind, args):
        if kind == "supports":
            return [self.root_of(self.parent[args[0]])]
        if kind == "lineage":
            return self.lineage(args[0])
        return self.select(*args)


def run(ctx) -> dict:
    setup = timed_setup(lambda: build(ctx.seed), SETUP_REPEATS)
    index, relation = setup[0]
    compactions = [0]
    compact = index.compact

    def counting_compact():
        compactions[0] += 1
        compact()

    index.compact = counting_compact   # instance attribute: counts only
    shadow = Shadow(ctx.seed)

    def execute(op):
        kind, args, __ = op
        if kind == "supports":
            return index.supports(args[0])
        if kind == "lineage":
            return index.lineage(args[0])
        if kind == "select":
            g, lo, hi = args
            return Query(relation).select(
                And(Eq("grp", g), Range("val", lo, hi))).execute().rows
        if kind == "leaf_write":
            if args[0] == "insert":
                return index.insert_leaf(args[1], args[2])
            return index.delete_leaf(args[1])
        if args[0] == "insert":
            return relation.insert(args[1])
        return relation.delete(args[1])

    # Warm-up: reads only, so the timed stream starts from the state the
    # seed built.
    warm = random.Random(ctx.seed + 2)
    for _ in range(WARMUP_READS):
        p = ("p", warm.randrange(N_BASE // BRANCHING))
        index.lineage(p)
        index.supports(("b", warm.randrange(N_BASE)))
        Query(relation).select(And(Eq("grp", warm.randrange(N_GROUPS)),
                                   Range("val", 0.25, 0.75))).execute()

    kinds = {}
    mismatches = {}

    def stream():
        for _ in range(ctx.n_ops):
            yield shadow.next_op()

    def after(i, op, out):
        kind, args, check = op
        kinds[kind] = kinds.get(kind, 0) + 1
        if check:
            want = shadow.expected(kind, args)
            same = (set(out) == set(want)) if kind == "supports" else (
                out == want)
            if not same:
                mismatches[i] = f"{kind}{args} disagrees with the shadow"
        shadow.apply(kind, args)

    before = program_counters()
    ctx.log.active = ctx.trace
    latencies, __, errors = closed_loop(stream(), execute, ctx.log, after)
    ctx.log.active = False
    work = delta(before, program_counters())

    reasons = {**errors, **mismatches}
    ok = [i not in reasons for i in range(len(latencies))]
    work.update({f"ops.{k}": n for k, n in sorted(kinds.items())})
    work.update({
        "ops": len(latencies),
        "checked_reads": shadow.reads // CHECK_EVERY,
        "compactions": compactions[0],
        "leaves_live": len(shadow.live),
        "rows_live": len(relation),
    })
    extra = {"compactions": compactions[0],
             "fragmentation": index.fragmentation}
    layer = None
    if ctx.trace:
        layer = layer_metrics(subset(ctx.log.spans, range(len(latencies))),
                              work, extra)
    return result(
        ok=ok, reasons=reasons, latencies=latencies, unit_per_op=1,
        setup=setup, work=work, rss_mb=peak_rss_mb(), layer=layer,
        extra=extra,
    )
