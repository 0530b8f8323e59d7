"""E45 — Indexed provenance: interval range scans vs naive DAG walks.

Claim: the XPath-accelerator interval encoding turns lineage-support
queries ("which query outputs does this base tuple support?") from an
O(n) scan of every root's derivation subtree into a handful of binary
searches, and incremental maintenance makes a single-tuple insert
O(depth + log n) instead of an O(n) rebuild. Two headline numbers:

* **indexed speedup** (floor: >=10x at the largest scale, asserted
  after the table) — wall time of a mixed lineage-support + ancestor
  workload over a synthetic derivation forest, naive walks
  (``legacy_supports`` / ``legacy_ancestors`` from ``tests.oracles``)
  vs ``IntervalIndex``, at 10^3 / 10^4 / 10^5 base tuples. Answers are
  asserted identical.
* **incremental speedup** — per-mutation cost of ``insert_leaf`` (gap
  allocation inside the parent's interval) vs rebuilding the index
  from scratch after the same DAG mutation.
"""

import time

from repro.db.index import IntervalIndex, ProvenanceDAG
from tests.oracles import legacy_ancestors, legacy_supports

from conftest import emit, fmt_row

SCALES = (1_000, 10_000, 100_000)
BRANCHING = 10          # base tuples consumed per derived output
N_QUERIES = 25          # sampled base tuples per scale
N_MUTATIONS = 20        # incremental insert_leaf ops timed
N_REBUILDS = 3          # full rebuilds timed (slow; amortized per-op)
MUTATION_SCALE = 10_000


def _derivation_forest(n_base: int) -> ProvenanceDAG:
    """One output node per BRANCHING consecutive base tuples."""
    dag = ProvenanceDAG()
    for j in range(n_base // BRANCHING):
        base = range(j * BRANCHING, (j + 1) * BRANCHING)
        dag.add_node(("out", j), [("base", i) for i in base])
    return dag


def _sampled_bases(n_base: int) -> list:
    step = max(1, n_base // N_QUERIES)
    return [("base", i) for i in range(0, n_base, step)][:N_QUERIES]


def test_e45_indexed_provenance():
    rows = [fmt_row("n base", "naive", "indexed", "speedup", "build")]
    data_scales = []
    indexed_speedup = 0.0

    for n_base in SCALES:
        dag = _derivation_forest(n_base)

        t0 = time.perf_counter()
        index = IntervalIndex(dag)
        build_s = time.perf_counter() - t0

        queries = _sampled_bases(n_base)

        t0 = time.perf_counter()
        naive = [
            (legacy_supports(dag, q), legacy_ancestors(dag, q))
            for q in queries
        ]
        naive_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        indexed = [(index.supports(q), index.ancestors(q)) for q in queries]
        indexed_s = time.perf_counter() - t0

        # The index is a pure perf artifact: identical answers.
        for (n_sup, n_anc), (i_sup, i_anc) in zip(naive, indexed):
            assert set(n_sup) == set(i_sup)
            assert set(n_anc) == set(i_anc)

        speedup = naive_s / indexed_s
        indexed_speedup = speedup  # last scale is the headline
        rows.append(fmt_row(
            n_base,
            f"{naive_s * 1e3 / N_QUERIES:.3f} ms",
            f"{indexed_s * 1e3 / N_QUERIES:.3f} ms",
            f"{speedup:.0f}x",
            f"{build_s * 1e3:.0f} ms",
        ))
        data_scales.append({
            "n_base": n_base,
            "n_queries": N_QUERIES,
            "naive_s": naive_s,
            "indexed_s": indexed_s,
            "build_s": build_s,
            "speedup": speedup,
        })

    # -- incremental maintenance vs full rebuild --------------------------
    dag = _derivation_forest(MUTATION_SCALE)
    index = IntervalIndex(dag)
    n_roots = MUTATION_SCALE // BRANCHING

    t0 = time.perf_counter()
    for i in range(N_MUTATIONS):
        # Distinct parents: steady-state single-tuple inserts, not the
        # same-parent gap-exhaustion worst case (tested elsewhere).
        index.insert_leaf(("out", i * 7 % n_roots), ("new", i))
    incremental_per_op = (time.perf_counter() - t0) / N_MUTATIONS

    for i in range(N_MUTATIONS):
        assert ("out", i * 7 % n_roots) in index.supports(("new", i))

    t0 = time.perf_counter()
    for __ in range(N_REBUILDS):
        rebuilt = IntervalIndex(dag)
    rebuild_per_op = (time.perf_counter() - t0) / N_REBUILDS
    assert set(index.supports(("base", 0))) == set(
        rebuilt.supports(("base", 0))
    )

    incremental_speedup = rebuild_per_op / incremental_per_op
    rows.append(fmt_row("", "", "", "", ""))
    rows.append(fmt_row("maintain", "rebuild", "incremental", "speedup", ""))
    rows.append(fmt_row(
        f"{MUTATION_SCALE} base",
        f"{rebuild_per_op * 1e3:.1f} ms",
        f"{incremental_per_op * 1e6:.1f} us",
        f"{incremental_speedup:.0f}x",
        "",
    ))

    emit(
        "E45_indexed_provenance",
        rows,
        data={
            "branching": BRANCHING,
            "scales": data_scales,
            "maintenance": {
                "n_base": MUTATION_SCALE,
                "n_mutations": N_MUTATIONS,
                "incremental_per_op_s": incremental_per_op,
                "rebuild_per_op_s": rebuild_per_op,
            },
        },
        summary={
            "indexed_speedup": indexed_speedup,
            "incremental_speedup": incremental_speedup,
        },
    )

    # The floor: interval lookups at least 10x the naive walks at 10^5
    # base tuples (in practice three orders of magnitude).
    assert indexed_speedup >= 10.0
