#!/usr/bin/env sh
# Tier-1 gate, runnable locally and in CI: the full test suite, the
# benchmark's own helper tests and a 1-second smoke run of each of its
# workloads, the source lint (scripts/lint.py, all eight rules in one
# pass), and the benchmark wall-time regression guard.
# Referenced from ROADMAP.md ("Tier-1 verify"); exits non-zero on the
# first failing step.
set -eu

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: pytest =="
python -m pytest -x -q

echo "== tier-1: pytest (benchmark helpers) =="
python -m pytest perfbench/tests -q

# Smoke: each workload's output checks and the same-work check between
# its replicas, on a 1-second run; no timing is compared. The run exits
# non-zero when any check fails.
for workload in lineage_mixed batch_gbm datavalue_tmc serve_zipf; do
    echo "== tier-1: perfbench smoke ($workload) =="
    python perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
        --trace 0
done

echo "== tier-1: lint =="
python scripts/lint.py

echo "== tier-1: benchmark regression guard =="
python scripts/bench_compare.py

echo "== tier-1: OK =="
