#!/usr/bin/env sh
# Tier-1 gate, runnable locally and in CI: the full test suite, the
# benchmark's own helper tests and a 1-second smoke run of each of its
# workloads, the source lints, and the benchmark wall-time regression
# guard.
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

echo "== tier-1: lint (no print) =="
python scripts/check_no_print.py

echo "== tier-1: lint (exception hygiene: src + tests) =="
python scripts/check_exception_hygiene.py

echo "== tier-1: lint (no bespoke shapley loops) =="
python scripts/check_no_bespoke_shapley.py

echo "== tier-1: lint (metric names + blessed timing) =="
python scripts/check_metric_names.py

echo "== tier-1: lint (no per-row explain loops) =="
python scripts/check_batch_loops.py

echo "== tier-1: lint (no naive row scans in the db layer) =="
python scripts/check_db_scans.py

echo "== tier-1: lint (no untimed blocking io in serve) =="
python scripts/check_blocking_io.py

echo "== tier-1: lint (persist protocol: to_dict/from_dict pairs, no stray pickle) =="
python scripts/check_serializable.py

echo "== tier-1: benchmark regression guard =="
python scripts/bench_compare.py

echo "== tier-1: OK =="
