#!/usr/bin/env python3
"""Guard: fail on wall-time regressions vs the committed bench baseline.

``BENCH_summary.json`` is the rolling perf trajectory the benchmark suite
maintains; ``benchmarks/BENCH_baseline.json`` is the committed snapshot
it is compared against. A guarded experiment regresses when its fresh
wall time exceeds the baseline by more than ``--max-regression``
(default 25%) *and* by more than ``--min-delta-s`` absolute seconds (so
timer noise on sub-second experiments cannot trip the guard).

Since telemetry v2 the guard also compares **p95 explain latency**
(``p95_ms``, computed from the quantile histograms by the benchmark
conftest) wherever both files recorded it, with its own, looser
tolerances — and every knob can be overridden per experiment via the
``TOLERANCES`` table.

Experiments missing from either file are skipped — benchmarks are not
part of tier-1, so a fresh checkout that never ran them must pass. A
guarded experiment that *was* freshly run but has no committed baseline
entry is also skipped, with a stderr warning naming it, so a newly added
benchmark cannot silently escape the guard forever. The perf-sensitive
experiments guarded by default are the Shapley hot paths: E2 (kernel
convergence), E3 (TreeSHAP speed), E37 (the coalition engine itself),
E38 (fault-tolerance overhead), E39 (the games layer), E40 (the process
backend), E41 (telemetry overhead), E42 (amortized batch explanation),
E43 (the explanation service under load), E44 (persist round-trips) and
E45 (indexed provenance queries).

Headline speedup floors are not checked here: each benchmark asserts
its own floor on the ratio it has just measured (E42, E43, E44, E45),
so a shortfall fails that benchmark run, not a later guard run that
reads the summary it left behind.

Exit status 0 when clean, 1 with a listing otherwise. Enforced in tier-1
via ``tests/test_obs_lint_and_bench.py``, alongside ``check_no_print.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "benchmarks", "BENCH_baseline.json")
DEFAULT_FRESH = os.path.join(REPO_ROOT, "BENCH_summary.json")

# Per-experiment tolerance overrides. Keys are the guarded experiments;
# values override the global knobs below for that experiment only:
#   max_regression      relative wall-time slack (0.25 = +25%)
#   min_delta_s         absolute wall-time floor in seconds
#   p95_max_regression  relative p95-latency slack
#   min_delta_p95_ms    absolute p95-latency floor in milliseconds
# p95 tolerances are looser than wall-time ones by default: a p95 over a
# handful of explain calls is a noisy order statistic, and the guard is
# after step changes (a new O(n) in the hot path), not scheduler jitter.
TOLERANCES: dict = {
    "E2_kernel_convergence": {},
    "E3_treeshap_speed": {},
    "E37_coalition_engine": {},
    "E38_fault_tolerance": {},
    # Pool spin-up cost varies with machine load; keep the absolute
    # floors a bit higher for the fork-heavy experiments.
    "E39_games_layer": {"min_delta_s": 1.0},
    "E40_process_backend": {"min_delta_s": 1.0, "min_delta_p95_ms": 1000.0},
    "E41_telemetry_overhead": {"min_delta_s": 1.0},
    "E42_amortized_batch": {"min_delta_s": 1.0},
    # Thread-scheduling latency under deliberate contention is noisy;
    # the load-bearing checks are E43's own floor assertions.
    "E43_serve_load": {"min_delta_s": 1.0, "min_delta_p95_ms": 1000.0},
    "E44_persist": {"min_delta_s": 1.0},
    "E45_indexed_provenance": {"min_delta_s": 1.0},
}
GUARDED_EXPERIMENTS = tuple(TOLERANCES)

MAX_REGRESSION = 0.25
MIN_DELTA_S = 0.75
P95_MAX_REGRESSION = 0.50
MIN_DELTA_P95_MS = 500.0


def load_summary(path: str) -> dict:
    """The ``experiments`` mapping of a summary file ({} when unusable)."""
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except (OSError, ValueError):
        return {}
    experiments = payload.get("experiments") if isinstance(payload, dict) else None
    return experiments if isinstance(experiments, dict) else {}


def regressions(
    baseline: dict,
    fresh: dict,
    experiments=GUARDED_EXPERIMENTS,
    max_regression: float = MAX_REGRESSION,
    min_delta_s: float = MIN_DELTA_S,
    p95_max_regression: float = P95_MAX_REGRESSION,
    min_delta_p95_ms: float = MIN_DELTA_P95_MS,
) -> list[str]:
    """Human-readable findings for every guarded experiment that slowed.

    Two checks per experiment, each gated by both a relative and an
    absolute tolerance (so noise on fast experiments cannot trip the
    guard): mean wall time (``wall_s``) and — when both sides recorded
    it — the p95 explain latency (``p95_ms``, from the quantile
    histograms). The :data:`TOLERANCES` table may tighten or loosen any
    knob per experiment.
    """
    found: list[str] = []
    for experiment in experiments:
        tolerance = TOLERANCES.get(experiment, {})
        base = baseline.get(experiment) or {}
        new = fresh.get(experiment) or {}
        base_wall = base.get("wall_s")
        new_wall = new.get("wall_s")
        max_reg = tolerance.get("max_regression", max_regression)
        if base_wall and new_wall and (
            new_wall > base_wall * (1.0 + max_reg)
            and new_wall - base_wall
            > tolerance.get("min_delta_s", min_delta_s)
        ):
            found.append(
                f"{experiment}: wall_s {base_wall:.3f} -> {new_wall:.3f} "
                f"(+{(new_wall / base_wall - 1.0) * 100.0:.0f}%, "
                f"limit +{max_reg * 100.0:.0f}%)"
            )
        base_p95 = base.get("p95_ms")
        new_p95 = new.get("p95_ms")
        p95_reg = tolerance.get("p95_max_regression", p95_max_regression)
        if base_p95 and new_p95 and (
            new_p95 > base_p95 * (1.0 + p95_reg)
            and new_p95 - base_p95
            > tolerance.get("min_delta_p95_ms", min_delta_p95_ms)
        ):
            found.append(
                f"{experiment}: p95_ms {base_p95:.1f} -> {new_p95:.1f} "
                f"(+{(new_p95 / base_p95 - 1.0) * 100.0:.0f}%, "
                f"limit +{p95_reg * 100.0:.0f}%)"
            )
    return found


def missing_baselines(baseline: dict, fresh: dict,
                      experiments=GUARDED_EXPERIMENTS) -> list[str]:
    """Guarded experiments with fresh timings but no committed baseline.

    These cannot be compared, so the guard skips them — but silently
    un-guarded experiments rot, so the caller warns about each one.
    """
    return [
        experiment
        for experiment in experiments
        if (fresh.get(experiment) or {}).get("wall_s")
        and not (baseline.get(experiment) or {}).get("wall_s")
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--fresh", default=DEFAULT_FRESH)
    parser.add_argument("--max-regression", type=float, default=MAX_REGRESSION)
    parser.add_argument("--min-delta-s", type=float, default=MIN_DELTA_S)
    parser.add_argument(
        "--experiments",
        default=",".join(GUARDED_EXPERIMENTS),
        help="comma-separated experiment ids to guard",
    )
    args = parser.parse_args(argv)
    experiments = [e for e in args.experiments.split(",") if e]
    baseline = load_summary(args.baseline)
    fresh = load_summary(args.fresh)
    for experiment in missing_baselines(baseline, fresh, experiments):
        sys.stderr.write(
            f"warning: {experiment} has fresh timings but no entry in "
            f"{args.baseline}; skipping the regression check — commit a "
            "baseline for it\n"
        )
    found = regressions(
        baseline,
        fresh,
        experiments=experiments,
        max_regression=args.max_regression,
        min_delta_s=args.min_delta_s,
    )
    if found:
        sys.stderr.write(
            "benchmark wall-time regressions vs committed baseline "
            f"({args.baseline}):\n"
        )
        for line in found:
            sys.stderr.write(f"  {line}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
