"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch_gbm --seed 1 --seconds 20 \\
        --trace 0

Each run starts the workload in fresh worker processes with a cleaned
environment: every ``REPRO_*`` variable removed (and recorded),
``PYTHONHASHSEED`` fixed, BLAS and OpenMP pinned to one thread before
numpy loads, byte code cached under ``perfbench/out``. A worker sets
the program up (timed), warms up (untimed), runs a fixed number of ops
in a closed loop, checks every output and reports its counts.

Every worker is pinned to one CPU. ``--trace 0`` runs one replica of
the workload per CPU (two at most) side by side, with the same seed:
the same ops from the same state. The metrics named in BENCHMARK.json take each
op's fastest copy (see ``stats.end_to_end``), and the replicas of a
deterministic workload must report identical work counts. ``--trace
1`` runs the same seed twice, each with half the ops: once plain and
once with spans around the program's layer entry points, and prints the
per-layer metrics plus the tracing overhead (plain against traced
throughput); the two halves, too, must report identical work counts.
The full record of a run (host fingerprint, work counts, layer table,
removed environment) goes to ``perfbench/out``; nothing is written
anywhere else. The last stdout line is the JSON result; the exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep run.py's own imports from caching

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import config  # noqa: E402
import host  # noqa: E402
from stats import end_to_end, valid_metric_name  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEADLINE_S = 170.0
MAX_REPLICAS = 2


class BenchError(RuntimeError):
    """A run that cannot produce a result (missing program, crash)."""


def clean_env() -> tuple[dict, dict]:
    removed = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    env = {k: v for k, v in os.environ.items() if k not in removed}
    env.update({
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH)]),
        "PYTHONPYCACHEPREFIX": str(OUT / "pycache"),
    })
    return env, removed


def run_workers(jobs, env, deadline) -> list[dict]:
    """Start one worker per entry of ``jobs`` (its arguments) side by
    side and return their records, in order. Their output goes to files,
    so a worker never blocks on a full pipe while another is read."""
    procs = []
    logs = []
    try:
        for i, args in enumerate(jobs):
            logs.append([open(OUT / f"worker{i}.{kind}", "w+",
                              encoding="utf-8") for kind in ("out", "err")])
            procs.append(subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), *args,
                 "--out", str(OUT)],
                env=env, cwd=ROOT, stdout=logs[-1][0], stderr=logs[-1][1]))
        for proc in procs:
            try:
                proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"a worker ran past {DEADLINE_S:.0f} s") \
                    from exc
        records = []
        for proc, (out, err) in zip(procs, logs):
            out.seek(0)
            lines = out.read().strip().splitlines()
            if proc.returncode != 0 or not lines:
                err.seek(0)
                sys.stderr.write(err.read()[-4000:])
                raise BenchError(f"worker exited with {proc.returncode}")
            records.append(json.loads(lines[-1]))
        return records
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for fh in (fh for pair in logs for fh in pair):
            fh.close()


def differing(a: dict, b: dict) -> dict:
    """The counts on which two work fingerprints disagree."""
    return {k: [a.get(k), b.get(k)] for k in sorted(set(a) | set(b))
            if a.get(k) != b.get(k)}


def main(argv=None) -> int:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    if args.seconds < 1 or args.seed < 0:
        raise BenchError("--seconds must be at least 1 and --seed >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program under {ROOT / 'src' / 'repro'}")
    OUT.mkdir(exist_ok=True)
    env, removed = clean_env()
    n_ops = config.n_ops(args.workload, args.seconds)

    base = ["--workload", args.workload, "--seed", str(args.seed)]

    def job(ops, trace, cpu):
        return [*base, "--ops", str(ops), "--trace", str(trace),
                "--cpu", str(cpu)]

    cpus = sorted(os.sched_getaffinity(0))[:MAX_REPLICAS]
    before = host.snapshot()
    if args.trace:
        # Plain, then traced: one at a time, so neither slows the other.
        half = max(config.MIN_OPS, n_ops // 2)
        records = [run_workers([job(half, t, cpus[0])], env, deadline)[0]
                   for t in (0, 1)]
        n_ops = half
    else:
        records = run_workers([job(n_ops, 0, cpu) for cpu in cpus], env,
                              deadline)
    facts = host.fingerprint(ROOT, before, host.snapshot())
    tail_q = config.tail_q(args.workload, n_ops)

    problems = [r for rec in records for r in rec["reasons"]]
    # Replicas, and the two halves of a traced run, ran the same seed
    # and op count, so their work counts must agree.
    work_diff = differing(records[0]["work"], records[-1]["work"])
    if work_diff and args.workload in config.DETERMINISTIC:
        problems.append(f"same-seed workers did different work: "
                        f"{sorted(work_diff)[:8]}")

    section = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        plain, traced = records
        values = dict(traced["layer"])
        values["trace.plain_throughput_per_s"] = \
            end_to_end([plain], tail_q)[0]["throughput_per_s"]
        values["trace.traced_throughput_per_s"] = \
            end_to_end([traced], tail_q)[0]["throughput_per_s"]
        values["trace.overhead"] = (
            values["trace.plain_throughput_per_s"]
            / values["trace.traced_throughput_per_s"] - 1.0)
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
    else:
        values, outcomes = end_to_end(records, tail_q)
        attempted, failed = outcomes.attempted, outcomes.failed
    metrics = {}
    for m in spec[section]:
        if not valid_metric_name(m["name"]) or m["name"] not in values:
            raise BenchError(f"metric {m['name']!r} missing or misnamed")
        value = values[m["name"]]
        # A failed op's latency is infinite; JSON has no infinity, and
        # such a run is already marked incorrect.
        metrics[m["name"]] = {
            "value": value if math.isfinite(value) else None,
            "unit": m["unit"],
        }

    correct = failed == 0 and not problems
    for rec in records:   # per-op lists: the metrics above sum them up
        del rec["latencies_s"], rec["ok"]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "n_ops": n_ops,
        "held_out_seed": args.seed == config.HELD_OUT_SEED,
        "tail_percentile": tail_q, "metrics": values,
        "host": facts, "removed_env": removed, "work_diff": work_diff,
        "problems": problems, "workers": records,
        "wall_s": time.monotonic() - started,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True))

    for m, v in metrics.items():
        print(f"{args.workload:>14} {m:<36} {v['value']!s:>22} {v['unit']}")
    for problem in problems[:10]:
        print(f"FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        sys.exit(2)
