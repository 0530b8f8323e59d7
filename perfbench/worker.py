"""One workload run in a fresh process: set up, warm up, time, check.

Started by ``run.py`` with a cleaned environment; prints one JSON
record as its last stdout line. Usage::

    python3 perfbench/worker.py --workload batch_gbm --seed 1 --ops 100 \\
        --trace 0 --out perfbench/out --cpu 0

The process, and any process it starts, runs on that CPU only.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from dataclasses import dataclass

from spans import SpanLog


@dataclass
class Context:
    """What a workload's ``run(ctx)`` gets from the worker."""

    seed: int
    n_ops: int
    trace: bool
    out_dir: str
    log: SpanLog


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})

    log = SpanLog()
    if args.trace:
        import layers

        layers.install(log)
    ctx = Context(
        seed=args.seed,
        n_ops=args.ops,
        trace=bool(args.trace),
        out_dir=args.out,
        log=log,
    )
    module = importlib.import_module(f"wl_{args.workload}")
    record = module.run(ctx)
    import numpy

    record["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "pid": os.getpid(),
    }
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
