"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Package inventory: subpackages, experiment ids, example scripts.
``demo``
    A self-contained 10-second demo: trains a model on the loan data and
    prints three renderings (SHAP bars, an anchor rule, a counterfactual).
``experiments``
    List the benchmark experiments (E1…) with their claims.
``examples``
    List the runnable example scripts.
``trace``
    Run any other command with observability forced on; writes the span
    stream as JSONL and prints the per-explainer cost summary. The same
    effect is available on every command via the global ``--trace OUT``
    flag, e.g. ``python -m repro --trace demo.jsonl demo``. Exits
    nonzero (with a warning footer) if the run swallowed
    instrumentation failures (``obs.internal_errors``).
``metrics``
    Telemetry utilities: ``metrics serve`` starts the live exposition
    endpoint (``/metrics`` Prometheus text, ``/health``,
    ``/ledger/tail``) and blocks until interrupted.
``serve``
    The explanation service (``repro.serve``): hosts the demo loan
    model behind ``POST /explain`` with admission control, request
    coalescing, a warm cache, the degradation ladder, and per-model
    circuit breakers. Tunable via ``REPRO_SERVE_*`` env knobs.
``profile``
    Render a trace JSONL file as a phase-level wall/CPU profile, or as
    folded stacks (``--folded``) for flamegraph tooling.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .config import SETTINGS, setting
from .robust.errors import InputValidationError

__all__ = ["main"]

# Table rows with a global flag; the others name a subcommand option
# ("serve --port") that passes its value to the reader explicitly.
_GLOBAL_FLAGS = tuple(
    row for row in SETTINGS.values() if row.flag and row.flag.startswith("--")
)

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))


def _iter_benchmarks():
    bench_dir = os.path.join(_ROOT, "benchmarks")
    if not os.path.isdir(bench_dir):
        return
    for name in sorted(os.listdir(bench_dir)):
        match = re.match(r"bench_(e\d+)_(.+)\.py$", name)
        if not match:
            continue
        path = os.path.join(bench_dir, name)
        with open(path) as f:
            first = f.read().split('"""')
        claim = first[1].strip().splitlines()[0] if len(first) > 1 else ""
        yield match.group(1).upper(), match.group(2), claim


def cmd_info(args) -> int:
    import repro

    print(f"repro {repro.__version__} — from-scratch XAI toolkit")
    print("\nsubpackages:")
    for name in repro.__all__:
        if name.startswith("__"):
            continue
        module = getattr(repro, name, None)
        doc = (module.__doc__ or "").strip().splitlines()
        print(f"  repro.{name:<15} {doc[0] if doc else ''}")
    benches = list(_iter_benchmarks())
    examples_dir = os.path.join(_ROOT, "examples")
    n_examples = len([
        f for f in os.listdir(examples_dir) if f.endswith(".py")
    ]) if os.path.isdir(examples_dir) else 0
    print(f"\n{len(benches)} experiments (see `python -m repro experiments`),"
          f" {n_examples} example scripts")
    return 0


def cmd_experiments(args) -> int:
    benches = list(_iter_benchmarks())
    if not benches:
        print("no benchmarks directory found next to the package "
              "(installed without the repository checkout)")
        return 1
    for experiment, slug, claim in benches:
        print(f"{experiment:<5} {slug:<24} {claim}")
    print("\nrun them with: pytest benchmarks/ --benchmark-only")
    return 0


def cmd_examples(args) -> int:
    examples_dir = os.path.join(_ROOT, "examples")
    if not os.path.isdir(examples_dir):
        print("no examples directory found next to the package")
        return 1
    for name in sorted(os.listdir(examples_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(examples_dir, name)) as f:
            content = f.read().split('"""')
        summary = content[1].strip().splitlines()[0] if len(content) > 1 else ""
        print(f"examples/{name:<36} {summary}")
    return 0


def cmd_demo(args) -> int:
    from .counterfactual import GecoExplainer
    from .datasets import make_loan_dataset
    from .models import GradientBoostingClassifier
    from .render import render
    from .rules import AnchorExplainer
    from .shapley import TreeShapExplainer

    data = make_loan_dataset(500, seed=0)
    model = GradientBoostingClassifier(
        n_estimators=25, max_depth=3, seed=0
    ).fit(data.X, data.y)
    x = data.X[int(args.instance)]
    print(f"instance {args.instance}: {data.render_row(x)}\n")
    attribution = TreeShapExplainer(model).explain(
        x, feature_names=data.feature_names
    )
    print(render(attribution, top=5))
    print()
    rule = AnchorExplainer(model, data, precision_target=0.9,
                           seed=0).explain(x)
    print(render(rule))
    print()
    cf = GecoExplainer(model, data, seed=0).explain(x)
    print(render(cf))
    return 0


def cmd_trace(args) -> int:
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest or rest[0] == "trace":
        print("usage: repro trace [--out OUT.jsonl] <command> [args...]")
        return 2
    return _run_traced(rest, args.out)


def _run_traced(argv: list[str], out_path: str) -> int:
    """Run ``main(argv)`` with tracing forced on, exporting JSONL spans."""
    from . import obs

    obs.set_enabled(True)
    tracer = obs.get_tracer()
    mark = tracer.mark()
    errors_before = obs.counter("obs.internal_errors").value
    tracer.start_export(out_path)
    try:
        rc = main(argv)
    finally:
        tracer.stop_export()
    print()
    print("---- observability summary ----")
    print(obs.summary(tracer.spans_since(mark)))
    calls = obs.counter("model.calls").value
    rows = obs.counter("model.rows").value
    print(f"model evals (process totals): {calls} calls, {rows} rows")
    print(f"trace written to {out_path}")
    swallowed = obs.counter("obs.internal_errors").value - errors_before
    if swallowed:
        print(
            f"WARNING: {swallowed} instrumentation failure(s) swallowed "
            "during this run (obs.internal_errors) — the trace and the "
            "summary above may undercount"
        )
        if rc == 0:
            rc = 1
    return rc


def cmd_metrics(args) -> int:
    from . import obs

    if args.metrics_command != "serve":
        print("usage: repro metrics serve [--port PORT]")
        return 2
    host, port = obs.start_metrics_server(
        port=setting("REPRO_METRICS_PORT", args.port) or 0
    )
    print(f"serving /metrics, /health, /ledger/tail on http://{host}:{port}")
    print("press Ctrl-C to stop")
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        obs.stop_metrics_server()
        print("stopped")
    return 0


def cmd_serve(args) -> int:
    from .datasets import make_loan_dataset
    from .models import GradientBoostingClassifier
    from .serve import ExplainServer, ServeConfig

    # Settings first: a bad REPRO_SERVE_* value fails before training.
    server = ExplainServer(ServeConfig(),
                           port=setting("REPRO_SERVE_PORT", args.port))
    data = make_loan_dataset(500, seed=0)
    model = GradientBoostingClassifier(
        n_estimators=25, max_depth=3, seed=0
    ).fit(data.X, data.y)
    server.add_endpoint(
        "loan", model, data.X[:100], feature_names=data.feature_names
    )
    host, port = server.start()
    print(f"explanation service on http://{host}:{port}")
    print("  POST /explain                {model, instance, tier?, params?, "
          "deadline_ms?}")
    print("  GET  /healthz                liveness + breaker states")
    print("  GET  /serve/stats            admission/cache/coalesce/pressure")
    print("  POST /models/<name>/version  {version} — bump + invalidate")
    print(f"hosted models: {', '.join(server.registry.names())}")
    print("press Ctrl-C to stop")
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        server.stop()
        print("stopped")
    return 0


def cmd_registry(args) -> int:
    from .persist import dumps, loads
    from .persist.errors import PersistError
    from .persist.registry import ArtifactRegistry

    store = ArtifactRegistry(args.dir)
    action = args.registry_command
    try:
        if action == "push":
            with open(args.file, encoding="utf-8") as fh:
                obj = loads(fh.read())
            record = store.push(
                args.name, obj, version=args.version, note=args.note
            )
            print(f"pushed {record['name']}@{record['version']} "
                  f"(digest {record['digest'][:12]}) to {store.root}")
        elif action == "list":
            names = [args.name] if args.name else store.names()
            if not names:
                print(f"registry {store.root} is empty")
            for name in names:
                latest = store.latest_version(name)
                for version in store.versions(name):
                    record = store.describe(name, version)
                    marker = "*" if version == latest else " "
                    line = (f"{marker} {name}@{version}  "
                            f"{record['digest'][:12]}  {record['pushed_at']}")
                    if record.get("note"):
                        line += f"  {record['note']}"
                    print(line)
        else:  # get
            obj = store.get(args.name, args.version)
            text = dumps(obj, indent=2)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
                print(f"wrote {args.out}")
            else:
                print(text)
    except (PersistError, OSError) as e:
        print(f"registry error: {e}")
        return 2
    return 0


def cmd_profile(args) -> int:
    from . import obs

    if not os.path.isfile(args.trace_file):
        print(f"no such trace file: {args.trace_file}")
        return 2
    if args.folded:
        print(obs.folded_from_jsonl(args.trace_file, weight=args.weight))
        return 0
    import json as _json

    records = []
    with open(args.trace_file, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(_json.loads(line))
    print(obs.phase_table(records))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="from-scratch reproduction of the SIGMOD'22 XAI tutorial",
    )
    parser.add_argument(
        "--trace", metavar="OUT", default=None,
        help="export a JSONL span trace of the command and print the "
             "cost summary (same as the `trace` subcommand)",
    )
    for row in _GLOBAL_FLAGS:
        parser.add_argument(
            row.flag, dest=row.name, type=row.type,
            choices=row.choices or None,
            metavar=None if row.choices else row.type.__name__.upper(),
            help=f"sets {row.name}: {row.doc}",
        )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("info", help="package inventory")
    sub.add_parser("experiments", help="list experiments E1…")
    sub.add_parser("examples", help="list example scripts")
    demo = sub.add_parser("demo", help="explain one loan decision 3 ways")
    demo.add_argument("--instance", default=0, type=int,
                      help="row of the loan dataset to explain")
    trace_p = sub.add_parser(
        "trace", help="run another command with tracing + JSONL export"
    )
    trace_p.add_argument("--out", "-o", default="trace.jsonl",
                         help="JSONL output path (default: trace.jsonl)")
    trace_p.add_argument("rest", nargs=argparse.REMAINDER,
                         help="command (and arguments) to run traced")
    metrics_p = sub.add_parser(
        "metrics", help="telemetry utilities (metrics serve)"
    )
    metrics_p.add_argument(
        "metrics_command", nargs="?", default="serve",
        help="subcommand (only `serve` for now)",
    )
    metrics_p.add_argument(
        "--port", default=None, type=int,
        help="port to bind (default: REPRO_METRICS_PORT, else an "
             "OS-assigned free port)",
    )
    serve_p = sub.add_parser(
        "serve", help="explanation service hosting the demo loan model"
    )
    serve_p.add_argument(
        "--port", default=None, type=int,
        help="port to bind (default: REPRO_SERVE_PORT, else an "
             "OS-assigned free port)",
    )
    registry_p = sub.add_parser(
        "registry", help="persist artifact registry (push / list / get)"
    )
    registry_sub = registry_p.add_subparsers(dest="registry_command")
    push_p = registry_sub.add_parser(
        "push", help="register a persist-envelope JSON file as an artifact"
    )
    push_p.add_argument("name", help="artifact name")
    push_p.add_argument("file", help="persist envelope JSON to register")
    push_p.add_argument("--version", default=None,
                        help="version string (default: next integer)")
    push_p.add_argument("--note", default="", help="manifest note")
    list_p = registry_sub.add_parser(
        "list", help="list registered artifacts and versions (* = latest)"
    )
    list_p.add_argument("name", nargs="?", default=None,
                        help="limit to one artifact name")
    get_p = registry_sub.add_parser(
        "get", help="print (or write) one artifact's envelope JSON"
    )
    get_p.add_argument("name", help="artifact name")
    get_p.add_argument("--version", default=None,
                       help="version to fetch (default: latest)")
    get_p.add_argument("--out", "-o", default=None,
                       help="write to this path instead of stdout")
    for registry_cmd in (push_p, list_p, get_p):
        registry_cmd.add_argument(
            "--dir", default=None,
            help="registry root (default: REPRO_REGISTRY_DIR, else "
                 ".repro_registry/)",
        )
    profile_p = sub.add_parser(
        "profile", help="phase profile / folded stacks from a trace JSONL"
    )
    profile_p.add_argument("trace_file", help="trace JSONL path")
    profile_p.add_argument(
        "--folded", action="store_true",
        help="emit collapsed flamegraph stacks instead of the phase table",
    )
    profile_p.add_argument(
        "--weight", default="wall_ms", choices=("wall_ms", "cpu_ms"),
        help="clock used for folded-stack weights",
    )
    args = parser.parse_args(argv)
    # Global flags become env values, so every reader of the setting
    # picks them up, whatever the command constructs.
    for row in _GLOBAL_FLAGS:
        value = getattr(args, row.name)
        if value is not None:
            os.environ[row.name] = str(value)
    handlers = {
        "info": cmd_info,
        "experiments": cmd_experiments,
        "examples": cmd_examples,
        "demo": cmd_demo,
        "trace": cmd_trace,
        "metrics": cmd_metrics,
        "serve": cmd_serve,
        "registry": cmd_registry,
        "profile": cmd_profile,
    }
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "registry" and args.registry_command is None:
        registry_p.print_help()
        return 2
    try:
        if args.trace and args.command != "trace":
            sub_argv = [args.command]
            if args.command == "demo":
                sub_argv += ["--instance", str(args.instance)]
            return _run_traced(sub_argv, args.trace)
        return handlers[args.command](args)
    except InputValidationError as e:  # a bad REPRO_* value, typically
        print(f"repro: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
