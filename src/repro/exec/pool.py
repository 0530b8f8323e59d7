"""Shard execution: fork/thread pools plus worker-state marshalling.

:func:`map_shards` is the one entry point the estimators and
``explain_batch`` use. It runs ``run_shard(args)`` once per shard and
returns :class:`ShardOutcome` records **in shard order** — the caller
reduces them sequentially, which is what preserves the serial
floating-point accumulation order.

The ``process`` backend forks (POSIX ``fork`` start method): games,
predict functions and value-function closures are almost never picklable
(lambdas over fitted models), so they travel to the worker as inherited
memory via a module-level payload slot set immediately before the pool
is created, and only the per-shard *arguments* (permutation arrays, mask
slices, row blocks) cross the pickle boundary. Each worker is marked via
the pool initializer so :func:`repro.exec.resolve_backend` answers
``serial`` inside it — a sharded estimator re-entered from a worker
never forks grandchildren.

Three runtime layers are marshalled back per shard and merged on join:

* **metrics** — the worker snapshots every counter *and histogram*
  before running and ships the deltas; the parent re-increments its own
  registry, so ``coalition.cache.*``, ``datavalue.cache.*``,
  ``model.*`` and ``robust.*`` counters — and latency histograms like
  ``model.latency_ms`` / ``coalition.chunk_ms``, whose fixed shared
  bucket boundaries make their deltas additive — aggregate exactly as
  they would have serially (process-local undercounting was the PR 5
  bug this path fixes);
* **spans** — the worker ships the span records it closed; the parent
  adopts them with fresh ids, preserving worker-internal parent links
  and re-parenting the roots under the caller's open span
  (:func:`repro.obs.trace.adopt_span_records`);
* **budgets** — when the caller opts in (``split_scope=True``) and a
  :class:`~repro.robust.GuardScope` is ambient, its *remaining* query
  budget is split across shards (remainder to the earliest shards) and
  its remaining deadline is passed through; each worker runs under its
  own scope and the rows/retries it spent are charged back to the
  parent scope on join. Budget exhaustion inside a worker is the
  ``run_shard`` callable's business (estimators return their completed
  walks plus an error marker, exactly like the serial path).

A worker that dies outright (``os._exit``, segfault) breaks the pool;
the affected shards come back as :class:`ShardError` outcomes rather
than raising, so callers degrade to partial results instead of losing
the shards that finished.

Every join also emits pool-health telemetry: per-shard wall time into
the ``exec.shard_ms`` histogram, plus the ``exec.utilization``,
``exec.imbalance`` and ``exec.idle_s`` gauges derived from the gang's
duration profile (:func:`repro.exec.sharding.shard_utilization`).

The thread backend runs the same contract on a ``ThreadPoolExecutor``
with context-copied workers — metrics and spans need no marshalling
(shared address space), only the budget split applies.

The fork-inheritance design is also what makes batch explanation cheap
to shard: the pre-drawn permutations of a batch estimate (whose game
holds every row) or a :class:`~repro.shapley.tree.TreePrecompute` (the
model's stacked leaf-path table) built once in the parent reach every
worker via copy-on-write memory — per shard only the ``(lo, hi)`` walk
or row slice crosses the pickle boundary, never the permutation arrays,
the instance matrix or the path table.
"""

from __future__ import annotations

import contextvars
import multiprocessing
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from ..obs import metrics
from ..obs.trace import adopt_span_records, get_tracer
from ..robust.errors import ModelEvaluationError
from ..robust.guard import GuardScope, current_scope, push_scope
from .backend import fork_available, resolve_n_procs, worker_mode
from .sharding import shard_utilization

__all__ = [
    "ShardError",
    "ShardOutcome",
    "map_shards",
    "merge_counter_deltas",
]

_FORK_UNAVAILABLE = "exec.fork_unavailable"
_SHARDS_RUN = "exec.shards"
_SPAWN_UNPICKLABLE = "exec.spawn_unpicklable"
_WORKER_DEATHS = "exec.worker_deaths"


class ShardError(ModelEvaluationError):
    """A shard was lost whole (its worker process died mid-shard)."""


@dataclass
class ShardOutcome:
    """What one shard produced, already merged into the parent runtime.

    ``value`` is ``run_shard``'s return value (``None`` when the shard
    errored); ``error`` carries the exception for a failed shard;
    ``rows_spent`` / ``retries`` are the budget charges the shard's
    scope accumulated (0 when no scope was split); ``duration_s`` is
    the shard's wall time inside its worker (``None`` for lost shards).
    """

    index: int
    value: object = None
    error: BaseException | None = None
    rows_spent: int = 0
    retries: int = 0
    counter_deltas: dict = field(default_factory=dict)
    histogram_deltas: dict = field(default_factory=dict)
    duration_s: float | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _counter_values() -> dict[str, int]:
    return {
        name: payload["value"]
        for name, payload in metrics.snapshot().items()
        if payload.get("type") == "counter"
    }


def _counter_deltas(before: dict[str, int]) -> dict[str, int]:
    return {
        name: value - before.get(name, 0)
        for name, value in _counter_values().items()
        if value != before.get(name, 0)
    }


def merge_counter_deltas(deltas: dict[str, int]) -> None:
    """Re-increment worker counter deltas into this process's registry."""
    for name, delta in deltas.items():
        if delta > 0:
            metrics.counter(name).inc(delta)


def _scope_shares(n_shards: int) -> list[tuple[float | None, int | None]] | None:
    """Per-shard ``(deadline_s, query_budget)`` splits of the ambient scope.

    ``None`` when no scope is ambient. The *remaining* row budget is
    divided evenly with the remainder going to the earliest shards (the
    reduce step consumes shards in order, so early shards' walks are the
    ones a partial estimate keeps); the remaining deadline passes
    through whole — shards run concurrently, wall clock is shared.
    """
    scope = current_scope()
    if scope is None:
        return None
    deadline = scope.remaining_s()
    if scope.query_budget is None:
        return [(deadline, None)] * n_shards
    remaining = max(0, scope.query_budget - scope.rows_spent)
    base, extra = divmod(remaining, n_shards)
    return [
        (deadline, base + (1 if k < extra else 0)) for k in range(n_shards)
    ]


def _settle(outcomes: list[ShardOutcome]) -> list[ShardOutcome]:
    """Charge budgets back to the ambient scope and emit pool telemetry."""
    scope = current_scope()
    if scope is not None:
        for outcome in outcomes:
            scope.rows_spent += outcome.rows_spent
            scope.retries += outcome.retries
    metrics.counter(_SHARDS_RUN).inc(len(outcomes))
    durations = [o.duration_s for o in outcomes if o.duration_s is not None]
    if durations:
        shard_ms = metrics.histogram("exec.shard_ms")
        for d in durations:
            shard_ms.observe(d * 1000.0)
        utilization, imbalance, idle_s = shard_utilization(durations)
        metrics.gauge("exec.utilization").set(utilization)
        metrics.gauge("exec.imbalance").set(imbalance)
        metrics.gauge("exec.idle_s").set(idle_s)
    return outcomes


# -- thread backend -----------------------------------------------------------


def _thread_entry(run_shard, args, share):
    scope = None if share is None else GuardScope(share[0], share[1])
    t0 = time.perf_counter()  # obs: allow — raw shard duration feeds gauges
    with push_scope(scope) if scope is not None else _noop():
        value = run_shard(args)
    duration = time.perf_counter() - t0  # obs: allow
    if scope is None:
        return value, 0, 0, duration
    return value, scope.rows_spent, scope.retries, duration


class _noop:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


def _map_thread(run_shard, shard_args, n_workers, shares):
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        futures = [
            pool.submit(
                contextvars.copy_context().run,
                _thread_entry,
                run_shard,
                args,
                None if shares is None else shares[k],
            )
            for k, args in enumerate(shard_args)
        ]
        outcomes = []
        for k, future in enumerate(futures):
            try:
                value, rows, retries, duration = future.result()
            except Exception as e:  # per-shard containment, like explain_batch
                outcomes.append(ShardOutcome(index=k, error=e))
            else:
                outcomes.append(
                    ShardOutcome(
                        index=k,
                        value=value,
                        rows_spent=rows,
                        retries=retries,
                        duration_s=duration,
                    )
                )
    return outcomes


# -- process backend ----------------------------------------------------------

# The fork-inherited payload slot. Set under _POOL_LOCK immediately before
# the pool is created (workers fork on first submit, so they see it), and
# cleared after shutdown. Closures, games and fitted models ride across
# as inherited memory — only shard args are pickled.
_PAYLOAD: Callable | None = None
_POOL_LOCK = threading.Lock()


def _worker_init() -> None:
    worker_mode(True)


def _process_entry(args, share):
    baseline = _counter_values()
    hist_baseline = metrics.histogram_states()
    tracer = get_tracer()
    mark = tracer.mark()
    run_shard = _PAYLOAD
    t0 = time.perf_counter()  # obs: allow — raw shard duration feeds gauges
    if share is None:
        value = run_shard(args)
        rows = retries = 0
    else:
        scope = GuardScope(share[0], share[1])
        with push_scope(scope):
            value = run_shard(args)
        rows, retries = scope.rows_spent, scope.retries
    duration = time.perf_counter() - t0  # obs: allow
    return {
        "value": value,
        "counters": _counter_deltas(baseline),
        "histograms": metrics.histogram_deltas(hist_baseline),
        "spans": [s.to_dict() for s in tracer.spans_since(mark)],
        "rows_spent": rows,
        "retries": retries,
        "duration_s": duration,
    }


def _collect_futures(futures) -> list[ShardOutcome]:
    """Drain process-pool futures into ordered :class:`ShardOutcome`s."""
    outcomes: list[ShardOutcome] = []
    for k, future in enumerate(futures):
        try:
            payload = future.result()
        except BrokenProcessPool as e:
            metrics.counter(_WORKER_DEATHS).inc()
            outcomes.append(
                ShardOutcome(
                    index=k,
                    error=ShardError(
                        f"shard {k} lost: worker process died ({e})"
                    ),
                )
            )
        except Exception as e:
            outcomes.append(ShardOutcome(index=k, error=e))
        else:
            adopt_span_records(payload["spans"])
            outcomes.append(
                ShardOutcome(
                    index=k,
                    value=payload["value"],
                    rows_spent=payload["rows_spent"],
                    retries=payload["retries"],
                    counter_deltas=payload["counters"],
                    histogram_deltas=payload["histograms"],
                    duration_s=payload["duration_s"],
                )
            )
    return outcomes


def _merge_outcome_metrics(outcomes: list[ShardOutcome]) -> list[ShardOutcome]:
    """Re-play worker metric deltas into the parent registry.

    Happens outside the span adoption loop so a failed shard cannot
    interleave half-merged state.
    """
    for outcome in outcomes:
        merge_counter_deltas(outcome.counter_deltas)
        metrics.merge_histogram_deltas(outcome.histogram_deltas)
    return outcomes


def _map_process(run_shard, shard_args, n_workers, shares):
    global _PAYLOAD
    with _POOL_LOCK:
        _PAYLOAD = run_shard
        try:
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(
                max_workers=n_workers,
                mp_context=ctx,
                initializer=_worker_init,
            ) as pool:
                futures = [
                    pool.submit(
                        _process_entry,
                        args,
                        None if shares is None else shares[k],
                    )
                    for k, args in enumerate(shard_args)
                ]
                outcomes = _collect_futures(futures)
        finally:
            _PAYLOAD = None
    return _merge_outcome_metrics(outcomes)


# -- spawn backend ------------------------------------------------------------


def _spawn_init(blob: bytes) -> None:
    """Spawn-worker initializer: mark worker mode, unpickle the runner.

    The runner lands in the same ``_PAYLOAD`` slot the fork path uses —
    but in the *worker's* fresh interpreter, so no parent-side lock or
    cleanup is needed and :func:`_process_entry` is shared verbatim.
    """
    global _PAYLOAD
    worker_mode(True)
    _PAYLOAD = pickle.loads(blob)


def _map_spawn(run_shard, shard_args, n_workers, shares):
    """Fork-free process backend: the runner crosses by pickle.

    Unlike ``process`` there is no inherited memory, so ``run_shard``
    must be picklable — a module-level callable or an instance of one
    whose state rebuilds in the worker (the estimators' shard runners).
    Unpicklable runners degrade to the thread backend (counted as
    ``exec.spawn_unpicklable``), which is bitwise-identical by the
    thread==serial contract.
    """
    try:
        blob = pickle.dumps(run_shard)
    except Exception:
        metrics.counter(_SPAWN_UNPICKLABLE).inc()
        return _map_thread(run_shard, shard_args, n_workers, shares)
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        max_workers=n_workers,
        mp_context=ctx,
        initializer=_spawn_init,
        initargs=(blob,),
    ) as pool:
        futures = [
            pool.submit(
                _process_entry,
                args,
                None if shares is None else shares[k],
            )
            for k, args in enumerate(shard_args)
        ]
        outcomes = _collect_futures(futures)
    return _merge_outcome_metrics(outcomes)


def map_shards(
    run_shard: Callable,
    shard_args: list,
    backend: str,
    n_procs: int | None = None,
    split_scope: bool = True,
) -> list[ShardOutcome]:
    """Run ``run_shard`` over every shard; outcomes come back in order.

    ``backend`` must be ``"thread"``, ``"process"`` or ``"spawn"``
    (serial execution never reaches the pool — callers keep their own
    serial loop, which is the bitwise reference). ``process`` degrades
    to ``thread`` when the ``fork`` start method is unavailable (counted
    as ``exec.fork_unavailable``), because the payload-inheritance
    design requires fork; ``spawn`` degrades to ``thread`` when the
    runner cannot pickle (``exec.spawn_unpicklable``).
    ``split_scope=False`` skips the budget split — used by
    ``explain_batch``, whose rows open their own scopes.
    """
    if backend not in ("thread", "process", "spawn"):
        raise ValueError(f"map_shards backend must be thread|process|spawn, "
                         f"got {backend!r}")
    if not shard_args:
        return []
    if backend == "process" and not fork_available():
        metrics.counter(_FORK_UNAVAILABLE).inc()
        backend = "thread"
    n_workers = min(resolve_n_procs(n_procs), len(shard_args))
    shares = _scope_shares(len(shard_args)) if split_scope else None
    if backend == "thread":
        return _settle(_map_thread(run_shard, shard_args, n_workers, shares))
    if backend == "spawn":
        return _settle(_map_spawn(run_shard, shard_args, n_workers, shares))
    return _settle(_map_process(run_shard, shard_args, n_workers, shares))
