#!/usr/bin/env python3
"""Lint: the repository's design rules, checked by AST in one pass.

The methods behave as one toolkit only while a few invariants hold
everywhere: every Shapley family runs the one permutation walk in
``repro.games``, the provenance consumers go through the planner, fitted
artifacts persist through one envelope, and so on. Each rule below keeps
one of them true. A rule is a name, the trees it covers (its scope), the
files it exempts, a fix hint and a check; its check docstring says why
the rule exists.

The driver walks ``src/repro`` and ``tests`` once, reads and parses each
file once, and runs every rule whose scope contains that file. Seven
rules accept a deliberate exception marked ``# <tag>: allow`` on the
line their docstring names; one helper checks all of them. The persist
rule also resolves registered classes across its whole scope after the
walk. AST-based, so strings and comments cannot trip a rule.

Usage: ``python scripts/lint.py`` (no arguments). Exit status 0 when
clean, 1 with each finding on stderr as ``path:line reason`` under its
rule's fix hint.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from typing import Callable, Iterable, NamedTuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src/repro", "tests")


class Source(NamedTuple):
    """One parsed file: ``path`` as printed, ``rel`` relative to the
    scanned root with ``/`` separators, and every node of ``tree`` in
    ``ast.walk`` order (walked once, shared by the rules)."""

    path: str
    rel: str
    tree: ast.Module
    lines: list[str]
    nodes: list[ast.AST]

    def allowed(self, tag: str, *linenos: int) -> bool:
        """Does any of ``linenos`` carry ``# <tag>: allow``?"""
        marker = f"# {tag}: allow"
        return any(
            0 < n <= len(self.lines) and marker in self.lines[n - 1]
            for n in linenos
        )


class Finding(NamedTuple):
    rule: str
    path: str
    line: int
    reason: str


class Rule(NamedTuple):
    name: str
    hint: str
    check: Callable[[Source], Iterable[tuple[int, str]]]
    roots: tuple[str, ...] = ("src/repro",)
    exempt: Callable[[str], bool] = lambda rel: False
    # Runs after the walk on every source in scope; yields
    # ``(path, line, reason)``.
    finish: Callable[[list[Source]], Iterable[tuple]] | None = None

    def covers(self, rel: str) -> bool:
        return (
            any(rel.startswith(root + "/") for root in self.roots)
            and not self.exempt(rel)
        )


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _name_of(node: ast.AST) -> str | None:
    """``f`` for ``f`` and ``x.f``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _calls(src: Source) -> Iterable[ast.Call]:
    return (node for node in src.nodes if isinstance(node, ast.Call))


def _has_method_call(src: Source, name: str) -> bool:
    return any(
        isinstance(node.func, ast.Attribute) and node.func.attr == name
        for node in _calls(src)
    )


def _basename_in(*names: str) -> Callable[[str], bool]:
    return lambda rel: rel.rsplit("/", 1)[-1] in names


# -- no print -----------------------------------------------------------------


def check_no_print(src: Source):
    """Diagnostics belong in :mod:`repro.obs` (spans, counters,
    summaries), not on stdout: a library that prints is a library whose
    cost you cannot meter. Only the human-output surfaces
    ``render.py``, ``report.py`` and ``cli.py`` may print.
    """
    for node in _calls(src):
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            yield node.lineno, "bare print() call"


# -- exception hygiene --------------------------------------------------------

_BROAD_NAMES = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    """Does the handler catch Exception/BaseException (possibly in a tuple)?"""
    node = handler.type
    names = node.elts if isinstance(node, ast.Tuple) else [node]
    return any(
        isinstance(name, ast.Name) and name.id in _BROAD_NAMES
        for name in names
    )


def _is_silent(handler: ast.ExceptHandler) -> bool:
    """Is the handler body only ``pass`` / ``...`` statements?"""
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in handler.body
    )


def check_exception_hygiene(src: Source):
    """Forbid silent exception swallowing in the library and the tests.

    * Bare ``except:`` is banned always. It catches ``KeyboardInterrupt``
      and ``SystemExit`` along with everything else; there is no good use
      of it in library code.
    * ``except Exception:`` / ``except BaseException:`` whose body does
      nothing (``pass`` / ``...``) is banned: the failure mode that
      motivated the :mod:`repro.robust` layer, where a model error
      silently becomes a wrong number. Handlers that re-raise, log, count
      (``obs.internal_errors``) or return a sentinel are fine.

    Narrow except clauses (``except (TypeError, ValueError):``) pass:
    naming the types is the author demonstrating intent. The tests are in
    scope because a test that swallows the very failure it should assert
    on is how regressions go unnoticed. Marker: the ``except`` line.
    """
    for node in src.nodes:
        if not isinstance(node, ast.ExceptHandler):
            continue
        if src.allowed("hygiene", node.lineno):
            continue
        if node.type is None:
            yield node.lineno, "bare except:"
        elif _is_broad(node) and _is_silent(node):
            yield node.lineno, "except Exception with silent (pass-only) body"


# -- bespoke Shapley loops ----------------------------------------------------


def _permutation_call_line(node: ast.AST) -> int | None:
    """Line of the first ``<anything>.permutation(...)`` call, else None."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "permutation"
        ):
            return sub.lineno
    return None


def _loaded_names(node: ast.AST) -> set[str]:
    return {
        sub.id
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def _target_names(target: ast.AST) -> set[str]:
    return {sub.id for sub in ast.walk(target) if isinstance(sub, ast.Name)}


def _unwrap_enumerate(node: ast.expr) -> ast.expr:
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "enumerate"
        and node.args
    ):
        return node.args[0]
    return node


def _scope_statements(body: list[ast.stmt]) -> list[ast.stmt]:
    """All statements of a scope in source order, not entering functions."""
    out: list[ast.stmt] = []
    stack = list(reversed(body))
    while stack:
        stmt = stack.pop()
        out.append(stmt)
        if isinstance(stmt, (*_DEFS, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            stack.extend(reversed(getattr(stmt, field, [])))
        for handler in getattr(stmt, "handlers", []):
            stack.extend(reversed(handler.body))
    out.sort(key=lambda s: (s.lineno, s.col_offset))
    return out


def _body_has_subscript_augassign(stmt: ast.For) -> bool:
    return any(
        isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Subscript)
        for sub in ast.walk(stmt)
    )


def _scope_shapley_loops(body: list[ast.stmt]) -> set[tuple[int, str]]:
    """``(origin_line, reason)`` offences for one function/module scope."""
    statements = _scope_statements(body)
    tainted: dict[str, int] = {}
    offences: set[tuple[int, str]] = set()

    def origin_of(names: set[str]) -> int | None:
        lines = [tainted[n] for n in names if n in tainted]
        return min(lines) if lines else None

    # Two passes reach the taint fixpoint across loop-carried assignments;
    # offences are recorded on the second, fully-tainted pass.
    for record in (False, True):
        for stmt in statements:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                if stmt.value is None:
                    continue
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                origin = _permutation_call_line(stmt.value)
                if origin is None:
                    origin = origin_of(_loaded_names(stmt.value))
                if origin is not None:
                    for target in targets:
                        # Writing through a subscript does not taint the
                        # container name itself (masks[i] = perm-derived
                        # data is construction, not accumulation).
                        if isinstance(target, ast.Subscript):
                            continue
                        for name in _target_names(target):
                            tainted.setdefault(name, origin)
            elif isinstance(stmt, ast.For):
                origin = origin_of(_loaded_names(_unwrap_enumerate(stmt.iter)))
                if origin is not None:
                    for name in _target_names(stmt.target):
                        tainted.setdefault(name, origin)
                    if record and _body_has_subscript_augassign(stmt):
                        offences.add((
                            origin,
                            "permutation-driven loop accumulates into a "
                            f"subscript (line {stmt.lineno}); use "
                            "repro.games.permutation_estimator",
                        ))
            elif isinstance(stmt, ast.AugAssign) and isinstance(
                stmt.target, ast.Subscript
            ):
                origin = origin_of(_loaded_names(stmt.target.slice))
                if record and origin is not None:
                    offences.add((
                        origin,
                        "marginal contributions accumulated by permutation "
                        f"index (line {stmt.lineno}); use "
                        "repro.games.permutation_estimator",
                    ))
    return offences


def check_bespoke_shapley(src: Source):
    """Forbid bespoke Shapley permutation loops outside ``repro.games``.

    The games layer exists so that every Shapley-style computation shares
    one walk loop (caching, chunking, budgets, telemetry, convergence
    diagnostics). The failure mode is regression by convenience: a new
    estimator quietly re-implementing the "sample a permutation,
    accumulate marginal contributions" loop and losing all of that.

    Detection is a small per-function taint analysis, not a grep:

    * any name assigned from an expression containing a
      ``.permutation(...)`` call is tainted (``perm = rng.permutation(n)``);
    * taint propagates through assignments referencing tainted names and
      through ``for`` targets iterating tainted iterables (unwrapping
      ``enumerate()``);
    * an offence is a marginal-contribution accumulation driven by the
      permutation: an augmented assignment into a subscript whose index
      references a tainted name (``sums[point] += ...``), or a ``for``
      loop over a tainted iterable whose body performs any subscript
      ``+=``.

    Plain uses of ``rng.permutation`` (shuffling minibatch order,
    permuting rows for a baseline) do not accumulate per-player marginals
    and pass. ``src/repro/games/estimators.py`` is exempt: that is where
    the one walk scheduler lives, and the only file of ``repro.games``
    that draws a permutation. Marker: the ``.permutation(...)`` line, for
    a walk loop the games layer cannot serve; the library has none (the
    pre-games reference loops live in ``tests/oracles/``, outside the
    rule's scope).
    """
    if not _has_method_call(src, "permutation"):
        return []
    scopes = [src.tree.body] + [
        node.body for node in src.nodes if isinstance(node, _DEFS)
    ]
    found: set[tuple[int, str]] = set()
    for body in scopes:
        found |= _scope_shapley_loops(body)
    return [
        (line, reason) for line, reason in found
        if not src.allowed("games", line)
    ]


# -- metric names and timing --------------------------------------------------

_METRIC_FACTORIES = {"counter", "gauge", "histogram"}
_METRIC_NAME = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")


def check_metric_names(src: Source):
    """Keep the telemetry surface coherent.

    1. Metric names are dotted lowercase. Every literal first argument to
       ``counter(...)`` / ``gauge(...)`` / ``histogram(...)`` (bare or
       attribute-qualified, e.g. ``metrics.counter``) must match
       ``segment(.segment)+`` with segments of ``[a-z0-9_]``, so the
       Prometheus exposition, the summary tables and ``grep`` agree on
       what a metric is called. Non-literal names are ignored (registry
       helpers pass names through variables).
    2. No ad-hoc ``time.perf_counter()`` timing outside ``repro/obs``.
       Latency measured with a bare perf counter is invisible to the
       histograms, the ledger and ``/metrics``; use
       ``repro.obs.metrics.observe_duration`` or a span instead. The obs
       package owns the timing primitives, so there perf_counter is the
       implementation, not an escape. Marker (timing only): the call
       line, when the raw duration value itself is the payload (the exec
       pool's shard gauges, experiment scripts measuring their subject).
    """
    timing_exempt = src.rel.startswith("src/repro/obs/")
    for node in _calls(src):
        name = _name_of(node.func)
        if name in _METRIC_FACTORIES and node.args:
            first = node.args[0]
            if (
                isinstance(first, ast.Constant)
                and isinstance(first.value, str)
                and not _METRIC_NAME.match(first.value)
            ):
                yield (
                    node.lineno,
                    f"metric name {first.value!r} is not dotted lowercase "
                    "(want e.g. 'model.latency_ms')",
                )
        if (
            name == "perf_counter"
            and not timing_exempt
            and not src.allowed("obs", node.lineno)
        ):
            yield (
                node.lineno,
                "ad-hoc time.perf_counter() timing — use "
                "obs.metrics.observe_duration / obs.span, or mark the line "
                "'# obs: allow'",
            )


# -- per-row explain loops ----------------------------------------------------


def _explain_call_lines(node: ast.AST):
    """Line of each ``*.explain(...)`` call under ``node``, not descending
    into nested function definitions (fresh loop scope)."""
    stack = [node]
    while stack:
        sub = stack.pop()
        if isinstance(sub, (*_DEFS, ast.Lambda)):
            continue
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "explain"
        ):
            yield sub.func.lineno
        stack.extend(ast.iter_child_nodes(sub))


def check_batch_loops(src: Source):
    """Forbid per-row ``explain()`` loops in library code.

    The batch path only pays off if callers go through
    ``explain_batch``: one estimate draws the walks once for every row,
    the TreeSHAP precompute is reused across rows, and fused model calls
    replace per-row re-sampling. The easy regression is a new aggregation
    helper writing ``for x in X: explainer.explain(x)`` and silently
    forfeiting all of that.

    Any ``<something>.explain(...)`` call inside a ``for``/``while`` loop
    or a comprehension is an offence. Nested function definitions reset
    the search: a worker callable defined in a loop is dispatch
    machinery, not a per-row loop. Marker: the call line or the loop
    header, reserved for loops the batch path cannot serve (stability
    sweeps that vary the seed per run, metrics that need per-row
    companion computations, the sanctioned per-row fallback itself).
    """
    found: set[tuple[int, str]] = set()
    if not _has_method_call(src, "explain"):
        return found
    for node in src.nodes:
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            header, bodies = node.lineno, node.body + node.orelse
        elif isinstance(node, _COMPREHENSIONS):
            header, bodies = node.lineno, [node]
        else:
            continue
        for body in bodies:
            for line in _explain_call_lines(body):
                if not src.allowed("batch", line, header):
                    found.add((
                        line,
                        "per-row explain() inside a loop "
                        f"(loop at line {header}); use explain_batch so the "
                        "batch path (one estimate, tree precompute) "
                        "applies",
                    ))
    return found


# -- db row scans -------------------------------------------------------------


def _mentions_rows(node: ast.AST) -> int | None:
    """Line of the first ``<expr>.rows`` mention under ``node``, or None."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "rows":
            return sub.lineno
    return None


def _row_scan(node: ast.AST):
    """``(header_line, scan_line)`` when ``node`` is a loop or a
    comprehension iterating a ``.rows`` mention."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        iters = [node.iter]
    elif isinstance(node, _COMPREHENSIONS):
        iters = [generator.iter for generator in node.generators]
    else:
        return
    for it in iters:
        line = _mentions_rows(it)
        if line is not None:
            yield node.lineno, line


def check_db_scans(src: Source):
    """Forbid naive ``Relation.rows`` scans in the db layer.

    Indexed provenance only pays off if the db consumers route through
    the planner: selections through access paths (hash/sort indexes with
    residual filters), joins through the physical join operators, lineage
    questions through the interval index. The easy regression is a new
    helper writing ``for i, row in enumerate(relation.rows): ...`` and
    silently reintroducing the O(n) scan the planner was built to kill.

    Any ``for`` loop or comprehension whose iterable mentions a
    ``<something>.rows`` attribute is an offence, including scans wrapped
    in ``enumerate``/``zip``/``sorted``/``reversed``/``range(len(...))``.
    Sanctioned escapes: the physical layer itself (``relation.py``,
    ``index.py``, ``planner.py``) and the marker on the loop header or
    scan line, reserved for loops that are not selections at all (e.g.
    formatting every row of an already-reduced result). The naive
    oracles of the differential tests live in ``tests/oracles/``,
    outside the rule's scope.
    """
    found: set[tuple[int, str]] = set()
    for node in src.nodes:
        for header, line in _row_scan(node):
            if not src.allowed("db", line, header):
                found.add((
                    line,
                    "O(n) scan over Relation.rows "
                    f"(loop at line {header}); route selections and "
                    "joins through the planner / index layer",
                ))
    return found


# -- blocking io --------------------------------------------------------------

_BLOCKING_METHODS = {
    "wait", "acquire", "join", "get", "result", "read", "recv", "accept",
}


def check_blocking_io(src: Source):
    """No untimed blocking calls in the serve layer.

    The serve layer's contract is "no hung sockets, no hung requests":
    every wait is bounded by a timeout that chains back to a request
    deadline or a config knob. One unbounded ``.wait()`` quietly breaks
    the whole overload story, and nothing in the test suite fails until a
    production-shaped traffic pattern finds it.

    1. No zero-argument blocking primitives: ``x.wait()`` /
       ``x.acquire()`` / ``x.join()`` / ``x.get()`` / ``x.result()`` /
       ``x.read()`` / ``x.recv()`` / ``x.accept()`` with no arguments at
       all blocks until its peer acts. Any argument (a timeout,
       ``blocking=False``) is accepted: the reviewer checks the bound is
       right, the lint makes sure there is one.
    2. No ``settimeout(None)``: that is how a bounded socket becomes an
       unbounded one after the fact.
    3. No bare ``sleep`` outside backoff helpers: ``time.sleep`` in a
       request path is a hidden latency floor. The only blessed sleeps
       live in functions with ``backoff`` in their name (the retry path,
       where the guard caps the delay by the scope's remaining deadline).

    Marker: the call line, when the blocking call is deliberate and
    bounded by construction elsewhere.
    """
    found: list[tuple[int, str]] = []

    def visit(node: ast.AST, in_backoff: bool) -> None:
        if isinstance(node, _DEFS):
            in_backoff = in_backoff or "backoff" in node.name
        elif isinstance(node, ast.Call):
            name = _name_of(node.func)
            args = list(node.args) + [kw.value for kw in node.keywords]
            if name == "sleep":
                if not in_backoff:
                    found.append((
                        node.lineno,
                        "bare sleep() outside a backoff helper — bound the "
                        "wait by a deadline, or mark the line "
                        "'# serve: allow'",
                    ))
            elif name == "settimeout" and any(
                isinstance(a, ast.Constant) and a.value is None for a in args
            ):
                found.append((
                    node.lineno,
                    "settimeout(None) makes a socket unbounded — pass a "
                    "finite timeout",
                ))
            elif (
                name in _BLOCKING_METHODS
                and isinstance(node.func, ast.Attribute)
                and not args
            ):
                found.append((
                    node.lineno,
                    f"untimed blocking call .{name}() — pass a timeout (or "
                    "blocking=False), or mark the line '# serve: allow'",
                ))
        for child in ast.iter_child_nodes(node):
            visit(child, in_backoff)

    visit(src.tree, False)
    return [(line, r) for line, r in found if not src.allowed("serve", line)]


# -- persist protocol ---------------------------------------------------------

# Base classes that provide to_dict/from_dict outside the scanned sources.
_PROVIDERS = {"Serializable"}


def check_pickle_imports(src: Source):
    """The persist protocol, first half: ``pickle`` stays out of
    :mod:`repro` except under ``exec/``, where the spawn backend's
    transport is the one sanctioned use. Everything else goes through the
    persist envelope (versioned, canonical, dependency-free); an ad-hoc
    pickle is an unversioned artifact no registry can validate. Marker:
    the import line.
    """
    if src.rel.startswith("src/repro/exec/"):
        return
    for node in src.nodes:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "pickle" for m in modules) and not (
            src.allowed("persist", node.lineno)
        ):
            yield (
                node.lineno,
                "pickle import outside exec/ (use repro.persist, or mark "
                "'# persist: allow')",
            )


def _class_table(src: Source) -> tuple[dict, list[tuple[str, int]]]:
    """``({class: (methods, base names)}, [(registered class, line)])``."""
    classes: dict[str, tuple[set[str], list[str]]] = {}
    registered: list[tuple[str, int]] = []
    for node in src.nodes:
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {item.name for item in node.body if isinstance(item, _DEFS)}
        bases = [_name_of(base) for base in node.bases]
        classes[node.name] = (methods, [b for b in bases if b is not None])
        if any(
            _name_of(d.func if isinstance(d, ast.Call) else d)
            == "register_serializable"
            for d in node.decorator_list
        ):
            registered.append((node.name, node.lineno))
    return classes, registered


def _resolves(method: str, cls: str, classes: dict, trail: set) -> bool:
    """Does ``method`` resolve on ``cls``'s bases, by name?"""
    if cls in _PROVIDERS:
        return True
    if cls in trail or cls not in classes:
        return False
    trail.add(cls)
    methods, bases = classes[cls]
    return method in methods or any(
        _resolves(method, base, classes, trail) for base in bases
    )


def unregistered_pairs(sources: list[Source]):
    """The persist protocol, second half: every class decorated
    ``@register_serializable(...)`` has both ``to_dict`` and
    ``from_dict``, defined in its own body or inherited from a base that
    has them (``Serializable`` supplies the generic pair). Registration
    without the pair is a latent ``PersistError`` that only fires on the
    first save/load.

    Inheritance is resolved by name across the whole scope, preferring
    classes defined in the registered class's own module over same-named
    classes elsewhere: the registered hierarchies are single-module, but
    unrelated modules may reuse a class name (``db.planner.Predicate``
    vs the registered ``core.Predicate``). ``Serializable`` is the axiom.
    The pair may be split across the hierarchy (a base's generic pair
    with one side overridden locally); what matters is that both resolve.
    """
    tables = [(src.path, *_class_table(src)) for src in sources]
    all_classes: dict = {}
    for __, classes, __ in tables:
        all_classes.update(classes)
    for path, classes, registered in tables:
        scoped = {**all_classes, **classes}
        for cls, line in registered:
            if not all(
                _resolves(m, cls, scoped, set())
                for m in ("to_dict", "from_dict")
            ):
                yield (
                    path, line,
                    f"@register_serializable class {cls!r} has no "
                    "to_dict/from_dict pair (define them or inherit "
                    "Serializable)",
                )


# -- the driver ---------------------------------------------------------------

RULES = (
    Rule(
        "no-print",
        "bare print() calls found (route diagnostics through repro.obs; "
        "only render.py/report.py/cli.py may print)",
        check_no_print,
        exempt=_basename_in("render.py", "report.py", "cli.py"),
    ),
    Rule(
        "exception-hygiene",
        "silent exception handling found (narrow the except type, or count "
        "it via obs.internal_errors; see repro.robust)",
        check_exception_hygiene,
        roots=SCANNED,
    ),
    Rule(
        "bespoke-shapley",
        "bespoke Shapley permutation loop found (route it through "
        "repro.games.permutation_estimator, or mark a loop the games "
        "layer cannot serve with `# games: allow`)",
        check_bespoke_shapley,
        exempt=lambda rel: rel == "src/repro/games/estimators.py",
    ),
    Rule(
        "metric-names",
        "metric-name / timing lint failures",
        check_metric_names,
    ),
    Rule(
        "batch-loops",
        "per-row explain() loop found (route batches through explain_batch, "
        "or mark a loop the amortized path cannot serve with "
        "`# batch: allow`)",
        check_batch_loops,
    ),
    Rule(
        "db-scans",
        "naive Relation.rows scan found (use the planner / index layer, "
        "or mark a non-selection loop with `# db: allow`)",
        check_db_scans,
        roots=("src/repro/db",),
        exempt=_basename_in("relation.py", "index.py", "planner.py"),
    ),
    Rule(
        "blocking-io",
        "blocking-io lint failures",
        check_blocking_io,
        roots=("src/repro/serve",),
    ),
    Rule(
        "persist",
        "persist protocol lint failures",
        check_pickle_imports,
        finish=unregistered_pairs,
    ),
)


def parse_sources(root: str) -> Iterable[Source]:
    """Read and parse every ``.py`` file under ``root``'s scanned trees."""
    for top in SCANNED:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    text = f.read()
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                tree = ast.parse(text, filename=path)
                yield Source(path, rel, tree, text.splitlines(),
                             list(ast.walk(tree)))


def run(root: str = REPO_ROOT) -> list[Finding]:
    """Every rule's findings over ``root``, sorted by rule, path, line."""
    found: set[Finding] = set()
    in_scope: dict[str, list[Source]] = {r.name: [] for r in RULES if r.finish}
    for src in parse_sources(root):
        for rule in RULES:
            if not rule.covers(src.rel):
                continue
            found.update(
                Finding(rule.name, src.path, line, reason)
                for line, reason in rule.check(src)
            )
            if rule.finish:
                in_scope[rule.name].append(src)
    for rule in RULES:
        if rule.finish:
            found.update(
                Finding(rule.name, *f) for f in rule.finish(in_scope[rule.name])
            )
    order = [r.name for r in RULES]
    return sorted(found, key=lambda f: (order.index(f.rule), f.path, f.line))


def report(findings: list[Finding]) -> int:
    """Write ``findings`` to stderr under their rules' hints; exit code."""
    for rule in RULES:
        mine = [f for f in findings if f.rule == rule.name]
        if mine:
            sys.stderr.write(f"{rule.hint}:\n")
            sys.stderr.writelines(
                f"  {f.path}:{f.line} {f.reason}\n" for f in mine
            )
    return 1 if findings else 0


def main() -> int:
    if sys.argv[1:]:
        sys.stderr.write("usage: python scripts/lint.py (takes no arguments)\n")
        return 2
    return report(run())


if __name__ == "__main__":
    sys.exit(main())
