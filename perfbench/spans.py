"""Benchmark-side tracing: spans around calls into the program's layers.

The program is not edited. :class:`SpanLog` wraps public functions and
methods of ``repro`` from the outside (:meth:`SpanLog.patch`), and each
wrapped call records one span: name, layer, start, end, parent and op
id, plus a row count for model calls. Spans stay in memory until the
run ends. A layer's self time is its spans' durations minus the part
their child spans cover; the op's root span keeps what no layer claims,
reported as ``unattributed``. By construction the layers' self times
plus ``unattributed`` add up to the ops' wall time.
"""

from __future__ import annotations

import functools
import json
import threading
import time

# Span tuple fields.
NAME, LAYER, START, END, PARENT, OP, ROWS = range(7)
ROOT_LAYER = "op"


class SpanLog:
    """Thread-aware in-memory span recorder (stdlib only)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str, op=None, rows=None) -> int:
        if not self.active:
            return -1
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][OP]
        record = [name, layer, time.perf_counter(), None, parent, op, rows]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        if index < 0:
            return
        self.spans[index][END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def op(self, op_id):
        """Context manager for one op's root span."""
        return _Span(self, "op", ROOT_LAYER, op_id)

    # -- wrapping the program's entry points ---------------------------------

    def wrap(self, fn, name: str, layer: str, rows_of=None, op_of=None):
        """``fn`` recording a span per call. ``rows_of(args, kwargs)``
        gives the row count; ``op_of(args, kwargs)`` an op id for calls
        that start a request in another process."""
        log = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not log.active:
                return fn(*args, **kwargs)
            rows = rows_of(args, kwargs) if rows_of is not None else None
            op = op_of(args, kwargs) if op_of is not None else None
            index = log.begin(name, layer, op=op, rows=rows)
            try:
                return fn(*args, **kwargs)
            finally:
                log.end(index)

        return traced

    def patch(self, owner, attr: str, name: str, layer: str, **how) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by its
        traced wrapper; :meth:`unpatch` restores it."""
        self.swap(owner, attr,
                  self.wrap(getattr(owner, attr), name, layer, **how))

    def swap(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering what :meth:`unpatch` restores."""
        had_own = attr in vars(owner)
        self._patched.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output --------------------------------------------------------------

    def dump(self, path: str, spans=None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans if spans is None else spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "layer", "start", "end", "parent", "op",
                     "rows"), s))) + "\n")


class _Span:
    __slots__ = ("_log", "_args", "_index")

    def __init__(self, log: SpanLog, name, layer, op):
        self._log = log
        self._args = (name, layer, op)

    def __enter__(self):
        name, layer, op = self._args
        self._index = self._log.begin(name, layer, op=op)
        return self

    def __exit__(self, *exc) -> None:
        self._log.end(self._index)


def covered(interval: tuple[float, float], children) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus what its children cover.

    ``spans`` is a list of span records whose PARENT fields index into
    the same list (-1 for roots).
    """
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return [
        (s[END] - s[START])
        - covered((s[START], s[END]), children.get(i, ()))
        for i, s in enumerate(spans)
    ]


def subset(spans, ops) -> list[list]:
    """Finished spans of the given op ids, with PARENT fields re-pointed
    at positions in the subset (a parent left out becomes -1)."""
    keep = set(ops)
    position: dict[int, int] = {}
    out: list[list] = []
    for i, s in enumerate(spans):
        if s[END] is not None and s[OP] in keep:
            position[i] = len(out)
            out.append(list(s))
    for s in out:
        s[PARENT] = position.get(s[PARENT], -1)
    return out


def graft(spans, foreign) -> list[list]:
    """``spans`` plus another process's spans, each foreign root hung
    under the local root span of the same op id. Both processes read
    the same system-wide monotonic clock, so their times compare."""
    root_of = {s[OP]: i for i, s in enumerate(spans) if s[PARENT] < 0}
    offset = len(spans)
    out = [list(s) for s in spans]
    for s in foreign:
        s = list(s)
        if s[PARENT] >= 0:
            s[PARENT] += offset
        else:
            s[PARENT] = root_of[s[OP]]
        out.append(s)
    return out


def layer_table(spans, layers) -> dict:
    """Self time and share of op wall per layer, plus ``unattributed``.

    ``spans`` must be self-contained (every PARENT index points into the
    same list); root spans carry ROOT_LAYER and define the op wall.
    """
    own = self_times(spans)
    wall = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    totals = {layer: 0.0 for layer in layers}
    unattributed = 0.0
    for s, t in zip(spans, own):
        if s[PARENT] < 0:
            unattributed += t
        else:
            totals[s[LAYER]] = totals.get(s[LAYER], 0.0) + t
    table = {
        layer: {"self_s": t, "share": t / wall if wall > 0 else 0.0}
        for layer, t in totals.items()
    }
    table["unattributed"] = {
        "self_s": unattributed,
        "share": unattributed / wall if wall > 0 else 0.0,
    }
    table["op_wall_s"] = wall
    return table
