"""Auto-instrumentation of explainer entry points.

:func:`instrument_explainer` wraps a class's own ``explain`` /
``explain_batch`` definitions in spans, so every explanation reports
``{explainer, n_features, wall_ms, model_evals, rows_evaluated}``
without any per-module code. It is applied two ways:

* automatically, from ``Explainer.__init_subclass__`` in
  :mod:`repro.core.base` — covers every explainer deriving from the
  common base (KernelSHAP, sampling SHAP, LIME, DiCE, GeCo, QII, …);
* explicitly, as a class decorator on the explainers that predate the
  base class (Anchors, TreeSHAP, the causal Shapley family, text LIME).

Only methods *defined on the class itself* are wrapped (inherited
wrapped methods are not re-wrapped), and each wrapper is marked so the
two application paths can never double-span one call.
"""

from __future__ import annotations

import functools

from .ledger import record_run
from .metrics import counter, histogram
from .trace import current_span, enabled, span

__all__ = ["instrument_explainer"]

_METHODS = ("explain", "explain_batch")

# Latency histograms auto-fed by the wrappers (dotted-lowercase names,
# see the metric-names rule of scripts/lint.py).
_WALL_HISTOGRAMS = {
    "explain": "explain.wall_ms",
    "explain_batch": "explain_batch.wall_ms",
}


def _instance_size(value) -> int | None:
    """Feature/row count of an explain argument, if it looks array-like."""
    shape = getattr(value, "shape", None)
    if shape is not None:
        try:
            return int(shape[0]) if len(shape) == 1 else int(shape[-1])
        except (TypeError, ValueError, IndexError):
            # Exotic shape objects must not break instrumentation, but the
            # swallow stays visible instead of silent.
            counter("obs.internal_errors").inc()
            return None
    if isinstance(value, (list, tuple)):
        return len(value)
    return None


def _wrap(method_name: str, fn):
    size_attr = "n_rows" if method_name == "explain_batch" else "n_features"

    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        if not enabled():
            return fn(self, *args, **kwargs)
        attrs = {"explainer": getattr(self, "method_name", type(self).__name__)}
        target = args[0] if args else kwargs.get("x", kwargs.get("X"))
        if method_name == "explain_batch" and target is not None:
            shape = getattr(target, "shape", None)
            if shape is not None:
                attrs["n_rows"] = int(shape[0]) if len(shape) > 1 else 1
            elif isinstance(target, (list, tuple)):
                attrs["n_rows"] = len(target)
        else:
            size = _instance_size(target)
            if size is not None:
                attrs[size_attr] = size
        # A per-row explain inside explain_batch is a sub-call, not a
        # run: only top-level entry points feed the latency histograms
        # and the run ledger (nesting under a user experiment span is
        # still a run).
        outer = current_span()
        is_run = outer is None or outer.name not in _METHODS
        sp = None
        try:
            with span(method_name, **attrs) as sp:
                result = fn(self, *args, **kwargs)
        except Exception as exc:
            if is_run and sp is not None:
                record_run(sp, explainer=self, error=exc)
            raise
        if is_run:
            wall_ms = getattr(sp, "wall_ms", None)
            if wall_ms is not None:
                histogram(_WALL_HISTOGRAMS[method_name]).observe(wall_ms)
            record_run(sp, explainer=self, result=result)
        return result

    traced.__repro_traced__ = True
    return traced


def instrument_explainer(cls):
    """Class decorator: span-wrap the class's own explain entry points."""
    for name in _METHODS:
        fn = cls.__dict__.get(name)
        if fn is None:
            continue
        if getattr(fn, "__repro_traced__", False):
            continue
        if getattr(fn, "__isabstractmethod__", False):
            continue
        if isinstance(fn, (staticmethod, classmethod)):
            continue
        setattr(cls, name, _wrap(name, fn))
    return cls
