"""Coalition-cache snapshots: persist packed-bit value caches, pre-warm runs.

A :class:`repro.core.coalition_engine.CoalitionValueCache` memoizes
``v(S)`` per ``(instance, value function)`` pair. Re-runs of the same
explanation (and fresh worker processes under the ``process``/``spawn``
backends) historically rebuilt it from zero every time; a snapshot lets
them start warm instead.

Correctness hinges on the **scope token**: cached values are only valid
for the exact instance × background (× model) that produced them, so
every snapshot carries ``scope_token(x, background)`` — a sha256 over
the canonical bytes of both arrays — and pre-warming silently no-ops on
a mismatch rather than poisoning the cache with a different instance's
values. A snapshot saved with ``scope=None`` is an explicit wildcard
(caller asserts validity; the bench harness uses it only with one fixed
workload).

``REPRO_CACHE_SNAPSHOT=<path>`` points the engine at a snapshot file;
:meth:`CoalitionEngine.new_store` calls :func:`maybe_prewarm` on each
fresh cache. Hits land on the ``persist.cache.prewarmed`` counter.
"""

from __future__ import annotations

import base64
import hashlib
import os

import numpy as np

from ..config import setting
from ..obs import metrics
from .errors import PayloadError, PersistError

__all__ = [
    "scope_token",
    "snapshot_cache",
    "restore_cache",
    "save_cache_snapshot",
    "load_cache_snapshot",
    "prewarm_cache",
    "maybe_prewarm",
]

_PREWARMED = "persist.cache.prewarmed"
_SKIPPED = "persist.cache.snapshot_scope_skips"


def scope_token(x, background) -> str:
    """Identity of the ``(instance, background)`` pair a cache belongs to."""
    h = hashlib.sha256()
    for arr in (x, background):
        a = np.ascontiguousarray(np.asarray(arr, dtype=float))
        h.update(str(a.shape).encode("ascii"))
        h.update(a.tobytes())
    return h.hexdigest()[:32]


def snapshot_cache(cache, scope: str | None) -> dict:
    """Snapshot one cache's entries as a JSON-safe payload.

    Keys (packed-bit mask bytes) go to base64; values stay Python
    floats — JSON's repr round-trip keeps them bitwise for float64.
    Hit/miss counters are ephemeral and deliberately not captured.
    """
    entries = {
        base64.b64encode(key).decode("ascii"): float(value)
        for key, value in cache.values.items()
    }
    return {"scope": scope, "n_entries": len(entries), "entries": entries}


def restore_cache(cache, payload: dict) -> int:
    """Merge snapshot entries into ``cache``; returns entries added."""
    try:
        entries = payload["entries"]
    except (TypeError, KeyError) as e:
        raise PayloadError(f"malformed cache snapshot: {e}") from e
    added = 0
    for key_b64, value in entries.items():
        try:
            key = base64.b64decode(key_b64.encode("ascii"))
        except (ValueError, AttributeError) as e:
            raise PayloadError(
                f"malformed cache snapshot key {key_b64!r}: {e}"
            ) from e
        if key not in cache.values:
            cache.values[key] = float(value)
            added += 1
    return added


def save_cache_snapshot(path: str, cache, scope: str | None) -> str:
    from .protocol import dumps
    from ..obs.bench import atomic_write_text

    atomic_write_text(path, dumps(snapshot_cache(cache, scope), indent=2)
                      + "\n")
    return path


def load_cache_snapshot(path: str) -> dict:
    from .protocol import loads

    try:
        with open(path, encoding="utf-8") as fh:
            payload = loads(fh.read())
    except OSError as e:
        raise PersistError(f"cannot read cache snapshot {path!r}: {e}") from e
    if not isinstance(payload, dict) or "entries" not in payload:
        raise PayloadError(f"{path!r} is not a cache snapshot")
    return payload


def prewarm_cache(cache, payload: dict, scope: str | None) -> int:
    """Apply a snapshot to a fresh cache iff the scope matches.

    Returns entries added (0 on scope mismatch — a mismatch is a
    no-op by design, never an error: the env var may point at a
    snapshot for a different workload).
    """
    snap_scope = payload.get("scope")
    if snap_scope is not None and scope is not None and snap_scope != scope:
        metrics.counter(_SKIPPED).inc()
        return 0
    added = restore_cache(cache, payload)
    if added:
        metrics.counter(_PREWARMED).inc(added)
    return added


def maybe_prewarm(cache, scope: str | None) -> int:
    """Env-driven pre-warm hook for freshly created caches: loads the
    ``REPRO_CACHE_SNAPSHOT`` file, if set and existing."""
    path = setting("REPRO_CACHE_SNAPSHOT")
    if path is None or cache is None or not os.path.exists(path):
        return 0
    try:
        payload = load_cache_snapshot(path)
    except PersistError:
        return 0  # a broken snapshot must never fail the explanation
    return prewarm_cache(cache, payload, scope)
