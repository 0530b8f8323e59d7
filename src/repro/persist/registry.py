"""Versioned, content-addressed artifact registry on the filesystem.

Layout under the registry root (``REPRO_REGISTRY_DIR``, default
``.repro_registry/``)::

    objects/<sha256>.json     # canonical envelope JSON, content-addressed
    manifest.json             # {"artifacts": {name: {"versions":
                              #   {version: {"digest", "pushed_at", "note"}},
                              #   "latest": version}}}
    .lock                     # advisory lockfile for manifest updates

Properties the serve layer and tests lean on:

* **Content addressing** — an object file's name is the sha256 of its
  canonical JSON (sorted keys, no indent), so identical artifacts
  dedupe and a digest fully identifies content.
* **Immutable versions** — re-pushing a ``(name, version)`` with the
  same digest is an idempotent no-op; pushing different content under
  an existing version raises
  :class:`~repro.persist.errors.ArtifactConflictError`. Serve caches
  key on ``(name, version)``; silently swapping bytes under that key
  would poison them without any signal.
* **Atomic, crash-safe writes** — objects and manifest go through
  :func:`repro.obs.bench.atomic_write_text` (same-dir temp +
  ``os.replace``); cross-process manifest updates serialize on an
  ``O_CREAT | O_EXCL`` lockfile, so concurrent pushers interleave
  cleanly instead of tearing the index.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import threading
import time

from ..config import setting
from .errors import ArtifactConflictError, ArtifactNotFoundError, PersistError
from .protocol import dumps, loads

__all__ = [
    "resolve_registry_dir",
    "ArtifactRegistry",
]

_LOCK_TIMEOUT_S = 10.0
_LOCK_POLL_S = 0.005


def resolve_registry_dir(root: str | None = None) -> str:
    """Registry root: explicit arg > ``REPRO_REGISTRY_DIR`` > default."""
    return setting("REPRO_REGISTRY_DIR", root or None)


class _FileLock:
    """Advisory cross-process lock via ``O_CREAT | O_EXCL`` lockfile.

    Stale locks (a pusher that died mid-update) are broken after the
    timeout rather than deadlocking every later writer forever.
    """

    def __init__(self, path: str, timeout_s: float = _LOCK_TIMEOUT_S) -> None:
        self.path = path
        self.timeout_s = timeout_s

    def __enter__(self) -> "_FileLock":
        deadline = time.monotonic() + self.timeout_s
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                return self
            except OSError as e:
                if e.errno != errno.EEXIST:
                    raise PersistError(
                        f"cannot acquire registry lock {self.path!r}: {e}"
                    ) from e
                if time.monotonic() >= deadline:
                    try:  # break the (presumed stale) lock and take it
                        os.unlink(self.path)
                    except OSError:
                        pass
                    deadline = time.monotonic() + self.timeout_s
                time.sleep(_LOCK_POLL_S)

    def __exit__(self, *exc) -> None:
        try:
            os.unlink(self.path)
        except OSError:
            pass


class ArtifactRegistry:
    """Named + versioned artifacts over a content-addressed object store."""

    def __init__(self, root: str | None = None) -> None:
        self.root = os.path.abspath(resolve_registry_dir(root))
        self.objects_dir = os.path.join(self.root, "objects")
        self.manifest_path = os.path.join(self.root, "manifest.json")
        self._lock_path = os.path.join(self.root, ".lock")
        self._thread_lock = threading.Lock()

    # -- manifest ------------------------------------------------------------

    def _read_manifest(self) -> dict:
        try:
            with open(self.manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except OSError:
            return {"artifacts": {}}
        except ValueError as e:
            raise PersistError(
                f"registry manifest {self.manifest_path!r} is corrupt: {e}"
            ) from e
        if not isinstance(manifest, dict):
            raise PersistError(
                f"registry manifest {self.manifest_path!r} is not an object"
            )
        manifest.setdefault("artifacts", {})
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        from ..obs.bench import atomic_write_text

        atomic_write_text(
            self.manifest_path,
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )

    # -- queries -------------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._read_manifest()["artifacts"])

    def versions(self, name: str) -> list[str]:
        """Registered versions of ``name``, push order preserved."""
        entry = self._read_manifest()["artifacts"].get(name)
        return list(entry["versions"]) if entry else []

    def latest_version(self, name: str) -> str:
        entry = self._read_manifest()["artifacts"].get(name)
        if not entry or not entry.get("versions"):
            raise ArtifactNotFoundError(
                f"no artifact registered under {name!r}", name=name
            )
        return entry.get("latest") or next(reversed(entry["versions"]))

    def describe(self, name: str, version: str | None = None) -> dict:
        """Manifest record for one version (digest, pushed_at, note)."""
        entry = self._read_manifest()["artifacts"].get(name)
        if not entry or not entry.get("versions"):
            raise ArtifactNotFoundError(
                f"no artifact registered under {name!r}", name=name
            )
        versions = entry["versions"]
        version = version or entry.get("latest") or next(reversed(versions))
        record = versions.get(version)
        if record is None:
            raise ArtifactNotFoundError(
                f"artifact {name!r} has no version {version!r}; "
                f"available: {', '.join(versions)}",
                name=name,
                available=list(versions),
            )
        return {"name": name, "version": version, **record}

    # -- object store --------------------------------------------------------

    def _object_path(self, digest: str) -> str:
        return os.path.join(self.objects_dir, f"{digest}.json")

    def _store_object(self, text: str) -> str:
        from ..obs.bench import atomic_write_text

        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        path = self._object_path(digest)
        if not os.path.exists(path):  # content-addressed: write-once
            atomic_write_text(path, text)
        return digest

    def load_digest(self, digest: str):
        path = self._object_path(digest)
        try:
            with open(path, encoding="utf-8") as fh:
                return loads(fh.read())
        except OSError as e:
            raise ArtifactNotFoundError(
                f"registry object {digest} is missing from {self.objects_dir}"
            ) from e

    # -- push / get ----------------------------------------------------------

    def push(self, name: str, obj, version: str | None = None,
             note: str = "") -> dict:
        """Register ``obj`` under ``name``; returns the manifest record.

        ``version=None`` auto-assigns the next integer version ("1",
        "2", …). Explicit versions are immutable (see class docstring).
        """
        if not name or "/" in name or name.startswith("."):
            raise PersistError(f"invalid artifact name {name!r}")
        text = dumps(obj, indent=None) + "\n"
        os.makedirs(self.objects_dir, exist_ok=True)
        with self._thread_lock, _FileLock(self._lock_path):
            digest = self._store_object(text)
            manifest = self._read_manifest()
            entry = manifest["artifacts"].setdefault(
                name, {"versions": {}, "latest": None}
            )
            versions = entry["versions"]
            if version is None:
                numeric = [int(v) for v in versions if v.isdigit()]
                version = str(max(numeric, default=0) + 1)
            existing = versions.get(version)
            if existing is not None:
                if existing["digest"] == digest:
                    return {"name": name, "version": version, **existing}
                raise ArtifactConflictError(
                    f"artifact {name!r} version {version!r} already exists "
                    f"with digest {existing['digest'][:12]}…; registry "
                    "versions are immutable — push a new version instead"
                )
            from ..obs.bench import utc_timestamp

            record = {
                "digest": digest,
                "pushed_at": utc_timestamp(),
                "note": note,
            }
            versions[version] = record
            entry["latest"] = version
            self._write_manifest(manifest)
        return {"name": name, "version": version, **record}

    def get(self, name: str, version: str | None = None):
        """Load the artifact object for ``(name, version)`` (latest if None)."""
        record = self.describe(name, version)
        return self.load_digest(record["digest"])
