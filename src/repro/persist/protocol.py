"""The serialization protocol: type-tag envelopes over a class registry.

Modeled on BayBE's serialization engine: every participating class is
*unstructured* into JSON basic types and reassembled afterward as an
**equivalent copy** — an object that behaves identically to the
original while ephemeral state (caches, spans, locks, open scopes) is
deliberately dropped and lazily rebuilt on first use.

A class joins the protocol with the decorator::

    @register_serializable("models.LogisticRegression")
    class LogisticRegression(...):
        def to_dict(self) -> dict: ...          # payload of basic types
        @classmethod
        def from_dict(cls, payload) -> "...": ...

and its instances then round-trip through the **envelope**::

    {"_type": "models.LogisticRegression", "_version": 1, "state": {...}}

``to_envelope``/``from_envelope`` (and the string/file conveniences
``dumps``/``loads``/``save``/``load``) recurse through
:mod:`repro.persist.codec`, so payloads may nest arrays, plain
containers and other registered objects freely. Unknown ``_type`` tags
raise :class:`~repro.persist.errors.UnknownTypeError`; a ``_version``
newer than the running code raises
:class:`~repro.persist.errors.UnsupportedVersionError`; older versions
pass through the class's optional ``migrate(payload, version)`` hook.

The ``persist`` rule of ``scripts/lint.py`` checks the registrations:
every registered class must define (or inherit) *both* halves of the pair —
a one-sided implementation is a latent deserialization outage.
"""

from __future__ import annotations

import json
import os
import threading

from .errors import PayloadError, PersistError, UnknownTypeError, \
    UnsupportedVersionError

__all__ = [
    "Serializable",
    "register_serializable",
    "registered_types",
    "registered_class",
    "is_registered_instance",
    "is_envelope",
    "to_envelope",
    "from_envelope",
    "dumps",
    "loads",
    "save",
    "load",
]

_TYPE_KEY = "_type"
_VERSION_KEY = "_version"
_STATE_KEY = "state"

_LOCK = threading.Lock()
_REGISTRY: dict[str, type] = {}


def register_serializable(tag: str, version: int = 1):
    """Class decorator: join the persistence protocol under ``tag``.

    ``tag`` is the stable wire name (it outlives module refactors —
    renaming the class must not orphan artifacts on disk); ``version``
    stamps every envelope the class writes. The decorated class must
    provide ``to_dict``/``from_dict`` (own or inherited); registration
    fails fast otherwise so a half-registered class cannot ship.
    """

    def decorate(cls: type) -> type:
        for method in ("to_dict", "from_dict"):
            if not callable(getattr(cls, method, None)):
                raise TypeError(
                    f"@register_serializable({tag!r}): {cls.__name__} "
                    f"must define or inherit {method}()"
                )
        with _LOCK:
            existing = _REGISTRY.get(tag)
            if existing is not None and existing is not cls:
                raise ValueError(
                    f"serialization tag {tag!r} already registered by "
                    f"{existing.__name__}"
                )
            _REGISTRY[tag] = cls
        cls.__persist_tag__ = tag
        cls.__persist_version__ = int(version)
        return cls

    return decorate


class Serializable:
    """Attribute-table ``to_dict``/``from_dict`` for the common shape.

    Most participating classes split cleanly into *constructor
    arguments* (hyperparameters, listed in ``__persist_init__``) and
    *optional post-construction state* (fitted attributes, listed in
    ``__persist_state__`` and captured only when present — an unfitted
    model round-trips unfitted). Reassembly calls
    ``cls(**init_args)`` and then sets the captured state back, which
    is exactly the equivalent-copy contract: anything not in either
    table (caches, spans, locks) is dropped and lazily rebuilt.

    Classes whose state does not fit the two-table shape (e.g.
    :class:`repro.models.tree.TreeStructure`'s parallel arrays) define
    their own pair instead of mixing this in.
    """

    __persist_init__: tuple = ()
    __persist_state__: tuple = ()

    def to_dict(self) -> dict:
        payload = {name: getattr(self, name) for name in self.__persist_init__}
        fitted = {
            name: getattr(self, name)
            for name in self.__persist_state__
            if hasattr(self, name)
        }
        if fitted:
            payload["fitted"] = fitted
        return payload

    @classmethod
    def from_dict(cls, payload: dict):
        payload = dict(payload)
        fitted = payload.pop("fitted", {})
        obj = cls(**payload)
        for name, value in fitted.items():
            setattr(obj, name, value)
        return obj


def registered_types() -> dict[str, type]:
    """Snapshot of the tag → class registry."""
    with _LOCK:
        return dict(_REGISTRY)


def registered_class(tag: str) -> type:
    with _LOCK:
        cls = _REGISTRY.get(tag)
    if cls is None:
        raise UnknownTypeError(
            f"no serializable class registered under {tag!r}; "
            "is its defining module imported?"
        )
    return cls


def is_registered_instance(obj) -> bool:
    """Whether ``obj``'s class joined the protocol (tag on its own MRO)."""
    return getattr(type(obj), "__persist_tag__", None) is not None


def is_envelope(value) -> bool:
    return (
        isinstance(value, dict)
        and isinstance(value.get(_TYPE_KEY), str)
        and _VERSION_KEY in value
    )


def to_envelope(obj, mode: str = "b64") -> dict:
    """Unstructure one registered object into its tagged envelope."""
    cls = type(obj)
    tag = getattr(cls, "__persist_tag__", None)
    if tag is None:
        raise PayloadError(
            f"{cls.__name__} is not registered with @register_serializable"
        )
    from .codec import encode_value

    payload = obj.to_dict()
    if not isinstance(payload, dict):
        raise PayloadError(
            f"{cls.__name__}.to_dict() must return a dict, "
            f"got {type(payload).__name__}"
        )
    return {
        _TYPE_KEY: tag,
        _VERSION_KEY: int(cls.__persist_version__),
        _STATE_KEY: encode_value(payload, mode=mode),
    }


def from_envelope(envelope: dict):
    """Reassemble the equivalent copy an envelope describes."""
    if not is_envelope(envelope):
        raise PayloadError(
            "not a persist envelope (missing _type/_version keys)"
        )
    cls = registered_class(envelope[_TYPE_KEY])
    try:
        version = int(envelope[_VERSION_KEY])
    except (TypeError, ValueError):
        raise PayloadError(
            f"envelope _version must be an integer, "
            f"got {envelope[_VERSION_KEY]!r}"
        ) from None
    current = int(cls.__persist_version__)
    if version > current:
        raise UnsupportedVersionError(
            f"{envelope[_TYPE_KEY]} envelope is version {version}, but this "
            f"build reads up to version {current}"
        )
    from .codec import decode_value

    payload = decode_value(envelope.get(_STATE_KEY, {}))
    if version < current:
        migrate = getattr(cls, "migrate", None)
        if migrate is None:
            raise UnsupportedVersionError(
                f"{envelope[_TYPE_KEY]} version {version} predates "
                f"version {current} and the class has no migrate() hook"
            )
        payload = migrate(payload, version)
    return cls.from_dict(payload)


# -- string / file conveniences ----------------------------------------------


def dumps(obj, mode: str = "b64", indent: int | None = None) -> str:
    """Canonical JSON text for any encodable value (envelopes included).

    Top-level registered objects become envelopes; bare containers and
    arrays encode directly. ``sort_keys`` keeps the byte stream stable,
    which is what the registry's content addressing hashes.
    """
    from .codec import encode_value

    return json.dumps(encode_value(obj, mode=mode), sort_keys=True,
                      indent=indent)


def loads(text: str):
    from .codec import decode_value

    try:
        raw = json.loads(text)
    except ValueError as e:
        raise PayloadError(f"not valid JSON: {e}") from e
    return decode_value(raw)


def save(obj, path: str, mode: str = "b64", indent: int | None = 2) -> str:
    """Serialize ``obj`` to ``path`` atomically; returns the path."""
    from ..obs.bench import atomic_write_text

    atomic_write_text(path, dumps(obj, mode=mode, indent=indent) + "\n")
    return path


def load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise PersistError(f"cannot read artifact file {path!r}: {e}") from e
    if not os.path.basename(path):
        raise PersistError(f"not a file path: {path!r}")
    return loads(text)
