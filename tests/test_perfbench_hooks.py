"""The benchmark's traced run patches program entry points by name.

``perfbench/layers.py`` wraps methods such as
``CoalitionEngine.batch_value_matrix`` and ``FeatureMaskingGame.value``
with span recorders. A rename of any of them would otherwise surface
only when someone runs the benchmark with ``--trace 1``; installing and
removing every hook here makes it fail the test suite instead.
"""

from __future__ import annotations

import importlib.util
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name: str):
    path = os.path.join(REPO_ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_hooks_install_and_unpatch():
    layers = _load("layers")
    log = _load("spans").SpanLog()
    try:
        layers.install(log)
        patched = list(log._patched)
        assert patched
        for owner, attr, original, __ in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        log.unpatch()
    for owner, attr, original, __ in patched:
        assert getattr(owner, attr) is original, (owner, attr)
