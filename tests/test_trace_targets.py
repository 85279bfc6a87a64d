"""The benchmark's tracer wraps ``spincycles`` functions by name.

``perfbench/tracing.py`` is imported read-only (``install()`` is never
called): every ``(module, attribute)`` in its ``TARGETS`` must resolve, or
every ``--trace 1`` benchmark run fails at start-up.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    fresh = "oracles" not in sys.modules  # tracing imports it from perfbench/
    try:
        spec.loader.exec_module(tracing)
    finally:
        if fresh:
            sys.modules.pop("oracles", None)
    assert tracing.TARGETS
    for layer, attr, _name, _extra in tracing.TARGETS:
        target = importlib.import_module(f"spincycles.{layer}")
        for part in attr.split("."):
            assert hasattr(target, part), f"spincycles.{layer}.{attr}"
            target = getattr(target, part)
        assert callable(target), f"spincycles.{layer}.{attr}"
