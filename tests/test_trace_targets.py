"""The benchmark's tracer wraps ``spincycles`` functions by name.

``perfbench/tracing.py`` is imported read-only (``install()`` is never
called here): every ``(module, attribute)`` in its ``TARGETS`` must
resolve, or every ``--trace 1`` benchmark run fails at start-up.  One
traced CLI job also runs end to end in a subprocess, so a wrapper whose
extra no longer fits its function's signature or result fails here too.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import spincycles
from spincycles import corpus

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"


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


def test_traced_segments_job(tmp_path):
    spans = tmp_path / "spans.json"
    quintic = Path(corpus.__file__).parent / "quintic.json"
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(spincycles.__file__).parents[1]),
        "PYTHONDONTWRITEBYTECODE": "1",  # leave perfbench/ as it is
    }
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans), "job-1", "--",
         "segments", str(quintic), "--json"],
        capture_output=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (TESTS / "golden" / "segments_quintic.json").read_bytes()
    found = [s for s in json.loads(spans.read_text()) if s[0] == "polygon.enumerate_segments"]
    assert len(found) == 1
    _name, start, end, _parent, job, extra = found[0]
    assert start <= end and job == "job-1"
    # the quintic triangle holds 21 lattice points and 141 primitive segments
    assert extra == {"found": 141, "pairs": 210}
