"""Span tracing from outside the program, and per-layer aggregation.

``install()`` wraps the public functions and hot methods of the
``spincycles`` layers in the current interpreter.  ``cli.py`` and
``spin.py`` bind functions by value (``from .polygon import
enumerate_segments``), so each wrapper is rebound in every ``spincycles``
module that holds the original object; methods are wrapped on their
classes.  A span is ``[name, start, end, parent, job, extra]``; spans stay
in memory and ``dump()`` writes them when the traced process ends.

``layer_metrics()`` turns spans into the per-layer metrics named in
``BENCHMARK.json``.  Self time is a span's duration minus the durations of
its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from oracles import pick_counts

SPANS: list = []
_STACK: list = []
STATE = {"job": "", "enabled": True}

_FULL = "symplectic.full_symplectic_closure"


def _segments_extra(args, result):
    points = sum(pick_counts(args[0].vertices))
    return {"found": len(result), "pairs": points * (points - 1) // 2}


def _word_extra(args, result):
    return {"letters": len(args[0].letters)}


def _closure_extra(args, result):
    return {"order": result.order, "generators": len(args[0])}


def _closure_name():
    parent = SPANS[_STACK[-1]][0] if _STACK else ""
    return "symplectic.closure_full" if parent == _FULL else "symplectic.closure_admissible"


def _wrap(fn, name, extra=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not STATE["enabled"]:
            return fn(*args, **kwargs)
        span = [name() if callable(name) else name, 0.0, 0.0,
                _STACK[-1] if _STACK else -1, STATE["job"], None]
        _STACK.append(len(SPANS))
        SPANS.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            _STACK.pop()
        if extra is not None:
            span[5] = extra(args, result)
        return result

    return wrapper


# (module, attribute, span name, extra); "Class.method" wraps on the class
TARGETS = (
    ("polygon", "interior_data", "polygon.interior_data", None),
    ("polygon", "LatticePolygon.lattice_points", "polygon.lattice_points", None),
    ("polygon", "LatticePolygon.interior_lattice_points", "polygon.lattice_points", None),
    ("polygon", "enumerate_segments", "polygon.enumerate_segments", _segments_extra),
    ("polygon", "classify_regime", "polygon.classify_regime", None),
    ("homology", "build_model", "homology.build_model", None),
    ("homology", "default_forest", "homology.forest", None),
    ("homology", "vertex_forest", "homology.forest", None),
    ("homology", "validate_forest", "homology.validate_forest", None),
    ("homology", "SurfaceModel.segment_class", "homology.segment_class", None),
    # QuadraticForm.eval delegates to eval_bits, so this counts every q value
    ("spin", "QuadraticForm.eval_bits", "spin.eval", None),
    ("spin", "verify_q_consistency", "spin.verify_q_consistency", None),
    ("spin", "QuadraticForm.count_admissible", "spin.count_admissible", None),
    ("spin", "canonical_q", "spin.canonical_q", None),
    ("relations", "evaluate_word_z", "relations.evaluate_word_z", _word_extra),
    ("relations", "verify_hyperelliptic_word", "relations.verify_hyperelliptic_word", None),
    ("symplectic", "full_symplectic_closure", _FULL, None),
    ("symplectic", "closure", _closure_name, _closure_extra),
    ("symplectic", "_filter_preserves_q", "symplectic.stabilizer", None),
    ("symplectic", "q_stabilizer_bruteforce", "symplectic.stabilizer", None),
    ("symplectic", "verify_transvection_generation", "symplectic.verify_transvection_generation", None),
    ("symplectic", "q_orbit_partition", "symplectic.q_orbit_partition", None),
    ("symplectic", "verify_arf_classification", "symplectic.verify_arf_classification", None),
    ("cli", "main", "cli.main", None),
    ("cli", "build_classify_report", "cli.command", None),
    ("cli", "build_qtable_report", "cli.command", None),
    ("cli", "build_segments_report", "cli.command", None),
    ("cli", "run_verify", "cli.command", None),
)


def install() -> None:
    """Wrap every target and rebind it wherever ``spincycles`` holds it."""
    import importlib

    for layer in ("polygon", "homology", "spin", "symplectic", "relations", "cli"):
        importlib.import_module(f"spincycles.{layer}")
    modules = [m for n, m in sys.modules.items() if n == "spincycles" or n.startswith("spincycles.")]
    for layer, attr, name, extra in TARGETS:
        mod = sys.modules[f"spincycles.{layer}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, _wrap(getattr(cls, meth), name, extra))
            continue
        original = getattr(mod, attr)
        wrapper = _wrap(original, name, extra)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)


def dump(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(SPANS, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# aggregation, in the benchmark process

PER_LAYER = (
    ("polygon.interior_data.calls", "count"),
    ("polygon.interior_data.self_s", "s"),
    ("polygon.lattice_points.self_s", "s"),
    ("polygon.enumerate_segments.self_s", "s"),
    ("polygon.enumerate_segments.pairs", "count"),
    ("polygon.enumerate_segments.useful_ratio", "ratio"),
    ("polygon.classify_regime.self_s", "s"),
    ("homology.build_model.self_s", "s"),
    ("homology.forest.self_s", "s"),
    ("homology.validate_forest.self_s", "s"),
    ("homology.segment_class.calls", "count"),
    ("homology.segment_class.self_s", "s"),
    ("spin.eval.calls", "count"),
    ("spin.eval.self_s", "s"),
    ("spin.verify_q_consistency.self_s", "s"),
    ("spin.count_admissible.self_s", "s"),
    ("spin.canonical_q.self_s", "s"),
    ("relations.evaluate_word_z.calls", "count"),
    ("relations.evaluate_word_z.letters", "count"),
    ("relations.evaluate_word_z.self_s", "s"),
    ("relations.verify_hyperelliptic_word.self_s", "s"),
    *(
        (f"symplectic.{kind}.{m}", unit)
        for kind in ("closure_full", "closure_admissible")
        for m, unit in (
            ("self_s", "s"), ("order", "count"), ("generators", "count"),
            ("candidates", "count"), ("useful_ratio", "ratio"), ("candidate_bytes", "bytes"),
        )
    ),
    ("symplectic.stabilizer.self_s", "s"),
    ("symplectic.q_orbit_partition.self_s", "s"),
    ("symplectic.verify_arf_classification.self_s", "s"),
    ("symplectic.full_cache.hits", "count"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.import.numpy_s", "s"),
    ("cli.import.spincycles_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(span_lists: list[list]) -> dict[str, float]:
    """Per-layer totals over the spans of every traced process of a run.

    Counts and self times are summed over all spans of a name.  Closure
    order and generators are summed over closures; candidates are
    order x generators per closure (each element is multiplied by every
    generator once), summed, and stored as 8-byte packed matrices.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    sums: dict[str, float] = {}
    hits = 0
    for spans in span_lists:
        child = [0.0] * len(spans)
        has_closure = set()
        for name, start, end, parent, _job, _extra in spans:
            if parent >= 0:
                child[parent] += end - start
                if name == "symplectic.closure_full":
                    has_closure.add(parent)
        for i, (name, start, end, _parent, _job, extra) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            if name == _FULL and i not in has_closure:
                hits += 1
            if extra:
                if name.startswith("symplectic.closure_"):
                    extra = dict(extra, candidates=extra["order"] * extra["generators"],
                                 useful=extra["order"] - 1)
                for key, value in extra.items():
                    sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "polygon.interior_data.calls": calls.get("polygon.interior_data", 0),
        "homology.segment_class.calls": calls.get("homology.segment_class", 0),
        "spin.eval.calls": calls.get("spin.eval", 0),
        "relations.evaluate_word_z.calls": calls.get("relations.evaluate_word_z", 0),
        "relations.evaluate_word_z.letters": sums.get("relations.evaluate_word_z.letters", 0),
        "polygon.enumerate_segments.pairs": sums.get("polygon.enumerate_segments.pairs", 0),
        "polygon.enumerate_segments.useful_ratio": ratio(
            sums.get("polygon.enumerate_segments.found", 0),
            sums.get("polygon.enumerate_segments.pairs", 0),
        ),
        "symplectic.full_cache.hits": hits,
        "cli.self_s": self_s.get("cli.main", 0.0),
    }
    for name, _unit in PER_LAYER:
        stem, _, metric = name.rpartition(".")
        if metric == "self_s" and name not in out:
            out[name] = self_s.get(stem, 0.0)
    for kind in ("closure_full", "closure_admissible"):
        stem = f"symplectic.{kind}"
        cand = sums.get(f"{stem}.candidates", 0)
        out[f"{stem}.order"] = sums.get(f"{stem}.order", 0)
        out[f"{stem}.generators"] = sums.get(f"{stem}.generators", 0)
        out[f"{stem}.candidates"] = cand
        out[f"{stem}.useful_ratio"] = ratio(sums.get(f"{stem}.useful", 0), cand)
        out[f"{stem}.candidate_bytes"] = 8 * cand
    return out
