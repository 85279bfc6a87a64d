"""Command-line front end.

Subcommands::

    spincycles classify <file>
    spincycles qtable   <file>
    spincycles segments <file> [--bridges]
    spincycles verify <suite> [<file>] [--genus G] [--arf A] [--cap N]
                      [--parts P] [--json] [--out FILE]

Suites: generation, hyperelliptic-word, chain-relation, chrel2,
q-consistency, all.  Exit codes: 0 pass, 1 verification failure, 2 input
error, 3 suite/operation inapplicable, 4 resource cap exhausted (a closure
over its element cap, or an input over a ``polygon`` budget: box points,
segment pairs, or model or ``--genus`` genus).  SPINCYCLES_CAP overrides
the default closure cap; a cap or ``--parts`` below 1 is an input error.
Output is human-readable by default; ``--json`` switches to the JSON
schemas, and ``--out`` always writes the JSON transcript.  Transcripts are
byte-identical across runs and across ``--parts`` settings.
"""

from __future__ import annotations

import argparse
import json
import sys

from .homology import build_model
from .polygon import (
    SPIN_REGIMES,
    REGIME_HYPERELLIPTIC,
    LatticePolygon,
    PolygonError,
    PolygonTooLargeError,
    RegimeError,
    classify_onedim,
    classify_regime,
    enumerate_segments,
    even_points,
    interior_data,
    parse_polygon,
)
from .spin import canonical_q, standard_form, verify_q_consistency

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INAPPLICABLE = 3
EXIT_CAP = 4

SUITES = (
    "generation",
    "hyperelliptic-word",
    "chain-relation",
    "chrel2",
    "q-consistency",
    "all",
)


def _load_polygon(path: str) -> LatticePolygon:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_polygon(fh.read())


def build_classify_report(p: LatticePolygon) -> dict:
    regime = classify_regime(p)
    d = interior_data(p)
    report = {
        "polygon": [list(v) for v in p.vertices],
        "regime": regime,
        "genus": d.genus,
        "dimension": d.dimension,
        "root_order": d.root_order,
    }
    if regime in SPIN_REGIMES:
        q = canonical_q(build_model(p))
        report["arf"] = q.arf()
        report["even_points"] = [
            list(pt) for pt, even in sorted(even_points(p).items()) if even
        ]
    if regime == REGIME_HYPERELLIPTIC:
        h = classify_onedim(p)
        report["hirzebruch"] = {"alpha": h.alpha, "n": h.n, "case": h.case}
    return report


def build_qtable_report(p: LatticePolygon) -> dict:
    q = canonical_q(build_model(p))  # raises RegimeError outside spin regimes
    report = q.to_json_dict()
    report["even_points"] = [
        list(pt) for pt, even in sorted(even_points(p).items()) if even
    ]
    report["admissible_count"] = q.count_admissible()
    return report


def build_segments_report(p: LatticePolygon, bridges_only: bool) -> dict:
    segs = enumerate_segments(p)
    if bridges_only:
        segs = [s for s in segs if s.is_bridge]
    return {
        "polygon": [list(v) for v in p.vertices],
        "count": len(segs),
        "bridges_only": bridges_only,
        "segments": [
            {"endpoints": [list(s.endpoints[0]), list(s.endpoints[1])],
             "is_bridge": s.is_bridge}
            for s in segs
        ],
    }


def _generation_transcript(genus: int, arf: int, cap, parts) -> dict:
    from .symplectic import MAX_FULL_GROUP_GENUS, verify_transvection_generation

    if genus > MAX_FULL_GROUP_GENUS:
        raise RegimeError(
            f"generation suite enumerates full groups only for genus <= "
            f"{MAX_FULL_GROUP_GENUS}"
        )
    q = standard_form(genus, arf)
    result = verify_transvection_generation(q, cap, parts)
    # equality is asserted only where full-group generation is expected
    result["asserted"] = genus >= 3
    result["pass"] = (
        result["verdict"] == "equal" if genus >= 3 else result["closure_is_subset"]
    )
    result["suite"] = "generation"
    return result


def run_suite(
    suite: str,
    p: LatticePolygon | None,
    genus: int | None,
    arf: int | None,
    cap: int | None,
    parts: int,
) -> dict:
    from .relations import (
        verify_chain_relation_homology,
        verify_chrel2_derivation,
        verify_hyperelliptic_word,
    )

    if suite == "generation":
        if genus is None or arf is None:
            raise RegimeError("generation needs --genus and --arf")
        return _generation_transcript(genus, arf, cap, parts)
    if suite == "hyperelliptic-word":
        if p is None:
            raise RegimeError("hyperelliptic-word needs a polygon file")
        return verify_hyperelliptic_word(p)
    if suite == "chain-relation":
        return verify_chain_relation_homology(2 if genus is None else genus)
    if suite == "chrel2":
        return verify_chrel2_derivation()
    if suite == "q-consistency":
        if p is None:
            raise RegimeError("q-consistency needs a polygon file")
        return verify_q_consistency(p)
    raise RegimeError(f"unknown suite {suite!r}")


def run_verify(args) -> tuple[dict, int]:
    p = _load_polygon(args.file) if args.file else None
    cap = args.cap
    parts = args.parts
    if args.suite != "all":
        transcript = run_suite(args.suite, p, args.genus, args.arf, cap, parts)
        code = EXIT_OK if transcript.get("pass", True) else EXIT_VERIFICATION_FAILED
        return transcript, code
    results = []
    if p is not None:
        regime = classify_regime(p)
        if regime == REGIME_HYPERELLIPTIC:
            results.append(run_suite("hyperelliptic-word", p, None, None, cap, parts))
        if regime in SPIN_REGIMES:
            results.append(run_suite("q-consistency", p, None, None, cap, parts))
    if args.genus is not None and args.arf is not None:
        results.append(run_suite("generation", None, args.genus, args.arf, cap, parts))
    results.append(run_suite("chain-relation", None, args.genus, None, cap, parts))
    results.append(run_suite("chrel2", None, None, None, cap, parts))
    transcript = {
        "suite": "all",
        "results": results,
        "pass": all(r.get("pass", True) for r in results),
    }
    code = EXIT_OK if transcript["pass"] else EXIT_VERIFICATION_FAILED
    return transcript, code


def _emit(report: dict, as_json: bool, out: str | None) -> None:
    text = json.dumps(report, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if as_json:
        print(text)
        return
    for key, value in report.items():
        if isinstance(value, (dict, list)):
            print(f"{key}: {json.dumps(value)}")
        else:
            print(f"{key}: {value}")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spincycles",
        description=(
            "invariants of convex lattice polygons and verification suites "
            "for the homological model of curves in toric surfaces"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.add_argument("--out", help="also write the JSON transcript to a file")

    sp = sub.add_parser("classify", help="regime and combinatorial invariants")
    sp.add_argument("file")
    common(sp)

    sp = sub.add_parser("qtable", help="canonical quadratic form table")
    sp.add_argument("file")
    common(sp)

    sp = sub.add_parser("segments", help="primitive segments and bridges")
    sp.add_argument("file")
    sp.add_argument("--bridges", action="store_true", help="bridges only")
    common(sp)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=SUITES)
    sp.add_argument("file", nargs="?", help="polygon JSON file")
    sp.add_argument("--genus", type=int, help="abstract genus for group suites")
    sp.add_argument("--arf", type=int, choices=(0, 1), help="Arf invariant")
    sp.add_argument("--cap", type=int, default=None, help="closure element budget")
    sp.add_argument(
        "--parts", type=int, default=1, help="frontier chunks per BFS level, run on threads"
    )
    common(sp)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "classify":
            report = build_classify_report(_load_polygon(args.file))
            _emit(report, args.json, args.out)
            return EXIT_OK
        if args.command == "qtable":
            report = build_qtable_report(_load_polygon(args.file))
            _emit(report, args.json, args.out)
            return EXIT_OK
        if args.command == "segments":
            report = build_segments_report(_load_polygon(args.file), args.bridges)
            _emit(report, args.json, args.out)
            return EXIT_OK
        if args.command == "verify":
            from .symplectic import resolve_cap, resolve_parts

            args.cap = resolve_cap(args.cap)
            args.parts = resolve_parts(args.parts)
            transcript, code = run_verify(args)
            _emit(transcript, args.json, args.out)
            return code
    except (PolygonError, json.JSONDecodeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RegimeError as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except PolygonTooLargeError as exc:  # symplectic.CapExceededError included
        print(f"cap exhausted: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
