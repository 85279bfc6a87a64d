"""Command-line front end.

Subcommands::

    spincycles classify <file>
    spincycles qtable   <file>
    spincycles segments <file> [--bridges]
    spincycles verify <suite> [<file>] [--genus G] [--arf A]
                      [--json] [--out FILE]

Suites: generation, hyperelliptic-word, chain-relation, chrel2,
q-consistency, all.  Exit codes: 0 pass, 1 verification failure (a
failing suite, or a verdict's failed certificate, printed as one
``verification failed:`` line), 2 input error, 3 suite/operation
inapplicable, 4 resource cap exhausted (``generation`` above genus
``MAX_CHAIN_GENUS`` = 6, or an input over a ``polygon`` budget: box
points, segment pairs, or model or ``--genus`` genus), 5 standard output
closed by its reader before the output was written (an ``--out`` file is
still written in full).  Output is
human-readable by default; ``--json`` switches to the JSON schemas, and
``--out`` always writes the JSON transcript.
Transcript text is the stdlib's ``json.dumps(report, indent=2)``, built
member by member, and human-readable text is one ``key: value`` line per
member.  In both, segment rows are the one value with their own text,
joined from fragments built once per lattice point and written 256 rows
to a chunk, so memory stays flat in the row count.  ``verify`` runs a
plan of suites (one step for a single suite) and checks every step's
refusals before the first suite runs.  A command
imports only the layers it reads: ``spin`` loads in the branches that read
a spin form, so ``segments``, non-spin ``classify`` and
``hyperelliptic-word`` start without it, and spin ``classify`` and
``qtable`` start without ``homology``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from itertools import chain, islice

from .polygon import (
    SPIN_REGIMES,
    REGIME_HYPERELLIPTIC,
    LatticePolygon,
    PolygonError,
    PolygonTooLargeError,
    RegimeError,
    SegmentRows,
    VerificationError,
    check_model_genus,
    classify_onedim,
    classify_regime,
    enumerate_segments,
    even_points,
    interior_data,
    parse_polygon,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INAPPLICABLE = 3
EXIT_CAP = 4
EXIT_OUTPUT_CLOSED = 5

#: segment rows joined into one chunk of output, about 40 KB of transcript
_ROWS_PER_CHUNK = 256

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
        from .spin import canonical_q

        q = canonical_q(p)
        report["arf"] = q.arf()
        report["even_points"] = [
            list(pt) for pt, even in sorted(even_points(p).items()) if even
        ]
    if regime == REGIME_HYPERELLIPTIC:
        h = classify_onedim(p)
        report["hirzebruch"] = {"alpha": h.alpha, "n": h.n, "case": h.case}
    return report


def build_qtable_report(p: LatticePolygon) -> dict:
    from .spin import canonical_q

    q = canonical_q(p)  # raises RegimeError outside spin regimes
    report = q.to_json_dict()
    report["even_points"] = [
        list(pt) for pt, even in sorted(even_points(p).items()) if even
    ]
    report["admissible_count"] = q.count_admissible()
    return report


def build_segments_report(p: LatticePolygon, bridges_only: bool) -> dict:
    rows = enumerate_segments(p)
    if bridges_only:
        rows = rows.bridges()
    return {
        "polygon": [list(v) for v in p.vertices],
        "count": len(rows),
        "bridges_only": bridges_only,
        "segments": rows,
    }


def _check_flags(suite: str, p: LatticePolygon | None, genus: int | None, arf: int | None) -> None:
    """Refuse a verify step before any suite runs: a polygon suite without a
    polygon, or a group suite's ``--genus`` and ``--arf``."""
    if p is None and suite in ("hyperelliptic-word", "q-consistency"):
        raise RegimeError(f"{suite} needs a polygon file")
    if suite == "generation":
        if genus is None or arf is None:
            raise RegimeError("generation needs --genus and --arf")
        if genus < 1:
            raise ValueError("generation needs --genus >= 1")
        from .symplectic import MAX_CHAIN_GENUS

        if genus > MAX_CHAIN_GENUS:  # refused before the form's tuples are built
            raise PolygonTooLargeError(
                f"generation suite builds stabilizer chains only for genus <= "
                f"MAX_CHAIN_GENUS = {MAX_CHAIN_GENUS}"
            )
    elif suite == "chain-relation" and genus is not None:
        if genus < 2:
            raise ValueError("chain-relation needs --genus >= 2")
        check_model_genus(genus)


def _generation_transcript(genus: int, arf: int) -> dict:
    from .spin import standard_form
    from .symplectic import verify_transvection_generation

    q = standard_form(genus, arf)
    result = verify_transvection_generation(q)
    # equality is asserted only where full-group generation is expected
    result["asserted"] = genus >= 3
    result["pass"] = (
        result["verdict"] == "equal" if genus >= 3 else result["closure_is_subset"]
    )
    result["suite"] = "generation"
    return result


def run_suite(
    suite: str, p: LatticePolygon | None, genus: int | None, arf: int | None
) -> dict:
    """Run one verify step, its refusals already checked by ``_check_flags``."""
    if suite == "generation":
        return _generation_transcript(genus, arf)
    if suite == "hyperelliptic-word":
        from .relations import verify_hyperelliptic_word

        return verify_hyperelliptic_word(p)
    if suite == "chain-relation":
        from .relations import verify_chain_relation_homology

        return verify_chain_relation_homology(2 if genus is None else genus)
    if suite == "chrel2":
        from .relations import verify_chrel2_derivation

        return verify_chrel2_derivation()
    if suite == "q-consistency":
        from .spin import verify_q_consistency

        return verify_q_consistency(p)
    raise RegimeError(f"unknown suite {suite!r}")


def run_verify(args) -> tuple[dict, int]:
    """Run a plan of ``(suite, p, genus, arf)`` steps, one step for a single
    suite, checking every step's refusals before the first suite runs."""
    p = _load_polygon(args.file) if args.file else None
    if args.suite != "all":
        plan = [(args.suite, p, args.genus, args.arf)]
    else:
        plan = []
        if p is not None:
            regime = classify_regime(p)
            if regime == REGIME_HYPERELLIPTIC:
                plan.append(("hyperelliptic-word", p, None, None))
            if regime in SPIN_REGIMES:
                plan.append(("q-consistency", p, None, None))
        if args.genus is not None and args.arf is not None:
            plan.append(("generation", None, args.genus, args.arf))
        plan += [("chain-relation", None, args.genus, None), ("chrel2", None, None, None)]
    for step in plan:
        _check_flags(*step)
    results = [run_suite(*step) for step in plan]
    passed = all(r.get("pass", True) for r in results)
    code = EXIT_OK if passed else EXIT_VERIFICATION_FAILED
    if args.suite == "all":
        return {"suite": "all", "results": results, "pass": passed}, code
    return results[0], code


def _row_chunks(rows: SegmentRows, as_json: bool):
    """The text of the rows' list, ``_ROWS_PER_CHUNK`` rows to a chunk, each
    row ``{"endpoints": [a, b], "is_bridge": ...}`` joined from fragments
    built once per lattice point: as ``json.dumps(report, indent=2)`` writes
    a top-level member's value (``as_json``), or as ``json.dumps`` writes
    the list on one line."""
    if as_json:
        texts = rows.join(
            lambda a: f'{{\n      "endpoints": [\n        [\n          {a[0]},\n          {a[1]}'
            f'\n        ],\n        [\n          ',
            lambda b, is_bridge: f'{b[0]},\n          {b[1]}\n        ]\n      ],'
            f'\n      "is_bridge": {"true" if is_bridge else "false"}\n    }}',
        )
        start, sep, end = "[\n    ", ",\n    ", "\n  ]"
    else:
        texts = rows.join(
            lambda a: f'{{"endpoints": [[{a[0]}, {a[1]}], [',
            lambda b, is_bridge: f'{b[0]}, {b[1]}]], '
            f'"is_bridge": {"true" if is_bridge else "false"}}}',
        )
        start, sep, end = "[", ", ", "]"
    while batch := sep.join(islice(texts, _ROWS_PER_CHUNK)):
        yield start + batch
        start = sep
    yield end if rows else "[]"


def _chunks(report: dict):
    """The text of ``json.dumps(report, indent=2)``, member by member: the
    stdlib's text of each value one level in (it escapes every newline in a
    string), but segment rows ``_ROWS_PER_CHUNK`` to a chunk."""
    if not report:
        yield "{}"
        return
    sep = "{\n  "
    for key, value in report.items():
        yield f"{sep}{json.dumps(key)}: "
        sep = ",\n  "
        if isinstance(value, SegmentRows):
            yield from _row_chunks(value, True)
        else:
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
    yield "\n}"


def _lines(report: dict):
    """The human-readable text, one ``key: value`` line per member, a dict
    or list (segment rows too, in chunks) as ``json.dumps`` writes it."""
    for key, value in report.items():
        if isinstance(value, SegmentRows):
            yield f"{key}: "
            yield from _row_chunks(value, False)
            yield "\n"
        elif isinstance(value, (dict, list)):
            yield f"{key}: {json.dumps(value)}\n"
        else:
            yield f"{key}: {value}\n"


def _write(chunks, sinks: list) -> BrokenPipeError | None:
    """Write each chunk to every sink, so no text longer than a chunk is
    held.  A closed stdout leaves the sinks, and a file still gets every
    chunk; its error is returned, to be raised once the file is complete."""
    closed = None
    for chunk in chunks:
        if not sinks:
            break
        for sink in sinks:
            try:
                sink.write(chunk)
            except BrokenPipeError as exc:
                if sink is not sys.stdout:
                    raise
                sinks.remove(sink)  # the last sink
                closed = exc
    return closed


def _emit(report: dict, as_json: bool, out: str | None) -> None:
    with open(out, "w", encoding="utf-8") if out else nullcontext() as fh:
        sinks = ([fh] if out else []) + ([sys.stdout] if as_json else [])
        closed = _write(chain(_chunks(report), ("\n",)), sinks)
    if not as_json:
        closed = _write(_lines(report), [sys.stdout])
    if closed:
        raise closed
    sys.stdout.flush()  # a closed stdout fails here, inside main, not at exit


def _parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The top-level parser and its ``verify`` subparser."""
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
    common(sp)
    return ap, sp


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    top, verify = _parser()
    if argv and argv[0] == "verify":  # intermixed, so options may precede the polygon file
        args = verify.parse_intermixed_args(argv[1:], argparse.Namespace(command="verify"))
    else:
        args = top.parse_args(argv)
    try:
        if args.command == "verify":
            report, code = run_verify(args)
        else:  # read from the module now, so a builder rebound after import is the one run
            build = globals()[f"build_{args.command}_report"]
            extra = (args.bridges,) if args.command == "segments" else ()
            report, code = build(_load_polygon(args.file), *extra), EXIT_OK
        _emit(report, args.json, args.out)
        return code
    except BrokenPipeError:
        # Python's SIGPIPE recipe: fd 1 goes to devnull so the exit flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("output closed: the reader of standard output closed it", file=sys.stderr)
        return EXIT_OUTPUT_CLOSED
    except VerificationError as exc:  # not RuntimeError: RecursionError is one
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
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


if __name__ == "__main__":
    sys.exit(main())
