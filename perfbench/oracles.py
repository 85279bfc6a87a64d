"""Independent oracles for every benchmark job.

Nothing here imports the program.  Lattice points are enumerated row by
row with exact rational edge crossings and the count is checked against
Pick's theorem; regimes and root orders come from each family's closed
form (or, for the bundled corpus, from values worked out by hand); group
orders come from the classical order formulas.  Each checker returns a
list of problems, empty when the transcript is right.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from workloads import CORPUS

SPIN_REGIMES = ("spin", "algebraic_even")


# ---------------------------------------------------------------------------
# lattice geometry


def pick_counts(verts) -> tuple[int, int]:
    """(interior, boundary) lattice point counts from Pick's theorem."""
    n = len(verts)
    twice_area = abs(sum(
        verts[i][0] * verts[(i + 1) % n][1] - verts[(i + 1) % n][0] * verts[i][1]
        for i in range(n)
    ))
    boundary = sum(
        math.gcd(verts[(i + 1) % n][0] - verts[i][0], verts[(i + 1) % n][1] - verts[i][1])
        for i in range(n)
    )
    return (twice_area - boundary + 2) // 2, boundary


def _on_edge(p, u, w) -> bool:
    cross = (w[0] - u[0]) * (p[1] - u[1]) - (w[1] - u[1]) * (p[0] - u[0])
    return cross == 0 and min(u[0], w[0]) <= p[0] <= max(u[0], w[0]) and min(
        u[1], w[1]
    ) <= p[1] <= max(u[1], w[1])


def lattice_points(verts) -> tuple[list, list]:
    """(all, interior) lattice points of a convex polygon, scanned by rows.

    Each row's x-range is the intersection of the row with the polygon,
    from exact edge crossings; the counts are checked against Pick.
    """
    n = len(verts)
    ys = [v[1] for v in verts]
    pts = []
    for y in range(min(ys), max(ys) + 1):
        xs = []
        for i in range(n):
            u, w = verts[i], verts[(i + 1) % n]
            if u[1] == w[1]:
                if u[1] == y:
                    xs += [Fraction(u[0]), Fraction(w[0])]
            elif min(u[1], w[1]) <= y <= max(u[1], w[1]):
                xs.append(Fraction(u[0]) + Fraction((y - u[1]) * (w[0] - u[0]), w[1] - u[1]))
        lo, hi = math.ceil(min(xs)), math.floor(max(xs))
        pts.extend((x, y) for x in range(lo, hi + 1))
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    interior = [p for p in pts if not any(_on_edge(p, u, w) for u, w in edges)]
    i_count, b_count = pick_counts(verts)
    if len(interior) != i_count or len(pts) != i_count + b_count:
        raise AssertionError("row scan disagrees with Pick's theorem")
    return pts, interior


def primitive_pairs(pts) -> set:
    """Unordered pairs of lattice points with gcd(dx, dy) = 1, lex-ordered."""
    pts = sorted(pts)
    out = set()
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            if math.gcd(b[0] - a[0], b[1] - a[1]) == 1:
                out.add((a, b))
    return out


# ---------------------------------------------------------------------------
# expected invariants of one polygon


def polygon_facts(spec: dict, text: str) -> dict:
    """Genus, regime, root order and even points, from closed forms."""
    verts = [tuple(v) for v in json.loads(text)["vertices"]]
    genus, _ = pick_counts(verts)
    family = spec["family"]
    facts = {"vertices": verts, "genus": genus, "family": family}
    if family == "corpus":
        want_genus, regime, dim, root = CORPUS[spec["name"]]
        if want_genus != genus:
            raise AssertionError(f"corpus {spec['name']}: Pick genus {genus}")
        anchor = (1, 1)
    elif family == "triangle":
        d = spec["size"]
        if genus != (d - 1) * (d - 2) // 2:
            raise AssertionError("triangle genus formula")
        root, dim, anchor = d - 3, 2, tuple(spec["anchor"])
        regime = "spin" if root == 2 else "algebraic_even"
    elif family == "rectangle":
        a, b = spec["size"]
        if genus != (a - 1) * (b - 1):
            raise AssertionError("rectangle genus formula")
        root, dim, anchor = math.gcd(a - 2, b - 2), 2, tuple(spec["anchor"])
        regime = "spin" if root == 2 else "algebraic_even"
    elif family == "strip":
        if genus != spec["size"]:
            raise AssertionError("strip genus formula")
        root, dim, anchor, regime = None, 1, None, "hyperelliptic"
    else:
        raise ValueError(family)
    facts.update(regime=regime, dimension=dim, root_order=root)
    if regime in SPIN_REGIMES:
        pts, interior = lattice_points(verts)
        even = sorted(
            p for p in interior
            if (p[0] - anchor[0]) % 2 == 0 and (p[1] - anchor[1]) % 2 == 0
        )
        facts["interior"] = sorted(interior)
        facts["even"] = even
        facts["arf"] = len(even) % 2
    return facts


def admissible_count(genus: int, arf: int) -> int:
    """|{x : q(x) = 1}| = 2^(2g-1) - 2^(g-1) for Arf 0, + for Arf 1."""
    return (1 << (2 * genus - 1)) + (1 if arf else -1) * (1 << (genus - 1))


def sp_order(genus: int) -> int:
    """|Sp(2g, F2)| = 2^(g^2) prod_{i=1..g} (4^i - 1)."""
    order = 1 << (genus * genus)
    for i in range(1, genus + 1):
        order *= 4**i - 1
    return order


def o_order(genus: int, arf: int) -> int:
    """|O^+(2g, 2)| (Arf 0) or |O^-(2g, 2)| (Arf 1)."""
    order = 2 * (1 << (genus * (genus - 1))) * ((1 << genus) + (1 if arf else -1))
    for i in range(1, genus):
        order *= 4**i - 1
    return order


# ---------------------------------------------------------------------------
# CLI transcripts


def expected_exit(command: tuple, facts: dict | None) -> int:
    if facts is None:
        return 2  # the invalid corpus file
    regime = facts["regime"]
    if command == ("qtable",) or command == ("verify", "q-consistency"):
        return 0 if regime in SPIN_REGIMES else 3
    if command == ("verify", "hyperelliptic-word"):
        return 0 if regime == "hyperelliptic" else 3
    return 0


def _expect(problems: list, label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _check_qc(problems, doc, facts, pairs):
    _expect(problems, "suite", doc.get("suite"), "q-consistency")
    _expect(problems, "regime", doc.get("regime"), facts["regime"])
    _expect(problems, "genus", doc.get("genus"), facts["genus"])
    _expect(problems, "forests", doc.get("forests"), 3)
    _expect(problems, "segments_checked", doc.get("segments_checked"), len(pairs()))
    for key in ("forest_independent", "telescoping", "parity_rule_holds",
                "vertex_bridges_admissible", "pass"):
        _expect(problems, key, doc.get(key), True)


def _check_hyp(problems, doc, facts):
    g = facts["genus"]
    _expect(problems, "suite", doc.get("suite"), "hyperelliptic-word")
    _expect(problems, "genus", doc.get("genus"), g)
    _expect(problems, "word_length", doc.get("word_length"), 2 * (2 * g + 1))
    for key in ("is_minus_identity", "flip_invariant", "pass"):
        _expect(problems, key, doc.get(key), True)


def check_cli(command: tuple, facts: dict | None, code: int, doc, stderr: str) -> list:
    """Problems with one CLI job: exit code, then the transcript."""
    problems: list = []
    want = expected_exit(command, facts)
    if code != want:
        tail = " | ".join(stderr.strip().splitlines()[-2:])[-200:]
        return [f"exit {code}, expected {want}: {tail}"]
    if want == 2:
        return [] if stderr.startswith("input error:") else ["exit 2 without input error"]
    if want == 3:
        return [] if stderr.startswith("inapplicable:") else ["exit 3 without message"]
    if doc is None:
        return ["no JSON transcript"]

    def pairs():
        if "pairs" not in facts:
            facts["pairs"] = primitive_pairs(lattice_points(facts["vertices"])[0])
        return facts["pairs"]

    spin = facts["regime"] in SPIN_REGIMES
    if command == ("classify",):
        _expect(problems, "vertices", sorted(map(tuple, doc.get("polygon", []))),
                sorted(facts["vertices"]))
        for key in ("regime", "genus", "dimension", "root_order"):
            _expect(problems, key, doc.get(key), facts[key])
        if spin:
            _expect(problems, "arf", doc.get("arf"), facts["arf"])
            _expect(problems, "even_points", [tuple(p) for p in doc.get("even_points", [])],
                    facts["even"])
        if facts["family"] == "strip":
            _expect(problems, "hirzebruch", doc.get("hirzebruch"),
                    {"alpha": 0, "n": facts["genus"] + 1, "case": "isomorphism"})
    elif command == ("qtable",):
        g = facts["genus"]
        even = set(facts["even"])
        _expect(problems, "genus", doc.get("genus"), g)
        _expect(problems, "q_a", doc.get("q_a"), [1] * g)
        _expect(problems, "q_b", doc.get("q_b"),
                [1 if p in even else 0 for p in facts["interior"]])
        _expect(problems, "arf", doc.get("arf"), facts["arf"])
        _expect(problems, "even_points", [tuple(p) for p in doc.get("even_points", [])],
                facts["even"])
        _expect(problems, "admissible_count", doc.get("admissible_count"),
                admissible_count(g, facts["arf"]))
    elif command == ("segments",):
        got = {tuple(sorted(tuple(p) for p in s["endpoints"])) for s in doc.get("segments", [])}
        _expect(problems, "count", doc.get("count"), len(pairs()))
        _expect(problems, "bridges_only", doc.get("bridges_only"), False)
        if got != pairs():
            problems.append("segment endpoints differ from the primitive pairs")
    elif command == ("verify", "q-consistency"):
        _check_qc(problems, doc, facts, pairs)
    elif command == ("verify", "hyperelliptic-word"):
        _check_hyp(problems, doc, facts)
    elif command == ("verify", "all"):
        results = doc.get("results", [])
        suites = [r.get("suite") for r in results]
        first = []
        if facts["regime"] == "hyperelliptic":
            first = ["hyperelliptic-word"]
        elif spin:
            first = ["q-consistency"]
        _expect(problems, "suites", suites, first + ["chain-relation", "chrel2"])
        if suites == first + ["chain-relation", "chrel2"]:
            if first == ["hyperelliptic-word"]:
                _check_hyp(problems, results[0], facts)
            elif first:
                _check_qc(problems, results[0], facts, pairs)
            for r in results[len(first):]:
                _expect(problems, r.get("suite") + ".pass", r.get("pass"), True)
        _expect(problems, "pass", doc.get("pass"), True)
    else:
        problems.append(f"no oracle for {command}")
    return problems


# ---------------------------------------------------------------------------
# group transcripts


def check_generation(doc: dict, genus: int, arf: int) -> list:
    """verify_transvection_generation / ``verify generation`` transcripts.

    At genus 3 the admissible closure is the whole q-stabilizer O^±(6,2);
    at genus 2 with Arf 0 it is an index-2 subgroup of O^+(4,2).
    """
    problems: list = []
    stab = o_order(genus, arf)
    proper = genus == 2 and arf == 0
    _expect(problems, "genus", doc.get("genus"), genus)
    _expect(problems, "arf", doc.get("arf"), arf)
    _expect(problems, "full_group_order", doc.get("full_group_order"), sp_order(genus))
    _expect(problems, "stabilizer_order", doc.get("stabilizer_order"), stab)
    _expect(problems, "closure_order", doc.get("closure_order"), stab // 2 if proper else stab)
    _expect(problems, "closure_is_subset", doc.get("closure_is_subset"), True)
    _expect(problems, "verdict", doc.get("verdict"), "proper_subgroup" if proper else "equal")
    return problems


def check_orbit_partition(doc: dict, genus: int, arf: int) -> list:
    problems: list = []
    ones = admissible_count(genus, arf)
    zeros = (1 << (2 * genus)) - ones - 1
    want = sorted([(1, 0), (ones, 1), (zeros, 0)])
    got = sorted((o["size"], o["q_value"][0]) for o in doc.get("orbits", []))
    _expect(problems, "stabilizer_order", doc.get("stabilizer_order"), o_order(genus, arf))
    _expect(problems, "orbits", got, want)
    _expect(problems, "matches_expected_partition", doc.get("matches_expected_partition"), True)
    return problems


def check_arf_classification(doc: dict, genus: int) -> list:
    problems: list = []
    half = 1 << (genus - 1)
    want = [{"arf": 0, "size": half * ((1 << genus) + 1), "arf_constant": True},
            {"arf": 1, "size": half * ((1 << genus) - 1), "arf_constant": True}]
    _expect(problems, "form_count", doc.get("form_count"), 1 << (2 * genus))
    _expect(problems, "orbits", doc.get("orbits"), want)
    for key in ("partition_ok", "two_orbits", "arf_constant_on_orbits"):
        _expect(problems, key, doc.get(key), True)
    return problems
