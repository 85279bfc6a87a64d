"""Acceptance criteria, one test per criterion.

Each criterion asserts its exact expected values (with an in-file
brute-force oracle where one is called for) inside its stated time budget
and prints one PASS line; run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they go by.
"""

from __future__ import annotations

import json
import time
from functools import partial

from spincycles import corpus, symplectic
from spincycles.homology import build_model
from spincycles.polygon import (
    classify_onedim,
    classify_regime,
    interior_data,
)
from spincycles.relations import (
    verify_chain_relation_homology,
    verify_chrel2_derivation,
    verify_hyperelliptic_word,
)
from spincycles.spin import canonical_q, standard_form, verify_q_consistency
from spincycles.symplectic import (
    preserves_q,
    q_orbit_partition,
    transvection_f2,
    verify_arf_classification,
    verify_transvection_generation,
)

from conftest import brute_q, polygon_from, sp_order


def _report(number: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) - {detail}")


def test_criterion_1_polygon_invariants():
    start = time.time()
    expected = {
        # name: (genus, dimension, root_order, regime)
        "quintic": (6, 2, 2, "spin"),
        "d7": (15, 2, 4, "algebraic_even"),
        "rect_4x2": (3, 1, None, "hyperelliptic"),
        "square_3x3": (4, 2, 1, "unobstructed"),
        "trapezoid_g2": (2, 1, None, "hyperelliptic"),
        "trapezoid_g2_cut": (2, 1, None, "hyperelliptic"),
        "triangle_d3": (1, 0, None, "dim0"),
    }
    hirzebruch = {
        "rect_4x2": (0, 4, "isomorphism"),
        "trapezoid_g2": (1, 2, "isomorphism"),
        "trapezoid_g2_cut": (1, 2, "one_blowup"),
    }
    for name, (genus, dim, root, regime) in expected.items():
        p = corpus.load(name)
        d = interior_data(p)
        assert (d.genus, d.dimension, d.root_order) == (genus, dim, root), name
        assert classify_regime(p) == regime, name
    for name, (alpha, n, case) in hirzebruch.items():
        h = classify_onedim(corpus.load(name))
        assert (h.alpha, h.n, h.case) == (alpha, n, case), name
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, elapsed, f"{len(expected)} corpus polygons classified exactly")


def test_criterion_2_spin_form():
    start = time.time()
    d5 = corpus.load("quintic")
    m = build_model(d5)
    q = canonical_q(d5)
    assert q.q_a == (1,) * 6
    even = {(1, 1), (1, 3), (3, 1)}
    assert q.q_b == tuple(1 if v in even else 0 for v in m.points)
    assert q.arf() == 1
    # oracle: recount admissible classes from the defining identity
    brute = sum(
        1
        for bits in range(1, 1 << 12)
        if brute_q(q.q_a, q.q_b, bits) == 1
    )
    assert q.count_admissible() == brute == 2080
    d7 = corpus.load("d7")
    assert canonical_q(d7).arf() == 0
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(2, elapsed, "quintic q-table, Arf 1, 2080 admissible; degree-7 Arf 0")


def test_criterion_3_q_consistency():
    start = time.time()
    for name in ("quintic", "d7"):
        r = verify_q_consistency(corpus.load(name))
        assert r["pass"], (name, r)
        assert r["forests"] >= 3
        assert r["forest_independent"] and r["parity_rule_holds"]
        assert r["vertex_bridges_admissible"]
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(3, elapsed, "segment parity rule + invariance over 3 forests")


def test_criterion_4_admissibility_criterion():
    start = time.time()
    checked = 0
    for g in (2, 3):
        for arf in (0, 1):
            q = standard_form(g, arf)
            for bits in range(1 << (2 * g)):
                t = transvection_f2(g, bits)
                expected = bits == 0 or q.eval_bits(bits) == 1
                assert preserves_q(t, q) is expected
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(4, elapsed, f"transvection admissibility iff q=1, {checked} classes")


def test_criterion_5_generation():
    start = time.time()
    for arf in (0, 1):
        r = verify_transvection_generation(standard_form(3, arf))
        assert r["full_group_order"] == sp_order(3) == 1451520
        assert r["verdict"] == "equal", r
        assert r["closure_order"] == r["stabilizer_order"]
    recorded = {}
    for arf in (0, 1):
        r = verify_transvection_generation(standard_form(2, arf))
        recorded[arf] = (r["verdict"], r["closure_order"], r["stabilizer_order"])
        assert r["closure_is_subset"]
    assert recorded[1][2] == 120 and recorded[0][2] == 72
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(
        5,
        elapsed,
        f"g=3 closures equal stabilizers in Sp(6,F2)=1451520; "
        f"g=2 recorded {recorded}",
    )


def test_criterion_6_arf_classification():
    start = time.time()
    for g in (1, 2, 3):
        r = verify_arf_classification(g)
        assert r["two_orbits"], r
        assert r["partition_ok"] and r["arf_constant_on_orbits"]
        sizes = {o["arf"]: o["size"] for o in r["orbits"]}
        assert sizes[0] + sizes[1] == 1 << (2 * g)
        assert sizes[0] == (1 << (g - 1)) * ((1 << g) + 1)
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(6, elapsed, "form orbits = Arf classes, sizes partition 2^(2g), g<=3")


def test_criterion_7_transitivity():
    start = time.time()
    for g in (1, 2, 3):
        for arf in (0, 1):
            r = q_orbit_partition(standard_form(g, arf))
            assert r["matches_expected_partition"], r
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(7, elapsed, "stabilizer orbits on nonzero classes = q-levels, g<=3")


def test_criterion_8_hyperelliptic_word():
    start = time.time()
    for name in ("rect_4x2", "trapezoid_g2"):
        r = verify_hyperelliptic_word(corpus.load(name))
        assert r["is_minus_identity"] and r["flip_invariant"], (name, r)
    genera = []
    for g in range(2, 7):
        p = polygon_from([(0, 0), (g + 1, 0), (g + 1, 2), (0, 2)])
        r = verify_hyperelliptic_word(p)
        assert r["genus"] == g
        assert r["is_minus_identity"] and r["flip_invariant"], r
        genera.append(g)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(8, elapsed, f"chain word acts as -I, flip-invariant, genera {genera}")


def test_criterion_9_chain_relation():
    start = time.time()
    r = verify_chain_relation_homology(2)
    assert r["identity_holds"] and r["mod2_consistent"], r
    assert r["flip_invariant"] and r["bounding_pair_identity"]
    t = verify_chrel2_derivation()
    assert len(t["steps"]) == 5
    assert t["all_lines_match"] and t["sound"] and t["reversible"]
    assert t["final_word"] == "b^2 a b^2 c b^2 a b^2 c"
    elapsed = time.time() - start
    _report(9, elapsed, "chain relation over Z + 5-step rewriting replay")


def test_criterion_10_determinism(monkeypatch):
    start = time.time()
    forms = [standard_form(3, arf) for arf in (0, 1)]
    calls = [
        *(partial(verify_transvection_generation, q) for q in forms),
        partial(verify_arf_classification, 3),
        *(partial(q_orbit_partition, q) for q in forms),
    ]

    def transcript(order):
        results = {i: calls[i]() for i in order}
        return json.dumps([results[i] for i in range(len(calls))], indent=2)

    forward = range(len(calls))
    monkeypatch.setattr(symplectic, "_BASES", {})
    cold = transcript(forward)
    warm = transcript(forward)
    monkeypatch.setattr(symplectic, "_BASES", {})
    reverse = transcript(reversed(forward))
    assert cold == warm == reverse
    elapsed = time.time() - start
    _report(10, elapsed, "criteria 5-7 transcripts byte-identical, cold, warm, reversed")
