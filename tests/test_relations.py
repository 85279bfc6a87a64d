from __future__ import annotations

import random
import time

import numpy as np
import pytest

from spincycles.homology import build_model
from spincycles.polygon import RegimeError
from spincycles.relations import (
    CurveSystem,
    RuleError,
    TwistWord,
    chain_instance,
    chrel2_system,
    evaluate_word_z,
    rewrite_step,
    verify_chain_relation_homology,
    verify_chrel2_derivation,
    verify_hyperelliptic_word,
)
from spincycles.spin import canonical_q

from conftest import (
    mat_f2_from_z,
    polygon_from,
    symplectic_form_z,
    transvection_z,
    transvection_z_power,
)


def simple_system():
    return CurveSystem(
        ["a", "b", "c"],
        {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 0},
    )


class TestTwistWord:
    def test_normalize_merges_runs(self):
        w = TwistWord((("b", 1), ("b", 1), ("a", 1), ("a", -1), ("c", 2)))
        assert str(w.normalized()) == "b^2 c^2"

    def test_inverse(self):
        # a word followed by its inverse cancels to the empty word
        w = TwistWord((("a", 1), ("b", -2), ("b", 2), ("a", -1)))
        assert str(w.normalized()) == "1"

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            TwistWord((("a", 0),))


class TestRewrite:
    def test_braid(self):
        sys = simple_system()
        w = TwistWord.from_names(["a", "b", "a"])
        assert str(rewrite_step(sys, w, "braid", 0)) == "b a b"

    def test_commute(self):
        sys = simple_system()
        w = TwistWord.from_names(["a", "c"])
        assert str(rewrite_step(sys, w, "commute", 0)) == "c a"

    def test_braid_needs_intersection_one(self):
        sys = simple_system()
        w = TwistWord.from_names(["a", "c", "a"])
        with pytest.raises(RuleError):
            rewrite_step(sys, w, "braid", 0)

    def test_commute_needs_intersection_zero(self):
        sys = simple_system()
        w = TwistWord.from_names(["a", "b"])
        with pytest.raises(RuleError):
            rewrite_step(sys, w, "commute", 0)

    def test_insert_cancel_round_trip(self):
        sys = simple_system()
        w = TwistWord.from_names(["a", "c"])
        w2 = rewrite_step(sys, w, "conjugate_insert", 1, curve="b")
        assert str(w2) == "a b b^-1 c"
        assert rewrite_step(sys, w2, "cancel", 1) == w

    def test_cancel_requires_inverse_pair(self):
        sys = simple_system()
        w = TwistWord.from_names(["a", "c"])
        with pytest.raises(RuleError):
            rewrite_step(sys, w, "cancel", 0)

    def test_bad_positions(self):
        sys = simple_system()
        w = TwistWord.from_names(["a", "b"])
        with pytest.raises(RuleError):
            rewrite_step(sys, w, "braid", 1)
        with pytest.raises(RuleError):
            rewrite_step(sys, w, "commute", 5)

    def test_rewrites_preserve_evaluation(self):
        cls = chain_instance(2)
        sys = chrel2_system()
        w = TwistWord.from_names(["a", "b", "a", "c"])
        val = evaluate_word_z(w, cls)
        w2 = rewrite_step(sys, w, "braid", 0)
        assert np.array_equal(evaluate_word_z(w2, cls), val)
        w3 = rewrite_step(sys, w2, "conjugate_insert", 2, curve="b")
        assert np.array_equal(evaluate_word_z(w3, cls), val)


class TestEvaluate:
    def test_empty_word(self):
        out = evaluate_word_z(TwistWord(()), {"c": (1, 0, 0, 0)})
        assert np.array_equal(out, np.eye(4, dtype=np.int64))

    def test_cancelling_pair(self):
        cls = {"c": (1, 0, 0, 0)}
        w = TwistWord((("c", 1), ("c", -1)))
        assert np.array_equal(evaluate_word_z(w, cls), np.eye(4, dtype=np.int64))

    def test_elliptic_relation(self):
        # (t_a t_b)^6 = identity on the genus-1 lattice
        cls = {"a": (1, 0), "b": (0, 1)}
        w = TwistWord.from_names(["a", "b"] * 6)
        assert np.array_equal(evaluate_word_z(w, cls), np.eye(2, dtype=np.int64))

    def test_letter_order_convention(self):
        # leftmost letter acts last: word "a b" evaluates to T_a @ T_b
        cls = {"a": (1, 0), "b": (0, 1)}
        ta = transvection_z(cls["a"])
        tb = transvection_z(cls["b"])
        w = TwistWord.from_names(["a", "b"])
        assert np.array_equal(evaluate_word_z(w, cls), ta @ tb)
        assert not np.array_equal(ta @ tb, tb @ ta)

    def test_missing_class(self):
        with pytest.raises(ValueError):
            evaluate_word_z(TwistWord.from_names(["x"]), {})

    def test_exact_past_int64(self):
        # entries past 2^63 stay exact, against dense powers over Python ints
        cls = {"a": (1, 0), "b": (0, 1)}
        out = evaluate_word_z(TwistWord((("a", 2**40), ("b", 2**40))), cls)
        assert out[0][0] == 1 - 2**80
        rng = random.Random(19)
        largest = 0
        for g in (1, 2, 3):
            cls = {
                f"c{k}": tuple(rng.randint(-2, 2) for _ in range(2 * g))
                for k in range(3)
            }
            for _ in range(5):
                word = TwistWord(
                    tuple(
                        (rng.choice(list(cls)), rng.choice((-1, 1)) * 2 ** rng.randint(20, 40))
                        for _ in range(rng.randint(2, 6))
                    )
                )
                dense = np.eye(2 * g, dtype=np.int64).astype(object)
                for name, exp in word.letters:
                    dense = dense @ transvection_z_power(cls[name], exp).astype(object)
                assert evaluate_word_z(word, cls) == dense.tolist(), str(word)
                largest = max(largest, max(abs(x) for row in dense.tolist() for x in row))
        assert largest > 2**63

    def test_matches_dense_product(self):
        # rank-1 updates against the left-to-right product of dense powers
        rng = random.Random(11)
        for g in (2, 3, 4):
            cls = {
                f"c{k}": tuple(rng.randint(-2, 2) for _ in range(2 * g))
                for k in range(4)
            }
            for _ in range(10):
                word = TwistWord(
                    tuple(
                        (rng.choice(list(cls)), rng.choice((-3, -2, -1, 1, 2, 3)))
                        for _ in range(rng.randrange(1, 12))
                    )
                )
                for sign in (1, -1):
                    dense = np.eye(2 * g, dtype=np.int64)
                    for name, exp in word.letters:
                        dense = dense @ transvection_z_power(cls[name], exp, sign)
                    assert np.array_equal(evaluate_word_z(word, cls, sign), dense)

    def test_empty_word_needs_genus(self):
        with pytest.raises(ValueError):
            evaluate_word_z(TwistWord(()), {})

    def test_bad_sign(self):
        cls = {"a": (1, 0)}
        for sign in (0, 2, -2):
            with pytest.raises(ValueError):
                evaluate_word_z(TwistWord.from_names(["a"]), cls, sign)


class TestChainRelation:
    def test_g2_and_g3(self):
        for g in (2, 3):
            r = verify_chain_relation_homology(g)
            assert r["pass"], r
            assert r["identity_holds"]
            assert r["mod2_consistent"]
            assert r["flip_invariant"]
            assert r["bounding_pair_identity"]

    def test_homology_shadow_is_blind_to_torelli(self):
        # ROADMAP item 4 pins this blind spot: integral homology is fixed by
        # the Torelli group, so the false relation (t_a t_b)^6 = 1 of
        # Mod(Sigma_2) and the bounding-pair map t_alpha t_beta^-1 both
        # evaluate to the identity; a faithful braid check is to reject them
        cls = chain_instance(2)
        identity = evaluate_word_z(TwistWord(()), cls)
        assert evaluate_word_z(TwistWord.from_names(["a", "b"] * 6), cls) == identity
        assert evaluate_word_z(TwistWord((("alpha", 1), ("beta", -1))), cls) == identity
        assert verify_chain_relation_homology(2)["bounding_pair_identity"]

    def test_instance_intersection_pattern(self):
        for g in (2, 3):
            cls = chain_instance(g)
            assert all(len(c) == 2 * g for c in cls.values())
            a, b, c = (np.array(cls[k]) for k in "abc")
            j = symplectic_form_z(g)
            assert abs(a @ j @ b) == 1
            assert abs(b @ j @ c) == 1
            assert a @ j @ c == 0
            assert cls["alpha"] == cls["beta"] == tuple(a + c)

    def test_needs_genus_two(self):
        with pytest.raises(ValueError):
            verify_chain_relation_homology(1)

    def test_square_of_twist_trivial_mod2(self, d5):
        # twists along q = 0 classes still square to the identity mod 2
        m = build_model(d5)
        q = canonical_q(d5)
        d = m.b_class((2, 1))
        assert q.eval_bits(d) == 0
        lift = tuple((d >> k) & 1 for k in range(12))
        t2 = transvection_z(lift) @ transvection_z(lift)
        assert mat_f2_from_z(t2) == mat_f2_from_z(np.eye(12, dtype=np.int64))


class TestChrel2:
    def test_replay(self):
        t = verify_chrel2_derivation()
        assert t["pass"], t
        assert len(t["steps"]) == 5
        assert t["final_word"] == "b^2 a b^2 c b^2 a b^2 c"
        assert t["all_lines_match"]
        assert t["sound"]
        assert t["reversible"]

    def test_every_line_sound(self):
        t = verify_chrel2_derivation()
        for step in t["steps"]:
            assert step["sound"] is True
            assert step["matches_expected_line"] is True

    def test_perturbed_system_fails(self):
        # the same system, except that a and c now meet once
        sys = chrel2_system()
        perturbed = CurveSystem(
            sys.curves, {**sys.intersections, frozenset("ac"): 1}, sys.classes
        )
        with pytest.raises(RuleError):
            verify_chrel2_derivation(perturbed)

    def test_system_without_classes_refused(self):
        # soundness is only claimed for lines that were evaluated
        sys = chrel2_system()
        bare = CurveSystem(sys.curves, sys.intersections)
        with pytest.raises(ValueError, match="needs homology classes for the curves a, b, c"):
            verify_chrel2_derivation(bare)

    def test_transcript_serializes(self):
        import json

        t = verify_chrel2_derivation()
        blob = json.dumps(t)
        assert json.loads(blob) == t


class TestHyperellipticWord:
    def test_corpus_polygons(self, rect_4x2, trapezoid_g2, trapezoid_g2_cut):
        for p in (rect_4x2, trapezoid_g2, trapezoid_g2_cut):
            r = verify_hyperelliptic_word(p)
            assert r["pass"], r
            assert r["is_minus_identity"] and r["flip_invariant"]

    def test_rectangles_up_to_g6(self):
        for g in range(2, 7):
            p = polygon_from([(0, 0), (g + 1, 0), (g + 1, 2), (0, 2)])
            r = verify_hyperelliptic_word(p)
            assert r["genus"] == g
            assert r["word_length"] == 2 * (2 * g + 1)
            assert r["pass"], r

    def test_wrong_regime(self, d5):
        with pytest.raises(RegimeError):
            verify_hyperelliptic_word(d5)

    def test_genus_300_strip_is_fast(self):
        # the largest strip MAX_MODEL_GENUS admits: sparse letters keep the
        # chain word quadratic in the genus
        p = polygon_from([(0, 0), (301, 0), (301, 2), (0, 2)])
        start = time.perf_counter()
        r = verify_hyperelliptic_word(p)
        elapsed = time.perf_counter() - start
        assert r["genus"] == 300 and r["pass"], r
        assert elapsed < 2.0, elapsed

    def test_genus_100_strip_is_fast(self):
        p = polygon_from([(0, 0), (101, 0), (101, 2), (0, 2)])
        start = time.perf_counter()
        r = verify_hyperelliptic_word(p)
        elapsed = time.perf_counter() - start
        assert r["genus"] == 100 and r["pass"], r
        assert elapsed < 2.0, elapsed

    def test_random_strip_polygons(self):
        from spincycles.polygon import classify_regime

        from conftest import random_smooth_polygon

        rng = random.Random(77)
        hits = 0
        tried = 0
        while tried < 400 and hits < 12:
            p = random_smooth_polygon(rng)
            tried += 1
            if p is None or classify_regime(p) != "hyperelliptic":
                continue
            hits += 1
            r = verify_hyperelliptic_word(p)
            assert r["pass"], (p.vertices, r)
        assert hits >= 5
