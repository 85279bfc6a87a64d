from __future__ import annotations

import random

import numpy as np
import pytest

from spincycles.homology import build_model
from spincycles.polygon import RegimeError, enumerate_segments, interior_data
from spincycles.spin import (
    QuadraticForm,
    canonical_q,
    consistency_forests,
    standard_form,
    verify_q_consistency,
)
from spincycles.symplectic import q_values_table

from conftest import brute_q, is_symplectic_basis, pairing_f2, q_symplectic_basis


class TestCanonicalQ:
    def test_d5(self, d5):
        q = canonical_q(d5)
        assert q.q_a == (1,) * 6
        assert q.q_b == (1, 0, 1, 0, 0, 1)

    def test_d7(self, d7):
        q = canonical_q(d7)
        assert q.q_a == (1,) * 15
        assert sum(q.q_b) == 6

    def test_wrong_regime(self, square_3x3, rect_4x2):
        for p in (square_3x3, rect_4x2):
            with pytest.raises(RegimeError):
                canonical_q(p)


class TestEval:
    def test_zero(self):
        q = standard_form(3, 1)
        assert q.eval_bits(0) == 0

    def test_polarization_example(self, d5):
        q = canonical_q(d5)
        m = build_model(d5)
        x = 0b01 | m.b_class((1, 1))  # a_1 + b_1
        assert q.eval_bits(x) == 1  # 1 + 1 + <a1,b1>

    def test_segment_parity_example(self, d5):
        m = build_model(d5)
        q = canonical_q(d5)
        s = m.segment_class(((1, 1), (2, 1)))
        assert q.eval_bits(s) == 1
        d = interior_data(d5)
        assert d.is_even((1, 1)) and not d.is_even((2, 1))

    def test_brute_oracle_exhaustive_small(self):
        for g in (1, 2, 3):
            for trial in range(4):
                rng = random.Random(100 * g + trial)
                q_a = tuple(rng.randint(0, 1) for _ in range(g))
                q_b = tuple(rng.randint(0, 1) for _ in range(g))
                q = QuadraticForm(q_a, q_b)
                for bits in range(1 << (2 * g)):
                    assert q.eval_bits(bits) == brute_q(q_a, q_b, bits)

    def test_values_table_matches_eval(self, d5):
        q = canonical_q(d5)
        table = q_values_table(q)
        rng = random.Random(3)
        for _ in range(2000):
            bits = rng.randrange(1 << 12)
            assert table[bits] == q.eval_bits(bits)
        for g in (1, 2, 3):
            q = standard_form(g, 1)
            table = q_values_table(q)
            assert all(
                table[b] == q.eval_bits(b) for b in range(1 << (2 * g))
            )

    def test_polarization_identity_exhaustive(self):
        # q(x+y) = q(x) + q(y) + <x,y> over all pairs, g <= 3 (vectorized)
        for g in (1, 2, 3):
            q = standard_form(g, g % 2)
            table = np.array(q_values_table(q), dtype=np.uint8)
            n = 1 << (2 * g)
            xs = np.arange(n, dtype=np.uint64)
            ma = np.uint64(sum(1 << (2 * i) for i in range(g)))
            swapped = ((xs & ma) << np.uint64(1)) | ((xs >> np.uint64(1)) & ma)
            for ybits in range(n):
                y = np.uint64(ybits)
                pair = (np.bitwise_count(swapped & y) & np.uint64(1)).astype(np.uint8)
                lhs = table[(xs ^ y).astype(np.int64)]
                rhs = table[xs.astype(np.int64)] ^ table[ybits] ^ pair
                assert np.array_equal(lhs, rhs)

    def test_polarization_identity_random_large(self, d5):
        # >= 1e5 random pairs at genus 6
        q = canonical_q(d5)
        rng = random.Random(41)
        for _ in range(100_000):
            x = rng.randrange(1 << 12)
            y = rng.randrange(1 << 12)
            lhs = q.eval_bits(x ^ y)
            pair = pairing_f2(x, y)
            assert lhs == (q.eval_bits(x) ^ q.eval_bits(y) ^ pair)


class TestArf:
    def test_corpus_values(self, d5, d7):
        assert canonical_q(d5).arf() == 1
        assert canonical_q(d7).arf() == 0

    def test_trivial_product(self):
        assert QuadraticForm((0,), (1,)).arf() == 0

    def test_even_point_census(self, d5, d7):
        # Arf equals the number of even interior points mod 2
        from spincycles.polygon import even_points

        for p in (d5, d7):
            q = canonical_q(p)
            evens = sum(1 for e in even_points(p).values() if e)
            assert q.arf() == evens % 2

    def test_diagonalized_basis_oracle(self):
        # recompute Arf over a freshly diagonalized q-symplectic basis
        rng = random.Random(19)
        for g in (1, 2, 3, 4):
            for _ in range(10):
                q = QuadraticForm(
                    tuple(rng.randint(0, 1) for _ in range(g)),
                    tuple(rng.randint(0, 1) for _ in range(g)),
                )
                _, types = q_symplectic_basis(q)
                assert sum(types) % 2 == q.arf()

    def test_count_census_oracle(self, d5):
        # brute-force census over all classes vs count_admissible
        q5 = canonical_q(d5)
        brute = sum(
            1 for bits in range(1, 1 << 12) if q5.eval_bits(bits) == 1
        )
        assert q5.count_admissible() == brute == 2080
        for g, arf, expected in ((1, 1, 3), (1, 0, 1), (2, 1, 10), (2, 0, 6)):
            q = standard_form(g, arf)
            brute = sum(
                1 for bits in range(1, 1 << (2 * g)) if q.eval_bits(bits) == 1
            )
            assert q.count_admissible() == brute == expected

    def test_count_closed_form(self):
        # the closed form against a numpy census over all 2^(2g) classes,
        # tabulated by polarization: q(x + e_j) = q(x) + q(e_j) + <x, e_j>
        # for x < 2^j, where only e_j = b_i pairs (with a_i, bit j - 1)
        rng = random.Random(23)
        for g in range(1, 11):
            forms = [standard_form(g, arf) for arf in (0, 1)]
            forms.append(QuadraticForm(
                tuple(rng.randint(0, 1) for _ in range(g)),
                tuple(rng.randint(0, 1) for _ in range(g)),
            ))
            for q in forms:
                table = np.zeros(1 << (2 * g), dtype=np.uint8)
                for j in range(2 * g):
                    low = table[: 1 << j]
                    qe = q.q_b[j // 2] if j % 2 else q.q_a[j // 2]
                    pair = (np.arange(1 << j) >> (j - 1)) & 1 if j % 2 else 0
                    table[1 << j : 1 << (j + 1)] = low ^ qe ^ pair
                assert q.count_admissible() == int(table.sum()), (g, q)


class TestQSymplecticBasis:
    def test_standard_already_diagonal(self):
        q = standard_form(2, 1)
        basis, types = q_symplectic_basis(q)
        assert types == (1, 0)
        assert is_symplectic_basis(basis)

    def test_all_value_patterns(self):
        # every (q_a, q_b) pattern diagonalizes to types in {(1,1),(0,1)}
        for g in (1, 2, 3):
            for mask in range(1 << (2 * g)):
                q = QuadraticForm(
                    tuple((mask >> (2 * i)) & 1 for i in range(g)),
                    tuple((mask >> (2 * i + 1)) & 1 for i in range(g)),
                )
                basis, types = q_symplectic_basis(q)
                assert is_symplectic_basis(basis)
                for i, t in enumerate(types):
                    va, vb = q.eval_bits(basis[2 * i]), q.eval_bits(basis[2 * i + 1])
                    assert (va, vb) == ((1, 1) if t else (0, 1))

    def test_rejects_empty_and_malformed(self):
        assert not is_symplectic_basis([])
        a1, b1 = 0b01, 0b10
        assert not is_symplectic_basis([a1])  # too short
        assert not is_symplectic_basis([b1, b1])  # does not pair to 1
        assert not is_symplectic_basis([a1, 0b1000])  # b_2 is out of range at genus 1


class TestQConsistency:
    def test_corpus(self, d5, d7):
        for p in (d5, d7):
            r = verify_q_consistency(p)
            assert r["pass"], r
            assert r["forests"] >= 3
            assert r["parity_rule_segments"] > 0
            assert r["vertex_bridges_checked"] > 0

    def test_forest_values_agree_segment_by_segment(self, d5):
        models = [build_model(d5, f) for f in consistency_forests(d5)]
        q = canonical_q(d5)
        for a, b, _ in enumerate_segments(d5):
            vals = {q.eval_bits(m.segment_class((a, b))) for m in models}
            assert len(vals) == 1

    def test_wrong_regime(self, square_3x3):
        with pytest.raises(RegimeError):
            verify_q_consistency(square_3x3)

    def test_random_even_polygons(self):
        # the parity rule is not corpus luck: it holds across random
        # spin/algebraic_even polygons too
        from spincycles.polygon import classify_regime

        from conftest import random_smooth_polygon

        rng = random.Random(99)
        hits = 0
        tried = 0
        while tried < 600 and hits < 15:
            p = random_smooth_polygon(rng)
            tried += 1
            if p is None:
                continue
            if classify_regime(p) not in ("spin", "algebraic_even"):
                continue
            hits += 1
            r = verify_q_consistency(p)
            assert r["pass"], (p.vertices, r)
        assert hits >= 5
