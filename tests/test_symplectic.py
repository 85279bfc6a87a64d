from __future__ import annotations

import os
import random

import numpy as np
import pytest

from spincycles import symplectic
from spincycles.homology import CycleClassF2, CycleClassZ, pairing_z
from spincycles.spin import standard_form
from spincycles.symplectic import (
    MatF2,
    NotSymplecticError,
    _worker_count,
    admissible_transvections,
    all_transvections,
    chain_transvections,
    closure,
    full_symplectic_closure,
    is_symplectic_z,
    mat_f2_from_z,
    membership,
    orbit,
    preserves_q,
    q_orbit_partition,
    q_stabilizer_bruteforce,
    q_values_table,
    symplectic_form_z,
    transvection_f2,
    transvection_z,
    transvection_z_power,
    verify_arf_classification,
    verify_transvection_generation,
)

from conftest import closure_reference, sp_order


def rand_class_f2(rng, g):
    return CycleClassF2(g, rng.randrange(1 << (2 * g)))


def rand_class_z(rng, g, bound=3):
    return CycleClassZ(g, tuple(rng.randint(-bound, bound) for _ in range(2 * g)))


class TestTransvectionF2:
    def test_zero_is_identity(self):
        assert transvection_f2(CycleClassF2.zero(2)) == MatF2.identity(2)

    def test_g1_formula(self):
        t = transvection_f2(CycleClassF2.basis_a(1, 1))
        a1, b1 = CycleClassF2.basis_a(1, 1), CycleClassF2.basis_b(1, 1)
        assert t.apply(b1) == b1 + a1
        assert t.apply(a1) == a1

    def test_involution(self):
        rng = random.Random(2)
        for g in (1, 2, 3, 4):
            for _ in range(20):
                t = transvection_f2(rand_class_f2(rng, g))
                assert t @ t == MatF2.identity(g)

    def test_always_symplectic_exhaustive(self):
        for g in (1, 2, 3):
            for bits in range(1 << (2 * g)):
                assert transvection_f2(CycleClassF2(g, bits)).is_symplectic()

    def test_always_symplectic_sampled_g5(self):
        rng = random.Random(8)
        for _ in range(200):
            assert transvection_f2(rand_class_f2(rng, 5)).is_symplectic()


class TestTransvectionZ:
    def test_zero_is_identity(self):
        t = transvection_z(CycleClassZ.zero(2))
        assert np.array_equal(t, np.eye(4, dtype=np.int64))

    def test_g1_sign_convention(self):
        t = transvection_z(CycleClassZ.basis_a(1, 1))
        # b1 -> b1 - a1 under the right-handed convention
        assert list(t @ np.array([0, 1])) == [-1, 1]

    def test_preserves_form_random(self):
        rng = random.Random(3)
        for g in (1, 2, 3):
            j = symplectic_form_z(g)
            for _ in range(50):
                t = transvection_z(rand_class_z(rng, g))
                assert np.array_equal(t.T @ j @ t, j)
                assert is_symplectic_z(t)

    def test_pairing_preserved_explicitly(self):
        rng = random.Random(4)
        g = 3
        for _ in range(100):
            c = rand_class_z(rng, g)
            t = transvection_z(c)
            x, y = rand_class_z(rng, g), rand_class_z(rng, g)
            tx = CycleClassZ(g, tuple(t @ np.array(x.coords)))
            ty = CycleClassZ(g, tuple(t @ np.array(y.coords)))
            assert pairing_z(tx, ty) == pairing_z(x, y)

    def test_mod2_reduction_square(self):
        rng = random.Random(5)
        for g in (1, 2, 3):
            for _ in range(60):
                c = rand_class_z(rng, g)
                assert mat_f2_from_z(transvection_z(c)) == transvection_f2(c.mod2())

    def test_powers_and_inverse(self):
        rng = random.Random(6)
        g = 2
        for _ in range(30):
            c = rand_class_z(rng, g)
            t = transvection_z(c)
            tinv = transvection_z(c, sign=-1)
            assert np.array_equal(t @ tinv, np.eye(2 * g, dtype=np.int64))
            assert np.array_equal(transvection_z_power(c, 3), t @ t @ t)
            assert np.array_equal(transvection_z_power(c, -2), tinv @ tinv)

    def test_power_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            transvection_z_power(CycleClassZ.basis_a(1, 1), 2, sign=2)


class TestPreservesQ:
    def test_identity(self):
        assert preserves_q(MatF2.identity(2), standard_form(2, 1))

    def test_admissibility_criterion_exhaustive(self):
        # T_c preserves q iff c = 0 or q(c) = 1, over every class, g <= 3
        for g in (2, 3):
            for arf in (0, 1):
                q = standard_form(g, arf)
                for bits in range(1 << (2 * g)):
                    t = transvection_f2(CycleClassF2(g, bits))
                    expected = bits == 0 or q.eval_bits(bits) == 1
                    assert preserves_q(t, q) is expected

    def test_not_symplectic_is_error(self):
        q = standard_form(1, 1)
        bad = MatF2(2, (1, 1))  # both columns e1: degenerate
        with pytest.raises(NotSymplecticError):
            preserves_q(bad, q)

    def test_genus_mismatch(self):
        with pytest.raises(ValueError):
            preserves_q(MatF2.identity(2), standard_form(3, 0))


# transvections along a_4, b_4 and a_3 + a_4: packed keys reach bit 63
GENUS4_TOP_LANE = [
    transvection_f2(CycleClassF2(4, bits)) for bits in (1 << 6, 1 << 7, (1 << 4) | (1 << 6))
]


class TestClosure:
    def test_identity_generator(self):
        c = closure([MatF2.identity(2)])
        assert c.order == 1 and c.completed

    def test_sp2(self):
        gens = [
            transvection_f2(CycleClassF2.basis_a(1, 1)),
            transvection_f2(CycleClassF2.basis_b(1, 1)),
        ]
        c = closure(gens)
        assert c.order == sp_order(1) == 6

    def test_sp4_all_transvections(self):
        c = closure(all_transvections(2))
        assert c.order == sp_order(2) == 720

    def test_generator_order_independence(self):
        gens = all_transvections(2)
        rng = random.Random(9)
        ref = closure(gens)
        for _ in range(3):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            alt = closure(shuffled)
            assert alt.order == ref.order
            assert np.array_equal(alt.packed, ref.packed)

    def test_cap_semantics(self):
        gens = all_transvections(2)
        capped = closure(gens, cap=100)
        assert not capped.completed
        assert capped.order == closure(gens, cap=100).order  # deterministic

    def test_parts_do_not_change_result(self):
        gens = all_transvections(2)
        ref = closure(gens, parts=1)
        for parts in (4, 8):
            alt = closure(gens, parts=parts)
            assert np.array_equal(alt.packed, ref.packed)

    def test_parts_bounds(self, monkeypatch):
        with pytest.raises(ValueError):
            closure(all_transvections(1), parts=0)
        # one thread per chunk at most, and never more threads than CPUs
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert _worker_count(100_000, 100_000) == 2
        assert _worker_count(4, 1) == 1
        assert _worker_count(1, 8) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count(8, 8) == 1

    def test_engines_agree(self):
        # numpy closure vs the plain set BFS over MatF2 products in conftest
        for gens in (all_transvections(1), all_transvections(2)[:5], GENUS4_TOP_LANE):
            c = closure(gens)
            assert c.completed
            assert c.packed.dtype == np.uint64
            assert [int(v) for v in c.packed] == closure_reference(gens)

    def test_genus4_top_lane(self):
        # the widest key the engine serves: column b_4 fills bits 56..63
        c = closure(GENUS4_TOP_LANE)
        assert c.completed and c.order == 24
        assert int(c.packed[-1]) >> 63 == 1
        assert all(membership(t, c) for t in GENUS4_TOP_LANE)
        assert membership(MatF2.identity(4), c)
        assert not membership(transvection_f2(CycleClassF2.basis_a(4, 1)), c)
        capped = closure(chain_transvections(4), cap=1000)
        assert not capped.completed

    def test_rejects_non_symplectic_generator(self):
        with pytest.raises(NotSymplecticError):
            closure([MatF2(2, (1, 1))])

    def test_completed_closure_is_closed(self):
        gens = [
            transvection_f2(CycleClassF2.basis_a(1, 1)),
            transvection_f2(CycleClassF2.basis_b(1, 1)),
        ]
        c = closure(gens)
        assert c.completed
        for m in c.matrices():
            for g in gens:
                assert c.contains_packed((g @ m).packed())

    def test_rejects_genus_above_key_width(self, monkeypatch):
        # 2g = 10 does not fit a 64-bit key: refused before any table
        gens = [
            transvection_f2(CycleClassF2.basis_a(5, 1)),
            transvection_f2(CycleClassF2.basis_b(5, 1)),
        ]

        def no_tables(m):
            raise AssertionError("table built")

        monkeypatch.setattr(symplectic, "_vector_table", no_tables)
        with pytest.raises(ValueError, match="MAX_CLOSURE_GENUS = 4"):
            closure(gens)


class TestFullGroup:
    def test_chain_set(self):
        for g in (1, 2, 3):
            gens = chain_transvections(g)
            assert len(gens) == 3 * g - 1
            assert all(t.is_symplectic() for t in gens)

    def test_chain_closure_equals_all_transvections(self):
        for g in (1, 2):
            chain = closure(chain_transvections(g))
            full = closure(all_transvections(g))
            assert chain.completed and full.completed
            assert np.array_equal(chain.packed, full.packed)

    def test_g3_is_sp6(self):
        # order formula plus every transvection inside: the closure is
        # Sp(6, F2), without the all-transvection BFS
        full = full_symplectic_closure(3)
        assert full.completed and full.order == sp_order(3) == 1_451_520
        assert all(membership(t, full) for t in all_transvections(3))

    def test_cached_generators(self, monkeypatch):
        monkeypatch.setattr(symplectic, "_FULL_GROUP_CACHE", {})
        cold = full_symplectic_closure(2)
        warm = full_symplectic_closure(2)
        assert cold.generators == warm.generators == chain_transvections(2)
        assert np.array_equal(cold.packed, warm.packed)

    @pytest.mark.parametrize("g", [2, 3])
    def test_order_check_rejects_proper_subgroup(self, monkeypatch, g):
        # without b_g every generator fixes a_g: a proper subgroup
        def without_b_g(genus):
            gens = chain_transvections(genus)
            b_g = transvection_f2(CycleClassF2.basis_b(genus, genus))
            return [t for t in gens if t != b_g]

        assert len(without_b_g(g)) == 3 * g - 2
        monkeypatch.setattr(symplectic, "_FULL_GROUP_CACHE", {})
        monkeypatch.setattr(symplectic, "chain_transvections", without_b_g)
        with pytest.raises(RuntimeError, match="order"):
            full_symplectic_closure(g)
        assert symplectic._FULL_GROUP_CACHE == {}


class TestStabilizer:
    def test_orders_small(self):
        # genus 1, Arf 1: q = 1 on all three nonzero classes, so the whole
        # group of order 6 preserves it (orbit-stabilizer: the form is the
        # unique one with Arf 1)
        assert q_stabilizer_bruteforce(standard_form(1, 1)).order == 6
        assert q_stabilizer_bruteforce(standard_form(1, 0)).order == 2
        assert q_stabilizer_bruteforce(standard_form(2, 1)).order == 120
        assert q_stabilizer_bruteforce(standard_form(2, 0)).order == 72

    def test_orbit_stabilizer_consistency(self):
        # |stabilizer| * #forms-with-that-arf = |Sp(2g, F2)|
        for g in (1, 2):
            for arf in (0, 1):
                stab = q_stabilizer_bruteforce(standard_form(g, arf))
                count = (1 << (g - 1)) * ((1 << g) + (1 if arf == 0 else -1))
                assert stab.order * count == sp_order(g)

    def test_every_element_preserves_q(self):
        q = standard_form(2, 1)
        stab = q_stabilizer_bruteforce(q)
        for m in stab.matrices():
            assert preserves_q(m, q)

    def test_filter_complements(self):
        # elements outside the stabilizer all move q
        q = standard_form(2, 0)
        stab = q_stabilizer_bruteforce(q)
        full = full_symplectic_closure(2)
        moved = 0
        for m in full.matrices():
            if not stab.contains_packed(m.packed()):
                assert not preserves_q(m, q)
                moved += 1
        assert moved == full.order - stab.order


class TestGeneration:
    def test_g2_recorded(self):
        for arf, stab_order in ((1, 120), (0, 72)):
            r = verify_transvection_generation(standard_form(2, arf))
            assert r["stabilizer_order"] == stab_order
            assert r["full_group_order"] == sp_order(2)
            assert r["closure_is_subset"]
            assert r["verdict"] in ("equal", "proper_subgroup")

    def test_closure_elements_preserve_q_sampled(self):
        q = standard_form(2, 1)
        c = closure(admissible_transvections(q))
        rng = random.Random(12)
        keys = list(c.packed)
        for key in rng.sample(keys, min(200, len(keys))):
            assert preserves_q(MatF2.from_packed(4, int(key)), q)

    def test_g3_closure_preserves_q_10k_sample(self):
        # closed-under-invariant check on >= 10^4 elements of the genus-3
        # admissible closure
        q = standard_form(3, 1)
        c = closure(admissible_transvections(q))
        rng = random.Random(13)
        keys = rng.sample([int(k) for k in c.packed], 10_000)
        for key in keys:
            assert preserves_q(MatF2.from_packed(6, key), q)


class TestMembership:
    def test_identity_and_generators(self):
        gens = [
            transvection_f2(CycleClassF2.basis_a(1, 1)),
            transvection_f2(CycleClassF2.basis_b(1, 1)),
        ]
        c = closure(gens)
        assert membership(MatF2.identity(1), c)
        for g in gens:
            assert membership(g, c)

    def test_non_admissible_not_in_admissible_closure(self):
        q = standard_form(2, 1)
        c = closure(admissible_transvections(q))
        # q(a_2) = 0: its transvection moves q, so it cannot appear
        d = CycleClassF2.basis_a(2, 2)
        assert q.eval(d) == 0
        assert not membership(transvection_f2(d), c)

    def test_non_admissible_not_in_g3_closure(self):
        q = standard_form(3, 0)
        c = closure(admissible_transvections(q))
        for bits in range(1, 1 << 6):
            if q.eval_bits(bits) == 0:
                d = CycleClassF2(3, bits)
                assert not membership(transvection_f2(d), c)
                break

    def test_incomplete_closure_rejected(self):
        capped = closure(all_transvections(2), cap=10)
        with pytest.raises(ValueError):
            membership(MatF2.identity(2), capped)


class TestOrbit:
    def test_zero_fixed(self):
        gens = all_transvections(2)
        assert orbit(CycleClassF2.zero(2), gens) == {CycleClassF2.zero(2)}

    def test_admissible_orbits_when_generation_holds(self):
        # when the admissible closure is the whole stabilizer, its orbits on
        # nonzero classes are exactly the two q-levels
        q = standard_form(2, 1)
        assert verify_transvection_generation(q)["verdict"] == "equal"
        gens = admissible_transvections(q)
        table = q_values_table(q)
        ones = {CycleClassF2(2, b) for b in range(1, 16) if table[b] == 1}
        zeros = {CycleClassF2(2, b) for b in range(1, 16) if table[b] == 0}
        x1 = min(ones, key=lambda c: c.bits)
        assert orbit(x1, gens) == ones == orbit(x1, gens, parts=4)
        x0 = min(zeros, key=lambda c: c.bits)
        assert orbit(x0, gens) == zeros == orbit(x0, gens, parts=4)

    def test_admissible_closure_can_be_proper_at_g2(self):
        # genus 2, Arf 0: the admissible transvections generate an index-2
        # subgroup of the stabilizer, so the generation fact needs g >= 3
        r = verify_transvection_generation(standard_form(2, 0))
        assert r["verdict"] == "proper_subgroup"
        assert (r["closure_order"], r["stabilizer_order"]) == (36, 72)

    def test_genus_above_table_budget_rejected(self):
        # raised before any 2^(2g) table is built
        x = CycleClassF2.basis_a(7, 1)
        with pytest.raises(ValueError):
            orbit(x, [transvection_f2(x)])

    def test_orbit_partition_reports(self):
        for g in (1, 2):
            for arf in (0, 1):
                q = standard_form(g, arf)
                r = q_orbit_partition(q)
                assert r["matches_expected_partition"], r
                # ordered by smallest member: {0}, then the orbit of a_1 = 1
                assert [o["q_value"] for o in r["orbits"][:2]] == [[0], [q.eval_bits(1)]]


class TestArfClassification:
    def test_small_genera(self):
        for g in (1, 2):
            r = verify_arf_classification(g)
            assert r["two_orbits"] and r["partition_ok"]
            assert r["arf_constant_on_orbits"]
            sizes = {o["arf"]: o["size"] for o in r["orbits"]}
            assert sizes[0] == (1 << (g - 1)) * ((1 << g) + 1)
            assert sizes[1] == (1 << (g - 1)) * ((1 << g) - 1)
