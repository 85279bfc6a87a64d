from __future__ import annotations

import itertools
import os
import random
import time

import numpy as np
import pytest

from spincycles import symplectic
from spincycles.homology import CycleClassF2, CycleClassZ, pairing_z, swap_pairs
from spincycles.spin import QuadraticForm, standard_form
from spincycles.symplectic import (
    CapExceededError,
    MatF2,
    NotSymplecticError,
    _filter_preserves_q,
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

    def test_one_worker_runs_inline(self, monkeypatch):
        # a level that one worker would run starts no thread pool
        def no_pool(*_args):
            raise AssertionError("thread pool started for one worker")

        ref = closure(all_transvections(2), parts=4).packed
        monkeypatch.setattr(symplectic, "ThreadPoolExecutor", no_pool)
        assert np.array_equal(closure(all_transvections(2)).packed, ref)
        assert verify_arf_classification(2)["two_orbits"]
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert np.array_equal(closure(all_transvections(2), parts=4).packed, ref)

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

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_transversal_product_equals_bfs_oracle(self, monkeypatch, g):
        monkeypatch.setattr(symplectic, "_FULL_GROUP_CACHE", {})
        full = full_symplectic_closure(g)
        assert full.completed and not full.packed.flags.writeable
        assert np.array_equal(full.packed, closure(chain_transvections(g)).packed)

    def test_transversal_sizes(self):
        levels = symplectic._pair_transversals(3, chain_transvections(3))
        assert [len(t) for t in levels] == [2016, 120, 6]
        assert levels[0][0] == tuple(1 << j for j in range(6))

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("mutation", ["drop", "repeat"])
    def test_order_check_rejects_bad_transversal(self, monkeypatch, level, mutation):
        # one coset representative lost: dropped outright, or overwritten by
        # a copy of another, which keeps the product count but not the
        # distinct count
        real = symplectic._pair_transversals

        def mutated(genus, generators):
            levels = real(genus, generators)
            if mutation == "drop":
                del levels[level][-1]
            else:
                levels[level][-1] = levels[level][0]
            return levels

        monkeypatch.setattr(symplectic, "_FULL_GROUP_CACHE", {})
        monkeypatch.setattr(symplectic, "_pair_transversals", mutated)
        size = [2016, 120, 6][level]
        left = sp_order(3) // size * (size - 1)
        with pytest.raises(RuntimeError, match=f"order {left}, not \\|Sp\\(6, 2\\)\\| = 1451520$"):
            full_symplectic_closure(3)
        assert symplectic._FULL_GROUP_CACHE == {}

    def test_rejects_non_symplectic_generator(self, monkeypatch):
        real = chain_transvections
        monkeypatch.setattr(symplectic, "_FULL_GROUP_CACHE", {})
        monkeypatch.setattr(
            symplectic, "chain_transvections", lambda g: real(g) + [MatF2(4, (1, 2, 4, 9))]
        )
        with pytest.raises(NotSymplecticError):
            full_symplectic_closure(2)
        assert symplectic._FULL_GROUP_CACHE == {}

    def test_batched_tables_match_single(self):
        mats = list(itertools.islice(full_symplectic_closure(2).matrices(), 100, 105))
        packed = full_symplectic_closure(2).packed[::37]
        batched = symplectic._apply_table_mats(
            packed, symplectic._vector_table([m.cols for m in mats]), 4
        )
        assert batched.shape == (len(mats), packed.size)
        for row, m in zip(batched, mats):
            single = symplectic._apply_table_mats(packed, symplectic._vector_table(m.cols), 4)
            assert np.array_equal(row, single)
            assert row.tolist() == [(m @ MatF2.from_packed(4, int(k))).packed() for k in packed]

    def test_cap_matches_bfs_stop(self, monkeypatch):
        # the BFS stopped incomplete exactly when the order exceeded the cap
        monkeypatch.setattr(symplectic, "_FULL_GROUP_CACHE", {})
        for cap in (1, 100, 719, 720, 721, 10_000):
            full = full_symplectic_closure(2, cap=cap)
            assert full.completed == closure(chain_transvections(2), cap=cap).completed
            assert full.cap == cap and full.generators == chain_transvections(2)
            assert full.order == (720 if full.completed else 0)

    @pytest.mark.parametrize("cap", [100, 1_400_000, sp_order(3) - 1])
    def test_cap_refused_before_tables_or_cache(self, monkeypatch, cap):
        full_symplectic_closure(3)
        assert 3 in symplectic._FULL_GROUP_CACHE

        def fail(*_args):
            raise AssertionError("work done past the cap")

        class Tripwire(dict):
            __getitem__ = __contains__ = get = setdefault = fail

        monkeypatch.setattr(symplectic, "_vector_table", fail)
        monkeypatch.setattr(symplectic, "_pair_transversals", fail)
        cached = Tripwire(symplectic._FULL_GROUP_CACHE)
        monkeypatch.setattr(symplectic, "_FULL_GROUP_CACHE", cached)
        q = QuadraticForm((1, 1, 0), (0, 0, 1))
        with pytest.raises(CapExceededError, match=f"full group exceeded the cap of {cap}$"):
            verify_transvection_generation(q, cap=cap)
        full = full_symplectic_closure(3, cap=cap)
        assert not full.completed and full.order == 0 and full.cap == cap

    def test_cold_sp6_timed(self, monkeypatch):
        # on a 2-core Xeon the chain BFS took 1.1-1.3 s, the transversal
        # product 0.07-0.16 s
        monkeypatch.setattr(symplectic, "_FULL_GROUP_CACHE", {})
        start = time.perf_counter()
        full = full_symplectic_closure(3)
        elapsed = time.perf_counter() - start
        assert full.order == sp_order(3)
        assert elapsed < 0.75, elapsed


def all_forms(g):
    """Every quadratic form refining the genus-g pairing, in bit order."""
    for bits in itertools.product((0, 1), repeat=2 * g):
        yield QuadraticForm(bits[:g], bits[g:])


def sample_forms(rng, g, arf, count):
    """``count`` distinct forms of the given Arf, drawn with ``rng``."""
    return rng.sample([q for q in all_forms(g) if q.arf() == arf], count)


@pytest.fixture
def no_stabilizers(monkeypatch):
    """The cached groups of genus 1-3 with no base of a standard form
    cached yet."""
    groups = {g: full_symplectic_closure(g) for g in (1, 2, 3)}
    monkeypatch.setattr(
        symplectic, "_FULL_GROUP_CACHE", {g: (c.packed, {}) for g, c in groups.items()}
    )
    return groups


def cached_bases(g):
    """The per-Arf [O(q0), A0, labels0] entries cached for genus g."""
    return symplectic._FULL_GROUP_CACHE[g][1]


def level_labels(q):
    """Per class, the smallest class of its q-level, zero on its own: the
    expected O(q)-orbit labels, from q alone."""
    first = {}
    return [
        first.setdefault(-1 if x == 0 else q.eval_bits(x), x)
        for x in range(1 << (2 * q.genus))
    ]


def orbits_oracle(q, stab):
    """The orbit entries of a q-orbit transcript, from the images of every
    class under the packed matrices ``stab``, ordered by smallest member."""
    n = 2 * q.genus
    mask = np.uint64((1 << n) - 1)
    placed = set()
    orbits = []
    for x in range(1 << n):
        if x in placed:
            continue
        images = np.zeros(stab.size, dtype=np.uint64)
        for j in range(n):
            if (x >> j) & 1:
                images ^= (stab >> np.uint64(n * j)) & mask
        members = np.unique(images).tolist()
        placed.update(members)
        orbits.append({
            "q_value": sorted({q.eval_bits(y) for y in members}),
            "size": len(members),
            "contains_zero": members[0] == 0,
        })
    return orbits


def generation_oracle(q, adm, stab):
    """The generation transcript built from an admissible closure and O(q)."""
    return {
        "genus": q.genus,
        "arf": q.arf(),
        "closure_order": int(adm.size),
        "stabilizer_order": int(stab.size),
        "full_group_order": sp_order(q.genus),
        "closure_is_subset": bool(np.isin(adm, stab).all()),
        "verdict": "equal" if np.array_equal(adm, stab) else "proper_subgroup",
    }


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

    def test_warm_matches_filter_oracle(self, no_stabilizers, monkeypatch):
        # every form at genus 1 and 2 and 8 per Arf at genus 3, against the
        # brute-force filter of the whole group; the standard form of each
        # Arf is the base, and every form, the base itself included (v = 0),
        # goes through the conjugation by its own v
        conjugated = []
        conjugate = symplectic._conjugate_by_transvection

        def spy(packed, v, n):
            conjugated.append(v)
            return conjugate(packed, v, n)

        monkeypatch.setattr(symplectic, "_conjugate_by_transvection", spy)
        rng = random.Random(71)
        forms = [*all_forms(1), *all_forms(2)]
        forms += sample_forms(rng, 3, 0, 8) + sample_forms(rng, 3, 1, 8)
        for q in forms:
            stab = q_stabilizer_bruteforce(q).packed
            oracle = _filter_preserves_q(no_stabilizers[q.genus].packed, q)
            assert np.array_equal(stab, oracle), q
        for g in (1, 2, 3):
            assert sorted(cached_bases(g)) == [0, 1]
        assert len(conjugated) == len(forms) == 4 + 16 + 16
        assert conjugated == [
            swap_pairs(q.qmask ^ standard_form(q.genus, q.arf()).qmask) for q in forms
        ]

    def test_transported_orbits_match_filter_oracle(self, no_stabilizers):
        # every form at genus 1 and 2 and 4 per Arf at genus 3: the base
        # labels read through T_v against the images of every class under
        # the brute-force filter of the whole group
        rng = random.Random(77)
        forms = [*all_forms(1), *all_forms(2)]
        forms += sample_forms(rng, 3, 0, 4) + sample_forms(rng, 3, 1, 4)
        for q in forms:
            stab = _filter_preserves_q(no_stabilizers[q.genus].packed, q)
            result = q_orbit_partition(q)
            assert result["orbits"] == orbits_oracle(q, stab), q
            assert result["stabilizer_order"] == stab.size

    @pytest.mark.parametrize(
        "mutation,failure",
        [
            ("unconjugated", "q-preserving"),
            ("wrong_v", "q-preserving"),
            ("duplicate", "distinct"),
            ("outside_sp", "inside Sp"),
        ],
    )
    def test_certification_rejects_bad_conjugate(
        self, no_stabilizers, monkeypatch, mutation, failure
    ):
        q0 = standard_form(3, 0)
        # q differs from q0 on b_1, so v = a_1 and q0(v) = 0
        q = QuadraticForm((0, 0, 0), (0, 1, 1))
        assert q.arf() == q0.arf() and swap_pairs(q.qmask ^ q0.qmask) == 0b1
        q_stabilizer_bruteforce(q0)
        entry = cached_bases(3)[0]
        base = entry[0]
        kept = base.copy()
        conjugate = symplectic._conjugate_by_transvection

        def bad(packed, v, n):
            if mutation == "unconjugated":
                return np.sort(packed)
            if mutation == "wrong_v":
                # q0(b_1) = 1: T_b1 lies in O(q0), so this gives O(q0) back
                return conjugate(packed, 0b10, n)
            good = conjugate(packed, v, n)
            if mutation == "duplicate":
                return np.sort(np.concatenate([good[:-1], good[:1]]))
            # the identity with column a_1 zeroed keeps q on the basis
            # (q(0) = q(a_1) = 0) but is singular, so it is not in Sp
            singular = np.uint64(MatF2.identity(3).packed() ^ 1)
            return np.sort(np.concatenate([good[:-1], [singular]]))

        monkeypatch.setattr(symplectic, "_conjugate_by_transvection", bad)
        with pytest.raises(RuntimeError, match=f"qmask {q.qmask:#x} is not {failure}$"):
            q_stabilizer_bruteforce(q)
        if mutation in ("duplicate", "outside_sp"):
            # the base form (v = 0) is certified too; the other two
            # mutations give O(q0) back for it, which is correct
            with pytest.raises(RuntimeError, match=f"qmask {q0.qmask:#x} is not {failure}$"):
                q_stabilizer_bruteforce(q0)
        assert cached_bases(3)[0] is entry and entry[0] is base
        assert np.array_equal(base, kept) and not base.flags.writeable

    def test_cap_checked_before_cached_stabilizer(self, no_stabilizers, monkeypatch):
        q0 = standard_form(3, 1)
        q_stabilizer_bruteforce(q0)
        q = QuadraticForm((1, 1, 0), (1, 0, 0))
        assert q.arf() == 1 and q.qmask != q0.qmask

        def fail(*_args):
            raise AssertionError("cached stabilizer read past the cap")

        monkeypatch.setattr(symplectic, "_conjugate_by_transvection", fail)
        for form in (q0, q):
            with pytest.raises(CapExceededError, match="full group exceeded the cap of 100$"):
                q_stabilizer_bruteforce(form, cap=100)

    @pytest.mark.parametrize("g,per_arf", [(2, 2), (3, 1)])
    def test_warm_transcripts_equal_cold(self, no_stabilizers, g, per_arf):
        # cold: nothing cached, so the call itself filters the group for
        # the standard form and closes its admissible transvections; warm:
        # the standard form's stabilizer and then also its admissible
        # closure are cached before the call; q is conjugated from them.
        # The second warm-up finds A0 already cached when the first warm
        # call was a generation check, and adds it otherwise
        rng = random.Random(72 + g)
        for arf in (0, 1):
            base = standard_form(g, arf)
            others = [q for q in all_forms(g) if q.arf() == arf and q != base]
            for q in rng.sample(others, per_arf):
                for fn in (verify_transvection_generation, q_orbit_partition):
                    for parts in (1, 4):
                        cached_bases(g).clear()
                        cold = fn(q, parts=parts)
                        cached_bases(g).clear()
                        for warm_up in (q_stabilizer_bruteforce, verify_transvection_generation):
                            warm_up(base)
                            adm_cached = cached_bases(g)[arf][1] is not None
                            assert adm_cached == (warm_up is verify_transvection_generation)
                            assert fn(q, parts=parts) == cold

    def test_warm_g3_orbit_partitions_fast(self, no_stabilizers):
        # regression gate: 20 warm calls on distinct non-base forms took
        # about 1.2 s when each call filtered all of Sp(6, F2)
        bases = [standard_form(3, arf) for arf in (0, 1)]
        for q in bases:
            q_stabilizer_bruteforce(q)
        rng = random.Random(73)
        others = [q for q in all_forms(3) if q not in bases]
        forms = rng.sample(others, 20)
        start = time.perf_counter()
        results = [q_orbit_partition(q) for q in forms]
        elapsed = time.perf_counter() - start
        assert all(r["matches_expected_partition"] for r in results)
        assert elapsed < 1.0, f"20 warm genus-3 orbit partitions took {elapsed:.2f} s"

    def test_warm_admissible_matches_closure_oracle(self, no_stabilizers, monkeypatch):
        # every form at genus 1 and 2 and 8 per Arf at genus 3, against a
        # fresh closure of the form's own admissible transvections and the
        # filter of the whole group; the spy on closure shows one admissible
        # BFS per (genus, Arf), of the standard form, and no call conjugates
        bfs = []
        real_closure = symplectic.closure

        def spy_closure(generators, cap=None, parts=1):
            bfs.append(sorted(m.packed() for m in generators))
            return real_closure(generators, cap, parts)

        def no_conjugate(*_args):
            raise AssertionError("a verdict call conjugated a group array")

        conjugate = symplectic._conjugate_by_transvection
        monkeypatch.setattr(symplectic, "closure", spy_closure)
        monkeypatch.setattr(symplectic, "_conjugate_by_transvection", no_conjugate)
        # mixed order at genus 3: q_orbit_partition caches the stabilizers
        # first, then the first generation check of each Arf is on a
        # non-standard form
        bases = [standard_form(g, arf) for g in (1, 2, 3) for arf in (0, 1)]
        for q0 in bases[4:]:
            q_orbit_partition(q0)
        rng = random.Random(74)
        others = [q for q in all_forms(3) if q not in bases]
        forms = [*all_forms(1), *all_forms(2)]
        for arf in (0, 1):
            forms += rng.sample([q for q in others if q.arf() == arf], 8)
        for q in forms:
            result = verify_transvection_generation(q)
            oracle = real_closure(admissible_transvections(q)).packed
            stab = _filter_preserves_q(no_stabilizers[q.genus].packed, q)
            assert result == generation_oracle(q, oracle, stab), q
            # the transported verdict stands for the conjugate T_v A0 T_v
            q0 = standard_form(q.genus, q.arf())
            adm0 = cached_bases(q.genus)[q.arf()][1]
            v = swap_pairs(q.qmask ^ q0.qmask)
            assert np.array_equal(conjugate(adm0, v, 2 * q.genus), oracle), q
        assert sorted(bfs) == sorted(
            sorted(m.packed() for m in admissible_transvections(q0)) for q0 in bases
        )
        for q0 in bases:
            stab0, adm0, labels0 = cached_bases(q0.genus)[q0.arf()]
            assert not adm0.flags.writeable and not labels0.flags.writeable
            # only genus 2, Arf 0 has <adm(q0)> proper in O(q0)
            assert (adm0 is stab0) == ((q0.genus, q0.arf()) != (2, 0))

    @pytest.mark.parametrize(
        "mutation,failure",
        [
            # the ids of the per-call conjugate checks that these replace
            pytest.param("outside", "inside O(q0)", id="unconjugated-inside O(q)"),
            ("duplicate", "distinct"),
            ("not_closed", "closed"),
            pytest.param("missing_generator", "contains generators", id="generators-generators"),
        ],
    )
    def test_certification_rejects_bad_admissible_closure(
        self, no_stabilizers, monkeypatch, mutation, failure
    ):
        # genus 2, Arf 0 is the one base where A0 = <adm(q0)> (36 elements)
        # is proper in O(q0) (72 elements), so it is certified closed by
        # multiplication rather than by its order
        q0 = standard_form(2, 0)
        q = QuadraticForm((1, 0), (0, 0))
        assert q.arf() == 0 and q != q0
        q_orbit_partition(q0)
        entry = cached_bases(2)[0]
        stab0, labels0 = entry[0], entry[2]
        assert entry[1] is None and stab0.size == 72
        true_adm = closure(admissible_transvections(q0)).packed
        gens = {m.packed() for m in admissible_transvections(q0)}
        assert true_adm.size == 36
        # each mutation keeps 36 elements; swapping a non-generator of A0 for
        # an element of O(q0) outside it keeps it distinct, inside O(q0) and
        # holding adm(q0), but not closed
        in_stab = np.setdiff1d(stab0, true_adm)[:1]
        in_sp = np.setdiff1d(no_stabilizers[2].packed, stab0)[:1]
        non_gen = next(k for k in true_adm[1:] if int(k) not in gens)
        gen = next(k for k in true_adm if int(k) in gens)

        def swap(out, new):
            return np.sort(np.concatenate([true_adm[true_adm != out], new]))

        bad = {
            "outside": lambda: swap(non_gen, in_sp),
            "duplicate": lambda: np.sort(np.concatenate([true_adm[:-1], true_adm[:1]])),
            "not_closed": lambda: swap(non_gen, in_stab),
            "missing_generator": lambda: swap(gen, in_stab),
        }[mutation]
        real_closure = symplectic.closure

        def bad_closure(generators, cap=None, parts=1):
            result = real_closure(generators, cap, parts)
            result.packed = bad()
            return result

        monkeypatch.setattr(symplectic, "closure", bad_closure)
        # the base is certified whichever form of its Arf fills it
        for form in (q, q0):
            with pytest.raises(
                RuntimeError, match=f"^admissible closure of qmask {q0.qmask:#x} is not "
            ) as err:
                verify_transvection_generation(form)
            failed = str(err.value).split(" is not ", 1)[1].split(", not ")
            assert failure in failed
            if mutation == "not_closed":
                assert failed == [failure]
            assert cached_bases(2)[0] is entry and entry[1] is None
        assert entry[0] is stab0 and entry[2] is labels0
        assert not stab0.flags.writeable and not labels0.flags.writeable

    @pytest.mark.parametrize(
        "mutation,failure",
        [
            ("wrong_v", "q-transporting"),
            ("not_involution", "an involution"),
            ("not_transporting", "q-transporting"),
            ("not_linear", "symplectic"),
        ],
    )
    def test_certification_rejects_bad_transport(
        self, no_stabilizers, monkeypatch, mutation, failure
    ):
        # each mutation fails exactly one check
        q0 = standard_form(3, 0)
        # q differs from q0 on b_1, so v = a_1 and q0(v) = 0
        q = QuadraticForm((0, 0, 0), (0, 1, 1))
        v = swap_pairs(q.qmask ^ q0.qmask)
        assert q.arf() == q0.arf() and v == 0b1
        verify_transvection_generation(q0)
        entry = cached_bases(3)[0]
        kept = list(entry)
        t_v = transvection_f2(CycleClassF2(3, v))
        if mutation == "wrong_v":
            # q0(b_1) = 1: T_b1 lies in O(q0), so q o T_b1 = q, not q0
            table = symplectic._vector_table(transvection_f2(CycleClassF2(3, 0b10)).cols)
        elif mutation == "not_involution":
            # T_b1 lies in O(q0), so T_v T_b1 carries q to q0, but <v, b_1> = 1:
            # the two transvections do not commute and the product has order 3
            m = t_v @ transvection_f2(CycleClassF2(3, 0b10))
            assert (m @ m).packed() != MatF2.identity(3).packed()
            table = symplectic._vector_table(m.cols)
        elif mutation == "not_transporting":
            # c = a_2 has q0(c) = 0 and <v, c> = 0: T_v T_c is a symplectic
            # involution, but q(T_v T_c x) = q0(x) + <x, c>
            c = transvection_f2(CycleClassF2(3, 0b100))
            table = symplectic._vector_table((t_v @ c).cols)
        else:
            # a_1 + a_2 and a_1 + a_3 are fixed by T_v with q0 = 0 on both:
            # swapping them keeps an involution carrying q to q0, not linear
            table = symplectic._vector_table(t_v.cols).copy()
            assert table[0b101] == 0b101 and table[0b10001] == 0b10001
            assert q0.eval_bits(0b101) == q0.eval_bits(0b10001) == 0
            table[[0b101, 0b10001]] = table[[0b10001, 0b101]]
        monkeypatch.setattr(symplectic, "_transport_table", lambda form, base: table)
        for fn in (verify_transvection_generation, q_orbit_partition):
            with pytest.raises(
                RuntimeError, match=f"^transport of qmask {q.qmask:#x} is not "
            ) as err:
                fn(q)
            assert str(err.value).split(" is not ", 1)[1] == failure
        assert cached_bases(3)[0] is entry
        assert all(a is b for a, b in zip(entry, kept))

    def test_cap_checked_before_cached_admissible_closure(self, no_stabilizers, monkeypatch):
        q0 = standard_form(3, 0)
        verify_transvection_generation(q0)
        assert cached_bases(3)[0][1] is not None
        q = QuadraticForm((1, 1, 0), (0, 0, 1))
        assert q.arf() == 0 and q.qmask != q0.qmask

        def fail(*_args):
            raise AssertionError("cached admissible closure read past the cap")

        class Tripwire(dict):
            __getitem__ = __contains__ = get = setdefault = fail

        group = symplectic._FULL_GROUP_CACHE[3][0]
        monkeypatch.setitem(
            symplectic._FULL_GROUP_CACHE, 3, (group, Tripwire(cached_bases(3)))
        )
        monkeypatch.setattr(symplectic, "_conjugate_by_transvection", fail)
        monkeypatch.setattr(symplectic, "_transport_table", fail)
        for form in (q0, q):
            with pytest.raises(CapExceededError, match="full group exceeded the cap of 100$"):
                verify_transvection_generation(form, cap=100)

    @pytest.mark.parametrize("g", [2, 3])
    def test_cache_independent_of_call_order(self, no_stabilizers, g):
        # two call orders from a cleared cache: the standard forms first,
        # against two non-standard forms per Arf first, with the first
        # generation check of each Arf before any stabilizer of it
        rng = random.Random(76 + g)
        bases = [standard_form(g, arf) for arf in (0, 1)]
        others = [q for q in all_forms(g) if q not in bases]
        picks = [
            q for arf in (0, 1) for q in rng.sample([q for q in others if q.arf() == arf], 2)
        ]
        orders = [
            [(q_stabilizer_bruteforce, q) for q in bases]
            + [(verify_transvection_generation, q) for q in bases + picks],
            [(verify_transvection_generation, q) for q in reversed(picks)]
            + [(q_orbit_partition, q) for q in bases],
        ]
        expected = [
            [
                _filter_preserves_q(no_stabilizers[g].packed, q0),
                closure(admissible_transvections(q0)).packed,
                level_labels(q0),
            ]
            for q0 in bases
        ]
        for calls in orders:
            cached_bases(g).clear()
            for fn, q in calls:
                fn(q)
            assert sorted(cached_bases(g)) == [0, 1]
            for arf, entry in cached_bases(g).items():
                assert len(entry) == 3
                for cached, oracle in zip(entry, expected[arf]):
                    assert np.array_equal(cached, oracle)

    def test_warm_g3_generation_fast(self, no_stabilizers):
        # regression gate: 20 warm calls on distinct non-base forms took
        # about 2 s when each call closed its admissible transvections by BFS
        bases = [standard_form(3, arf) for arf in (0, 1)]
        for q in bases:
            verify_transvection_generation(q)
        rng = random.Random(75)
        others = [q for q in all_forms(3) if q not in bases]
        forms = rng.sample(others, 20)
        start = time.perf_counter()
        results = [verify_transvection_generation(q) for q in forms]
        elapsed = time.perf_counter() - start
        assert all(r["verdict"] == "equal" for r in results)
        assert elapsed < 1.0, f"20 warm genus-3 generation checks took {elapsed:.2f} s"

    def test_warm_g3_all_forms_transported_fast(self, no_stabilizers):
        # regression gate: all 64 genus-3 forms through both verdict
        # functions took about 1.1 s when each call conjugated its base
        # arrays by T_v and certified them
        for arf in (0, 1):
            verify_transvection_generation(standard_form(3, arf))
        forms = list(all_forms(3))
        start = time.perf_counter()
        results = [(verify_transvection_generation(q), q_orbit_partition(q)) for q in forms]
        elapsed = time.perf_counter() - start
        assert all(
            gen["verdict"] == "equal" and orbits["matches_expected_partition"]
            for gen, orbits in results
        )
        assert elapsed < 0.25, f"128 warm genus-3 verdicts took {elapsed:.2f} s"


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
    @pytest.mark.parametrize("g", [0, -1, 4])
    def test_genus_out_of_range_rejected(self, g):
        # genus 0 used to give a one-orbit transcript, genus -1 a bare
        # "negative shift count"
        with pytest.raises(ValueError, match=f"1 <= genus <= 3, got {g}$"):
            verify_arf_classification(g)

    def test_small_genera(self):
        for g in (1, 2):
            r = verify_arf_classification(g)
            assert r["two_orbits"] and r["partition_ok"]
            assert r["arf_constant_on_orbits"]
            sizes = {o["arf"]: o["size"] for o in r["orbits"]}
            assert sizes[0] == (1 << (g - 1)) * ((1 << g) + 1)
            assert sizes[1] == (1 << (g - 1)) * ((1 << g) - 1)
