from __future__ import annotations

import itertools
import random
import time

import numpy as np
import pytest

from spincycles import symplectic
from spincycles.homology import swap_pairs
from spincycles.spin import QuadraticForm, standard_form
from spincycles.cli import main
from spincycles.symplectic import (
    MAX_CHAIN_GENUS,
    CapExceededError,
    GroupClosure,
    MatF2,
    NotSymplecticError,
    _filter_preserves_q,
    admissible_transvections,
    all_transvections,
    chain_classes,
    chain_transvections,
    closure,
    full_symplectic_closure,
    membership,
    orbit,
    preserves_q,
    q_orbit_partition,
    q_stabilizer_bruteforce,
    q_values_table,
    transvection_f2,
    verify_arf_classification,
    verify_transvection_generation,
)

from conftest import (
    arf_classification_reference,
    brute_q,
    closure_reference,
    is_symplectic_z,
    mat_f2_from_z,
    o_order,
    sp_order,
    symplectic_form_z,
    transvection_z,
    transvection_z_power,
)


def rand_class_z(rng, g, bound=3):
    return tuple(rng.randint(-bound, bound) for _ in range(2 * g))


class TestTransvectionF2:
    def test_zero_is_identity(self):
        assert transvection_f2(2, 0) == MatF2.identity(2)

    def test_g1_formula(self):
        a1, b1 = 0b01, 0b10
        t = transvection_f2(1, a1)
        assert t.apply_bits(b1) == b1 ^ a1
        assert t.apply_bits(a1) == a1

    def test_involution(self):
        rng = random.Random(2)
        for g in (1, 2, 3, 4):
            for _ in range(20):
                t = transvection_f2(g, rng.randrange(1 << (2 * g)))
                assert t @ t == MatF2.identity(g)

    def test_always_symplectic_exhaustive(self):
        for g in (1, 2, 3):
            for bits in range(1 << (2 * g)):
                assert transvection_f2(g, bits).is_symplectic()

    def test_always_symplectic_sampled_g5(self):
        rng = random.Random(8)
        for _ in range(200):
            assert transvection_f2(5, rng.randrange(1 << 10)).is_symplectic()


class TestTransvectionZ:
    def test_zero_is_identity(self):
        t = transvection_z((0, 0, 0, 0))
        assert np.array_equal(t, np.eye(4, dtype=np.int64))

    def test_g1_sign_convention(self):
        t = transvection_z((1, 0))
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
        j = symplectic_form_z(g)
        for _ in range(100):
            c = rand_class_z(rng, g)
            t = transvection_z(c)
            x, y = np.array(rand_class_z(rng, g)), np.array(rand_class_z(rng, g))
            assert (t @ x) @ j @ (t @ y) == x @ j @ y

    def test_mod2_reduction_square(self):
        rng = random.Random(5)
        for g in (1, 2, 3):
            for _ in range(60):
                c = rand_class_z(rng, g)
                c2 = sum((x & 1) << k for k, x in enumerate(c))
                assert mat_f2_from_z(transvection_z(c)) == transvection_f2(g, c2)

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
            transvection_z_power((1, 0), 2, sign=2)


class TestPreservesQ:
    def test_identity(self):
        assert preserves_q(MatF2.identity(2), standard_form(2, 1))

    def test_admissibility_criterion_exhaustive(self):
        # T_c preserves q iff c = 0 or q(c) = 1, over every class, g <= 3
        for g in (2, 3):
            for arf in (0, 1):
                q = standard_form(g, arf)
                for bits in range(1 << (2 * g)):
                    t = transvection_f2(g, bits)
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
    transvection_f2(4, bits) for bits in (1 << 6, 1 << 7, (1 << 4) | (1 << 6))
]


class TestClosure:
    def test_identity_generator(self):
        c = closure([MatF2.identity(2)])
        assert c.order == 1 and c.completed

    def test_sp2(self):
        gens = [
            transvection_f2(1, 0b01),
            transvection_f2(1, 0b10),
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
        assert not membership(transvection_f2(4, 1), c)
        capped = closure(chain_transvections(4), cap=1000)
        assert not capped.completed

    def test_equality_compares_packed_by_value(self):
        c = closure(chain_transvections(1))
        assert c.order == 6 and c == closure(chain_transvections(1))
        assert c != closure(chain_transvections(1)[:1])
        g, packed, gens = c.genus, c.packed, c.generators
        assert c != GroupClosure(g, packed[:-1], gens, c.completed, c.cap)
        assert c != GroupClosure(g, packed, gens[::-1], c.completed, c.cap)
        with pytest.raises(TypeError):  # the generator list is unhashable
            hash(c)

    def test_rejects_non_symplectic_generator(self):
        with pytest.raises(NotSymplecticError):
            closure([MatF2(2, (1, 1))])

    def test_completed_closure_is_closed(self):
        gens = [
            transvection_f2(1, 0b01),
            transvection_f2(1, 0b10),
        ]
        c = closure(gens)
        assert c.completed
        for m in c.matrices():
            for g in gens:
                assert c.contains_packed((g @ m).packed())

    def test_rejects_genus_above_key_width(self, monkeypatch):
        # 2g = 10 does not fit a 64-bit key: refused before any table
        gens = [
            transvection_f2(5, 0b01),
            transvection_f2(5, 0b10),
        ]

        def no_tables(m):
            raise AssertionError("table built")

        monkeypatch.setattr(symplectic, "_vector_table", no_tables)
        with pytest.raises(ValueError, match="MAX_CLOSURE_GENUS = 4"):
            closure(gens)


class TestFullGroup:
    def test_chain_set(self):
        a1, b1, a2, b2, a3, b3 = (1 << k for k in range(6))
        assert chain_classes(3) == [a1, b1, a2, b2, a3, b3, a1 | a2, a2 | a3]
        for g in (1, 2, 3):
            gens = chain_transvections(g)
            assert len(gens) == 3 * g - 1
            assert gens == [transvection_f2(g, c) for c in chain_classes(g)]
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

    def test_cached_generators(self):
        # the enumeration keeps no cache: each call builds its own array
        first = full_symplectic_closure(2)
        second = full_symplectic_closure(2)
        assert first.generators == second.generators == chain_transvections(2)
        assert np.array_equal(first.packed, second.packed)
        assert first.packed is not second.packed
        assert not hasattr(symplectic, "_FULL_GROUP_CACHE")

    @pytest.mark.parametrize("g", [2, 3])
    def test_order_check_rejects_proper_subgroup(self, monkeypatch, g):
        # without b_g every generator fixes a_g: a proper subgroup
        def without_b_g(genus):
            gens = chain_transvections(genus)
            b_g = transvection_f2(genus, 1 << (2 * genus - 1))
            return [t for t in gens if t != b_g]

        assert len(without_b_g(g)) == 3 * g - 2
        monkeypatch.setattr(symplectic, "chain_transvections", without_b_g)
        with pytest.raises(RuntimeError, match="order"):
            full_symplectic_closure(g)
        # the chain of the verdict path refuses the same generators
        monkeypatch.setattr(symplectic, "_BASES", {})
        with pytest.raises(RuntimeError, match=f"^full group chain of .* is not of order {sp_order(g)}$"):
            verify_transvection_generation(standard_form(g, 1))
        assert symplectic._BASES == {}

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_transversal_product_equals_bfs_oracle(self, g):
        full = full_symplectic_closure(g)
        assert full.completed
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

        monkeypatch.setattr(symplectic, "_pair_transversals", mutated)
        size = [2016, 120, 6][level]
        left = sp_order(3) // size * (size - 1)
        with pytest.raises(RuntimeError, match=f"order {left}, not \\|Sp\\(6, 2\\)\\| = 1451520$"):
            full_symplectic_closure(3)

    def test_rejects_non_symplectic_generator(self, monkeypatch):
        real = chain_transvections
        monkeypatch.setattr(
            symplectic, "chain_transvections", lambda g: real(g) + [MatF2(4, (1, 2, 4, 9))]
        )
        with pytest.raises(NotSymplecticError):
            full_symplectic_closure(2)
        monkeypatch.setattr(symplectic, "_BASES", {})
        with pytest.raises(
            RuntimeError, match="^full group chain of .* is not built on symplectic generators$"
        ):
            verify_transvection_generation(standard_form(2, 0))
        assert symplectic._BASES == {}

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

    def test_cap_matches_bfs_stop(self):
        # the BFS stopped incomplete exactly when the order exceeded the cap
        for cap in (1, 100, 719, 720, 721, 10_000):
            full = full_symplectic_closure(2, cap=cap)
            assert full.completed == closure(chain_transvections(2), cap=cap).completed
            assert full.cap == cap and full.generators == chain_transvections(2)
            assert full.order == (720 if full.completed else 0)

    @pytest.mark.parametrize("cap", [100, 1_400_000, sp_order(3) - 1])
    def test_cap_refused_before_tables_or_cache(self, monkeypatch, cap):
        # the enumeration counts elements: a cap below |Sp(6, 2)| is refused
        # before any table is built (the verdict path is bounded by genus,
        # see TestChain.test_genus_limit)
        def fail(*_args):
            raise AssertionError("work done past the cap")

        monkeypatch.setattr(symplectic, "_vector_table", fail)
        monkeypatch.setattr(symplectic, "_pair_transversals", fail)
        q = QuadraticForm((1, 1, 0), (0, 0, 1))
        with pytest.raises(CapExceededError, match=f"full group exceeded the cap of {cap}$"):
            q_stabilizer_bruteforce(q, cap=cap)
        full = full_symplectic_closure(3, cap=cap)
        assert not full.completed and full.order == 0 and full.cap == cap

    def test_cold_sp6_timed(self):
        # on a 2-core Xeon the chain BFS took 1.1-1.3 s, the transversal
        # product 0.07-0.16 s
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
def no_bases(monkeypatch):
    """An empty base cache for one test; the module's cache is restored."""
    monkeypatch.setattr(symplectic, "_BASES", {})
    return symplectic._BASES


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
        "closure_is_subset": holds(stab, adm),
        "verdict": "equal" if np.array_equal(adm, stab) else "proper_subgroup",
    }


def conjugate(packed, v, n):
    """Sorted T_v M T_v for every packed matrix M, by table products."""
    t_v = transvection_f2(n // 2, v)
    out = symplectic._apply_table_mats(packed, symplectic._vector_table(t_v.cols), n)
    # (A T_v) e_j = A e_j + <v, e_j> A v: XOR A v into column j where <v, e_j> = 1
    mask = np.uint64((1 << n) - 1)
    av = np.zeros_like(out)
    for k in range(n):
        if (v >> k) & 1:
            av ^= (out >> np.uint64(n * k)) & mask
    for j in range(n):
        if (swap_pairs(v) >> j) & 1:
            out ^= av << np.uint64(n * j)
    out.sort()
    return out


def holds(sorted_keys, keys):
    """Are all ``keys`` in the sorted uint64 array ``sorted_keys``?"""
    keys = np.asarray(keys, dtype=np.uint64)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return bool(np.all(sorted_keys[pos] == keys))


def conjugated_references(q, q0, stab0, adm0):
    """The brute-force O(q) and <adm(q)> of a form q of the Arf of q0: those
    of q0 conjugated by T_v, checked against q itself."""
    n, v = 2 * q.genus, swap_pairs(q.qmask ^ q0.qmask)
    stab, adm = conjugate(stab0, v, n), conjugate(adm0, v, n)
    # the table products against MatF2 products, on a sample
    t_v = transvection_f2(q.genus, v)
    sample = stab0[:: max(1, stab0.size // 5)]
    assert holds(stab, [(t_v @ MatF2.from_packed(n, int(k)) @ t_v).packed() for k in sample])
    # |O(q0)| = |O(q)| distinct q-preserving matrices are O(q), and the
    # conjugate of <adm(q0)> holds adm(q)
    assert np.all(stab[1:] > stab[:-1]) and _filter_preserves_q(stab, q).size == stab.size
    assert holds(adm, [m.packed() for m in admissible_transvections(q)])
    return stab, adm


@pytest.fixture(scope="module")
def references():
    """Per form at genus 1-3 (84 forms), the brute-force O(q) and <adm(q)>
    as sorted packed keys.  The enumeration filtered to O(q0) and the BFS
    closure of adm(q0) run once per (genus, Arf), for its standard form
    q0, and are carried to every form of that Arf by T_v."""
    out = {}
    for g in (1, 2, 3):
        for arf in (0, 1):
            q0 = standard_form(g, arf)
            stab0 = q_stabilizer_bruteforce(q0).packed
            adm0 = closure(admissible_transvections(q0)).packed
            for q in all_forms(g):
                if q.arf() == arf:
                    out[q] = conjugated_references(q, q0, stab0, adm0)
    return out


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

    def test_transported_orbits_match_filter_oracle(self, references):
        # all 84 forms at genus 1-3: the base labels read through T_v
        # against the images of every class under the brute-force O(q)
        for g in (1, 2, 3):
            for q in all_forms(g):
                stab, _ = references[q]
                result = q_orbit_partition(q)
                assert result["orbits"] == orbits_oracle(q, stab), q
                assert result["stabilizer_order"] == stab.size

    @pytest.mark.parametrize("g,per_arf", [(2, 2), (3, 1)])
    def test_warm_transcripts_equal_cold(self, no_bases, g, per_arf):
        # cold: the call builds the base of its Arf; warm: the other verdict
        # function built it first, on the standard form
        rng = random.Random(72 + g)
        pairs = [
            (verify_transvection_generation, q_orbit_partition),
            (q_orbit_partition, verify_transvection_generation),
        ]
        for arf in (0, 1):
            base = standard_form(g, arf)
            others = [q for q in all_forms(g) if q.arf() == arf and q != base]
            for q in rng.sample(others, per_arf):
                for fn, warm_up in pairs:
                    no_bases.clear()
                    cold = fn(q)
                    no_bases.clear()
                    warm_up(base)
                    assert fn(q) == cold

    def test_warm_g3_orbit_partitions_fast(self, no_bases):
        # regression gate: 20 warm calls on distinct non-base forms took
        # about 1.2 s when each call filtered all of Sp(6, F2)
        bases = [standard_form(3, arf) for arf in (0, 1)]
        for q in bases:
            q_orbit_partition(q)
        rng = random.Random(73)
        others = [q for q in all_forms(3) if q not in bases]
        forms = rng.sample(others, 20)
        start = time.perf_counter()
        results = [q_orbit_partition(q) for q in forms]
        elapsed = time.perf_counter() - start
        assert all(r["matches_expected_partition"] for r in results)
        assert elapsed < 1.0, f"20 warm genus-3 orbit partitions took {elapsed:.2f} s"

    def test_warm_admissible_matches_closure_oracle(self, references):
        # all 84 forms at genus 1-3 against the brute-force <adm(q)> and O(q)
        for g in (1, 2, 3):
            for q in all_forms(g):
                stab, adm = references[q]
                assert verify_transvection_generation(q) == generation_oracle(q, adm, stab), q

    @pytest.mark.parametrize(
        "mutation,failure",
        [
            ("wrong_v", "q-transporting"),
            ("not_involution", "an involution"),
            ("not_transporting", "q-transporting"),
            ("not_symplectic", "symplectic"),
        ],
    )
    def test_certification_rejects_bad_transport(
        self, no_bases, monkeypatch, mutation, failure
    ):
        # each mutation fails exactly one check
        q0 = standard_form(3, 0)
        # q differs from q0 on b_1, so v = a_1 and q0(v) = 0
        q = QuadraticForm((0, 0, 0), (0, 1, 1))
        v = swap_pairs(q.qmask ^ q0.qmask)
        assert q.arf() == q0.arf() and v == 0b1
        verify_transvection_generation(q0)
        entry = no_bases[3, 0]
        t_v = transvection_f2(3, v)
        if mutation == "wrong_v":
            # q(b_1) = 0, so q o T_b1 = q + <b_1, .>, which is not q0 = q + <a_1, .>
            m = transvection_f2(3, 0b10)
        elif mutation == "not_involution":
            # T_b1 lies in O(q0), so T_v T_b1 carries q to q0, but <v, b_1> = 1:
            # the two transvections do not commute and the product has order 3
            m = t_v @ transvection_f2(3, 0b10)
            assert m @ m != MatF2.identity(3)
        elif mutation == "not_transporting":
            # c = a_2 has q0(c) = 0 and <v, c> = 0: T_v T_c is a symplectic
            # involution, but q(T_v T_c x) = q0(x) + <x, c>
            m = t_v @ transvection_f2(3, 0b100)
        else:
            # T_v composed with the swap a_2 <-> a_3 is an involution with
            # q(m e_k) = q0(e_k) on the basis (q0(a_2) = q0(a_3) = 0), but it
            # sends <a_2, b_2> = 1 to <a_3, b_2> = 0: not symplectic
            cols = list(t_v.cols)
            cols[2], cols[4] = cols[4], cols[2]
            m = MatF2(6, tuple(cols))
            assert q0.eval_bits(0b100) == q0.eval_bits(0b10000) == 0
            assert not m.is_symplectic() and m @ m == MatF2.identity(3)
        monkeypatch.setattr(symplectic, "_transport", lambda form, base: m)
        for fn in (verify_transvection_generation, q_orbit_partition):
            with pytest.raises(
                RuntimeError, match=f"^transport of qmask {q.qmask:#x} is not "
            ) as err:
                fn(q)
            assert str(err.value).split(" is not ", 1)[1] == failure
        assert no_bases == {(3, 0): entry} and isinstance(entry.labels, tuple)

    @pytest.mark.parametrize("g", [2, 3])
    def test_cache_independent_of_call_order(self, no_bases, references, g):
        # two call orders from an empty cache: the standard forms first,
        # against two non-standard forms per Arf first
        rng = random.Random(76 + g)
        bases = [standard_form(g, arf) for arf in (0, 1)]
        others = [q for q in all_forms(g) if q not in bases]
        picks = [
            q for arf in (0, 1) for q in rng.sample([q for q in others if q.arf() == arf], 2)
        ]
        orders = [
            [(q_orbit_partition, q) for q in bases]
            + [(verify_transvection_generation, q) for q in bases + picks],
            [(verify_transvection_generation, q) for q in reversed(picks)]
            + [(q_orbit_partition, q) for q in bases],
        ]
        for calls in orders:
            no_bases.clear()
            for fn, q in calls:
                fn(q)
            assert sorted(no_bases) == [(g, 0), (g, 1)]
            for (_, arf), base in no_bases.items():
                stab0, adm0 = references[bases[arf]]
                assert base.closure_order == adm0.size and o_order(g, arf) == stab0.size
                assert list(base.labels) == level_labels(bases[arf])

    def test_warm_g3_generation_fast(self, no_bases):
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

    def test_warm_g3_all_forms_transported_fast(self, no_bases):
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

    def test_warm_verdicts_tabulate_q_at_most_once(self, monkeypatch):
        # T_v is certified on the basis: a warm generation verdict builds no
        # q table, and an orbit partition builds only its own q's
        rng = random.Random(36)
        forms = [
            q for g, arfs in ((3, (0, 1)), (6, (1,))) for arf in arfs
            for q in sample_forms(rng, g, arf, 5) if q != standard_form(g, arf)
        ]
        for q in forms:
            verify_transvection_generation(standard_form(q.genus, q.arf()))
        real = symplectic.q_values_table

        def refuse(q):
            raise AssertionError(f"q table built for qmask {q.qmask:#x}")

        monkeypatch.setattr(symplectic, "q_values_table", refuse)
        for q in forms:
            g, arf = q.genus, q.arf()
            assert verify_transvection_generation(q) == {
                "genus": g, "arf": arf, "closure_order": o_order(g, arf),
                "stabilizer_order": o_order(g, arf), "full_group_order": sp_order(g),
                "closure_is_subset": True, "verdict": "equal",
            }
        built = []
        monkeypatch.setattr(symplectic, "q_values_table", lambda q: built.append(q) or real(q))
        for q in forms:
            built.clear()
            assert q_orbit_partition(q)["matches_expected_partition"]
            assert built == [q]


def chain(generators, short_ok=True):
    """(order, stored points, strong generators) of a chain of symplectic
    generators, bounded by |Sp(2g, 2)|."""
    g = generators[0].genus
    return symplectic._schreier_sims(
        "test", standard_form(g, 0), generators, ("symplectic", MatF2.is_symplectic),
        sp_order(g), short_ok,
    )


class TestChain:
    def test_inverse_is_j_transpose_j(self):
        rng = random.Random(81)
        for g in (1, 2, 3, 5):
            for _ in range(10):
                m = MatF2.identity(g)
                for _ in range(6):
                    m = transvection_f2(g, rng.randrange(1 << (2 * g))) @ m
                assert m @ m.inverse() == m.inverse() @ m == MatF2.identity(g)

    def test_o_order_formula(self):
        # orbit-stabilizer against the classical |O^+-(2g, 2)| formula, and
        # the brute-force filter at genus <= 2
        for g in range(1, 9):
            for arf in (0, 1):
                assert symplectic.o_order(g, arf) == o_order(g, arf)
        for g in (1, 2):
            for arf in (0, 1):
                assert q_stabilizer_bruteforce(standard_form(g, arf)).order == o_order(g, arf)

    def test_orders_match_closure_oracle(self):
        # random generator sets, mostly proper subgroups: the completed chain
        # gives the exact order, and its strong generators the same group
        rng = random.Random(82)
        cases = [GENUS4_TOP_LANE, chain_transvections(3)[:-1]]
        for g, count in ((1, 1), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
            for _ in range(4):
                cases.append([transvection_f2(g, rng.randrange(1 << (2 * g))) for _ in range(count)])
        for gens in cases:
            order, points, strong = chain(gens)
            ref = closure(gens).packed
            assert order == ref.size, gens
            assert np.array_equal(closure(strong or [MatF2.identity(gens[0].genus)]).packed, ref)
            assert 2 * gens[0].genus <= points <= order + 2 * gens[0].genus

    def test_rejects_generator_outside_o_q(self, no_bases, monkeypatch):
        # a transvection along a class with q0 = 0 moves q0
        real = admissible_transvections
        q0 = standard_form(3, 1)
        assert q0.eval_bits(0b100) == 0
        bad = transvection_f2(3, 0b100)
        monkeypatch.setattr(symplectic, "admissible_transvections", lambda q: real(q) + [bad])
        with pytest.raises(
            RuntimeError,
            match=f"^admissible chain of qmask {q0.qmask:#x} is not built on q-preserving generators$",
        ):
            verify_transvection_generation(q0)
        assert no_bases == {}

    def test_rejects_chain_one_point_short(self, no_bases, monkeypatch):
        # t_a t_b has order 3 in Sp(2, 2) of order 6: its chain has orbits
        # of sizes 3 and 1 where Sp(2, 2) has 3 and 2
        t_ab = transvection_f2(1, 0b01) @ transvection_f2(1, 0b10)
        assert chain([t_ab])[:2] == (3, 4) and chain(chain_transvections(1))[:2] == (6, 5)
        monkeypatch.setattr(symplectic, "chain_transvections", lambda g: [t_ab])
        q0 = standard_form(1, 1)
        with pytest.raises(
            RuntimeError, match=f"^full group chain of qmask {q0.qmask:#x} is not of order 6$"
        ):
            q_orbit_partition(q0)
        assert no_bases == {}

    def test_rejects_withheld_pair_swap(self, no_bases, monkeypatch):
        # genus 2, Arf 0: <adm(q0)> has order 36, so without the swap the
        # stabilizer chain stops short of |O(q0)| = 72
        monkeypatch.setattr(symplectic, "_pair_swap", MatF2.identity)
        q0 = standard_form(2, 0)
        with pytest.raises(
            RuntimeError, match=f"^stabilizer chain of qmask {q0.qmask:#x} is not of order 72$"
        ):
            verify_transvection_generation(q0)
        assert no_bases == {}

    def test_g2_arf0_needs_the_swap(self, no_bases):
        # <adm(q0)> splits q0^-1(1) into two orbits of 3; O(q0) does not
        q0 = standard_form(2, 0)
        gens = admissible_transvections(q0)
        placed, sizes = set(), []
        for x in range(16):
            if x not in placed:
                members = orbit(2, x, gens)
                placed |= members
                sizes.append(len(members))
        assert sizes == [1, 9, 3, 3]
        assert [o["size"] for o in q_orbit_partition(q0)["orbits"]] == [1, 9, 6]
        assert [what for what, _ in no_bases[2, 0].points] == ["full group", "admissible", "stabilizer"]
        assert preserves_q(symplectic._pair_swap(2), q0)

    @pytest.mark.parametrize("g", range(4, MAX_CHAIN_GENUS + 1))
    def test_verdicts_above_enumeration(self, g):
        # the paper's generation and transitivity facts where no group is
        # enumerated, against the order formulas
        for arf in (0, 1):
            q = QuadraticForm((1,) * g, (arf,) + (0,) * (g - 1))
            assert q.arf() == arf
            r = verify_transvection_generation(q)
            assert r["verdict"] == "equal"
            assert r["closure_order"] == r["stabilizer_order"] == o_order(g, arf)
            assert r["full_group_order"] == sp_order(g)
            assert q_orbit_partition(q)["matches_expected_partition"]

    def test_genus_limit(self, no_bases):
        q = standard_form(MAX_CHAIN_GENUS + 1, 0)
        match = f"MAX_CHAIN_GENUS = {MAX_CHAIN_GENUS}, got genus {MAX_CHAIN_GENUS + 1}$"
        for fn in (verify_transvection_generation, q_orbit_partition):
            with pytest.raises(CapExceededError, match=match):
                fn(q)
        assert no_bases == {}

    def test_largest_chain_points(self):
        # MAX_CHAIN_GENUS is the one budget of the verdicts: the chains it
        # admits store at most 8,184 points, the full group's at genus 6
        largest = [
            max(
                points
                for arf in (0, 1)
                for _, points in symplectic._base(standard_form(g, arf)).points
            )
            for g in range(1, MAX_CHAIN_GENUS + 1)
        ]
        assert largest == [5, 28, 123, 506, 2041, 8184]

    def test_verdict_path_never_enumerates(self, no_bases, monkeypatch, capsys):
        # the brute-force references stay out of every verdict, cold or warm
        def fail(*_args, **_kwargs):
            raise AssertionError("a verdict called a brute-force reference")

        for name in ("full_symplectic_closure", "closure", "_filter_preserves_q",
                     "q_stabilizer_bruteforce", "_vector_table", "_apply_table_mats",
                     "_bfs", "orbit"):
            monkeypatch.setattr(symplectic, name, fail)
        for g in (1, 2, 3):
            for q in all_forms(g):
                verify_transvection_generation(q)
                q_orbit_partition(q)
            verify_arf_classification(g)
        no_bases.clear()
        for g in range(1, MAX_CHAIN_GENUS + 1):
            for arf in ("0", "1"):
                assert main(["verify", "generation", "--genus", str(g), "--arf", arf]) == 0
        capsys.readouterr()


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
            transvection_f2(1, 0b01),
            transvection_f2(1, 0b10),
        ]
        c = closure(gens)
        assert membership(MatF2.identity(1), c)
        for g in gens:
            assert membership(g, c)

    def test_non_admissible_not_in_admissible_closure(self):
        q = standard_form(2, 1)
        c = closure(admissible_transvections(q))
        # q(a_2) = 0: its transvection moves q, so it cannot appear
        d = 0b100  # a_2
        assert q.eval_bits(d) == 0
        assert not membership(transvection_f2(2, d), c)

    def test_non_admissible_not_in_g3_closure(self):
        q = standard_form(3, 0)
        c = closure(admissible_transvections(q))
        for bits in range(1, 1 << 6):
            if q.eval_bits(bits) == 0:
                assert not membership(transvection_f2(3, bits), c)
                break

    def test_incomplete_closure_rejected(self):
        capped = closure(all_transvections(2), cap=10)
        with pytest.raises(ValueError):
            membership(MatF2.identity(2), capped)


class TestOrbit:
    def test_zero_fixed(self):
        gens = all_transvections(2)
        assert orbit(2, 0, gens) == {0}

    def test_admissible_orbits_when_generation_holds(self):
        # when the admissible closure is the whole stabilizer, its orbits on
        # nonzero classes are exactly the two q-levels
        q = standard_form(2, 1)
        assert verify_transvection_generation(q)["verdict"] == "equal"
        gens = admissible_transvections(q)
        table = q_values_table(q)
        ones = {b for b in range(1, 16) if table[b] == 1}
        zeros = {b for b in range(1, 16) if table[b] == 0}
        assert orbit(2, min(ones), gens) == ones
        assert orbit(2, min(zeros), gens) == zeros

    def test_admissible_closure_can_be_proper_at_g2(self):
        # genus 2, Arf 0: the admissible transvections generate an index-2
        # subgroup of the stabilizer, so the generation fact needs g >= 3
        r = verify_transvection_generation(standard_form(2, 0))
        assert r["verdict"] == "proper_subgroup"
        assert (r["closure_order"], r["stabilizer_order"]) == (36, 72)

    def test_genus_above_table_budget_rejected(self):
        # raised before any 2^(2g) table is built
        with pytest.raises(ValueError):
            orbit(7, 1, [transvection_f2(7, 1)])

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

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_chain_moves_match_all_transvection_reference(self, g):
        r = verify_arf_classification(g)
        assert r == arf_classification_reference(g)
        sizes = [(o["arf"], o["size"]) for o in r["orbits"]]
        assert sizes == [(0, (1 << (g - 1)) * ((1 << g) + 1)), (1, (1 << (g - 1)) * ((1 << g) - 1))]

    @pytest.mark.parametrize("g", [2, 3])
    def test_short_chain_splits_the_orbits(self, monkeypatch, g):
        # without a_{g-1} + a_g the moves generate Sp(2g-2, 2) x Sp(2, 2),
        # whose orbits split the Arf classes: the generating set carries
        # the verdict
        real = symplectic.chain_classes
        monkeypatch.setattr(symplectic, "chain_classes", lambda genus: real(genus)[:-1])
        r = verify_arf_classification(g)
        assert not r["two_orbits"] and len(r["orbits"]) > 2
        assert r["partition_ok"] and r["arf_constant_on_orbits"]


class TestQValuesTable:
    @pytest.mark.parametrize("g", range(1, 8))
    def test_table_matches_brute_force(self, g):
        rng = random.Random(4500 + g)
        for arf in (0, 1):
            q = sample_forms(rng, g, arf, 1)[0]
            table = q_values_table(q)
            assert len(table) == 1 << (2 * g)
            # q_orbit_partition prints sorted({table[x]}): a bool would print true
            assert all(type(v) is int and v in (0, 1) for v in table)
            assert table == [brute_q(q.q_a, q.q_b, x) for x in range(1 << (2 * g))]
