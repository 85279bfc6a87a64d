from __future__ import annotations

import random

import pytest

from spincycles.homology import (
    CycleClassF2,
    CycleClassZ,
    build_model,
    default_forest,
    hyperelliptic_chain,
    pairing_f2,
    pairing_z,
    validate_forest,
    vertex_forest,
)
from spincycles.polygon import (
    GenusZeroError,
    RegimeError,
    enumerate_segments,
)

from conftest import polygon_from


class TestClasses:
    def test_basis_vectors(self):
        a1 = CycleClassF2.basis_a(6, 1)
        assert a1.coords == (1,) + (0,) * 11
        b6 = CycleClassF2.basis_b(6, 6)
        assert b6.coords[-1] == 1 and sum(b6.coords) == 1

    def test_addition_is_xor(self):
        x = CycleClassF2.basis_a(2, 1) + CycleClassF2.basis_b(2, 2)
        assert (x + x).bits == 0

    def test_from_coords_round_trip(self):
        coords = (1, 0, 1, 1, 0, 0)
        assert CycleClassF2.from_coords(coords).coords == coords

    def test_z_arithmetic(self):
        a = CycleClassZ.basis_a(2, 1)
        b = CycleClassZ.basis_b(2, 2)
        assert (a + b - a).coords == b.coords
        assert (-a).coords[0] == -1
        assert (a + a).mod2().bits == 0

    def test_genus_mismatch(self):
        with pytest.raises(ValueError):
            CycleClassF2.basis_a(2, 1) + CycleClassF2.basis_a(3, 1)


class TestPairing:
    def test_symplectic_pairs(self):
        g = 3
        for i in range(1, g + 1):
            for j in range(1, g + 1):
                ai, bj = CycleClassF2.basis_a(g, i), CycleClassF2.basis_b(g, j)
                assert pairing_f2(ai, bj) == (1 if i == j else 0)
                assert pairing_f2(ai, CycleClassF2.basis_a(g, j)) == 0

    def test_z_conventions(self):
        a1, b1 = CycleClassZ.basis_a(2, 1), CycleClassZ.basis_b(2, 1)
        assert pairing_z(a1, b1) == 1
        assert pairing_z(b1, a1) == -1

    def test_z_bilinearity_example(self):
        g = 2
        x = CycleClassZ.basis_a(g, 1) + CycleClassZ.basis_b(g, 2)
        y = CycleClassZ.basis_b(g, 1) + CycleClassZ.basis_a(g, 2)
        assert pairing_z(x, y) == 0

    def test_f2_reduces_z(self):
        rng = random.Random(5)
        g = 4
        for _ in range(300):
            xc = tuple(rng.randint(-4, 4) for _ in range(2 * g))
            yc = tuple(rng.randint(-4, 4) for _ in range(2 * g))
            x, y = CycleClassZ(g, xc), CycleClassZ(g, yc)
            assert pairing_z(x, y) % 2 == pairing_f2(x.mod2(), y.mod2())

    def test_antisymmetry_random(self):
        rng = random.Random(6)
        g = 5
        for _ in range(200):
            x = CycleClassZ(g, tuple(rng.randint(-3, 3) for _ in range(2 * g)))
            y = CycleClassZ(g, tuple(rng.randint(-3, 3) for _ in range(2 * g)))
            assert pairing_z(x, y) == -pairing_z(y, x)


class TestModel:
    def test_d5_index(self, d5):
        m = build_model(d5)
        order = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
        assert list(m.points) == order
        assert [m.rank(v) for v in order] == [1, 2, 3, 4, 5, 6]

    def test_spec_recipe_forest_accepted(self, rect_4x2):
        # horizontal unit paths (i,1) -> (0,1) form a valid forest
        forest = {
            (i, 1): tuple(((k, 1), (k - 1, 1)) for k in range(i, 0, -1))
            for i in (1, 2, 3)
        }
        m = build_model(rect_4x2, forest)
        assert m.genus == 3
        for v in m.points:
            assert m.path_class_sum(v) == m.b_class(v)

    def test_default_forest_is_the_recipe_on_rect(self, rect_4x2):
        # the default routes through the hull vertex (1,1), giving the
        # horizontal paths (i,1) -> ... -> (1,1) -> (0,1)
        m = build_model(rect_4x2)
        expected = {
            (i, 1): tuple(((k, 1), (k - 1, 1)) for k in range(i, 0, -1))
            for i in (1, 2, 3)
        }
        assert m.forest == expected

    def test_genus_zero(self):
        with pytest.raises(GenusZeroError):
            build_model(polygon_from([(0, 0), (1, 0), (1, 1), (0, 1)]))

    def test_a_b_classes(self, d5):
        m = build_model(d5)
        assert m.a_class((1, 1)) == CycleClassF2.basis_a(6, 1)
        assert m.a_class((3, 1)) == CycleClassF2.basis_a(6, 6)
        assert m.b_class((2, 2)) == CycleClassF2.basis_b(6, 5)
        with pytest.raises(ValueError):
            m.a_class((0, 0))
        with pytest.raises(ValueError):
            m.b_class((4, 4))

    def test_segment_class_examples(self, d5):
        m = build_model(d5)
        s = m.segment_class(((1, 1), (2, 1)))
        assert s == CycleClassF2.basis_b(6, 1) + CycleClassF2.basis_b(6, 4)
        bridge = m.segment_class(((0, 1), (1, 1)))
        assert bridge == CycleClassF2.basis_b(6, 1)
        assert m.segment_class(((0, 0), (0, 1))).bits == 0

    def test_segment_class_requires_primitive(self, d5):
        m = build_model(d5)
        with pytest.raises(ValueError):
            m.segment_class(((0, 0), (2, 0)))

    def test_segment_pairs_a_iff_endpoint(
        self, d5, d7, square_3x3, rect_4x2, trapezoid_g2, trapezoid_g2_cut,
        triangle_d3,
    ):
        # a segment class meets a_v exactly when v is one of its endpoints
        for p in (d5, d7, square_3x3, rect_4x2, trapezoid_g2,
                  trapezoid_g2_cut, triangle_d3):
            m = build_model(p)
            for seg in enumerate_segments(p):
                cls = m.segment_class(seg)
                for v in m.points:
                    expected = 1 if v in seg.endpoints else 0
                    assert pairing_f2(cls, m.a_class(v)) == expected

    def test_segment_classes_never_pair(self, d5):
        # pure-b classes pair to zero, segment against segment
        m = build_model(d5)
        segs = [m.segment_class(s) for s in enumerate_segments(d5)]
        for i, x in enumerate(segs):
            for y in segs[i:]:
                assert pairing_f2(x, y) == 0


class TestForests:
    def all_forests(self, p):
        return [
            default_forest(p),
            default_forest(
                p, step_order=((0, 1), (1, 0), (0, -1), (-1, 0)), source_reverse=True
            ),
            vertex_forest(p),
        ]

    def test_forests_valid_and_distinct(self, d5, d7, square_3x3, rect_4x2):
        for p in (d5, d7, square_3x3, rect_4x2):
            forests = self.all_forests(p)
            for f in forests:
                validate_forest(p, f)
            assert len({tuple(sorted(f.items())) for f in forests}) >= 2

    def test_telescoping_every_forest(self, d5, d7, square_3x3, rect_4x2,
                                       trapezoid_g2, triangle_d3):
        # the path class sum collapses to b_v for every valid forest
        for p in (d5, d7, square_3x3, rect_4x2, trapezoid_g2, triangle_d3):
            for forest in self.all_forests(p):
                m = build_model(p, forest)
                for v in m.points:
                    assert m.path_class_sum(v) == m.b_class(v)

    def test_path_segments_never_pair(self, d5, d7):
        for p in (d5, d7):
            for forest in self.all_forests(p):
                m = build_model(p, forest)
                for v in m.points:
                    classes = [m.segment_class(s) for s in forest[v]]
                    for i, x in enumerate(classes):
                        for y in classes[i + 1 :]:
                            assert pairing_f2(x, y) == 0

    def test_validate_rejects_broken_paths(self, d5):
        good = default_forest(d5)
        broken = dict(good)
        broken[(1, 1)] = (((1, 1), (2, 1)),)  # ends at an interior point
        with pytest.raises(ValueError):
            validate_forest(d5, broken)
        broken = dict(good)
        broken[(1, 1)] = (((2, 1), (2, 0)),)  # does not visit (1,1) first
        with pytest.raises(ValueError):
            validate_forest(d5, broken)

    def test_straight_segment_fallback(self):
        # a lattice image of the quintic where axis steps reach only (-8, 9):
        # the other five paths are the straight-segment fallback
        p = polygon_from([(-14, 14), (-9, 9), (11, -6)])
        forest = default_forest(p)
        straight = {
            v for v, path in forest.items()
            if any(abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1 for a, b in path)
        }
        assert straight == set(forest) - {(-8, 9)} and len(straight) == 5
        validate_forest(p, forest)
        m = build_model(p, forest)
        for v in m.points:
            assert m.path_class_sum(v) == m.b_class(v)


class TestHyperellipticChain:
    def chain_matrix(self, chain):
        n = len(chain)
        return [
            [pairing_z(chain[i], chain[j]) for j in range(n)] for i in range(n)
        ]

    def test_chain_pattern(self, rect_4x2, trapezoid_g2, trapezoid_g2_cut):
        for p in (rect_4x2, trapezoid_g2, trapezoid_g2_cut):
            m = build_model(p)
            chain = hyperelliptic_chain(p)
            g = m.genus
            assert len(chain) == 2 * g + 1
            mat = self.chain_matrix(chain)
            for i in range(2 * g + 1):
                for j in range(2 * g + 1):
                    if j == i + 1:
                        assert mat[i][j] == 1
                    elif j == i - 1:
                        assert mat[i][j] == -1
                    else:
                        assert mat[i][j] == 0

    def test_spec_example_pairings(self, rect_4x2):
        chain = hyperelliptic_chain(rect_4x2)
        sigma0, v1, sigma1 = chain[0], chain[1], chain[2]
        v2 = chain[3]
        assert pairing_z(sigma0, v1) == 1
        assert pairing_z(sigma0, sigma1) == 0
        assert pairing_z(v1, v2) == 0

    def test_wrong_regime(self, d5):
        with pytest.raises(RegimeError):
            hyperelliptic_chain(d5)
