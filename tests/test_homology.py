from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest

from spincycles import corpus
from spincycles.homology import (
    build_model,
    default_forest,
    hyperelliptic_chain,
    swap_pairs,
    validate_forest,
    vertex_forest,
)
from spincycles.polygon import (
    GenusZeroError,
    RegimeError,
    a_mask,
    enumerate_segments,
)

from spincycles.spin import consistency_forests
from spincycles.symplectic import transvection_f2

from conftest import pairing_f2, polygon_from, symplectic_form_z


class TestClasses:
    def test_basis_vectors(self, d5):
        # bit 2i is a_{i+1}, bit 2i+1 is b_{i+1}: b_1 is bit 1, b_6 bit 11
        m = build_model(d5)
        assert a_mask(6) == 0b010101010101
        assert m.b_class(m.points[0]) == 1 << 1
        assert m.b_class(m.points[-1]) == 1 << 11

    def test_genus_mismatch(self):
        # a class meets its genus in transvection_f2: a_3 is refused at genus 2
        with pytest.raises(ValueError, match="out of range for this genus"):
            transvection_f2(2, 1 << 4)

    def test_addition_is_xor(self, d5):
        # a segment class is the sum, XOR of packed ints, of its endpoints' b
        m = build_model(d5)
        s = m.segment_class(((1, 1), (2, 1)))
        assert s == m.b_class((1, 1)) ^ m.b_class((2, 1))
        assert s ^ s == 0


class TestPairing:
    # integral classes are coordinate tuples paired by x^T J y (conftest's
    # symplectic_form_z); mod-2 classes are packed ints

    def test_symplectic_pairs(self):
        g = 3
        for i in range(g):
            for j in range(g):
                ai, aj, bj = 1 << (2 * i), 1 << (2 * j), 1 << (2 * j + 1)
                assert pairing_f2(ai, bj) == (1 if i == j else 0)
                assert pairing_f2(ai, aj) == 0

    def test_z_conventions(self):
        j = symplectic_form_z(2)
        a1, b1 = np.array((1, 0, 0, 0)), np.array((0, 1, 0, 0))
        assert a1 @ j @ b1 == 1
        assert b1 @ j @ a1 == -1

    def test_z_bilinearity_example(self):
        x = np.array((1, 0, 0, 1))  # a_1 + b_2
        y = np.array((0, 1, 1, 0))  # b_1 + a_2
        assert x @ symplectic_form_z(2) @ y == 0

    def test_f2_reduces_z(self):
        rng = random.Random(5)
        g = 4
        j = symplectic_form_z(g)
        weights = 1 << np.arange(2 * g)
        for _ in range(300):
            x = np.array([rng.randint(-4, 4) for _ in range(2 * g)])
            y = np.array([rng.randint(-4, 4) for _ in range(2 * g)])
            xb, yb = int(weights @ (x & 1)), int(weights @ (y & 1))
            # the library pairs through swap_pairs
            assert (x @ j @ y) % 2 == pairing_f2(xb, yb) == (swap_pairs(xb) & yb).bit_count() & 1

    def test_antisymmetry_random(self):
        rng = random.Random(6)
        g = 5
        j = symplectic_form_z(g)
        for _ in range(200):
            x = np.array([rng.randint(-3, 3) for _ in range(2 * g)])
            y = np.array([rng.randint(-3, 3) for _ in range(2 * g)])
            assert x @ j @ y == -(y @ j @ x)


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
        # a_i and b_i of the i-th interior point are bits 2i - 2 and 2i - 1
        m = build_model(d5)
        assert m.rank((1, 1)) == 1 and m.rank((3, 1)) == 6
        assert m.b_class((2, 2)) == 1 << 9
        with pytest.raises(ValueError):
            m.rank((0, 0))
        with pytest.raises(ValueError):
            m.b_class((4, 4))

    def test_segment_class_examples(self, d5):
        m = build_model(d5)
        s = m.segment_class(((1, 1), (2, 1)))
        assert s == (1 << 1) | (1 << 7)  # b_1 + b_4
        bridge = m.segment_class(((0, 1), (1, 1)))
        assert bridge == 1 << 1
        assert m.segment_class(((0, 0), (0, 1))) == 0

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
            for a, b, _ in enumerate_segments(p):
                cls = m.segment_class((a, b))
                for v in m.points:
                    expected = 1 if v in (a, b) else 0
                    a_v = 1 << (2 * m.rank(v) - 2)
                    assert pairing_f2(cls, a_v) == expected

    def test_segment_classes_never_pair(self, d5):
        # pure-b classes pair to zero, segment against segment
        m = build_model(d5)
        segs = [m.segment_class((a, b)) for a, b, _ in enumerate_segments(d5)]
        for i, x in enumerate(segs):
            for y in segs[i:]:
                assert pairing_f2(x, y) == 0


FORESTS = Path(__file__).parent / "golden" / "forests.json"

#: a lattice image of the quintic whose default paths are mostly the
#: straight-segment fallback
SHEARED_QUINTIC = ((-14, 14), (-9, 9), (11, -6))


def forests_golden_text() -> str:
    """The rows of ``tests/golden/forests.json``: one per forest of
    :func:`consistency_forests` on every valid corpus polygon and the
    sheared quintic, as (polygon, forest index, [point, path] pairs in
    the forest's point order)."""
    polygons = [(n, corpus.load(n)) for n in corpus.VALID]
    polygons.append(("sheared_quintic", polygon_from(SHEARED_QUINTIC)))
    rows = [
        json.dumps([name, k, list(forest.items())], separators=(",", ":"))
        for name, p in polygons
        for k, forest in enumerate(consistency_forests(p))
    ]
    return '{"fields":["polygon","forest","paths"],"rows":[\n' + ",\n".join(rows) + "\n]}\n"


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
        p = polygon_from(SHEARED_QUINTIC)
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

    def test_forests_match_golden(self):
        # every forest builder, byte for byte, on the corpus and the
        # straight-segment fallback
        assert forests_golden_text().encode() == FORESTS.read_bytes()


class TestHyperellipticChain:
    def chain_matrix(self, chain):
        c = np.array(chain)
        return (c @ symplectic_form_z(c.shape[1] // 2) @ c.T).tolist()

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
        assert chain[:4] == [(0, -1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0),
                             (0, 1, 0, -1, 0, 0), (0, 0, 1, 0, 0, 0)]
        sigma0, v1, sigma1, v2 = map(np.array, chain[:4])
        j = symplectic_form_z(3)
        assert sigma0 @ j @ v1 == 1
        assert sigma0 @ j @ sigma1 == 0
        assert v1 @ j @ v2 == 0

    def test_wrong_regime(self, d5):
        with pytest.raises(RegimeError):
            hyperelliptic_chain(d5)
