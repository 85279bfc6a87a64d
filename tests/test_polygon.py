from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from spincycles import polygon
from spincycles.polygon import (
    CASE_ISOMORPHISM,
    CASE_ONE_BLOWUP,
    CASE_TWO_BLOWUPS,
    GenusZeroError,
    LatticePolygon,
    NotSmoothError,
    PolygonError,
    PolygonTooLargeError,
    RegimeError,
    classify_onedim,
    classify_regime,
    enumerate_segments,
    even_points,
    integer_length,
    interior_data,
    is_smooth,
    parse_polygon,
    segment_on_boundary,
)

from spincycles.homology import build_model, default_forest, vertex_forest
from spincycles.relations import verify_chain_relation_homology

from conftest import (
    open_segment_meets_interior_reference,
    pick_genus,
    polygon_from,
    random_smooth_polygon,
    unimodular_image,
)


class TestParse:
    def test_echo(self):
        p = parse_polygon('{"vertices": [[0,0],[5,0],[0,5]]}')
        assert p.vertices == ((0, 0), (5, 0), (0, 5))

    def test_reorder_to_canonical(self):
        p = parse_polygon('{"vertices": [[0,5],[0,0],[5,0]]}')
        assert p.vertices == ((0, 0), (5, 0), (0, 5))

    def test_clockwise_is_normalized(self):
        p = parse_polygon('{"vertices": [[0,0],[0,5],[5,0]]}')
        assert p.vertices == ((0, 0), (5, 0), (0, 5))

    def test_collinear_degenerate(self):
        with pytest.raises(PolygonError) as err:
            parse_polygon('{"vertices": [[0,0],[2,0],[1,0]]}')
        assert err.value.code == "collinear"

    def test_collinear_triple_on_edge(self):
        with pytest.raises(PolygonError) as err:
            parse_polygon('{"vertices": [[0,0],[1,0],[2,0],[0,2]]}')
        assert err.value.code == "collinear"

    def test_non_convex(self):
        with pytest.raises(PolygonError) as err:
            parse_polygon('{"vertices": [[0,0],[2,0],[1,1],[2,2],[0,2]]}')
        assert err.value.code == "non_convex"

    def test_too_few(self):
        with pytest.raises(PolygonError) as err:
            parse_polygon('{"vertices": [[0,0],[1,0]]}')
        assert err.value.code == "too_few_vertices"

    def test_repeated_vertex(self):
        with pytest.raises(PolygonError):
            parse_polygon('{"vertices": [[0,0],[2,0],[2,0],[0,2]]}')

    def test_non_integer(self):
        with pytest.raises(PolygonError) as err:
            parse_polygon('{"vertices": [[0,0],[2.5,0],[0,2]]}')
        assert err.value.code == "non_integer"
        with pytest.raises(PolygonError):
            parse_polygon('{"vertices": [[0,0],[true,false],[0,2]]}')

    def test_missing_key(self):
        with pytest.raises(PolygonError):
            parse_polygon('{"points": []}')

    def test_round_trip(self, d5, rect_4x2, trapezoid_g2_cut):
        for p in (d5, rect_4x2, trapezoid_g2_cut):
            assert parse_polygon(json.dumps({"vertices": [list(v) for v in p.vertices]})) == p

    def test_round_trip_random(self):
        rng = random.Random(7)
        count = 0
        while count < 25:
            p = random_smooth_polygon(rng)
            if p is None:
                continue
            count += 1
            assert parse_polygon(json.dumps({"vertices": [list(v) for v in p.vertices]})) == p


def _parse_verdict(vertices):
    """The canonical cycle ``parse_polygon`` makes of ``vertices``, or None."""
    try:
        return parse_polygon({"vertices": [list(v) for v in vertices]}).vertices
    except PolygonError:
        return None


class TestConstructor:
    """``LatticePolygon(v)`` accepts ``v`` exactly when it is its own canonical form."""

    def test_pentagram_rejected(self):
        star = ((-1, 3), (4, 0), (2, 5), (0, 0), (5, 3))
        with pytest.raises(PolygonError) as err:
            LatticePolygon(star)
        assert err.value.code == "non_convex"
        assert _parse_verdict(star) is None

    def test_rotation_and_reversal_rejected(self):
        square = ((0, 0), (2, 0), (2, 2), (0, 2))
        assert LatticePolygon(square).vertices == square
        with pytest.raises(PolygonError) as err:
            LatticePolygon(square[1:] + square[:1])
        assert err.value.code == "non_canonical"
        with pytest.raises(PolygonError) as err:
            LatticePolygon(square[:1] + square[:0:-1])
        assert err.value.code == "non_convex"

    def test_non_integer_rejected_like_the_parser(self):
        # a float or a bool coordinate gets the parser's code and message
        for cycle in (((0, 0), (2.5, 0), (0, 2)), ((0, 0), (2, 0), (True, 2))):
            with pytest.raises(PolygonError) as err:
                LatticePolygon(cycle)
            with pytest.raises(PolygonError) as parsed:
                parse_polygon({"vertices": [list(v) for v in cycle]})
            assert err.value.code == parsed.value.code == "non_integer"
            bad = next(v for v in cycle if any(type(c) is not int for c in v))
            assert str(err.value) == f"vertex {bad!r} is not a pair of integers"
            assert str(parsed.value) == f"vertex {list(bad)!r} is not a pair of integers"

    def test_accepts_exactly_canonical_cycles(self):
        rng = random.Random(18)
        accepted = 0
        for _ in range(10_000):
            cycle = tuple(
                (rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(1, 7))
            )
            try:
                LatticePolygon(cycle)
                ok = True
            except PolygonError:
                ok = False
            assert ok == (_parse_verdict(cycle) == cycle), cycle
            accepted += ok
        assert accepted > 50


class TestSmooth:
    def test_d5(self, d5):
        assert is_smooth(d5)

    def test_determinant_two(self):
        assert not is_smooth(polygon_from([(0, 0), (2, 0), (0, 1)]))

    def test_trapezoid(self, trapezoid_g2):
        assert is_smooth(trapezoid_g2)


class TestInteriorData:
    def test_d5(self, d5):
        d = interior_data(d5)
        assert d.genus == 6
        assert d.dimension == 2
        assert d.hull_vertices == ((1, 1), (3, 1), (1, 3))
        assert d.root_order == 2
        assert d.interior_points == (
            (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1),
        )

    def test_rect(self, rect_4x2):
        d = interior_data(rect_4x2)
        assert (d.genus, d.dimension) == (3, 1)
        assert d.hull_vertices == ((1, 1), (3, 1))
        assert d.root_order is None
        assert integer_length(*d.hull_vertices) == 2

    def test_square(self, square_3x3):
        d = interior_data(square_3x3)
        assert (d.genus, d.dimension, d.root_order) == (4, 2, 1)
        assert d.hull_vertices == ((1, 1), (2, 1), (2, 2), (1, 2))

    def test_point(self, triangle_d3):
        d = interior_data(triangle_d3)
        assert (d.genus, d.dimension) == (1, 0)
        assert d.hull_vertices == ((1, 1),)

    def test_genus_zero(self):
        with pytest.raises(GenusZeroError):
            interior_data(polygon_from([(0, 0), (1, 0), (0, 1)]))

    def test_pick_oracle_corpus(self, d5, d7, rect_4x2, square_3x3, trapezoid_g2,
                                trapezoid_g2_cut, triangle_d3):
        for p in (d5, d7, rect_4x2, square_3x3, trapezoid_g2,
                  trapezoid_g2_cut, triangle_d3):
            assert interior_data(p).genus == pick_genus(p)

    def test_pick_oracle_random(self):
        rng = random.Random(11)
        count = 0
        while count < 60:
            p = random_smooth_polygon(rng)
            if p is None:
                continue
            count += 1
            assert interior_data(p).genus == pick_genus(p)


class TestScanBudget:
    def test_huge_triangle_refused_before_scanning(self):
        p = parse_polygon({"vertices": [[0, 0], [10**8, 0], [0, 10**8]]})
        for scan in (p.lattice_points, p.interior_lattice_points, lambda: interior_data(p)):
            with pytest.raises(PolygonTooLargeError, match="MAX_BOX_POINTS"):
                scan()

    def test_column_scan_matches_point_tests(self):
        # reference: every box point through the per-point half-plane tests
        rng = random.Random(31)
        count = 0
        while count < 300:
            pts = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(3, 8))]
            hull = polygon._hull_ccw(pts)
            if len(hull) < 3:
                continue
            count += 1
            p = polygon_from(hull)
            xs, ys = [v[0] for v in hull], [v[1] for v in hull]
            box = [
                (x, y)
                for x in range(min(xs), max(xs) + 1)
                for y in range(min(ys), max(ys) + 1)
            ]
            assert p.lattice_points() == [q for q in box if p.contains(q)]
            interior = [q for q in box if all(polygon._cross(a, b, q) > 0 for a, b in p.edges())]
            assert p.interior_lattice_points() == interior
            if interior and interior_data(p).dimension == 2:
                assert interior_data(p).hull_vertices == tuple(polygon._hull_ccw(interior))

    def test_membership_matches_edge_half_planes(self):
        # contains walks the vertex cycle; the reference reads the same
        # half-planes through edges(), on the box points and one step beyond
        rng = random.Random(27)
        count = 0
        while count < 200:
            cloud = [(rng.randint(-7, 7), rng.randint(-7, 7)) for _ in range(rng.randint(3, 8))]
            corners = polygon._hull_ccw(cloud)
            if len(corners) < 3:
                continue
            count += 1
            p = LatticePolygon(tuple(corners))
            xs, ys = [v[0] for v in corners], [v[1] for v in corners]
            for x in range(min(xs) - 1, max(xs) + 2):
                for y in range(min(ys) - 1, max(ys) + 2):
                    sides = [polygon._cross(a, b, (x, y)) for a, b in p.edges()]
                    assert p.contains((x, y)) == all(s >= 0 for s in sides)

    def test_budget_is_on_box_points(self, monkeypatch):
        monkeypatch.setattr(polygon, "MAX_BOX_POINTS", 16)
        assert interior_data(polygon_from([(0, 0), (3, 0), (3, 3), (0, 3)])).genus == 4
        with pytest.raises(PolygonTooLargeError, match="holds 20 lattice points"):
            interior_data(polygon_from([(0, 0), (4, 0), (4, 3), (0, 3)]))


class TestWorkBudgets:
    def test_pick_counts_match_scans(self):
        rng = random.Random(23)
        count = 0
        while count < 60:
            p = random_smooth_polygon(rng)
            if p is None:
                continue
            count += 1
            interior, boundary = p.pick_counts()
            assert interior == pick_genus(p) == len(p.interior_lattice_points())
            assert interior + boundary == len(p.lattice_points())

    def test_largest_served_sizes_admitted(self):
        # the benchmark deck's 16 x 14 rectangle (255 points, genus 195) and
        # degree-21 triangle, and the genus-100 strip of the relation tests
        for verts, points, genus in (
            ([(0, 0), (16, 0), (16, 14), (0, 14)], 255, 195),
            ([(0, 0), (21, 0), (0, 21)], 253, 190),
            ([(0, 0), (101, 0), (101, 2), (0, 2)], 306, 100),
        ):
            interior, boundary = polygon_from(verts).pick_counts()
            assert (interior + boundary, interior) == (points, genus)
            assert points * (points - 1) // 2 <= polygon.MAX_SEGMENT_PAIRS
            assert genus <= polygon.MAX_MODEL_GENUS

    def test_refused_before_any_scan(self, monkeypatch):
        def no_scan(self, strict):
            raise AssertionError("scanned")

        monkeypatch.setattr(polygon.LatticePolygon, "_scan", no_scan)
        tri = polygon_from([(0, 0), (300, 0), (0, 300)])  # 45,451 points
        with pytest.raises(PolygonTooLargeError, match="MAX_SEGMENT_PAIRS = 250000"):
            enumerate_segments(tri)
        square = polygon_from([(0, 0), (498, 0), (498, 498), (0, 498)])  # genus 497^2
        for build in (build_model, default_forest, vertex_forest):
            with pytest.raises(PolygonTooLargeError, match="MAX_MODEL_GENUS = 300"):
                build(square)

    def test_segment_budget_boundary(self, monkeypatch):
        square = polygon_from([(0, 0), (3, 0), (3, 3), (0, 3)])  # 16 points
        monkeypatch.setattr(polygon, "MAX_SEGMENT_PAIRS", 120)
        assert len(enumerate_segments(square)) > 0
        monkeypatch.setattr(polygon, "MAX_SEGMENT_PAIRS", 119)
        with pytest.raises(PolygonTooLargeError, match="16 lattice points make 120 pairs"):
            enumerate_segments(square)

    def test_model_budget_boundary(self, monkeypatch):
        square = polygon_from([(0, 0), (3, 0), (3, 3), (0, 3)])  # genus 4
        monkeypatch.setattr(polygon, "MAX_MODEL_GENUS", 4)
        assert build_model(square).genus == 4
        assert verify_chain_relation_homology(4)["pass"]
        monkeypatch.setattr(polygon, "MAX_MODEL_GENUS", 3)
        for build in (build_model, default_forest, vertex_forest):
            with pytest.raises(PolygonTooLargeError, match="genus 4 is over"):
                build(square)
        with pytest.raises(PolygonTooLargeError, match="MAX_MODEL_GENUS = 3"):
            verify_chain_relation_homology(4)


class TestEvenPoints:
    def test_d5_partition(self, d5):
        parity = even_points(d5)
        assert {pt for pt, e in parity.items() if e} == {(1, 1), (1, 3), (3, 1)}
        assert {pt for pt, e in parity.items() if not e} == {(2, 1), (1, 2), (2, 2)}

    def test_d7_census(self, d7):
        parity = even_points(d7)
        evens = {pt for pt, e in parity.items() if e}
        assert evens == {
            (x, y)
            for x in range(1, 7, 2)
            for y in range(1, 7, 2)
            if x + y <= 6
        }
        assert len(evens) == 6

    def test_root_order_one_rejected(self, square_3x3):
        with pytest.raises(RegimeError):
            even_points(square_3x3)

    def test_vertex_independence(self, d5, d7):
        # recomputing parities from every hull vertex gives the same partition
        for p in (d5, d7):
            d = interior_data(p)
            base = even_points(p)
            for v0 in d.hull_vertices:
                alt = {
                    pt: (pt[0] - v0[0]) % 2 == 0 and (pt[1] - v0[1]) % 2 == 0
                    for pt in d.interior_points
                }
                assert alt == base

    def test_hull_vertices_even(self):
        # even root order forces every hull vertex into one parity class
        rng = random.Random(13)
        checked = 0
        polys = [polygon_from([(0, 0), (5, 0), (0, 5)]),
                 polygon_from([(0, 0), (7, 0), (0, 7)]),
                 polygon_from([(0, 0), (4, 0), (4, 4), (0, 4)]),
                 polygon_from([(0, 0), (6, 0), (6, 6), (0, 6)])]
        while checked < 25:
            p = random_smooth_polygon(rng)
            if p is None:
                continue
            checked += 1
            polys.append(p)
        for p in polys:
            d = interior_data(p)
            if d.dimension != 2 or d.root_order % 2:
                continue
            parity = even_points(p)
            assert all(parity[v] for v in d.hull_vertices)


class TestSegments:
    def test_bridge_clip_matches_fraction_reference(self):
        # every is_bridge on seeded polygons with 0-, 1- and 2-D interior
        # hulls against the Fraction clip; the 2-D draws include candidates
        # that meet or avoid the hull, that touch it at a vertex, and that
        # run along a hull edge direction
        rng = random.Random(39)
        dims = {0: 0, 1: 0, 2: 0}
        seen = {"meets": 0, "avoids": 0, "vertex": 0, "edge_direction": 0}
        while sum(dims.values()) < 240:
            width, height = rng.randint(2, 7), rng.randint(2, 7)
            cloud = [(rng.randint(0, width), rng.randint(0, height))
                     for _ in range(rng.randint(3, 9))]
            corners = polygon._hull_ccw(cloud)
            if len(corners) < 3:
                continue
            p = LatticePolygon(tuple(corners))
            try:
                d = interior_data(p)
            except GenusZeroError:
                continue
            dims[d.dimension] += 1
            interior = set(d.interior_points)
            hull = d.hull_polygon if d.dimension == 2 else None
            dirs = set()
            for s, t in hull.edges() if hull else ():
                e = polygon._primitive(polygon._sub(t, s))
                dirs |= {e, (-e[0], -e[1])}
            for a, b, is_bridge in enumerate_segments(p):
                if (a in interior) == (b in interior):
                    assert not is_bridge, (corners, a, b)
                    continue
                u, w = (b, a) if a in interior else (a, b)
                if hull is None:
                    assert is_bridge, (corners, u, w)
                    continue
                if min(polygon._cross(s, t, w) for s, t in hull.edges()) > 0:
                    assert not is_bridge, (corners, u, w)
                    continue
                meets = open_segment_meets_interior_reference(hull, u, w)
                assert is_bridge is not meets, (corners, u, w)
                seen["meets" if meets else "avoids"] += 1
                seen["vertex"] += w in hull.vertices
                seen["edge_direction"] += polygon._sub(u, w) in dirs
        assert min(dims.values()) >= 10, dims
        assert min(seen.values()) > 100, seen

    def test_d5_examples(self, d5):
        segs = {(a, b): bridge for a, b, bridge in enumerate_segments(d5)}
        assert segs[((0, 1), (1, 1))] is True
        assert segs[((1, 1), (2, 1))] is False
        assert segs[((0, 0), (1, 1))] is True

    def test_all_primitive(self, d5):
        from spincycles.polygon import integer_length

        for a, b, _ in enumerate_segments(d5):
            assert integer_length(a, b) == 1

    def test_bridge_endpoints(self, d5):
        d = interior_data(d5)
        hull = d.hull_polygon
        interior = set(d.interior_points)
        for a, b, is_bridge in enumerate_segments(d5):
            if is_bridge:
                sides = {a in interior, b in interior}
                assert sides == {True, False}
                inner = a if a in interior else b
                assert min(polygon._cross(s, t, inner) for s, t in hull.edges()) == 0

    def test_bridge_avoids_hull_interior(self, d7):
        # (1,0)-(2,1) touches the hull only at the vertex-adjacent edge side
        segs = {(a, b): bridge for a, b, bridge in enumerate_segments(d7)}
        # crossing segment: (0,3)-(1,3)? (1,3) is interior non-boundary of hull?
        d = interior_data(d7)
        hull = d.hull_polygon
        for s, bridge in segs.items():
            a, b = s
            if bridge:
                for x in (a, b):
                    assert min(polygon._cross(*edge, x) for edge in hull.edges()) <= 0

    def test_genus_zero_rejected(self):
        with pytest.raises(GenusZeroError):
            enumerate_segments(polygon_from([(0, 0), (1, 0), (0, 1)]))

    def test_segment_hull_bridges(self, rect_4x2):
        # every point of a segment hull counts as its boundary, and the
        # open 2-dimensional interior is empty
        segs = {(a, b): bridge for a, b, bridge in enumerate_segments(rect_4x2)}
        assert segs[((0, 1), (1, 1))] is True
        assert segs[((1, 0), (1, 1))] is True
        assert segs[((3, 1), (4, 1))] is True
        assert segs[((1, 1), (2, 1))] is False
        assert segs[((0, 0), (1, 0))] is False

    def test_point_hull_bridges(self, triangle_d3):
        segs = {(a, b): bridge for a, b, bridge in enumerate_segments(triangle_d3)}
        assert segs[((0, 1), (1, 1))] is True
        assert segs[((0, 0), (1, 0))] is False

    def test_segment_on_boundary(self, d5):
        assert segment_on_boundary(d5, (0, 0), (1, 0))
        assert segment_on_boundary(d5, (1, 4), (2, 3))
        assert not segment_on_boundary(d5, (1, 1), (2, 1))


class TestRegime:
    def test_corpus(self, d5, d7, rect_4x2, square_3x3, triangle_d3,
                    trapezoid_g2, trapezoid_g2_cut):
        assert classify_regime(d5) == "spin"
        assert classify_regime(d7) == "algebraic_even"
        assert classify_regime(rect_4x2) == "hyperelliptic"
        assert classify_regime(square_3x3) == "unobstructed"
        assert classify_regime(triangle_d3) == "dim0"
        assert classify_regime(trapezoid_g2) == "hyperelliptic"
        assert classify_regime(trapezoid_g2_cut) == "hyperelliptic"

    def test_higher_root_odd(self):
        # degree-6 triangle: interior hull edges of length 3
        assert classify_regime(polygon_from([(0, 0), (6, 0), (0, 6)])) == (
            "higher_root_odd"
        )

    def test_genus_zero(self):
        with pytest.raises(GenusZeroError):
            classify_regime(polygon_from([(0, 0), (1, 0), (0, 1)]))

    def test_not_smooth(self):
        with pytest.raises(NotSmoothError):
            classify_regime(polygon_from([(0, 0), (4, 0), (0, 2)]))

    def test_genus_bound_in_even_regimes(self):
        # spin / algebraic_even polygons always have genus >= 6
        rng = random.Random(17)
        polys = [polygon_from([(0, 0), (5, 0), (0, 5)]),
                 polygon_from([(0, 0), (7, 0), (0, 7)]),
                 polygon_from([(0, 0), (4, 0), (4, 4), (0, 4)]),
                 polygon_from([(0, 0), (6, 0), (6, 6), (0, 6)])]
        checked = 0
        while checked < 120:
            p = random_smooth_polygon(rng)
            if p is None:
                continue
            checked += 1
            polys.append(p)
        hits = 0
        for p in polys:
            regime = classify_regime(p)
            if regime in ("spin", "algebraic_even"):
                hits += 1
                assert interior_data(p).genus >= 6, p.vertices
        assert hits >= 2  # the family must actually exercise the branch


class TestOnedim:
    def test_rect(self, rect_4x2):
        h = classify_onedim(rect_4x2)
        assert (h.alpha, h.n, h.case) == (0, 4, CASE_ISOMORPHISM)

    def test_trapezoid(self, trapezoid_g2):
        h = classify_onedim(trapezoid_g2)
        assert (h.alpha, h.n, h.case) == (1, 2, CASE_ISOMORPHISM)

    def test_one_blowup(self, trapezoid_g2_cut):
        h = classify_onedim(trapezoid_g2_cut)
        assert (h.alpha, h.n, h.case) == (1, 2, CASE_ONE_BLOWUP)

    def test_two_blowups(self):
        p = polygon_from([(0, 0), (4, 0), (4, 1), (3, 2), (1, 2), (0, 1)])
        h = classify_onedim(p)
        assert h.case == CASE_TWO_BLOWUPS
        assert h.alpha + h.n - 1 == interior_data(p).genus

    def test_alpha_plus_n(self):
        # alpha + n - 1 = genus across random strip polygons
        rng = random.Random(23)
        checked = 0
        while checked < 60:
            p = random_smooth_polygon(rng)
            if p is None:
                continue
            try:
                d = interior_data(p)
            except GenusZeroError:
                continue
            if d.dimension != 1:
                continue
            checked += 1
            h = classify_onedim(p)
            assert h.alpha >= 0 and h.n >= 1
            assert h.alpha + h.n - 1 == d.genus

    def test_wrong_dimension(self, d5):
        with pytest.raises(RegimeError):
            classify_onedim(d5)

    def test_transform_invariance(self, rect_4x2, trapezoid_g2_cut):
        # classification is a lattice invariant (shear + transpose + shift)
        for p, expected in ((rect_4x2, (0, 4)), (trapezoid_g2_cut, (1, 2))):
            sheared = [(x + 2 * y + 3, y - 2) for (x, y) in p.vertices]
            moved = polygon_from([(y, x) for (x, y) in sheared])
            h = classify_onedim(moved)
            assert (h.alpha, h.n) == expected


STRIPS = Path(__file__).parent / "golden" / "strips.json"


def smooth_strips(genus: int):
    """Every smooth width-2 strip with interior points (1,1)..(g,1) and
    bottom row [0, B1], one per shear class fixing the interior line.

    The rows y = 0 and y = 2 have two ends each.  A vertex (0, 1) cuts the
    left corner when the top row starts at 1, a vertex (g + 1, 1) the
    right corner when B1 + T1 = 2g + 1.
    """
    for t0 in (0, 1):
        for cut in (0, 1):
            for b1 in range(1, 2 * genus + 2 - cut - t0):
                t1 = 2 * genus + 2 - cut - b1
                yield polygon_from(
                    [(0, 0), (b1, 0)] + [(genus + 1, 1)] * cut
                    + [(t1, 2), (t0, 2)] + [(0, 1)] * t0
                )


class TestGoldenStrips:
    """``tests/golden/strips.json`` pins (alpha, n, case) of every smooth
    strip of genus 2-10 with bottom row starting at the origin, as read by
    the former search over affine normal-form rebuilds."""

    rows = json.loads(STRIPS.read_text())["rows"]

    def test_table_covers_every_strip(self):
        table = {tuple(map(tuple, verts)) for verts, *_ in self.rows}
        expected = {p.vertices for g in range(2, 11) for p in smooth_strips(g)}
        assert len(self.rows) == len(table) == 432
        assert table == expected

    def test_rows_and_their_lattice_images(self):
        rng = random.Random(30)
        for verts, alpha, n, case in self.rows:
            for image in (verts, unimodular_image(verts, rng), unimodular_image(verts, rng)):
                h = classify_onedim(polygon_from(image))
                assert (h.alpha, h.n, h.case) == (alpha, n, case), image


class TestEvenPointHelper:
    def test_outside_hull(self, d5):
        d = interior_data(d5)
        assert d.is_even((1, 1))
        assert not d.is_even((0, 1))
        assert not d.is_even((2, 1))
