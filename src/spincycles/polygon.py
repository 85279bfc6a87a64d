"""Exact geometry of convex lattice polygons.

A polygon is stored as a tuple of integer vertex pairs, counterclockwise,
starting at the lexicographically smallest vertex, with no repeated or
collinear-consecutive vertices.  All predicates use integer (or Fraction)
arithmetic only; lattice points are enumerated column by column over the
bounding box.  Work is budgeted from the vertices alone (Pick's theorem),
before any scan: a box over ``MAX_BOX_POINTS`` lattice points, segment
enumeration over ``MAX_SEGMENT_PAIRS`` point pairs, or a homology model
over genus ``MAX_MODEL_GENUS`` raises :class:`PolygonTooLargeError`.

Terminology used throughout the package:

* interior hull -- convex hull of the interior lattice points (a polygon,
  a segment, or a single point); its lattice points are exactly the
  interior lattice points of the ambient polygon.
* genus -- number of interior lattice points.
* root order -- gcd of the integer lengths of the interior hull's edges,
  defined only when the hull is two-dimensional.
* even point -- lattice point whose difference from a vertex of the
  interior hull has even coordinates (requires even root order; the choice
  of vertex does not matter).
* primitive segment -- segment between two lattice points of the polygon
  whose difference is a primitive vector (integer length one).
* bridge -- primitive segment joining a boundary lattice point of the
  polygon to a boundary lattice point of the interior hull whose open
  segment avoids the hull's 2-dimensional interior.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

Point = tuple[int, int]

REGIME_DIM0 = "dim0"
REGIME_HYPERELLIPTIC = "hyperelliptic"
REGIME_UNOBSTRUCTED = "unobstructed"
REGIME_SPIN = "spin"
REGIME_ALGEBRAIC_EVEN = "algebraic_even"
REGIME_HIGHER_ROOT_ODD = "higher_root_odd"

#: regimes in which the canonical spin quadratic form is defined
SPIN_REGIMES = (REGIME_SPIN, REGIME_ALGEBRAIC_EVEN)

#: lattice points a bounding-box scan may visit; the check costs O(#vertices)
MAX_BOX_POINTS = 250_000

#: lattice-point pairs enumerate_segments may test, N(N - 1)/2 for N points;
#: ``spincycles segments --json`` at this size takes about 4 s (2-core Xeon)
MAX_SEGMENT_PAIRS = 250_000

#: interior points of a homology model, also the largest abstract genus a
#: relation check accepts; ``verify hyperelliptic-word`` (cubic in the
#: genus) on a genus-300 strip takes about 5 s (2-core Xeon)
MAX_MODEL_GENUS = 300


class PolygonError(ValueError):
    """Invalid polygon input.  ``code`` distinguishes the failure mode."""

    code = "invalid"

    def __init__(self, message, code=None):
        super().__init__(message)
        if code is not None:
            self.code = code


class GenusZeroError(PolygonError):
    """The polygon has no interior lattice points (genus 0)."""

    code = "genus_zero"


class NotSmoothError(PolygonError):
    """Some pair of edge directions at a vertex does not generate the lattice."""

    code = "not_smooth"


class RegimeError(ValueError):
    """Operation not applicable to this polygon's obstruction regime."""


class PolygonTooLargeError(RuntimeError):
    """An input over a work budget."""


def check_model_genus(genus: int) -> None:
    """Refuse a homology model (or abstract genus) over ``MAX_MODEL_GENUS``."""
    if genus > MAX_MODEL_GENUS:
        raise PolygonTooLargeError(
            f"genus {genus} is over the model budget MAX_MODEL_GENUS = {MAX_MODEL_GENUS}"
        )


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def _primitive(v: Point) -> Point:
    g = gcd(abs(v[0]), abs(v[1]))
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return (v[0] // g, v[1] // g)


def integer_length(a: Point, b: Point) -> int:
    """Number of lattice points on the closed segment [a, b], minus one."""
    return gcd(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _hull_ccw(points: list[Point]) -> list[Point]:
    """Strict convex hull (no collinear vertices), CCW from the lex-smallest."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


@dataclass(frozen=True)
class LatticePolygon:
    """Convex lattice polygon; vertices CCW from the lex-smallest vertex."""

    vertices: tuple[Point, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(map(tuple, self.vertices)))
        _validate(self.vertices)

    def edges(self) -> list[tuple[Point, Point]]:
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def contains(self, p: Point) -> bool:
        """Closed membership test."""
        return all(_cross(a, b, p) >= 0 for a, b in self.edges())

    def strictly_contains(self, p: Point) -> bool:
        return all(_cross(a, b, p) > 0 for a, b in self.edges())

    def on_boundary(self, p: Point) -> bool:
        return self.contains(p) and not self.strictly_contains(p)

    def _scan_box(self) -> tuple[int, int, int, int]:
        """Bounding box (x0, x1, y0, y1), refused above ``MAX_BOX_POINTS``."""
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        points = (x1 - x0 + 1) * (y1 - y0 + 1)
        if points > MAX_BOX_POINTS:
            raise PolygonTooLargeError(
                f"bounding box holds {points} lattice points, over the scan "
                f"budget MAX_BOX_POINTS = {MAX_BOX_POINTS}"
            )
        return x0, x1, y0, y1

    def pick_counts(self) -> tuple[int, int]:
        """(interior, boundary) lattice point counts by Pick's theorem."""
        edges = self.edges()
        twice_area = sum(a[0] * b[1] - b[0] * a[1] for a, b in edges)
        boundary = sum(integer_length(a, b) for a, b in edges)
        return (twice_area - boundary + 2) // 2, boundary

    def _scan(self, strict: bool) -> list[Point]:
        """Lattice points, lexicographic; per column x each edge (a, b) keeps
        the y with (b - a) x (p - a) >= strict (1 drops the boundary)."""
        x0, x1, y0, y1 = self._scan_box()
        edges = [(a, b[0] - a[0], b[1] - a[1]) for a, b in self.edges()]
        out = []
        for x in range(x0, x1 + 1):
            lo, hi = y0, y1
            for a, dx, dy in edges:
                r = dy * (x - a[0]) + strict  # need dx * (y - a_y) >= r
                if dx > 0:
                    lo = max(lo, a[1] - (-r // dx))
                elif dx < 0:
                    hi = min(hi, a[1] + r // dx)
                elif r > 0:
                    hi = lo - 1
            out.extend((x, y) for y in range(lo, hi + 1))
        return out

    def lattice_points(self) -> list[Point]:
        """All lattice points of the closed polygon, lexicographic order."""
        return self._scan(False)

    def interior_lattice_points(self) -> list[Point]:
        """Lattice points of the open polygon, lexicographic order."""
        return self._scan(True)

    def to_json_dict(self) -> dict:
        return {"vertices": [list(v) for v in self.vertices]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _validate(vertices: tuple[Point, ...]) -> None:
    if len(vertices) < 3:
        raise PolygonError(
            f"a polygon needs at least 3 distinct vertices, got {len(vertices)}",
            code="too_few_vertices",
        )
    if len(set(vertices)) != len(vertices):
        raise PolygonError("repeated vertex", code="too_few_vertices")
    n = len(vertices)
    for i in range(n):
        c = _cross(vertices[i], vertices[(i + 1) % n], vertices[(i + 2) % n])
        if c == 0:
            raise PolygonError(
                "three consecutive vertices are collinear", code="collinear"
            )
        if c < 0:
            raise PolygonError(
                "vertices are not in counterclockwise convex position",
                code="non_convex",
            )
    if vertices[0] != min(vertices):
        raise PolygonError(
            "vertex list must start at the lexicographically smallest vertex",
            code="non_canonical",
        )


def _canonicalize(raw: list[Point]) -> tuple[Point, ...]:
    """CCW-normalize and rotate a vertex cycle to canonical form."""
    if len(raw) != len(set(raw)):
        raise PolygonError("repeated vertex", code="too_few_vertices")
    if len(raw) < 3:
        raise PolygonError(
            f"a polygon needs at least 3 distinct vertices, got {len(raw)}",
            code="too_few_vertices",
        )
    # signed area decides orientation; zero area means a degenerate input
    area2 = sum(
        raw[i][0] * raw[(i + 1) % len(raw)][1] - raw[(i + 1) % len(raw)][0] * raw[i][1]
        for i in range(len(raw))
    )
    if area2 == 0:
        raise PolygonError("degenerate (zero-area) vertex cycle", code="collinear")
    cycle = list(raw) if area2 > 0 else list(reversed(raw))
    hull = _hull_ccw(cycle)
    if len(hull) < 3:
        raise PolygonError("all vertices are collinear", code="collinear")
    if set(hull) != set(cycle):
        # some listed vertex is not a corner: on an edge => collinear, inside => non-convex
        boundary = LatticePolygon(tuple(hull))
        for p in cycle:
            if p in set(hull):
                continue
            if boundary.on_boundary(p):
                raise PolygonError(
                    f"vertex {p} lies on an edge (collinear triple)", code="collinear"
                )
            raise PolygonError(f"vertex {p} is not in convex position", code="non_convex")
    if len(hull) != len(cycle):
        raise PolygonError("repeated vertex", code="too_few_vertices")
    k = cycle.index(hull[0])
    rotated = cycle[k:] + cycle[:k]
    if rotated != hull:
        raise PolygonError(
            "vertex cycle does not traverse the convex hull in order",
            code="non_convex",
        )
    return tuple(hull)


def parse_polygon(text: str | bytes | dict) -> LatticePolygon:
    """Parse ``{"vertices": [[x, y], ...]}`` into a canonical polygon.

    Accepts either orientation; the result is CCW starting at the
    lexicographically smallest vertex.  Raises :class:`PolygonError` with a
    specific ``code`` for non-integer coordinates, too few distinct
    vertices, collinear triples, or non-convex input.
    """
    doc = json.loads(text) if not isinstance(text, dict) else text
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise PolygonError('expected an object with a "vertices" array', code="format")
    raw = doc["vertices"]
    if not isinstance(raw, list):
        raise PolygonError('"vertices" must be an array', code="format")
    verts: list[Point] = []
    for item in raw:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(type(c) is int for c in item)
        ):
            raise PolygonError(
                f"vertex {item!r} is not a pair of integers", code="non_integer"
            )
        verts.append((item[0], item[1]))
    return LatticePolygon(_canonicalize(verts))


def is_smooth(p: LatticePolygon) -> bool:
    """True iff at every vertex the primitive edge directions generate Z^2."""
    v = p.vertices
    n = len(v)
    for i in range(n):
        d1 = _primitive(_sub(v[(i + 1) % n], v[i]))
        d2 = _primitive(_sub(v[i - 1], v[i]))
        if abs(d1[0] * d2[1] - d1[1] * d2[0]) != 1:
            return False
    return True


@dataclass(frozen=True)
class InteriorData:
    """Interior lattice points of a polygon together with their hull."""

    interior_points: tuple[Point, ...]  # lexicographic order
    hull_vertices: tuple[Point, ...]  # 1 point, 2 endpoints, or CCW cycle
    dimension: int  # 0, 1 or 2
    genus: int
    root_order: int | None  # None when dimension < 2

    @property
    def hull_polygon(self) -> LatticePolygon:
        if self.dimension != 2:
            raise RegimeError("interior hull is not two-dimensional")
        return LatticePolygon(self.hull_vertices)

    @property
    def segment_length(self) -> int:
        if self.dimension != 1:
            raise RegimeError("interior hull is not a segment")
        return integer_length(*self.hull_vertices)

    def is_even(self, pt: Point) -> bool:
        """Parity of an arbitrary lattice point relative to the interior hull.

        Defined only when the interior hull is two-dimensional with even
        root order; the reference vertex is immaterial because all hull
        vertices then share one parity class.
        """
        if self.dimension != 2 or self.root_order % 2 != 0:
            raise RegimeError(
                "evenness undefined: interior hull must be 2-dimensional with even root order"
            )
        v0 = self.hull_vertices[0]
        return (pt[0] - v0[0]) % 2 == 0 and (pt[1] - v0[1]) % 2 == 0


def interior_data(p: LatticePolygon) -> InteriorData:
    """Interior points, their hull, genus and root order.

    Raises :class:`GenusZeroError` when there are no interior points.
    """
    pts = p.interior_lattice_points()  # lexicographic
    if not pts:
        raise GenusZeroError("polygon has no interior lattice points")
    if len(pts) == 1:
        return InteriorData(tuple(pts), (pts[0],), 0, 1, None)
    if all(_cross(pts[0], pts[1], q) == 0 for q in pts):
        return InteriorData(tuple(pts), (pts[0], pts[-1]), 1, len(pts), None)
    # every point lies between the ends of its column, so their hull is the hull
    ends = [q for a, b in zip(pts, pts[1:]) if a[0] != b[0] for q in (a, b)]
    hull = _hull_ccw([pts[0], pts[-1], *ends])
    k = len(hull)
    lengths = [integer_length(hull[i], hull[(i + 1) % k]) for i in range(k)]
    root = 0
    for length in lengths:
        root = gcd(root, length)
    return InteriorData(tuple(pts), tuple(hull), 2, len(pts), root)


def is_even_point(p: LatticePolygon, pt: Point) -> bool:
    """Parity of a lattice point of ``p``; see :meth:`InteriorData.is_even`."""
    return interior_data(p).is_even(pt)


def even_points(p: LatticePolygon) -> dict[Point, bool]:
    """Map each interior lattice point to its evenness.

    Requires a 2-dimensional interior hull with even root order; raises
    :class:`RegimeError` otherwise ("evenness undefined").
    """
    d = interior_data(p)
    return {pt: d.is_even(pt) for pt in d.interior_points}


@dataclass(frozen=True)
class Segment:
    """Primitive integer segment of the polygon; endpoints in lex order."""

    endpoints: tuple[Point, Point]
    is_bridge: bool

    def __post_init__(self):
        a, b = self.endpoints
        if integer_length(a, b) != 1:
            raise ValueError(f"segment {a}-{b} is not primitive")
        if a > b:
            object.__setattr__(self, "endpoints", (b, a))


def _open_segment_meets_interior(
    hull: LatticePolygon, a: Point, b: Point
) -> bool:
    """Exact test: does the open segment (a, b) meet the open hull region?

    Clips the parametrized segment against every strict half-plane of the
    hull with Fraction arithmetic; touching the hull boundary is allowed.
    """
    lo, hi = Fraction(0), Fraction(1)
    for u, w in hull.edges():
        # strict side value along the segment: s(t) = base + t * slope > 0
        base = _cross(u, w, a)
        slope = _cross(u, w, b) - base
        if slope == 0:
            if base <= 0:
                return False
        elif slope > 0:
            lo = max(lo, Fraction(-base, slope))
        else:
            hi = min(hi, Fraction(-base, slope))
    return lo < hi


def segment_on_boundary(p: LatticePolygon, a: Point, b: Point) -> bool:
    """Is the whole segment [a, b] contained in the polygon boundary?"""
    for u, w in p.edges():
        if _cross(u, w, a) == 0 and _cross(u, w, b) == 0:
            if p.contains(a) and p.contains(b):
                return True
    return False


def enumerate_segments(p: LatticePolygon) -> list[Segment]:
    """All primitive integer segments of the polygon, bridges flagged.

    A bridge joins a boundary lattice point of the polygon to a boundary
    lattice point of the interior hull and avoids the hull's open interior
    (touching the hull boundary is allowed).  Requires genus >= 1; more
    than ``MAX_SEGMENT_PAIRS`` lattice-point pairs raise
    :class:`PolygonTooLargeError` before any scan.
    """
    points = sum(p.pick_counts())
    pairs = points * (points - 1) // 2
    if pairs > MAX_SEGMENT_PAIRS:
        raise PolygonTooLargeError(
            f"{points} lattice points make {pairs} pairs, over the segment "
            f"budget MAX_SEGMENT_PAIRS = {MAX_SEGMENT_PAIRS}"
        )
    d = interior_data(p)  # raises on genus 0
    interior = set(d.interior_points)
    all_pts = p.lattice_points()
    boundary = [q for q in all_pts if q not in interior]
    if d.dimension == 2:
        hull = d.hull_polygon
        hull_boundary = {q for q in d.interior_points if hull.on_boundary(q)}
    else:
        hull = None
        hull_boundary = set(d.interior_points)
    out = []
    for i, a in enumerate(all_pts):
        for b in all_pts[i + 1 :]:
            if integer_length(a, b) != 1:
                continue
            bridge = False
            for u, w in ((a, b), (b, a)):
                if u not in interior and w in hull_boundary:
                    if hull is None or not _open_segment_meets_interior(hull, u, w):
                        bridge = True
                    break
            out.append(Segment((a, b), bridge))
    return out


@dataclass(frozen=True)
class AffineMap:
    """Affine lattice map x -> L x + t with integer L of determinant +-1."""

    linear: tuple[tuple[int, int], tuple[int, int]]
    translation: Point

    def __post_init__(self):
        (a, b), (c, d) = self.linear
        if abs(a * d - b * c) != 1:
            raise ValueError("linear part must have determinant +-1")

    @property
    def det(self) -> int:
        (a, b), (c, d) = self.linear
        return a * d - b * c

    def apply(self, p: Point) -> Point:
        (a, b), (c, d) = self.linear
        return (a * p[0] + b * p[1] + self.translation[0],
                c * p[0] + d * p[1] + self.translation[1])

    def apply_polygon(self, p: LatticePolygon) -> LatticePolygon:
        verts = [self.apply(v) for v in p.vertices]
        return LatticePolygon(_canonicalize(verts))

    def inverse(self) -> "AffineMap":
        (a, b), (c, d) = self.linear
        det = a * d - b * c
        # det is +-1 so det * adj is the exact integer inverse
        li = ((d * det, -b * det), (-c * det, a * det))
        tx, ty = self.translation
        it = (-(li[0][0] * tx + li[0][1] * ty), -(li[1][0] * tx + li[1][1] * ty))
        return AffineMap(li, it)


CORNER_MEETING = "meeting"  # the two outer edges meet at (-1, -1)
CORNER_TRUNCATED = "truncated"  # a unit edge of direction (-1, 1) sits between them


def normalize_at_vertex(
    p: LatticePolygon, kappa: Point
) -> tuple[AffineMap, LatticePolygon, str]:
    """Normalize at a vertex of the interior hull.

    Returns an affine lattice map sending ``kappa`` to the origin and its
    two adjacent hull edges onto the rays spanned by (1,0) and (0,1), the
    transformed polygon, and the local corner case: after normalization
    the polygon has an edge on ``y = -1`` and one on ``x = -1``; either they
    meet at ``(-1,-1)`` ("meeting") or a unit edge of direction ``(-1,1)``
    lies between them ("truncated").
    """
    d = interior_data(p)
    if d.dimension != 2:
        raise RegimeError("normalization requires a 2-dimensional interior hull")
    hull = d.hull_vertices
    if kappa not in hull:
        raise ValueError(f"{kappa} is not a vertex of the interior hull")
    k = hull.index(kappa)
    d_out = _primitive(_sub(hull[(k + 1) % len(hull)], kappa))
    d_back = _primitive(_sub(hull[k - 1], kappa))
    det = d_out[0] * d_back[1] - d_out[1] * d_back[0]
    if abs(det) != 1:
        raise RegimeError("interior hull is not smooth at this vertex")
    # L = [d_out d_back]^{-1}, so L d_out = (1,0) and L d_back = (0,1)
    li = (
        (d_back[1] * det, -d_back[0] * det),
        (-d_out[1] * det, d_out[0] * det),
    )
    amap = AffineMap(
        li,
        (
            -(li[0][0] * kappa[0] + li[0][1] * kappa[1]),
            -(li[1][0] * kappa[0] + li[1][1] * kappa[1]),
        ),
    )
    image = amap.apply_polygon(p)
    verts = image.vertices
    n = len(verts)
    if (-1, -1) in verts:
        case = CORNER_MEETING
    else:
        idx = {v: i for i, v in enumerate(verts)}
        if (
            (0, -1) in idx
            and (-1, 0) in idx
            and (idx[(-1, 0)] - idx[(0, -1)]) % n in (1, n - 1)
        ):
            case = CORNER_TRUNCATED
        else:
            raise RegimeError(
                "unexpected corner shape at the normalized vertex; "
                "is the polygon smooth?"
            )
    return amap, image, case


def classify_regime(p: LatticePolygon) -> str:
    """Obstruction regime of a smooth polygon with genus >= 1.

    One of ``dim0``, ``hyperelliptic`` (interior hull a segment),
    ``unobstructed`` (root order 1), ``spin`` (root order exactly 2),
    ``algebraic_even`` (even root order > 2), ``higher_root_odd``
    (odd root order > 1).
    """
    if not is_smooth(p):
        raise NotSmoothError("regime classification requires a smooth polygon")
    d = interior_data(p)  # raises GenusZeroError
    if d.dimension == 0:
        return REGIME_DIM0
    if d.dimension == 1:
        return REGIME_HYPERELLIPTIC
    n = d.root_order
    if n == 1:
        return REGIME_UNOBSTRUCTED
    if n == 2:
        return REGIME_SPIN
    if n % 2 == 0:
        return REGIME_ALGEBRAIC_EVEN
    return REGIME_HIGHER_ROOT_ODD


CASE_ISOMORPHISM = "isomorphism"
CASE_ONE_BLOWUP = "one_blowup"
CASE_TWO_BLOWUPS = "two_blowups"


@dataclass(frozen=True)
class HirzebruchClassification:
    """Width-2 strip data (alpha, n) with alpha + n - 1 = genus.

    ``case`` counts the unit corner truncations of the underlying
    trapezoid: ``isomorphism`` (none), ``one_blowup``, ``two_blowups``.
    The detection pattern is reconstructed from the strip normal form;
    when several (alpha, n) readings rebuild the same polygon (blow-ups of
    different strips can coincide) the one with maximal alpha is reported.
    """

    alpha: int
    n: int
    case: str


def _row_range(poly: LatticePolygon, y: int) -> tuple[int, int]:
    xs = [q[0] for q in poly.lattice_points() if q[1] == y]
    return min(xs), max(xs)


def classify_onedim(p: LatticePolygon) -> HirzebruchClassification:
    """Classify a smooth polygon whose interior hull is a segment.

    Normalizes the interior points to (1,1)..(g,1); the polygon then lives
    in the strip 0 <= y <= 2 and is a trapezoid with vertices (e,0), (r,0),
    (s,2), (-e,2) with at most two unit corner truncations.  Reads off
    alpha = (r-s)/2 - e and n = s + e, rebuilding the polygon from each
    candidate reading as verification.
    """
    if not is_smooth(p):
        raise NotSmoothError("classification requires a smooth polygon")
    d = interior_data(p)
    if d.dimension != 1:
        raise RegimeError("polygon is not of one-dimensional interior type")
    g = d.genus
    pts = list(d.interior_points)
    direction = _primitive(_sub(pts[-1], pts[0]))
    # unimodular map sending the segment direction to (1, 0)
    dx, dy = direction
    _, xa, xb = _xgcd(dx, dy)
    li = ((xa, xb), (-dy, dx))
    base = AffineMap(li, (0, 0))
    first = base.apply(pts[0])
    amap = AffineMap(li, (1 - first[0], 1 - first[1]))
    q = amap.apply_polygon(p)
    ys = [v[1] for v in q.vertices]
    if min(ys) != 0 or max(ys) != 2:
        raise RegimeError("unrecognized one-dimensional polygon (not a width-2 strip)")
    xl = min(x for (x, y) in q.lattice_points() if y == 1)
    shift = AffineMap(((1, 0), (0, 1)), (-xl, 0))
    q = shift.apply_polygon(q)
    if not q.on_boundary((0, 1)) or not q.on_boundary((g + 1, 1)):
        raise RegimeError("unrecognized one-dimensional polygon (slice mismatch)")
    flip = AffineMap(((1, 0), (0, -1)), (0, 2))  # keeps the y = 1 row fixed
    best: tuple[int, int, int] | None = None
    for variant in (q, flip.apply_polygon(q)):
        for alpha, n, cuts in _strip_readings(variant, g):
            if best is None or (alpha, n) > best[:2]:
                best = (alpha, n, cuts)
    if best is None:
        raise RegimeError("unrecognized one-dimensional polygon (no strip reading)")
    alpha, n, cuts = best
    case = (CASE_ISOMORPHISM, CASE_ONE_BLOWUP, CASE_TWO_BLOWUPS)[cuts]
    return HirzebruchClassification(alpha, n, case)


def _strip_readings(q: LatticePolygon, g: int) -> list[tuple[int, int, int]]:
    """All (alpha, n, cuts) readings of a slice-normalized strip polygon."""
    b0, b1 = _row_range(q, 0)
    t0, t1 = _row_range(q, 2)
    left_cuts = b0 + t0
    right_cuts = 2 * (g + 1) - (b1 + t1)
    if left_cuts not in (0, 1) or right_cuts not in (0, 1):
        return []
    left_options = [(b0, None)] if left_cuts == 0 else [(b0 - 1, "bottom"), (b0, "top")]
    right_options = (
        [(b1, None)] if right_cuts == 0 else [(b1 + 1, "bottom"), (b1, "top")]
    )
    readings = []
    for e, lcut in left_options:
        for r, rcut in right_options:
            s = 2 * (g + 1) - r
            alpha = (r - s) // 2 - e
            n = s + e
            if alpha < 0 or n < 1:
                continue
            if _rebuild_strip(e, r, s, g, lcut, rcut) == q.vertices:
                readings.append((alpha, n, left_cuts + right_cuts))
    return readings


def _rebuild_strip(
    e: int, r: int, s: int, g: int, lcut: str | None, rcut: str | None
) -> tuple[Point, ...] | None:
    """Vertex cycle of the trapezoid (e,0),(r,0),(s,2),(-e,2) with cuts."""
    bottom: list[Point] = [(e, 0), (r, 0)]
    top: list[Point] = [(s, 2), (-e, 2)]
    left_mid: list[Point] = []
    right_mid: list[Point] = []
    if lcut == "bottom":
        bottom[0] = (e + 1, 0)
        left_mid = [(0, 1)]
    elif lcut == "top":
        top[1] = (-e + 1, 2)
        left_mid = [(0, 1)]
    if rcut == "bottom":
        bottom[1] = (r - 1, 0)
        right_mid = [(g + 1, 1)]
    elif rcut == "top":
        top[0] = (s - 1, 2)
        right_mid = [(g + 1, 1)]
    cycle = bottom + right_mid + top + left_mid
    try:
        return tuple(_canonicalize(cycle))
    except PolygonError:
        return None


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
