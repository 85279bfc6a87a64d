"""Exact geometry of convex lattice polygons.

A polygon is stored as a tuple of integer vertex pairs, counterclockwise,
starting at the lexicographically smallest vertex, with no repeated or
collinear-consecutive vertices.  The constructor accepts a cycle only if it
equals its own strict convex hull in that form; ``parse_polygon`` brings
any convex cycle to it, and one hull check (``_convex_cycle``) decides
convexity for both.  All predicates use integer arithmetic only; lattice
points are enumerated column by column over the bounding box.  Work is
budgeted from the vertices alone (Pick's theorem), before any scan: a box
over ``MAX_BOX_POINTS`` lattice points, segment enumeration over
``MAX_SEGMENT_PAIRS`` point pairs, or a homology model over genus
``MAX_MODEL_GENUS`` raises :class:`PolygonTooLargeError`.  The
Hirzebruch data of a width-2 strip (``classify_onedim``) is read in closed
form from the vertices: no lattice map, rebuilt polygon or row scan.

The package's value types (here and in ``homology``, ``spin``,
``relations`` and ``symplectic``) are immutable :class:`Record`
subclasses: the base constructor stores its arguments in ``_fields``
order, and a record that checks or normalizes them has its own.  The base
gives equality and hash over the field tuple, a repr, and assignment that
raises ``AttributeError``.  A record costs no generated code at import,
which a cold CLI start would otherwise pay first.

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
* bridge -- primitive segment joining a boundary lattice point u of the
  polygon to a boundary lattice point w of the interior hull whose open
  segment avoids the hull's 2-dimensional interior.  It meets that
  interior iff u lies strictly on the inner side of every hull edge
  through w: such an edge (s, t) has side value tau * cross(s, t, u) at
  w + tau (u - w), and every other edge has w strictly inside.
"""

from __future__ import annotations

import json
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
#: its rows are packed at 8 bytes each and written 256 to a chunk, so
#: ``spincycles segments`` at this size peaks at 16.9 MB and takes
#: 0.13-0.15 s cold in either output mode (2-core Xeon)
MAX_SEGMENT_PAIRS = 250_000

#: interior points of a homology model, also the largest abstract genus a
#: relation check accepts; ``verify hyperelliptic-word`` (quadratic in the
#: genus) on a genus-300 strip takes 0.30-0.42 s (2-core Xeon)
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


class VerificationError(RuntimeError):
    """A verdict's own certificate failed: the program, not the input, is at fault."""


_set = object.__setattr__


class Record:
    """Immutable record over the field names in ``_fields``.

    ``Record(*values)`` stores one value per field, in ``_fields`` order.  A
    subclass that checks or normalizes its arguments defines its own
    ``__init__`` and stores each field with ``object.__setattr__``; a
    subclass built in hot loops may declare ``__slots__``.  Records of one
    class compare and hash as their field tuples.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(self._fields)} fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def check_model_genus(genus: int) -> None:
    """Refuse a homology model (or abstract genus) over ``MAX_MODEL_GENUS``."""
    if genus > MAX_MODEL_GENUS:
        raise PolygonTooLargeError(
            f"genus {genus} is over the model budget MAX_MODEL_GENUS = {MAX_MODEL_GENUS}"
        )


def a_mask(genus: int) -> int:
    """Mask of the a-positions (bits 0, 2, ..., 2g-2) of a packed homology
    class; here so that ``spin`` reads it without loading ``homology``."""
    return ((1 << (2 * genus)) - 1) // 3


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


class LatticePolygon(Record):
    """Convex lattice polygon; vertices CCW from the lex-smallest vertex.

    ``vertices`` is accepted only if every vertex is a pair of ints
    (``non_integer`` otherwise, as in ``parse_polygon``) and the cycle equals
    its own strict convex hull, counterclockwise from the lexicographically
    smallest vertex; any other cycle raises :class:`PolygonError`
    (``parse_polygon`` canonicalizes).
    """

    vertices: tuple[Point, ...]
    _fields = ("vertices",)

    def __init__(self, vertices: tuple[Point, ...]):
        _set(self, "vertices", _validate(vertices))

    def edges(self) -> list[tuple[Point, Point]]:
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def contains(self, p: Point) -> bool:
        """Closed membership test."""
        a = self.vertices[-1]
        for b in self.vertices:
            if _cross(a, b, p) < 0:
                return False
            a = b
        return True

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


def _convex_cycle(cycle: list[Point] | tuple[Point, ...]) -> tuple[Point, ...]:
    """The strict hull of a CCW vertex cycle that traverses it in order.

    This is the one convexity decision: a cycle with a vertex off the hull's
    corners, a repeat, or an order other than a rotation of the hull raises
    :class:`PolygonError`.
    """
    hull = tuple(_hull_ccw(cycle))
    if len(hull) < 3:
        raise PolygonError("all vertices are collinear", code="collinear")
    corners = set(hull)
    for p in cycle:
        if p in corners:
            continue
        # not a corner: on a hull edge => collinear, inside => non-convex
        if any(_cross(hull[i - 1], hull[i], p) == 0 for i in range(len(hull))):
            raise PolygonError(
                f"vertex {p} lies on an edge (collinear triple)", code="collinear"
            )
        raise PolygonError(f"vertex {p} is not in convex position", code="non_convex")
    if len(hull) != len(cycle):
        raise PolygonError("repeated vertex", code="too_few_vertices")
    k = cycle.index(hull[0])
    if tuple(cycle[k:]) + tuple(cycle[:k]) != hull:
        raise PolygonError(
            "vertex cycle does not traverse the convex hull in order",
            code="non_convex",
        )
    return hull


def _lattice_point(item) -> Point:
    """``item`` as a vertex: a list or tuple of two ints (bools excluded)."""
    if (
        not isinstance(item, (list, tuple))
        or len(item) != 2
        or not all(type(c) is int for c in item)
    ):
        raise PolygonError(
            f"vertex {item!r} is not a pair of integers", code="non_integer"
        )
    return (item[0], item[1])


def _validate(vertices) -> tuple[Point, ...]:
    """The vertices as integer pairs, if they are their own canonical hull."""
    points = tuple(map(_lattice_point, vertices))
    if _convex_cycle(points) != points:
        raise PolygonError(
            "vertex list must start at the lexicographically smallest vertex",
            code="non_canonical",
        )
    return points


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
    return _convex_cycle(raw if area2 > 0 else raw[::-1])


def parse_polygon(text: str | bytes | dict) -> LatticePolygon:
    """Parse ``{"vertices": [[x, y], ...]}`` into a canonical polygon.

    Accepts either orientation; the result is CCW starting at the
    lexicographically smallest vertex.  Raises :class:`PolygonError` with a
    specific ``code`` for non-integer coordinates, too few distinct
    vertices, collinear triples, or non-convex input.
    """
    try:
        doc = json.loads(text) if not isinstance(text, dict) else text
    except RecursionError:
        raise PolygonError("JSON nested too deeply", code="format") from None
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise PolygonError('expected an object with a "vertices" array', code="format")
    raw = doc["vertices"]
    if not isinstance(raw, list):
        raise PolygonError('"vertices" must be an array', code="format")
    return LatticePolygon(_canonicalize([_lattice_point(item) for item in raw]))


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


class InteriorData(Record):
    """Interior lattice points of a polygon together with their hull."""

    interior_points: tuple[Point, ...]  # lexicographic order
    hull_vertices: tuple[Point, ...]  # 1 point, 2 endpoints, or CCW cycle
    dimension: int  # 0, 1 or 2
    genus: int
    root_order: int | None  # None when dimension < 2
    _fields = ("interior_points", "hull_vertices", "dimension", "genus", "root_order")

    @property
    def hull_polygon(self) -> LatticePolygon:
        if self.dimension != 2:
            raise RegimeError("interior hull is not two-dimensional")
        return LatticePolygon(self.hull_vertices)

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


def even_points(p: LatticePolygon) -> dict[Point, bool]:
    """Map each interior lattice point to its evenness.

    Requires a 2-dimensional interior hull with even root order; raises
    :class:`RegimeError` otherwise ("evenness undefined").
    """
    d = interior_data(p)
    return {pt: d.is_even(pt) for pt in d.interior_points}


def segment_on_boundary(p: LatticePolygon, a: Point, b: Point) -> bool:
    """Is the whole segment [a, b] contained in the polygon boundary?"""
    if not (p.contains(a) and p.contains(b)):
        return False
    return any(_cross(u, w, a) == 0 and _cross(u, w, b) == 0 for u, w in p.edges())


class SegmentRows(Record):
    """The rows of :func:`enumerate_segments`: sized, re-iterable, and
    packed, so their memory is 8 bytes a row where a tuple row takes about 73.

    ``points`` is the polygon's lattice-point list and ``codes`` an
    ``array('q')`` holding one int per row, ``((i * n + j) << 1) | is_bridge``
    for the row of ``points[i]`` and ``points[j]``, n = ``len(points)``.
    Iteration yields each ``(a, b, is_bridge)`` row as it is read.
    """

    __slots__ = ("points", "codes")
    _fields = ("points", "codes")

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return self.join(lambda a: (a,), lambda b, is_bridge: (b, is_bridge))

    def join(self, head, tail):
        """Each row as ``head(a) + tail(b, is_bridge)``, its two parts built
        once per lattice point (text fragments, or tuples)."""
        heads = [head(pt) for pt in self.points]
        tails = [tail(pt, is_bridge) for pt in self.points for is_bridge in (False, True)]
        width = len(tails)  # code = width * i + (2 * j + is_bridge)
        for code in self.codes:
            yield heads[code // width] + tails[code % width]

    def bridges(self) -> SegmentRows:
        """The bridge rows alone, in order."""
        from array import array

        return SegmentRows(self.points, array("q", (code for code in self.codes if code & 1)))


def enumerate_segments(p: LatticePolygon) -> SegmentRows:
    """All primitive integer segments of the polygon, bridges flagged.

    Returns :class:`SegmentRows`, which iterates one row ``(a, b,
    is_bridge)`` per segment, ``a < b`` in lexicographic order, sorted by
    ``(a, b)``: each pair once.  It holds the lattice points and one packed
    int per row, so no row tuple is kept.

    A bridge joins a boundary lattice point u of the polygon to a boundary
    lattice point w of the interior hull and avoids the hull's open interior
    (touching the hull boundary is allowed).  The open segment (u, w) meets
    that interior iff u lies strictly on the inner side of every hull edge
    (s, t) through w: along w + tau (u - w) the side value of such an edge
    is tau * cross(s, t, u), and every other edge has w strictly inside, so
    small tau > 0 stays inside.  A 0- or 1-dimensional hull has no interior,
    so there every such segment is a bridge.  Requires genus >= 1; more
    than ``MAX_SEGMENT_PAIRS`` lattice-point pairs raise
    :class:`PolygonTooLargeError` before any scan.
    """
    from array import array  # loaded by the segment path alone

    points = sum(p.pick_counts())
    pairs = points * (points - 1) // 2
    if pairs > MAX_SEGMENT_PAIRS:
        raise PolygonTooLargeError(
            f"{points} lattice points make {pairs} pairs, over the segment "
            f"budget MAX_SEGMENT_PAIRS = {MAX_SEGMENT_PAIRS}"
        )
    d = interior_data(p)  # raises on genus 0
    interior = set(d.interior_points)
    # each hull-boundary point -> the hull edges through it (none below 2-D)
    hull_edges = d.hull_polygon.edges() if d.dimension == 2 else []
    through = {}
    for q in d.interior_points:
        edges = [(s, t) for s, t in hull_edges if _cross(s, t, q) == 0]
        if edges or d.dimension < 2:
            through[q] = edges
    all_pts = p.lattice_points()
    n = len(all_pts)
    codes = array("q")
    for i, a in enumerate(all_pts):
        found = []  # this point's rows, at most n packed ints
        for b, code in zip(all_pts[i + 1 :], range((i * n + i + 1) << 1, (i * n + n) << 1, 2)):
            if gcd(b[0] - a[0], b[1] - a[1]) != 1:
                continue
            if a not in interior and b in through:
                u, edges = a, through[b]
            elif b not in interior and a in through:
                u, edges = b, through[a]
            else:
                found.append(code)
                continue
            found.append(code | (not (edges and all(_cross(s, t, u) > 0 for s, t in edges))))
        codes.fromlist(found)
    return SegmentRows(all_pts, codes)


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


class HirzebruchClassification(Record):
    """Width-2 strip data (alpha, n) with alpha + n - 1 = genus.

    ``case`` counts the unit corner truncations of the underlying
    trapezoid: ``isomorphism`` (none), ``one_blowup``, ``two_blowups``.
    Blow-ups of different strips can coincide, so a strip may have several
    readings (alpha, n); the one with maximal alpha is reported, which
    :func:`classify_onedim` reads in closed form from two edge lengths and
    a vertex count.
    """

    alpha: int
    n: int
    case: str
    _fields = ("alpha", "n", "case")


def classify_onedim(p: LatticePolygon) -> HirzebruchClassification:
    """Classify a smooth polygon whose interior hull is a segment.

    With u the primitive direction of the interior segment from v0, every
    vertex v has height u x (v - v0) in {-1, 0, 1}: the polygon is a
    trapezoid with outer rows of widths w_-1 and w_1, cut at k unit
    corners, one per vertex of height 0.  Its readings are
    alpha = w - g - 1 + j for either width w and 0 <= j <= k (each cut may
    truncate either row), with n = g + 1 - alpha >= 1 and alpha >= 0; the
    maximal alpha is reported.  Since w_-1 + w_1 = 2(g + 1) - k and
    smoothness makes each width at least 1, that is
    alpha = max(w_-1, w_1) + k - g - 1, which lies in [k/2, g].
    """
    if not is_smooth(p):
        raise NotSmoothError("classification requires a smooth polygon")
    d = interior_data(p)
    if d.dimension != 1:
        raise RegimeError("polygon is not of one-dimensional interior type")
    v0, v1 = d.hull_vertices
    u = _primitive(_sub(v1, v0))
    rows: dict[int, list[Point]] = {-1: [], 0: [], 1: []}
    for v in p.vertices:
        row = rows.get(u[0] * (v[1] - v0[1]) - u[1] * (v[0] - v0[0]))
        if row is None:
            raise RegimeError("unrecognized one-dimensional polygon (not a width-2 strip)")
        row.append(v)
    k = len(rows[0])
    width = max(integer_length(r[0], r[-1]) for r in (rows[-1], rows[1]))
    alpha = width + k - d.genus - 1
    case = (CASE_ISOMORPHISM, CASE_ONE_BLOWUP, CASE_TWO_BLOWUPS)[k]
    return HirzebruchClassification(alpha, d.genus + 1 - alpha, case)
