"""First-homology model of the curve attached to a lattice polygon.

The genus-g surface is modelled only through H1 in a fixed symplectic
basis (a_1, b_1, ..., a_g, b_g), interleaved, one (a_i, b_i) pair per
interior lattice point v_i of the polygon.  The point index i follows the
lexicographic order of the interior points, so every downstream basis is
reproducible.  Conventions:

* a_i is the class of the cycle sitting over the interior point v_i;
* b_i is the class of a cycle over a path joining v_i to the polygon
  boundary; such classes are declared to be the basis vectors, and the
  class of a primitive segment (u, w) is beta(u) + beta(w) where beta
  vanishes on boundary points -- so any path's segment classes telescope
  to b_i;
* the intersection form is <a_i, b_i> = +1 over Z, the standard mod-2
  symplectic pairing over F2.

A mod-2 class is a bit vector packed into a Python int (bit 2i is the
a_{i+1}-coordinate, bit 2i+1 the b_{i+1}-coordinate); an integral class is
the tuple of its 2g coordinates in the same interleaved order.

The spanning forests are parent maps of :func:`breadth_first`, the one
search of the package: the symplectic verdicts label orbits with it too.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence

from .polygon import (
    LatticePolygon,
    Point,
    Record,
    RegimeError,
    a_mask,
    check_model_genus,
    integer_length,
    interior_data,
)


def swap_pairs(bits: int) -> int:
    """Exchange the two bits of every (a_i, b_i) pair of a packed mask.

    So <x, y> = |swap_pairs(x) & y| mod 2 for packed classes x and y.
    """
    ma = a_mask((bits.bit_length() + 1) // 2)
    return ((bits & ma) << 1) | ((bits >> 1) & ma)


def is_symplectic_bits(vectors: Sequence[int]) -> bool:
    """Packed vectors pair as a symplectic basis.

    <v_2i, v_2i+1> = 1 for every pair and all other pairings vanish.
    """
    for k, v in enumerate(vectors):
        row = swap_pairs(v)  # bit l is <v, e_l>
        for l in range(k + 1, len(vectors)):
            expected = 1 if (k % 2 == 0 and l == k + 1) else 0
            if (row & vectors[l]).bit_count() & 1 != expected:
                return False
    return True


PathSeg = tuple[Point, Point]
Forest = dict[Point, tuple[PathSeg, ...]]


class SurfaceModel(Record):
    """Homology model of the curve over a polygon of genus >= 1."""

    polygon: LatticePolygon
    genus: int
    points: tuple[Point, ...]  # interior points, lexicographic
    index: dict[Point, int]  # 0-based rank
    forest: Forest
    _fields = ("polygon", "genus", "points", "index", "forest")

    def rank(self, v: Point) -> int:
        """1-based index of an interior point."""
        if v not in self.index:
            raise ValueError(f"{v} is not an interior lattice point")
        return self.index[v] + 1

    def b_class(self, v: Point) -> int:
        return 1 << (2 * self.rank(v) - 1)

    def segment_class(self, s: PathSeg) -> int:
        """beta(u) + beta(w) of the pair ``s = (u, w)``: boundary endpoints add zero;
        a non-primitive pair, or an endpoint off the polygon, raises ``ValueError``."""
        u, w = s
        if integer_length(u, w) != 1:
            raise ValueError(f"segment {u}-{w} is not primitive")
        bits = 0
        for x in (u, w):
            if x in self.index:
                bits ^= 2 << (2 * self.index[x])
            elif not self.polygon.contains(x):
                raise ValueError(f"{x} is not a lattice point of the polygon")
        return bits

    def path_class_sum(self, v: Point) -> int:
        """Sum of segment classes along the forest path of v."""
        total = 0
        for seg in self.forest[v]:
            total ^= self.segment_class(seg)
        return total


_AXIS_STEPS: tuple[Point, ...] = ((-1, 0), (0, -1), (1, 0), (0, 1))


def breadth_first(sources: Iterable[Hashable], moves: Callable) -> dict:
    """Multi-source BFS: each point reached maps to the point it was first
    reached from, each source to ``None``; the keys are in BFS order."""
    parent = dict.fromkeys(sources)
    todo = list(parent)
    for cur in todo:
        for nxt in moves(cur):
            if nxt not in parent:
                parent[nxt] = cur
                todo.append(nxt)
    return parent


def _axis_moves(allowed: set[Point], step_order: tuple[Point, ...] = _AXIS_STEPS) -> Callable:
    """The unit axis steps from a point that stay inside ``allowed``."""
    return lambda c: [n for dx, dy in step_order if (n := (c[0] + dx, c[1] + dy)) in allowed]


def _path(parent: dict[Point, Point | None], v: Point) -> tuple[PathSeg, ...]:
    """Segments of the parent walk from ``v`` up to its root."""
    path: list[PathSeg] = []
    while (u := parent[v]) is not None:
        path.append((v, u))
        v = u
    return tuple(path)


def default_forest(
    p: LatticePolygon,
    step_order: tuple[Point, ...] = _AXIS_STEPS,
    source_reverse: bool = False,
) -> Forest:
    """Spanning forest of unit-step paths from interior points to the boundary.

    Multi-source BFS from the boundary lattice points over axis steps,
    deterministic for a fixed ``step_order`` and source order.  Varying
    either gives other valid forests, which the q-independence tests
    exploit.  Forests are model parts: a genus over ``MAX_MODEL_GENUS``
    raises :class:`PolygonTooLargeError` before any scan.
    """
    check_model_genus(p.pick_counts()[0])
    d = interior_data(p)
    inside = p.lattice_points()
    interior = set(d.interior_points)
    boundary = [q for q in inside if q not in interior]
    moves = _axis_moves(set(inside), step_order)
    parent = breadth_first(sorted(boundary, reverse=source_reverse), moves)
    # exotic shapes where axis steps do not reach: fall back to a
    # subdivided straight segment to the nearest boundary point
    for v in sorted(interior - parent.keys()):
        if v in parent:
            continue
        best = min(
            boundary,
            key=lambda q: ((q[0] - v[0]) ** 2 + (q[1] - v[1]) ** 2, q),
        )
        steps = integer_length(v, best)
        sx = (best[0] - v[0]) // steps
        sy = (best[1] - v[1]) // steps
        chain = [(v[0] + k * sx, v[1] + k * sy) for k in range(steps + 1)]
        for a, b in zip(chain, chain[1:]):
            parent[a] = b
            if b in parent:
                break
    return {v: _path(parent, v) for v in d.interior_points}


def vertex_forest(p: LatticePolygon) -> Forest:
    """Forest routing every interior point through one hull vertex.

    Unit steps inside the interior-point set lead to ``kappa``, the
    lexicographically smallest hull vertex, followed by one primitive
    step out to the polygon boundary.  Interior points the inner walk
    cannot reach fall back to their boundary-rooted default path.  Budgeted
    like :func:`default_forest`.
    """
    check_model_genus(p.pick_counts()[0])
    d = interior_data(p)
    interior = set(d.interior_points)
    kappa = d.hull_vertices[0]
    lattice = set(p.lattice_points())
    exits = sorted(
        (w for w in lattice - interior if integer_length(kappa, w) == 1),
        key=lambda w: (abs(w[0] - kappa[0]) + abs(w[1] - kappa[1]) != 1, w),
    )
    if not exits:
        # no one-step exit from kappa (does not happen for smooth inputs):
        # routing through kappa could repeat segments, so keep the default
        return default_forest(p)
    tail: tuple[PathSeg, ...] = ((kappa, exits[0]),)
    parent = breadth_first([kappa], _axis_moves(interior))
    fallback = default_forest(p) if len(parent) < len(interior) else {}
    return {v: _path(parent, v) + tail if v in parent else fallback[v] for v in d.interior_points}


def validate_forest(p: LatticePolygon, forest: Forest) -> None:
    """Check the spanning-forest contract; raises ValueError on violation."""
    d = interior_data(p)
    interior = set(d.interior_points)
    if set(forest) != interior:
        raise ValueError("forest must have exactly one path per interior point")
    lattice = set(p.lattice_points())
    for v, path in forest.items():
        if not path:
            raise ValueError(f"empty path for {v}")
        if len(set(map(frozenset, path))) != len(path):
            raise ValueError(f"path for {v} repeats a segment")
        if path[0][0] != v:
            raise ValueError(f"path for {v} must visit {v} first")
        for (a, b), nxt in zip(path, path[1:]):
            if b != nxt[0]:
                raise ValueError(f"path for {v} is not a chain of segments")
        for a, b in path:
            if integer_length(a, b) != 1:
                raise ValueError(f"non-primitive step {a}-{b}")
            if a not in lattice or b not in lattice:
                raise ValueError(f"step {a}-{b} leaves the polygon")
        if path[-1][1] in interior:
            raise ValueError(f"path for {v} does not reach the boundary")


def build_model(p: LatticePolygon, forest: Forest | None = None) -> SurfaceModel:
    """Construct the homology model; genus 0 raises :class:`GenusZeroError`.

    Only the forest-reading ``q-consistency`` suite needs a model: the
    basis alone comes from ``interior_data(p).interior_points``.  The
    default forest walks each interior point to the smallest hull
    vertex and exits over one primitive step; any forest accepted by
    :func:`validate_forest` may be supplied instead.  A genus over
    ``MAX_MODEL_GENUS`` raises :class:`PolygonTooLargeError` before any scan.
    """
    check_model_genus(p.pick_counts()[0])
    d = interior_data(p)  # raises GenusZeroError
    if forest is None:
        forest = vertex_forest(p)
    validate_forest(p, forest)
    points = d.interior_points
    index = {v: i for i, v in enumerate(points)}
    return SurfaceModel(p, d.genus, points, index, forest)


def hyperelliptic_chain(p: LatticePolygon) -> list[tuple[int, ...]]:
    """Integral classes of the 2g+1 chain cycles of a width-2 strip.

    For interior points v_1..v_g ordered along their common line, the
    chain alternates segment cycles and point cycles
    sigma_0, v_1, sigma_1, ..., v_g, sigma_g.  The integral lift is chosen
    so consecutive pairings are +1 and all others vanish:

        sigma_0 -> -b_1,  v_i -> a_i,  sigma_i -> b_i - b_{i+1},
        sigma_g -> b_g.

    The classes are read in the model basis, so no spanning forest is
    built; genus 0 raises :class:`GenusZeroError`.
    """
    d = interior_data(p)
    if d.dimension != 1:
        raise RegimeError("hyperelliptic chain requires a segment interior hull")
    g = d.genus
    # with a_i at coordinate 2i - 2 and b_i at 2i - 1, the m-th chain class
    # is +1 at coordinate m - 1 and, for even m < 2g, -1 at m + 1
    chain = []
    for m in range(2 * g + 1):
        coords = [0] * (2 * g)
        if m:
            coords[m - 1] = 1
        if m % 2 == 0 and m < 2 * g:
            coords[m + 1] = -1
        chain.append(tuple(coords))
    return chain
