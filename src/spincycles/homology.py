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

Mod-2 classes are bit vectors packed into a Python int (bit 2i is the
a_{i+1}-coordinate, bit 2i+1 the b_{i+1}-coordinate).  Integral classes
keep a plain coordinate tuple.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

from .polygon import (
    LatticePolygon,
    Point,
    RegimeError,
    Segment,
    check_model_genus,
    integer_length,
    interior_data,
)


def _pair_index(i: int, which: str) -> int:
    return 2 * i + (0 if which == "a" else 1)


@dataclass(frozen=True)
class CycleClassF2:
    """Element of H1 over F2, packed as a bit mask of length 2g."""

    genus: int
    bits: int

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be positive")
        if not 0 <= self.bits < 1 << (2 * self.genus):
            raise ValueError("bit mask out of range for this genus")

    @classmethod
    def zero(cls, genus: int) -> "CycleClassF2":
        return cls(genus, 0)

    @classmethod
    def basis_a(cls, genus: int, i: int) -> "CycleClassF2":
        """a_i, 1-based index."""
        return cls(genus, 1 << _pair_index(i - 1, "a"))

    @classmethod
    def basis_b(cls, genus: int, i: int) -> "CycleClassF2":
        return cls(genus, 1 << _pair_index(i - 1, "b"))

    @classmethod
    def from_coords(cls, coords) -> "CycleClassF2":
        coords = list(coords)
        if len(coords) % 2 != 0 or not coords:
            raise ValueError("coordinate vector must have even positive length")
        bits = 0
        for k, c in enumerate(coords):
            if c % 2:
                bits |= 1 << k
        return cls(len(coords) // 2, bits)

    @property
    def coords(self) -> tuple[int, ...]:
        return tuple((self.bits >> k) & 1 for k in range(2 * self.genus))

    def __add__(self, other: "CycleClassF2") -> "CycleClassF2":
        if self.genus != other.genus:
            raise ValueError("genus mismatch")
        return CycleClassF2(self.genus, self.bits ^ other.bits)

    __xor__ = __add__

    def __bool__(self) -> bool:
        return self.bits != 0

    def __str__(self) -> str:
        if not self.bits:
            return "0"
        parts = []
        for i in range(self.genus):
            if (self.bits >> (2 * i)) & 1:
                parts.append(f"a{i + 1}")
            if (self.bits >> (2 * i + 1)) & 1:
                parts.append(f"b{i + 1}")
        return "+".join(parts)


@dataclass(frozen=True)
class CycleClassZ:
    """Element of H1 over Z in the same interleaved basis order."""

    genus: int
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if len(self.coords) != 2 * self.genus:
            raise ValueError("coordinate vector must have length 2g")

    @classmethod
    def zero(cls, genus: int) -> "CycleClassZ":
        return cls(genus, (0,) * (2 * genus))

    @classmethod
    def basis_a(cls, genus: int, i: int) -> "CycleClassZ":
        c = [0] * (2 * genus)
        c[_pair_index(i - 1, "a")] = 1
        return cls(genus, tuple(c))

    @classmethod
    def basis_b(cls, genus: int, i: int) -> "CycleClassZ":
        c = [0] * (2 * genus)
        c[_pair_index(i - 1, "b")] = 1
        return cls(genus, tuple(c))

    def __add__(self, other: "CycleClassZ") -> "CycleClassZ":
        if self.genus != other.genus:
            raise ValueError("genus mismatch")
        return CycleClassZ(
            self.genus, tuple(x + y for x, y in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "CycleClassZ") -> "CycleClassZ":
        return self + (-other)

    def __neg__(self) -> "CycleClassZ":
        return CycleClassZ(self.genus, tuple(-x for x in self.coords))

    def mod2(self) -> CycleClassF2:
        return CycleClassF2.from_coords(self.coords)


def pairing_f2(x: CycleClassF2, y: CycleClassF2) -> int:
    """Standard symplectic pairing sum(x_ai*y_bi + x_bi*y_ai) mod 2."""
    if x.genus != y.genus:
        raise ValueError("genus mismatch")
    return pairing_f2_bits(x.bits, y.bits)


def a_mask(genus: int) -> int:
    """Mask of the a-positions (bits 0, 2, ..., 2g-2) of a packed class."""
    return ((1 << (2 * genus)) - 1) // 3


def swap_pairs(bits: int) -> int:
    """Exchange the two bits of every (a_i, b_i) pair of a packed mask."""
    ma = a_mask((bits.bit_length() + 1) // 2)
    return ((bits & ma) << 1) | ((bits >> 1) & ma)


def pairing_f2_bits(x: int, y: int) -> int:
    """Pairing of two packed bit masks (lengths need not be checked)."""
    return (swap_pairs(x) & y).bit_count() & 1


def is_symplectic_bits(vectors: Sequence[int]) -> bool:
    """Packed vectors pair as a symplectic basis.

    <v_2i, v_2i+1> = 1 for every pair and all other pairings vanish.
    """
    n = len(vectors)
    for k in range(n):
        for l in range(k + 1, n):
            expected = 1 if (k % 2 == 0 and l == k + 1) else 0
            if pairing_f2_bits(vectors[k], vectors[l]) != expected:
                return False
    return True


def pairing_z(x: CycleClassZ, y: CycleClassZ) -> int:
    """Integral symplectic form with <a_i, b_i> = +1; antisymmetric."""
    if x.genus != y.genus:
        raise ValueError("genus mismatch")
    total = 0
    for i in range(x.genus):
        total += x.coords[2 * i] * y.coords[2 * i + 1]
        total -= x.coords[2 * i + 1] * y.coords[2 * i]
    return total


PathSeg = tuple[Point, Point]
Forest = dict[Point, tuple[PathSeg, ...]]


@dataclass(frozen=True)
class SurfaceModel:
    """Homology model of the curve over a polygon of genus >= 1."""

    polygon: LatticePolygon
    genus: int
    points: tuple[Point, ...]  # interior points, lexicographic
    index: dict[Point, int] = field(repr=False)  # 0-based rank
    forest: Forest = field(repr=False)

    def rank(self, v: Point) -> int:
        """1-based index of an interior point."""
        if v not in self.index:
            raise ValueError(f"{v} is not an interior lattice point")
        return self.index[v] + 1

    def a_class(self, v: Point) -> CycleClassF2:
        return CycleClassF2.basis_a(self.genus, self.rank(v))

    def b_class(self, v: Point) -> CycleClassF2:
        return CycleClassF2.basis_b(self.genus, self.rank(v))

    def segment_class(self, s: Segment | PathSeg) -> CycleClassF2:
        """beta(u) + beta(w): boundary endpoints contribute zero."""
        u, w = s.endpoints if isinstance(s, Segment) else s
        if integer_length(u, w) != 1:
            raise ValueError(f"segment {u}-{w} is not primitive")
        bits = 0
        for x in (u, w):
            if x in self.index:
                bits ^= 1 << _pair_index(self.index[x], "b")
            elif not self.polygon.contains(x):
                raise ValueError(f"{x} is not a lattice point of the polygon")
        return CycleClassF2(self.genus, bits)

    def path_class_sum(self, v: Point) -> CycleClassF2:
        """Sum of segment classes along the forest path of v."""
        total = CycleClassF2.zero(self.genus)
        for seg in self.forest[v]:
            total = total + self.segment_class(seg)
        return total


_AXIS_STEPS: tuple[Point, ...] = ((-1, 0), (0, -1), (1, 0), (0, 1))


def _axis_bfs(
    sources: list[Point], allowed: set[Point], step_order: tuple[Point, ...]
) -> dict[Point, Point]:
    """Parent map of a multi-source BFS over axis steps inside ``allowed``."""
    parent: dict[Point, Point] = {}
    queue = deque(sources)
    seen = set(queue)
    while queue:
        cur = queue.popleft()
        for dx, dy in step_order:
            nxt = (cur[0] + dx, cur[1] + dy)
            if nxt in allowed and nxt not in seen:
                parent[nxt] = cur
                seen.add(nxt)
                queue.append(nxt)
    return parent


def _path(parent: dict[Point, Point], v: Point) -> tuple[PathSeg, ...]:
    """Segments of the parent walk from ``v`` up to its root."""
    path: list[PathSeg] = []
    while v in parent:
        path.append((v, parent[v]))
        v = parent[v]
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
    parent = _axis_bfs(sorted(boundary, reverse=source_reverse), set(inside), step_order)
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


def vertex_forest(p: LatticePolygon, kappa: Point | None = None) -> Forest:
    """Forest routing every interior point through one hull vertex.

    Unit steps inside the interior-point set lead to ``kappa`` (default:
    the lexicographically smallest hull vertex), followed by one primitive
    step out to the polygon boundary.  Interior points the inner walk
    cannot reach fall back to their boundary-rooted default path.  Budgeted
    like :func:`default_forest`.
    """
    check_model_genus(p.pick_counts()[0])
    d = interior_data(p)
    interior = set(d.interior_points)
    if kappa is None:
        kappa = d.hull_vertices[0]
    if kappa not in interior:
        raise ValueError(f"{kappa} is not an interior lattice point")
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
    parent = _axis_bfs([kappa], interior, _AXIS_STEPS)
    fallback = default_forest(p) if len(parent) + 1 < len(interior) else {}
    return {
        v: _path(parent, v) + tail if v == kappa or v in parent else fallback[v]
        for v in d.interior_points
    }


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

    The default forest walks each interior point to the smallest hull
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


def hyperelliptic_chain(m: SurfaceModel) -> list[CycleClassZ]:
    """Integral classes of the 2g+1 chain cycles of a width-2 strip.

    For interior points v_1..v_g ordered along their common line, the
    chain alternates segment cycles and point cycles
    sigma_0, v_1, sigma_1, ..., v_g, sigma_g.  The integral lift is chosen
    so consecutive pairings are +1 and all others vanish:

        sigma_0 -> -b_1,  v_i -> a_i,  sigma_i -> b_i - b_{i+1},
        sigma_g -> b_g.
    """
    d = interior_data(m.polygon)
    if d.dimension != 1:
        raise RegimeError("hyperelliptic chain requires a segment interior hull")
    g = m.genus
    chain: list[CycleClassZ] = [-CycleClassZ.basis_b(g, 1)]
    for i in range(1, g + 1):
        chain.append(CycleClassZ.basis_a(g, i))
        if i < g:
            chain.append(CycleClassZ.basis_b(g, i) - CycleClassZ.basis_b(g, i + 1))
    chain.append(CycleClassZ.basis_b(g, g))
    return chain
