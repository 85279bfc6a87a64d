"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths:
genus is recounted with Pick's theorem, symplectic group orders come from
the classical order formula, quadratic-form values are recomputed from
the defining identity, closures are re-enumerated by a set BFS over
``MatF2`` products instead of the numpy engine, form orbits are re-run
over every transvection instead of the chain generators, twist words are
multiplied out as dense integral matrices, and bridge clips are redone in
``Fraction`` arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from spincycles import corpus
from spincycles.homology import is_symplectic_bits
from spincycles.polygon import LatticePolygon, parse_polygon
from spincycles.symplectic import MatF2


@pytest.fixture(scope="session")
def d5():
    return corpus.load("quintic")


@pytest.fixture(scope="session")
def d7():
    return corpus.load("d7")


@pytest.fixture(scope="session")
def rect_4x2():
    return corpus.load("rect_4x2")


@pytest.fixture(scope="session")
def square_3x3():
    return corpus.load("square_3x3")


@pytest.fixture(scope="session")
def trapezoid_g2():
    return corpus.load("trapezoid_g2")


@pytest.fixture(scope="session")
def trapezoid_g2_cut():
    return corpus.load("trapezoid_g2_cut")


@pytest.fixture(scope="session")
def triangle_d3():
    return corpus.load("triangle_d3")


def polygon_from(vertices) -> LatticePolygon:
    return parse_polygon({"vertices": [list(v) for v in vertices]})


# ---------------------------------------------------------------------------
# independent oracles


def sp_order(genus: int) -> int:
    """|Sp(2g, F2)| = 2^(g^2) * prod_{i=1..g} (4^i - 1)."""
    order = 1 << (genus * genus)
    for i in range(1, genus + 1):
        order *= (4**i) - 1
    return order


def o_order(genus: int, arf: int) -> int:
    """|O(q)| for q of Arf 0 (O^+) or 1 (O^-) over F2:
    2 * 2^(g(g-1)) * (2^g -+ 1) * prod_{i=1..g-1} (4^i - 1)."""
    order = 2 * 2 ** (genus * (genus - 1)) * (2**genus - (1 if arf == 0 else -1))
    for i in range(1, genus):
        order *= (4**i) - 1
    return order


def closure_reference(generators: list[MatF2]) -> list[int]:
    """Sorted packed keys of the group the generators span, by a set BFS.

    Products come from ``MatF2.__matmul__``, never from the vector tables
    or the level BFS of the closure engine.
    """
    seen = {MatF2.identity(generators[0].genus)}
    frontier = list(seen)
    while frontier:
        new = {g @ m for m in frontier for g in generators} - seen
        seen |= new
        frontier = list(new)
    return sorted(m.packed() for m in seen)


# Dense integral transvections, the oracle for relations.evaluate_word_z.
# sign=+1 is the right-handed twist x -> x + <x, c> c, sign=-1 its inverse.


def symplectic_form_z(genus: int) -> np.ndarray:
    j = np.zeros((2 * genus, 2 * genus), dtype=np.int64)
    for i in range(genus):
        j[2 * i, 2 * i + 1] = 1
        j[2 * i + 1, 2 * i] = -1
    return j


def transvection_z(c: tuple[int, ...], sign: int = 1) -> np.ndarray:
    """Integral transvection x -> x + sign * <x, c> c of a coordinate tuple c."""
    return transvection_z_power(c, 1, sign)


def transvection_z_power(c: tuple[int, ...], exponent: int, sign: int = 1) -> np.ndarray:
    """transvection_z(c, sign) ** exponent = I + exponent * sign * outer(c, Jc)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    v = np.array(c, dtype=np.int64)
    jc = symplectic_form_z(len(c) // 2) @ v
    return np.eye(len(c), dtype=np.int64) + (exponent * sign) * np.outer(v, jc)


def is_symplectic_z(m: np.ndarray) -> bool:
    n = m.shape[0]
    if m.shape != (n, n) or n % 2 != 0:
        return False
    j = symplectic_form_z(n // 2)
    return bool(np.array_equal(m.T @ j @ m, j))


def mat_f2_from_z(m: np.ndarray) -> MatF2:
    """Reduce an integral matrix modulo 2 into the packed representation."""
    n = m.shape[0]
    cols = []
    for jcol in range(n):
        bits = 0
        for k in range(n):
            if m[k, jcol] & 1:
                bits |= 1 << k
        cols.append(bits)
    return MatF2(n, tuple(cols))


def pick_genus(p: LatticePolygon) -> int:
    """Interior point count via Pick's theorem: I = A - B/2 + 1."""
    verts = p.vertices
    n = len(verts)
    twice_area = sum(
        verts[i][0] * verts[(i + 1) % n][1] - verts[(i + 1) % n][0] * verts[i][1]
        for i in range(n)
    )
    boundary = sum(
        gcd(
            abs(verts[(i + 1) % n][0] - verts[i][0]),
            abs(verts[(i + 1) % n][1] - verts[i][1]),
        )
        for i in range(n)
    )
    assert (twice_area - boundary) % 2 == 0
    return (twice_area - boundary + 2) // 2


def open_segment_meets_interior_reference(hull: LatticePolygon, a, b) -> bool:
    """Does the open segment (a, b) meet the open hull?  Fraction clip.

    The parameter t of a + t (b - a) is clipped to (0, 1) against each
    strict half-plane of the CCW hull, with exact rational bounds.
    """
    lo, hi = Fraction(0), Fraction(1)
    v = hull.vertices
    for u, w in zip(v, v[1:] + v[:1]):
        def side(q):
            return (w[0] - u[0]) * (q[1] - u[1]) - (w[1] - u[1]) * (q[0] - u[0])

        base = side(a)
        slope = side(b) - base
        if slope == 0:
            if base <= 0:
                return False
        elif slope > 0:
            lo = max(lo, Fraction(-base, slope))
        else:
            hi = min(hi, Fraction(-base, slope))
    return lo < hi


def pairing_f2(x: int, y: int) -> int:
    """<x, y> mod 2 of two packed classes, pair by pair: x_ai y_bi + x_bi y_ai."""
    total = 0
    while x or y:
        total += (x & 1) * ((y >> 1) & 1) + ((x >> 1) & 1) * (y & 1)
        x, y = x >> 2, y >> 2
    return total & 1


def brute_q(q_bits_a, q_bits_b, x_bits: int) -> int:
    """q(x) recomputed from the defining identity, bit by bit.

    Expands q(sum e_k) = sum q(e_k) + sum_{k<l} <e_k, e_l> directly; the
    only basis pairs with nonzero pairing are (a_i, b_i).
    """
    g = len(q_bits_a)
    total = 0
    support = [k for k in range(2 * g) if (x_bits >> k) & 1]
    for k in support:
        total += q_bits_a[k // 2] if k % 2 == 0 else q_bits_b[k // 2]
    for idx, k in enumerate(support):
        for l in support[idx + 1 :]:
            if l == k + 1 and k % 2 == 0:
                total += 1
    return total & 1


def arf_classification_reference(genus: int) -> dict:
    """The transcript of ``verify_arf_classification``, by a plain BFS over
    all 4^g - 1 transvections.

    A form is the int of its basis values, bit k = q(e_k).  T_c acts on
    forms by q -> q o T_c, whose basis values q(e_k + <c, e_k> c) are
    recomputed by ``brute_q``; the Arf invariant is sum_i q(a_i) q(b_i).
    Orbits come in order of their smallest member, then stably by Arf.
    """
    n = 2 * genus

    def values(form):  # (q(a_i)), (q(b_i))
        return [(form >> k) & 1 for k in range(0, n, 2)], [(form >> k) & 1 for k in range(1, n, 2)]

    def act(form, c):
        q_a, q_b = values(form)
        out = 0
        for k in range(n):
            paired = (c >> (k ^ 1)) & 1  # <c, e_k>
            out |= brute_q(q_a, q_b, (1 << k) ^ (c if paired else 0)) << k
        return out

    def arf(form):
        q_a, q_b = values(form)
        return sum(a * b for a, b in zip(q_a, q_b)) % 2

    orbits, seen = [], set()
    for start in range(1 << n):
        if start in seen:
            continue
        members, todo = {start}, [start]
        for x in todo:
            for c in range(1, 1 << n):
                y = act(x, c)
                if y not in members:
                    members.add(y)
                    todo.append(y)
        seen |= members
        arfs = {arf(f) for f in members}
        orbits.append({"arf": arf(start), "size": len(members), "arf_constant": len(arfs) == 1})
    orbits.sort(key=lambda o: o["arf"])
    return {
        "genus": genus,
        "form_count": 1 << n,
        "orbits": orbits,
        "partition_ok": sum(o["size"] for o in orbits) == 1 << n,
        "two_orbits": len(orbits) == 2,
        "arf_constant_on_orbits": all(o["arf_constant"] for o in orbits),
    }


# q-symplectic bases: the Arf invariant recounted as the number of type-1
# pairs of a diagonalized basis, never through QuadraticForm.arf.


def standard_basis(genus: int) -> list[int]:
    """a_1, b_1, ..., a_g, b_g as packed classes."""
    return [1 << k for k in range(2 * genus)]


def is_symplectic_basis(basis: list[int]) -> bool:
    """2g packed classes of genus g; pairs (basis[2i], basis[2i+1]) pair to 1
    and all other pairings vanish."""
    if not basis or len(basis) % 2 or any(not 0 <= b < 1 << len(basis) for b in basis):
        return False
    return is_symplectic_bits(basis)


def basis_types(q, basis: list[int]) -> tuple[int, ...]:
    """Per-pair types of a q-symplectic basis.

    Pair i has type 1 when (q(a_i), q(b_i)) = (1, 1) and type 0 when
    (0, 1); any other value pattern means the basis is not q-symplectic.
    """
    types = []
    for i in range(q.genus):
        va, vb = q.eval_bits(basis[2 * i]), q.eval_bits(basis[2 * i + 1])
        if (va, vb) == (1, 1):
            types.append(1)
        elif (va, vb) == (0, 1):
            types.append(0)
        else:
            raise ValueError(f"basis pair {i} has values {(va, vb)}: not q-symplectic")
    return tuple(types)


def q_symplectic_basis(
    q, basis: list[int] | None = None
) -> tuple[list[int], tuple[int, ...]]:
    """Adjust a symplectic basis pair by pair into q-symplectic form.

    Within each pair: swap a and b when (1,0), replace b by a+b when
    (0,0).  Neither move touches other pairs, so the basis stays
    symplectic.  Returns the new basis and its types.
    """
    basis = list(basis) if basis is not None else standard_basis(q.genus)
    if not is_symplectic_basis(basis):
        raise ValueError("input basis is not symplectic")
    out = list(basis)
    for i in range(q.genus):
        a, b = out[2 * i], out[2 * i + 1]
        va, vb = q.eval_bits(a), q.eval_bits(b)
        if (va, vb) == (1, 0):
            a, b = b, a
        elif (va, vb) == (0, 0):
            b = a ^ b
        out[2 * i], out[2 * i + 1] = a, b
    return out, basis_types(q, out)


# ---------------------------------------------------------------------------
# random smooth polygons for property checks


def _primitive(v):
    g = gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


def _edge_length(a, b):
    return gcd(abs(a[0] - b[0]), abs(a[1] - b[1]))


def cut_corner(vertices: list, i: int) -> list | None:
    """Unit corner cut at vertex i; None when an adjacent edge is too short."""
    n = len(vertices)
    u, v, w = vertices[i - 1], vertices[i], vertices[(i + 1) % n]
    if _edge_length(u, v) < 2 or _edge_length(v, w) < 2:
        return None
    to_u = _primitive((u[0] - v[0], u[1] - v[1]))
    to_w = _primitive((w[0] - v[0], w[1] - v[1]))
    out = list(vertices)
    out[i : i + 1] = [
        (v[0] + to_u[0], v[1] + to_u[1]),
        (v[0] + to_w[0], v[1] + to_w[1]),
    ]
    return out


BASE_FAMILIES = []
for _a in range(2, 8):
    for _b in range(2, 5):
        BASE_FAMILIES.append([(0, 0), (_a, 0), (_a, _b), (0, _b)])
for _d in range(3, 9):
    BASE_FAMILIES.append([(0, 0), (_d, 0), (0, _d)])
for _alpha in range(0, 4):
    for _n in range(1, 6):
        BASE_FAMILIES.append(
            [(0, 0), (_n + 2 * _alpha, 0), (_n, 2), (0, 2)]
            if _alpha
            else [(0, 0), (_n, 0), (_n, 2), (0, 2)]
        )


def unimodular_image(verts, rng: random.Random) -> list:
    """The vertices under a random unimodular map and translation."""
    mats = [
        ((1, rng.randint(-2, 2)), (0, 1)),
        ((1, 0), (rng.randint(-2, 2), 1)),
        ((0, 1), (1, 0)),
        ((-1, 0), (0, 1)),
    ]
    la, lb = (1, 0), (0, 1)
    for _ in range(rng.randrange(4)):
        (a, b), (c, d) = rng.choice(mats)
        la, lb = (
            (a * la[0] + b * lb[0], a * la[1] + b * lb[1]),
            (c * la[0] + d * lb[0], c * la[1] + d * lb[1]),
        )
    tx, ty = rng.randint(-5, 5), rng.randint(-5, 5)
    return [(la[0] * x + la[1] * y + tx, lb[0] * x + lb[1] * y + ty) for x, y in verts]


def random_smooth_polygon(rng: random.Random) -> LatticePolygon | None:
    """A random smooth polygon of genus >= 1, or None when the draw fails."""
    verts = [tuple(v) for v in rng.choice(BASE_FAMILIES)]
    for _ in range(rng.randrange(3)):
        i = rng.randrange(len(verts))
        cut = cut_corner(verts, i)
        if cut is not None:
            verts = cut
    try:
        p = polygon_from(unimodular_image(verts, rng))
    except Exception:
        return None
    from spincycles.polygon import GenusZeroError, interior_data, is_smooth

    if not is_smooth(p):
        return None
    try:
        interior_data(p)
    except GenusZeroError:
        return None
    return p
