"""Exact symplectic matrix engine over F2 and Z.

Matrices over F2 act by columns: column j of M is the packed image of the
basis vector e_j, so M x is the XOR of the columns selected by the bits of
x.  A whole 2g x 2g matrix packs into a single integer (column j occupies
bits [2g*j, 2g*(j+1))), which is the canonical encoding used for hashing,
ordering and membership.

Group closures, orbits on vectors and orbits on quadratic forms all run
one level-synchronous BFS over numpy uint64 keys (``_bfs``).  For a
closure the keys are packed matrices under left multiplication by the
generators: each generator G is tabulated as the map x -> G x over all
2^(2g) vectors, and G * (a frontier of packed matrices) is computed lane
by lane with fancy indexing.  This needs the packed matrix to fit in 64
bits, so closures are limited to genus <= ``MAX_CLOSURE_GENUS`` = 4 (2g <= 8)
and larger generators are refused before any table is built.  Each BFS
level splits its frontier into ``parts`` chunks that run on threads (at
most one per CPU).  The result is a sorted array of keys, so closure sets,
orders, orbits and transcripts do not depend on generator order, ``parts``
or thread scheduling.

The whole group Sp(2g, F2) (genus <= 3) is the closure of the 3g - 1
chain transvections along a_i, b_i and a_i + a_{i+1}, the mod-2 classes of
a Humphries-type chain of twist curves.  Every completed enumeration is
checked against the order formula |Sp(2g, 2)| = 2^(g^2) prod (4^i - 1);
since the generators are symplectic, equal order proves the closure is the
whole group.

The q-stabilizer O(q) and the admissible closure <adm(q)> are computed
once per (genus, Arf), for the standard form q0 of that Arf: the cached
group is filtered by q0-preservation and adm(q0) is closed by BFS.  Every
form q of that Arf, the standard form of each Arf, v = 0 included, is
q0 + <v, .> = q0 o T_v, so T_v maps the admissible classes of q0 onto
those of q, O(q) = T_v O(q0) T_v and <adm(q)> = T_v <adm(q0)> T_v
(Johnson 1980); both conjugates are certified before they are returned.

Integral transvections use the right-handed convention
x -> x + <x, c> c; the opposite sign is the inverse twist, and every
relation-level verdict in this package is checked under both signs.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .homology import (
    CycleClassF2,
    CycleClassZ,
    a_mask,
    is_symplectic_bits,
    swap_pairs,
)
from .polygon import PolygonTooLargeError
from .spin import QuadraticForm, standard_form

#: default element budget for closures (override per call or via SPINCYCLES_CAP)
DEFAULT_CAP = 2_000_000

#: full-group enumeration and stabilizer filtering are desk-scale only
MAX_FULL_GROUP_GENUS = 3

#: closures key packed 2g x 2g matrices as uint64: (2g)^2 <= 64 bits
MAX_CLOSURE_GENUS = 4

#: orbits tabulate each generator on all 2^(2g) vectors (8 B each): at genus 6
#: all 4,095 transvections take 128 MiB, at genus 7 they would take 2 GiB
MAX_ORBIT_GENUS = 6

_GEN_BATCH = 16  # generators deduplicated together, caps peak memory


class NotSymplecticError(ValueError):
    """A matrix expected to preserve the intersection form does not."""


class CapExceededError(PolygonTooLargeError):
    """A verification needed a complete closure but the cap cut it short."""


def resolve_cap(cap: int | None = None) -> int:
    """The closure element budget: ``cap``, else SPINCYCLES_CAP, else the default."""
    if cap is None:
        env = os.environ.get("SPINCYCLES_CAP")
        try:
            cap = int(env) if env else DEFAULT_CAP
        except ValueError:
            raise ValueError(f"SPINCYCLES_CAP must be an integer, got {env!r}") from None
    if cap <= 0:
        raise ValueError(f"cap must be a positive element count, got {cap}")
    return cap


def resolve_parts(parts: int) -> int:
    """The number of frontier chunks per BFS level; at least 1."""
    if parts < 1:
        raise ValueError(f"parts must be at least 1, got {parts}")
    return parts


@dataclass(frozen=True)
class MatF2:
    """2g x 2g matrix over F2, packed columns, acting as M @ x."""

    n: int  # dimension 2g
    cols: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError("dimension must be even and >= 2")
        if len(self.cols) != self.n or any(
            not 0 <= c < (1 << self.n) for c in self.cols
        ):
            raise ValueError("need n packed columns of n bits each")

    @classmethod
    def identity(cls, genus: int) -> "MatF2":
        n = 2 * genus
        return cls(n, tuple(1 << j for j in range(n)))

    @property
    def genus(self) -> int:
        return self.n // 2

    def apply_bits(self, x: int) -> int:
        out = 0
        rest = x
        while rest:
            j = (rest & -rest).bit_length() - 1
            out ^= self.cols[j]
            rest &= rest - 1
        return out

    def apply(self, x: CycleClassF2) -> CycleClassF2:
        if 2 * x.genus != self.n:
            raise ValueError("genus mismatch")
        return CycleClassF2(x.genus, self.apply_bits(x.bits))

    def __matmul__(self, other: "MatF2") -> "MatF2":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return MatF2(self.n, tuple(self.apply_bits(c) for c in other.cols))

    def packed(self) -> int:
        key = 0
        for j, c in enumerate(self.cols):
            key |= c << (self.n * j)
        return key

    @classmethod
    def from_packed(cls, n: int, key: int) -> "MatF2":
        mask = (1 << n) - 1
        return cls(n, tuple((key >> (n * j)) & mask for j in range(n)))

    def is_symplectic(self) -> bool:
        return is_symplectic_bits(self.cols)


def transvection_f2(c: CycleClassF2) -> MatF2:
    """x -> x + <c, x> c over F2; an involution, identity iff c = 0."""
    n = 2 * c.genus
    pairing_row = swap_pairs(c.bits)  # bit j = <c, e_j>
    cols = tuple(
        (1 << j) ^ (c.bits if (pairing_row >> j) & 1 else 0) for j in range(n)
    )
    return MatF2(n, cols)


def symplectic_form_z(genus: int) -> np.ndarray:
    j = np.zeros((2 * genus, 2 * genus), dtype=np.int64)
    for i in range(genus):
        j[2 * i, 2 * i + 1] = 1
        j[2 * i + 1, 2 * i] = -1
    return j


def transvection_z(c: CycleClassZ, sign: int = 1) -> np.ndarray:
    """Integral transvection x -> x + sign * <x, c> c.

    ``sign=+1`` is the right-handed twist convention; ``sign=-1`` is its
    inverse.
    """
    return transvection_z_power(c, 1, sign)


def transvection_z_power(c: CycleClassZ, exponent: int, sign: int = 1) -> np.ndarray:
    """transvection_z(c, sign) ** exponent = I + exponent * sign * outer(c, Jc)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    v = np.array(c.coords, dtype=np.int64)
    jc = symplectic_form_z(c.genus) @ v
    return np.eye(2 * c.genus, dtype=np.int64) + (exponent * sign) * np.outer(v, jc)


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


def preserves_q(m: MatF2, q: QuadraticForm) -> bool:
    """Does a symplectic matrix preserve q?  Raises if m is not symplectic.

    Checking q(M e_k) = q(e_k) on the basis suffices: polarization then
    propagates the equality to every class.
    """
    if m.genus != q.genus:
        raise ValueError("genus mismatch")
    if not m.is_symplectic():
        raise NotSymplecticError("matrix does not preserve the intersection form")
    qmask = q.qmask
    return all(
        q.eval_bits(m.cols[k]) == (qmask >> k) & 1 for k in range(m.n)
    )


# ---------------------------------------------------------------------------
# bulk engine: packed matrices in numpy uint64 arrays


def _vector_table(m: MatF2) -> np.ndarray:
    """uint64 table of x -> M x over all 2^n packed vectors (n <= 16)."""
    n = m.n
    table = np.zeros(1 << n, dtype=np.uint64)
    for j in range(n):
        table[1 << j : 1 << (j + 1)] = table[: 1 << j] ^ np.uint64(m.cols[j])
    return table


def _apply_table_mats(packed: np.ndarray, table: np.ndarray, n: int) -> np.ndarray:
    """Left-multiply every packed matrix by the tabulated generator."""
    mask = np.uint64((1 << n) - 1)
    out = np.zeros_like(packed)
    for j in range(n):
        shift = np.uint64(n * j)
        out |= table[(packed >> shift) & mask] << shift
    return out


def _unique_sorted(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a uint64 array; sorts ``a`` in place."""
    a.sort()
    if a.size:
        a = a[np.concatenate(([True], a[1:] != a[:-1]))]
    return a


def _setdiff_sorted(cand: np.ndarray, visited: np.ndarray) -> np.ndarray:
    """cand \\ visited for sorted unique uint64 arrays."""
    if cand.size == 0 or visited.size == 0:
        return cand
    pos = np.searchsorted(visited, cand)
    pos_c = np.minimum(pos, visited.size - 1)
    old = (pos < visited.size) & (visited[pos_c] == cand)
    return cand[~old]


def _worker_count(parts: int, chunks: int) -> int:
    """Threads for one BFS level: never more than chunks or CPUs."""
    return min(parts, chunks, os.cpu_count() or 1)


def _bfs(
    start: np.ndarray,
    step: Callable[[np.ndarray], Iterable[np.ndarray]],
    parts: int,
    cap: int | None = None,
) -> tuple[np.ndarray, bool]:
    """Level-synchronous BFS over uint64 keys.

    ``start`` is a sorted array of distinct keys and ``step(chunk)`` yields
    one candidate array per generator.  Each level's frontier is split into
    ``parts`` chunks run on threads; candidates are deduplicated
    ``_GEN_BATCH`` generators at a time to bound peak memory.  Returns the
    sorted visited keys and whether the search finished before
    ``len(visited)`` exceeded ``cap``.
    """
    resolve_parts(parts)
    visited = frontier = start

    def expand(chunk: np.ndarray) -> list[np.ndarray]:
        gens = iter(step(chunk))
        out = []
        while batch := list(islice(gens, _GEN_BATCH)):
            out.append(_setdiff_sorted(_unique_sorted(np.concatenate(batch)), visited))
        return out

    while frontier.size:
        chunks = np.array_split(frontier, min(parts, frontier.size))
        with ThreadPoolExecutor(_worker_count(parts, len(chunks))) as pool:
            results = list(pool.map(expand, chunks))
        new = [u for r in results for u in r]
        frontier = _unique_sorted(np.concatenate(new)) if new else frontier[:0]
        # visited and frontier are disjoint and sorted: insert, no re-sort
        visited = np.insert(visited, np.searchsorted(visited, frontier), frontier)
        if cap is not None and visited.size > cap:
            return visited, False
    return visited, True


@dataclass
class GroupClosure:
    """Deterministic closure result: sorted canonical encodings."""

    genus: int
    packed: np.ndarray = field(repr=False)  # sorted distinct uint64 keys
    generators: list[MatF2] = field(repr=False)
    completed: bool = True
    cap: int = DEFAULT_CAP

    @property
    def order(self) -> int:
        return len(self.packed)

    def contains_packed(self, key: int) -> bool:
        pos = int(np.searchsorted(self.packed, np.uint64(key)))
        return pos < self.order and int(self.packed[pos]) == key

    def matrices(self):
        n = 2 * self.genus
        for key in self.packed:
            yield MatF2.from_packed(n, int(key))


def closure(
    generators: list[MatF2], cap: int | None = None, parts: int = 1
) -> GroupClosure:
    """Left-multiplication BFS closure of symplectic generators.

    Stops (``completed=False``) once the element budget is exceeded; the
    element count at the stop is still deterministic because levels are
    processed synchronously.  Generators above genus ``MAX_CLOSURE_GENUS``
    raise ``ValueError``.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].n
    if any(g.n != n for g in generators):
        raise ValueError("generators must share one genus")
    if n // 2 > MAX_CLOSURE_GENUS:
        raise ValueError(
            f"closure supports genus <= MAX_CLOSURE_GENUS = {MAX_CLOSURE_GENUS} "
            f"(packed keys must fit in 64 bits), got genus {n // 2}"
        )
    if not all(g.is_symplectic() for g in generators):
        raise NotSymplecticError("generator does not preserve the form")
    cap = resolve_cap(cap)
    tables = [_vector_table(g) for g in generators]
    ident = np.array([MatF2.identity(n // 2).packed()], dtype=np.uint64)
    packed, completed = _bfs(
        ident, lambda chunk: (_apply_table_mats(chunk, t, n) for t in tables), parts, cap
    )
    return GroupClosure(n // 2, packed, list(generators), completed, cap)


def membership(m: MatF2, group: GroupClosure) -> bool:
    """Canonical-encoding membership; the closure must be completed."""
    if not group.completed:
        raise ValueError("closure incomplete: membership would be unreliable")
    if m.genus != group.genus:
        raise ValueError("genus mismatch")
    return group.contains_packed(m.packed())


def all_transvections(genus: int) -> list[MatF2]:
    """Transvections along every nonzero mod-2 class."""
    return [
        transvection_f2(CycleClassF2(genus, bits))
        for bits in range(1, 1 << (2 * genus))
    ]


def chain_transvections(genus: int) -> list[MatF2]:
    """Transvections along a_i, b_i and a_i + a_{i+1}: 3g - 1 generators.

    These are the mod-2 classes of a Humphries-type chain of twist curves,
    which generate the mapping class group and so map onto Sp(2g, F2).
    """
    classes = [1 << k for k in range(2 * genus)]
    classes += [(1 << 2 * i) | (1 << (2 * i + 2)) for i in range(genus - 1)]
    return [transvection_f2(CycleClassF2(genus, bits)) for bits in classes]


def sp_order(genus: int) -> int:
    """|Sp(2g, 2)| = 2^(g^2) * prod_{i=1..g} (4^i - 1)."""
    order = 1 << (genus * genus)
    for i in range(1, genus + 1):
        order *= (1 << (2 * i)) - 1
    return order


def admissible_transvections(q: QuadraticForm) -> list[MatF2]:
    """Transvections along every class with q = 1."""
    out = []
    for bits in range(1, 1 << (2 * q.genus)):
        if q.eval_bits(bits) == 1:
            out.append(transvection_f2(CycleClassF2(q.genus, bits)))
    return out


#: per genus: the read-only Sp(2g, F2), and per Arf value [O(q0), A0] for
#: the standard form q0 of that Arf, where A0 = <adm(q0)> is None until the
#: first generation check of that Arf and is the O(q0) array itself when the
#: two are equal
_FULL_GROUP_CACHE: dict[int, tuple[np.ndarray, dict[int, list]]] = {}


def full_symplectic_closure(
    genus: int, cap: int | None = None, parts: int = 1
) -> GroupClosure:
    """The whole symplectic group over F2, as the closure of the chain transvections.

    A completed closure whose order is not |Sp(2g, 2)| raises
    ``RuntimeError``.  Completed enumerations are cached per genus; the
    cached array is returned read-only with the chain transvections
    rebuilt, so repeat verifications skip the BFS.
    """
    if genus > MAX_FULL_GROUP_GENUS:
        raise ValueError(
            f"full-group enumeration supports genus <= {MAX_FULL_GROUP_GENUS}"
        )
    cap = resolve_cap(cap)
    cached = _FULL_GROUP_CACHE.get(genus)
    if cached is not None and cached[0].size <= cap:
        return GroupClosure(genus, cached[0], chain_transvections(genus), True, cap)
    result = closure(chain_transvections(genus), cap, parts)
    if result.completed:
        if result.order != sp_order(genus):
            raise RuntimeError(
                f"closure of {len(result.generators)} generators has order "
                f"{result.order}, not |Sp({2 * genus}, 2)| = {sp_order(genus)}"
            )
        result.packed.setflags(write=False)
        _FULL_GROUP_CACHE[genus] = (result.packed, {})
    return result


def q_values_table(q: QuadraticForm) -> np.ndarray:
    """q over all 2^(2g) packed classes (uint8), the closed form of
    :meth:`QuadraticForm.eval_bits` applied to every class at once."""
    x = np.arange(1 << (2 * q.genus), dtype=np.uint64)
    lin = np.bitwise_count(x & np.uint64(q.qmask))
    quad = np.bitwise_count(x & (x >> np.uint64(1)) & np.uint64(a_mask(q.genus)))
    return ((lin + quad) & np.uint64(1)).astype(np.uint8)


def _filter_preserves_q(packed: np.ndarray, q: QuadraticForm) -> np.ndarray:
    """Vectorized stabilizer filter over packed symplectic matrices."""
    n = 2 * q.genus
    table = q_values_table(q)
    qmask = q.qmask
    mask = np.uint64((1 << n) - 1)
    keep = np.ones(packed.size, dtype=bool)
    for k in range(n):
        lane = (packed >> np.uint64(n * k)) & mask
        keep &= table[lane] == (qmask >> k) & 1
    return packed[keep]


def _conjugate_by_transvection(packed: np.ndarray, v: int, n: int) -> np.ndarray:
    """Sorted T_v M T_v for every packed matrix M."""
    t_v = transvection_f2(CycleClassF2(n // 2, v))
    out = _apply_table_mats(packed, _vector_table(t_v), n)
    # (A T_v) e_j = A e_j + <v, e_j> A v: XOR A v into column j where <v, e_j> = 1
    mask = np.uint64((1 << n) - 1)
    av = np.zeros_like(out)
    for k in range(n):
        if (v >> k) & 1:
            av ^= (out >> np.uint64(n * k)) & mask
    pairing_row = swap_pairs(v)
    for j in range(n):
        if (pairing_row >> j) & 1:
            out ^= av << np.uint64(n * j)
    out.sort()
    return out


def _certify(what: str, q: QuadraticForm, checks: dict[str, bool]) -> None:
    """Raise ``RuntimeError`` naming every failed check of ``what`` for q."""
    failed = ", not ".join(name for name, ok in checks.items() if not ok)
    if failed:
        raise RuntimeError(f"{what} of qmask {q.qmask:#x} is not {failed}")


def q_stabilizer_bruteforce(
    q: QuadraticForm, cap: int | None = None, parts: int = 1
) -> GroupClosure:
    """The q-stabilizer O(q) inside the full symplectic group (genus <= 3).

    Brute force for the standard form q0 of each Arf: the cached
    Sp(2g, F2) is filtered by q0-preservation once, and the read-only
    result is cached.  Conjugated and certified for every form, the
    standard form of each Arf, v = 0 included: q = q0 + <v, .> with
    q0(v) = 0, so q = q0 o T_v and O(q) = T_v O(q0) T_v (Johnson 1980).
    The conjugated array must be distinct, inside Sp(2g, F2) and
    q-preserving, or ``RuntimeError`` is raised; a subset of O(q) with
    |O(q0)| = |O(q)| elements is O(q).
    """
    full = full_symplectic_closure(q.genus, cap, parts)
    if not full.completed:
        raise CapExceededError(f"full group exceeded the cap of {full.cap}")
    bases = _FULL_GROUP_CACHE[q.genus][1]
    arf = q.arf()
    q0 = standard_form(q.genus, arf)
    if arf not in bases:
        stab0 = _filter_preserves_q(full.packed, q0)
        stab0.setflags(write=False)
        bases[arf] = [stab0, None]
    v = swap_pairs(q.qmask ^ q0.qmask)
    stab = _conjugate_by_transvection(bases[arf][0], v, 2 * q.genus)
    _certify("conjugated stabilizer", q, {
        "distinct": bool(np.all(stab[1:] > stab[:-1])),
        "inside Sp": _setdiff_sorted(stab, full.packed).size == 0,
        "q-preserving": _filter_preserves_q(stab, q).size == stab.size,
    })
    return GroupClosure(q.genus, stab, [], True, full.cap)


def verify_transvection_generation(
    q: QuadraticForm, cap: int | None = None, parts: int = 1
) -> dict:
    """Compare the admissible-transvection closure with the q-stabilizer.

    Returns a transcript dict with both orders and a verdict
    (``equal`` or ``proper_subgroup``).  For genus 3 equality is the
    expected outcome; for smaller genus the verdict is recorded as found.

    The admissible closure is BFS for the standard form q0 of each Arf,
    cached as A0, and conjugated and certified for every form, the
    standard form of each Arf, v = 0 included, like the stabilizer:
    q = q0 + <v, .> is q0 o T_v, so T_v maps adm(q0) onto adm(q) and
    <adm(q)> = T_v A0 T_v (Johnson 1980); when A0 is O(q0) that conjugate
    is the O(q) already certified.  The conjugate A is certified, or
    ``RuntimeError`` names every failed check: adm(q) is T_v adm(q0) T_v
    (generators, in pure Python), A is distinct, inside O(q), contains
    adm(q) and, when smaller than O(q), closed under left multiplication
    by adm(q).  A is then a group containing adm(q) with |A| = |A0| =
    |<adm(q)>|, so A = <adm(q)>.  The cap is checked first, by
    :func:`q_stabilizer_bruteforce`.
    """
    stab = q_stabilizer_bruteforce(q, cap, parts).packed
    n = 2 * q.genus
    q0 = standard_form(q.genus, q.arf())
    v = swap_pairs(q.qmask ^ q0.qmask)
    base = _FULL_GROUP_CACHE[q.genus][1][q.arf()]
    stab0, adm0 = base
    if adm0 is None:
        result = closure(admissible_transvections(q0), cap, parts)
        if not result.completed:
            raise CapExceededError(f"admissible closure exceeded the cap of {result.cap}")
        adm0 = stab0 if np.array_equal(result.packed, stab0) else result.packed
        adm0.setflags(write=False)
        base[1] = adm0
    adm = stab if adm0 is stab0 else _conjugate_by_transvection(adm0, v, n)
    gens = admissible_transvections(q)
    keys = np.array(sorted(g.packed() for g in gens), dtype=np.uint64)
    t_v = transvection_f2(CycleClassF2(q.genus, v))
    moved = sorted((t_v @ c @ t_v).packed() for c in admissible_transvections(q0))
    _certify("admissible closure", q, {
        "generators": keys.tolist() == moved,
        "distinct": bool(np.all(adm[1:] > adm[:-1])),
        "inside O(q)": adm is stab or _setdiff_sorted(adm, stab).size == 0,
        "contains generators": _setdiff_sorted(keys, adm).size == 0,
        "closed": adm.size == stab.size
        or all(
            _setdiff_sorted(_apply_table_mats(adm, _vector_table(g), n), adm).size == 0
            for g in gens
        ),
    })
    equal = bool(np.array_equal(adm, stab))
    subset = equal or _setdiff_sorted(adm, stab).size == 0
    return {
        "genus": q.genus,
        "arf": q.arf(),
        "closure_order": int(adm.size),
        "stabilizer_order": int(stab.size),
        # a completed full closure is proved equal to Sp(2g, 2)
        "full_group_order": sp_order(q.genus),
        "closure_is_subset": subset,
        "verdict": "equal" if equal else "proper_subgroup",
    }


def orbit(
    x: CycleClassF2, generators: list[MatF2], parts: int = 1
) -> set[CycleClassF2]:
    """BFS orbit of a class under the group generated by ``generators``."""
    if x.genus > MAX_ORBIT_GENUS:
        raise ValueError(f"orbit computations support genus <= {MAX_ORBIT_GENUS}")
    if any(g.genus != x.genus for g in generators):
        raise ValueError("genus mismatch")
    tables = [_vector_table(g) for g in generators]
    start = np.array([x.bits], dtype=np.uint64)
    packed, _ = _bfs(start, lambda chunk: (t[chunk] for t in tables), parts)
    return {CycleClassF2(x.genus, int(v)) for v in packed}


# ---------------------------------------------------------------------------
# orbit structure used by the acceptance checks


def _arf_of_form_masks(masks: np.ndarray, genus: int) -> np.ndarray:
    ma = np.uint64(a_mask(genus))
    return (np.bitwise_count(masks & (masks >> np.uint64(1)) & ma) & np.uint64(1)).astype(
        np.uint8
    )


def verify_arf_classification(genus: int, parts: int = 1) -> dict:
    """Orbits of the symplectic group on all 2^(2g) quadratic forms.

    A form is encoded by its 2g basis values.  A transvection along c
    fixes a form q when q(c) = 1 and otherwise flips the values on the
    basis vectors pairing with c, which follows from polarization.  The
    transcript records the orbit sizes, that they partition the form
    count, and that the Arf invariant is constant on each orbit.
    """
    if genus > MAX_FULL_GROUP_GENUS:
        raise ValueError(f"supported for genus <= {MAX_FULL_GROUP_GENUS}")
    total = 1 << (2 * genus)
    ma = a_mask(genus)
    one = np.uint64(1)

    cs = list(range(1, total))
    flips = [np.uint64(swap_pairs(c)) for c in cs]
    quads = [np.uint64((c & (c >> 1) & ma).bit_count() & 1) for c in cs]

    def step(front: np.ndarray):
        for c, flip, quad in zip(cs, flips, quads):
            qc = (np.bitwise_count(front & np.uint64(c)) + quad) & one
            yield np.where(qc == one, front, front ^ flip)

    remaining = np.ones(total, dtype=bool)
    orbits = []
    while remaining.any():
        start = np.flatnonzero(remaining)[:1].astype(np.uint64)
        visited, _ = _bfs(start, step, parts)
        arfs = _arf_of_form_masks(visited, genus)
        orbits.append(
            {
                "arf": int(arfs[0]),
                "size": int(visited.size),
                "arf_constant": bool(np.all(arfs == arfs[0])),
            }
        )
        remaining[visited.astype(np.int64)] = False
    orbits.sort(key=lambda o: o["arf"])
    sizes_ok = sum(o["size"] for o in orbits) == total
    return {
        "genus": genus,
        "form_count": total,
        "orbits": orbits,
        "partition_ok": sizes_ok,
        "two_orbits": len(orbits) == 2,
        "arf_constant_on_orbits": all(o["arf_constant"] for o in orbits),
    }


def q_orbit_partition(q: QuadraticForm, cap: int | None = None, parts: int = 1) -> dict:
    """Orbits of the q-stabilizer on nonzero mod-2 classes.

    The stabilizer comes from :func:`q_stabilizer_bruteforce`: brute-force
    for the standard form of each Arf, conjugated and certified for every
    form, the standard form of each Arf, v = 0 included.

    Expected partition: {q = 1} and {q = 0} minus zero (zero is a fixed
    point).  The transcript records the orbit sizes with their q values
    and whether the expectation holds.
    """
    stab = q_stabilizer_bruteforce(q, cap, parts)
    n = 2 * q.genus
    mask = np.uint64((1 << n) - 1)
    table = q_values_table(q)
    # the smallest class not yet placed is the smallest member of its orbit,
    # so orbits come out ordered by their smallest member
    remaining = np.ones(1 << n, dtype=bool)
    orbits = []
    while remaining.any():
        x = int(np.flatnonzero(remaining)[0])
        images = np.zeros(stab.order, dtype=np.uint64)
        for j in range(n):
            if (x >> j) & 1:
                images ^= (stab.packed >> np.uint64(n * j)) & mask
        members = _unique_sorted(images).astype(np.intp)
        orbits.append(
            {
                "q_value": sorted({int(v) for v in table[members]}),
                "size": int(members.size),
                "contains_zero": bool(members[0] == 0),
            }
        )
        remaining[members] = False
    # expected orbits: {0}, the whole of q^-1(1), and q^-1(0) minus zero
    # (the last is empty for genus 1 with Arf 1)
    ones = int(table.sum())
    zeros_nonzero = (1 << n) - ones - 1
    expected = {(1, True, 0), (ones, False, 1)}
    if zeros_nonzero:
        expected.add((zeros_nonzero, False, 0))
    actual = {
        (o["size"], o["contains_zero"], o["q_value"][0])
        for o in orbits
        if len(o["q_value"]) == 1
    }
    ok = len(actual) == len(orbits) and actual == expected
    return {
        "genus": q.genus,
        "arf": q.arf(),
        "stabilizer_order": stab.order,
        "orbits": orbits,
        "matches_expected_partition": bool(ok),
    }
