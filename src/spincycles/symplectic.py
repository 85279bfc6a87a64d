"""Exact symplectic matrix engine over F2.

Matrices over F2 act by columns: column j of M is the packed image of e_j,
so M x is the XOR of the columns selected by the bits of x.  A 2g x 2g
matrix packs into one integer (column j in bits [2g*j, 2g*(j+1))), the
canonical encoding for hashing, ordering and membership.

The generation and orbit verdicts rest on one Schreier-Sims engine (Sims
1970; Seress 2003, ch. 4) over the base e_0, ..., e_{2g-1}: level i of a
chain holds the orbit of e_i under the strong generators fixing e_0, ...,
e_{i-1}, and prod |orbit_i| never exceeds the order generated.  Each
(genus, Arf) has one cached base, of the standard form q0 of that Arf.  Its
chains prove that the 3g - 1 chain transvections (along a_i, b_i and
a_i + a_{i+1}, a Humphries-type chain) reach |Sp(2g, 2)|, and sift adm(q0),
the transvections along the classes with q0 = 1, in class order: each
passes ``preserves_q``, so reaching |O(q0)| proves <adm(q0)> = O(q0).  Only
genus 2, Arf 0 stops short, at 36 of 72 with every Schreier generator
sifted; there the pair swap (e_0, e_1) <-> (e_2, e_3), in O(q0), is
adjoined and must reach |O(q0)|.  The strong generators of the chain that
reaches |O(q0)| label each class by its O(q0)-orbit.  A chain short of its
formula, or a generator outside the group the formula counts, raises
``VerificationError``.  Chains serve genus <= ``MAX_CHAIN_GENUS``, the
one budget of the verdicts: the largest chain there, at genus 6, stores
8,184 points (sum |orbit_i|).  On a 2-core Xeon a cold ``verify
generation --genus 6`` takes 0.2 s, a genus-7 base's two chains 1.5 s.

Every form q of an Arf (the standard form too, v = 0) is q0 + <v, .> =
q0 o T_v (Johnson 1980).  A verdict certifies the matrix T_v on the 2g
basis vectors: symplectic, an involution, and q(T_v e_k) = q0(e_k).  Both
q o T_v and q0 refine the intersection form, and polarization, q(x + y) =
q(x) + q(y) + <x, y>, fixes such a form by its basis values, so q o T_v =
q0 on every class.  Then M -> T_v M T_v maps O(q0) onto O(q) and, as
T_v t_c T_v = t_{T_v c}, adm(q0) onto adm(q), so q has the base's orders
and verdict, and the O(q)-orbit of x is labelled by that of T_v x.

The verdicts run on Python ints and lists: the table of a matrix on the
2^(2g) classes (``_table``) and the one breadth-first search that also
builds the spanning forests (``homology.breadth_first``), which labels the
O(q0)-orbits and the orbits of Sp(2g, F2) on forms.  The form
orbits move by the 3g - 1 chain transvections alone, on the premise that
they generate Sp(2g, F2): the full-group chain of every base must reach
|Sp(2g, 2)|, and the tests close ``chain_transvections`` at genus <= 3.  The
brute-force references for the tests share none of that code and load
numpy on first use: the BFS closures and orbits (``_bfs``, one sequential,
level-synchronous BFS over sorted numpy uint64 keys; closure keys are
packed matrices, so genus <= ``MAX_CLOSURE_GENUS``), the enumerated
Sp(2g, F2) and its q-filter.  They are bounded by an element budget,
``DEFAULT_CAP`` unless a call passes one.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple

from .homology import breadth_first, is_symplectic_bits, swap_pairs
from .polygon import PolygonTooLargeError, Record, VerificationError
from .spin import QuadraticForm, standard_form

if TYPE_CHECKING:
    import numpy as np

#: full-group enumeration and stabilizer filtering are desk-scale only
MAX_FULL_GROUP_GENUS = 3

#: stabilizer chains, and the 2^(2g)-entry tables that carry their verdicts
MAX_CHAIN_GENUS = 6

#: closures key packed 2g x 2g matrices as uint64: (2g)^2 <= 64 bits
MAX_CLOSURE_GENUS = 4

#: element budget of the brute-force closures and enumerations
DEFAULT_CAP = 2_000_000

#: orbits tabulate each generator on all 2^(2g) vectors (8 B each): at genus 6
#: all 4,095 transvections take 128 MiB, at genus 7 they would take 2 GiB
MAX_ORBIT_GENUS = 6

_GEN_BATCH = 16  # generators deduplicated together, caps peak memory

_set = object.__setattr__


class NotSymplecticError(ValueError):
    """A matrix expected to preserve the intersection form does not."""


class CapExceededError(PolygonTooLargeError):
    """A brute-force reference outgrew its cap, or a chain its genus limit."""


class MatF2(Record):
    """2g x 2g matrix over F2, packed columns, acting as M @ x."""

    n: int  # dimension 2g
    cols: tuple[int, ...]
    __slots__ = _fields = ("n", "cols")

    def __init__(self, n: int, cols: tuple[int, ...]):
        if n < 2 or n % 2 != 0:
            raise ValueError("dimension must be even and >= 2")
        if len(cols) != n or any(not 0 <= c < (1 << n) for c in cols):
            raise ValueError("need n packed columns of n bits each")
        _set(self, "n", n)
        _set(self, "cols", cols)

    @classmethod
    def identity(cls, genus: int) -> "MatF2":
        n = 2 * genus
        return cls(n, tuple(1 << j for j in range(n)))

    @property
    def genus(self) -> int:
        return self.n // 2

    def apply_bits(self, x: int) -> int:
        out = 0
        while x:
            j = (x & -x).bit_length() - 1
            out ^= self.cols[j]
            x &= x - 1
        return out

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

    def inverse(self) -> "MatF2":
        """J M^T J, the inverse of a symplectic M (J swaps each pair a_i, b_i)."""
        rows = [sum(((c >> k) & 1) << j for j, c in enumerate(self.cols)) for k in range(self.n)]
        return MatF2(self.n, tuple(swap_pairs(rows[j ^ 1]) for j in range(self.n)))


def transvection_f2(genus: int, c: int) -> MatF2:
    """x -> x + <c, x> c over F2 for a packed class c; an involution, identity iff c = 0."""
    if not 0 <= c < 1 << (2 * genus):
        raise ValueError("bit mask out of range for this genus")
    pairing_row = swap_pairs(c)  # bit j = <c, e_j>
    cols = tuple((1 << j) ^ (c if (pairing_row >> j) & 1 else 0) for j in range(2 * genus))
    return MatF2(2 * genus, cols)


def _basis_values(m: MatF2, q: QuadraticForm) -> int:
    """q(M e_k) for k < 2g, packed like ``q.qmask``: they fix q o M if M is symplectic."""
    return sum(q.eval_bits(c) << k for k, c in enumerate(m.cols))


def preserves_q(m: MatF2, q: QuadraticForm) -> bool:
    """Does a symplectic matrix preserve q?  Raises if m is not symplectic.

    Checking q(M e_k) = q(e_k) on the basis suffices: polarization then
    propagates the equality to every class (``_basis_values``).
    """
    if m.genus != q.genus:
        raise ValueError("genus mismatch")
    if not m.is_symplectic():
        raise NotSymplecticError("matrix does not preserve the intersection form")
    return _basis_values(m, q) == q.qmask


# ---------------------------------------------------------------------------
# verdict tables: Python ints and lists


def _table(cols) -> list[int]:
    """x -> M x over all 2^n packed vectors, from the n packed columns of M:
    the table doubles by XOR with one column at a time."""
    table = [0]
    for c in cols:
        table += [x ^ c for x in table]
    return table


def q_values_table(q: QuadraticForm) -> list[int]:
    """q over all 2^(2g) packed classes, doubled like ``_table``.

    q(x + e_k) = q(x) + q(e_k) + <x, e_k>, and for x < 2^k only bit k ^ 1
    of x can pair with e_k.  So for x < 4^i, pairing with neither a_i nor
    b_i, x + a_i, x + b_i and x + a_i + b_i take q(x) plus q(a_i), q(b_i)
    and q(a_i) + q(b_i) + 1: each pair doubles the table twice.
    """
    table = [0]
    for qa, qb in zip(q.q_a, q.q_b):
        flip = [v ^ 1 for v in table]
        table += (flip if qa else table) + (flip if qb else table) + (table if qa ^ qb else flip)
    return table


# ---------------------------------------------------------------------------
# brute-force references: packed matrices in numpy uint64 arrays


def _vector_table(cols) -> np.ndarray:
    """uint64 table of x -> M x over all 2^n packed vectors (n <= 16).

    ``cols`` holds the n packed columns of M, or those of k matrices as a
    (k, n) array, which gives one table per matrix, shape (k, 2^n).
    """
    import numpy as np

    cols = np.asarray(cols, dtype=np.uint64)
    n = cols.shape[-1]
    table = np.zeros((*cols.shape[:-1], 1 << n), dtype=np.uint64)
    for j in range(n):
        table[..., 1 << j : 1 << (j + 1)] = table[..., : 1 << j] ^ cols[..., j, None]
    return table


def _apply_table_mats(packed: np.ndarray, table: np.ndarray, n: int) -> np.ndarray:
    """Left-multiply every packed matrix by the tabulated generator.

    A (k, 2^n) table of k matrices gives all k x len(packed) products,
    shape (k, len(packed)).
    """
    import numpy as np

    mask = np.uint64((1 << n) - 1)
    out = np.zeros((*table.shape[:-1], packed.size), dtype=np.uint64)
    for j in range(n):
        shift = np.uint64(n * j)
        out |= (table << shift)[..., (packed >> shift) & mask]
    return out


def _unique_sorted(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a uint64 array; sorts ``a`` in place."""
    import numpy as np

    a.sort()
    if a.size:
        a = a[np.concatenate(([True], a[1:] != a[:-1]))]
    return a


def _setdiff_sorted(cand: np.ndarray, visited: np.ndarray) -> np.ndarray:
    """cand \\ visited for sorted unique uint64 arrays."""
    import numpy as np

    if cand.size == 0 or visited.size == 0:
        return cand
    pos = np.searchsorted(visited, cand)
    pos_c = np.minimum(pos, visited.size - 1)
    old = (pos < visited.size) & (visited[pos_c] == cand)
    return cand[~old]


def _bfs(
    start: np.ndarray,
    step: Callable[[np.ndarray], Iterable[np.ndarray]],
    cap: int | None = None,
) -> tuple[np.ndarray, bool]:
    """Level-synchronous BFS over uint64 keys.

    ``start`` is a sorted array of distinct keys and ``step(frontier)``
    yields candidate arrays, one per generator or several generators at
    once; candidates are deduplicated ``_GEN_BATCH`` arrays at a time to
    bound peak memory.  Returns the sorted visited keys and whether the
    search finished before ``len(visited)`` exceeded ``cap``.
    """
    import numpy as np

    visited = frontier = start
    while frontier.size:
        gens = iter(step(frontier))
        new = []
        while batch := list(islice(gens, _GEN_BATCH)):
            new.append(_setdiff_sorted(_unique_sorted(np.concatenate(batch)), visited))
        frontier = _unique_sorted(np.concatenate(new)) if new else frontier[:0]
        # visited and frontier are disjoint and sorted: insert, no re-sort
        visited = np.insert(visited, np.searchsorted(visited, frontier), frontier)
        if cap is not None and visited.size > cap:
            return visited, False
    return visited, True


class GroupClosure(Record):
    """Deterministic closure result: sorted canonical encodings."""

    genus: int
    packed: np.ndarray  # sorted distinct uint64 keys
    generators: list[MatF2]
    completed: bool
    cap: int
    _fields = ("genus", "packed", "generators", "completed", "cap")

    def _key(self) -> tuple:  # packed by value; the generator list stays unhashable
        return (self.genus, self.packed.tobytes(), self.generators, self.completed, self.cap)

    @property
    def order(self) -> int:
        return len(self.packed)

    def contains_packed(self, key: int) -> bool:
        import numpy as np

        pos = int(np.searchsorted(self.packed, np.uint64(key)))
        return pos < self.order and int(self.packed[pos]) == key

    def matrices(self):
        n = 2 * self.genus
        for key in self.packed:
            yield MatF2.from_packed(n, int(key))


def closure(generators: list[MatF2], cap: int = DEFAULT_CAP) -> GroupClosure:
    """Left-multiplication BFS closure of symplectic generators.

    Stops (``completed=False``) once the element budget is exceeded; the
    element count at the stop is still deterministic because levels are
    processed synchronously.  Generators above genus ``MAX_CLOSURE_GENUS``
    raise ``ValueError``.
    """
    import numpy as np

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
    tables = [_vector_table(g.cols) for g in generators]
    ident = np.array([MatF2.identity(n // 2).packed()], dtype=np.uint64)
    packed, completed = _bfs(
        ident, lambda front: (_apply_table_mats(front, t, n) for t in tables), cap
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
    return [transvection_f2(genus, bits) for bits in range(1, 1 << (2 * genus))]


def chain_classes(genus: int) -> list[int]:
    """a_i, b_i, then a_i + a_{i+1}: the 3g - 1 packed mod-2 classes of a
    Humphries-type chain of twist curves, whose twists generate the mapping
    class group and so map onto Sp(2g, F2)."""
    return [1 << k for k in range(2 * genus)] + [0b101 << 2 * i for i in range(genus - 1)]


def chain_transvections(genus: int) -> list[MatF2]:
    """Transvections along the :func:`chain_classes`: 3g - 1 generators."""
    return [transvection_f2(genus, bits) for bits in chain_classes(genus)]


def sp_order(genus: int) -> int:
    """|Sp(2g, 2)| = 2^(g^2) * prod_{i=1..g} (4^i - 1)."""
    order = 1 << (genus * genus)
    for i in range(1, genus + 1):
        order *= (1 << (2 * i)) - 1
    return order


def o_order(genus: int, arf: int) -> int:
    """|O(q)| = |Sp(2g, 2)| / #forms of q's Arf, which Sp(2g, F2) permutes transitively."""
    return sp_order(genus) // ((1 << (genus - 1)) * ((1 << genus) + (-1) ** arf))


def admissible_transvections(q: QuadraticForm) -> list[MatF2]:
    """Transvections along every class with q = 1."""
    return [transvection_f2(q.genus, c) for c in range(1, 1 << (2 * q.genus)) if q.eval_bits(c)]


def _pair_transversals(
    genus: int, generators: list[MatF2]
) -> list[list[tuple[int, ...]]]:
    """T_0, ..., T_{g-1} of the fixed standard base, as column tuples.

    T_i holds one product of the generators that fix e_0, ..., e_{2i-1}
    per image of the pair (e_2i, e_2i+1) that those generators reach: a
    BFS over pair images keeps the first product that reaches each image.
    """
    n = 2 * genus
    ident = tuple(1 << j for j in range(n))
    tables = [(g.cols, _vector_table(g.cols).tolist()) for g in generators]
    out = []
    for i in range(genus):
        level = [t for cols, t in tables if cols[: 2 * i] == ident[: 2 * i]]
        reps = {ident[2 * i : 2 * i + 2]: ident}
        frontier = [ident]
        while frontier:
            found = []
            for m in frontier:
                for t in level:
                    image = (t[m[2 * i]], t[m[2 * i + 1]])
                    if image not in reps:
                        reps[image] = tuple(t[c] for c in m)
                        found.append(reps[image])
            frontier = found
        out.append(list(reps.values()))
    return out


def full_symplectic_closure(genus: int, cap: int = DEFAULT_CAP) -> GroupClosure:
    """Sp(2g, F2) enumerated (genus <= 3), a brute-force test reference.

    The transversal product T_0 T_1 ... T_{g-1} of the chain transvections
    (:func:`_pair_transversals`) must have |Sp(2g, 2)| distinct elements,
    else ``RuntimeError``.  A cap below |Sp(2g, 2)| returns an incomplete
    closure at once, with no elements.
    """
    import numpy as np

    if genus > MAX_FULL_GROUP_GENUS:
        raise ValueError(
            f"full-group enumeration supports genus <= {MAX_FULL_GROUP_GENUS}"
        )
    gens = chain_transvections(genus)
    if sp_order(genus) > cap:
        return GroupClosure(genus, np.zeros(0, dtype=np.uint64), gens, False, cap)
    if not all(g.is_symplectic() for g in gens):
        raise NotSymplecticError("generator does not preserve the form")
    n = 2 * genus
    packed = np.array([MatF2.identity(genus).packed()], dtype=np.uint64)
    for level in reversed(_pair_transversals(genus, gens)):
        packed = _apply_table_mats(packed, _vector_table(level), n).ravel()
    packed = _unique_sorted(packed)
    if packed.size != sp_order(genus):
        raise RuntimeError(
            f"transversal product of {len(gens)} generators has order "
            f"{packed.size}, not |Sp({n}, 2)| = {sp_order(genus)}"
        )
    return GroupClosure(genus, packed, gens, True, cap)


def _filter_preserves_q(packed: np.ndarray, q: QuadraticForm) -> np.ndarray:
    """Vectorized stabilizer filter over packed symplectic matrices."""
    import numpy as np

    n = 2 * q.genus
    table = np.array(q_values_table(q), dtype=np.uint8)
    qmask = q.qmask
    mask = np.uint64((1 << n) - 1)
    keep = np.ones(packed.size, dtype=bool)
    for k in range(n):
        lane = (packed >> np.uint64(n * k)) & mask
        keep &= table[lane] == (qmask >> k) & 1
    return packed[keep]


def q_stabilizer_bruteforce(q: QuadraticForm, cap: int = DEFAULT_CAP) -> GroupClosure:
    """O(q) filtered from the enumerated Sp(2g, F2), a test reference."""
    full = full_symplectic_closure(q.genus, cap)
    if not full.completed:
        raise CapExceededError(f"full group exceeded the cap of {full.cap}")
    return GroupClosure(q.genus, _filter_preserves_q(full.packed, q), [], True, full.cap)


def _certify(what: str, q: QuadraticForm, checks: dict[str, bool]) -> None:
    """Raise ``VerificationError`` naming every failed check of ``what`` for q."""
    failed = ", not ".join(name for name, ok in checks.items() if not ok)
    if failed:
        raise VerificationError(f"{what} of qmask {q.qmask:#x} is not {failed}")


def _schreier_sims(
    what: str, q0: QuadraticForm, generators: list[MatF2], check: tuple[str, Callable],
    bound: int, short_ok: bool = False,
) -> tuple[int, int, list[MatF2]]:
    """(order, stored points, strong generators) of a chain of <generators>.

    Level i holds the orbit of e_i under the strong generators fixing e_0,
    ..., e_{i-1}.  The generators, then the Schreier generators
    u_{sp}^-1 s u_p of each level from the top, are sifted; a residue
    moving e_j joins the levels from its sift's start down to j.  Each
    generator must pass ``check``, which bounds |<generators>| by
    ``bound``, so sifting stops once prod |orbit_i| reaches it.  Otherwise
    every Schreier generator is sifted and the product is the exact order
    (Schreier's lemma), which unless ``short_ok`` must equal ``bound``.
    """
    name, ok = check
    _certify(f"{what} chain", q0, {f"built on {name} generators": all(map(ok, generators))})
    n = generators[0].n
    ident = MatF2.identity(n // 2)
    # per level: point -> (parent, strong generator) in the orbit tree, strong
    # generators (s, s^-1, table of s), and the (u_p, u_p^-1) built so far
    levels = [({1 << i: None}, [], {1 << i: (ident, ident)}) for i in range(n)]

    def order() -> int:
        return math.prod(len(orbit) for orbit, _, _ in levels)

    def coset(i: int, p: int) -> tuple[MatF2, MatF2]:
        orbit, _, known = levels[i]
        path = []
        while p not in known:
            path.append(p)
            p = orbit[p][0]
        u, u_inv = known[p]
        for x in reversed(path):
            s, s_inv, _ = orbit[x][1]
            u, u_inv = known[x] = (s @ u, u_inv @ s_inv)
        return u, u_inv

    def add(h: MatF2, start: int) -> bool:
        for j in range(start, n):
            if h.cols[j] not in levels[j][0]:
                break
            if h.cols[j] != 1 << j:
                h = coset(j, h.cols[j])[1] @ h
        else:
            return False
        strong = (h, h.inverse(), _table(h.cols))
        for orbit, gens, _ in levels[start : j + 1]:
            gens.append(strong)
            old = len(orbit)  # the new generator on old points, all on new ones
            todo = list(orbit)
            for k, p in enumerate(todo):
                for s in gens if k >= old else gens[-1:]:
                    x = s[2][p]
                    if x not in orbit:
                        orbit[x] = (p, s)
                        todo.append(x)
        return True

    def sift() -> None:
        for g in generators:
            if add(g, 0) and order() >= bound:
                return
        # level i adds only to deeper levels: one pass from the top suffices
        for i, (orbit, gens, _) in enumerate(levels):
            for p in orbit:
                for s, _, table in gens:
                    h = coset(i, table[p])[1] @ s @ coset(i, p)[0]
                    if add(h, i + 1) and order() >= bound:
                        return

    sift()
    if not short_ok:
        _certify(f"{what} chain", q0, {f"of order {bound}": order() == bound})
    return order(), sum(len(orbit) for orbit, _, _ in levels), [s[0] for s in levels[0][1]]


def _pair_swap(genus: int) -> MatF2:
    """(e_0, e_1) <-> (e_2, e_3), fixing the other basis vectors."""
    cols = MatF2.identity(genus).cols
    return MatF2(2 * genus, cols[2:4] + cols[:2] + cols[4:])


class _Base(NamedTuple):
    closure_order: int  # |<adm(q0)>|
    labels: tuple[int, ...]  # labels[x]: the smallest member of the O(q0)-orbit of x
    points: tuple[tuple[str, int], ...]  # (chain, stored points), in build order


#: per (genus, Arf): the base of its standard form, built once its chains
#: reached |Sp(2g, 2)| and |O(q0)|
_BASES: dict[tuple[int, int], _Base] = {}


def _base(q: QuadraticForm) -> _Base:
    """The base of q's Arf (see the module docstring), cached once built."""
    genus, arf = q.genus, q.arf()
    if genus > MAX_CHAIN_GENUS:
        raise CapExceededError(
            f"stabilizer chains serve genus <= MAX_CHAIN_GENUS = {MAX_CHAIN_GENUS}, "
            f"got genus {genus}"
        )
    if (genus, arf) not in _BASES:
        q0 = standard_form(genus, arf)
        in_o = ("q-preserving", lambda m: preserves_q(m, q0))
        adm, bound = admissible_transvections(q0), o_order(genus, arf)
        chains = {"full group": _schreier_sims(
            "full group", q0, chain_transvections(genus), ("symplectic", MatF2.is_symplectic),
            sp_order(genus),
        )}
        chains["admissible"] = _schreier_sims("admissible", q0, adm, in_o, bound, True)
        if chains["admissible"][0] < bound:
            gens = adm + [_pair_swap(genus)]
            chains["stabilizer"] = _schreier_sims("stabilizer", q0, gens, in_o, bound)
        tables = [_table(s.cols) for s in list(chains.values())[-1][2]]
        labels = [-1] * (1 << (2 * genus))
        for x in range(len(labels)):
            if labels[x] < 0:  # x is the smallest member of its orbit
                for y in breadth_first([x], lambda p: [t[p] for t in tables]):
                    labels[y] = x
        points = tuple((what, chain[1]) for what, chain in chains.items())
        _BASES[genus, arf] = _Base(chains["admissible"][0], tuple(labels), points)
    return _BASES[genus, arf]


def _transport(q: QuadraticForm, q0: QuadraticForm) -> MatF2:
    """T_v for v = swap_pairs(q.qmask ^ q0.qmask)."""
    return transvection_f2(q.genus, swap_pairs(q.qmask ^ q0.qmask))


def _certified_transport(q: QuadraticForm) -> MatF2:
    """T_v, which carries the base of q's Arf to q, certified.

    With q0 the standard form of q's Arf, ``VerificationError`` names every
    failed check: T_v is symplectic, an involution, and q-transporting,
    q(T_v e_k) = q0(e_k) on the basis, so q o T_v = q0 by polarization.
    """
    q0 = standard_form(q.genus, q.arf())
    m = _transport(q, q0)
    _certify("transport", q, {
        "symplectic": m.is_symplectic(),
        "an involution": all(m.apply_bits(c) == 1 << j for j, c in enumerate(m.cols)),
        "q-transporting": _basis_values(m, q) == q0.qmask,
    })
    return m


def verify_transvection_generation(q: QuadraticForm) -> dict:
    """Compare the admissible-transvection closure with the q-stabilizer.

    A transcript dict with both orders and a verdict, ``equal`` (expected
    for genus >= 3) or ``proper_subgroup``: the orders of the base of q's
    Arf, carried to q by the certified T_v (see the module docstring).
    """
    closure_order = _base(q).closure_order
    _certified_transport(q)
    return {
        "genus": q.genus,
        "arf": q.arf(),
        "closure_order": closure_order,
        "stabilizer_order": o_order(q.genus, q.arf()),
        "full_group_order": sp_order(q.genus),
        # adm(q0) passed preserves_q, so <adm(q)> lies inside O(q)
        "closure_is_subset": True,
        "verdict": "equal" if closure_order == o_order(q.genus, q.arf()) else "proper_subgroup",
    }


def orbit(genus: int, x: int, generators: list[MatF2]) -> set[int]:
    """BFS orbit of a packed class under the group generated by ``generators``."""
    import numpy as np

    if genus > MAX_ORBIT_GENUS:
        raise ValueError(f"orbit computations support genus <= {MAX_ORBIT_GENUS}")
    if any(g.genus != genus for g in generators):
        raise ValueError("genus mismatch")
    tables = [_vector_table(g.cols) for g in generators]
    packed, _ = _bfs(np.array([x], dtype=np.uint64), lambda front: (t[front] for t in tables))
    return {int(v) for v in packed}


# ---------------------------------------------------------------------------
# orbit structure used by the acceptance checks


def verify_arf_classification(genus: int) -> dict:
    """Orbits of the symplectic group on all 2^(2g) quadratic forms.

    A form is encoded by its 2g basis values.  A transvection along c
    fixes a form q when q(c) = 1 and otherwise flips the values on the
    basis vectors pairing with c, which follows from polarization.  The
    moves are the transvections along the 3g - 1 :func:`chain_classes`,
    whose orbits are the group's: they generate Sp(2g, F2), as the
    full-group chain of ``_base`` and the test closures of
    ``chain_transvections`` at genus <= 3 check.  The transcript records
    the orbit sizes, that they partition the form count, and that the Arf
    invariant is constant on each orbit.
    """
    if not 1 <= genus <= MAX_FULL_GROUP_GENUS:
        raise ValueError(f"supported for 1 <= genus <= {MAX_FULL_GROUP_GENUS}, got {genus}")
    total = 1 << (2 * genus)
    # q_0, the form zero on the basis, gives the part of q(c) = |c & qmask| +
    # q_0(c) that every form shares, and on the basis values of a form,
    # sum_i q(a_i) q(b_i), its Arf invariant; tabulated, as forms and classes
    # share the range 0 .. 4^g - 1
    q_0 = q_values_table(QuadraticForm((0,) * genus, (0,) * genus))
    moves = [(c, q_0[c], swap_pairs(c)) for c in chain_classes(genus)]

    def step(form: int) -> list[int]:  # the moves of the transvections with q(c) = 0
        return [form ^ flip for c, q0_c, flip in moves if not ((form & c).bit_count() + q0_c) & 1]

    placed = [False] * total
    orbits = []
    for start in range(total):
        if placed[start]:
            continue
        visited = breadth_first([start], step)
        arfs = {q_0[form] for form in visited}
        # start is the smallest member of its orbit
        orbits.append({"arf": q_0[start], "size": len(visited), "arf_constant": len(arfs) == 1})
        for form in visited:
            placed[form] = True
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


def q_orbit_partition(q: QuadraticForm) -> dict:
    """Orbits of the q-stabilizer on nonzero mod-2 classes.

    x and y share an O(q)-orbit exactly when T_v x and T_v y share an
    O(q0)-orbit, read from the labels of the base of q's Arf.

    Expected partition: {q = 1} and {q = 0} minus zero (zero is a fixed
    point).  The transcript records the orbit sizes with their q values
    and whether the expectation holds.
    """
    base_labels = _base(q).labels
    orbit_of = {}
    # classes in order: orbits ordered by smallest member, members ascending
    for x, y in enumerate(_table(_certified_transport(q).cols)):
        orbit_of.setdefault(base_labels[y], []).append(x)
    table = q_values_table(q)
    orbits = [
        {
            "q_value": sorted({table[x] for x in members}),
            "size": len(members),
            "contains_zero": members[0] == 0,
        }
        for members in orbit_of.values()
    ]
    # expected orbits: {0}, the whole of q^-1(1), and q^-1(0) minus zero
    # (the last is empty for genus 1 with Arf 1)
    ones = sum(table)
    zeros_nonzero = len(table) - ones - 1
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
        "stabilizer_order": o_order(q.genus, q.arf()),
        "orbits": orbits,
        "matches_expected_partition": bool(ok),
    }
