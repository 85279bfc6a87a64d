"""Spin quadratic form on the mod-2 homology of the model curve.

A quadratic form q refining the intersection pairing satisfies
q(x+y) = q(x) + q(y) + <x,y>.  It is stored by its values on the 2g basis
vectors only; every other value is produced by iterated polarization, so
the quadratic axiom holds by construction.  The canonical form of a
polygon in the spin or algebraic_even regime is

    q(a_i) = 1 for every i,      q(b_i) = 1 iff v_i is an even point.

The Arf invariant sum q(a_i) q(b_i) mod 2 is a complete invariant of q up
to the symplectic group action, and q has 2^(2g-1) + 2^(g-1) admissible
(nonzero, q = 1) classes when Arf = 1 and 2^(2g-1) - 2^(g-1) when Arf = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .homology import (
    CycleClassF2,
    SurfaceModel,
    a_mask,
    build_model,
    default_forest,
    is_symplectic_bits,
    pairing_f2,
    vertex_forest,
)
from .polygon import (
    SPIN_REGIMES,
    REGIME_DIM0,
    REGIME_HIGHER_ROOT_ODD,
    REGIME_HYPERELLIPTIC,
    REGIME_SPIN,
    REGIME_UNOBSTRUCTED,
    LatticePolygon,
    RegimeError,
    classify_regime,
    enumerate_segments,
    even_points,
    interior_data,
    segment_on_boundary,
)


@dataclass(frozen=True)
class QuadraticForm:
    """Quadratic refinement of the mod-2 intersection pairing."""

    q_a: tuple[int, ...]
    q_b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "q_a", tuple(int(v) & 1 for v in self.q_a))
        object.__setattr__(self, "q_b", tuple(int(v) & 1 for v in self.q_b))
        if len(self.q_a) != len(self.q_b) or not self.q_a:
            raise ValueError("q_a and q_b must have equal positive length g")

    @property
    def genus(self) -> int:
        return len(self.q_a)

    @cached_property
    def qmask(self) -> int:
        """Basis values packed like a class: bits 2i, 2i+1 hold q(a_i+1), q(b_i+1)."""
        mask = 0
        for i in range(self.genus):
            mask |= self.q_a[i] << (2 * i)
            mask |= self.q_b[i] << (2 * i + 1)
        return mask

    def eval(self, x: CycleClassF2) -> int:
        """q(x) in the closed polarization form of :meth:`eval_bits`."""
        if x.genus != self.genus:
            raise ValueError("genus mismatch")
        return self.eval_bits(x.bits)

    def eval_bits(self, bits: int) -> int:
        """q(x) = |x & qmask| + #{i : both bits of pair i set}  (mod 2).

        Polarizing over the set bits of x gives the basis values of those
        bits plus one pairing term per (a_i, b_i) pair that x contains.
        """
        both = bits & (bits >> 1) & a_mask(self.genus)
        return ((bits & self.qmask).bit_count() + both.bit_count()) & 1

    def arf(self) -> int:
        return sum(a * b for a, b in zip(self.q_a, self.q_b)) & 1

    def is_admissible(self, x: CycleClassF2) -> bool:
        """Nonzero class with q(x) = 1 (the mod-2 admissibility criterion)."""
        if x.genus != self.genus:
            raise ValueError("genus mismatch")
        return bool(x.bits) and self.eval(x) == 1

    def count_admissible(self) -> int:
        """|{x != 0 : q(x) = 1}|, by the Arf closed form in the module docstring."""
        half = 1 << (2 * self.genus - 1)
        corr = 1 << (self.genus - 1)
        return half + corr if self.arf() else half - corr

    def to_json_dict(self) -> dict:
        return {
            "genus": self.genus,
            "q_a": list(self.q_a),
            "q_b": list(self.q_b),
            "arf": self.arf(),
        }


def canonical_q(m: SurfaceModel) -> QuadraticForm:
    """Canonical spin form of a polygon in the spin/algebraic_even regime."""
    regime = classify_regime(m.polygon)
    if regime not in SPIN_REGIMES:
        raise RegimeError(
            f"no canonical spin form in regime {regime!r} "
            f"(requires one of {', '.join(SPIN_REGIMES)})"
        )
    parity = even_points(m.polygon)
    q_a = (1,) * m.genus
    q_b = tuple(1 if parity[v] else 0 for v in m.points)
    return QuadraticForm(q_a, q_b)


def standard_form(genus: int, arf: int) -> QuadraticForm:
    """Reference quadratic form with the requested Arf invariant.

    All pairs have type 0 except, when ``arf`` is 1, the first pair.
    """
    if arf not in (0, 1):
        raise ValueError("arf must be 0 or 1")
    q_a = tuple(1 if (arf and i == 0) else 0 for i in range(genus))
    q_b = (1,) * genus
    return QuadraticForm(q_a, q_b)


def standard_basis(genus: int) -> list[CycleClassF2]:
    out = []
    for i in range(1, genus + 1):
        out.append(CycleClassF2.basis_a(genus, i))
        out.append(CycleClassF2.basis_b(genus, i))
    return out


def is_symplectic_basis(basis: list[CycleClassF2]) -> bool:
    """Pairs (basis[2i], basis[2i+1]) pair to 1; all other pairings vanish."""
    if not basis:
        return False
    g = basis[0].genus
    if len(basis) != 2 * g or any(b.genus != g for b in basis):
        return False
    return is_symplectic_bits([b.bits for b in basis])


def basis_types(q: QuadraticForm, basis: list[CycleClassF2]) -> tuple[int, ...]:
    """Per-pair types of a q-symplectic basis.

    Pair i has type 1 when (q(a_i), q(b_i)) = (1, 1) and type 0 when
    (0, 1); any other value pattern means the basis is not q-symplectic.
    """
    types = []
    for i in range(q.genus):
        va, vb = q.eval(basis[2 * i]), q.eval(basis[2 * i + 1])
        if (va, vb) == (1, 1):
            types.append(1)
        elif (va, vb) == (0, 1):
            types.append(0)
        else:
            raise ValueError(f"basis pair {i} has values {(va, vb)}: not q-symplectic")
    return tuple(types)


def q_symplectic_basis(
    q: QuadraticForm, basis: list[CycleClassF2] | None = None
) -> tuple[list[CycleClassF2], tuple[int, ...]]:
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
        va, vb = q.eval(a), q.eval(b)
        if (va, vb) == (1, 0):
            a, b = b, a
        elif (va, vb) == (0, 0):
            b = a + b
        elif (va, vb) == (1, 1) or (va, vb) == (0, 1):
            pass
        out[2 * i], out[2 * i + 1] = a, b
    return out, basis_types(q, out)


def retype_pair(
    q: QuadraticForm, basis: list[CycleClassF2], i: int, j: int
) -> list[CycleClassF2]:
    """Flip the types of pairs i and j (0-based) of a q-symplectic basis.

    Both pairs must currently share a type.  The move is the transvection
    along c = b_i + b_j: q(c) = q(b_i) + q(b_j) = 0, c pairs to 1 with a_i
    and a_j and to 0 with every other basis vector, so only q(a_i) and
    q(a_j) change, each by 1.
    """
    if i == j:
        raise ValueError("indices must differ")
    types = basis_types(q, basis)
    if types[i] != types[j]:
        raise ValueError(f"pairs {i} and {j} have mixed types {types[i]} != {types[j]}")
    c = basis[2 * i + 1] + basis[2 * j + 1]
    new_basis = [
        v + c if pairing_f2(c, v) else v
        for v in basis
    ]
    new_types = basis_types(q, new_basis)  # raises if the move broke the form
    expected = tuple(
        1 - t if k in (i, j) else t for k, t in enumerate(types)
    )
    if new_types != expected:
        raise AssertionError("retype postcondition failed")
    return new_basis


def consistency_forests(p: LatticePolygon) -> list:
    """Three structurally different spanning forests for cross-checks."""
    return [
        default_forest(p),
        default_forest(
            p, step_order=((0, 1), (1, 0), (0, -1), (-1, 0)), source_reverse=True
        ),
        vertex_forest(p),
    ]


def verify_q_consistency(p: LatticePolygon) -> dict:
    """Cross-check the canonical form against the segment parity rule.

    Three checks on a spin/algebraic_even polygon:

    * forest independence: models built over distinct spanning forests
      assign the same q value to every primitive segment class;
    * parity rule: for every primitive segment parallel to an edge of the
      interior hull and not contained in the polygon boundary, q of its
      class is 1 iff exactly one endpoint is even;
    * bridge admissibility: every bridge ending at a vertex of the
      interior hull has q = 1 (hull vertices are even points).
    """
    regime = classify_regime(p)
    if regime not in SPIN_REGIMES:
        raise RegimeError(
            f"q-consistency applies to spin/algebraic_even polygons, got {regime!r}"
        )
    forests = consistency_forests(p)
    models = [build_model(p, f) for f in forests]
    distinct_forests = len({tuple(sorted(f.items())) for f in forests})
    q = canonical_q(models[0])
    segments = enumerate_segments(p)

    forest_independent = True
    for seg in segments:
        values = {q.eval(m.segment_class(seg)) for m in models}
        if len(values) != 1:
            forest_independent = False
            break
    # the per-point path sums must also telescope to b_i in every forest
    telescoping = all(
        m.path_class_sum(v) == m.b_class(v) for m in models for v in m.points
    )

    d = interior_data(p)
    hull = d.hull_polygon
    hull_dirs = set()
    for u, w in hull.edges():
        dx, dy = w[0] - u[0], w[1] - u[1]
        g0 = gcd(abs(dx), abs(dy))
        dd = (dx // g0, dy // g0)
        hull_dirs.add(max(dd, (-dd[0], -dd[1])))

    m = models[0]
    parity_rule = True
    parity_checked = 0
    for seg in segments:
        a, b = seg.endpoints
        dd = (b[0] - a[0], b[1] - a[1])
        dd = max(dd, (-dd[0], -dd[1]))
        if dd not in hull_dirs:
            continue
        if segment_on_boundary(p, a, b):
            continue
        parity_checked += 1
        expected = d.is_even(a) != d.is_even(b)
        if q.eval(m.segment_class(seg)) != (1 if expected else 0):
            parity_rule = False
    hull_vertices = set(hull.vertices)
    bridges_ok = True
    bridges_checked = 0
    for seg in segments:
        if not seg.is_bridge:
            continue
        a, b = seg.endpoints
        if a not in hull_vertices and b not in hull_vertices:
            continue
        bridges_checked += 1
        if q.eval(m.segment_class(seg)) != 1:
            bridges_ok = False
    ok = (
        forest_independent
        and telescoping
        and parity_rule
        and bridges_ok
        and distinct_forests >= 3
    )
    return {
        "suite": "q-consistency",
        "regime": regime,
        "genus": m.genus,
        "forests": distinct_forests,
        "forest_independent": forest_independent,
        "telescoping": telescoping,
        "segments_checked": len(segments),
        "parity_rule_segments": parity_checked,
        "parity_rule_holds": parity_rule,
        "vertex_bridges_checked": bridges_checked,
        "vertex_bridges_admissible": bridges_ok,
        "pass": ok,
    }


def vanishing_cycle_report(p: LatticePolygon, x: CycleClassF2 | str = "all") -> dict:
    """Regime-dependent homology-level verdict on (classes of) vanishing cycles.

    The verdicts live at the level of mod-2 homology classes: a class may
    contain many isotopy classes of curves, and for regimes whose
    obstruction is invisible on homology the report says so instead of
    overclaiming.
    """
    regime = classify_regime(p)
    m = build_model(p)
    g = m.genus
    if isinstance(x, CycleClassF2) and x.genus != g:
        raise ValueError(f"class has genus {x.genus}, polygon has genus {g}")

    report: dict = {"regime": regime, "genus": g, "level": "mod2_class"}
    if x == "all":
        report["query"] = "all"
    else:
        report["query"] = list(x.coords)

    if regime in (REGIME_DIM0, REGIME_HIGHER_ROOT_ODD):
        report["verdict"] = "out_of_scope"
        report["note"] = "no classification is modelled for this regime"
        return report

    if regime == REGIME_HYPERELLIPTIC:
        report["verdict"] = "no_homological_obstruction"
        report["note"] = (
            "the hyperelliptic involution acts as -identity on H1, fixing "
            "every mod-2 class; the invariance obstruction is invisible at "
            "this level"
        )
        if isinstance(x, CycleClassF2):
            report["nonzero_class"] = bool(x)
        return report

    if regime == REGIME_UNOBSTRUCTED:
        report["note"] = (
            "root order 1: every nonzero mod-2 class is the class of a "
            "vanishing cycle"
        )
        if x == "all":
            report["vanishing_count"] = (1 << (2 * g)) - 1
            report["class_count"] = 1 << (2 * g)
        else:
            report["vanishing"] = bool(x)
            if not x:
                report["note"] = "the zero class contains no non-separating curve"
        return report

    # spin / algebraic_even: the q = 1 condition on nonzero classes
    q = canonical_q(m)
    report["arf"] = q.arf()
    if regime == REGIME_SPIN:
        report["criterion"] = "admissible"
        report["caveat"] = (
            "homology-level verdict: admissibility classifies mod-2 "
            "classes exactly, individual curves within a class are not "
            "distinguished"
        )
    else:
        report["criterion"] = "algebraic_monodromy_constraint"
        report["caveat"] = (
            "even root order > 2: the q = 1 condition describes the image "
            "of the algebraic monodromy only"
        )
    if x == "all":
        count = q.count_admissible()
        report["vanishing_count"] = count
        report["class_count"] = 1 << (2 * g)
    else:
        report["vanishing"] = q.is_admissible(x)
    return report
