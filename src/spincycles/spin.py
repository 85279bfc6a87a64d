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

from functools import cached_property

from .polygon import (
    SPIN_REGIMES,
    LatticePolygon,
    Record,
    RegimeError,
    _primitive,
    _sub,
    a_mask,
    check_model_genus,
    classify_regime,
    enumerate_segments,
    interior_data,
    segment_on_boundary,
)

_set = object.__setattr__


class QuadraticForm(Record):
    """Quadratic refinement of the mod-2 intersection pairing."""

    q_a: tuple[int, ...]
    q_b: tuple[int, ...]
    _fields = ("q_a", "q_b")

    def __init__(self, q_a, q_b):
        q_a = tuple(int(v) & 1 for v in q_a)
        q_b = tuple(int(v) & 1 for v in q_b)
        if len(q_a) != len(q_b) or not q_a:
            raise ValueError("q_a and q_b must have equal positive length g")
        _set(self, "q_a", q_a)
        _set(self, "q_b", q_b)

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

    def eval_bits(self, bits: int) -> int:
        """q(x) = |x & qmask| + #{i : both bits of pair i set}  (mod 2).

        Polarizing over the set bits of x gives the basis values of those
        bits plus one pairing term per (a_i, b_i) pair that x contains.
        """
        both = bits & (bits >> 1) & a_mask(self.genus)
        return ((bits & self.qmask).bit_count() + both.bit_count()) & 1

    def arf(self) -> int:
        return sum(a * b for a, b in zip(self.q_a, self.q_b)) & 1

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


def canonical_q(p: LatticePolygon) -> QuadraticForm:
    """Canonical spin form of a polygon in the spin/algebraic_even regime.

    The basis is the model's, one (a_i, b_i) pair per interior point in
    lexicographic order, and q needs no spanning forest.  Refusals come in
    this order: a genus over ``MAX_MODEL_GENUS``
    (:class:`PolygonTooLargeError`), genus 0 (:class:`GenusZeroError`),
    then a polygon outside the spin regimes (:class:`RegimeError`).
    """
    check_model_genus(p.pick_counts()[0])
    d = interior_data(p)  # raises GenusZeroError
    regime = classify_regime(p)
    if regime not in SPIN_REGIMES:
        raise RegimeError(
            f"no canonical spin form in regime {regime!r} "
            f"(requires one of {', '.join(SPIN_REGIMES)})"
        )
    q_b = tuple(1 if d.is_even(v) else 0 for v in d.interior_points)
    return QuadraticForm((1,) * d.genus, q_b)


def standard_form(genus: int, arf: int) -> QuadraticForm:
    """Reference quadratic form with the requested Arf invariant.

    All pairs have type 0 except, when ``arf`` is 1, the first pair.
    """
    if arf not in (0, 1):
        raise ValueError("arf must be 0 or 1")
    q_a = tuple(1 if (arf and i == 0) else 0 for i in range(genus))
    q_b = (1,) * genus
    return QuadraticForm(q_a, q_b)


def consistency_forests(p: LatticePolygon) -> list:
    """Three structurally different spanning forests for cross-checks."""
    from .homology import default_forest, vertex_forest

    return [
        default_forest(p),
        default_forest(
            p, step_order=((0, 1), (1, 0), (0, -1), (-1, 0)), source_reverse=True
        ),
        vertex_forest(p),
    ]


def verify_q_consistency(p: LatticePolygon) -> dict:
    """Cross-check the canonical form against the segment parity rule.

    Four checks on a spin/algebraic_even polygon, over the models of the
    spanning forests of :func:`consistency_forests`:

    * forest independence: every model assigns the same q value to every
      primitive segment class;
    * telescoping: in every model, the segment classes along the forest
      path of v_i sum to b_i;
    * parity rule: for every primitive segment parallel to an edge of the
      interior hull and not contained in the polygon boundary, q of its
      class is 1 iff exactly one endpoint is even;
    * bridge admissibility: every bridge ending at a vertex of the
      interior hull has q = 1 (hull vertices are even points).

    ``pass`` is the conjunction of the four.  The transcript also reports
    ``forests``, the number of distinct forests built; it does not gate
    ``pass``, because a segment class depends on its endpoints alone, so
    the count says nothing about q (a lattice image of a polygon can make
    two of the forests coincide).
    """
    regime = classify_regime(p)
    if regime not in SPIN_REGIMES:
        raise RegimeError(
            f"q-consistency applies to spin/algebraic_even polygons, got {regime!r}"
        )
    from .homology import build_model  # after the refusal, which needs no model

    forests = consistency_forests(p)
    models = [build_model(p, f) for f in forests]
    distinct_forests = len({tuple(sorted(f.items())) for f in forests})
    q = canonical_q(p)
    segments = enumerate_segments(p)

    forest_independent = all(
        len({q.eval_bits(m.segment_class((a, b))) for m in models}) == 1 for a, b, _ in segments
    )
    # the per-point path sums must also telescope to b_i in every forest
    telescoping = all(
        m.path_class_sum(v) == m.b_class(v) for m in models for v in m.points
    )

    d = interior_data(p)
    hull = d.hull_polygon
    hull_dirs = set()
    for u, w in hull.edges():
        dd = _primitive(_sub(w, u))
        hull_dirs.add(max(dd, (-dd[0], -dd[1])))
    hull_vertices = set(hull.vertices)

    m = models[0]
    parity_rule = bridges_ok = True
    parity_checked = bridges_checked = 0
    for a, b, is_bridge in segments:
        dd = (b[0] - a[0], b[1] - a[1])
        parity = max(dd, (-dd[0], -dd[1])) in hull_dirs and not segment_on_boundary(p, a, b)
        vertex_bridge = is_bridge and (a in hull_vertices or b in hull_vertices)
        if not (parity or vertex_bridge):
            continue
        value = q.eval_bits(m.segment_class((a, b)))
        if parity:
            parity_checked += 1
            parity_rule &= value == (d.is_even(a) != d.is_even(b))
        if vertex_bridge:
            bridges_checked += 1
            bridges_ok &= value == 1
    ok = forest_independent and telescoping and parity_rule and bridges_ok
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
