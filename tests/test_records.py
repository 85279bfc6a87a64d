"""The value types are immutable records (``polygon.Record``).

For every record class: equality and hash are those of the field tuple,
and assigning or deleting a field raises ``AttributeError``.  A record
without checks is built by ``Record.__init__``, which takes exactly its
fields, positionally; the others keep the checks and normalizations of the
frozen dataclasses the records replaced.  A primitive segment is no record
but a plain ``(a, b, is_bridge)`` row of ``enumerate_segments``.
"""

from __future__ import annotations

import pytest

from spincycles.homology import SurfaceModel
from spincycles.polygon import (
    HirzebruchClassification,
    InteriorData,
    LatticePolygon,
    PolygonError,
    Record,
    enumerate_segments,
    integer_length,
)
from spincycles.relations import CurveSystem, TwistWord, evaluate_word_z
from spincycles.spin import QuadraticForm
from spincycles.symplectic import GroupClosure, MatF2, closure, transvection_f2

from conftest import polygon_from

TRIANGLE = ((0, 0), (3, 0), (0, 3))

# per class: three constructions, the first two with equal fields
SAMPLES = {
    LatticePolygon: lambda: [
        LatticePolygon(TRIANGLE), LatticePolygon(TRIANGLE),
        LatticePolygon(((0, 0), (2, 0), (0, 2))),
    ],
    InteriorData: lambda: [
        InteriorData(((1, 1),), ((1, 1),), 0, 1, None),
        InteriorData(((1, 1),), ((1, 1),), 0, 1, None),
        InteriorData(((1, 1), (2, 1)), ((1, 1), (2, 1)), 1, 2, None),
    ],
    HirzebruchClassification: lambda: [
        HirzebruchClassification(1, 2, "isomorphism"),
        HirzebruchClassification(1, 2, "isomorphism"),
        HirzebruchClassification(2, 1, "isomorphism"),
    ],
    SurfaceModel: lambda: [
        SurfaceModel(LatticePolygon(TRIANGLE), 1, ((1, 1),), {(1, 1): 0}, {}),
        SurfaceModel(LatticePolygon(TRIANGLE), 1, ((1, 1),), {(1, 1): 0}, {}),
        SurfaceModel(LatticePolygon(TRIANGLE), 1, ((1, 1),), {(1, 1): 0}, {(1, 1): ()}),
    ],
    QuadraticForm: lambda: [
        QuadraticForm((1, 0), (1, 1)), QuadraticForm([3, 2], (1, -1)),
        QuadraticForm((0, 0), (1, 1)),
    ],
    CurveSystem: lambda: [
        CurveSystem(("a", "b"), {frozenset("ab"): 1}),
        CurveSystem(("a", "b"), {frozenset("ab"): 1}, None),
        CurveSystem(("a", "b"), {frozenset("ab"): 0}),
    ],
    TwistWord: lambda: [
        TwistWord((("a", 1), ("b", -2))), TwistWord([("a", 1.0), ("b", -2)]),
        TwistWord((("b", -2), ("a", 1))),
    ],
    MatF2: lambda: [MatF2.identity(1), MatF2(2, (1, 2)), MatF2(2, (2, 1))],
    # the trivial group: one packed key, so the arrays compare as one bool
    GroupClosure: lambda: [
        closure([MatF2.identity(1)]), closure([MatF2.identity(1)]),
        closure([MatF2.identity(2)]),
    ],
}

# these hold dicts, or a list and an array
HASHABLE = set(SAMPLES) - {SurfaceModel, CurveSystem, GroupClosure}


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
class TestRecordSemantics:
    def test_is_a_record_without_dataclass(self, cls):
        assert issubclass(cls, Record)
        assert not hasattr(cls, "__dataclass_fields__")

    def test_equality_and_hash_follow_the_field_tuple(self, cls):
        first, same, other = SAMPLES[cls]()
        for x in (first, same, other):
            for y in (first, same, other):
                assert (x == y) == (fields(x) == fields(y))
                assert (x != y) == (fields(x) != fields(y))
        assert first == same and first != other
        assert first != fields(first)  # another class never compares equal
        if cls in HASHABLE:
            assert hash(first) == hash(fields(first)) == hash(same)
            assert len({first, same, other}) == 2
        else:  # the field tuple holds a dict or a list, as with the dataclasses
            with pytest.raises(TypeError):
                hash(first)

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        record = SAMPLES[cls]()[0]
        for name in record._fields:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, before)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is before
        with pytest.raises(AttributeError):
            record.not_a_field = 1

    def test_repr_names_the_fields(self, cls):
        record = SAMPLES[cls]()[0]
        text = repr(record)
        assert text.startswith(f"{cls.__name__}(")
        for name in record._fields:
            assert f"{name}={getattr(record, name)!r}" in text


class TestValidation:
    """The constructors' checks and normalizations, and the checks on bare
    classes, messages included."""

    def test_lattice_polygon(self):
        with pytest.raises(PolygonError, match="start at the lexicographically smallest"):
            LatticePolygon(((3, 0), (0, 3), (0, 0)))
        with pytest.raises(PolygonError, match="not a pair of integers"):
            LatticePolygon(((0, 0), (3, 0), (0, 3.0)))
        assert LatticePolygon([[0, 0], [3, 0], [0, 3]]).vertices == TRIANGLE

    def test_enumerated_segment_rows(self):
        # each row is (a, b, is_bridge): primitive, a < b, each pair once,
        # in (a, b) order
        p = polygon_from([(-3, -2), (4, -2), (-3, 5)])
        rows = enumerate_segments(p)
        assert {bridge for _, _, bridge in rows} == {True, False}
        pairs = [(a, b) for a, b, _ in rows]
        assert pairs == sorted(set(pairs))
        lattice = set(p.lattice_points())
        for a, b, bridge in rows:
            assert type(bridge) is bool
            assert a < b and {a, b} <= lattice
            assert integer_length(a, b) == 1

    def test_cycle_class_f2(self):
        # a mod-2 class is a packed int; the transvection along it checks it
        with pytest.raises(ValueError, match="dimension must be even and >= 2"):
            transvection_f2(0, 0)
        with pytest.raises(ValueError, match="bit mask out of range"):
            transvection_f2(1, 4)
        with pytest.raises(ValueError, match="bit mask out of range"):
            transvection_f2(1, -1)

    def test_cycle_class_z(self):
        # an integral class is a coordinate tuple; a word's classes share one length 2g
        word = TwistWord.from_names(["a"])
        for classes in ({"a": (1, 0, 0)}, {"a": (1, 0), "b": (1, 0, 0, 0)}):
            with pytest.raises(ValueError, match="share one length 2g"):
                evaluate_word_z(word, classes)

    def test_quadratic_form(self):
        with pytest.raises(ValueError, match="equal positive length"):
            QuadraticForm((1,), (1, 0))
        with pytest.raises(ValueError, match="equal positive length"):
            QuadraticForm((), ())
        assert QuadraticForm([3, -2], (True, 5)) == QuadraticForm((1, 0), (1, 1))

    def test_quadratic_form_qmask_computed_once(self, monkeypatch):
        calls = []
        compute = QuadraticForm.qmask.func

        def counting(q):
            calls.append(q)
            return compute(q)

        monkeypatch.setattr(QuadraticForm.qmask, "func", counting)
        q = QuadraticForm((1, 0, 1), (0, 1, 1))
        assert q.qmask == 0b111001
        assert [q.eval_bits(x) for x in range(64)] == [q.eval_bits(x) for x in range(64)]
        assert q.qmask == 0b111001
        assert calls == [q]

    def test_curve_system(self):
        with pytest.raises(ValueError, match="bad intersection key"):
            CurveSystem(("a", "b"), {frozenset("ac"): 1})
        with pytest.raises(ValueError, match="nonnegative"):
            CurveSystem(("a", "b"), {frozenset("ab"): -1})
        assert CurveSystem(("a", "b"), {}).classes is None
        # names in any sequence, keys as name pairs
        normalized = CurveSystem(["a", "b"], {("b", "a"): 1})
        assert normalized == CurveSystem(("a", "b"), {frozenset("ab"): 1})
        assert type(normalized.curves) is tuple

    def test_mat_f2(self):
        with pytest.raises(ValueError, match="dimension must be even and >= 2"):
            MatF2(3, (1, 2, 4))
        with pytest.raises(ValueError, match="need n packed columns of n bits each"):
            MatF2(2, (1, 4))
        with pytest.raises(ValueError, match="need n packed columns of n bits each"):
            MatF2(2, (1,))
        assert not hasattr(MatF2.identity(1), "__dict__")  # slotted: built in chain sifts

    def test_twist_word(self):
        with pytest.raises(ValueError, match="zero exponents"):
            TwistWord((("a", 1), ("b", 0)))
        assert TwistWord([(7, 2.0)]).letters == (("7", 2),)

    def test_unvalidated_records_keep_their_arguments(self):
        pts = ((1, 1), (2, 1))
        d = InteriorData(pts, pts, 1, 2, None)
        assert (d.interior_points, d.hull_vertices, d.dimension, d.genus, d.root_order) == (
            pts, pts, 1, 2, None,
        )
        h = HirzebruchClassification(0, 3, "one_blowup")
        assert (h.alpha, h.n, h.case) == (0, 3, "one_blowup")

    @pytest.mark.parametrize(
        "cls", [InteriorData, HirzebruchClassification, SurfaceModel, GroupClosure],
        ids=lambda c: c.__name__,
    )
    def test_store_only_constructor_takes_exactly_the_fields(self, cls):
        # Record.__init__: one positional value per field, no more, no fewer
        assert cls.__init__ is Record.__init__
        n = len(cls._fields)
        for count in (0, n - 1, n + 1):
            with pytest.raises(TypeError, match=f"{cls.__name__} takes {n} fields, got {count}"):
                cls(*range(count))
        with pytest.raises(TypeError):
            cls(*range(n - 1), **{cls._fields[-1]: 0})
        assert fields(cls(*range(n))) == tuple(range(n))

