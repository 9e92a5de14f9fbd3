"""The public value types: their text, equality, order and immutability."""

import copy
import pickle

import pytest

from knotoid_casson.analysis import InvariantReport, full_report
from knotoid_casson.codes import OVER, UNDER, Item, KnotoidCode, MultiKnotoidCode, parse_multiknotoid_code
from knotoid_casson.homology import Subgroup
from knotoid_casson.moves import R1_INSERT, R3, IllegalMoveError, MoveInstance, apply
from knotoid_casson.planar import ArcStep, DualArc, PlanarMap, build_planar_map, dual_arc, trace_faces
from knotoid_casson.skein import ConwayTriple, SkeinReport, conway_triple, verify_skein
from knotoid_casson.skew import CassonValues, SkewPair, casson_pm, skew_pairs

from support import five_nineteen, two_one

TWO_ONE_REPR = (
    "KnotoidCode(word=(Item(kind='O', label='a'), Item(kind='U', label='b'), "
    "Item(kind='U', label='a'), Item(kind='O', label='b')), signs={'a': 1, 'b': 1})"
)
MALFORMED_KINK = MoveInstance(R1_INSERT, gaps=(1, 2), labels=("k",), signs=(1,))
MALFORMED_KINK_REPR = (
    "MoveInstance(kind='R1Insert', gaps=(1, 2), positions=(), labels=('k',), signs=(1,), "
    "over_first=True, parallel=True)"
)


def test_reprs():
    assert repr(Item(OVER, "a'")) == "Item(kind='O', label=\"a'\")"
    assert repr(two_one()) == TWO_ONE_REPR
    assert repr(parse_multiknotoid_code("segment: Ob\ncircle: Ub\n; b=+1")) == (
        "MultiKnotoidCode(segment=(Item(kind='O', label='b'),), "
        "circles=((Item(kind='U', label='b'),),), signs={'b': 1})"
    )
    assert repr(MALFORMED_KINK) == MALFORMED_KINK_REPR
    assert repr(SkewPair("a", "b", "upper", 1)) == "SkewPair(first='a', second='b', kind='upper', sign=1)"


def test_malformed_move_error_shows_the_move_repr():
    with pytest.raises(IllegalMoveError) as exc:
        apply(two_one(), MALFORMED_KINK)
    assert str(exc.value) == "malformed R1Insert: " + MALFORMED_KINK_REPR


def test_str_of_an_item_is_its_token():
    assert str(Item(UNDER, "x1''")) == "Ux1''"
    assert str(Item(OVER, "a").flipped()) == "Ua"


def test_item_equals_the_plain_tuple_of_its_fields():
    item = Item(OVER, "a")
    assert item == (OVER, "a") and (OVER, "a") == item
    assert hash(item) == hash((OVER, "a"))
    assert item != (UNDER, "a")
    assert type(item.flipped()) is Item


def test_code_equality_is_by_word_and_signs():
    code = two_one()
    assert code == KnotoidCode(code.word, dict(code.signs))
    assert code != KnotoidCode(code.word, {"a": -1, "b": 1})
    assert code.__eq__(code.word) is NotImplemented
    with pytest.raises(TypeError):
        hash(code)


@pytest.mark.parametrize("make, field", [
    (lambda: Item(OVER, "a"), "label"),
    (two_one, "word"),
    (two_one, "signs"),
    (two_one, "over_pos"),
    (lambda: parse_multiknotoid_code("segment: Ob\ncircle: Ub\n; b=+1"), "circles"),
    (lambda: MALFORMED_KINK, "gaps"),
    (lambda: Subgroup.generated_by(2), "basis"),
    (lambda: verify_skein(two_one(), "a"), "ok"),
    (lambda: full_report(two_one()), "norm_sum"),
    (lambda: trace_faces(two_one()), "num_faces"),
    (lambda: skew_pairs(two_one())[0][0], "sign"),
    (lambda: casson_pm(two_one()), "c_minus"),
    (lambda: conway_triple(two_one(), "a"), "d0"),
    (lambda: dual_arc(build_planar_map(two_one())).steps[0], "direction"),
    (lambda: dual_arc(build_planar_map(two_one())), "steps"),
])
def test_fields_refuse_assignment(make, field):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None


def test_codes_refuse_deletion():
    for value in (two_one(), MultiKnotoidCode((), (), {})):
        with pytest.raises(AttributeError):
            del value.signs


def test_codes_survive_pickle_and_copy():
    multi = parse_multiknotoid_code("segment: Ob\ncircle: Ub\n; b=+1")
    for value in (two_one(), five_nineteen(), multi):
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(clone) is type(value) and clone == value
    clone = pickle.loads(pickle.dumps(five_nineteen()))
    assert (clone.labels, clone.over_pos, clone.under_pos) == (
        five_nineteen().labels, five_nineteen().over_pos, five_nineteen().under_pos)


def test_the_shape_a_code_keeps_is_invisible():
    # the private record of faces and classes: filled on first use, shown nowhere
    for make in (two_one, five_nineteen):
        code, plain = make(), make()
        assert code._shape is None
        report = full_report(code)
        assert code._shape is not None and plain._shape is None
        assert code == plain and plain == code and repr(code) == repr(plain)
        assert pickle.dumps(code) == pickle.dumps(plain)
        for clone in (pickle.loads(pickle.dumps(code)), copy.copy(code), copy.deepcopy(code)):
            assert clone == code and repr(clone) == repr(code) and clone._shape is None
            assert full_report(clone) == report
        with pytest.raises(AttributeError):
            code._shape = None


def test_value_types_survive_pickle_and_copy():
    code = two_one()
    arc = dual_arc(build_planar_map(code))
    values = [
        Item(OVER, "a"), MALFORMED_KINK, Subgroup.generated_by(2), skew_pairs(code)[0][0],
        casson_pm(code), full_report(code, "2_1"), conway_triple(code, "a"), verify_skein(code, "a"),
        trace_faces(code), arc.steps[0], arc,
    ]
    types = (Item, MoveInstance, Subgroup, SkewPair, CassonValues, InvariantReport, ConwayTriple,
             SkeinReport, PlanarMap, ArcStep, DualArc)
    assert tuple(map(type, values)) == types
    for value in values:
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(clone) is type(value) and clone == value


def test_a_move_defaults_every_field_but_its_kind():
    move = MoveInstance(R3)
    assert move == (R3, (), (), (), (), True, True)
    assert (move.gaps, move.positions, move.labels, move.signs) == ((), (), (), ())
    assert move.over_first is True and move.parallel is True


def test_skein_report_as_dict():
    assert verify_skein(five_nineteen(), "d").as_dict() == {
        "crossing": "d", "s1": 1, "lhs_plus": 1, "rhs_plus": 1,
        "lhs_minus": 0, "rhs_minus": 0, "ok": True,
    }


def test_subgroups_sort_by_rank_then_basis():
    trivial, three = Subgroup.generated_by(0), Subgroup.generated_by(3)
    x_axis, y_even = Subgroup.generated_by((1, 0)), Subgroup.generated_by((0, 2))
    plane = Subgroup.generated_by((1, 0), (0, 1))
    assert sorted([plane, x_axis, three, y_even, trivial]) == [trivial, three, y_even, x_axis, plane]
    assert trivial < three < y_even < x_axis < plane
