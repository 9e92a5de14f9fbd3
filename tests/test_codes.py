"""Gauss-code parsing, serialization, and elementary transforms."""

import pytest
from hypothesis import given

from knotoid_casson.codes import (
    CodeError,
    CodeSyntaxError,
    CodeValidationError,
    Item,
    KnotoidCode,
    MultiKnotoidCode,
    OVER,
    UNDER,
    concat_product,
    fresh_labels,
    mirror,
    parse_knotoid_code,
    parse_multiknotoid_code,
    read_code_blocks,
    reverse,
    serialize,
    switch_all,
    switch_crossing,
)
from knotoid_casson.moves import iter_walk
from knotoid_casson.skew import casson_pm

from support import (
    FIVE_NINETEEN_TEXT,
    FOUR_SIX_TEXT,
    TWO_ONE_TEXT,
    canonical_relabel,
    code_strategy,
    five_nineteen,
    four_six,
    realizable_code_strategy,
    two_one,
)


def test_parse_two_one():
    code = parse_knotoid_code("Oa Ub Ua Ob ; a=+1 b=+1")
    assert code.word == (
        Item(OVER, "a"), Item(UNDER, "b"), Item(UNDER, "a"), Item(OVER, "b"),
    )
    assert code.signs == {"a": 1, "b": 1}
    assert code.n_crossings == 2
    assert code.labels == ("a", "b")


def test_parse_empty_is_trivial():
    code = parse_knotoid_code("")
    assert code.word == ()
    assert code.signs == {}
    assert code.n_crossings == 0


def test_parse_single_kink():
    code = parse_knotoid_code("Oa Ua ; a=-1")
    assert code.word == (Item(OVER, "a"), Item(UNDER, "a"))
    assert code.signs == {"a": -1}


def test_parse_allows_comments_and_blank_lines():
    code = parse_knotoid_code("# the first example\n\nOa Ub Ua Ob ; a=+1 b=+1\n")
    assert code == two_one()


def test_positions():
    assert two_one().positions() == {"a": (0, 2), "b": (3, 1)}


def rescanned(code):
    """Labels in order of first occurrence and their positions, read off the word."""
    over, under, first = {}, {}, {}
    for i, it in enumerate(code.word):
        first.setdefault(it.label)
        (over if it.kind == OVER else under)[it.label] = i
    return tuple(first), {lab: (over[lab], under[lab]) for lab in first}


def assert_positions_stored(code):
    labels, positions = rescanned(code)
    assert code.labels == labels
    assert code.positions() == positions
    assert dict(zip(code.labels, zip(code.over_pos, code.under_pos))) == positions


@given(code_strategy(max_crossings=12), code_strategy(max_crossings=12))
def test_positions_match_rescan_after_every_transform(a, b):
    assert_positions_stored(parse_knotoid_code(serialize(a)))
    for code in (switch_all(a), reverse(a), mirror(a), concat_product(a, b), concat_product(b, a)):
        assert_positions_stored(code)
    for label in a.labels:
        assert_positions_stored(switch_crossing(a, label))


@given(realizable_code_strategy(max_crossings=12))
def test_positions_match_rescan_after_moves(code):
    # every step of a walk is a code made by moves.apply
    for _, reached in iter_walk(code, 20, code.n_crossings):
        assert_positions_stored(reached)


def test_positions_returns_a_copy():
    code = two_one()
    pos = code.positions()
    pos["a"] = (9, 9)
    del pos["b"]
    pos["z"] = (0, 0)
    assert code.positions() == {"a": (0, 2), "b": (3, 1)}
    assert casson_pm(code) == (1, 0)


@pytest.mark.parametrize("bad", [
    "Oa Ua Oa ; a=+1",            # label three times
    "Oa Ub Ua ; a=+1 b=+1",       # one pass of b
    "Oa Ob Ua Ub",                # signs missing entirely
    "Oa Ua ; a=+1 b=+1",          # sign for absent label
    "Oa Oa ; a=+1",               # both passes over
    "Oa Ua ; a=+1 a=-1",          # duplicate sign
    "Oa Ua ; a=+2",               # bad sign value
    "Xa Ua ; a=+1",               # bad pass letter
    "O Ua ; a=+1",                # empty label
    "Oa Ua ; a=+1 ; b=+1",        # two sign sections
])
def test_parse_rejects(bad):
    with pytest.raises(CodeError):
        parse_knotoid_code(bad)


def test_parse_rejects_non_ascii():
    with pytest.raises(CodeSyntaxError):
        parse_knotoid_code("Oα Uα ; α=+1")


def test_serialize_trivial():
    assert serialize(parse_knotoid_code("")) == ""


def test_serialize_two_one_exact():
    assert serialize(two_one()) == "Oa Ub Ua Ob ; a=+1 b=+1"


def test_serialize_switch_all_two_one():
    assert serialize(switch_all(two_one())) == "Ua Ob Oa Ub ; a=+1 b=+1"


@given(code_strategy())
def test_parse_serialize_roundtrip(code):
    assert parse_knotoid_code(serialize(code)) == code


def test_switch_all_flips_passes_keeps_signs():
    code = four_six()
    switched = switch_all(code)
    assert switched.signs == code.signs
    assert all(a.kind != b.kind and a.label == b.label
               for a, b in zip(code.word, switched.word))


@given(code_strategy())
def test_switch_all_involution(code):
    assert switch_all(switch_all(code)) == code


def test_reverse_two_one():
    assert reverse(two_one()).word == (
        Item(OVER, "b"), Item(UNDER, "a"), Item(UNDER, "b"), Item(OVER, "a"),
    )


@given(code_strategy())
def test_reverse_involution(code):
    assert reverse(reverse(code)) == code


def test_mirror_two_one():
    m = mirror(two_one())
    assert m.word == two_one().word
    assert m.signs == {"a": -1, "b": -1}


def test_mirror_five_nineteen_signs():
    assert mirror(five_nineteen()).signs == {"a": 1, "b": -1, "c": -1, "d": -1, "e": -1}


@given(code_strategy())
def test_mirror_involution(code):
    assert mirror(mirror(code)) == code


def test_switch_crossing():
    switched = switch_crossing(two_one(), "a")
    assert serialize(switched) == "Ua Ub Oa Ob ; a=-1 b=+1"
    assert switch_crossing(switched, "a") == two_one()
    with pytest.raises(KeyError):
        switch_crossing(two_one(), "zz")


def test_product_identity():
    trivial = parse_knotoid_code("")
    assert concat_product(trivial, four_six()) == four_six()
    assert concat_product(four_six(), trivial) == four_six()


def test_product_two_one_squared():
    prod = concat_product(two_one(), two_one())
    assert len(prod.word) == 8
    assert serialize(prod) == "Oa Ub Ua Ob Oa' Ub' Ua' Ob' ; a=+1 b=+1 a'=+1 b'=+1"
    assert casson_pm(prod) == (2, 0)


def test_product_with_three_crossing_code():
    other = parse_knotoid_code("Oa Ub Oc Ua Ob Uc ; a=+1 b=-1 c=+1")
    prod = concat_product(two_one(), other)
    assert prod.word[:4] == two_one().word
    assert len(prod.word) == 10


@given(code_strategy(max_crossings=3), code_strategy(max_crossings=3), code_strategy(max_crossings=3))
def test_product_associative_up_to_relabeling(a, b, c):
    left = concat_product(concat_product(a, b), c)
    right = concat_product(a, concat_product(b, c))
    assert canonical_relabel(left) == canonical_relabel(right)


def test_fresh_labels_avoid_collisions():
    labels = fresh_labels(two_one(), 2, stem="a")
    assert labels == ("a0", "a1")
    assert not set(labels) & set(two_one().signs)


# --- multi-knotoid codes ---------------------------------------------------


def test_parse_multiknotoid_smoothing_block():
    m = parse_multiknotoid_code("segment: Ob\ncircle: Ub\n; b=+1")
    assert m.segment == (Item(OVER, "b"),)
    assert m.circles == ((Item(UNDER, "b"),),)
    assert m.signs == {"b": 1}


def test_multiknotoid_segment_only_equals_knotoid_content():
    m = parse_multiknotoid_code("segment: Oa Ub Ua Ob\n; a=+1 b=+1")
    assert m.segment == two_one().word
    assert m.circles == ()


def test_multiknotoid_inline_sections_rejected():
    with pytest.raises(CodeError):
        parse_multiknotoid_code("segment: Oa Ua ; circle: ; a=+1")


def test_multiknotoid_label_split_invariant():
    with pytest.raises(CodeValidationError):
        MultiKnotoidCode((Item(OVER, "a"),), ((Item(OVER, "a"),),), {"a": 1})


def test_multiknotoid_circle_compared_cyclically():
    m1 = parse_multiknotoid_code("segment:\ncircle: Oa Ub Ua Ob\n; a=+1 b=+1")
    m2 = parse_multiknotoid_code("segment:\ncircle: Ua Ob Oa Ub\n; a=+1 b=+1")
    m3 = parse_multiknotoid_code("segment:\ncircle: Oa Ub Ob Ua\n; a=+1 b=+1")
    assert m1 == m2
    assert m1 != m3


def test_multiknotoid_roundtrip():
    text = "segment: Ob\ncircle: Ub\n; b=+1"
    m = parse_multiknotoid_code(text)
    assert parse_multiknotoid_code(serialize(m)) == m
    empty = MultiKnotoidCode((), ((),), {})
    assert parse_multiknotoid_code(serialize(empty)) == empty


# --- file blocks -------------------------------------------------------------


def test_read_code_blocks_names_and_separators():
    text = "\n".join([
        "# catalog snippet",
        "name 2_1",
        TWO_ONE_TEXT,
        "---",
        FOUR_SIX_TEXT,
        "---",
        "name smoothed",
        "segment: Ob",
        "circle: Ub",
        "; b=+1",
    ])
    blocks = read_code_blocks(text)
    assert [name for name, _ in blocks] == ["2_1", None, "smoothed"]
    assert blocks[0][1] == two_one()
    assert blocks[1][1] == four_six()
    assert isinstance(blocks[2][1], MultiKnotoidCode)


def test_read_code_blocks_bad_name_line():
    with pytest.raises(CodeSyntaxError):
        read_code_blocks("name two words\n" + FIVE_NINETEEN_TEXT)
