"""Gauss-code parsing, serialization, and elementary transforms."""

import copy
import pickle
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knotoid_casson import codes
from knotoid_casson.analysis import read_code_file
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
from knotoid_casson.skein import conway_triple
from knotoid_casson.skew import casson_pm

from support import (
    FIVE_NINETEEN_TEXT,
    FOUR_SIX_TEXT,
    TWO_ONE_TEXT,
    assert_label_signs,
    canonical_relabel,
    code_strategy,
    five_nineteen,
    four_six,
    realizable_code_strategy,
    reference_parse_items,
    reference_parse_knotoid_code,
    reference_parse_signs,
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


def test_label_signs_follow_the_labels_not_the_sign_order():
    code = KnotoidCode(parse_knotoid_code("Oa Ub Ua Ob ; a=+1 b=-1").word, {"b": -1, "a": 1})
    assert (code.labels, code.label_signs) == (("a", "b"), (1, -1))
    assert parse_knotoid_code("Ob Ua Ub Oa ; a=+1 b=-1").label_signs == (-1, 1)
    assert parse_knotoid_code("").label_signs == ()
    assert mirror(five_nineteen()).label_signs == tuple(-s for s in five_nineteen().label_signs)


@given(code_strategy(max_crossings=12), code_strategy(max_crossings=12))
def test_label_signs_stored_on_every_way_a_code_is_made(a, b):
    made = [parse_knotoid_code(serialize(a)), KnotoidCode(a.word, a.signs), KnotoidCode(b.word, b.signs),
            switch_all(a), mirror(a), reverse(a), concat_product(a, b), concat_product(b, a),
            pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)]
    made += [switch_crossing(a, label) for label in a.labels]
    for code in made:
        assert_label_signs(code)


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


PARSE_ERRORS = [
    (parse_knotoid_code, "Xa Ua ; a=+1", CodeSyntaxError, "bad item token 'Xa'"),
    (parse_knotoid_code, "O Ua ; a=+1", CodeSyntaxError, "bad item token 'O'"),
    (parse_knotoid_code, "Oa- Ua ; a=+1", CodeSyntaxError, "bad item token 'Oa-'"),
    (parse_knotoid_code, "O'a Ua ; a=+1", CodeSyntaxError, "bad item token \"O'a\""),
    (parse_knotoid_code, "Oa Ua ; a=+2", CodeSyntaxError, "bad sign token 'a=+2'"),
    (parse_knotoid_code, "Oa Ua ; a=+1 a=-1", CodeValidationError, "duplicate sign for label 'a'"),
    (parse_knotoid_code, "Oa Ua ; a=+1 ; b=+1", CodeSyntaxError, "more than one ';' in code line"),
    (parse_knotoid_code, "Oa Ua ; a=+1\nOb Ub ; b=+1", CodeSyntaxError,
     "a knotoid code is a single line (use --- between blocks)"),
    (parse_knotoid_code, "Oa Ua ; a=+1 \u00e9", CodeSyntaxError, "code text must be ASCII"),
    (parse_multiknotoid_code, "", CodeSyntaxError, "multi-knotoid block must start with 'segment:'"),
    (parse_multiknotoid_code, "circle: Oa Ua\n; a=+1", CodeSyntaxError,
     "multi-knotoid block must start with 'segment:'"),
    (parse_multiknotoid_code, "segment: Oa Ua\n; a=+1\ncircle: Ob", CodeSyntaxError,
     "content after the sign line"),
    (parse_multiknotoid_code, "segment: Oa\nUa ; a=+1", CodeSyntaxError,
     "unexpected line 'Ua ; a=+1' in multi-knotoid block"),
    (parse_multiknotoid_code, "segment: Oa Ua ; a=+1", CodeSyntaxError, "bad item token ';'"),
    (read_code_blocks, "name two words\nOa Ua ; a=+1", CodeSyntaxError,
     "block 0: bad name line 'name two words'"),
    (read_code_blocks, "name x\n---\n\n---\nOa Ub ; a=+1", CodeValidationError,
     "block 1: label 'a' must occur exactly twice, once over and once under"),
    (read_code_blocks, "Oa Ua ; a=+1\nsegment: Ob", CodeSyntaxError,
     "block 0: multi-knotoid block must start with 'segment:'"),
    (read_code_blocks, "Oa Ua ; a=+1\n---\n\u00e9", CodeSyntaxError, "code text must be ASCII"),
]


@pytest.mark.parametrize("parse, text, error, message", PARSE_ERRORS)
def test_parse_error_type_and_text(parse, text, error, message):
    with pytest.raises(CodeError) as info:
        parse(text)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("content, message", [
    (b"Oa Ua ; a=+1\n---\nXa Ua ; a=+1\n", "block 1: bad item token 'Xa'"),
    ("Oa Ua ; a=+1 \u00e9\n".encode("utf-8"), "code text must be ASCII"),
    (b"Oa Ua ; a=+1 \xff\n", "code text must be ASCII"),
])
def test_file_parse_error_names_the_file(tmp_path, content, message):
    path = tmp_path / "bad.knd"
    path.write_bytes(content)
    with pytest.raises(CodeSyntaxError) as info:
        read_code_file(path)
    assert str(info.value) == f"{path}: {message}"


def test_parse_rejects_non_ascii():
    with pytest.raises(CodeSyntaxError):
        parse_knotoid_code("Oα Uα ; α=+1")


def test_serialize_trivial():
    assert serialize(parse_knotoid_code("")) == ""


def test_serialize_two_one_exact():
    assert serialize(two_one()) == "Oa Ub Ua Ob ; a=+1 b=+1"


def test_serialize_switch_all_two_one():
    assert serialize(switch_all(two_one())) == "Ua Ob Oa Ub ; a=+1 b=+1"


# random words and signs, and realizable products and walks with primed labels
ANY_CODE = st.one_of(code_strategy(max_crossings=40), realizable_code_strategy(max_crossings=40))


@given(ANY_CODE)
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
    code = parse_knotoid_code("On0 Un0 ; n0=+1")
    labels = fresh_labels(code, 2)
    assert labels == ("n1", "n2")
    assert not set(labels) & set(code.signs)


def test_fresh_labels_skip_the_taken_ones_in_order():
    code = parse_knotoid_code("On0 On1 Un0 On3 Un1 Un3 ; n0=+1 n1=-1 n3=+1")
    assert fresh_labels(code, 1) == ("n2",)
    assert fresh_labels(code, 3) == ("n2", "n4", "n5")
    assert fresh_labels(KnotoidCode((), {}), 3) == ("n0", "n1", "n2")
    assert fresh_labels(KnotoidCode((), {}), 0) == ()


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


@pytest.mark.parametrize("label", [5, None, b"a", ("a",)])
def test_item_label_must_be_a_str(label):
    with pytest.raises(CodeValidationError) as exc:
        Item(OVER, label)
    assert str(exc.value) == f"bad crossing label {label!r}"


@pytest.mark.parametrize("word, signs, bad", [
    ([("X", "a b"), ("O", "a b")], {"a b": 1}, ("X", "a b")),  # once read as a one-crossing code
    (["Oa", "Ua"], {"a": 1}, "Oa"),
    ([("O", "a"), ("U", "a")], {"a": 1}, ("O", "a")),  # equal to the items, but not items
    ([Item(OVER, "a"), ("U", "a")], {"a": 1}, ("U", "a")),
    ([Item(OVER, "a"), Item(UNDER, "a"), None], {"a": 1}, None),
])
def test_a_word_is_made_of_items(word, signs, bad):
    message = f"a word is made of Items, got {bad!r}"
    with pytest.raises(CodeValidationError) as exc:
        KnotoidCode(word, signs)
    assert str(exc.value) == message
    with pytest.raises(CodeValidationError) as exc:
        MultiKnotoidCode(word[:1], [word[1:]], signs)
    assert str(exc.value) == message


@pytest.mark.parametrize("sign", [1.0, True, -1.0, 2, "1", None])
def test_signs_must_be_the_ints_plus_and_minus_one(sign):
    message = f"sign of 'a' must be +1 or -1, got {sign!r}"
    word = two_one().word
    with pytest.raises(CodeValidationError) as exc:
        KnotoidCode(word, {"a": sign, "b": 1})
    assert str(exc.value) == message
    with pytest.raises(CodeValidationError) as exc:
        MultiKnotoidCode(word, (), {"a": sign, "b": 1})
    assert str(exc.value) == message


def test_multiknotoid_circle_compared_cyclically():
    m1 = parse_multiknotoid_code("segment:\ncircle: Oa Ub Ua Ob\n; a=+1 b=+1")
    m2 = parse_multiknotoid_code("segment:\ncircle: Ua Ob Oa Ub\n; a=+1 b=+1")
    m3 = parse_multiknotoid_code("segment:\ncircle: Oa Ub Ob Ua\n; a=+1 b=+1")
    assert m1 == m2
    assert m1 != m3


def test_multiknotoid_equality_compares_every_part():
    m = parse_multiknotoid_code("segment: Oa\ncircle: Ua Ob Ub\n; a=+1 b=+1")
    assert m.__eq__(m.segment) is NotImplemented
    assert m != "segment: Oa"
    assert m != parse_multiknotoid_code("segment: Ua\ncircle: Oa Ob Ub\n; a=+1 b=+1")
    assert m != parse_multiknotoid_code("segment: Oa\ncircle: Ua Ob Ub\n; a=+1 b=-1")
    assert m != parse_multiknotoid_code("segment: Oa\ncircle: Ua\ncircle: Ob Ub\n; a=+1 b=+1")
    split = parse_multiknotoid_code("segment:\ncircle: Oa Ua\ncircle: Ob Ub\n; a=+1 b=+1")
    assert split != parse_multiknotoid_code("segment:\ncircle: Oa Ua Ob Ub\ncircle:\n; a=+1 b=+1")


def test_multiknotoid_roundtrip():
    text = "segment: Ob\ncircle: Ub\n; b=+1"
    m = parse_multiknotoid_code(text)
    assert parse_multiknotoid_code(serialize(m)) == m
    empty = MultiKnotoidCode((), ((),), {})
    assert parse_multiknotoid_code(serialize(empty)) == empty


# --- file blocks -------------------------------------------------------------


def parses_or_raises_code_error(text):
    """Each parse entry point either returns or raises ``CodeError``, nothing else."""
    for parse in (parse_knotoid_code, parse_multiknotoid_code, read_code_blocks):
        try:
            parse(text)
        except CodeError:
            pass


# pieces of the code grammar, so that random texts get past the first token
CODE_TEXT_PIECES = st.sampled_from([
    "O", "U", "a", "b1", "'", ";", "=", "+1", "-1", " ", "\t", "\n", "\r", "#", "---",
    "name ", "segment:", "circle:", "Oa", "Ua", "Ob1", "Ub1", "a=+1", "b1=-1",
]) | st.characters(max_codepoint=127)


@given(st.lists(CODE_TEXT_PIECES).map("".join))
def test_any_ascii_text_parses_or_raises_code_error(text):
    parses_or_raises_code_error(text)


@settings(max_examples=20)
@given(st.lists(realizable_code_strategy(max_crossings=40), min_size=1, max_size=3), st.booleans())
def test_every_prefix_of_a_code_file_parses_or_raises_code_error(codes, smooth_last):
    blocks = [f"name k{i}\n{serialize(code)}" for i, code in enumerate(codes)]
    if smooth_last and codes[-1].labels:
        blocks[-1] = serialize(conway_triple(codes[-1], codes[-1].labels[0]).d0)
    text = "\n---\n".join(blocks) + "\n"
    assert len(read_code_blocks(text)) == len(blocks)
    for end in range(len(text)):
        parses_or_raises_code_error(text[:end])


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


# --- property tests up to 40 crossings ----------------------------------------


@st.composite
def multiknotoid_strategy(draw):
    """The word of a code of at most 40 crossings, cut into a segment and circles."""
    code = draw(ANY_CODE)
    cuts = sorted(draw(st.lists(st.integers(0, len(code.word)), max_size=4)))
    bounds = [0, *cuts, len(code.word)]
    pieces = [code.word[a:b] for a, b in zip(bounds, bounds[1:])]
    return MultiKnotoidCode(pieces[0], tuple(pieces[1:]), code.signs)


def raised(parse, text):
    """The type and text of the ``CodeError`` that ``parse(text)`` raises, or None."""
    try:
        parse(text)
    except CodeError as exc:
        return type(exc), str(exc)
    return None


def multiknotoid_text(components: list[list[str]], sign_line: str) -> str:
    lines = ["segment: " + " ".join(components[0])]
    lines += ["circle: " + " ".join(c) for c in components[1:]]
    return "\n".join(lines + [sign_line])


@given(multiknotoid_strategy())
def test_multiknotoid_parse_serialize_roundtrip(m):
    assert parse_multiknotoid_code(serialize(m)) == m


@settings(max_examples=40)
@given(st.lists(st.one_of(ANY_CODE, multiknotoid_strategy()), min_size=1, max_size=4))
def test_code_file_roundtrip(codes):
    text = "\n---\n".join(f"name k{i}\n{serialize(code)}" for i, code in enumerate(codes))
    assert read_code_blocks(text) == [(f"k{i}", code) for i, code in enumerate(codes)]


@settings(max_examples=40)
@given(st.lists(st.one_of(ANY_CODE, multiknotoid_strategy()), min_size=1, max_size=3), st.data())
def test_non_ascii_anywhere_raises_syntax_error(codes, data):
    text = "\n---\n".join(serialize(code) for code in codes)
    at = data.draw(st.integers(0, len(text)))
    char = data.draw(st.characters(min_codepoint=128, blacklist_categories=("Cs",)))
    bad = text[:at] + char + text[at:]
    for parse in (parse_knotoid_code, parse_multiknotoid_code, read_code_blocks):
        assert raised(parse, bad) == (CodeSyntaxError, "code text must be ASCII")


@given(ANY_CODE.filter(lambda code: code.word), st.data())
def test_duplicate_label_raises_validation_error(code, data):
    items, signs = serialize(code).split(" ; ")
    items = items.split()
    token = data.draw(st.sampled_from(items))
    items.insert(data.draw(st.integers(0, len(items))), token)
    text = " ".join(items) + " ; " + signs
    message = f"label {token[1:]!r} must occur exactly twice, once over and once under"
    assert raised(parse_knotoid_code, text) == (CodeValidationError, message)
    assert raised(read_code_blocks, text) == (CodeValidationError, "block 0: " + message)


@given(multiknotoid_strategy().filter(lambda m: m.signs), st.data())
def test_multiknotoid_duplicate_label_raises_validation_error(m, data):
    components = [[str(it) for it in part] for part in (m.segment, *m.circles)]
    token = data.draw(st.sampled_from([t for part in components for t in part]))
    target = data.draw(st.sampled_from(components))
    target.insert(data.draw(st.integers(0, len(target))), token)
    text = multiknotoid_text(components, serialize(m).split("\n")[-1])
    message = f"label {token[1:]!r} must occur exactly twice, once over and once under"
    assert raised(parse_multiknotoid_code, text) == (CodeValidationError, message)
    assert raised(read_code_blocks, text) == (CodeValidationError, "block 0: " + message)


@given(st.one_of(ANY_CODE, multiknotoid_strategy()).filter(lambda code: code.signs), st.data())
def test_duplicate_sign_raises_validation_error(code, data):
    head, signs = serialize(code).rsplit(";", 1)
    signs = signs.split()
    label = data.draw(st.sampled_from(code.labels))
    signs.insert(data.draw(st.integers(0, len(signs))), f"{label}={data.draw(st.sampled_from(('+1', '-1')))}")
    text = head + "; " + " ".join(signs)
    message = f"duplicate sign for label {label!r}"
    parse = parse_multiknotoid_code if isinstance(code, MultiKnotoidCode) else parse_knotoid_code
    assert raised(parse, text) == (CodeValidationError, message)
    assert raised(read_code_blocks, text) == (CodeValidationError, "block 0: " + message)


@given(st.one_of(ANY_CODE, multiknotoid_strategy()).filter(lambda code: code.signs), st.data())
def test_truncated_line_raises_validation_error(code, data):
    # a line cut after any of its tokens loses a pass or a sign, never its form
    lines = serialize(code).split("\n")
    cuttable = [i for i, line in enumerate(lines) if len(line.split()) > 1]
    assume(cuttable)
    i = data.draw(st.sampled_from(cuttable))
    tokens = lines[i].split()
    lines[i] = " ".join(tokens[:data.draw(st.integers(1, len(tokens) - 1))])
    text = "\n".join(lines)
    parse = parse_multiknotoid_code if isinstance(code, MultiKnotoidCode) else parse_knotoid_code
    assert raised(parse, text)[0] is CodeValidationError
    assert raised(read_code_blocks, text)[0] is CodeValidationError


# --- section parsers against the token-by-token reference ----------------------


def outcome(parse, text):
    """What ``parse(text)`` returns, or the type and text of the ``CodeError`` it raises."""
    try:
        result = parse(text)
    except CodeError as exc:
        return type(exc), str(exc)
    if isinstance(result, KnotoidCode):
        assert all(type(it) is Item for it in result.word)
    return result


@pytest.mark.parametrize("text", [
    "Oa\tUb\x1fUa  Ob ;\ta=+1\x1fb=+1",          # tab and unit separator between tokens
    "\x1fOa Ua\t;\x1fa=-1\x1f",
    "Oa' Ub'' Ua' Ob'' ; a'=+1 b''=-1",         # apostrophe labels
    "Oa'b Ua ; a=+1",                           # glued tokens
    "OaOb UaOb ; aOb=+1",                       # a glued pair that is one valid token
    "Oa Ua ; a=+1b=+1",
    "Oa Ua Ob Ub ; a=+1 b=-1'",
    "Oa Ua ; a+1",                              # missing '='
    "Oa Ua ; a=1",
    "Oa Ua ; =+1",
    "Oa Ua ; a=+1=+1",
    "Oa Ua ; a=+2",                             # bad sign token
    "Oa Ua ; a=+1 a=-1",                        # duplicate sign
    "Oa Ua ; a=+1 a=+1 b=+2",                   # a duplicate before a bad token
    "Oa Ua ; b=+2 a=+1 a=+1",                   # a bad token before a duplicate
    "Oa Ua Xb ; a=+1 a=+1",                     # a bad item before a duplicate sign
    "Oa- Ua ; a=+1",
    "O' Ua ; a=+1",
    "Oa U ; a=+1",
    "Oa Ua ;",
    "Oa Ua ; a=+1 ; a=+1",
    "; a=+1",
    "Oa Ua Ob Ub",
])
def test_parse_matches_token_by_token_reference(text):
    assert outcome(parse_knotoid_code, text) == outcome(reference_parse_knotoid_code, text)


SECTION_PIECES = st.sampled_from([
    "O", "U", "a", "b1", "'", "=", "+", "-", "1", "+1", "-1", " ", "\t", "\x1f", "x", ";",
    "Oa", "Ua'", "Ob1", "a=+1", "b1=-1", "a'=-1",
])


@given(st.lists(SECTION_PIECES).map("".join))
def test_sections_match_token_by_token_reference(text):
    assert outcome(codes._parse_items, text) == outcome(reference_parse_items, text)
    assert outcome(codes._parse_signs, text) == outcome(reference_parse_signs, text)


@given(ANY_CODE, st.data())
def test_corrupted_lines_match_token_by_token_reference(code, data):
    text = serialize(code)
    at = data.draw(st.integers(0, len(text)))
    corrupt = data.draw(st.sampled_from(["insert", "delete", "separator"]))
    if corrupt == "insert":
        text = text[:at] + data.draw(SECTION_PIECES) + text[at:]
    elif corrupt == "delete":
        text = text[:at] + text[at + 1:]  # drops a space too, gluing two tokens
    else:
        text = text[:at] + text[at:].replace(" ", data.draw(st.sampled_from(["\t", "\x1f", "  "])), 1)
    assert outcome(parse_knotoid_code, text) == outcome(reference_parse_knotoid_code, text)


@pytest.mark.parametrize("text, message", [
    (" ".join(["Oa"] * 200_000) + " Oa'b", "bad item token \"Oa'b\""),
    ("; " + " ".join(f"s{i}=+1" for i in range(200_000)) + " s=+2", "bad sign token 's=+2'"),
])
def test_a_long_line_with_a_bad_last_token_fails_fast(text, message):
    start = time.perf_counter()
    with pytest.raises(CodeSyntaxError) as exc:
        parse_knotoid_code(text)
    assert time.perf_counter() - start < 0.5
    assert str(exc.value) == message
