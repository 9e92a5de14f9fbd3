"""Skew-pair detection and the integer/homological counts."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotoid_casson.analysis import generate_family
from knotoid_casson.codes import (
    OVER,
    UNDER,
    Item,
    KnotoidCode,
    concat_product,
    mirror,
    reverse,
    switch_all,
)
from knotoid_casson.homology import ModuleElement, Subgroup, hermite_normal_form
from knotoid_casson.planar import all_loop_classes
from knotoid_casson.skew import (
    _pair_subgroup,
    casson_homological,
    casson_pm,
    skew_pairs,
)

from support import (
    brute_force_skew_pairs,
    code_strategy,
    five_nineteen,
    four_six,
    random_code,
    random_product,
    realizable_code_strategy,
    reference_casson_homological,
    two_one,
)


def pair_set(pairs):
    return {(p.first, p.second) for p in pairs}


def test_two_one_pairs():
    upper, lower = skew_pairs(two_one())
    assert pair_set(upper) == {("a", "b")}
    assert lower == []
    assert upper[0].sign == 1


def test_four_six_pairs():
    upper, lower = skew_pairs(four_six())
    assert pair_set(upper) == {("b", "c")}
    assert pair_set(lower) == {("a", "b"), ("a", "d")}
    signs = {(p.first, p.second): p.sign for p in lower}
    assert signs == {("a", "b"): -1, ("a", "d"): 1}


def test_five_nineteen_pairs():
    upper, lower = skew_pairs(five_nineteen())
    assert upper == []
    assert pair_set(lower) == {("a", "d"), ("c", "d")}
    signs = {(p.first, p.second): p.sign for p in lower}
    assert signs == {("a", "d"): -1, ("c", "d"): 1}


def test_casson_values_fixtures():
    assert casson_pm(two_one()) == (1, 0)
    assert casson_pm(four_six()) == (1, 0)
    assert casson_pm(five_nineteen()) == (0, 0)


def test_casson_trivial_and_kink():
    from knotoid_casson.codes import parse_knotoid_code

    assert casson_pm(parse_knotoid_code("")) == (0, 0)
    assert casson_pm(parse_knotoid_code("Oa Ua ; a=-1")) == (0, 0)


def test_homological_two_one():
    chp, chm = casson_homological(two_one(), {"a": 1, "b": 1})
    assert chp == ModuleElement({Subgroup.generated_by(1): 1})
    assert chm == ModuleElement()


def test_homological_four_six():
    chp, chm = casson_homological(four_six(), {"a": 1, "b": 2, "c": 2, "d": 1})
    assert chp == ModuleElement({Subgroup.generated_by(2): 1})
    assert chm == ModuleElement()


def test_homological_five_nineteen_partial_classes():
    # only the crossings that occur in a skew pair need classes
    chp, chm = casson_homological(five_nineteen(), {"a": 0, "c": -1, "d": 1})
    assert chp == ModuleElement()
    assert chm == ModuleElement()


def test_homological_missing_class():
    with pytest.raises(KeyError):
        casson_homological(two_one(), {"a": 1})


@pytest.mark.parametrize("bad", ["2", 1.5, 2.0, True, (1.9,), ("1",)])
def test_homological_classes_are_never_coerced(bad):
    # "2" once read as the class (2,) and (1.9,) as (1,)
    message = f"a homology class is an int or a vector of ints, got {bad!r}"
    with pytest.raises(TypeError, match=re.escape(message)):
        casson_homological(two_one(), {"a": bad, "b": 4})


def test_homological_rank_mismatch():
    with pytest.raises(ValueError):
        casson_homological(two_one(), {"a": (1, 0), "b": 1})


def test_homological_higher_rank_classes():
    chp, chm = casson_homological(two_one(), {"a": (1, 0), "b": (0, 2)})
    assert chp == ModuleElement({Subgroup.generated_by((1, 0), (0, 2)): 1})
    assert chm == ModuleElement()


def test_augment_examples():
    assert ModuleElement({Subgroup.generated_by(2): 1}).total_coefficient() == 1
    assert ModuleElement().total_coefficient() == 0
    e = 2 * ModuleElement({Subgroup.generated_by(1): 1}) + ModuleElement({Subgroup.generated_by(0): 1})
    assert e.total_coefficient() == 3


@given(code_strategy(), st.randoms(use_true_random=False))
def test_augment_recovers_casson(code, rng):
    classes = {lab: rng.randrange(-3, 4) for lab in code.labels}
    chp, chm = casson_homological(code, classes)
    values = casson_pm(code)
    assert chp.total_coefficient() == values.c_plus
    assert chm.total_coefficient() == values.c_minus


@given(code_strategy())
def test_symmetry_mirror(code):
    assert casson_pm(mirror(code)) == casson_pm(code)


@given(code_strategy())
def test_symmetry_switch_all(code):
    values = casson_pm(code)
    assert casson_pm(switch_all(code)) == (values.c_minus, values.c_plus)


@given(code_strategy())
def test_symmetry_reverse(code):
    assert casson_pm(reverse(code)) == casson_pm(code)


@given(code_strategy(max_crossings=4), code_strategy(max_crossings=4))
def test_product_additive(a, b):
    va, vb = casson_pm(a), casson_pm(b)
    vp = casson_pm(concat_product(a, b))
    assert vp == (va.c_plus + vb.c_plus, va.c_minus + vb.c_minus)


@given(code_strategy())
def test_pair_exclusivity(code):
    upper, lower = skew_pairs(code)
    both = pair_set(upper) | pair_set(lower)
    assert len(both) == len(upper) + len(lower)
    for x, y in both:
        assert (y, x) not in both


@given(code_strategy())
def test_matches_brute_force(code):
    upper, lower = skew_pairs(code)
    bf_upper, bf_lower = brute_force_skew_pairs(code)
    assert pair_set(upper) == bf_upper
    assert pair_set(lower) == bf_lower


def test_deterministic_order():
    rng = random.Random(5)
    for _ in range(50):
        code = random_code(rng, rng.randrange(0, 7))
        upper, lower = skew_pairs(code)
        pos = code.positions()
        upper_keys = [(pos[p.first][0], pos[p.second][1]) for p in upper]
        lower_keys = [(pos[p.first][1], pos[p.second][0]) for p in lower]
        assert upper_keys == sorted(upper_keys)
        assert lower_keys == sorted(lower_keys)


# --- the sweep against listed pairs, up to 40 crossings ---------------------


@settings(max_examples=50)
@given(code_strategy(max_crossings=40))
def test_casson_pm_matches_brute_force_up_to_40(code):
    bf_upper, bf_lower = brute_force_skew_pairs(code)
    s = code.signs
    assert casson_pm(code) == (
        sum(s[a] * s[b] for a, b in bf_upper),
        sum(s[a] * s[b] for a, b in bf_lower),
    )


@given(code_strategy(max_crossings=40), st.randoms(use_true_random=False))
def test_homological_matches_reference_rank_one_up_to_40(code, rng):
    # up to n distinct classes, so the sweep keeps up to n trees per kind
    spread = rng.randint(0, code.n_crossings)
    classes = {lab: rng.randint(-spread, spread) for lab in code.labels}
    assert casson_homological(code, classes) == reference_casson_homological(code, classes)


@given(code_strategy(max_crossings=40), st.randoms(use_true_random=False))
def test_homological_matches_reference_rank_two_up_to_40(code, rng):
    classes = {lab: (rng.randint(-3, 3), rng.randint(-3, 3)) for lab in code.labels}
    assert casson_homological(code, classes) == reference_casson_homological(code, classes)


def test_homological_missing_class_with_cancelling_signs():
    # a is first in the lower pairs (a, b) and (a, d), of signs -1 and +1
    code = four_six()
    assert casson_pm(code) == (1, 0)
    with pytest.raises(KeyError, match="'a'"):
        casson_homological(code, {"b": 2, "c": 2, "d": 1})


@given(code_strategy(max_crossings=40), st.randoms(use_true_random=False))
def test_homological_missing_class_raises_exactly_for_paired_crossings(code, rng):
    upper, lower = skew_pairs(code)
    paired = {lab for p in upper + lower for lab in (p.first, p.second)}
    dropped = {lab for lab in code.labels if rng.random() < 0.2}
    classes = {lab: rng.randint(-2, 2) for lab in code.labels if lab not in dropped}
    if dropped & paired:
        with pytest.raises(KeyError):
            casson_homological(code, classes)
    else:
        assert casson_homological(code, classes) == reference_casson_homological(code, classes)


# --- the sweep at 256 and 1024 crossings, where its masks span many words ---


def seeded_product(seed: int, n: int) -> KnotoidCode:
    """A product of random codes of up to 40 crossings and sharpness-family members."""
    rng = random.Random(seed)
    code = KnotoidCode((), {})
    while code.n_crossings < n:
        room = n - code.n_crossings
        if room >= 2 and rng.random() < 0.3:
            factor = generate_family(rng.randint(1, min(16, room // 2)))
        else:
            factor = random_code(rng, rng.randint(1, min(40, room)))
        code = concat_product(code, factor)
    return code


LARGE_CODES = [
    ("product_256", lambda: seeded_product(256, 256)),
    ("product_1024", lambda: seeded_product(1024, 1024)),
    # one chord set spread over the whole word: long chords, many pairs
    ("random_256", lambda: random_code(random.Random(2560), 256)),
]


@pytest.mark.parametrize("make", [m for _, m in LARGE_CODES], ids=[i for i, _ in LARGE_CODES])
def test_sweep_matches_listed_pairs_at_large_sizes(make):
    code = make()
    upper, lower = skew_pairs(code)
    assert casson_pm(code) == (sum(p.sign for p in upper), sum(p.sign for p in lower))
    rng = random.Random(code.n_crossings)
    rank_one = {lab: rng.randint(-4, 4) for lab in code.labels}
    assert len(set(rank_one.values())) >= 8
    rank_two = {lab: (rng.randint(-2, 2), rng.randint(-2, 2)) for lab in code.labels}
    for classes in (rank_one, rank_two):
        assert casson_homological(code, classes) == reference_casson_homological(code, classes)


def test_rank_one_pair_subgroup_is_the_gcd_of_hermite_normal_form():
    # the sweep keys rank-1 classes by plain ints
    rng = random.Random(12)
    pairs = [(0, 0), (0, 5), (-5, 0), (-4, -6), (7, -7), (1, 0)]
    pairs += [(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(500)]
    for a, b in pairs:
        assert _pair_subgroup(a, b) == Subgroup(1, hermite_normal_form(((a,), (b,))))


def test_higher_rank_pair_subgroup_is_hermite_normal_form():
    rng = random.Random(13)
    for _ in range(200):
        first, second = (tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(2))
        assert _pair_subgroup(first, second) == Subgroup(3, hermite_normal_form((first, second)))


# --- the re-based sweep: its bits count from the last chord start with no chord open ---


def cut_points(code: KnotoidCode) -> list[int]:
    """The chord starts at which no chord is open, read off the word."""
    pos = code.positions()
    cuts, closing = [], 0
    for p, item in enumerate(code.word):
        first, last = sorted(pos[item.label])
        if p == first and p > closing:
            cuts.append(p)
        closing = max(closing, last)
    return [0, *cuts] if code.word else []


def kink_chain(rng: random.Random, n: int) -> KnotoidCode:
    """n kinks in a row, each of a random pass order and sign: a cut after every crossing."""
    word = []
    for i in range(n):
        kinds = (OVER, UNDER) if rng.random() < 0.5 else (UNDER, OVER)
        word += [Item(kind, f"k{i}") for kind in kinds]
    return KnotoidCode(word, {f"k{i}": rng.choice((1, -1)) for i in range(n)})


def first_unclassed(code: KnotoidCode, classes) -> str | None:
    """The crossing that a missing-class error names, read left to right: at
    the first chord end that closes a skew pair with a crossing without a class,
    the ending crossing if it has none, else its first-starting partner without
    one; None when every skew pair is classed."""
    upper, lower = skew_pairs(code)
    pos = code.positions()
    partners_of: dict[str, list[str]] = {}
    for p in upper + lower:
        partners_of.setdefault(p.first, []).append(p.second)
    for end, item in enumerate(code.word):
        x = item.label
        if end != max(pos[x]):
            continue
        # the first crossing of a skew pair is the one that closes first
        partners = partners_of.get(x, [])
        if partners and x not in classes:
            return x
        missing = sorted((min(pos[y]), y) for y in partners if y not in classes)
        if missing:
            return missing[0][1]
    return None


def assert_pattern_order(code: KnotoidCode, upper, lower) -> None:
    """The listing order that ``test_deterministic_order`` asserts."""
    pos = code.positions()
    upper_keys = [(pos[p.first][0], pos[p.second][1]) for p in upper]
    lower_keys = [(pos[p.first][1], pos[p.second][0]) for p in lower]
    assert upper_keys == sorted(upper_keys)
    assert lower_keys == sorted(lower_keys)


def assert_one_missing_class_is_named(code: KnotoidCode, classes, label: str) -> None:
    """Without the class of ``label``, a crossing in some skew pair, the
    error names what ``first_unclassed`` names: that crossing."""
    partial = {lab: c for lab, c in classes.items() if lab != label}
    assert first_unclassed(code, partial) == label
    with pytest.raises(KeyError) as raised:
        casson_homological(code, partial)
    assert raised.value.args == (f"no homology class for crossing {label!r}",)


def test_casson_pm_matches_brute_force_on_products_of_41_to_53():
    # products just past the 40-crossing range of the hypothesis tests above
    rng = random.Random(4141)
    for n in (41, 47, 53):
        code = random_product(rng, n)
        assert max(cut_points(code)) > 60
        bf_upper, bf_lower = brute_force_skew_pairs(code)
        s = code.signs
        assert casson_pm(code) == (
            sum(s[a] * s[b] for a, b in bf_upper),
            sum(s[a] * s[b] for a, b in bf_lower),
        )


@settings(max_examples=20)
@given(st.randoms(use_true_random=False), st.integers(41, 300))
def test_rebased_sweep_matches_the_listing_on_products_of_41_to_300(rng, n):
    # about 96% of these words have a cut point past bit 60, and 98% a run of
    # overlapping chords wider than 30 bits (a D_j factor)
    code = random_product(rng, n)
    pairs = upper, lower = skew_pairs(code)
    bf_upper, bf_lower = brute_force_skew_pairs(code)
    assert (pair_set(upper), pair_set(lower)) == (bf_upper, bf_lower)
    assert len(upper) + len(lower) == len(bf_upper) + len(bf_lower)
    s = code.signs
    assert casson_pm(code) == (sum(p.sign for p in upper), sum(p.sign for p in lower)) == (
        sum(s[a] * s[b] for a, b in bf_upper), sum(s[a] * s[b] for a, b in bf_lower))
    loops = {lab: c for lab, (c,) in all_loop_classes(code).items()}
    rank_one = {lab: rng.randint(-4, 4) for lab in code.labels}
    rank_two = {lab: (rng.randint(-2, 2), rng.randint(-2, 2)) for lab in code.labels}
    for classes in (loops, rank_one, rank_two):
        expected = reference_casson_homological(code, classes, pairs)
        assert casson_homological(code, classes) == expected
    # labels without a class take no part when they are in no skew pair
    paired = {lab for p in upper + lower for lab in (p.first, p.second)}
    partial = {lab: c for lab, c in rank_one.items() if lab in paired or rng.random() < 0.5}
    assert casson_homological(code, partial) == reference_casson_homological(code, partial, pairs)
    assert_pattern_order(code, upper, lower)
    if paired:
        assert_one_missing_class_is_named(code, rank_one, rng.choice(sorted(paired)))


@pytest.mark.parametrize("j", [1, 2, 15, 16, 31, 32, 100])
def test_rebased_sweep_on_the_sharpness_family_which_has_no_interior_cut(j):
    code = generate_family(j)
    assert cut_points(code) == [0]
    pairs = upper, lower = skew_pairs(code)
    assert len(upper) + len(lower) == j * j  # all signs are +1
    assert casson_pm(code) == (len(upper), len(lower))
    rng = random.Random(j)
    for classes in (
        {lab: c for lab, (c,) in all_loop_classes(code).items()},
        {lab: rng.randint(-3, 3) for lab in code.labels},
        {lab: (rng.randint(-2, 2), rng.randint(-2, 2)) for lab in code.labels},
    ):
        expected = reference_casson_homological(code, classes, pairs)
        assert casson_homological(code, classes) == expected
    assert_pattern_order(code, upper, lower)
    assert_one_missing_class_is_named(code, classes, rng.choice(code.labels))


def test_rebased_sweep_on_kink_chains_which_have_a_cut_after_every_crossing():
    rng = random.Random(2024)
    chain = kink_chain(rng, 200)
    assert cut_points(chain) == list(range(0, 400, 2))
    assert casson_pm(chain) == (0, 0)
    classes = {lab: rng.randint(-3, 3) for lab in chain.labels}
    assert casson_homological(chain, classes) == (ModuleElement(), ModuleElement())
    # kinks between sharpness-family members, small enough for the brute force
    code = concat_product(kink_chain(rng, 12), generate_family(9))
    code = concat_product(code, kink_chain(rng, 12))
    assert len(cut_points(code)) == 25
    bf_upper, bf_lower = brute_force_skew_pairs(code)
    s = code.signs
    assert casson_pm(code) == (
        sum(s[a] * s[b] for a, b in bf_upper),
        sum(s[a] * s[b] for a, b in bf_lower),
    )
    for classes in (
        {lab: rng.randint(-3, 3) for lab in code.labels},
        {lab: (rng.randint(-2, 2), rng.randint(-2, 2)) for lab in code.labels},
        {lab: 1 for lab in code.labels if not lab.startswith("k")},
    ):
        assert casson_homological(code, classes) == reference_casson_homological(code, classes)


@given(
    st.one_of(code_strategy(max_crossings=40), realizable_code_strategy(max_crossings=40)),
    st.randoms(use_true_random=False),
)
def test_missing_class_names_the_crossing_of_the_first_pair_to_close(code, rng):
    keep = rng.random()
    classes = {lab: rng.randint(-2, 2) for lab in code.labels if rng.random() < keep}
    named = first_unclassed(code, classes)
    if named is None:
        assert casson_homological(code, classes) == reference_casson_homological(code, classes)
    else:
        with pytest.raises(KeyError) as raised:
            casson_homological(code, classes)
        assert raised.value.args == (f"no homology class for crossing {named!r}",)
