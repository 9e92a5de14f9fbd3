"""Skew-pair detection and the integer/homological counts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotoid_casson.analysis import generate_family
from knotoid_casson.codes import KnotoidCode, concat_product, mirror, reverse, switch_all
from knotoid_casson.homology import ModuleElement, Subgroup
from knotoid_casson.skew import (
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
    assert chp == ModuleElement.single(Subgroup.cyclic(1))
    assert chm == ModuleElement.zero()


def test_homological_four_six():
    chp, chm = casson_homological(four_six(), {"a": 1, "b": 2, "c": 2, "d": 1})
    assert chp == ModuleElement.single(Subgroup.cyclic(2))
    assert chm == ModuleElement.zero()


def test_homological_five_nineteen_partial_classes():
    # only the crossings that occur in a skew pair need classes
    chp, chm = casson_homological(five_nineteen(), {"a": 0, "c": -1, "d": 1})
    assert chp == ModuleElement.zero()
    assert chm == ModuleElement.zero()


def test_homological_missing_class():
    with pytest.raises(KeyError):
        casson_homological(two_one(), {"a": 1})


def test_homological_rank_mismatch():
    with pytest.raises(ValueError):
        casson_homological(two_one(), {"a": (1, 0), "b": 1})


def test_homological_higher_rank_classes():
    chp, chm = casson_homological(two_one(), {"a": (1, 0), "b": (0, 2)})
    assert chp == ModuleElement.single(Subgroup.generated_by((1, 0), (0, 2)))
    assert chm == ModuleElement.zero()


def test_augment_examples():
    assert ModuleElement.single(Subgroup.cyclic(2)).total_coefficient() == 1
    assert ModuleElement.zero().total_coefficient() == 0
    e = 2 * ModuleElement.single(Subgroup.cyclic(1)) + ModuleElement.single(Subgroup.cyclic(0))
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
