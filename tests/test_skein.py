"""Conway triples, linking counts, and the skein identity."""

import random

import pytest

from knotoid_casson.codes import (
    Item,
    MultiKnotoidCode,
    OVER,
    UNDER,
    parse_knotoid_code,
    parse_multiknotoid_code,
    serialize,
)
from knotoid_casson.skein import conway_triple, lk_pm, verify_skein
from knotoid_casson.skew import casson_pm

from support import five_nineteen, four_six, named_fixtures, random_code, two_one


def test_conway_triple_two_one_at_a():
    t = conway_triple(two_one(), "a")
    assert t.s1 == 1
    assert t.d1 == two_one()
    assert serialize(t.d2) == "Ua Ub Oa Ob ; a=-1 b=+1"
    # circle = sub-word strictly between the passes of a; segment = the rest
    assert t.d0 == parse_multiknotoid_code("segment: Ob\ncircle: Ub\n; b=+1")


def test_conway_triple_normalizes_over_first():
    # b's under pass comes first in the fixture, so d1 switches b
    t = conway_triple(two_one(), "b")
    assert t.s1 == -1
    assert t.d2 == two_one()
    assert serialize(t.d1) == "Oa Ob Ua Ub ; a=+1 b=-1"


def test_conway_triple_unknown_crossing():
    with pytest.raises(KeyError):
        conway_triple(two_one(), "q")


def test_conway_triple_kink_has_empty_circle():
    t = conway_triple(parse_knotoid_code("Oa Ua ; a=-1"), "a")
    assert t.d0 == MultiKnotoidCode((), ((),), {})
    assert lk_pm(t.d0, t.s1) == (0, 0)


def test_lk_two_one_at_a():
    t = conway_triple(two_one(), "a")
    assert lk_pm(t.d0, t.s1) == (1, 0)


def test_lk_sides_can_differ():
    # frozen witness found by seeded search
    code = parse_knotoid_code("Oc1 Uc1 Oc3 Oc2 Uc3 Uc2 ; c1=-1 c3=-1 c2=+1")
    t = conway_triple(code, "c3")
    lk_plus, lk_minus = lk_pm(t.d0, t.s1)
    assert (lk_plus, lk_minus) == (0, -1)
    assert lk_plus != lk_minus


def test_lk_witness_search():
    rng = random.Random(777)
    for _ in range(5000):
        code = random_code(rng, rng.randrange(2, 7))
        for lab in code.labels:
            t = conway_triple(code, lab)
            lk_plus, lk_minus = lk_pm(t.d0, t.s1)
            if lk_plus != lk_minus:
                return
    pytest.fail("no crossing with lk+ != lk- found")


def test_lk_rejects_multiple_circles():
    d0 = MultiKnotoidCode(
        (Item(OVER, "a"), Item(OVER, "b")),
        ((Item(UNDER, "a"),), (Item(UNDER, "b"),)),
        {"a": 1, "b": 1},
    )
    with pytest.raises(ValueError):
        lk_pm(d0, 1)


def test_skein_identity_every_fixture_crossing():
    for name, code in named_fixtures().items():
        for lab in code.labels:
            report = verify_skein(code, lab)
            assert report.ok, (name, lab, report)


def test_skein_four_six_negative_s1_site():
    # the site where the over pass of c comes second: s1 = -1 and the
    # right-hand side is only correct with the s1 factor applied once
    report = verify_skein(four_six(), "c")
    assert report.s1 == -1
    assert (report.lhs_plus, report.lhs_minus) == (-1, 1)
    assert (report.rhs_plus, report.rhs_minus) == (-1, 1)
    assert report.ok


def test_skein_four_six_at_b_brute_force_both_sides():
    t = conway_triple(four_six(), "b")
    c1, c2 = casson_pm(t.d1), casson_pm(t.d2)
    assert (c1.c_plus - c2.c_plus, c1.c_minus - c2.c_minus) == lk_pm(t.d0, t.s1)


def test_skein_report_dict_shape():
    d = verify_skein(five_nineteen(), "d").as_dict()
    assert list(d) == ["crossing", "s1", "lhs_plus", "rhs_plus", "lhs_minus", "rhs_minus", "ok"]
    assert d["ok"] is True


def test_skein_identity_random_codes_virtual_included():
    rng = random.Random(2024)
    for _ in range(300):
        code = random_code(rng, rng.randrange(1, 8))
        for lab in code.labels:
            assert verify_skein(code, lab).ok, serialize(code)
