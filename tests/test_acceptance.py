"""Acceptance suite: one test per criterion, printing a pass/fail line each.

All arithmetic is exact (tolerance zero); the stated runtime budgets are
asserted around the computation itself with perf_counter.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager

from knotoid_casson.analysis import (
    INCONCLUSIVE,
    PROPER_BY_C,
    PROPER_BY_CH,
    full_report,
    generate_family,
    properness_certificate,
)
from knotoid_casson.codes import concat_product, mirror, reverse, switch_all
from knotoid_casson.homology import ModuleElement
from knotoid_casson.moves import iter_walk
from knotoid_casson.planar import NonRealizableError, all_loop_classes, build_planar_map
from knotoid_casson.skein import verify_skein
from knotoid_casson.skew import CassonValues, casson_homological, casson_pm, skew_pairs

from support import (
    all_simple_dual_paths,
    brute_force_skew_pairs,
    cyc,
    five_nineteen,
    four_six,
    invariant_row,
    loop_class_along,
    named_fixtures,
    random_code,
    two_one,
)


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number}: PASS - {description} ({elapsed:.3f}s)")


def timed_report(code, repeats=3):
    best = float("inf")
    report = None
    for _ in range(repeats):
        start = time.perf_counter()
        report = full_report(code)
        best = min(best, time.perf_counter() - start)
    return report, best


# shared seeded populations (criterion 10 rechecks exactly these)

def walk_population():
    bases = list(named_fixtures().values()) + [generate_family(j) for j in (2, 3, 4)]
    return [(bases[w % len(bases)], 20000 + w) for w in range(200)]


def skein_population():
    rng = random.Random(70007)
    return [random_code(rng, rng.randrange(1, 8)) for _ in range(1000)]


def symmetry_population():
    rng = random.Random(80008)
    return [random_code(rng, rng.randrange(0, 9)) for _ in range(500)]


def corpus():
    rng = random.Random(90009)
    codes = list(named_fixtures().values())
    codes += [generate_family(j) for j in range(1, 5)]
    codes += [random_code(rng, rng.randrange(0, 9)) for _ in range(200)]
    return codes


def test_criterion_1_two_one_fixture():
    with criterion(1, "2_1 values and skew sets, under 10 ms"):
        full_report(two_one())  # warm
        report, best = timed_report(two_one())
        assert (report.c_plus, report.c_minus) == (1, 0)
        assert report.ch_plus == cyc(1)
        assert report.ch_minus == ModuleElement()
        upper, lower = skew_pairs(two_one())
        assert [(p.first, p.second, p.sign) for p in upper] == [("a", "b", 1)]
        assert lower == []
        assert best < 0.010, f"runtime {best:.4f}s"


def test_criterion_2_four_six_fixture():
    with criterion(2, "4_6 values and loop classes, under 10 ms"):
        full_report(four_six())  # warm
        report, best = timed_report(four_six())
        assert (report.c_plus, report.c_minus) == (1, 0)
        assert report.ch_plus == cyc(2)
        assert report.ch_minus == ModuleElement()
        classes = all_loop_classes(four_six())
        for flip in (1, -1):
            if all(classes[lab] == (flip * g,) for lab, g in
                   (("a", 1), ("d", 1), ("b", 2), ("c", 2))):
                break
        else:
            raise AssertionError(f"classes not +-(g,g,2g,2g): {classes}")
        assert best < 0.010, f"runtime {best:.4f}s"


def test_criterion_3_five_nineteen_fixture():
    with criterion(3, "5_19 all invariants vanish, certificate Inconclusive"):
        report = full_report(five_nineteen())
        assert (report.c_plus, report.c_minus) == (0, 0)
        assert report.ch_plus == ModuleElement()
        assert report.ch_minus == ModuleElement()
        upper, lower = skew_pairs(five_nineteen())
        assert upper == []
        assert {(p.first, p.second) for p in lower} == {("a", "d"), ("c", "d")}
        assert report.properness == INCONCLUSIVE


def test_criterion_4_table_rows():
    with criterion(4, "table rows 2_1/4_6/5_19 exact; synthetic row is ProperByCH"):
        expected = {
            "2_1": (1, 0, cyc(1), ModuleElement()),
            "4_6": (1, 0, cyc(2), ModuleElement()),
            "5_19": (0, 0, ModuleElement(), ModuleElement()),
        }
        for name, code in named_fixtures().items():
            r = full_report(code, name)
            assert (r.c_plus, r.c_minus, r.ch_plus, r.ch_minus) == expected[name], name
        # synthetic row with the published 5_7 values
        assert properness_certificate(CassonValues(2, 2), cyc(1, 2), cyc(1, 2)) == PROPER_BY_CH
        assert full_report(two_one()).properness == PROPER_BY_C


def test_criterion_5_family_sharpness():
    with criterion(5, "family D_j sharp for j=1..8, under 1 s"):
        start = time.perf_counter()
        for j in range(1, 9):
            code = generate_family(j)
            upper, lower = skew_pairs(code)
            assert len(upper) == j * (j + 1) // 2
            assert len(lower) == j * (j - 1) // 2
            report = full_report(code)
            assert report.norm_sum == (2 * j) ** 2 // 4
        assert time.perf_counter() - start < 1.0


def test_criterion_6_move_invariance():
    with criterion(6, "200 walks x 30 moves preserve all four invariants, under 30 s"):
        start = time.perf_counter()
        base_rows = {}
        for code, seed in walk_population():
            key = id(code)
            if key not in base_rows:
                base_rows[key] = invariant_row(code)
            for _move, current in iter_walk(code, 30, seed):
                assert invariant_row(current) == base_rows[key]
        assert time.perf_counter() - start < 30.0


def test_criterion_7_skein_identity():
    with criterion(7, "skein identity at every fixture crossing and 1000 random codes, under 30 s"):
        start = time.perf_counter()
        for code in named_fixtures().values():
            for lab in code.labels:
                assert verify_skein(code, lab).ok
        for code in skein_population():
            for lab in code.labels:
                assert verify_skein(code, lab).ok
        assert time.perf_counter() - start < 30.0


def test_criterion_8_transform_symmetries():
    with criterion(8, "mirror/switch/reverse/product symmetries on 500 random codes"):
        codes = symmetry_population()
        for code in codes:
            values = casson_pm(code)
            assert casson_pm(mirror(code)) == values
            assert casson_pm(switch_all(code)) == (values.c_minus, values.c_plus)
            assert casson_pm(reverse(code)) == values
        for left, right in zip(codes[::2], codes[1::2]):
            vl, vr = casson_pm(left), casson_pm(right)
            assert casson_pm(concat_product(left, right)) == (
                vl.c_plus + vr.c_plus, vl.c_minus + vr.c_minus,
            )


def test_criterion_9_structural_oracles():
    with criterion(9, "brute-force scan, dual-path independence, Euler count, augmentation"):
        rng = random.Random(13)
        for code in corpus():
            assert code.n_crossings <= 8
            upper, lower = skew_pairs(code)
            bf_upper, bf_lower = brute_force_skew_pairs(code)
            assert {(p.first, p.second) for p in upper} == bf_upper
            assert {(p.first, p.second) for p in lower} == bf_lower

            values = casson_pm(code)
            try:
                classes = all_loop_classes(code)
            except NonRealizableError:
                classes = {lab: rng.randrange(-3, 4) for lab in code.labels}
            else:
                pmap = build_planar_map(code)
                assert pmap.num_faces == code.n_crossings + 1
            chp, chm = casson_homological(code, classes)
            assert chp.total_coefficient() == values.c_plus
            assert chm.total_coefficient() == values.c_minus

        for code in named_fixtures().values():
            assert code.n_crossings <= 5
            pmap = build_planar_map(code)
            classes = all_loop_classes(code)
            for path in all_simple_dual_paths(pmap):
                for lab in code.labels:
                    assert loop_class_along(pmap, path, lab) == classes[lab][0]


def test_criterion_10_norm_inequality_per_diagram():
    with criterion(10, "norm sum <= floor(n^2/4) on every realizable code from criteria 5-8"):
        def check(code):
            try:
                classes = all_loop_classes(code)
            except NonRealizableError:
                return
            chp, chm = casson_homological(code, classes)
            n = code.n_crossings
            assert chp.norm() + chm.norm() <= n * n // 4

        for j in range(1, 9):
            check(generate_family(j))
        for code, seed in walk_population():
            check(code)
            for _move, current in iter_walk(code, 30, seed):
                check(current)
        for code in skein_population():
            check(code)
        for code in symmetry_population():
            check(code)
