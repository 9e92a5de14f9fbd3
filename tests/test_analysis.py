"""Reports, the crossing-number bound, properness, family, catalog."""

import json
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotoid_casson import analysis, planar
from knotoid_casson.analysis import (
    INCONCLUSIVE,
    PROPER_BY_C,
    PROPER_BY_CH,
    crossing_lower_bound,
    evaluate_catalog,
    full_report,
    generate_family,
    load_catalog,
    odd_conjecture_experiment,
    properness_certificate,
    reports_match_up_to_switch,
    summary_table,
)
from knotoid_casson.codes import CodeError, parse_knotoid_code, serialize, switch_all
from knotoid_casson.homology import ModuleElement, Subgroup
from knotoid_casson.skew import CassonValues, skew_pairs

from support import (
    FIVE_NINETEEN_TEXT,
    FIXTURES,
    FOUR_SIX_TEXT,
    TWO_ONE_TEXT,
    canonical_relabel,
    code_strategy,
    cyc,
    five_nineteen,
    four_six,
    named_fixtures,
    plant_bigon,
    random_product,
    random_realizable_code,
    realizable_code_strategy,
    reference_report,
    two_one,
)


def test_bound_examples():
    assert crossing_lower_bound(cyc(1), ModuleElement()) == 2
    assert crossing_lower_bound(ModuleElement(), ModuleElement()) == 0
    four = cyc(1, 3) + cyc(2)
    assert four.norm() == 4
    assert crossing_lower_bound(four, ModuleElement()) == 4


@given(st.integers(0, 200))
def test_bound_minimality(target):
    e = cyc(1, target)
    n = crossing_lower_bound(e, ModuleElement())
    assert n * n // 4 >= target
    if n:
        assert (n - 1) * (n - 1) // 4 < target


def test_bound_matches_the_search_below_200000():
    # the least n with floor(n^2/4) >= t grows with t, so one search serves every t
    trivial, whole = Subgroup.generated_by(0), Subgroup.generated_by(1)
    n = 0
    for t in range(200_000):
        while n * n // 4 < t:
            n += 1
        ch_plus, ch_minus = ModuleElement({trivial: t - t // 2}), ModuleElement({whole: -(t // 2)})
        assert crossing_lower_bound(ch_plus, ch_minus) == n, t


def test_properness_fixture_values():
    assert properness_certificate(CassonValues(1, 0), cyc(1), ModuleElement()) == PROPER_BY_C
    assert properness_certificate(CassonValues(0, 0), ModuleElement(), ModuleElement()) == INCONCLUSIVE


def test_properness_synthetic_row():
    # C+ = C- = 2 with both refinements 2*<1>: only the second criterion fires
    cert = properness_certificate(CassonValues(2, 2), cyc(1, 2), cyc(1, 2))
    assert cert == PROPER_BY_CH


def test_properness_trivial_subgroup_terms_stay_inconclusive():
    cert = properness_certificate(CassonValues(2, 2), cyc(0, 2), cyc(0, 2))
    assert cert == INCONCLUSIVE


def test_properness_rank_two_sums():
    # C times the trivial subgroup of Z^2, not of Z, is what leaves C+ = C- inconclusive
    trivial = ModuleElement({Subgroup.generated_by((0, 0)): 2})
    assert properness_certificate(CassonValues(2, 2), trivial, trivial) == INCONCLUSIVE
    proper = ModuleElement({Subgroup.generated_by((1, 0), (0, 2)): 2})
    assert properness_certificate(CassonValues(2, 2), proper, trivial) == PROPER_BY_CH
    assert properness_certificate(CassonValues(2, 2), trivial, proper) == PROPER_BY_CH
    x_axis, y_axis = Subgroup.generated_by((1, 0)), Subgroup.generated_by((0, 1))
    split = trivial + ModuleElement({x_axis: 1}) - ModuleElement({y_axis: 1})
    assert properness_certificate(CassonValues(2, 2), split, split) == PROPER_BY_CH


def test_properness_virtual_skips_homological_check():
    assert properness_certificate(CassonValues(1, 1), None, None) == INCONCLUSIVE
    assert properness_certificate(CassonValues(1, 0), None, None) == PROPER_BY_C


def test_family_first_member_is_the_two_crossing_fixture():
    assert canonical_relabel(generate_family(1)) == canonical_relabel(two_one())


def test_family_second_member_word():
    assert serialize(generate_family(2)) == (
        "Ox1 Ux2 Ox3 Ux4 Ux1 Ox2 Ux3 Ox4 ; x1=+1 x2=+1 x3=+1 x4=+1"
    )


def test_family_third_member_shape():
    code = generate_family(3)
    assert len(code.word) == 12
    assert set(code.signs.values()) == {1}


def test_family_rejects_nonpositive():
    with pytest.raises(ValueError):
        generate_family(0)


@pytest.mark.parametrize("j", [True, 2.0, "2", None])
def test_family_index_is_never_coerced(j):
    with pytest.raises(TypeError) as exc:
        generate_family(j)
    assert str(exc.value) == f"a family index is an int, got {j!r}"


def test_family_counts_and_sharpness():
    for j in range(1, 9):
        code = generate_family(j)
        upper, lower = skew_pairs(code)
        assert len(upper) == j * (j + 1) // 2
        assert len(lower) == j * (j - 1) // 2
        assert all(p.sign == 1 for p in upper + lower)
        report = full_report(code, f"D_{j}")
        assert report.norm_sum == (2 * j) ** 2 // 4


def test_family_closed_forms_at_1024_crossings():
    j = 512
    report = full_report(generate_family(j), "D_512")
    triangular = j * (j + 1) // 2
    assert report.diagram_crossings == 1024
    assert (report.c_plus, report.c_minus) == (triangular, j * (j - 1) // 2)
    assert report.ch_plus == cyc(1, triangular)
    assert report.ch_minus == cyc(1, triangular - j)


@given(code_strategy(max_crossings=40))
def test_full_report_matches_reference_up_to_40(code):
    assert full_report(code, "c").to_json_dict() == reference_report(code, "c").to_json_dict()


@given(realizable_code_strategy(max_crossings=40))
def test_full_report_matches_reference_on_realizable_up_to_40(code):
    report = full_report(code, "r")
    assert not report.is_virtual
    assert report.to_json_dict() == reference_report(code, "r").to_json_dict()


def test_full_report_matches_reference_above_the_hypothesis_range():
    # the sharpness family up to 256 crossings (listing its j^2 skew pairs is the
    # cost, so every j only up to 32), then seeded products of 41 to 200 crossings
    codes = [generate_family(j) for j in [*range(1, 33), 48, 64, 96, 128]]
    rng = random.Random(4111)
    codes += [random_product(rng, rng.randint(41, 200)) for _ in range(40)]
    for code in codes:
        assert full_report(code, "c").to_json_dict() == reference_report(code, "c").to_json_dict()


def test_full_report_never_builds_the_dual_arc(monkeypatch):
    def refuse(pmap):
        raise AssertionError("full_report called dual_arc")

    monkeypatch.setattr(planar, "dual_arc", refuse)
    for code in [*named_fixtures().values(), generate_family(8)]:
        full_report(code)


def test_full_report_two_one():
    r = full_report(two_one(), "2_1")
    assert (r.c_plus, r.c_minus) == (1, 0)
    assert r.ch_plus == cyc(1)
    assert r.ch_minus == ModuleElement()
    assert r.norm_sum == 1
    assert r.crossing_lower_bound == 2
    assert r.properness == PROPER_BY_C
    assert r.diagram_crossings == 2
    assert not r.is_virtual


def test_full_report_four_six():
    r = full_report(four_six(), "4_6")
    assert (r.c_plus, r.c_minus) == (1, 0)
    assert r.ch_plus == cyc(2)
    assert r.ch_minus == ModuleElement()
    assert r.properness == PROPER_BY_C


def test_full_report_five_nineteen():
    r = full_report(five_nineteen(), "5_19")
    assert (r.c_plus, r.c_minus) == (0, 0)
    assert r.ch_plus == ModuleElement()
    assert r.ch_minus == ModuleElement()
    assert r.norm_sum == 0
    assert r.crossing_lower_bound == 0
    assert r.properness == INCONCLUSIVE


def test_full_report_properness_reads_both_refinements():
    # C+ = C- = 0 and CH- = 0, but CH+ is not 0: only CH+ certifies properness,
    # and on the switched code, which swaps CH+ and CH-, only CH-
    code = parse_knotoid_code("Uc8 Oc6 Uc6 Oc4 Oc2 Uc3 Oc8 Oc7 Uc7 Uc1 Uc2 Oc5 Uc4 Oc1 Oc3 Uc5 ; "
                              "c8=-1 c6=-1 c4=+1 c2=-1 c3=+1 c7=+1 c1=-1 c5=-1")
    for diagram, zero in ((code, "ch_minus"), (switch_all(code), "ch_plus")):
        report = full_report(diagram, "p")
        assert (report.c_plus, report.c_minus) == (0, 0)
        assert getattr(report, zero) == ModuleElement()
        assert report.properness == PROPER_BY_CH
        assert report.to_json_dict() == reference_report(diagram, "p").to_json_dict()


def test_full_report_virtual():
    r = full_report(parse_knotoid_code("Oa Ub Ua Ob ; a=+1 b=-1"), "virtual-2")
    assert r.is_virtual
    assert r.ch_plus is None and r.ch_minus is None
    assert r.norm_sum is None and r.crossing_lower_bound is None
    assert (r.c_plus, r.c_minus) == (-1, 0)
    assert r.properness == PROPER_BY_C
    assert r.to_json_dict()["ch_plus"] == "virtual"


def test_reports_match_up_to_switch():
    base = full_report(two_one(), "2_1")
    switched = full_report(switch_all(two_one()), "2_1-switched")
    assert (switched.c_plus, switched.c_minus) == (0, 1)
    assert reports_match_up_to_switch(base, switched)
    assert reports_match_up_to_switch(base, base)
    assert not reports_match_up_to_switch(base, full_report(four_six(), "4_6"))


def test_odd_conjecture_experiment_reports_both_sides():
    sides = odd_conjecture_experiment(full_report(five_nineteen(), "5_19"))
    assert sides == {"lhs": 1, "rhs": 6, "diagram_crossings": 5}
    virt = odd_conjecture_experiment(full_report(parse_knotoid_code("Oa Ub Ua Ob ; a=+1 b=-1")))
    assert virt["lhs"] is None
    # a knot-type diagram that no certificate calls proper: lhs exceeds rhs, which
    # the sharpening, conjectured for proper knotoids only, does not forbid
    knot_type = full_report(parse_knotoid_code("Oc0 Uc1 Oc2 Uc0 Oc1 Uc2 ; c0=+1 c1=+1 c2=+1"))
    assert (str(knot_type.ch_plus), str(knot_type.ch_minus)) == ("1*<0>", "1*<0>")
    assert (knot_type.norm_sum, knot_type.crossing_lower_bound) == (2, 3)
    assert knot_type.properness == INCONCLUSIVE
    assert odd_conjecture_experiment(knot_type) == {"lhs": 3, "rhs": 2, "diagram_crossings": 3}


@given(code_strategy())
def test_pair_count_bounded_by_split(code):
    upper, lower = skew_pairs(code)
    n_plus = sum(1 for lab, (o, u) in code.positions().items() if o < u)
    n_minus = code.n_crossings - n_plus
    assert len(upper) + len(lower) <= n_plus * n_minus


def test_norm_inequality_on_random_realizable_codes():
    rng = random.Random(87)
    for _ in range(60):
        code = random_realizable_code(rng, rng.randrange(0, 8))
        r = full_report(code)
        n = code.n_crossings
        assert r.norm_sum <= n * n // 4


# --- catalog -----------------------------------------------------------------


def _write_catalog(tmp_path):
    (tmp_path / "2_1.knd").write_text("name 2_1\n" + TWO_ONE_TEXT + "\n")
    (tmp_path / "4_6.knd").write_text(FOUR_SIX_TEXT + "\n")
    (tmp_path / "more.knd").write_text(
        FIVE_NINETEEN_TEXT + "\n---\nname D_2\n" + serialize(generate_family(2)) + "\n"
    )
    return tmp_path


def test_load_catalog_names(tmp_path):
    entries = load_catalog(_write_catalog(tmp_path))
    assert [name for name, _ in entries] == ["2_1", "4_6", "more.0", "D_2"]


def test_evaluate_catalog_writes_reports(tmp_path):
    catalog = tmp_path / "codes"
    catalog.mkdir()
    _write_catalog(catalog)
    out = tmp_path / "reports"
    reports = evaluate_catalog(catalog, out)
    assert [r.name for r in reports] == ["2_1", "4_6", "more.0", "D_2"]
    payload = json.loads((out / "2_1.json").read_text())
    assert payload["c_plus"] == 1 and payload["ch_plus"] == "1*<1>"
    summary = (out / "summary.txt").read_text()
    assert "2_1" in summary and "1*<2>" in summary


def test_summary_table_layout():
    table = summary_table([full_report(two_one(), "2_1"), full_report(four_six(), "4_6")])
    lines = table.splitlines()
    assert lines[0].split() == ["name", "C+", "C-", "CH+", "CH-"]
    assert lines[2].split() == ["2_1", "1", "0", "1*<1>", "0"]
    assert lines[3].split() == ["4_6", "1", "0", "1*<2>", "0"]


def test_summary_table_of_no_reports_is_the_header_and_rule():
    assert summary_table([]) == "name  C+  C-  CH+  CH-\n----  --  --  ---  ---"


def test_summary_table_virtual_row_sets_the_ch_widths():
    virtual = full_report(parse_knotoid_code("Oa Ob Ua Ub ; a=+1 b=+1"), "v")
    assert summary_table([full_report(two_one(), "2_1"), virtual]) == (
        "name  C+  C-  CH+      CH-\n"
        "----  --  --  -------  -------\n"
        "2_1   1   0   1*<1>    0\n"
        "v     0   0   virtual  virtual"
    )


def test_catalog_rejects_multiknotoid_entries(tmp_path):
    (tmp_path / "bad.knd").write_text("segment: Ob\ncircle: Ub\n; b=+1\n")
    with pytest.raises(Exception):
        load_catalog(tmp_path)


def test_load_catalog_errors_name_file_and_block(tmp_path):
    path = tmp_path / "two.knd"
    path.write_text(TWO_ONE_TEXT + "\n---\nOa Ua Oa ; a=+1\n")
    with pytest.raises(CodeError, match=rf"^{re.escape(str(path))}: block 1: "):
        load_catalog(tmp_path)
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(CodeError, match=rf"^{re.escape(str(path))}: code text must be ASCII"):
        load_catalog(tmp_path)


def test_shipped_fixture_catalog(tmp_path):
    entries = dict(load_catalog(FIXTURES))
    assert {"2_1", "4_6", "5_19", "D_2", "D_3"} <= set(entries)
    assert entries["2_1"] == two_one()
    assert entries["D_2"] == generate_family(2)
    reports = evaluate_catalog(FIXTURES, tmp_path / "out")
    by_name = {r.name: r for r in reports}
    assert by_name["4_6"].ch_plus == cyc(2)
    assert by_name["D_3"].norm_sum == 9


def test_full_report_traces_the_faces_of_the_code_once(monkeypatch):
    traced = []
    trace_faces = planar.trace_faces
    monkeypatch.setattr(analysis, "trace_faces", lambda code: traced.append(code) or trace_faces(code))
    virtual = plant_bigon(four_six(), (0, 3), 1, True, True)
    for code in [*named_fixtures().values(), generate_family(5), virtual, parse_knotoid_code("")]:
        traced.clear()
        full_report(code)
        assert len(traced) == 1 and traced[0] is code


def test_a_second_report_of_a_code_traces_nothing(monkeypatch):
    traced, summed = [], []
    trace, accumulate = planar._trace, planar.accumulate
    monkeypatch.setattr(planar, "_trace", lambda code: traced.append(code) or trace(code))
    # the prefix sum of _loop_classes, its one call per computation of the classes
    monkeypatch.setattr(planar, "accumulate", lambda weights: summed.append(None) or accumulate(weights))
    for code in [*named_fixtures().values(), generate_family(5), parse_knotoid_code("")]:
        traced.clear()
        summed.clear()
        first = full_report(code)
        assert full_report(code) == first
        assert traced == [code] and summed == [None]
    # a virtual code is traced once and has no classes to compute
    traced.clear()
    summed.clear()
    virtual = plant_bigon(four_six(), (0, 3), 1, True, True)
    assert full_report(virtual) == full_report(virtual)
    assert traced == [virtual] and summed == []
