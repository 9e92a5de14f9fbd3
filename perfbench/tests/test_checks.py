"""The benchmark's own oracle and checks.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
Each check is shown to pass on a correct value and to reject a corrupted
one; the oracle is shown to agree with the paper's table, the closed forms
of the sharpness family and product additivity.
"""

import json
import random
from pathlib import Path

import pytest

import checks
import inputs
import oracle


def printed(row: dict) -> dict:
    """An oracle row in the program's JSON form (formal sums as text)."""
    def text(s):
        if s is None:
            return oracle.VIRTUAL
        if not s:
            return "0"
        return " + ".join(f"{c}*<{g}>" for g, c in sorted(s.items()))

    return dict(row, ch_plus=text(row["ch_plus"]), ch_minus=text(row["ch_minus"]))


def paper_row(name: str) -> dict:
    return oracle.invariants(oracle.parse_code(inputs.PAPER_TEXTS[name]), name)


# ---------------------------------------------------------------------------
# the oracle


def test_oracle_reproduces_the_paper_table():
    for name, (c_plus, c_minus, ch_plus, ch_minus) in inputs.PAPER_ROWS.items():
        row = paper_row(name)
        assert (row["c_plus"], row["c_minus"], row["ch_plus"], row["ch_minus"]) == (
            c_plus, c_minus, ch_plus, ch_minus)


@pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
def test_family_closed_forms_match_the_exhaustive_scan(j):
    code = oracle.family_code(j, [f"x{i}" for i in range(2 * j)])
    assert oracle.invariants(code, "D") == oracle.family_row(j, "D")
    assert oracle.family_row(j)["norm_sum"] == (2 * j) ** 2 // 4
    assert oracle.family_row(j)["crossing_lower_bound"] == 2 * j


def test_product_rows_add_up_and_products_stay_spherical():
    rng = random.Random(11)
    for _ in range(40):
        a = inputs.random_realizable(rng, rng.randint(1, 5), [f"a{i}" for i in range(5)])
        b = inputs.random_realizable(rng, rng.randint(1, 5), [f"b{i}" for i in range(5)])
        product = oracle.Code(a.word + b.word, {**a.signs, **b.signs})
        assert oracle.is_realizable(product)
        whole = oracle.invariants(product, "p")
        assert whole == oracle.product_row("p", [oracle.invariants(a), oracle.invariants(b)])


def test_switching_all_crossings_swaps_the_invariants():
    row = paper_row("4_6")
    switched = oracle.invariants(oracle.switch_all(oracle.parse_code(inputs.PAPER_TEXTS["4_6"])), "4_6")
    assert (switched["c_plus"], switched["ch_plus"]) == (row["c_minus"], row["ch_minus"])
    assert (switched["c_minus"], switched["ch_minus"]) == (row["c_plus"], row["ch_plus"])


def test_skein_sides_agree_on_random_codes():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        labels = [f"c{i}" for i in range(n)]
        items = [(oracle.OVER, lab) for lab in labels] + [(oracle.UNDER, lab) for lab in labels]
        rng.shuffle(items)
        code = oracle.Code(tuple(items), {lab: rng.choice((1, -1)) for lab in labels})
        assert oracle.skein_sides(code, rng.choice(labels))["ok"]


def test_crossing_bound_is_least():
    for norm_sum in range(200):
        n = oracle.crossing_bound(norm_sum)
        assert n * n // 4 >= norm_sum
        assert n == 0 or (n - 1) * (n - 1) // 4 < norm_sum


def test_parse_sum_reads_and_rejects():
    assert oracle.parse_sum("0") == {}
    assert oracle.parse_sum("-1*<0> + 2*<3>") == {0: -1, 3: 2}
    for bad in ("1*<1> + 1*<1>", "1<1>", "", "1*<-1>"):
        with pytest.raises(ValueError):
            oracle.parse_sum(bad)


def test_code_text_round_trips():
    text = inputs.PAPER_TEXTS["5_19"]
    assert oracle.code_text(oracle.parse_code(text)) == text


# ---------------------------------------------------------------------------
# each check passes a correct value and rejects a corrupted one


@pytest.mark.parametrize("field, bad", [
    ("c_plus", 2),
    ("c_minus", -1),
    ("ch_plus", "1*<3>"),
    ("ch_minus", "1*<0>"),
    ("norm_sum", 2),
    ("crossing_lower_bound", 3),
    ("properness", oracle.INCONCLUSIVE),
    ("diagram_crossings", 5),
    ("name", "4_7"),
    ("ch_plus", "1*<2> + x"),
])
def test_report_check_rejects_a_corrupted_field(field, bad):
    good = printed(paper_row("4_6"))
    assert checks.report_errors(good, paper_row("4_6")) == []
    assert checks.report_errors(dict(good, **{field: bad}), paper_row("4_6"))


def test_report_check_reads_expected_rows_from_json():
    row = paper_row("4_6")
    assert checks.report_errors(printed(row), json.loads(json.dumps(row))) == []


def test_invariant_check_ignores_size_and_name_but_not_invariants():
    row = paper_row("2_1")
    moved = dict(printed(row), name="other", diagram_crossings=9, norm_sum=1)
    assert checks.invariant_errors(moved, row) == []
    assert checks.invariant_errors(dict(moved, ch_plus="1*<2>"), row)
    assert checks.invariant_errors(dict(moved, c_minus=1), row)


@pytest.mark.parametrize("field, bad", [
    ("norm_sum", 3),
    ("crossing_lower_bound", 4),
    ("properness", oracle.PROPER_BY_CH),
    ("ch_plus", "2*<2>"),          # augmentation no longer equals C+
    ("diagram_crossings", 1),      # norm sum above floor(n^2/4)
    ("ch_minus", oracle.VIRTUAL),
])
def test_property_check_rejects_a_corrupted_field(field, bad):
    good = printed(paper_row("4_6"))
    assert checks.property_errors(good) == []
    assert checks.property_errors(dict(good, **{field: bad}))


def test_property_check_on_the_family():
    good = printed(oracle.family_row(6, "D_12"))
    assert checks.property_errors(good) == []
    assert checks.property_errors(dict(good, ch_minus="14*<1>"))


def test_paper_check_accepts_the_switched_row_only():
    row = printed(paper_row("2_1"))
    switched = dict(row, c_plus=0, c_minus=1, ch_plus="0", ch_minus="1*<1>")
    assert checks.paper_errors(row, "2_1") == []
    assert checks.paper_errors(switched, "2_1") == []
    assert checks.paper_errors(dict(row, ch_plus="1*<2>"), "2_1")
    assert checks.paper_errors(dict(switched, c_plus=1), "2_1")


def test_skein_check_against_the_oracle_and_the_identity():
    code = oracle.parse_code(inputs.PAPER_TEXTS["4_6"])
    sides = oracle.skein_sides(code, "c")
    assert checks.skein_errors(dict(sides), sides) == []
    assert checks.skein_errors(dict(sides, lhs_plus=sides["lhs_plus"] + 1), sides)
    assert checks.skein_errors(dict(sides, s1=-sides["s1"]), sides)
    assert checks.skein_errors(dict(sides), None) == []
    assert checks.skein_errors(dict(sides, ok=False), None)
    assert checks.skein_errors(dict(sides, rhs_minus=sides["rhs_minus"] + 1), None)


# ---------------------------------------------------------------------------
# checks that need the program


def test_enumeration_check_rejects_a_wrong_inverse(monkeypatch):
    import worker
    from knotoid_casson import parse_knotoid_code

    code = parse_knotoid_code(inputs.PAPER_TEXTS["2_1"])
    tally = worker.Tally()
    listed, _ = worker.check_enumeration(code, tally, "2_1")
    assert listed > 0 and (tally.attempted, tally.failed) == (1, 0)
    monkeypatch.setattr(worker, "inverse_move", lambda move: move)
    worker.check_enumeration(code, tally, "2_1")
    assert (tally.attempted, tally.failed) == (2, 1)


def test_paper_table_check_rejects_a_wrong_table_row(tmp_path):
    import worker

    inputs.generate("sharp_family", 3, tmp_path)
    plan = json.loads((tmp_path / "expected.json").read_text())
    assert [row["name"] for row in plan["paper"]] == [
        name + suffix for name in inputs.PAPER_TEXTS for suffix in ("", "_switched")]
    tally = worker.Tally()
    worker.check_paper_table(plan, tally)
    assert (tally.attempted, tally.failed) == (6, 0)
    plan["paper"][0]["table"] = "4_6"                      # 2_1 checked against 4_6's row
    plan["paper"][1]["skein"]["lhs_plus"] += 1             # a wrong skein side
    worker.check_paper_table(plan, tally)
    assert (tally.attempted, tally.failed) == (12, 2)


def test_setup_makes_every_launch_once(tmp_path, monkeypatch):
    import worker

    monkeypatch.setenv("PYTHONPATH", str(Path(__file__).resolve().parents[2] / "src"))
    (tmp_path / "a.knd").write_text(inputs.PAPER_TEXTS["2_1"] + "\n")
    setup = worker.SetUp(tmp_path, 0.0, 2)
    setup.due()                                             # both moments have passed
    assert len(setup.times) == 2
    assert setup.finish() > 0 and len(setup.times) == 2


def test_result_is_correct_only_without_failures():
    import run

    result = {"attempted": 4, "failed": 0, "errors": [], "metrics": {}}
    assert run.summary(result)["correct"] is True
    assert run.summary(dict(result, failed=1, errors=["x: wrong"])) == {
        "correct": False, "attempted": 4, "failed": 1, "metrics": {}}


def test_listing_count_sees_every_skew_pair_listing():
    import worker
    from knotoid_casson import parse_knotoid_code

    assert worker.count_listings(parse_knotoid_code(inputs.PAPER_TEXTS["2_1"])) >= 1


# ---------------------------------------------------------------------------
# inputs and the declared metrics


def test_inputs_are_seeded_and_sized(tmp_path):
    for workload in inputs.WORKLOADS:
        first, again, other = tmp_path / f"{workload}1", tmp_path / f"{workload}2", tmp_path / f"{workload}3"
        inputs.generate(workload, 7, first)
        inputs.generate(workload, 7, again)
        inputs.generate(workload, 8, other)
        texts = lambda d: [p.read_text() for p in sorted((d / "codes").iterdir())]
        assert texts(first) == texts(again) and texts(first) != texts(other)
        plan, other_plan = (json.loads((d / "expected.json").read_text()) for d in (first, other))
        sizes = [e["expected"]["diagram_crossings"] for e in plan["entries"]]
        assert sizes == [e["expected"]["diagram_crossings"] for e in other_plan["entries"]]
    products = json.loads((tmp_path / "product_chain1" / "expected.json").read_text())
    assert [e["expected"]["diagram_crossings"] for e in products["entries"]] == [
        n for n, count in inputs.PRODUCT_MIX for _ in range(count)]


def test_benchmark_json_names_what_the_runs_print():
    import run
    import worker

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(worker.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(worker.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"] and run.RUN_LIMIT_S < 180
