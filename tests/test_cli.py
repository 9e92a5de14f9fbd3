"""Command-line interface behavior and exit codes."""

import json
import tracemalloc

import pytest

from knotoid_casson import cli
from knotoid_casson.analysis import generate_family
from knotoid_casson.cli import main
from knotoid_casson.codes import serialize, switch_all
from knotoid_casson.moves import R1_INSERT, MoveInstance, iter_walk
from support import FIVE_NINETEEN_TEXT, FOUR_SIX_TEXT, TWO_ONE_TEXT, five_nineteen, two_one


@pytest.fixture
def two_one_file(tmp_path):
    path = tmp_path / "2_1.knd"
    path.write_text("name 2_1\n" + TWO_ONE_TEXT + "\n")
    return str(path)


@pytest.fixture
def virtual_file(tmp_path):
    path = tmp_path / "virtual.knd"
    path.write_text("Oa Ub Ua Ob ; a=+1 b=-1\n")
    return str(path)


def test_compute_text(two_one_file, capsys):
    assert main(["compute", two_one_file]) == 0
    out = capsys.readouterr().out
    assert "name: 2_1" in out
    assert "C+: 1" in out
    assert "C-: 0" in out
    assert "CH+: 1*<1>" in out
    assert "properness: ProperByC" in out


def test_compute_json(two_one_file, capsys):
    assert main(["compute", two_one_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "name": "2_1",
        "c_plus": 1,
        "c_minus": 0,
        "ch_plus": "1*<1>",
        "ch_minus": "0",
        "norm_sum": 1,
        "crossing_lower_bound": 2,
        "properness": "ProperByC",
        "diagram_crossings": 2,
    }


def test_compute_json_multiple_blocks(tmp_path, capsys):
    path = tmp_path / "pair.knd"
    path.write_text(TWO_ONE_TEXT + "\n---\n" + FOUR_SIX_TEXT + "\n")
    assert main(["compute", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["ch_plus"] for p in payload] == ["1*<1>", "1*<2>"]


def test_compute_virtual_report(virtual_file, capsys):
    assert main(["compute", virtual_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ch_plus"] == "virtual"
    assert payload["norm_sum"] is None


def test_compute_missing_file_exit_1(capsys):
    assert main(["compute", "no-such-file.knd"]) == 1
    assert "error:" in capsys.readouterr().err


def test_compute_invalid_content_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.knd"
    path.write_text("Oa Ua Oa ; a=+1\n")
    assert main(["compute", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_compute_bad_second_block_names_the_file(tmp_path, capsys):
    path = tmp_path / "bad.knd"
    path.write_text("name ok\n" + TWO_ONE_TEXT + "\n---\nname bad\nOa Ub Ua Ob ; a=+1 b=-2\n")
    assert main(["compute", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: block 1: bad sign token 'b=-2'\n"


def test_compute_non_utf8_file_exit_1(tmp_path, capsys):
    path = tmp_path / "latin1.knd"
    path.write_bytes(b"Oa Ua ; a=+1 \xff\n")
    assert main(["compute", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: code text must be ASCII\n"


def test_compute_directory_as_file_exit_1(tmp_path, capsys):
    assert main(["compute", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_compute_multiknotoid_block_exit_1(tmp_path, capsys):
    path = tmp_path / "mixed.knd"
    path.write_text(TWO_ONE_TEXT + "\n---\nsegment: Ob\ncircle: Ub\n; b=+1\n")
    assert main(["compute", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: block 1 is a multi-knotoid; a knotoid code is required\n"
    )


def test_compute_separator_only_file_exit_1(tmp_path, capsys):
    path = tmp_path / "empty.knd"
    path.write_text("---\n")
    assert main(["compute", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: no code blocks found\n"


def test_skein_single_crossing(two_one_file, capsys):
    assert main(["skein", two_one_file, "--crossing", "a"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["crossing"] == "a"
    assert payload["ok"] is True
    assert payload["s1"] == 1


def test_skein_all_crossings(two_one_file, capsys):
    assert main(["skein", two_one_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["crossing"] for p in payload] == ["a", "b"]
    assert all(p["ok"] for p in payload)


def test_skein_unknown_crossing_exit_1(tmp_path, capsys):
    # "c" is a crossing of the second block only: the error names the first
    path = tmp_path / "two.knd"
    path.write_text(f"name first\n{TWO_ONE_TEXT}\n---\nname second\n{FOUR_SIX_TEXT}\n")
    assert main(["skein", str(path), "--crossing", "c"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: first: no crossing 'c' in code\n"
    assert captured.out == ""


def test_family_prints_code(capsys):
    assert main(["family", "--j", "2"]) == 0
    assert capsys.readouterr().out.strip() == serialize(generate_family(2))


def test_family_rejects_bad_j(capsys):
    assert main(["family", "--j", "0"]) == 1


def test_bound(two_one_file, capsys):
    assert main(["bound", two_one_file]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_bound_odd_conjecture_flag(tmp_path, capsys):
    path = tmp_path / "5_19.knd"
    path.write_text(FIVE_NINETEEN_TEXT + "\n")
    assert main(["bound", str(path), "--odd-conjecture"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "0"
    assert "odd-conjecture lhs=1 rhs=6" in out


def test_bound_virtual_exit_1(virtual_file, capsys):
    assert main(["bound", virtual_file]) == 1


def test_check_moves_ok(two_one_file, capsys):
    assert main(["check-moves", two_one_file, "--steps", "6", "--trials", "3",
                 "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK 2_1")


def test_check_moves_virtual_exit_1(virtual_file, capsys):
    assert main(["check-moves", virtual_file, "--steps", "2", "--trials", "1"]) == 1
    assert capsys.readouterr().err == "error: virtual: move checking requires a realizable code\n"


def test_check_moves_failure_prints_the_steps_and_exits_2(two_one_file, monkeypatch, capsys):
    move = MoveInstance(R1_INSERT, gaps=(0,), labels=("k",), signs=(1,))

    def changing_walk(code, steps, seed):
        yield move, switch_all(code)

    monkeypatch.setattr(cli, "iter_walk", changing_walk)
    assert main(["check-moves", two_one_file, "--steps", "1", "--trials", "2", "--seed", "4"]) == 2
    switched = serialize(switch_all(two_one()))
    assert capsys.readouterr().out == (
        "FAIL 2_1: invariants changed (seed 4)\n"
        f"  step 0: R1Insert gaps=(0,) positions=() labels=('k',) -> {switched}\n"
    )


def test_check_moves_failure_replays_the_walk_up_to_the_failing_step(two_one_file, monkeypatch, capsys):
    moves = [MoveInstance(R1_INSERT, gaps=(i,), labels=(f"k{i}",), signs=(1,)) for i in range(4)]
    calls = []

    def changing_walk(code, steps, seed):
        calls.append((code, steps, seed))
        yield moves[0], code
        yield moves[1], code
        yield moves[2], switch_all(code)  # the row changes here, at step 2
        yield moves[3], code

    monkeypatch.setattr(cli, "iter_walk", changing_walk)
    assert main(["check-moves", two_one_file, "--steps", "5", "--trials", "1", "--seed", "4"]) == 2
    # the walk and its replay, with the same arguments
    assert calls == [(two_one(), 5, 4)] * 2
    same, switched = serialize(two_one()), serialize(switch_all(two_one()))
    assert capsys.readouterr().out == (
        "FAIL 2_1: invariants changed (seed 4)\n"
        f"  step 0: R1Insert gaps=(0,) positions=() labels=('k0',) -> {same}\n"
        f"  step 1: R1Insert gaps=(1,) positions=() labels=('k1',) -> {same}\n"
        f"  step 2: R1Insert gaps=(2,) positions=() labels=('k2',) -> {switched}\n"
    )


def test_check_moves_memory_does_not_grow_with_steps(tmp_path, capsys):
    path = tmp_path / "5_19.knd"
    path.write_text("name 5_19\n" + FIVE_NINETEEN_TEXT + "\n")
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert main(["check-moves", str(path), "--steps", "4000", "--trials", "1"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "1 walk(s), 3992 of 4000 step(s) performed" in capsys.readouterr().out
    # a code reached is dropped once checked: a kept walk would hold about 1.4 KB a step
    assert peak - before < 1_000_000


def test_batch_and_catalog_summary(tmp_path, capsys):
    catalog = tmp_path / "codes"
    catalog.mkdir()
    (catalog / "2_1.knd").write_text("name 2_1\n" + TWO_ONE_TEXT + "\n")
    (catalog / "4_6.knd").write_text("name 4_6\n" + FOUR_SIX_TEXT + "\n")
    out_dir = tmp_path / "reports"

    assert main(["batch", str(catalog), "--out", str(out_dir)]) == 0
    assert (out_dir / "2_1.json").exists()
    assert (out_dir / "4_6.json").exists()
    assert (out_dir / "summary.txt").exists()
    capsys.readouterr()

    assert main(["catalog-summary", str(catalog)]) == 0
    table = capsys.readouterr().out
    assert "2_1" in table and "4_6" in table and "1*<2>" in table


def test_json_output_stable(two_one_file, capsys):
    assert main(["compute", two_one_file, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["compute", two_one_file, "--json"]) == 0
    assert capsys.readouterr().out == first


def test_check_moves_reports_performed_steps(tmp_path, capsys):
    path = tmp_path / "5_19.knd"
    path.write_text("name 5_19\n" + FIVE_NINETEEN_TEXT + "\n")
    performed = sum(1 for seed in range(20) for _ in iter_walk(five_nineteen(), 30, seed))
    assert performed == 592
    assert main(["check-moves", str(path), "--trials", "20", "--seed", "0"]) == 0
    assert "20 walk(s), 592 of 600 step(s) performed" in capsys.readouterr().out


def test_internal_key_error_exit_2(two_one_file, monkeypatch, capsys):
    def broken(code, name=""):
        raise KeyError("library bug")

    monkeypatch.setattr(cli, "full_report", broken)
    assert main(["compute", two_one_file]) == 2
    assert "internal error" in capsys.readouterr().err


def _files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*"))


@pytest.mark.parametrize("bad", ["../escaped", "sub/name", "back\\slash", ".", "..", "a\x00b"])
def test_batch_rejects_unsafe_entry_name(tmp_path, capsys, bad):
    catalog = tmp_path / "codes"
    catalog.mkdir()
    (catalog / "c.knd").write_text(
        "name ok\n" + TWO_ONE_TEXT + "\n---\nname " + bad + "\n" + FOUR_SIX_TEXT + "\n"
    )
    before = _files(tmp_path)
    assert main(["batch", str(catalog), "--out", str(tmp_path / "reports")]) == 1
    assert _files(tmp_path) == before
    err = capsys.readouterr().err
    assert f"{catalog / 'c.knd'}: block 1: entry name {bad!r}" in err


def test_batch_rejects_duplicate_entry_names(tmp_path, capsys):
    catalog = tmp_path / "codes"
    catalog.mkdir()
    (catalog / "a.knd").write_text("name dup\n" + TWO_ONE_TEXT + "\n")
    (catalog / "b.knd").write_text("name dup\n" + FOUR_SIX_TEXT + "\n")
    before = _files(tmp_path)
    assert main(["batch", str(catalog), "--out", str(tmp_path / "reports")]) == 1
    assert _files(tmp_path) == before
    err = capsys.readouterr().err
    assert f"{catalog / 'b.knd'}: block 0: entry name 'dup' repeats {catalog / 'a.knd'}: block 0" in err


def test_batch_into_its_own_catalog_names_the_file(tmp_path, capsys):
    catalog = tmp_path / "codes"
    catalog.mkdir()
    (catalog / "2_1.knd").write_text("name 2_1\n" + TWO_ONE_TEXT + "\n")
    before = {p: p.read_bytes() for p in catalog.iterdir()}
    for out in (catalog, catalog / "sub" / ".."):
        assert main(["batch", str(catalog), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {out}: reports cannot go into the catalog directory itself\n"
        assert {p: p.read_bytes() for p in catalog.iterdir()} == before


def test_batch_out_naming_an_existing_file_exits_1(tmp_path, capsys):
    catalog = tmp_path / "codes"
    catalog.mkdir()
    (catalog / "2_1.knd").write_text("name 2_1\n" + TWO_ONE_TEXT + "\n")
    out = catalog / "2_1.knd"
    before, text = _files(tmp_path), out.read_bytes()
    assert main(["batch", str(catalog), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert _files(tmp_path) == before and out.read_bytes() == text


def test_batch_into_a_subdirectory_of_its_catalog_runs_twice(tmp_path, capsys):
    catalog = tmp_path / "codes"
    catalog.mkdir()
    (catalog / "2_1.knd").write_text("name 2_1\n" + TWO_ONE_TEXT + "\n")
    out_dir = catalog / "reports"
    for _ in range(2):
        assert main(["batch", str(catalog), "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out.startswith("wrote 1 report(s)")
    assert sorted(p.name for p in out_dir.iterdir()) == ["2_1.json", "summary.txt"]


@pytest.mark.parametrize("report", ["2_1.json", "summary.txt"])
def test_batch_refuses_a_symlink_at_a_report_path(tmp_path, capsys, report):
    catalog = tmp_path / "codes"
    catalog.mkdir()
    (catalog / "2_1.knd").write_text("name 2_1\n" + TWO_ONE_TEXT + "\n")
    (tmp_path / "elsewhere").mkdir()
    victim = tmp_path / "elsewhere" / "victim.txt"
    victim.write_text("kept\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / report).symlink_to("../elsewhere/victim.txt")
    assert main(["batch", str(catalog), "--out", str(out)]) == 1
    assert str(out / report) in capsys.readouterr().err
    assert victim.read_text() == "kept\n"
    assert [p.name for p in out.iterdir()] == [report] and (out / report).is_symlink()


@pytest.mark.parametrize("flag", ["--steps", "--trials"])
def test_check_moves_rejects_a_negative_count(two_one_file, capsys, flag):
    assert main(["check-moves", two_one_file, flag, "-2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be >= 0\n"


def test_check_moves_runs_zero_steps_and_zero_trials(two_one_file, capsys):
    assert main(["check-moves", two_one_file, "--steps", "0", "--trials", "2"]) == 0
    assert "2 walk(s), 0 of 0 step(s) performed" in capsys.readouterr().out
    assert main(["check-moves", two_one_file, "--trials", "0"]) == 0
    assert "0 walk(s), 0 of 0 step(s) performed" in capsys.readouterr().out


def test_batch_write_error_leaves_no_partial_output(tmp_path, capsys):
    catalog = tmp_path / "codes"
    catalog.mkdir()
    (catalog / "a.knd").write_text("name a\n" + TWO_ONE_TEXT + "\n")
    # a legal entry name, but too long for a file name
    (catalog / "b.knd").write_text("name " + "b" * 300 + "\n" + FOUR_SIX_TEXT + "\n")
    out = tmp_path / "reports"
    assert main(["batch", str(catalog), "--out", str(out)]) == 1
    assert "File name too long" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_batch_write_error_keeps_files_it_did_not_write(tmp_path, capsys):
    catalog = tmp_path / "codes"
    catalog.mkdir()
    (catalog / "a.knd").write_text("name a\n" + TWO_ONE_TEXT + "\n")
    out = tmp_path / "reports"
    out.mkdir()
    (out / "old.txt").write_text("kept\n")
    (out / "summary.txt").mkdir()  # opening it for writing fails
    assert main(["batch", str(catalog), "--out", str(out)]) == 1
    assert "summary.txt" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["old.txt", "summary.txt"]
    assert (out / "old.txt").read_text() == "kept\n"


def test_commands_and_catalog_name_unnamed_blocks_alike(tmp_path, capsys):
    (tmp_path / "two.knd").write_text(TWO_ONE_TEXT + "\n---\n" + FOUR_SIX_TEXT + "\n")
    (tmp_path / "one.knd").write_text(FIVE_NINETEEN_TEXT + "\n")
    assert main(["compute", str(tmp_path / "two.knd")]) == 0
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("name: ")] == [
        "name: two.0", "name: two.1",
    ]
    assert main(["compute", str(tmp_path / "one.knd"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "one"
    assert main(["catalog-summary", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["one", "two.0", "two.1"]


def test_commands_and_catalog_refuse_a_multiknotoid_block_alike(tmp_path, capsys):
    path = tmp_path / "mixed.knd"
    path.write_text("segment: Ob\ncircle: Ub\n; b=+1\n")
    message = f"error: {path}: block 0 is a multi-knotoid; a knotoid code is required\n"
    for argv in (["compute", str(path)], ["bound", str(path)], ["catalog-summary", str(tmp_path)],
                 ["batch", str(tmp_path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 1
        assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()
