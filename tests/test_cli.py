"""Command-line interface behavior and exit codes."""

import json

import pytest

from knotoid_casson import cli
from knotoid_casson.analysis import generate_family
from knotoid_casson.cli import main
from knotoid_casson.codes import serialize
from knotoid_casson.moves import iter_walk
from support import FIVE_NINETEEN_TEXT, FOUR_SIX_TEXT, TWO_ONE_TEXT, five_nineteen


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


def test_skein_unknown_crossing_exit_1(two_one_file, capsys):
    assert main(["skein", two_one_file, "--crossing", "zz"]) == 1


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


@pytest.mark.parametrize("bad", ["../escaped", "sub/name", "back\\slash", ".", ".."])
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
    assert main(["batch", str(catalog), "--out", str(catalog)]) == 0
    capsys.readouterr()
    assert main(["batch", str(catalog), "--out", str(catalog)]) == 1
    assert f"error: {catalog / '2_1.json'}: block 0: " in capsys.readouterr().err
