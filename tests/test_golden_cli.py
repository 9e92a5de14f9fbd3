"""CLI output on the shipped fixtures, compared byte for byte with stored copies.

Every case runs one subcommand in process on a file of ``fixtures/`` or on
``golden/virtual.knd`` and compares its exit status, stdout and stderr with
``golden/<case>.txt``; the ``batch`` case also compares every file it
writes with ``golden/batch/``.  After a deliberate change of output,
rewrite the stored copies with ``PYTHONPATH=src python tests/test_golden_cli.py``
and review the diff.
"""

from __future__ import annotations

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from knotoid_casson.cli import main
from support import FIXTURES

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = sorted(FIXTURES.glob("*.knd")) + [GOLDEN / "virtual.knd"]

PER_FILE = {
    "compute": ["compute"],
    "compute-json": ["compute", "--json"],
    "bound": ["bound", "--odd-conjecture"],
    "skein": ["skein"],
    "check-moves": ["check-moves", "--trials", "3", "--steps", "10"],
}

CASES = {
    f"{command}__{path.stem}": [args[0], str(path), *args[1:]]
    for path in INPUTS
    for command, args in PER_FILE.items()
}
CASES["catalog-summary__fixtures"] = ["catalog-summary", str(FIXTURES)]


def run_cli(argv: list[str]) -> str:
    """Exit status, stdout and stderr of one CLI call, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    return f"exit {status}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def run_batch(out_dir: Path) -> tuple[str, dict[str, str]]:
    """The batch record (output directory shown as <out>) and every file written."""
    record = run_cli(["batch", str(FIXTURES), "--out", str(out_dir)])
    files = {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
    return record.replace(str(out_dir), "<out>"), files


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    assert run_cli(CASES[case]) == (GOLDEN / f"{case}.txt").read_text()


def test_batch_output_matches_golden(tmp_path):
    record, files = run_batch(tmp_path / "reports")
    assert record == (GOLDEN / "batch__fixtures.txt").read_text()
    expected = {p.name: p.read_text() for p in sorted((GOLDEN / "batch").iterdir())}
    assert files == expected


def write_golden() -> None:
    for case, argv in CASES.items():
        (GOLDEN / f"{case}.txt").write_text(run_cli(argv))
    with tempfile.TemporaryDirectory() as tmp:
        record, files = run_batch(Path(tmp) / "reports")
    (GOLDEN / "batch__fixtures.txt").write_text(record)
    batch_dir = GOLDEN / "batch"
    batch_dir.mkdir(exist_ok=True)
    for old in batch_dir.iterdir():
        old.unlink()
    for name, text in files.items():
        (batch_dir / name).write_text(text)


if __name__ == "__main__":
    write_golden()
