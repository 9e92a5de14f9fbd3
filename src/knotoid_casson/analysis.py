"""Derived results: reports, crossing-number bound, properness, catalog handling.

The full report of a code gathers the integer invariants, the annulus
refinements (when the code is spherically realizable), the norm sum
|ch_plus| + |ch_minus|, the crossing-number lower bound it implies, and a
properness certificate.  Values for virtual codes degrade gracefully: the
homological fields are absent and only the integer-based certificate is
attempted.

A catalog is a directory of code files; evaluation writes one JSON report
per entry plus a plain-text summary table.  Published tables list values
only up to simultaneously switching all crossings, which permutes the
plus and minus invariants; ``reports_match_up_to_switch`` compares rows
modulo that symmetry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from .codes import (
    CodeError,
    CodeSyntaxError,
    KnotoidCode,
    MultiKnotoidCode,
    Item,
    OVER,
    UNDER,
    read_code_blocks,
)
from .homology import ModuleElement
from .planar import NonRealizableError, all_loop_classes
from .skew import CassonValues, casson_homological, casson_pm

PROPER_BY_C = "ProperByC"
PROPER_BY_CH = "ProperByCH"
INCONCLUSIVE = "Inconclusive"

VIRTUAL = "virtual"


@dataclass(frozen=True, eq=False)
class InvariantReport:
    name: str
    c_plus: int
    c_minus: int
    ch_plus: ModuleElement | None
    ch_minus: ModuleElement | None
    norm_sum: int | None
    crossing_lower_bound: int | None
    properness: str
    diagram_crossings: int

    @property
    def is_virtual(self) -> bool:
        return self.ch_plus is None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "c_plus": self.c_plus,
            "c_minus": self.c_minus,
            "ch_plus": VIRTUAL if self.ch_plus is None else str(self.ch_plus),
            "ch_minus": VIRTUAL if self.ch_minus is None else str(self.ch_minus),
            "norm_sum": self.norm_sum,
            "crossing_lower_bound": self.crossing_lower_bound,
            "properness": self.properness,
            "diagram_crossings": self.diagram_crossings,
        }


def crossing_lower_bound(ch_plus: ModuleElement, ch_minus: ModuleElement) -> int:
    """Least n >= 0 with floor(n^2/4) >= |ch_plus| + |ch_minus|."""
    target = ch_plus.norm() + ch_minus.norm()
    n = 0
    while n * n // 4 < target:
        n += 1
    return n


def properness_certificate(
    values: CassonValues,
    ch_plus: ModuleElement | None = None,
    ch_minus: ModuleElement | None = None,
) -> str:
    """Sufficient conditions for properness; Inconclusive proves nothing.

    The homological criterion compares each refinement against the integer
    value times the trivial subgroup; it is skipped for virtual codes
    (pass None for the refinements).
    """
    if values.c_plus != values.c_minus:
        return PROPER_BY_C
    if ch_plus is None or ch_minus is None:
        return INCONCLUSIVE
    # c_plus == c_minus here; c times <0> has one trivial term, or none when c is 0
    expected = [(True, values.c_plus)] if values.c_plus else []
    for elem in (ch_plus, ch_minus):
        if [(sub.is_trivial, c) for sub, c in elem] != expected:
            return PROPER_BY_CH
    return INCONCLUSIVE


def generate_family(j: int) -> KnotoidCode:
    """The 2j-crossing sharpness family member: all signs +1.

    The word interleaves over passes of odd crossings with under passes of
    even ones, then swaps the roles; j = 1 is the 2-crossing fixture.
    """
    if j < 1:
        raise ValueError("family index must be >= 1")
    labels = [f"x{i}" for i in range(1, 2 * j + 1)]
    word: list[Item] = []
    for i in range(j):
        word.append(Item(OVER, labels[2 * i]))
        word.append(Item(UNDER, labels[2 * i + 1]))
    for i in range(j):
        word.append(Item(UNDER, labels[2 * i]))
        word.append(Item(OVER, labels[2 * i + 1]))
    return KnotoidCode(tuple(word), {lab: 1 for lab in labels})


def full_report(code: KnotoidCode, name: str = "") -> InvariantReport:
    """Every invariant of one code; homological fields absent when virtual.

    A realizable code takes ``C+``/``C-`` as the augmentations of
    ``CH+``/``CH-``, so the skew pairs are swept once per report.
    """
    try:
        classes = all_loop_classes(code)
    except NonRealizableError:
        values = casson_pm(code)
        return InvariantReport(
            name=name,
            c_plus=values.c_plus,
            c_minus=values.c_minus,
            ch_plus=None,
            ch_minus=None,
            norm_sum=None,
            crossing_lower_bound=None,
            properness=properness_certificate(values),
            diagram_crossings=code.n_crossings,
        )
    ch_plus, ch_minus = casson_homological(code, classes)
    values = CassonValues(ch_plus.total_coefficient(), ch_minus.total_coefficient())
    return InvariantReport(
        name=name,
        c_plus=values.c_plus,
        c_minus=values.c_minus,
        ch_plus=ch_plus,
        ch_minus=ch_minus,
        norm_sum=ch_plus.norm() + ch_minus.norm(),
        crossing_lower_bound=crossing_lower_bound(ch_plus, ch_minus),
        properness=properness_certificate(values, ch_plus, ch_minus),
        diagram_crossings=code.n_crossings,
    )


def reports_match_up_to_switch(a: InvariantReport, b: InvariantReport) -> bool:
    """Row equality modulo switching all crossings (plus/minus swap).

    Mirroring preserves all four values, so the swap is the only symmetry
    to quotient by when comparing against published rows.
    """

    def row(r: InvariantReport):
        return (r.c_plus, r.c_minus, r.ch_plus, r.ch_minus)

    def swapped(r: InvariantReport):
        return (r.c_minus, r.c_plus, r.ch_minus, r.ch_plus)

    return row(a) == row(b) or row(a) == swapped(b)


def odd_conjecture_experiment(report: InvariantReport) -> dict:
    """Both sides of the conjectured odd-crossing sharpening; never asserted.

    Uses the diagram's crossing count for the right-hand side, which upper
    bounds the true crossing number.
    """
    n = report.diagram_crossings
    lhs = None if report.norm_sum is None else report.norm_sum + 1
    return {"lhs": lhs, "rhs": n * n // 4, "diagram_crossings": n}


# ---------------------------------------------------------------------------
# catalog handling


def read_code_file(
    path: Union[str, Path],
) -> list[tuple[str | None, Union[KnotoidCode, MultiKnotoidCode]]]:
    """The named blocks of one code file; every parse error names the file."""
    try:
        return read_code_blocks(Path(path).read_text())
    except UnicodeDecodeError as exc:
        raise CodeSyntaxError(f"{path}: code text must be ASCII") from exc
    except CodeError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _catalog_entries(directory: Union[str, Path]) -> list[tuple[str, str, KnotoidCode]]:
    """(where, name, code) per block of every code file in a directory (sorted).

    ``where`` is "<file>: block <index>"; parse errors carry the file path.
    """
    entries: list[tuple[str, str, KnotoidCode]] = []
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        blocks = read_code_file(path)
        for i, (name, code) in enumerate(blocks):
            where = f"{path}: block {i}"
            if isinstance(code, MultiKnotoidCode):
                raise CodeError(f"{where}: catalog entries must be knotoid codes")
            label = name or (path.stem if len(blocks) == 1 else f"{path.stem}.{i}")
            entries.append((where, label, code))
    return entries


def load_catalog(directory: Union[str, Path]) -> list[tuple[str, KnotoidCode]]:
    """Read every code file in a directory (sorted), naming unnamed blocks."""
    return [(name, code) for _, name, code in _catalog_entries(directory)]


def _check_report_names(entries: Iterable[tuple[str, str, KnotoidCode]]) -> None:
    """Each name must make its own file inside the output directory."""
    seen: dict[str, str] = {}
    for where, name, _ in entries:
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise CodeError(f"{where}: entry name {name!r} cannot name a report file")
        if name in seen:
            raise CodeError(f"{where}: entry name {name!r} repeats {seen[name]}")
        seen[name] = where


def summary_table(reports: Iterable[InvariantReport]) -> str:
    """Plain-text table with one row per entry: name, C+, C-, CH+, CH-."""
    rows = [("name", "C+", "C-", "CH+", "CH-")]
    for r in reports:
        rows.append((
            r.name,
            str(r.c_plus),
            str(r.c_minus),
            VIRTUAL if r.ch_plus is None else str(r.ch_plus),
            VIRTUAL if r.ch_minus is None else str(r.ch_minus),
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def evaluate_catalog(
    directory: Union[str, Path],
    out_dir: Union[str, Path],
) -> list[InvariantReport]:
    """Report every catalog entry, in catalog order.

    Writes ``<name>.json`` per entry plus ``summary.txt`` into ``out_dir``
    and returns the reports in catalog order.  Entry names are checked
    before anything is written: a name that is empty, ``.``, ``..``,
    holds a path separator, or repeats another raises ``CodeError``.
    """
    entries = _catalog_entries(directory)
    _check_report_names(entries)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    for _, name, code in entries:
        report = full_report(code, name)
        (out / f"{name}.json").write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
        reports.append(report)
    (out / "summary.txt").write_text(summary_table(reports) + "\n")
    return reports
