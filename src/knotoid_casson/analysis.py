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

import math
import os
from collections import namedtuple
from collections.abc import Iterable
from pathlib import Path

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
from .planar import _loop_classes, trace_faces
from .skew import CassonValues, _subgroup_sums

PROPER_BY_C = "ProperByC"
PROPER_BY_CH = "ProperByCH"
INCONCLUSIVE = "Inconclusive"

VIRTUAL = "virtual"


class InvariantReport(namedtuple("InvariantReport", "name c_plus c_minus ch_plus ch_minus norm_sum "
                                  "crossing_lower_bound properness diagram_crossings")):
    """``ch_plus`` and ``ch_minus`` are ModuleElements; they, ``norm_sum`` and
    ``crossing_lower_bound`` are None for a virtual code."""

    __slots__ = ()

    @property
    def is_virtual(self) -> bool:
        return self.ch_plus is None

    def to_json_dict(self) -> dict:
        d = self._asdict()  # the field order is the key order
        for key in ("ch_plus", "ch_minus"):
            d[key] = VIRTUAL if d[key] is None else str(d[key])
        return d


def crossing_lower_bound(ch_plus: ModuleElement, ch_minus: ModuleElement) -> int:
    """Least n >= 0 with floor(n^2/4) >= |ch_plus| + |ch_minus|."""
    return _bound_for_norm_sum(ch_plus.norm() + ch_minus.norm())


def _bound_for_norm_sum(norm_sum: int) -> int:
    # floor(n^2/4) >= t for an integer t >= 1 exactly when n^2 >= 4t, so n = ceil(sqrt(4t))
    return 0 if norm_sum == 0 else math.isqrt(4 * norm_sum - 1) + 1


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
    for side in (ch_plus, ch_minus):
        if [(sub.is_trivial, c) for sub, c in side.terms().items()] != expected:
            return PROPER_BY_CH
    return INCONCLUSIVE


def generate_family(j: int) -> KnotoidCode:
    """The 2j-crossing sharpness family member: all signs +1.

    The word interleaves over passes of odd crossings with under passes of
    even ones, then swaps the roles; j = 1 is the 2-crossing fixture.
    """
    if type(j) is not int:
        raise TypeError(f"a family index is an int, got {j!r}")
    if j < 1:
        raise ValueError("family index must be >= 1")
    labels = [f"x{i}" for i in range(1, 2 * j + 1)]
    half = [Item(UNDER if k % 2 else OVER, lab) for k, lab in enumerate(labels)]
    return KnotoidCode(half + [it.flipped() for it in half], dict.fromkeys(labels, 1))


def full_report(code: KnotoidCode, name: str = "") -> InvariantReport:
    """Every invariant of one code; homological fields absent when virtual.

    The face trace, the loop classes and the sweep all read the code's
    stored ``label_signs``.  ``C+``/``C-`` are the augmentations of
    ``CH+``/``CH-`` (every class 0 when virtual), so a report sweeps the skew
    pairs once.  The code keeps its faces and classes from its first report.
    """
    realizable = trace_faces(code).realizable
    classes = _loop_classes(code) if realizable else [0] * len(code.labels)
    plus, minus = _subgroup_sums(code, classes, code.label_signs)
    values = CassonValues(sum(plus.values()), sum(minus.values()))
    if not realizable:
        return InvariantReport(name, *values, None, None, None, None,
                               properness_certificate(values), code.n_crossings)
    ch_plus, ch_minus = ModuleElement._of(plus), ModuleElement._of(minus)
    norm_sum = sum(map(abs, plus.values())) + sum(map(abs, minus.values()))
    return InvariantReport(
        name, *values, ch_plus, ch_minus, norm_sum, _bound_for_norm_sum(norm_sum),
        properness_certificate(values, ch_plus, ch_minus), code.n_crossings,
    )


def reports_match_up_to_switch(a: InvariantReport, b: InvariantReport) -> bool:
    """Row equality modulo switching all crossings (plus/minus swap).

    Mirroring preserves all four values, so the swap is the only symmetry
    to quotient by when comparing against published rows.
    """
    row = (a.c_plus, a.c_minus, a.ch_plus, a.ch_minus)
    return (row == (b.c_plus, b.c_minus, b.ch_plus, b.ch_minus)
            or row == (b.c_minus, b.c_plus, b.ch_minus, b.ch_plus))


def odd_conjecture_experiment(report: InvariantReport) -> dict:
    """Both sides of the conjectured odd-crossing sharpening; never asserted.

    The sharpening, norm_sum + 1 <= floor(n^2/4) for odd n, is conjectured
    for proper knotoids only; ``lhs`` may exceed ``rhs`` on others, as on the
    knot-type diagram "Oc0 Uc1 Oc2 Uc0 Oc1 Uc2 ; c0=+1 c1=+1 c2=+1"
    (norm_sum 2, lhs 3, rhs 2, certificate Inconclusive).  Uses the
    diagram's crossing count for the right-hand side, which upper bounds
    the true crossing number.
    """
    n = report.diagram_crossings
    lhs = None if report.norm_sum is None else report.norm_sum + 1
    return {"lhs": lhs, "rhs": n * n // 4, "diagram_crossings": n}


# ---------------------------------------------------------------------------
# catalog handling


def read_code_file(path: str | Path) -> list[tuple[str, KnotoidCode]]:
    """The named knotoid codes of one file; every error, a multi-knotoid block
    included, names the file.  An unnamed block takes the file's stem, plus
    ``.<index>`` when the file holds several blocks."""
    try:
        blocks = read_code_blocks(Path(path).read_text())
    except UnicodeDecodeError as exc:
        raise CodeSyntaxError(f"{path}: code text must be ASCII") from exc
    except CodeError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    stem = Path(path).stem
    named = []
    for i, (name, code) in enumerate(blocks):
        if isinstance(code, MultiKnotoidCode):
            raise CodeError(f"{path}: block {i} is a multi-knotoid; a knotoid code is required")
        named.append((name or (stem if len(blocks) == 1 else f"{stem}.{i}"), code))
    return named


def _catalog_entries(directory: str | Path) -> list[tuple[str, str, KnotoidCode]]:
    """(where, name, code) per block of every code file in a directory (sorted).

    ``where`` is "<file>: block <index>"; parse errors carry the file path.
    """
    return [
        (f"{path}: block {i}", name, code)
        for path in sorted(Path(directory).iterdir()) if path.is_file()
        for i, (name, code) in enumerate(read_code_file(path))
    ]


def load_catalog(directory: str | Path) -> list[tuple[str, KnotoidCode]]:
    """Read every code file in a directory (sorted), naming unnamed blocks."""
    return [(name, code) for _, name, code in _catalog_entries(directory)]


def _check_report_names(entries: Iterable[tuple[str, str, KnotoidCode]]) -> None:
    """Each name must make its own file inside the output directory."""
    seen: dict[str, str] = {}
    for where, name, _ in entries:
        if name in ("", ".", "..") or "/" in name or "\\" in name or "\0" in name:
            raise CodeError(f"{where}: entry name {name!r} cannot name a report file")
        if name in seen:
            raise CodeError(f"{where}: entry name {name!r} repeats {seen[name]}")
        seen[name] = where


def summary_table(reports: Iterable[InvariantReport]) -> str:
    """Plain-text table with one row per entry: name, C+, C-, CH+, CH-."""
    rows = [("name", "C+", "C-", "CH+", "CH-")]
    for r in reports:
        d = r.to_json_dict()
        rows.append((d["name"], str(d["c_plus"]), str(d["c_minus"]), d["ch_plus"], d["ch_minus"]))
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    rows.insert(1, ["-" * w for w in widths])
    return "\n".join("  ".join(map(str.ljust, row, widths)).rstrip() for row in rows)


def evaluate_catalog(directory: str | Path, out_dir: str | Path) -> list[InvariantReport]:
    """Report every catalog entry, in catalog order.

    Writes ``<name>.json`` per entry plus ``summary.txt`` into ``out_dir``
    and returns the reports in catalog order.  ``out_dir`` must not be the
    catalog directory itself, whose every file is read as codes; this is
    checked before anything is read.  Entry names are checked before
    anything is written: a name that is empty, ``.``, ``..``, holds a path
    separator or a NUL byte, or repeats another raises ``CodeError``.  Every report and
    file text is ready before the first write; an ``OSError`` while writing,
    as from a symlink at a report path, removes the files this run wrote and
    propagates.
    """
    import json  # imported only where a report is serialized, not with the package

    out = Path(out_dir)
    if out.resolve() == Path(directory).resolve():
        raise CodeError(f"{out}: reports cannot go into the catalog directory itself")
    entries = _catalog_entries(directory)
    _check_report_names(entries)
    reports = [full_report(code, name) for _, name, code in entries]
    del entries  # the codes, and the shapes they keep, are not needed past their reports
    files = {out / f"{r.name}.json": json.dumps(r.to_json_dict(), indent=2) + "\n" for r in reports}
    files[out / "summary.txt"] = summary_table(reports) + "\n"
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    # a symlink at a report path is not followed: opening it raises OSError
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW
    try:
        for path, text in files.items():
            with open(os.open(path, flags, 0o666), "w") as f:
                # once opened, the file is truncated: its content is this run's
                written.append(path)
                f.write(text)
    except OSError:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return reports
