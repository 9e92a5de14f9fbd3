"""Checks of the program's outputs against the oracle's expected values.

Every function returns a list of error messages, empty when the output
passes.  Reports are checked in their JSON form (``to_json_dict()``).
Expected rows come from ``oracle`` or from ``expected.json``, where JSON
has turned the subgroup keys of formal sums into strings.
"""

from __future__ import annotations

import oracle
from inputs import PAPER_ROWS

FIELDS = (
    "name", "c_plus", "c_minus", "norm_sum", "crossing_lower_bound",
    "properness", "diagram_crossings",
)


def as_sum(value) -> dict[int, int] | None:
    """A formal sum as ``{g: coefficient}``, from a dict or printed text."""
    if value is None or value == oracle.VIRTUAL:
        return None
    if isinstance(value, str):
        return oracle.parse_sum(value)
    return {int(g): c for g, c in value.items()}


def _sums(report: dict) -> tuple[dict | None, dict | None]:
    return as_sum(report.get("ch_plus")), as_sum(report.get("ch_minus"))


def _errors(actual: dict, expected: dict, fields: tuple[str, ...]) -> list[str]:
    errors = [
        f"{key}: got {actual.get(key)!r}, expected {expected[key]!r}"
        for key in fields
        if actual.get(key) != expected[key]
    ]
    try:
        got = _sums(actual)
    except ValueError as exc:
        return errors + [str(exc)]
    for key, g in zip(("ch_plus", "ch_minus"), got):
        if g != as_sum(expected[key]):
            errors.append(f"{key}: got {actual.get(key)!r}, expected {as_sum(expected[key])!r}")
    return errors


def report_errors(actual: dict, expected: dict) -> list[str]:
    """Every field of a report against the expected row."""
    return _errors(actual, expected, FIELDS)


def invariant_errors(actual: dict, expected: dict) -> list[str]:
    """Only the four invariants, which every Reidemeister move preserves."""
    return _errors(actual, expected, ("c_plus", "c_minus"))


def property_errors(actual: dict) -> list[str]:
    """Relations every realizable report satisfies, whatever the code.

    Augmentation of CH+- is C+-, the norm sum is |CH+| + |CH-| and at most
    floor(n^2/4), the bound is the least n it allows, and the certificate
    follows its rule.
    """
    try:
        ch_plus, ch_minus = _sums(actual)
    except ValueError as exc:
        return [str(exc)]
    errors = []
    if ch_plus is None or ch_minus is None:
        return ["report is virtual"]
    if sum(ch_plus.values()) != actual["c_plus"] or sum(ch_minus.values()) != actual["c_minus"]:
        errors.append("augmentation of CH+- differs from C+-")
    norm_sum = oracle.norm(ch_plus) + oracle.norm(ch_minus)
    n = actual["diagram_crossings"]
    if actual["norm_sum"] != norm_sum:
        errors.append(f"norm_sum {actual['norm_sum']!r} is not |CH+| + |CH-| = {norm_sum}")
    if norm_sum > n * n // 4:
        errors.append(f"norm sum {norm_sum} exceeds floor(n^2/4) at n = {n}")
    if actual["crossing_lower_bound"] != oracle.crossing_bound(norm_sum):
        errors.append(f"crossing_lower_bound {actual['crossing_lower_bound']!r} is not least for {norm_sum}")
    rule = oracle.properness(actual["c_plus"], actual["c_minus"], ch_plus, ch_minus)
    if actual["properness"] != rule:
        errors.append(f"properness {actual['properness']!r} breaks its rule ({rule})")
    return errors


def paper_errors(actual: dict, table_name: str) -> list[str]:
    """The row of one of the paper's table knotoids, up to switching all crossings."""
    try:
        ch_plus, ch_minus = _sums(actual)
    except ValueError as exc:
        return [str(exc)]
    got = (actual["c_plus"], actual["c_minus"], ch_plus, ch_minus)
    c_plus, c_minus, t_plus, t_minus = PAPER_ROWS[table_name]
    if got in ((c_plus, c_minus, t_plus, t_minus), (c_minus, c_plus, t_minus, t_plus)):
        return []
    return [f"row {got!r} differs from the table's {table_name} row up to switch"]


def skein_errors(actual: dict, expected: dict | None) -> list[str]:
    """A skein report against the oracle's sides, or, without them, the identity."""
    if expected is None:
        holds = actual["lhs_plus"] == actual["rhs_plus"] and actual["lhs_minus"] == actual["rhs_minus"]
        if holds and actual["ok"] is True:
            return []
        return [f"skein identity fails or is misreported: {actual!r}"]
    return [
        f"skein {key}: got {actual.get(key)!r}, expected {want!r}"
        for key, want in expected.items()
        if actual.get(key) != want
    ]
