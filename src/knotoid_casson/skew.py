"""Skew pairs of crossings and the Casson-type counts they define.

An ordered crossing pair (x, y) is an *upper* skew pair when the four
passes interleave as x_over < y_under < x_under < y_over in the word, and
a *lower* skew pair when x_under < y_over < x_over < y_under.  The pair
sign is sign(x)*sign(y).  Summing pair signs over the upper (resp. lower)
pairs gives the integer invariants c_plus and c_minus; attaching to each
pair the subgroup generated by the loop classes of its two crossings and
summing formally gives the homological refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, NamedTuple

from .codes import OVER, KnotoidCode
from .homology import (
    HomologyClass,
    ModuleElement,
    Subgroup,
    as_class,
    subgroup_from_generators,
)

UPPER = "upper"
LOWER = "lower"


@dataclass(frozen=True)
class SkewPair:
    first: str
    second: str
    kind: str
    sign: int


class CassonValues(NamedTuple):
    c_plus: int
    c_minus: int


def skew_pairs(code: KnotoidCode) -> tuple[list[SkewPair], list[SkewPair]]:
    """All upper and lower skew pairs, ordered by their pattern positions."""
    pos = code.positions()
    upper: list[tuple[tuple[int, int], SkewPair]] = []
    lower: list[tuple[tuple[int, int], SkewPair]] = []
    for x, (xo, xu) in pos.items():
        for y, (yo, yu) in pos.items():
            if x == y:
                continue
            s = code.signs[x] * code.signs[y]
            if xo < yu < xu < yo:
                upper.append(((xo, yu), SkewPair(x, y, UPPER, s)))
            elif xu < yo < xo < yu:
                lower.append(((xu, yo), SkewPair(x, y, LOWER, s)))
    upper.sort(key=lambda t: t[0])
    lower.sort(key=lambda t: t[0])
    return [p for _, p in upper], [p for _, p in lower]


def _skew_sums(
    code: KnotoidCode,
    keys: Mapping[str, Hashable],
    signs: Mapping[str, int],
) -> dict[tuple[str, Hashable, Hashable], int]:
    """Sums of sign products over skew pairs, by (kind, key of first, key of second).

    A crossing is a chord between its two passes; it is *over-first* when
    its over pass comes first in the word.  Every skew pair is one
    over-first and one under-first chord that interleave: upper when the
    over-first chord starts first, lower otherwise.  Chords of one kind are
    never skew.  So one left-to-right walk finds every pair.  The open
    chords of each kind and key are two bitmasks of their start positions,
    one for positive and one for negative chords.  Every chord open at a
    chord's end started before it, so the open chords of the other kind
    that started inside its span are the mask bits above its start: a
    shift and a popcount per mask.  O(n K) operations on integers of at
    most 2n bits for K distinct keys; labels without a key take no part.
    """
    begins: dict[str, int] = {}
    # open chords by kind (0: over-first, 1: under-first), then by key: [plus, minus]
    masks: tuple[dict[Hashable, list[int]], dict[Hashable, list[int]]] = ({}, {})
    sums: dict[tuple[str, Hashable, Hashable], int] = {}
    for pos, item in enumerate(code.word):
        label = item.label
        if label not in keys:
            continue
        key, sign = keys[label], signs[label]
        begin = begins.pop(label, None)
        if begin is None:
            begins[label] = pos
            by_key = masks[item.kind != OVER]
            if key not in by_key:
                by_key[key] = [0, 0]
            by_key[key][sign < 0] |= 1 << pos
            continue
        # a chord that ends on its over pass is under-first
        kind = item.kind == OVER
        masks[kind][key][sign < 0] ^= 1 << begin
        pair_kind = LOWER if kind else UPPER
        for other_key, (plus, minus) in masks[not kind].items():
            count = (plus >> begin).bit_count() - (minus >> begin).bit_count()
            if count:
                slot = (pair_kind, key, other_key)
                sums[slot] = sums.get(slot, 0) + sign * count
    return sums


def casson_pm(code: KnotoidCode) -> CassonValues:
    """Signed counts of upper/lower skew pairs.

    Defined for every valid code; spherical realizability is not required
    (virtual knotoid codes are legal inputs).
    """
    sums = _skew_sums(code, dict.fromkeys(code.signs), code.signs)
    return CassonValues(sums.get((UPPER, None, None), 0), sums.get((LOWER, None, None), 0))


def casson_homological(
    code: KnotoidCode,
    classes: Mapping[str, "int | HomologyClass"],
) -> tuple[ModuleElement, ModuleElement]:
    """Formal sums, over skew pairs, of the subgroups spanned by loop classes.

    ``classes`` maps each crossing label occurring in some skew pair to the
    homology class of its loop; all classes must have equal rank.  The
    result pair refines (c_plus, c_minus): summing coefficients of either
    element recovers the corresponding integer count.
    """
    normalized: dict[str, HomologyClass] = {}
    rank: int | None = None
    for lab, value in classes.items():
        vec = as_class(value)
        if rank is None:
            rank = len(vec)
        elif len(vec) != rank:
            raise ValueError(f"homology class of {lab!r} has rank {len(vec)}, expected {rank}")
        normalized[lab] = vec

    if any(lab not in normalized for lab in code.signs):
        # unsigned counts, so that pairs whose signs cancel still count
        missing = {lab: lab if lab not in normalized else None for lab in code.signs}
        for _, first, second in _skew_sums(code, missing, dict.fromkeys(code.signs, 1)):
            lab = first if first is not None else second
            if lab is not None:
                raise KeyError(f"no homology class for crossing {lab!r}")

    subgroups: dict[tuple[HomologyClass, HomologyClass], Subgroup] = {}
    terms: dict[str, dict[Subgroup, int]] = {UPPER: {}, LOWER: {}}
    for (kind, first, second), count in _skew_sums(code, normalized, code.signs).items():
        if (first, second) not in subgroups:
            subgroups[first, second] = subgroup_from_generators(first, second)
        sub = subgroups[first, second]
        terms[kind][sub] = terms[kind].get(sub, 0) + count
    return ModuleElement(terms[UPPER]), ModuleElement(terms[LOWER])
