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

from math import gcd
from typing import Hashable, Iterator, Mapping, NamedTuple

from .codes import KnotoidCode
from .homology import HomologyClass, ModuleElement, Subgroup, as_class, hermite_normal_form

UPPER = "upper"
LOWER = "lower"


class SkewPair(NamedTuple):
    first: str
    second: str
    kind: str
    sign: int


class CassonValues(NamedTuple):
    c_plus: int
    c_minus: int


def skew_pairs(code: KnotoidCode) -> tuple[list[SkewPair], list[SkewPair]]:
    """All upper and lower skew pairs, ordered by their pattern positions."""
    pos, signs = code.positions(), code.signs
    upper: list[tuple[tuple[int, int], SkewPair]] = []
    lower: list[tuple[tuple[int, int], SkewPair]] = []
    for x, (xo, xu) in pos.items():
        for y, (yo, yu) in pos.items():  # both patterns are strict, so y == x never matches
            if xo < yu < xu < yo:
                upper.append(((xo, yu), SkewPair(x, y, UPPER, signs[x] * signs[y])))
            elif xu < yo < xo < yu:
                lower.append(((xu, yo), SkewPair(x, y, LOWER, signs[x] * signs[y])))
    upper.sort(key=lambda t: t[0])
    lower.sort(key=lambda t: t[0])
    return [p for _, p in upper], [p for _, p in lower]


def _skew_sums(
    code: KnotoidCode,
    keys: Mapping[str, Hashable],
    signs: Mapping[str, int],
) -> Iterator[tuple[int, Hashable, Hashable, int]]:
    """Sums of sign products over skew pairs, by kind and the keys of the two
    crossings: yields (lower, key of first, key of second, sum), ``lower``
    being 1 for lower pairs and 0 for upper ones, straight from the sweep.

    A crossing is a chord between its two passes; it is *over-first* when
    its over pass comes first in the word.  Every skew pair is one
    over-first and one under-first chord that interleave: upper when the
    over-first chord starts first, lower otherwise.  So one left-to-right
    walk finds every pair.  The open chords of each kind and key are two
    bitmasks of their start positions, for positive and negative chords.
    The open chords of the other kind that started inside a chord's span
    when it ends are the mask bits above its start: a shift and a popcount
    per mask, skipped when no chord of the other kind started inside it.
    O(n K) operations on integers of at most 2n bits for K distinct keys,
    over arrays built once per chord; labels without a key take no part,
    and ``signs`` are +1 or -1.  A sum may be 0.
    """
    ids: dict[Hashable, int] = {}
    # at each word position, the start of its chord (-1 for a crossing without
    # a key) and the chord's mask: 4 * key id + 2 * kind (1: under-first) + negative
    start_at = [-1] * len(code.word)
    mask_at = [0] * len(code.word)
    for label, over, under in zip(code.labels, code.over_pos, code.under_pos):
        if label in keys:
            kind = 1 if under < over else 0
            start_at[over] = start_at[under] = under if kind else over
            mask = 4 * ids.setdefault(keys[label], len(ids)) + 2 * kind + (signs[label] < 0)
            mask_at[over] = mask_at[under] = mask
    num_keys = len(ids)
    masks = [0] * (4 * num_keys)
    open_of_kind = [0, 0]  # every open chord of each kind, whatever its key and sign
    # the positive masks of the kind other than the index
    masks_of_other = (range(2, 4 * num_keys, 4), range(0, 4 * num_keys, 4))
    # (2 * key id + kind of the ending chord) * num_keys + key id of the other -> sum
    counts: dict[int, int] = {}
    for pos, (start, mask) in enumerate(zip(start_at, mask_at)):
        if start < 0:
            continue
        kind, bit = mask >> 1 & 1, 1 << start
        masks[mask] ^= bit  # opens the chord at its start, closes it at its end
        open_of_kind[kind] ^= bit
        if start == pos or not open_of_kind[1 - kind] >> start:
            continue
        sign, row = -1 if mask & 1 else 1, (mask >> 1) * num_keys
        for other in masks_of_other[kind]:
            count = (masks[other] >> start).bit_count() - (masks[other + 1] >> start).bit_count()
            if count:
                slot = row + (other >> 2)
                counts[slot] = counts.get(slot, 0) + sign * count
    key_of = list(ids)
    for slot, total in counts.items():
        row, other = divmod(slot, num_keys)
        # a chord that ends under-first closes a lower pair
        yield row & 1, key_of[row >> 1], key_of[other], total


def casson_pm(code: KnotoidCode) -> CassonValues:
    """Signed counts of upper/lower skew pairs.

    Defined for every valid code; spherical realizability is not required
    (virtual knotoid codes are legal inputs).
    """
    sums = [0, 0]
    for lower, _, _, total in _skew_sums(code, dict.fromkeys(code.signs), code.signs):
        sums[lower] += total
    return CassonValues(*sums)


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
        for _, first, second, _ in _skew_sums(code, missing, dict.fromkeys(code.signs, 1)):
            lab = first if first is not None else second
            if lab is not None:
                raise KeyError(f"no homology class for crossing {lab!r}")

    upper, lower = _subgroup_sums(code, normalized)
    return ModuleElement._of(upper), ModuleElement._of(lower)


def _subgroup_sums(
    code: KnotoidCode, classes: Mapping[str, HomologyClass]
) -> tuple[dict[Subgroup, int], dict[Subgroup, int]]:
    """The nonzero terms of CH+ and CH-, from one sweep.

    ``classes`` must already be tuples of one rank, as ``all_loop_classes``
    gives them; labels without a class take no part.  ``casson_homological``
    is this function behind its checks.
    """
    subgroups: dict[tuple[HomologyClass, HomologyClass], Subgroup] = {}
    terms: tuple[dict[Subgroup, int], dict[Subgroup, int]] = ({}, {})
    for lower, first, second, total in _skew_sums(code, classes, code.signs):
        sub = subgroups.get((first, second))
        if sub is None:
            sub = subgroups[first, second] = _pair_subgroup(first, second)
        side = terms[lower]
        side[sub] = side.get(sub, 0) + total
    # pairs of different classes may span one subgroup, and their sums cancel
    upper, lower = terms
    return {sub: c for sub, c in upper.items() if c}, {sub: c for sub, c in lower.items() if c}


def _pair_subgroup(first: HomologyClass, second: HomologyClass) -> Subgroup:
    """The subgroup generated by two classes of one rank.

    In rank 1 (the annulus of a realizable code) its canonical basis is the
    gcd: ``((g,),)``, or ``()`` when both classes are 0.
    """
    if len(first) == 1:
        g = gcd(first[0], second[0])
        return Subgroup(1, ((g,),) if g else ())
    return Subgroup(len(first), hermite_normal_form((first, second)))
