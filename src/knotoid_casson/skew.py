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

from collections import namedtuple
from collections.abc import Hashable, Iterator, Mapping, Sequence
from math import gcd

from .codes import KnotoidCode
from .homology import HomologyClass, ModuleElement, Subgroup, as_class, hermite_normal_form

UPPER = "upper"
LOWER = "lower"


# kind is UPPER or LOWER; sign is the product of the two crossing signs
SkewPair = namedtuple("SkewPair", "first second kind sign")
CassonValues = namedtuple("CassonValues", "c_plus c_minus")


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
    code: KnotoidCode, keys: Sequence[Hashable], signs: Sequence[int]
) -> Iterator[tuple[int, Hashable, Hashable, int]]:
    """Sums of sign products over skew pairs, by kind and the keys of the two
    crossings: yields (lower, key of first, key of second, sum), ``lower``
    being 1 for lower pairs and 0 for upper ones, for every nonzero sum.
    ``keys`` and ``signs`` (+1 or -1) follow ``code.labels``; a label whose
    key is None takes no part.

    A crossing is a chord between its two passes; it is *over-first* when
    its over pass comes first in the word.  Every skew pair is one
    over-first and one under-first chord that interleave: upper when the
    over-first chord starts first, lower otherwise.  So one left-to-right
    walk finds every pair.  The open chords of each kind and key are two
    bitmasks of their start positions, for positive and negative chords.
    The open chords of the other kind that started inside a chord's span
    when it ends are the mask bits above its start: a shift and a popcount
    per mask, skipped when no chord of the other kind started inside it.
    Bits count from the last chord start with no chord open, so a mask is
    no wider than the current run of overlapping chords: 2f bits on a
    product of factors of at most f crossings.  O(n K) operations for K
    distinct keys, summed into 2 * K * K slots.
    """
    ids: dict[Hashable, int] = {}
    # at each word position, the start of its chord (-1 for a crossing that takes
    # no part) and the chord's mask: 4 * key id + 2 * kind (1: under-first) + negative
    start_at = [-1] * len(code.word)
    mask_at = [0] * len(code.word)
    for key, sign, over, under in zip(keys, signs, code.over_pos, code.under_pos):
        if key is not None:
            mask = 4 * ids.setdefault(key, len(ids)) + (sign < 0)
            if under < over:
                start_at[over] = start_at[under] = under
                mask_at[over] = mask_at[under] = mask + 2
            else:
                start_at[over] = start_at[under] = over
                mask_at[over] = mask_at[under] = mask
    num_keys = len(ids)
    masks = [0] * (4 * num_keys)
    open_of_kind = [0, 0]  # every open chord of each kind, whatever its key and sign
    # the positive masks of the kind other than the index
    masks_of_other = (range(2, 4 * num_keys, 4), range(0, 4 * num_keys, 4))
    # slot (2 * key id + kind of the ending chord) * num_keys + key id of the other -> sum
    counts = [0] * (2 * num_keys * num_keys)
    base = 0  # the bit origin: every open chord started there or later
    for pos, (start, mask) in enumerate(zip(start_at, mask_at)):
        if start == pos:  # a chord opens
            if not (open_of_kind[0] or open_of_kind[1]):
                base = pos
            bit = 1 << (pos - base)
            masks[mask] ^= bit
            open_of_kind[mask >> 1 & 1] ^= bit
        elif start >= 0:  # a chord closes
            kind, shift = mask >> 1 & 1, start - base
            bit = 1 << shift
            masks[mask] ^= bit
            open_of_kind[kind] ^= bit
            if open_of_kind[1 - kind] >> shift:
                sign, row = -1 if mask & 1 else 1, (mask >> 1) * num_keys
                for other in masks_of_other[kind]:
                    count = (masks[other] >> shift).bit_count() - (masks[other + 1] >> shift).bit_count()
                    if count:
                        counts[row + (other >> 2)] += sign * count
    key_of = list(ids)
    for slot, total in enumerate(counts):
        if total:
            row, other = divmod(slot, num_keys)
            # a chord that ends under-first closes a lower pair
            yield row & 1, key_of[row >> 1], key_of[other], total


def casson_pm(code: KnotoidCode) -> CassonValues:
    """Signed counts of upper/lower skew pairs.

    Defined for every valid code; spherical realizability is not required
    (virtual knotoid codes are legal inputs).
    """
    # every class 0: the augmentations of the sums are the counts
    upper, lower = _subgroup_sums(code, [0] * len(code.labels))
    return CassonValues(sum(upper.values()), sum(lower.values()))


def casson_homological(
    code: KnotoidCode,
    classes: Mapping[str, int | HomologyClass],
) -> tuple[ModuleElement, ModuleElement]:
    """Formal sums, over skew pairs, of the subgroups spanned by loop classes.

    ``classes`` maps each crossing label occurring in some skew pair to the
    homology class of its loop; all classes must have equal rank.  The
    result pair refines (c_plus, c_minus): summing coefficients of either
    element recovers the corresponding integer count.
    """
    normalized: dict[str, int | HomologyClass] = {}
    rank: int | None = None
    for lab, value in classes.items():
        vec = as_class(value)
        if rank is None:
            rank = len(vec)
        elif len(vec) != rank:
            raise ValueError(f"homology class of {lab!r} has rank {len(vec)}, expected {rank}")
        normalized[lab] = vec[0] if rank == 1 else vec  # the sweep keys rank 1 by ints

    keys = [normalized.get(lab) for lab in code.labels]
    if None in keys:
        # unsigned counts, so that pairs whose signs cancel still count
        known = [key is not None for key in keys]
        if not all(a and b for _, a, b, _ in _skew_sums(code, known, [1] * len(keys))):
            # name the crossing a left-to-right sweep meets first: the first pair to
            # close, then the partner that starts first
            pos = code.positions()
            unclassed = [p for side in skew_pairs(code) for p in side
                         if p.first not in normalized or p.second not in normalized]
            p = min(unclassed, key=lambda p: (max(pos[p.first]), min(pos[p.second])))
            lab = p.first if p.first not in normalized else p.second
            raise KeyError(f"no homology class for crossing {lab!r}")
    upper, lower = _subgroup_sums(code, keys)
    return ModuleElement._of(upper), ModuleElement._of(lower)


def _subgroup_sums(
    code: KnotoidCode, classes: Sequence[int | HomologyClass | None]
) -> tuple[dict[Subgroup, int], dict[Subgroup, int]]:
    """The nonzero terms of CH+ and CH-, from one sweep weighted by
    ``code.label_signs``.

    ``classes`` follows ``code.labels``: classes of rank 1 as ints (as
    ``planar._loop_classes`` gives them), of a higher rank as tuples of that
    rank, and None for labels that take no part.  ``casson_homological`` is
    this function behind its checks.
    """
    terms: tuple[dict[Subgroup, int], dict[Subgroup, int]] = ({}, {})
    for lower, first, second, total in _skew_sums(code, classes, code.label_signs):
        sub = _pair_subgroup(first, second)
        side = terms[lower]
        side[sub] = side.get(sub, 0) + total
    # pairs of different classes may span one subgroup, and their sums cancel
    upper, lower = terms
    return {sub: c for sub, c in upper.items() if c}, {sub: c for sub, c in lower.items() if c}


def _pair_subgroup(first: int | HomologyClass, second: int | HomologyClass) -> Subgroup:
    """The subgroup generated by two classes of one rank.

    In rank 1 (the annulus of a realizable code) the classes are ints and
    the canonical basis is their gcd: ``((g,),)``, or ``()`` when both are 0.
    """
    if isinstance(first, int):
        g = gcd(first, second)
        return Subgroup(1, ((g,),) if g else ())
    return Subgroup(len(first), hermite_normal_form((first, second)))
