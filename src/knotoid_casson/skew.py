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
from collections.abc import Hashable, Mapping, Sequence
from math import gcd

from .codes import OVER, KnotoidCode
from .homology import HomologyClass, ModuleElement, Subgroup, as_class, hermite_normal_form

UPPER = "upper"
LOWER = "lower"


# kind is UPPER or LOWER; sign is the product of the two crossing signs
SkewPair = namedtuple("SkewPair", "first second kind sign")
CassonValues = namedtuple("CassonValues", "c_plus c_minus")


def skew_pairs(code: KnotoidCode) -> tuple[list[SkewPair], list[SkewPair]]:
    """All upper and lower skew pairs, ordered by their pattern positions.

    Each pair is found at the first pass of its first crossing x, among the
    passes of the other kind inside x's span whose crossing ends beyond it
    (x_o < y_u < x_u < y_o for an upper pair): O(sum of chord spans + pairs).
    """
    word, signs = code.word, code.signs
    last = [0] * len(word)  # at each word position, the second pass of its crossing
    for over, under in zip(code.over_pos, code.under_pos):
        last[over] = last[under] = max(over, under)
    found = {UPPER: [], LOWER: []}
    for start, (kind, x) in enumerate(word):
        end, name = last[start], UPPER if kind == OVER else LOWER
        for pos in range(start + 1, end):  # word order is pattern order
            if last[pos] > end and word[pos][0] != kind:
                y = word[pos][1]
                found[name].append(SkewPair(x, y, name, signs[x] * signs[y]))
    return found[UPPER], found[LOWER]


def casson_pm(code: KnotoidCode) -> CassonValues:
    """Signed counts of upper/lower skew pairs.

    Defined for every valid code; spherical realizability is not required
    (virtual knotoid codes are legal inputs).
    """
    # every class 0: the augmentations of the sums are the counts
    upper, lower = _subgroup_sums(code, [0] * len(code.labels), code.label_signs)
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
        # class 1 for the crossings without one: a pair touching them spans <1>, every
        # other pair <0>; unsigned weights, so that pairs whose signs cancel still count
        flagged = _subgroup_sums(code, [int(key is None) for key in keys], [1] * len(keys))
        if any(sub.basis for side in flagged for sub in side):
            # name the crossing a left-to-right sweep meets first: the first pair to
            # close, then the partner that starts first
            pos = code.positions()
            unclassed = [p for side in skew_pairs(code) for p in side
                         if p.first not in normalized or p.second not in normalized]
            p = min(unclassed, key=lambda p: (max(pos[p.first]), min(pos[p.second])))
            lab = p.first if p.first not in normalized else p.second
            raise KeyError(f"no homology class for crossing {lab!r}")
    upper, lower = _subgroup_sums(code, keys, code.label_signs)
    return ModuleElement._of(upper), ModuleElement._of(lower)


def _subgroup_sums(
    code: KnotoidCode, classes: Sequence[Hashable], signs: Sequence[int]
) -> tuple[dict[Subgroup, int], dict[Subgroup, int]]:
    """The nonzero terms of CH+ and CH-: the sums of sign(x) * sign(y) over
    the upper and over the lower skew pairs (x, y), by the subgroup that the
    classes of x and y span.  ``classes`` and ``signs`` (+1 or -1) follow
    ``code.labels``; classes of rank 1 are ints (as ``planar._loop_classes``
    gives them), of a higher rank tuples, and None for a label in no pair.

    A crossing is a chord between its two passes; it is *over-first* when
    its over pass comes first in the word.  Every skew pair is one
    over-first and one under-first chord that interleave: upper when the
    over-first chord starts first, lower otherwise.  So one left-to-right
    walk finds every pair.  The open chords of each kind and class are two
    bitmasks of their start positions, for positive and negative chords.
    The open chords of the other kind that started inside a chord's span
    when it ends are the mask bits above its start: a shift and a popcount
    per mask, skipped when no chord of the other kind started inside it.
    Bits count from the last chord start with no chord open, so a mask is
    no wider than the current run of overlapping chords.  O(n K) operations
    for K distinct classes, summed into 2 * K * K slots.
    """
    ids: dict[Hashable, int] = {}
    # at each word position, the start of its chord and the chord's mask:
    # 4 * class id + 2 * kind (1: under-first) + negative
    start_at = [0] * len(code.word)
    mask_at = [0] * len(code.word)
    for key, sign, over, under in zip(classes, signs, code.over_pos, code.under_pos):
        mask = 4 * ids.setdefault(key, len(ids)) + (sign < 0)
        if under < over:
            start_at[over] = start_at[under] = under
            mask_at[over] = mask_at[under] = mask + 2
        else:
            start_at[over] = start_at[under] = over
            mask_at[over] = mask_at[under] = mask
    num_keys = len(ids)
    masks = [0] * (4 * num_keys)
    open_of_kind = [0, 0]  # every open chord of each kind, whatever its class and sign
    # the positive masks of the kind other than the index
    masks_of_other = (range(2, 4 * num_keys, 4), range(0, 4 * num_keys, 4))
    # slot (2 * class id + kind of the ending chord) * num_keys + class id of the other -> sum
    counts = [0] * (2 * num_keys * num_keys)
    base = 0  # the bit origin: every open chord started there or later
    for pos, (start, mask) in enumerate(zip(start_at, mask_at)):
        if start == pos:  # a chord opens
            if not (open_of_kind[0] or open_of_kind[1]):
                base = pos
            bit = 1 << (pos - base)
            masks[mask] ^= bit
            open_of_kind[mask >> 1 & 1] ^= bit
        else:  # a chord closes
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
    terms = ({}, {})  # the upper and the lower terms
    for slot, total in enumerate(counts):
        if total:
            row, other = divmod(slot, num_keys)
            sub = _pair_subgroup(key_of[row >> 1], key_of[other])
            side = terms[row & 1]  # a chord that ends under-first closes a lower pair
            side[sub] = side.get(sub, 0) + total
    # pairs of different classes may span one subgroup, and their sums cancel
    return tuple({sub: c for sub, c in side.items() if c} for side in terms)


def _pair_subgroup(first: int | HomologyClass, second: int | HomologyClass) -> Subgroup:
    """The subgroup generated by two classes of one rank.

    In rank 1 (the annulus of a realizable code) the classes are ints and
    the canonical basis is their gcd: ``((g,),)``, or ``()`` when both are 0.
    """
    if isinstance(first, int):
        g = gcd(first, second)
        return Subgroup(1, ((g,),) if g else ())
    return Subgroup(len(first), hermite_normal_form((first, second)))
