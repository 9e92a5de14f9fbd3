"""Conway resolutions of a crossing and the skein identity for c_plus/c_minus.

Resolving a crossing x of a knotoid code gives a triple: d1 (normalized
so the over pass of x comes first), d2 (x switched), and d0 (the oriented
smoothing, a multi-knotoid whose circle is the sub-word strictly between
the two passes of x in d1 and whose segment is the rest).  s1 is the sign
of x in d1, which may be -1 under this normalization.

The linking counts of the smoothing are

    lk_plus(d0)  = s1 * sum of sign(y) over segment/circle crossings y
                   where the segment passes over,
    lk_minus(d0) = likewise with the segment passing under,

and the skein identity checked by verify_skein is

    c_plus(d1) - c_plus(d2) = lk_plus(d0),
    c_minus(d1) - c_minus(d2) = lk_minus(d0).

The two right-hand sides need not be equal to each other.  The identity
is positional, so virtual codes satisfy it as well.
"""

from __future__ import annotations

from collections import namedtuple

from .codes import OVER, UNDER, KnotoidCode, MultiKnotoidCode, switch_crossing
from .skew import casson_pm


# d1: the code with the crossing over-first, d2: d1 with it switched, d0: their
# smoothing (a MultiKnotoidCode), s1: the crossing's sign in d1
ConwayTriple = namedtuple("ConwayTriple", "crossing d1 d2 d0 s1")


def conway_triple(code: KnotoidCode, label: str) -> ConwayTriple:
    """Resolve ``label``: the two crossing states plus the oriented smoothing."""
    if label not in code.signs:
        raise KeyError(f"unknown crossing {label!r}")
    i = code.labels.index(label)
    over_pos, under_pos = code.over_pos[i], code.under_pos[i]
    d1 = code if over_pos < under_pos else switch_crossing(code, label)
    d2 = switch_crossing(d1, label)
    # switching flips the passes of a crossing in place, so d1 has them here too
    first, second = sorted((over_pos, under_pos))
    circle = d1.word[first + 1:second]
    segment = d1.word[:first] + d1.word[second + 1:]
    # segment and circle hold both passes of every other crossing
    signs = {lab: s for lab, s in d1.signs.items() if lab != label}
    d0 = MultiKnotoidCode(segment, (circle,), signs)
    return ConwayTriple(label, d1, d2, d0, d1.signs[label])


def lk_pm(d0: MultiKnotoidCode, s1: int) -> tuple[int, int]:
    """Signed over/under counts of segment-circle crossings, scaled by s1."""
    if len(d0.circles) != 1:
        raise ValueError("smoothing must have exactly one circle")
    circle_labels = {it.label for it in d0.circles[0]}
    counts = {OVER: 0, UNDER: 0}
    for kind, label in d0.segment:
        if label in circle_labels:
            counts[kind] += d0.signs[label]
    return s1 * counts[OVER], s1 * counts[UNDER]


class SkeinReport(namedtuple("SkeinReport", "crossing s1 lhs_plus rhs_plus lhs_minus rhs_minus ok")):
    __slots__ = ()

    def as_dict(self) -> dict:
        return self._asdict()


def verify_skein(code: KnotoidCode, label: str) -> SkeinReport:
    """Evaluate both sides of the skein identity at one crossing."""
    triple = conway_triple(code, label)
    c1 = casson_pm(triple.d1)
    c2 = casson_pm(triple.d2)
    rhs_plus, rhs_minus = lk_pm(triple.d0, triple.s1)
    lhs_plus = c1.c_plus - c2.c_plus
    lhs_minus = c1.c_minus - c2.c_minus
    return SkeinReport(
        crossing=label,
        s1=triple.s1,
        lhs_plus=lhs_plus,
        rhs_plus=rhs_plus,
        lhs_minus=lhs_minus,
        rhs_minus=rhs_minus,
        ok=(lhs_plus == rhs_plus and lhs_minus == rhs_minus),
    )
