"""Invariants of knotoid codes computed apart from ``knotoid_casson``.

The benchmark checks the program against these functions, so nothing here
imports the program.  A code is a ``Code``: a word of ``(kind, label)``
items with kind ``"O"`` (over pass) or ``"U"`` (under pass), plus a sign
per label.  Formal sums of annulus subgroups are plain dicts
``{g: coefficient}`` where ``g >= 0`` names the subgroup ``gZ`` and zero
coefficients are dropped.

* ``C+``/``C-`` come from an exhaustive scan over position quadruples,
  which is quartic and meant for codes of at most about 13 crossings.
* Realizability and loop classes come from tracing the faces of the
  sign-forced rotation system and walking a depth-first dual path from the
  face at the end to the face at the beginning (any dual path gives the
  same classes).
* The sharpness family ``D_j`` has closed forms, used instead of the scan
  at large ``n``.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

OVER, UNDER = "O", "U"

PROPER_BY_C = "ProperByC"
PROPER_BY_CH = "ProperByCH"
INCONCLUSIVE = "Inconclusive"
VIRTUAL = "virtual"


class Code(NamedTuple):
    word: tuple[tuple[str, str], ...]
    signs: dict[str, int]


# ---------------------------------------------------------------------------
# text form


def code_text(code: Code) -> str:
    """The signed Gauss code line: items, ``;``, then one sign per label."""
    if not code.word:
        return ""
    order: dict[str, None] = {}
    for _, label in code.word:
        order.setdefault(label)
    items = " ".join(kind + label for kind, label in code.word)
    signs = " ".join(f"{lab}={'+1' if code.signs[lab] > 0 else '-1'}" for lab in order)
    return f"{items} ; {signs}"


def parse_code(text: str) -> Code:
    """Inverse of ``code_text`` for well-formed single-line codes."""
    items, _, signs = text.partition(";")
    word = tuple((tok[0], tok[1:]) for tok in items.split())
    values = {}
    for tok in signs.split():
        label, value = tok.split("=")
        values[label] = int(value)
    return Code(word, values)


_TERM_RE = re.compile(r"(-?\d+)\*<(\d+)>")


def parse_sum(text: str) -> dict[int, int]:
    """Read a printed annulus formal sum such as ``-1*<0> + 2*<3>``."""
    if text == "0":
        return {}
    out: dict[int, int] = {}
    for term in text.split(" + "):
        m = _TERM_RE.fullmatch(term)
        if not m:
            raise ValueError(f"not an annulus formal-sum term: {term!r}")
        g = int(m.group(2))
        if g in out:
            raise ValueError(f"subgroup <{g}> printed twice in {text!r}")
        out[g] = int(m.group(1))
    return out


# ---------------------------------------------------------------------------
# elementary transforms


def switch_all(code: Code) -> Code:
    """Every over pass becomes an under pass and vice versa; signs kept."""
    flip = {OVER: UNDER, UNDER: OVER}
    return Code(tuple((flip[k], lab) for k, lab in code.word), dict(code.signs))


def switch_one(code: Code, label: str) -> Code:
    flip = {OVER: UNDER, UNDER: OVER}
    word = tuple((flip[k], lab) if lab == label else (k, lab) for k, lab in code.word)
    signs = dict(code.signs)
    signs[label] = -signs[label]
    return Code(word, signs)


def positions(code: Code) -> dict[str, tuple[int, int]]:
    over, under = {}, {}
    for i, (kind, label) in enumerate(code.word):
        (over if kind == OVER else under)[label] = i
    return {lab: (over[lab], under[lab]) for lab in over}


# ---------------------------------------------------------------------------
# C+ and C- by exhaustive scan


def skew_pairs_brute(code: Code) -> tuple[list[tuple[str, str, int]], list[tuple[str, str, int]]]:
    """Upper pairs (O x, U y, U x, O y) and lower pairs (U x, O y, O x, U y).

    Each pair is ``(x, y, sign(x) * sign(y))``, found by scanning every
    increasing position quadruple of the word.
    """
    w = code.word
    length = len(w)
    upper, lower = [], []
    for p1 in range(length):
        k1, x = w[p1]
        for p2 in range(p1 + 1, length):
            k2, y = w[p2]
            if y == x or k2 == k1:
                continue
            for p3 in range(p2 + 1, length):
                if w[p3] != (k2, x):
                    continue
                for p4 in range(p3 + 1, length):
                    if w[p4] != (k1, y):
                        continue
                    sign = code.signs[x] * code.signs[y]
                    (upper if k1 == OVER else lower).append((x, y, sign))
    return upper, lower


def casson_brute(code: Code) -> tuple[int, int]:
    upper, lower = skew_pairs_brute(code)
    return sum(s for _, _, s in upper), sum(s for _, _, s in lower)


# ---------------------------------------------------------------------------
# faces, realizability and loop classes


def _faces(code: Code) -> list[int]:
    """Face index of every half-edge of the sign-forced rotation system.

    Edge ``e`` runs from word item ``e - 1`` (or the beginning) to item
    ``e`` (or the end).  Half-edge ``2e`` leaves the tail of edge ``e`` and
    ``2e + 1`` leaves its head.  Counterclockwise at a crossing, starting
    from the outgoing over strand: sign +1 gives (over out, under out,
    over in, under in), sign -1 gives (over out, under in, over in,
    under out).  A half-edge's face is the one on its left.
    """
    length = len(code.word)
    halves = 2 * (length + 1)
    ccw_before = list(range(halves))  # the two endpoints have degree one
    for label, (o, u) in positions(code).items():
        over_out, over_in = 2 * (o + 1), 2 * o + 1
        under_out, under_in = 2 * (u + 1), 2 * u + 1
        if code.signs[label] > 0:
            ring = (over_out, under_out, over_in, under_in)
        else:
            ring = (over_out, under_in, over_in, under_out)
        for i in range(4):
            ccw_before[ring[i]] = ring[i - 1]
    face = [-1] * halves
    count = 0
    for start in range(halves):
        if face[start] >= 0:
            continue
        h = start
        while face[h] < 0:
            face[h] = count
            h = ccw_before[h ^ 1]
        count += 1
    return face


def is_realizable(code: Code) -> bool:
    """Euler characteristic 2 on the sphere: n + 1 faces for n crossings."""
    return max(_faces(code), default=-1) + 1 == len(code.word) // 2 + 1


def loop_classes(code: Code) -> dict[str, int] | None:
    """Annulus class of every crossing loop, or None for a virtual code.

    The dual path is depth-first over faces from the face at the end to the
    face at the beginning; crossing an edge from its right to its left
    counts +1.  Classes are determined up to one common sign, which no
    subgroup sees.
    """
    face = _faces(code)
    n = len(code.word) // 2
    if max(face) + 1 != n + 1:
        return None
    edges = len(code.word) + 1
    neighbours: dict[int, list[tuple[int, int, int]]] = {}
    for e in range(edges):
        left, right = face[2 * e], face[2 * e + 1]
        if left != right:
            neighbours.setdefault(right, []).append((left, e, 1))
            neighbours.setdefault(left, []).append((right, e, -1))
    source, target = face[2 * (edges - 1) + 1], face[0]
    weight = [0] * edges
    if source != target:
        came_from: dict[int, tuple[int, int, int]] = {source: (-1, -1, 0)}
        stack = [source]
        while stack:
            f = stack.pop()
            if f == target:
                break
            for g, e, d in neighbours.get(f, ()):
                if g not in came_from:
                    came_from[g] = (f, e, d)
                    stack.append(g)
        f = target
        while f != source:
            f, e, d = came_from[f]
            weight[e] += d
    prefix = [0]
    for w in weight:
        prefix.append(prefix[-1] + w)
    classes = {}
    for label, (o, u) in positions(code).items():
        first, second = min(o, u), max(o, u)
        classes[label] = prefix[second + 1] - prefix[first + 1]
    return classes


# ---------------------------------------------------------------------------
# full invariant rows


def _add(total: dict[int, int], g: int, c: int) -> None:
    value = total.get(g, 0) + c
    if value:
        total[g] = value
    else:
        total.pop(g, None)


def add_sums(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for g, c in b.items():
        _add(out, g, c)
    return out


def norm(s: dict[int, int]) -> int:
    return sum(abs(c) for c in s.values())


def crossing_bound(norm_sum: int) -> int:
    """Least n >= 0 with floor(n^2 / 4) >= norm_sum."""
    n = max(0, math.isqrt(4 * norm_sum) - 1)
    while n * n // 4 < norm_sum:
        n += 1
    return n


def properness(c_plus: int, c_minus: int, ch_plus, ch_minus) -> str:
    """The certificate rule: C+ != C- proves properness, else CH+- may."""
    if c_plus != c_minus:
        return PROPER_BY_C
    if ch_plus is None:
        return INCONCLUSIVE
    trivial_plus = {0: c_plus} if c_plus else {}
    trivial_minus = {0: c_minus} if c_minus else {}
    if ch_plus != trivial_plus or ch_minus != trivial_minus:
        return PROPER_BY_CH
    return INCONCLUSIVE


def row(name: str, crossings: int, c_plus: int, c_minus: int, ch_plus, ch_minus) -> dict:
    """An expected report, with every derived field worked out from the four values."""
    realizable = ch_plus is not None
    norm_sum = norm(ch_plus) + norm(ch_minus) if realizable else None
    return {
        "name": name,
        "c_plus": c_plus,
        "c_minus": c_minus,
        "ch_plus": ch_plus,
        "ch_minus": ch_minus,
        "norm_sum": norm_sum,
        "crossing_lower_bound": crossing_bound(norm_sum) if realizable else None,
        "properness": properness(c_plus, c_minus, ch_plus, ch_minus),
        "diagram_crossings": crossings,
    }


def invariants(code: Code, name: str = "") -> dict:
    """Expected report of a small code (exhaustive scan plus own face tracing)."""
    upper, lower = skew_pairs_brute(code)
    classes = loop_classes(code)
    ch = [None, None]
    if classes is not None:
        for side, pairs in enumerate((upper, lower)):
            total: dict[int, int] = {}
            for x, y, s in pairs:
                _add(total, math.gcd(classes[x], classes[y]), s)
            ch[side] = total
    return row(
        name,
        len(code.word) // 2,
        sum(s for _, _, s in upper),
        sum(s for _, _, s in lower),
        ch[0],
        ch[1],
    )


def product_row(name: str, factor_rows: list[dict]) -> dict:
    """Expected report of a concatenation product: C+- and CH+- add up."""
    ch_plus: dict[int, int] = {}
    ch_minus: dict[int, int] = {}
    for r in factor_rows:
        ch_plus = add_sums(ch_plus, r["ch_plus"])
        ch_minus = add_sums(ch_minus, r["ch_minus"])
    return row(
        name,
        sum(r["diagram_crossings"] for r in factor_rows),
        sum(r["c_plus"] for r in factor_rows),
        sum(r["c_minus"] for r in factor_rows),
        ch_plus,
        ch_minus,
    )


def family_code(j: int, labels: list[str]) -> Code:
    """``D_j``: over passes of odd crossings interleave with under passes of
    even ones, then the roles swap; every sign is +1."""
    word = []
    for i in range(j):
        word += [(OVER, labels[2 * i]), (UNDER, labels[2 * i + 1])]
    for i in range(j):
        word += [(UNDER, labels[2 * i]), (OVER, labels[2 * i + 1])]
    return Code(tuple(word), {lab: 1 for lab in labels})


def family_row(j: int, name: str = "") -> dict:
    """Closed forms for ``D_j`` with ``T_j = j(j+1)/2``: C+ = T_j, C- = T_{j-1},
    CH+ = T_j <1>, CH- = T_{j-1} <1>, so the norm sum is j^2 = n^2/4."""
    t_j, t_prev = j * (j + 1) // 2, j * (j - 1) // 2
    return row(name, 2 * j, t_j, t_prev, {1: t_j}, {1: t_prev} if t_prev else {})


# ---------------------------------------------------------------------------
# the skein identity


def skein_sides(code: Code, label: str) -> dict:
    """Both sides of C+-(D1) - C+-(D2) = lk+-(D0) at one crossing.

    D1 has the over pass of ``label`` first, D2 is D1 with ``label``
    switched, and D0 smooths ``label``: its circle is the part of D1's word
    strictly between the two passes.  lk+ (lk-) sums the signs of the
    crossings where the segment passes over (under) the circle, times the
    sign s1 of ``label`` in D1.
    """
    o, u = positions(code)[label]
    d1 = code if o < u else switch_one(code, label)
    d2 = switch_one(d1, label)
    first, second = sorted(positions(d1)[label])
    circle = {lab for _, lab in d1.word[first + 1:second]}
    segment = d1.word[:first] + d1.word[second + 1:]
    s1 = d1.signs[label]
    lk_plus = sum(d1.signs[lab] for k, lab in segment if lab in circle and k == OVER)
    lk_minus = sum(d1.signs[lab] for k, lab in segment if lab in circle and k == UNDER)
    c1, c2 = casson_brute(d1), casson_brute(d2)
    sides = {
        "crossing": label,
        "s1": s1,
        "lhs_plus": c1[0] - c2[0],
        "rhs_plus": s1 * lk_plus,
        "lhs_minus": c1[1] - c2[1],
        "rhs_minus": s1 * lk_minus,
    }
    sides["ok"] = (
        sides["lhs_plus"] == sides["rhs_plus"] and sides["lhs_minus"] == sides["rhs_minus"]
    )
    return sides
