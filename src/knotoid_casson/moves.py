"""Reidemeister moves as word rewrites, legal when their result is planar.

Moves act on the Gauss word:

* kink insertion/deletion rewrites an adjacent pair of passes of one
  crossing (two chirality variants times two signs);
* bigon insertion pokes one strand over another, creating adjacent pairs
  "Ox Oy" and "Ux Uy" with opposite signs (the oriented generating
  variant); deletion also accepts the antiparallel bigon "Ox Oy ... Uy Ux";
* the triangle move swaps the two items inside each of three adjacent
  blocks (Ox Oy / Uy Uz / Oz Ux, or the mirror-image arrangement), for
  crossings signed (+1, -1, +1).

A valid site is a deletion or triangle site that its finder
(``r1_delete_sites``, ``r2_delete_sites``, ``r3_sites``) lists for the
code, field for field, or an insertion of its kind's shape at gaps in
range whose rewrite is a valid code (fresh, distinct, well-formed labels
and the int sign +1 or -1, as ``KnotoidCode`` and ``Item`` check them).
``_SHAPES`` states every kind's shape once, and ``_check_shape`` refuses
a move of another shape or an unknown kind.
A rewrite at a valid site is a move exactly when its result is spherically
realizable.  Pushing strands over the endpoints cannot arise at the word
level; insertions at the extreme gaps stay legal because they happen in a
disk missing the endpoints.  Legality is read off the faces of the code
being moved (``planar.trace_faces``), never off a rebuilt result;
``tests/support.py`` keeps the rebuild as the oracle for every rule below.

Why faces decide.  A code with n crossings has n + 2 vertices and 2n + 1
edges, and its forced rotation system has F faces with
(n + 2) - (2n + 1) + F = 2 - 2g <= 2, the graph being connected; so
F <= n + 1, with equality exactly when the code is realizable.  A move
changes the rotation system only inside a box around the crossings it
adds, removes or rearranges, which meets the rest of the diagram in the
sides of the edges it cuts.  A face that enters the box along a side
leaves along a side T(entry); faces that never enter it are unchanged.  So
the faces through the box are the cycles of "follow T, then the outside",
and the box may close faces of its own.  Changing T by exchanging the
exits of two entries splits a cycle in two when both entries lie on one
face and joins two cycles otherwise.  Tracing T through the rotations of
``planar.py`` gives the face count F' of the result:

* Kink (R1).  The loop's two darts lie on different strands, so they are
  adjacent in the new crossing's rotation: the loop closes a monogon, and
  a face entering the box along the cut edge leaves along it, so T is
  straight through.  F' = F + 1 for an insertion, F - 1 for a deletion;
  n moves by one too, so the result is realizable exactly when the input
  is.
* Bigon insertion (R2), over block at gap g_o and under block at gap g_u,
  signs s for x and -s for y.  The new rotations close one face inside,
  the bigon, and T is straight through except that two entries exchange
  exits.  The entries run along these sides of the cut edges, whose faces
  ``PlanarMap.face`` gives:

      parallel,     s = +1:  right of g_o, left of g_u
      parallel,     s = -1:  left of g_o,  right of g_u
      antiparallel, s = +1:  left of g_o,  left of g_u
      antiparallel, s = -1:  right of g_o, right of g_u

  When g_o == g_u both blocks cut one edge, and the table holds for either
  stacking.  So F' = F + 2 when the two sides are one face and F' = F
  otherwise.  The result has n + 2 crossings: it is realizable exactly
  when the input is and the two sides are one face, and never when the
  input is virtual (F < n + 1).
* Bigon deletion (R2) is the inverse: the input is the insertion into the
  result, and its two entries run along the same sides of the input's
  edges just outside the blocks: a left side on the edge entering a block
  (edge p for a block at position p), a right side on the edge leaving it
  (edge p + 2).  F' = F - 2 when they lie on different faces and F' = F
  when on one.  On a realizable input they always lie on different faces,
  since F' = n + 1 would give the result (n - 2 crossings)
  V - E + F' = 4; so its deletions are always legal.  A virtual input's
  deletion is legal when F' = n - 1.
* Triangle (R3).  Both arrangements, at signs (+1, -1, +1), send each of
  the six entries to the same exit and close one face inside, the
  triangle.  So F' = F: legal exactly when the input is realizable.
"""

from __future__ import annotations

import random
from bisect import bisect
from collections import defaultdict, namedtuple
from collections.abc import Iterator
from itertools import accumulate

from .codes import (
    OVER,
    UNDER,
    _LABEL_RE,
    CodeValidationError,
    Item,
    KnotoidCode,
    _code_from_fields,
    _new_item,
    _read_passes,
    fresh_labels,
)
from .planar import PlanarMap, trace_faces

R1_INSERT = "R1Insert"
R1_DELETE = "R1Delete"
R2_INSERT = "R2Insert"
R2_DELETE = "R2Delete"
R3 = "R3"


class IllegalMoveError(Exception):
    """The move is not at a valid site, or its rewrite is not planar."""


class MoveInstance(namedtuple("MoveInstance", "kind gaps positions labels signs over_first parallel",
                              defaults=((), (), (), (), True, True))):
    """A fully parameterized move site; carries enough data to invert itself.

    ``gaps`` are insertion points (indices between items), ``positions``
    are first-item indices of the affected blocks.  ``over_first`` is the
    kink chirality for R1 and the block stacking order for an R2 insertion
    at a single gap.  ``parallel`` distinguishes the two bigon patterns.
    """

    __slots__ = ()


def _insert_positions(move: MoveInstance) -> tuple[int, int]:
    """First positions, in the result, of the over block and the under block
    a bigon insertion adds."""
    g_over, g_under = move.gaps
    over_first = g_over < g_under or (g_over == g_under and move.over_first)
    return g_over + 2 * (not over_first), g_under + 2 * over_first


# the gaps, positions and signs of a move of each kind; it has one label per gap or position
_SHAPES = {R1_INSERT: (1, 0, 1), R2_INSERT: (2, 0, 1),
           R1_DELETE: (0, 1, 1), R2_DELETE: (0, 2, 1), R3: (0, 3, 0)}


def _check_shape(move: MoveInstance) -> None:
    """Raise unless ``move`` has its kind's row of ``_SHAPES``, a label per gap or position,
    bools ``over_first`` and ``parallel`` (True for a kink), int gaps and str labels."""
    shape = _SHAPES.get(move.kind)
    if shape is None:
        raise IllegalMoveError(f"unknown move kind {move.kind!r}")
    if not ((len(move.gaps), len(move.positions), len(move.signs)) == shape
            and len(move.labels) == shape[0] + shape[1]
            and type(move.over_first) is bool and type(move.parallel) is bool
            and (move.parallel or move.kind != R1_INSERT)
            and all(type(gap) is int for gap in move.gaps)
            and all(type(label) is str for label in move.labels)):
        raise IllegalMoveError(f"malformed {move.kind}: {move}")


def _inserted_blocks(code: KnotoidCode, move: MoveInstance) -> list[tuple[int, tuple[Item, ...]]]:
    """(first position in the result, items) of each block an insertion adds,
    in word order, once the move passes ``_check_shape`` and its gaps are in
    range."""
    _check_shape(move)
    if min(move.gaps) < 0 or max(move.gaps) > len(code.word):
        raise IllegalMoveError(f"{move.kind} gap out of range: {move.gaps}")
    if move.kind == R1_INSERT:
        (gap,), (x,) = move.gaps, move.labels
        over, under = _new_item(Item, (OVER, x)), _new_item(Item, (UNDER, x))
        return [(gap, (over, under) if move.over_first else (under, over))]
    x, y = move.labels
    over = _new_item(Item, (OVER, x)), _new_item(Item, (OVER, y))
    under = _new_item(Item, (UNDER, x)), _new_item(Item, (UNDER, y))
    return sorted(zip(_insert_positions(move), (over, under if move.parallel else under[::-1])))


def _rewrite(code: KnotoidCode, move: MoveInstance) -> KnotoidCode:
    """The word rewrite of ``move``; a deletion or triangle must be a listed site.

    Only the word and the signs are edited (blocks inserted or deleted, or
    each triangle block's two items swapped); ``codes._read_passes`` reads the
    labels and positions off the new word, without the whole-code check.  An
    insertion is checked as ``_inserted_blocks`` says and for what it brings
    in: well-formed labels that each add one sign, so fresh and distinct, and
    the int sign +1 or -1.  Any other raises, as ``IllegalMoveError``, the
    first check of ``Item`` or of ``KnotoidCode`` that its result fails.
    """
    kind = move.kind
    word, signs = list(code.word), dict(code.signs)
    if kind in (R1_DELETE, R2_DELETE):
        # the blocks of a site never overlap, so deleting the later one first keeps the other's position
        for p in sorted(move.positions, reverse=True):
            del word[p:p + 2]
        for label in move.labels:
            del signs[label]
    elif kind == R3:
        for p in move.positions:
            word[p], word[p + 1] = word[p + 1], word[p]
    else:  # an insertion, or an unknown kind that _inserted_blocks refuses
        for p, block in _inserted_blocks(code, move):
            word[p:p] = block
        (sign,) = move.signs
        # a sign that is not an int is left to the code to reject, like any other bad sign
        signs.update(zip(move.labels, (sign, -sign if type(sign) is int else sign)))
        if not (type(sign) is int and sign in (1, -1)
                and len(signs) == len(code.signs) + len(move.labels)
                and all(map(_LABEL_RE.fullmatch, move.labels))):
            try:
                for label in move.labels:
                    Item(OVER, label)  # the checks of the items the blocks are made of
                KnotoidCode(word, signs)
            except CodeValidationError as exc:
                raise IllegalMoveError(f"{kind} result is not a valid code: {exc}") from None
    word = tuple(word)
    return _code_from_fields(word, signs, *_read_passes(word))


def _bigon_sides(sign: int, parallel: bool) -> tuple[int, int]:
    """Sides (0 left, 1 right) of the over and the under gap whose faces decide
    an R2 move: the module docstring's table."""
    return int((sign > 0) == parallel), int(sign < 0)


def _is_legal(pmap: PlanarMap, move: MoveInstance) -> bool:
    """Whether the rewrite of a valid site has a spherical result.

    ``pmap`` is ``trace_faces`` of the code being moved, the face record of
    any code, realizable or not.  The result has n' + 1 faces exactly when it
    is realizable, and its face count follows from the faces of the code by
    the rules of the module docstring.
    """
    if move.kind == R2_INSERT:
        (g_over, g_under), (s_over, s_under) = move.gaps, _bigon_sides(move.signs[0], move.parallel)
        return pmap.realizable and pmap.face(g_over, s_over) == pmap.face(g_under, s_under)
    if move.kind == R2_DELETE:
        # a left side is read on the edge entering a block, a right side on the edge leaving it
        (p_over, p_under), (s_over, s_under) = move.positions, _bigon_sides(move.signs[0], move.parallel)
        split = pmap.face(p_over + 2 * s_over, s_over) != pmap.face(p_under + 2 * s_under, s_under)
        return pmap.num_faces - 2 * split == pmap.code.n_crossings - 1
    # kinks and triangles keep the face count in step with the crossings
    return pmap.realizable


def apply(code: KnotoidCode, move: MoveInstance) -> KnotoidCode:
    """Apply a move at a valid site; legality is read off the faces of ``code``."""
    finder = _SITES.get(move.kind)
    if finder is not None and move not in finder(code):
        raise IllegalMoveError(
            f"no {move.kind} site at positions {move.positions} with labels {move.labels}"
        )
    result = _rewrite(code, move)
    if not _is_legal(trace_faces(code), move):
        raise IllegalMoveError(f"{move.kind} result is not spherically realizable")
    return result


def inverse_move(move: MoveInstance) -> MoveInstance:
    """The move undoing ``move`` at the corresponding site of the result, once
    the move passes ``_check_shape``."""
    _check_shape(move)
    kind = move.kind
    if kind in (R1_INSERT, R1_DELETE):  # a kink's gap in the code is its position in the result
        return MoveInstance(R1_DELETE if kind == R1_INSERT else R1_INSERT, move.positions, move.gaps,
                            move.labels, move.signs, move.over_first)
    if kind == R2_INSERT:
        return MoveInstance(R2_DELETE, positions=_insert_positions(move), labels=move.labels,
                            signs=move.signs, parallel=move.parallel)
    if kind == R2_DELETE:
        # the placement of _insert_positions, undone
        p_over, p_under = move.positions
        over_first = p_over < p_under
        gaps = p_over - 2 * (not over_first), p_under - 2 * over_first
        return MoveInstance(R2_INSERT, gaps=gaps, labels=move.labels, signs=move.signs,
                            over_first=over_first, parallel=move.parallel)
    return move  # a triangle is its own inverse


# ---------------------------------------------------------------------------
# site detection


def r1_delete_sites(code: KnotoidCode) -> list[MoveInstance]:
    """Crossings whose two passes are adjacent; labels come in word order."""
    return [
        MoveInstance(R1_DELETE, positions=(min(o, u),), labels=(lab,), signs=(sign,), over_first=o < u)
        for lab, sign, o, u in zip(code.labels, code.label_signs, code.over_pos, code.under_pos)
        if abs(o - u) == 1
    ]


def _over_blocks(code: KnotoidCode) -> list[tuple[int, str, str]]:
    """(p, a, b) for every block "Oa Ob" of opposite signs at positions p and p + 1."""
    signs = code.signs
    return [
        (p, first.label, second.label)
        for p, (first, second) in enumerate(zip(code.word, code.word[1:]))
        if first.kind == OVER and second.kind == OVER and signs[first.label] == -signs[second.label]
    ]


def r2_delete_sites(code: KnotoidCode) -> list[MoveInstance]:
    """Over blocks "Ox Oy" of opposite signs below "Ux Uy" (parallel) or "Uy Ux"."""
    under = dict(zip(code.labels, code.under_pos))
    return [
        MoveInstance(R2_DELETE, positions=(p, min(under[x], under[y])), labels=(x, y),
                     signs=(code.signs[x],), parallel=under[x] < under[y])
        for p, x, y in _over_blocks(code)
        if abs(under[x] - under[y]) == 1
    ]


def r3_sites(code: KnotoidCode) -> list[MoveInstance]:
    """Triangles (Ox Oy / Uy Uz / Oz Ux) at signs (+1, -1, +1), each block
    read forward (d = 1) or, in the mirror-image arrangement, backward (d = -1)."""
    word, signs = code.word, code.signs
    over, under = dict(zip(code.labels, code.over_pos)), dict(zip(code.labels, code.under_pos))
    out = []
    for p1, a, b in _over_blocks(code):
        x, y, d = (a, b, 1) if signs[a] == 1 else (b, a, -1)
        q = under[y] + d  # the under pass of z; positions -1 and 2n hold no item
        if 0 <= q < len(word) and word[q].kind == UNDER:
            z = word[q].label
            if signs[z] == 1 and over[z] == under[x] - d:
                p2, p3 = min(under[y], q), min(over[z], under[x])
                out.append(MoveInstance(R3, positions=(p1, p2, p3), labels=(x, y, z)))
    return out


# the finder of each kind of site; a deletion or triangle is valid exactly when listed
_SITES = {R1_DELETE: r1_delete_sites, R2_DELETE: r2_delete_sites, R3: r3_sites}


def enumerate_moves(code: KnotoidCode) -> list[MoveInstance]:
    """All legal deletion and triangle sites plus legal insertions, from one face tracing.

    Insertions are the bounded candidate set (kinks at every gap in every
    chirality and sign; generating-variant bigons at every gap pair), in
    that order.  A virtual code admits no insertion; a realizable one admits
    every kink, and the bigons that ``_is_legal`` accepts, tried at each over
    gap only against the gaps bordering a face of it: O(n + output).
    """
    pmap = trace_faces(code)
    legal = [move for find in _SITES.values() for move in find(code) if _is_legal(pmap, move)]
    if not pmap.realizable:
        return legal
    gaps = range(pmap.num_edges)
    x, y = fresh_labels(code, 2)
    for gap in gaps:
        for over_first in (True, False):
            for sign in (1, -1):
                legal.append(MoveInstance(
                    R1_INSERT, gaps=(gap,), labels=(x,), signs=(sign,),
                    over_first=over_first,
                ))
    # side (0 left, 1 right) -> face -> the edges with that face on that side
    bordering: tuple[defaultdict[int, set[int]], ...] = (defaultdict(set), defaultdict(set))
    for edge in gaps:
        for side in (0, 1):
            bordering[side][pmap.face(edge, side)].add(edge)
    for g_over in gaps:
        # pruning only: a legal bigon's under gap has its left side on the face right
        # of g_over (sign +1) or its right side on the face left of it (sign -1)
        for g_under in sorted(bordering[0][pmap.face(g_over, 1)] | bordering[1][pmap.face(g_over, 0)]):
            for over_first in (True, False) if g_over == g_under else (True,):
                for sign in (1, -1):
                    move = MoveInstance(R2_INSERT, gaps=(g_over, g_under), labels=(x, y),
                                        signs=(sign,), over_first=over_first)
                    if _is_legal(pmap, move):
                        legal.append(move)
    return legal


# ---------------------------------------------------------------------------
# random walks

_WALK_KINDS = (R1_INSERT, R2_INSERT, R1_DELETE, R2_DELETE, R3)
_GROW_WEIGHTS = (3, 3, 3, 3, 2)
_SHRINK_WEIGHTS = (0, 0, 4, 4, 2)
# A kind is drawn as Random.choices(_WALK_KINDS, weights) draws it, from the
# cumulative weights it would build at every call: the index bisect(cum,
# random() * total, 0, _LAST_KIND) of the same float, so a kind depends only
# on random()
_GROW_CUM = tuple(accumulate(_GROW_WEIGHTS))
_SHRINK_CUM = tuple(accumulate(_SHRINK_WEIGHTS))
_LAST_KIND = len(_WALK_KINDS) - 1
_MAX_ATTEMPTS = 12
# insertions stop once a walk's code exceeds its starting size by this many crossings
_GROWTH_CAP = 12


def _random_candidate(code: KnotoidCode, kind: str, rng: random.Random) -> MoveInstance | None:
    if kind in (R1_INSERT, R2_INSERT):
        end = len(code.word) + 1
        gaps = (rng.randrange(end),) if kind == R1_INSERT else (rng.randrange(end), rng.randrange(end))
        return MoveInstance(kind, gaps=gaps, labels=fresh_labels(code, len(gaps)),
                            signs=(rng.choice((1, -1)),), over_first=rng.random() < 0.5)
    sites = _SITES[kind](code)
    return rng.choice(sites) if sites else None


def iter_walk(code: KnotoidCode, steps: int, seed: int) -> Iterator[tuple[MoveInstance, KnotoidCode]]:
    """Seeded random walk; yields (move, code) per performed step.

    Steps with no legal candidate after a bounded number of attempts are
    skipped.  Insertions are disabled once the code exceeds its starting
    size by ``_GROWTH_CAP`` crossings, keeping walks bounded.  A code reached
    is traced only when a candidate needs its faces, and keeps them for its
    report; a rejected candidate is never rewritten.
    """
    rng = random.Random(seed)
    current = code
    cap = code.n_crossings + _GROWTH_CAP
    # every performed step reaches a realizable code, where every valid kink,
    # bigon deletion and triangle site is a move; only the start may be virtual
    virtual = not trace_faces(code).realizable
    for _ in range(steps):
        cum = _SHRINK_CUM if current.n_crossings >= cap else _GROW_CUM
        for _attempt in range(_MAX_ATTEMPTS):
            kind = _WALK_KINDS[bisect(cum, rng.random() * cum[-1], 0, _LAST_KIND)]
            move = _random_candidate(current, kind, rng)
            if move is None:
                continue
            if (kind == R2_INSERT or virtual) and not _is_legal(trace_faces(current), move):
                continue
            current = _rewrite(current, move)
            virtual = False
            yield move, current
            break


def random_walk(code: KnotoidCode, steps: int, seed: int) -> KnotoidCode:
    """Endpoint of a seeded walk of legal moves; a diagram of the same knotoid."""
    current = code
    for _, current in iter_walk(code, steps, seed):
        pass
    return current
