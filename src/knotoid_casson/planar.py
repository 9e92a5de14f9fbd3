"""Planar combinatorial maps of knotoid codes and annulus loop classes.

A signed code forces a unique rotation system: a diagram with n crossings
has n degree-4 vertices plus two degree-1 endpoint vertices, and 2n+1
edges (edge i enters the item at word position i; edge 0 leaves the
beginning, edge 2n reaches the end).  Each edge carries two darts, the
forward dart 2*i and the backward dart 2*i+1; dart reversal is xor 1.

Rotation convention at a crossing, counterclockwise, with the over strand
taken as reference:

    sign +1:  (over-out, under-out, over-in, under-in)
    sign -1:  (over-out, under-in, over-in, under-out)

Faces are the orbits of the face permutation d -> rotation-predecessor(d ^ 1);
the orbit of a dart is the face on its left (``PlanarMap.face``).  The code
admits a spherical diagram exactly when V - E + F = 2, which for n
crossings means F = n+1 (``PlanarMap.realizable``); otherwise the code is
virtual and only the integer invariants apply.

For a realizable code, removing small disks around the two endpoints puts
the diagram in an annulus.  The homology class of a crossing loop is its
algebraic intersection number with a dual path from the face at the end to
the face at the beginning: +1 where the path crosses a loop edge from its
right to its left, -1 from left to right.  Two such paths differ by a
closed curve, which meets the closed loop zero times algebraically, so any
path will do.  Under this convention the loop of crossing a in
"Oa Ub Ua Ob; a=b=+1" has class +1 (the calibration pinned by the tests).

``all_loop_classes`` takes the diagram's left push-off, run from the head
back to the leg.  It is a dual path: it starts in the face at the end
(which runs along both sides of the last edge), keeps to the face on the
left of the edge it follows, ends in the face at the beginning, and
crosses the other strand once at each pass.  Put the over strand running
east: by the rotation convention the under strand runs north at sign +1
and south at sign -1.  Read from head to leg, with o and u the positions
of the over and under pass (edge p enters position p, edge p+1 leaves it):

    sign +1, under strand northward:
        over pass, north of it: crosses edge u+1 westward, right to left, +1
        under pass, west of it: crosses edge o southward, left to right, -1
    sign -1, under strand southward:
        over pass, north of it: crosses edge u westward, left to right, -1
        under pass, east of it: crosses edge o+1 northward, right to left, +1

``dual_arc`` is a shortest dual path, kept as a second, independent path.
"""

from __future__ import annotations

from collections import deque, namedtuple
from itertools import accumulate

from .codes import KnotoidCode

RIGHT_TO_LEFT = 1
LEFT_TO_RIGHT = -1


class NonRealizableError(Exception):
    """The signed code admits no spherical diagram (the virtual case)."""

    def __init__(self, message: str, genus: int | None = None) -> None:
        super().__init__(message)
        self.genus = genus


class ArcStep(namedtuple("ArcStep", "edge direction")):
    """One transversal crossing of a diagram edge by the dual arc; ``direction``
    is RIGHT_TO_LEFT or LEFT_TO_RIGHT."""

    __slots__ = ()


DualArc = namedtuple("DualArc", "steps")  # steps: a tuple of ArcSteps


class PlanarMap(namedtuple("PlanarMap", "code num_faces dart_face leg_face head_face")):
    """The face record of any knotoid code, realizable or not: the number of
    faces, the face of every dart (``dart_face`` has one entry per dart, the
    side of edge e at 2 * e + side), and the faces at the endpoints."""

    __slots__ = ()

    @property
    def num_edges(self) -> int:
        return len(self.code.word) + 1

    @property
    def realizable(self) -> bool:
        """Whether the code has a spherical diagram: F = n + 1, i.e. V - E + F = 2."""
        return self.num_faces == self.code.n_crossings + 1

    def face(self, edge: int, side: int) -> int:
        """The face on one side of an edge: side 0 is its left, side 1 its right."""
        return self.dart_face[2 * edge + side]


def trace_faces(code: KnotoidCode) -> PlanarMap:
    """The faces of the rotation system forced by the signs, realizable or
    not, from the record the code keeps: traced by ``_trace`` on first use."""
    return PlanarMap(code, *(code._shape or _trace(code))[:4])


def _trace(code: KnotoidCode) -> list:
    """Trace the faces into the code's record: [num_faces, dart_face,
    leg_face, head_face, loop classes], the classes None until asked for."""
    last = 2 * len(code.word) + 1  # the backward dart of the last edge
    # nxt[d ^ 1] is the dart before d counterclockwise; an endpoint's one dart precedes itself
    nxt = [0] * (last + 1)
    nxt[1], nxt[last ^ 1] = 0, last
    for sign, over, under in zip(code.label_signs, code.over_pos, code.under_pos):
        # a pass at position p: dart in 2p + 1 (reversed 2p), dart out 2p + 2 (reversed 2p + 3)
        o, u = 2 * over, 2 * under
        if sign > 0:  # counterclockwise: over out, under out, over in, under in
            nxt[o + 3], nxt[u + 3], nxt[o], nxt[u] = u + 1, o + 2, u + 2, o + 1
        else:  # counterclockwise: over out, under in, over in, under out
            nxt[o + 3], nxt[u], nxt[o], nxt[u + 3] = u + 2, o + 2, u + 1, o + 1

    # the -1 past the last dart ends the search for a dart in no face yet
    dart_face = [-1] * (last + 2)
    num_faces = start = 0
    while (start := dart_face.index(-1, start)) <= last:
        d = start
        while dart_face[d] < 0:
            dart_face[d] = num_faces
            d = nxt[d]
        num_faces += 1
    del dart_face[-1]
    # the endpoints' single darts: forward dart of edge 0, backward dart of the last edge
    shape = [num_faces, tuple(dart_face), dart_face[0], dart_face[last], None]
    object.__setattr__(code, "_shape", shape)  # assignment is refused
    return shape


def build_planar_map(code: KnotoidCode) -> PlanarMap:
    """The traced map of a code; raise if it is not spherical."""
    pmap = trace_faces(code)
    if not pmap.realizable:
        # V - E + F with n + 2 vertices and 2n + 1 edges
        euler = pmap.num_faces - code.n_crossings + 1
        raise NonRealizableError(
            f"code has no spherical diagram (Euler characteristic {euler})",
            genus=(2 - euler) // 2,
        )
    return pmap


def dual_arc(pmap: PlanarMap) -> DualArc:
    """Shortest dual path from the end face to the beginning face.

    Breadth-first over faces, neighbor edges scanned in increasing index,
    so the arc is deterministic.  The face on the left of dart d borders
    the face on the left of d ^ 1 across edge d >> 1, so a face's neighbors
    are read off its own darts, grouped here in increasing order.
    """
    dart_face = pmap.dart_face
    darts: list[list[int]] = [[] for _ in range(pmap.num_faces)]
    for d, f in enumerate(dart_face):
        darts[f].append(d)
    # face -> the dart, in the face the search came from, whose edge it crossed;
    # a face's entry never changes once found, so the search stops at the leg face
    entered: dict[int, int] = {pmap.head_face: -1}
    queue = deque([pmap.head_face])
    while pmap.leg_face not in entered:
        f = queue.popleft()
        for d in darts[f]:
            g = dart_face[d ^ 1]
            if g not in entered:
                entered[g] = d
                queue.append(g)
    steps: list[ArcStep] = []
    f = pmap.leg_face
    while f != pmap.head_face:
        d = entered[f]
        # crossing from the left of a backward dart is crossing its edge right to left
        steps.append(ArcStep(d >> 1, RIGHT_TO_LEFT if d & 1 else LEFT_TO_RIGHT))
        f = dart_face[d]
    steps.reverse()
    return DualArc(tuple(steps))


def all_loop_classes(code: KnotoidCode) -> dict[str, tuple[int]]:
    """Loop classes of every crossing; raises NonRealizableError on virtual codes."""
    build_planar_map(code)
    return {label: (c,) for label, c in zip(code.labels, _loop_classes(code))}


def _loop_classes(code: KnotoidCode) -> tuple[int, ...]:
    """The loop classes of a realizable code in label order, kept in its
    record: the weights of the push-off (module docstring) on the edges,
    summed over each loop's sub-path by a prefix sum, O(n) for all crossings.
    """
    shape = code._shape or _trace(code)
    if shape[4] is None:
        weights = [0] * (len(code.word) + 1)
        for sign, over, under in zip(code.label_signs, code.over_pos, code.under_pos):
            # the over pass puts the sign on edge u+1 or u, the under pass its negative on o or o+1
            weights[under + (sign > 0)] += sign
            weights[over + (sign < 0)] -= sign
        # upto[e] = total weight of the edges up to and including edge e
        upto = list(accumulate(weights))
        shape[4] = tuple([
            upto[under] - upto[over] if over < under else upto[over] - upto[under]
            for over, under in zip(code.over_pos, code.under_pos)
        ])
    return shape[4]
