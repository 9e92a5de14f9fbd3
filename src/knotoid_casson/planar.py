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

Faces are the orbits of dart -> rotation-predecessor(reversed dart); the
orbit of a dart is the face on its left.  The code admits a spherical
diagram exactly when V - E + F = 2, which for n crossings means F = n+1;
otherwise the code is virtual and only the integer invariants apply.

For a realizable code, removing small disks around the two endpoints puts
the diagram in an annulus.  The homology class of a crossing loop is its
algebraic intersection number with a dual arc from the face at the end to
the face at the beginning: +1 each time the loop edge is crossed right to
left, -1 left to right.  The class is independent of the chosen dual path;
breadth-first search with smallest-edge tie-breaking keeps reports stable.
Under this convention the loop of crossing a in "Oa Ub Ua Ob; a=b=+1" has
class +1 (the calibration pinned by the test suite).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .codes import KnotoidCode

RIGHT_TO_LEFT = 1
LEFT_TO_RIGHT = -1


class NonRealizableError(Exception):
    """The signed code admits no spherical diagram (the virtual case)."""

    def __init__(self, message: str, genus: int | None = None) -> None:
        super().__init__(message)
        self.genus = genus


class ArcStep(NamedTuple):
    """One transversal crossing of a diagram edge by the dual arc."""

    edge: int
    direction: int  # RIGHT_TO_LEFT or LEFT_TO_RIGHT


@dataclass(frozen=True, eq=False)
class DualArc:
    steps: tuple[ArcStep, ...]


@dataclass(frozen=True, eq=False)
class PlanarMap:
    """Faces and side labels of a realizable knotoid code."""

    code: KnotoidCode
    faces: tuple[tuple[int, ...], ...]
    dart_face: tuple[int, ...]
    leg_face: int
    head_face: int

    @property
    def num_edges(self) -> int:
        return len(self.code.word) + 1

    @property
    def num_vertices(self) -> int:
        return self.code.n_crossings + 2

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def left_face(self, edge: int) -> int:
        return self.dart_face[2 * edge]

    def right_face(self, edge: int) -> int:
        return self.dart_face[2 * edge + 1]

    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces


def build_planar_map(code: KnotoidCode) -> PlanarMap:
    """Trace the rotation system forced by the signs; raise if not spherical."""
    length = len(code.word)
    num_edges = length + 1
    # the endpoints' single darts: forward dart of edge 0, backward dart of the last edge
    leg_dart, head_dart = 0, 2 * length + 1
    prev_ccw = list(range(2 * num_edges))  # an endpoint's one dart precedes itself
    signs = code.signs
    for label, over, under in zip(code.labels, code.over_pos, code.under_pos):
        over_in, over_out = 2 * over + 1, 2 * over + 2
        under_in, under_out = 2 * under + 1, 2 * under + 2
        if signs[label] > 0:  # counterclockwise: over_out, under_out, over_in, under_in
            prev_ccw[over_out], prev_ccw[under_out] = under_in, over_out
            prev_ccw[over_in], prev_ccw[under_in] = under_out, over_in
        else:  # counterclockwise: over_out, under_in, over_in, under_out
            prev_ccw[over_out], prev_ccw[under_in] = under_out, over_out
            prev_ccw[over_in], prev_ccw[under_out] = under_in, over_in

    dart_face = [-1] * (2 * num_edges)
    faces: list[tuple[int, ...]] = []
    for start in range(2 * num_edges):
        if dart_face[start] != -1:
            continue
        face = len(faces)
        orbit = []
        d = start
        while dart_face[d] == -1:
            dart_face[d] = face
            orbit.append(d)
            d = prev_ccw[d ^ 1]
        faces.append(tuple(orbit))

    euler = (code.n_crossings + 2) - num_edges + len(faces)
    if euler != 2:
        raise NonRealizableError(
            f"code has no spherical diagram (Euler characteristic {euler})",
            genus=(2 - euler) // 2,
        )
    return PlanarMap(
        code=code,
        faces=tuple(faces),
        dart_face=tuple(dart_face),
        leg_face=dart_face[leg_dart],
        head_face=dart_face[head_dart],
    )


def dual_arc(pmap: PlanarMap) -> DualArc:
    """Shortest dual path from the end face to the beginning face.

    Breadth-first over faces, neighbor edges scanned in increasing index,
    so the arc is deterministic.  Any dual path yields the same loop
    classes; this one keeps reports stable.  A face's neighbors are read
    off its own darts only when the search reaches it: the face on the
    left of dart d borders the face on the left of d ^ 1 across edge d >> 1,
    and sorting its darts sorts its edges.
    """
    dart_face = pmap.dart_face
    # face -> the dart, in the face the search came from, whose edge it crossed;
    # a face's entry never changes once found, so the search stops at the leg face
    entered: dict[int, int] = {pmap.head_face: -1}
    queue = deque([pmap.head_face])
    while pmap.leg_face not in entered:
        f = queue.popleft()
        for d in sorted(pmap.faces[f]):
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
    """Loop classes of every crossing; raises NonRealizableError on virtual codes.

    A loop's class is the dual arc's weight on the edges of its sub-path,
    read off a prefix sum over the edges: O(n) for all crossings.
    """
    weights = [0] * (len(code.word) + 1)
    for e, d in dual_arc(build_planar_map(code)).steps:
        weights[e] += d
    # upto[e] = total weight of the edges up to and including edge e
    upto = list(accumulate(weights))
    return {
        label: (upto[under] - upto[over],) if over < under else (upto[over] - upto[under],)
        for label, over, under in zip(code.labels, code.over_pos, code.under_pos)
    }
