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
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, Mapping, NamedTuple

from .codes import OVER, KnotoidCode

LEG = "<leg>"
HEAD = "<head>"

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

    def edge_weights(self) -> dict[int, int]:
        weights: dict[int, int] = {}
        for e, d in self.steps:
            weights[e] = weights.get(e, 0) + d
        return weights


@dataclass(frozen=True, eq=False)
class PlanarMap:
    """Rotation system, faces and side labels of a realizable knotoid code."""

    code: KnotoidCode
    rotation: Mapping[str, tuple[int, ...]]
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


def _forward(edge: int) -> int:
    return 2 * edge


def _backward(edge: int) -> int:
    return 2 * edge + 1


def build_planar_map(code: KnotoidCode) -> PlanarMap:
    """Trace the rotation system forced by the signs; raise if not spherical."""
    word = code.word
    length = len(word)
    num_edges = length + 1
    rotation: dict[str, tuple[int, ...]] = {
        LEG: (_forward(0),),
        HEAD: (_backward(length),),
    }
    for label, (over_pos, under_pos) in code.positions().items():
        over_in = _backward(over_pos)
        over_out = _forward(over_pos + 1)
        under_in = _backward(under_pos)
        under_out = _forward(under_pos + 1)
        if code.signs[label] > 0:
            rotation[label] = (over_out, under_out, over_in, under_in)
        else:
            rotation[label] = (over_out, under_in, over_in, under_out)

    prev_ccw = [0] * (2 * num_edges)
    for cycle in rotation.values():
        for i, dart in enumerate(cycle):
            prev_ccw[dart] = cycle[i - 1]

    dart_face = [-1] * (2 * num_edges)
    faces: list[tuple[int, ...]] = []
    for start in range(2 * num_edges):
        if dart_face[start] != -1:
            continue
        orbit = []
        d = start
        while dart_face[d] == -1:
            dart_face[d] = len(faces)
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
        rotation=rotation,
        faces=tuple(faces),
        dart_face=tuple(dart_face),
        leg_face=dart_face[_forward(0)],
        head_face=dart_face[_backward(length)],
    )


def endpoint_faces(pmap: PlanarMap) -> tuple[int, int]:
    """The unique faces incident to the beginning and end vertices."""
    return pmap.leg_face, pmap.head_face


def dual_arc(pmap: PlanarMap) -> DualArc:
    """Shortest dual path from the end face to the beginning face.

    Breadth-first over faces, neighbor edges scanned in increasing index,
    so the arc is deterministic.  Any dual path yields the same loop
    classes; this one keeps reports stable.
    """
    if pmap.head_face == pmap.leg_face:
        return DualArc(())
    adjacency: dict[int, list[tuple[int, int]]] = {i: [] for i in range(pmap.num_faces)}
    for e in range(pmap.num_edges):
        left, right = pmap.left_face(e), pmap.right_face(e)
        if left != right:
            adjacency[left].append((right, e))
            adjacency[right].append((left, e))
    parent: dict[int, tuple[int, int]] = {}
    seen = {pmap.head_face}
    queue = deque([pmap.head_face])
    while queue:
        f = queue.popleft()
        if f == pmap.leg_face:
            break
        for g, e in adjacency[f]:
            if g not in seen:
                seen.add(g)
                parent[g] = (f, e)
                queue.append(g)
    steps: list[ArcStep] = []
    f = pmap.leg_face
    while f != pmap.head_face:
        prev, e = parent[f]
        direction = RIGHT_TO_LEFT if prev == pmap.right_face(e) else LEFT_TO_RIGHT
        steps.append(ArcStep(e, direction))
        f = prev
    steps.reverse()
    return DualArc(tuple(steps))


def loop_edges(code: KnotoidCode, label: str) -> tuple[int, ...]:
    """Edges of the loop cut off at a crossing: the sub-path between its passes."""
    pos = code.positions()
    if label not in pos:
        raise KeyError(f"unknown crossing {label!r}")
    first, second = sorted(pos[label])
    return tuple(range(first + 1, second + 1))


def loop_class(pmap: PlanarMap, arc: DualArc, label: str) -> tuple[int]:
    """Annulus homology class of the loop at ``label``, in units of the generator."""
    weights = arc.edge_weights()
    total = sum(weights.get(e, 0) for e in loop_edges(pmap.code, label))
    return (total,)


def all_loop_classes(code: KnotoidCode) -> dict[str, tuple[int]]:
    """Loop classes of every crossing; raises NonRealizableError on virtual codes.

    A loop's class is the dual arc's weight on the edges of its sub-path,
    read off a prefix sum over the edges: O(n) for all crossings.
    """
    pmap = build_planar_map(code)
    weights = dual_arc(pmap).edge_weights()
    # before[e] = total weight of the edges before edge e
    before = list(accumulate((weights.get(e, 0) for e in range(pmap.num_edges)), initial=0))
    pos = code.positions()
    classes: dict[str, tuple[int]] = {}
    for label in code.labels:
        first, second = sorted(pos[label])
        classes[label] = (before[second + 1] - before[first + 1],)
    return classes
