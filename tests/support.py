"""Shared helpers: random code generation and independent oracles."""

from __future__ import annotations

import random
from collections import deque
from pathlib import Path

from hypothesis import strategies as st

from knotoid_casson.analysis import (
    InvariantReport,
    crossing_lower_bound,
    generate_family,
    properness_certificate,
)
from knotoid_casson.codes import (
    OVER,
    UNDER,
    Item,
    KnotoidCode,
    concat_product,
    mirror,
    parse_knotoid_code,
)
from knotoid_casson.homology import ModuleElement, as_class, subgroup_from_generators
from knotoid_casson.moves import iter_walk
from knotoid_casson.planar import (
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    ArcStep,
    NonRealizableError,
    PlanarMap,
    build_planar_map,
    dual_arc,
)
from knotoid_casson.skew import CassonValues, skew_pairs

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_text(name: str) -> str:
    """The code line of ``fixtures/<name>.knd``, verbatim; the file holds one code."""
    lines = (FIXTURES / f"{name}.knd").read_text().splitlines()
    [line] = [ln for ln in lines if ";" in ln and not ln.startswith("#")]
    return line


# the published low-crossing examples: 2_1 and 4_6 share (C+, C-) = (1, 0)
# but differ homologically; 5_19 has all four invariants zero
TWO_ONE_TEXT = fixture_text("2_1")
FOUR_SIX_TEXT = fixture_text("4_6")
FIVE_NINETEEN_TEXT = fixture_text("5_19")


def two_one() -> KnotoidCode:
    return parse_knotoid_code(TWO_ONE_TEXT)


def four_six() -> KnotoidCode:
    return parse_knotoid_code(FOUR_SIX_TEXT)


def five_nineteen() -> KnotoidCode:
    return parse_knotoid_code(FIVE_NINETEEN_TEXT)


def named_fixtures() -> dict[str, KnotoidCode]:
    return {"2_1": two_one(), "4_6": four_six(), "5_19": five_nineteen()}


def random_code(rng: random.Random, n_crossings: int) -> KnotoidCode:
    items: list[Item] = []
    for i in range(1, n_crossings + 1):
        items.append(Item(OVER, f"c{i}"))
        items.append(Item(UNDER, f"c{i}"))
    rng.shuffle(items)
    signs = {f"c{i}": rng.choice((1, -1)) for i in range(1, n_crossings + 1)}
    return KnotoidCode(tuple(items), signs)


def random_realizable_code(rng: random.Random, n_crossings: int, max_tries: int = 500):
    for _ in range(max_tries):
        code = random_code(rng, n_crossings)
        try:
            build_planar_map(code)
        except NonRealizableError:
            continue
        return code
    return None


def brute_force_skew_pairs(code: KnotoidCode) -> tuple[set, set]:
    """Independent oracle: exhaustive scan over position quadruples.

    Returns the upper and lower pair sets as (first, second) label tuples.
    """
    word = code.word
    length = len(word)
    upper: set[tuple[str, str]] = set()
    lower: set[tuple[str, str]] = set()
    for p1 in range(length):
        for p2 in range(p1 + 1, length):
            for p3 in range(p2 + 1, length):
                for p4 in range(p3 + 1, length):
                    a, b, c, d = word[p1], word[p2], word[p3], word[p4]
                    if a.label != c.label or b.label != d.label or a.label == b.label:
                        continue
                    kinds = (a.kind, b.kind, c.kind, d.kind)
                    if kinds == (OVER, UNDER, UNDER, OVER):
                        upper.add((a.label, b.label))
                    elif kinds == (UNDER, OVER, OVER, UNDER):
                        lower.add((a.label, b.label))
    return upper, lower


def canonical_relabel(code: KnotoidCode) -> KnotoidCode:
    """Rename labels by first occurrence, for comparisons up to relabeling."""
    mapping: dict[str, str] = {}
    for it in code.word:
        mapping.setdefault(it.label, f"l{len(mapping)}")
    word = tuple(Item(it.kind, mapping[it.label]) for it in code.word)
    return KnotoidCode(word, {mapping[lab]: s for lab, s in code.signs.items()})


def all_simple_dual_paths(pmap: PlanarMap) -> list[tuple[ArcStep, ...]]:
    """Every simple dual path from the head face to the leg face."""
    if pmap.head_face == pmap.leg_face:
        return [()]
    adjacency: dict[int, list[tuple[int, int]]] = {f: [] for f in range(pmap.num_faces)}
    for e in range(pmap.num_edges):
        left, right = pmap.left_face(e), pmap.right_face(e)
        if left != right:
            adjacency[left].append((right, e))
            adjacency[right].append((left, e))
    paths: list[tuple[ArcStep, ...]] = []

    def extend(face: int, visited: set[int], steps: list[ArcStep]) -> None:
        if face == pmap.leg_face:
            paths.append(tuple(steps))
            return
        for nxt, e in adjacency[face]:
            if nxt in visited:
                continue
            direction = RIGHT_TO_LEFT if face == pmap.right_face(e) else LEFT_TO_RIGHT
            visited.add(nxt)
            steps.append(ArcStep(e, direction))
            extend(nxt, visited, steps)
            steps.pop()
            visited.remove(nxt)

    extend(pmap.head_face, {pmap.head_face}, [])
    return paths


def reference_dual_arc_steps(pmap: PlanarMap) -> tuple[ArcStep, ...]:
    """Reference dual arc: breadth-first search over an adjacency list of every face.

    Neighbors are listed per face in increasing edge index and the search
    stops when it takes the leg face off the queue.
    """
    if pmap.head_face == pmap.leg_face:
        return ()
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
    return tuple(steps)


def loop_edges(code: KnotoidCode, label: str) -> tuple[int, ...]:
    """Edges of the loop cut off at a crossing: the sub-path between its passes."""
    pos = code.positions()
    if label not in pos:
        raise KeyError(f"unknown crossing {label!r}")
    first, second = sorted(pos[label])
    return tuple(range(first + 1, second + 1))


def loop_class_along(pmap: PlanarMap, steps, label: str) -> int:
    weights: dict[int, int] = {}
    for e, d in steps:
        weights[e] = weights.get(e, 0) + d
    return sum(weights.get(e, 0) for e in loop_edges(pmap.code, label))


@st.composite
def code_strategy(draw, min_crossings: int = 0, max_crossings: int = 6) -> KnotoidCode:
    n = draw(st.integers(min_crossings, max_crossings))
    items: list[Item] = []
    for i in range(1, n + 1):
        items.append(Item(OVER, f"c{i}"))
        items.append(Item(UNDER, f"c{i}"))
    word = tuple(draw(st.permutations(items))) if items else ()
    signs = {f"c{i}": draw(st.sampled_from((1, -1))) for i in range(1, n + 1)}
    return KnotoidCode(word, signs)


@st.composite
def realizable_code_strategy(draw, max_crossings: int = 40) -> KnotoidCode:
    """Realizable codes up to ``max_crossings``: a product of sharpness-family
    members and small random realizable factors (each possibly mirrored),
    then a seeded Reidemeister walk that stays within the size."""
    rng = draw(st.randoms(use_true_random=False))
    target = draw(st.integers(0, max_crossings))
    code = KnotoidCode((), {})
    while code.n_crossings < target:
        room = target - code.n_crossings
        if room >= 2 and rng.random() < 0.3:
            factor = generate_family(rng.randint(1, room // 2))
        else:
            factor = random_realizable_code(rng, rng.randint(1, min(6, room)))
        if rng.random() < 0.5:
            factor = mirror(factor)
        code = concat_product(code, factor) if rng.random() < 0.5 else concat_product(factor, code)
    steps = draw(st.integers(0, 20))
    growth_cap = max_crossings - 1 - code.n_crossings
    for _, reached in iter_walk(code, steps, rng.randrange(10**6), growth_cap=growth_cap):
        code = reached
    return code


def reference_casson_homological(code: KnotoidCode, classes) -> tuple[ModuleElement, ModuleElement]:
    """Reference CH+/CH-: list the skew pairs and add one subgroup per pair."""
    normalized = {lab: as_class(value) for lab, value in classes.items()}

    def accumulate(pairs) -> ModuleElement:
        total = ModuleElement.zero()
        for p in pairs:
            for lab in (p.first, p.second):
                if lab not in normalized:
                    raise KeyError(f"no homology class for crossing {lab!r}")
            sub = subgroup_from_generators(normalized[p.first], normalized[p.second])
            total = total + ModuleElement.single(sub, p.sign)
        return total

    upper, lower = skew_pairs(code)
    return accumulate(upper), accumulate(lower)


def reference_report(code: KnotoidCode, name: str = "") -> InvariantReport:
    """``full_report`` rebuilt from listed skew pairs and per-label loop sums."""
    upper, lower = skew_pairs(code)
    values = CassonValues(sum(p.sign for p in upper), sum(p.sign for p in lower))
    try:
        pmap = build_planar_map(code)
    except NonRealizableError:
        return InvariantReport(
            name=name,
            c_plus=values.c_plus,
            c_minus=values.c_minus,
            ch_plus=None,
            ch_minus=None,
            norm_sum=None,
            crossing_lower_bound=None,
            properness=properness_certificate(values),
            diagram_crossings=code.n_crossings,
        )
    steps = dual_arc(pmap).steps
    classes = {lab: loop_class_along(pmap, steps, lab) for lab in code.labels}
    ch_plus, ch_minus = reference_casson_homological(code, classes)
    return InvariantReport(
        name=name,
        c_plus=values.c_plus,
        c_minus=values.c_minus,
        ch_plus=ch_plus,
        ch_minus=ch_minus,
        norm_sum=ch_plus.norm() + ch_minus.norm(),
        crossing_lower_bound=crossing_lower_bound(ch_plus, ch_minus),
        properness=properness_certificate(values, ch_plus, ch_minus),
        diagram_crossings=code.n_crossings,
    )
