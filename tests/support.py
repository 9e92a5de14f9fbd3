"""Shared helpers: random code generation and independent oracles."""

from __future__ import annotations

import itertools
import random
import re
from collections import deque
from pathlib import Path

from hypothesis import strategies as st

from knotoid_casson.analysis import (
    InvariantReport,
    crossing_lower_bound,
    full_report,
    generate_family,
    properness_certificate,
)
from knotoid_casson.codes import (
    OVER,
    UNDER,
    CodeSyntaxError,
    CodeValidationError,
    Item,
    KnotoidCode,
    concat_product,
    fresh_labels,
    mirror,
    parse_knotoid_code,
    serialize,
)
from knotoid_casson.homology import ModuleElement, Subgroup, as_class
from knotoid_casson.moves import (
    R1_DELETE,
    R1_INSERT,
    R2_DELETE,
    R2_INSERT,
    R3,
    IllegalMoveError,
    MoveInstance,
    _random_candidate,
    _GROW_WEIGHTS,
    _GROWTH_CAP,
    _MAX_ATTEMPTS,
    _SHRINK_WEIGHTS,
    _WALK_KINDS,
    iter_walk,
)
from knotoid_casson.planar import (
    LEFT_TO_RIGHT,
    RIGHT_TO_LEFT,
    ArcStep,
    NonRealizableError,
    PlanarMap,
    build_planar_map,
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


def cyc(j: int, coeff: int = 1) -> ModuleElement:
    """``coeff`` times the annulus subgroup <j>."""
    return ModuleElement({Subgroup.generated_by(j): coeff})


def invariant_row(code: KnotoidCode, name: str = "") -> tuple:
    """(C+, C-, CH+, CH-) of ``code``: what a Reidemeister move must keep."""
    r = full_report(code, name)
    return (r.c_plus, r.c_minus, r.ch_plus, r.ch_minus)


def random_code(rng: random.Random, n_crossings: int) -> KnotoidCode:
    items: list[Item] = []
    for i in range(1, n_crossings + 1):
        items.append(Item(OVER, f"c{i}"))
        items.append(Item(UNDER, f"c{i}"))
    rng.shuffle(items)
    signs = {f"c{i}": rng.choice((1, -1)) for i in range(1, n_crossings + 1)}
    return KnotoidCode(tuple(items), signs)


def every_code(n):
    """Every code of n crossings up to relabeling (labels in order of first occurrence)."""
    labels = [f"c{i}" for i in range(n)]
    items = [Item(kind, lab) for lab in labels for kind in (OVER, UNDER)]
    for word in itertools.permutations(items):
        if list(dict.fromkeys(it.label for it in word)) != labels:
            continue
        for signs in itertools.product((1, -1), repeat=n):
            yield KnotoidCode(word, dict(zip(labels, signs)))


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
    """Independent oracle: a scan over pairs of word positions p1 < p2 whose
    chords' other ends p3, p4 (read from the word itself) interleave them as
    p1 < p2 < p3 < p4.

    Returns the upper and lower pair sets as (first, second) label tuples.
    """
    word = code.word
    ends: dict[str, list[int]] = {}
    for p, item in enumerate(word):
        ends.setdefault(item.label, []).append(p)
    other = {p: q for a, b in ends.values() for p, q in ((a, b), (b, a))}
    upper: set[tuple[str, str]] = set()
    lower: set[tuple[str, str]] = set()
    for p1 in range(len(word)):
        p3 = other[p1]
        for p2 in range(p1 + 1, p3):
            p4 = other[p2]
            if p4 <= p3:
                continue
            a, b, c, d = word[p1], word[p2], word[p3], word[p4]
            kinds = (a.kind, b.kind, c.kind, d.kind)
            if kinds == (OVER, UNDER, UNDER, OVER):
                upper.add((a.label, b.label))
            elif kinds == (UNDER, OVER, OVER, UNDER):
                lower.add((a.label, b.label))
    return upper, lower


REFERENCE_SIGN_TOKEN = re.compile(r"([A-Za-z0-9]+'*)=([+-]1)")


def reference_parse_items(text: str) -> tuple[Item, ...]:
    """Reference item section: token by token, each checked by ``Item``."""
    items = []
    for token in text.split():
        try:
            items.append(Item(token[:1], token[1:]))
        except CodeValidationError:
            raise CodeSyntaxError(f"bad item token {token!r}") from None
    return tuple(items)


def reference_parse_signs(text: str) -> dict[str, int]:
    """Reference sign section: token by token, each matched on its own."""
    signs: dict[str, int] = {}
    for token in text.split():
        m = REFERENCE_SIGN_TOKEN.fullmatch(token)
        if not m:
            raise CodeSyntaxError(f"bad sign token {token!r}")
        label, value = m.group(1), int(m.group(2))
        if label in signs:
            raise CodeValidationError(f"duplicate sign for label {label!r}")
        signs[label] = value
    return signs


def reference_parse_knotoid_code(text: str) -> KnotoidCode:
    """Reference ``parse_knotoid_code``: the sections parsed token by token."""
    if not text.isascii():
        raise CodeSyntaxError("code text must be ASCII")
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines:
        return KnotoidCode((), {})
    if len(lines) > 1:
        raise CodeSyntaxError("a knotoid code is a single line (use --- between blocks)")
    parts = lines[0].split(";")
    if len(parts) > 2:
        raise CodeSyntaxError("more than one ';' in code line")
    return KnotoidCode(reference_parse_items(parts[0]),
                       reference_parse_signs(parts[1] if len(parts) == 2 else ""))


def canonical_relabel(code: KnotoidCode) -> KnotoidCode:
    """Rename labels by first occurrence, for comparisons up to relabeling."""
    mapping: dict[str, str] = {}
    for it in code.word:
        mapping.setdefault(it.label, f"l{len(mapping)}")
    word = tuple(Item(it.kind, mapping[it.label]) for it in code.word)
    return KnotoidCode(word, {mapping[lab]: s for lab, s in code.signs.items()})


def reference_trace_faces(code: KnotoidCode) -> PlanarMap:
    """Reference face tracing: the rotation-predecessor table, then every face
    as an orbit tuple of darts, numbered in order of its smallest dart."""
    num_edges = len(code.word) + 1
    prev_ccw = list(range(2 * num_edges))  # an endpoint's one dart precedes itself
    for label, (over, under) in code.positions().items():
        over_in, over_out = 2 * over + 1, 2 * over + 2
        under_in, under_out = 2 * under + 1, 2 * under + 2
        if code.signs[label] > 0:  # counterclockwise: over_out, under_out, over_in, under_in
            order = (over_out, under_out, over_in, under_in)
        else:  # counterclockwise: over_out, under_in, over_in, under_out
            order = (over_out, under_in, over_in, under_out)
        for k, dart in enumerate(order):
            prev_ccw[dart] = order[k - 1]
    faces: list[tuple[int, ...]] = []
    dart_face: dict[int, int] = {}
    for start in range(2 * num_edges):
        if start in dart_face:
            continue
        orbit = [start]
        while (d := prev_ccw[orbit[-1] ^ 1]) != start:
            orbit.append(d)
        for d in orbit:
            dart_face[d] = len(faces)
        faces.append(tuple(orbit))
    return PlanarMap(
        code=code,
        num_faces=len(faces),
        dart_face=tuple(dart_face[d] for d in range(2 * num_edges)),
        leg_face=dart_face[0],
        head_face=dart_face[2 * num_edges - 1],
    )


def all_simple_dual_paths(pmap: PlanarMap) -> list[tuple[ArcStep, ...]]:
    """Every simple dual path from the head face to the leg face."""
    if pmap.head_face == pmap.leg_face:
        return [()]
    adjacency: dict[int, list[tuple[int, int]]] = {f: [] for f in range(pmap.num_faces)}
    for e in range(pmap.num_edges):
        left, right = pmap.face(e, 0), pmap.face(e, 1)
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
            direction = RIGHT_TO_LEFT if face == pmap.face(e, 1) else LEFT_TO_RIGHT
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
        left, right = pmap.face(e, 0), pmap.face(e, 1)
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
        direction = RIGHT_TO_LEFT if prev == pmap.face(e, 1) else LEFT_TO_RIGHT
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
    weights = [0] * pmap.num_edges
    for e, d in steps:
        weights[e] += d
    edges = loop_edges(pmap.code, label)
    return sum(weights[edges[0]:edges[-1] + 1])


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


def random_product(rng: random.Random, target: int) -> KnotoidCode:
    """A realizable product of exactly ``target`` crossings: sharpness-family
    members and small random realizable factors, each possibly mirrored."""
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
    return code


def write_catalog(directory: Path, count: int, seed: int, per_file: int = 500) -> None:
    """A seeded catalog of ``count`` named codes of 2 to 8 crossings, half of
    them random (mostly virtual) and half realizable products, ``per_file``
    blocks to a file; CI times ``knotoid-casson batch`` on it."""
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    for first in range(0, count, per_file):
        blocks = []
        for i in range(first, min(first + per_file, count)):
            n = rng.randint(2, 8)
            code = random_code(rng, n) if i % 2 else random_product(rng, n)
            blocks.append(f"name k{i}\n{serialize(code)}\n")
        (directory / f"part{first // per_file:03d}.knd").write_text("---\n".join(blocks))


@st.composite
def realizable_code_strategy(draw, max_crossings: int = 40) -> KnotoidCode:
    """Realizable codes up to ``max_crossings``: a product of sharpness-family
    members and small random realizable factors (each possibly mirrored),
    then a seeded Reidemeister walk that stays within the size."""
    rng = draw(st.randoms(use_true_random=False))
    code = random_product(rng, draw(st.integers(0, max_crossings)))
    steps = draw(st.integers(0, 20))
    for _, reached in iter_walk(code, steps, rng.randrange(10**6)):
        if reached.n_crossings > max_crossings:
            break
        code = reached
    return code


def reference_casson_homological(
    code: KnotoidCode, classes, pairs=None
) -> tuple[ModuleElement, ModuleElement]:
    """Reference CH+/CH-: list the skew pairs (or take ``pairs``, the listing
    already made) and add one subgroup per pair."""
    normalized = {lab: as_class(value) for lab, value in classes.items()}
    named: dict[tuple, Subgroup] = {}

    def accumulate(pairs) -> ModuleElement:
        terms: dict[Subgroup, int] = {}
        for p in pairs:
            for lab in (p.first, p.second):
                if lab not in normalized:
                    raise KeyError(f"no homology class for crossing {lab!r}")
            gens = (normalized[p.first], normalized[p.second])
            if gens not in named:
                named[gens] = Subgroup.generated_by(*gens)
            terms[named[gens]] = terms.get(named[gens], 0) + p.sign
        return ModuleElement(terms)

    upper, lower = skew_pairs(code) if pairs is None else pairs
    return accumulate(upper), accumulate(lower)


def reference_report(code: KnotoidCode, name: str = "") -> InvariantReport:
    """``full_report`` rebuilt from listed skew pairs and per-label sums along
    the reference arc of the reference face tracing."""
    upper, lower = skew_pairs(code)
    values = CassonValues(sum(p.sign for p in upper), sum(p.sign for p in lower))
    pmap = reference_trace_faces(code)
    if not pmap.realizable:
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
    steps = reference_dual_arc_steps(pmap)
    classes = {lab: loop_class_along(pmap, steps, lab) for lab in code.labels}
    ch_plus, ch_minus = reference_casson_homological(code, classes, (upper, lower))
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


def adjacent_blocks(code: KnotoidCode, kind1: str, kind2: str) -> list[tuple[int, str, str]]:
    """(p, a, b) for every pair of passes of two crossings, of kinds ``kind1``
    and ``kind2``, at positions p and p + 1, from a scan of the word."""
    word = code.word
    return [
        (p, word[p].label, word[p + 1].label)
        for p in range(len(word) - 1)
        if word[p].kind == kind1 and word[p + 1].kind == kind2
        and word[p].label != word[p + 1].label
    ]


def reference_r2_delete_sites(code: KnotoidCode) -> list[MoveInstance]:
    """Reference bigon sites: every over block against every under block."""
    over_blocks = adjacent_blocks(code, OVER, OVER)
    under_blocks = adjacent_blocks(code, UNDER, UNDER)
    out = []
    for p, x, y in over_blocks:
        if code.signs[x] != -code.signs[y]:
            continue
        for q, u1, u2 in under_blocks:
            if {u1, u2} != {x, y}:
                continue
            out.append(MoveInstance(
                R2_DELETE, positions=(p, q), labels=(x, y),
                signs=(code.signs[x],), parallel=(u1 == x),
            ))
    return out


def reference_r3_sites(code: KnotoidCode) -> list[MoveInstance]:
    """Reference triangle sites: every over block against every under block."""
    signs = code.signs
    over_over = adjacent_blocks(code, OVER, OVER)
    under_under = adjacent_blocks(code, UNDER, UNDER)
    over_under = {(a, b): p for p, a, b in adjacent_blocks(code, OVER, UNDER)}
    under_over = {(a, b): p for p, a, b in adjacent_blocks(code, UNDER, OVER)}
    out = []
    for p1, a, b in over_over:
        if signs[a] == 1 and signs[b] == -1:
            for p2, u1, u2 in under_under:
                if u1 != b or u2 in (a, b) or signs[u2] != 1:
                    continue
                p3 = over_under.get((u2, a))
                if p3 is not None:
                    out.append(MoveInstance(R3, positions=(p1, p2, p3), labels=(a, b, u2)))
        if signs[b] == 1 and signs[a] == -1:
            for p2, u1, u2 in under_under:
                if u2 != a or u1 in (a, b) or signs[u1] != 1:
                    continue
                p3 = under_over.get((b, u1))
                if p3 is not None:
                    out.append(MoveInstance(R3, positions=(p1, p2, p3), labels=(b, a, u1)))
    return out


def reference_r1_delete_sites(code: KnotoidCode) -> list[MoveInstance]:
    """Reference kink sites: every pair of adjacent items of one crossing, from a scan of the word."""
    word = code.word
    return [
        MoveInstance(R1_DELETE, positions=(p,), labels=(word[p].label,),
                     signs=(code.signs[word[p].label],), over_first=word[p].kind == OVER)
        for p in range(len(word) - 1) if word[p].label == word[p + 1].label
    ]


REFERENCE_SITES = {R1_DELETE: reference_r1_delete_sites, R2_DELETE: reference_r2_delete_sites,
                   R3: reference_r3_sites}


def stored(code: KnotoidCode) -> tuple:
    """Every stored field of a code, the signs' key order included."""
    return (code.word, list(code.signs.items()), code.labels, code.over_pos, code.under_pos,
            code.label_signs)


def assert_label_signs(code: KnotoidCode) -> None:
    """The stored signs of a code are those of its labels, in label order."""
    assert code.label_signs == tuple(code.signs[lab] for lab in code.labels), code


def reference_rewrite(code: KnotoidCode, move: MoveInstance) -> KnotoidCode:
    """Reference rewrite: edit the word as a list, then build the whole code,
    which checks it, from the word and the signs.

    An insertion is checked only for its kind's shape and for gaps in range;
    its blocks go in from the last gap to the first, and at one gap the block
    that ends up second goes in first.
    """
    word = list(code.word)
    signs = dict(code.signs)
    kind = move.kind
    try:
        if kind in (R1_INSERT, R2_INSERT):
            kink = kind == R1_INSERT
            if not (len(move.gaps) == len(move.labels) == 2 - kink and len(move.signs) == 1
                    and not move.positions and (move.parallel or not kink)
                    and all(type(gap) is int for gap in move.gaps)
                    and all(type(label) is str for label in move.labels)):
                raise IllegalMoveError(f"malformed {kind}: {move}")
            if min(move.gaps) < 0 or max(move.gaps) > len(word):
                raise IllegalMoveError(f"{kind} gap out of range: {move.gaps}")
            over = [Item(OVER, label) for label in move.labels]
            under = [Item(UNDER, label) for label in move.labels]
            if kink:
                placed = [(move.gaps[0], 0, over + under if move.over_first else under + over)]
            else:
                g_over, g_under = move.gaps
                placed = [(g_over, not move.over_first, over),
                          (g_under, move.over_first, under if move.parallel else under[::-1])]
            (sign,) = move.signs
            signs.update(zip(move.labels, (sign, -sign if type(sign) is int else sign)))
            for gap, _, block in sorted(placed, key=lambda t: t[:2], reverse=True):
                word[gap:gap] = block
        elif kind in (R1_DELETE, R2_DELETE):
            for p in sorted(move.positions, reverse=True):
                del word[p:p + 2]
            for label in move.labels:
                del signs[label]
        elif kind == R3:
            for p in move.positions:
                word[p], word[p + 1] = word[p + 1], word[p]
        else:
            raise IllegalMoveError(f"unknown move kind {kind!r}")
        return KnotoidCode(tuple(word), signs)
    except CodeValidationError as exc:
        raise IllegalMoveError(f"{kind} result is not a valid code: {exc}") from None


def reference_apply(code: KnotoidCode, move: MoveInstance) -> KnotoidCode:
    """Reference move: a deletion or triangle must be a site the reference
    finders list; rewrite, then rebuild the result's map to test realizability."""
    find = REFERENCE_SITES.get(move.kind)
    if find is not None and move not in find(code):
        raise IllegalMoveError(
            f"no {move.kind} site at positions {move.positions} with labels {move.labels}"
        )
    result = reference_rewrite(code, move)
    try:
        build_planar_map(result)
    except NonRealizableError as exc:
        raise IllegalMoveError(f"{move.kind} result is not spherically realizable") from exc
    return result


def site_mutations(code: KnotoidCode, move: MoveInstance, rng: random.Random) -> list[MoveInstance]:
    """``move`` with one field changed: a position moved by one or to a random
    index, the labels reversed or one replaced, the sign flipped (a sign pattern
    given to a triangle), ``over_first`` or ``parallel`` flipped, gaps given."""
    length = len(code.word)
    out = []
    for i, p in enumerate(move.positions):
        for q in (p - 1, p + 1, rng.randrange(-1, length + 1)):
            out.append(move._replace(positions=move.positions[:i] + (q,) + move.positions[i + 1:]))
    out.append(move._replace(labels=move.labels[::-1]))
    others = list(code.labels) + list(fresh_labels(code, 1))
    for i in range(len(move.labels)):
        other = rng.choice(others)
        out.append(move._replace(labels=move.labels[:i] + (other,) + move.labels[i + 1:]))
    out.append(move._replace(signs=tuple(-s for s in move.signs) or (1, -1, 1)))
    out.append(move._replace(over_first=not move.over_first))
    out.append(move._replace(parallel=not move.parallel))
    out.append(move._replace(gaps=move.positions[:1]))
    return [m for m in out if m != move]


def move_candidates(code: KnotoidCode) -> list[MoveInstance]:
    """Every deletion and triangle site, then kinks at every gap in both
    chiralities and signs, then bigons at every gap pair and stacking, parallel
    and antiparallel, in both signs."""
    length = len(code.word)
    x, y = fresh_labels(code, 2)
    out = [move for find in REFERENCE_SITES.values() for move in find(code)]
    for gap in range(length + 1):
        for over_first in (True, False):
            for sign in (1, -1):
                out.append(MoveInstance(R1_INSERT, gaps=(gap,), labels=(x,), signs=(sign,),
                                        over_first=over_first))
    for g_over in range(length + 1):
        for g_under in range(length + 1):
            for over_first in (True, False) if g_over == g_under else (True,):
                for parallel in (True, False):
                    for sign in (1, -1):
                        out.append(MoveInstance(
                            R2_INSERT, gaps=(g_over, g_under), labels=(x, y), signs=(sign,),
                            over_first=over_first, parallel=parallel,
                        ))
    return out


def reference_enumerate_moves(code: KnotoidCode) -> list[MoveInstance]:
    """Reference enumeration: the generating-variant candidates that ``reference_apply`` takes."""
    legal = []
    for move in move_candidates(code):
        if move.kind == R2_INSERT and not move.parallel:
            continue
        try:
            reference_apply(code, move)
        except IllegalMoveError:
            continue
        legal.append(move)
    return legal


def reference_walk(code: KnotoidCode, steps: int, seed: int):
    """Reference walk: the same seeded candidates, each tried with ``reference_apply``."""
    rng = random.Random(seed)
    current = code
    cap = code.n_crossings + _GROWTH_CAP
    for _ in range(steps):
        weights = _SHRINK_WEIGHTS if current.n_crossings >= cap else _GROW_WEIGHTS
        for _attempt in range(_MAX_ATTEMPTS):
            kind = rng.choices(_WALK_KINDS, weights)[0]
            move = _random_candidate(current, kind, rng)
            if move is None:
                continue
            try:
                current = reference_apply(current, move)
            except IllegalMoveError:
                continue
            yield move, current
            break


def plant_bigon(code: KnotoidCode, gaps, sign: int, parallel: bool, over_first: bool) -> KnotoidCode:
    """``code`` with a bigon's blocks inserted at ``gaps``, planar or not."""
    return reference_rewrite(code, MoveInstance(
        R2_INSERT, gaps=tuple(gaps), labels=fresh_labels(code, 2), signs=(sign,),
        over_first=over_first, parallel=parallel,
    ))


def plant_triangle(code: KnotoidCode, gaps, right: bool) -> KnotoidCode:
    """``code`` with the three blocks of a triangle site inserted at ``gaps``, planar or not.

    The blocks are (Ox Oy), (Uy Uz), (Oz Ux) for crossings signed (+1, -1, +1),
    each reversed in the mirror-image arrangement.
    """
    x, y, z = fresh_labels(code, 3)
    blocks = [[Item(OVER, x), Item(OVER, y)], [Item(UNDER, y), Item(UNDER, z)],
              [Item(OVER, z), Item(UNDER, x)]]
    word = list(code.word)
    for gap, block in sorted(zip(gaps, blocks), key=lambda pair: pair[0], reverse=True):
        word[gap:gap] = block[::-1] if right else block
    return KnotoidCode(word, {**code.signs, x: 1, y: -1, z: 1})
