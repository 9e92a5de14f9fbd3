"""Signed Gauss codes of knotoids and multi-knotoids.

A knotoid diagram is read from its beginning to its end; every traversal
of a crossing is recorded as an item ``O<label>`` (passing on the over
strand) or ``U<label>`` (under strand), so each crossing contributes
exactly two items.  Crossing signs (+1/-1) are kept per label.  Unlike
closed-knot Gauss codes, the word is linear: position 0 is the beginning
of the diagram and there is no cyclic symmetry.

Text format (ASCII), one code per block::

    # comment
    Oa Ub Ua Ob ; a=+1 b=+1

A multi-knotoid (one open segment plus closed circles, as produced by
smoothing a crossing) uses one section per component::

    segment: Ob
    circle: Ub
    ; b=+1

Circle words carry an explicit starting item but compare equal up to
cyclic rotation.  Labels are alphanumeric tokens, optionally followed by
apostrophes (the deterministic relabeling suffix used when concatenating
codes with colliding labels).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Union

OVER = "O"
UNDER = "U"

_LABEL_RE = re.compile(r"[A-Za-z0-9]+'*")
_SIGN_TOKEN_RE = re.compile(r"([A-Za-z0-9]+'*)=([+-]1)")


class CodeError(ValueError):
    """Base class for Gauss-code front-end errors."""


class CodeSyntaxError(CodeError):
    """Malformed token or section structure in a code text."""


class CodeValidationError(CodeError):
    """Well-formed text whose content violates a code invariant."""


@dataclass(frozen=True)
class Item:
    """One pass through a crossing: over/under kind plus the crossing label."""

    kind: str
    label: str

    def __post_init__(self) -> None:
        if self.kind not in (OVER, UNDER):
            raise CodeValidationError(f"item kind must be O or U, got {self.kind!r}")
        if not isinstance(self.label, str) or not _LABEL_RE.fullmatch(self.label):
            raise CodeValidationError(f"bad crossing label {self.label!r}")

    def flipped(self) -> "Item":
        return Item(UNDER if self.kind == OVER else OVER, self.label)

    def __str__(self) -> str:
        return self.kind + self.label


def _check_passes(
    items: Sequence[Item], signs: Mapping[str, int]
) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]:
    """Shared invariant: each label twice, once over and once under; one sign each.

    Returns the labels in order of first occurrence and, aligned with them,
    the positions of their over passes and of their under passes.
    """
    over: dict[str, int] = {}
    under: dict[str, int] = {}
    first: dict[str, None] = {}
    for i, it in enumerate(items):
        first[it.label] = None
        (over if it.kind == OVER else under)[it.label] = i
    if over.keys() != under.keys() or len(items) != 2 * len(over):
        counts = Counter((it.kind, it.label) for it in items)
        lab = min(lab for lab in first if counts[OVER, lab] != 1 or counts[UNDER, lab] != 1)
        raise CodeValidationError(
            f"label {lab!r} must occur exactly twice, once over and once under"
        )
    if signs.keys() != first.keys():
        missing = first.keys() - signs.keys()
        extra = signs.keys() - first.keys()
        detail = []
        if missing:
            detail.append(f"missing signs for {sorted(missing)}")
        if extra:
            detail.append(f"signs for absent labels {sorted(extra)}")
        raise CodeValidationError("; ".join(detail))
    for lab, s in signs.items():
        if type(s) is not int or s not in (1, -1):  # 1.0 and True compare equal to 1
            raise CodeValidationError(f"sign of {lab!r} must be +1 or -1, got {s!r}")
    labels = tuple(first)
    # sized from lists: a tuple grown from an iterator is resized, and every
    # freed one then parks on the interpreter's free list for its final size
    return labels, tuple([over[lab] for lab in labels]), tuple([under[lab] for lab in labels])


@dataclass(frozen=True, init=False)
class KnotoidCode:
    """A validated signed Gauss code of a knotoid.

    Immutable after construction; the empty word is the trivial knotoid.
    ``labels`` lists the crossings in order of first occurrence in the word;
    ``over_pos[i]`` and ``under_pos[i]`` are the word positions of the over
    and under pass of ``labels[i]``, computed once by the validating pass.
    """

    word: tuple[Item, ...]
    signs: Mapping[str, int]
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    over_pos: tuple[int, ...] = field(init=False, repr=False, compare=False)
    under_pos: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, word: Iterable[Item], signs: Mapping[str, int]) -> None:
        word, signs = tuple(word), dict(signs)
        labels, over_pos, under_pos = _check_passes(word, signs)
        set_field = object.__setattr__  # the class is frozen
        set_field(self, "word", word)
        set_field(self, "signs", signs)
        set_field(self, "labels", labels)
        set_field(self, "over_pos", over_pos)
        set_field(self, "under_pos", under_pos)

    # dict field: identity-based hashing would be misleading, equality is by value
    __hash__ = None  # type: ignore[assignment]

    @property
    def n_crossings(self) -> int:
        return len(self.word) // 2

    def positions(self) -> dict[str, tuple[int, int]]:
        """Map label -> (position of its over pass, position of its under pass).

        A fresh dict built from the stored positions, so callers may change it.
        """
        return dict(zip(self.labels, zip(self.over_pos, self.under_pos)))


@dataclass(frozen=True, eq=False)
class MultiKnotoidCode:
    """Gauss code of a multi-knotoid: one open segment plus closed circles.

    ``labels`` lists the crossings in order of first occurrence, reading the
    segment and then each circle from its starting item.
    """

    segment: tuple[Item, ...]
    circles: tuple[tuple[Item, ...], ...]
    signs: Mapping[str, int]
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "segment", tuple(self.segment))
        object.__setattr__(self, "circles", tuple(tuple(c) for c in self.circles))
        object.__setattr__(self, "signs", dict(self.signs))
        every = list(self.segment)
        for c in self.circles:
            every.extend(c)
        object.__setattr__(self, "labels", _check_passes(every, self.signs)[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiKnotoidCode):
            return NotImplemented
        if self.segment != other.segment or self.signs != other.signs:
            return False
        if len(self.circles) != len(other.circles):
            return False
        return all(
            _cyclic_equal(a, b) for a, b in zip(self.circles, other.circles)
        )

    __hash__ = None  # type: ignore[assignment]


def _cyclic_equal(a: tuple[Item, ...], b: tuple[Item, ...]) -> bool:
    if len(a) != len(b):
        return False
    if not a:
        return True
    return any(b[i:] + b[:i] == a for i in range(len(b)))


# ---------------------------------------------------------------------------
# parsing / serialization


def _content_lines(text: str) -> list[str]:
    if not text.isascii():
        raise CodeSyntaxError("code text must be ASCII")
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    return lines


def _parse_items(text: str) -> tuple[Item, ...]:
    items = []
    for token in text.split():
        try:
            items.append(Item(token[:1], token[1:]))
        except CodeValidationError:
            raise CodeSyntaxError(f"bad item token {token!r}") from None
    return tuple(items)


def _parse_signs(text: str) -> dict[str, int]:
    signs: dict[str, int] = {}
    for tok in text.split():
        m = _SIGN_TOKEN_RE.fullmatch(tok)
        if not m:
            raise CodeSyntaxError(f"bad sign token {tok!r}")
        label, value = m.group(1), int(m.group(2))
        if label in signs:
            raise CodeValidationError(f"duplicate sign for label {label!r}")
        signs[label] = value
    return signs


def _knotoid_from_lines(lines: list[str]) -> KnotoidCode:
    if not lines:
        return KnotoidCode((), {})
    if len(lines) > 1:
        raise CodeSyntaxError("a knotoid code is a single line (use --- between blocks)")
    parts = lines[0].split(";")
    if len(parts) > 2:
        raise CodeSyntaxError("more than one ';' in code line")
    item_part = parts[0]
    sign_part = parts[1] if len(parts) == 2 else ""
    return KnotoidCode(_parse_items(item_part), _parse_signs(sign_part))


def _multiknotoid_from_lines(lines: list[str]) -> MultiKnotoidCode:
    if not lines or not lines[0].startswith("segment:"):
        raise CodeSyntaxError("multi-knotoid block must start with 'segment:'")
    segment = _parse_items(lines[0][len("segment:"):])
    circles: list[tuple[Item, ...]] = []
    signs: dict[str, int] | None = None
    for line in lines[1:]:
        if signs is not None:
            raise CodeSyntaxError("content after the sign line")
        if line.startswith("circle:"):
            circles.append(_parse_items(line[len("circle:"):]))
        elif line.startswith(";"):
            signs = _parse_signs(line[1:])
        else:
            raise CodeSyntaxError(f"unexpected line {line!r} in multi-knotoid block")
    return MultiKnotoidCode(segment, tuple(circles), signs or {})


def parse_knotoid_code(text: str) -> KnotoidCode:
    """Parse a one-line signed Gauss code; empty text is the trivial knotoid."""
    return _knotoid_from_lines(_content_lines(text))


def parse_multiknotoid_code(text: str) -> MultiKnotoidCode:
    """Parse a multi-knotoid block: 'segment:' line, 'circle:' lines, '; signs' line."""
    return _multiknotoid_from_lines(_content_lines(text))


def _format_sign(s: int) -> str:
    return "+1" if s > 0 else "-1"


def _sign_section(labels: Iterable[str], signs: Mapping[str, int]) -> str:
    return " ".join(f"{lab}={_format_sign(signs[lab])}" for lab in labels)


def serialize(code: Union[KnotoidCode, MultiKnotoidCode]) -> str:
    """Round-tripping text form: ``parse(serialize(c)) == c``."""
    if isinstance(code, MultiKnotoidCode):
        lines = ["segment: " + " ".join(str(it) for it in code.segment)]
        lines.extend("circle: " + " ".join(str(it) for it in c) for c in code.circles)
        lines.append("; " + _sign_section(code.labels, code.signs))
        return "\n".join(line.rstrip() for line in lines)
    if not code.word:
        return ""
    items = " ".join(str(it) for it in code.word)
    return f"{items} ; {_sign_section(code.labels, code.signs)}"


def read_code_blocks(
    text: str,
) -> list[tuple[str | None, Union[KnotoidCode, MultiKnotoidCode]]]:
    """Read a code file: '---'-separated blocks, each with an optional name line.

    Errors name the failing block by its index among the blocks read.
    """
    blocks: list[list[str]] = [[]]
    for line in _content_lines(text):
        if line == "---":
            blocks.append([])
        else:
            blocks[-1].append(line)
    out: list[tuple[str | None, Union[KnotoidCode, MultiKnotoidCode]]] = []
    for lines in blocks:
        if not lines and len(blocks) > 1:
            continue
        try:
            out.append(_read_block(lines))
        except CodeError as exc:
            raise type(exc)(f"block {len(out)}: {exc}") from exc
    return out


def _read_block(
    lines: list[str],
) -> tuple[str | None, Union[KnotoidCode, MultiKnotoidCode]]:
    name = None
    if lines and lines[0].startswith("name "):
        name = lines[0][len("name "):].strip()
        if not name or len(name.split()) != 1:
            raise CodeSyntaxError(f"bad name line {lines[0]!r}")
        lines = lines[1:]
    if any(line.startswith("segment:") for line in lines):
        return name, _multiknotoid_from_lines(lines)
    return name, _knotoid_from_lines(lines)


# ---------------------------------------------------------------------------
# elementary transforms


def switch_all(code: KnotoidCode) -> KnotoidCode:
    """Switch every crossing (all over passes become under and vice versa).

    Signs are unchanged: switching both strands' roles at a crossing keeps
    the orientation class of its tangent frame.
    """
    return KnotoidCode(tuple(it.flipped() for it in code.word), code.signs)


def reverse(code: KnotoidCode) -> KnotoidCode:
    """Reverse the orientation of the diagram (read the word backwards)."""
    return KnotoidCode(tuple(reversed(code.word)), code.signs)


def mirror(code: KnotoidCode) -> KnotoidCode:
    """Reflect the diagram: word unchanged, every crossing sign negated."""
    return KnotoidCode(code.word, {lab: -s for lab, s in code.signs.items()})


def switch_crossing(code: KnotoidCode, label: str) -> KnotoidCode:
    """Switch a single crossing: flip its two passes and negate its sign."""
    if label not in code.signs:
        raise KeyError(f"unknown crossing {label!r}")
    word = tuple(it.flipped() if it.label == label else it for it in code.word)
    signs = dict(code.signs)
    signs[label] = -signs[label]
    return KnotoidCode(word, signs)


def concat_product(k1: KnotoidCode, k2: KnotoidCode) -> KnotoidCode:
    """Concatenation product of knotoids; k2 is relabeled on label collision.

    Colliding labels deterministically gain apostrophes until fresh, so the
    result serializes reproducibly.
    """
    used = set(k1.signs)
    rename: dict[str, str] = {}
    for lab in k2.labels:
        new = lab
        while new in used:
            new += "'"
        rename[lab] = new
        used.add(new)
    word2 = tuple(Item(it.kind, rename[it.label]) for it in k2.word)
    signs = dict(k1.signs)
    signs.update({rename[lab]: s for lab, s in k2.signs.items()})
    return KnotoidCode(k1.word + word2, signs)


def fresh_labels(code: KnotoidCode, count: int) -> tuple[str, ...]:
    """Deterministic labels ``n<i>`` not occurring in ``code`` (used by move insertions)."""
    used = set(code.signs)
    out: list[str] = []
    i = 0
    while len(out) < count:
        cand = f"n{i}"
        if cand not in used:
            out.append(cand)
            used.add(cand)
        i += 1
    return tuple(out)
