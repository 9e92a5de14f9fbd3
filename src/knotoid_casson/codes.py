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
from collections import Counter, namedtuple
from collections.abc import Iterable, Mapping, Sequence

OVER = "O"
UNDER = "U"

_LABEL = r"[A-Za-z0-9]+'*"
_LABEL_RE = re.compile(_LABEL)
# The longest prefix of an item or sign section made of valid tokens, with the
# whitespace after them; the first bad token, if any, starts where it ends.  A
# token must be followed by whitespace or the end, so it matches in one way
# only, and a match takes time linear in the section.
_ITEMS_RE = re.compile(rf"(?:\s*[OU]{_LABEL}(?=\s|\Z))*\s*")
_SIGNS_RE = re.compile(rf"(?:\s*{_LABEL}=[+-]1(?=\s|\Z))*\s*")


class CodeError(ValueError):
    """Base class for Gauss-code front-end errors."""


class CodeSyntaxError(CodeError):
    """Malformed token or section structure in a code text."""


class CodeValidationError(CodeError):
    """Well-formed text whose content violates a code invariant."""


# an item from fields already known to be valid, without the checks of Item(kind, label)
_new_item = tuple.__new__


class Item(namedtuple("Item", "kind label")):
    """One pass through a crossing: over/under kind plus the crossing label.

    A tuple ``(kind, label)``, so an item equals the plain tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, kind: str, label: str) -> "Item":
        if kind not in (OVER, UNDER):
            raise CodeValidationError(f"item kind must be O or U, got {kind!r}")
        if not isinstance(label, str) or not _LABEL_RE.fullmatch(label):
            raise CodeValidationError(f"bad crossing label {label!r}")
        return _new_item(cls, (kind, label))

    def flipped(self) -> "Item":
        return _new_item(Item, (UNDER if self.kind == OVER else OVER, self.label))

    def __str__(self) -> str:
        return self.kind + self.label


def _check_passes(
    items: Sequence[Item], signs: Mapping[str, int]
) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]:
    """The labels of ``items`` in order of first occurrence and, aligned with
    them, the positions of their over passes and of their under passes, read
    in one pass once the word and ``signs`` hold the invariant of a code: a
    word of ``Item``s; each label twice, once over and once under; one sign
    each, the int +1 or -1."""
    if not {*map(type, items)} <= {Item}:  # a tuple equal to an item is not one
        bad = next(it for it in items if type(it) is not Item)
        raise CodeValidationError(f"a word is made of Items, got {bad!r}")
    over: dict[str, int] = {}
    under: dict[str, int] = {}
    first: dict[str, None] = {}
    for i, it in enumerate(items):
        # an item is the tuple (kind, label): indexing reads it fastest
        label = it[1]
        first[label] = None
        (over if it[0] == OVER else under)[label] = i
    labels = tuple(first)
    # neither dict holds more than n labels, so 2n entries leave none without
    # an over and an under pass, and 2n passes leave none to spare
    if not len(items) == len(over) + len(under) == 2 * len(labels):
        counts = Counter(items)  # an item equals its (kind, label) tuple
        lab = min(lab for lab in labels if counts[OVER, lab] != 1 or counts[UNDER, lab] != 1)
        raise CodeValidationError(
            f"label {lab!r} must occur exactly twice, once over and once under"
        )
    if signs.keys() != first.keys():
        missing = set(labels) - signs.keys()
        extra = signs.keys() - set(labels)
        detail = []
        if missing:
            detail.append(f"missing signs for {sorted(missing)}")
        if extra:
            detail.append(f"signs for absent labels {sorted(extra)}")
        raise CodeValidationError("; ".join(detail))
    for lab, s in signs.items():
        if type(s) is not int or s not in (1, -1):  # 1.0 and True compare equal to 1
            raise CodeValidationError(f"sign of {lab!r} must be +1 or -1, got {s!r}")
    # sized from lists: a tuple grown from an iterator is resized, and every
    # freed one then parks on the interpreter's free list for its final size
    return labels, tuple([over[lab] for lab in labels]), tuple([under[lab] for lab in labels])


class _Frozen:
    """Instances refuse assignment; their constructors fill the slots once."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class KnotoidCode(_Frozen):
    """A validated signed Gauss code of a knotoid.

    Immutable after construction; the empty word is the trivial knotoid.
    Every code, a move's result included, is built here and checked by
    ``_check_passes``, whose one pass over the word also gives ``labels``,
    the crossings in order of first occurrence, and ``over_pos[i]`` and
    ``under_pos[i]``, the word positions of the over and under pass of
    ``labels[i]``.  ``label_signs[i]`` is the sign of ``labels[i]``.
    Codes are equal when their words and signs are; they hold a dict, so
    they are not hashable.  A code keeps a private record of its faces and
    loop classes, filled on first use (``planar._trace``), which equality,
    ``repr``, pickles and copies ignore.
    """

    __slots__ = ("word", "signs", "labels", "over_pos", "under_pos", "label_signs", "_shape")
    word: tuple[Item, ...]
    signs: Mapping[str, int]
    labels: tuple[str, ...]
    over_pos: tuple[int, ...]
    under_pos: tuple[int, ...]
    label_signs: tuple[int, ...]

    def __new__(cls, word: Iterable[Item], signs: Mapping[str, int]) -> "KnotoidCode":
        word, signs = tuple(word), dict(signs)
        labels, over_pos, under_pos = _check_passes(word, signs)
        code = object.__new__(cls)
        set_field = object.__setattr__  # assignment is refused
        set_field(code, "word", word)
        set_field(code, "signs", signs)
        set_field(code, "labels", labels)
        set_field(code, "over_pos", over_pos)
        set_field(code, "under_pos", under_pos)
        set_field(code, "label_signs", tuple([signs[lab] for lab in labels]))
        set_field(code, "_shape", None)
        return code

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.word == other.word and self.signs == other.signs

    def __repr__(self) -> str:
        return f"KnotoidCode(word={self.word!r}, signs={self.signs!r})"

    def __reduce__(self):
        # pickling and copying rebuild the code, since its fields refuse assignment
        return KnotoidCode, (self.word, self.signs)

    @property
    def n_crossings(self) -> int:
        return len(self.word) // 2

    def positions(self) -> dict[str, tuple[int, int]]:
        """Map label -> (position of its over pass, position of its under pass).

        A fresh dict built from the stored positions, so callers may change it.
        """
        return dict(zip(self.labels, zip(self.over_pos, self.under_pos)))


class MultiKnotoidCode(_Frozen):
    """Gauss code of a multi-knotoid: one open segment plus closed circles.

    ``labels`` lists the crossings in order of first occurrence, reading the
    segment and then each circle from its starting item.
    """

    __slots__ = ("segment", "circles", "signs", "labels")
    segment: tuple[Item, ...]
    circles: tuple[tuple[Item, ...], ...]
    signs: Mapping[str, int]
    labels: tuple[str, ...]

    def __init__(
        self,
        segment: Iterable[Item],
        circles: Iterable[Iterable[Item]],
        signs: Mapping[str, int],
    ) -> None:
        segment, circles, signs = tuple(segment), tuple(tuple(c) for c in circles), dict(signs)
        every = list(segment)
        for c in circles:
            every.extend(c)
        set_field = object.__setattr__  # assignment is refused
        set_field(self, "segment", segment)
        set_field(self, "circles", circles)
        set_field(self, "signs", signs)
        set_field(self, "labels", _check_passes(every, signs)[0])

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

    def __repr__(self) -> str:
        return (f"MultiKnotoidCode(segment={self.segment!r}, circles={self.circles!r}, "
                f"signs={self.signs!r})")

    def __reduce__(self):
        return MultiKnotoidCode, (self.segment, self.circles, self.signs)


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
    valid = _ITEMS_RE.match(text).end()
    if valid < len(text):
        raise CodeSyntaxError(f"bad item token {text[valid:].split(None, 1)[0]!r}")
    # every token is a kind letter and a valid label
    return tuple([_new_item(Item, (token[0], token[1:])) for token in text.split()])


def _parse_signs(text: str) -> dict[str, int]:
    valid = _SIGNS_RE.match(text).end()
    signs: dict[str, int] = {}
    for token in text[:valid].split():  # each is "<label>=+1" or "<label>=-1"
        label = token[:-3]
        if label in signs:
            raise CodeValidationError(f"duplicate sign for label {label!r}")
        signs[label] = 1 if token[-2] == "+" else -1
    if valid < len(text):
        raise CodeSyntaxError(f"bad sign token {text[valid:].split(None, 1)[0]!r}")
    return signs


def _knotoid_from_lines(lines: list[str]) -> KnotoidCode:
    if not lines:
        return KnotoidCode((), {})
    if len(lines) > 1:
        raise CodeSyntaxError("a knotoid code is a single line (use --- between blocks)")
    item_part, _, sign_part = lines[0].partition(";")
    if ";" in sign_part:
        raise CodeSyntaxError("more than one ';' in code line")
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


def _sign_section(labels: Iterable[str], signs: Mapping[str, int]) -> str:
    return " ".join(f"{lab}={'+1' if signs[lab] > 0 else '-1'}" for lab in labels)


def serialize(code: KnotoidCode | MultiKnotoidCode) -> str:
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


def read_code_blocks(text: str) -> list[tuple[str | None, KnotoidCode | MultiKnotoidCode]]:
    """Read a code file: '---'-separated blocks, each with an optional name line.

    Errors name the failing block by its index among the blocks read.
    """
    blocks: list[list[str]] = [[]]
    for line in _content_lines(text):
        if line == "---":
            blocks.append([])
        else:
            blocks[-1].append(line)
    out: list[tuple[str | None, KnotoidCode | MultiKnotoidCode]] = []
    for lines in blocks:
        if not lines and len(blocks) > 1:
            continue
        try:
            out.append(_read_block(lines))
        except CodeError as exc:
            raise type(exc)(f"block {len(out)}: {exc}") from exc
    return out


def _read_block(lines: list[str]) -> tuple[str | None, KnotoidCode | MultiKnotoidCode]:
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
    out: list[str] = []
    i = 0
    while len(out) < count:
        cand = f"n{i}"
        if cand not in code.signs:
            out.append(cand)
        i += 1
    return tuple(out)
