"""Subgroup lattice of Z^k and integer formal sums of subgroups.

The homological invariants take values in the free Z-module on the set of
subgroups of the first homology group of the ambient surface.  Subgroups
of Z^k are named canonically by the row-style Hermite normal form of a
generating matrix, so equality of formal sums is syntactic.  For the
annulus (k = 1) a subgroup is <j> with j >= 0, meaning j*Z; <0> is the
trivial subgroup and is a basis element distinct from the zero sum.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping

HomologyClass = tuple[int, ...]


def as_class(value: int | Iterable[int]) -> HomologyClass:
    """An int (annulus winding) or a non-str vector of ints as a homology
    class; anything else, a float or a str included, raises TypeError."""
    vec = tuple(value) if isinstance(value, Iterable) and not isinstance(value, str) else (value,)
    if not all(type(a) is int for a in vec):  # True and 1.0 compare equal to 1
        raise TypeError(f"a homology class is an int or a vector of ints, got {value!r}")
    if not vec:
        raise ValueError("a homology class needs rank >= 1")
    return vec


def hermite_normal_form(rows: Iterable[Iterable[int]]) -> tuple[HomologyClass, ...]:
    """Canonical basis (row HNF) of the subgroup of Z^k generated by ``rows``.

    Pivots are positive with increasing pivot columns; entries above a
    pivot are reduced into [0, pivot).  All rows must have one rank; zero
    rows are then dropped, so the trivial subgroup canonicalizes to the
    empty basis.
    """
    mat = [list(r) for r in rows]
    k = len(mat[0]) if mat else 0
    if any(len(r) != k for r in mat):
        raise ValueError("generators have mixed ranks")
    for row in mat:
        if not all(type(a) is int for a in row):  # as in as_class
            raise TypeError(f"a generator is a vector of ints, got {tuple(row)!r}")
    basis: list[list[int]] = []
    for col in range(k):
        # Euclid down the column: a zero entry is never picked, so zero rows drop out
        while len(live := [r for r in mat if r[col]]) > 1:
            least = min(live, key=lambda r: abs(r[col]))
            mat = [r if r is least or not r[col] else _reduce(r, least, col) for r in mat]
        if live:
            pivot = live[0] if live[0][col] > 0 else [-a for a in live[0]]
            basis = [_reduce(r, pivot, col) for r in basis] + [pivot]
            mat = [r for r in mat if not r[col]]
    return tuple(map(tuple, basis))


def _reduce(row: list[int], by: list[int], col: int) -> list[int]:
    """``row`` less the multiple of ``by`` that leaves ``row[col] % by[col]`` in column ``col``."""
    q = row[col] // by[col]
    return [a - q * b for a, b in zip(row, by)]


class Subgroup(namedtuple("Subgroup", "ambient_rank basis")):
    """A subgroup of Z^k in canonical (HNF) form, ordered by (rank, basis); a basis element of M.

    ``ambient_rank`` is k; ``basis`` is the tuple of HNF rows, empty when trivial.
    """

    __slots__ = ()

    @classmethod
    def generated_by(cls, *generators: int | Iterable[int]) -> "Subgroup":
        vecs = [as_class(g) for g in generators]
        if not vecs:
            raise ValueError("need at least one generator (possibly zero)")
        return cls(len(vecs[0]), hermite_normal_form(vecs))

    @property
    def is_trivial(self) -> bool:
        return not self.basis

    def __str__(self) -> str:
        if self.is_trivial:
            return "<0>"
        if self.ambient_rank == 1:
            return f"<{self.basis[0][0]}>"
        rows = ",".join("(" + ",".join(str(a) for a in row) + ")" for row in self.basis)
        return f"<{rows}>"


class ModuleElement:
    """A finite integer formal sum of canonical subgroups (zero terms dropped)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Subgroup, int] | None = None) -> None:
        items = (terms or {}).items()
        for s, c in items:
            if type(c) is not int:  # no coercion: 0.5 is not 0, and True is not 1
                raise TypeError(f"coefficient of {s} must be an int, got {c!r}")
        self._terms = {s: c for s, c in items if c}

    @classmethod
    def _of(cls, terms: dict[Subgroup, int]) -> "ModuleElement":
        """The element with ``terms``, int coefficients none of which is 0,
        taken without a copy."""
        elem = object.__new__(cls)
        elem._terms = terms
        return elem

    def terms(self) -> dict[Subgroup, int]:
        return dict(self._terms)

    def __iter__(self) -> Iterator[tuple[Subgroup, int]]:
        """The terms in subgroup order."""
        return iter(sorted(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        out = dict(self._terms)
        for s, c in other._terms.items():
            out[s] = out.get(s, 0) + c
        return ModuleElement(out)

    def __neg__(self) -> "ModuleElement":
        return ModuleElement({s: -c for s, c in self._terms.items()})

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + (-other)

    def __mul__(self, n: int) -> "ModuleElement":
        if type(n) is not int:  # True and 1.0 would pass for 1, and "3" * 2 repeats
            raise TypeError(f"a ModuleElement is scaled by an int, got {n!r}")
        return ModuleElement({s: n * c for s, c in self._terms.items()})

    __rmul__ = __mul__

    def norm(self) -> int:
        """Sum of absolute coefficients."""
        return sum(abs(c) for c in self._terms.values())

    def total_coefficient(self) -> int:
        """Sum of coefficients (augmentation, forgetting the subgroups)."""
        return sum(self._terms.values())

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*{s}" for s, c in self)

    def __repr__(self) -> str:
        return f"ModuleElement({self})"
