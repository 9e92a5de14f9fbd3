"""Outputs on a seeded corpus of codes, compared section by section with stored digests.

Each section renders what the library or the CLI gives on its inputs as
lines of text:

* ``family``: the sharpness family ``D_j`` for j <= 16 and j = 32 to 512
  in powers of two;
* ``products``: three seeded realizable products at each size from 3 to
  40 crossings and at 64 to 1024 in powers of two;
* ``random``: 40 seeded random codes at each n = 1..8, virtual ones
  included;
* ``walks``: the fixtures and the endpoints of 30 seeded 30-step walks
  from each;
* ``cli``: ``compute`` (text and JSON), ``bound``, ``skein`` and
  ``check-moves`` through ``cli.main`` on generated code files;
* ``moves``: ``enumerate_moves`` on seeded codes, ``D_1`` to ``D_8``,
  ``concat_product(D_8, D_8)`` and the endpoints of 63 seeded walks;
* ``hnf``: ``hermite_normal_form`` on seeded matrices of rank 1 to 4;
* ``move_refusals``: ``apply`` and ``inverse_move`` on every listed site
  and a seeded kink and bigon insertion of the fixtures, ``D_1`` to
  ``D_3``, seeded codes and walk endpoints, each as it is and with one
  field malformed: mostly refusals, pinned by type and text.

A code gives its ``serialize`` text, that of its parsed round trip, its
``full_report`` JSON and, up to 8 crossings, the skein report at each
crossing.  ``golden/corpus/<section>.txt`` holds the SHA-256 and the line
count of the section, then an 8-hex-digit hash of each line, so a
mismatch names the section and the first line that differs.  After a
deliberate change of output, rewrite the stored copies with
``PYTHONPATH=src python tests/test_golden_corpus.py`` and review the diff.

The generator is this module's own and draws only through
``Random.random()``, the one sequence Python keeps across versions.  The
walks draw inside ``iter_walk``, as ``check-moves`` does.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest

from knotoid_casson import (
    Item,
    KnotoidCode,
    MoveInstance,
    NonRealizableError,
    OVER,
    UNDER,
    apply,
    build_planar_map,
    concat_product,
    enumerate_moves,
    full_report,
    generate_family,
    hermite_normal_form,
    inverse_move,
    iter_walk,
    mirror,
    parse_knotoid_code,
    read_code_blocks,
    serialize,
    verify_skein,
)
from knotoid_casson.cli import main
from knotoid_casson.codes import fresh_labels
from knotoid_casson.moves import r1_delete_sites, r2_delete_sites, r3_sites

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "golden" / "corpus"
FIXTURES = HERE.parent / "fixtures"


# ---------------------------------------------------------------------------
# the frozen generator: every draw is one Random.random()


def below(rng: random.Random, n: int) -> int:
    return int(rng.random() * n)


def shuffled(rng: random.Random, seq: list) -> list:
    out = list(seq)
    for i in range(len(out) - 1, 0, -1):
        j = below(rng, i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def random_code(rng: random.Random, n: int) -> KnotoidCode:
    items = [Item(kind, f"c{i}") for i in range(1, n + 1) for kind in (OVER, UNDER)]
    signs = {f"c{i}": 1 if rng.random() < 0.5 else -1 for i in range(1, n + 1)}
    return KnotoidCode(shuffled(rng, items), signs)


def realizable(code: KnotoidCode) -> bool:
    try:
        build_planar_map(code)
    except NonRealizableError:
        return False
    return True


def random_realizable_code(rng: random.Random, n: int) -> KnotoidCode:
    while True:
        code = random_code(rng, n)
        if realizable(code):
            return code


def random_product(rng: random.Random, target: int) -> KnotoidCode:
    """A realizable product of ``target`` crossings: family members and random
    realizable factors of at most 5 crossings, each possibly mirrored."""
    code = KnotoidCode((), {})
    while code.n_crossings < target:
        room = target - code.n_crossings
        if room >= 2 and rng.random() < 0.3:
            factor = generate_family(1 + below(rng, min(room // 2, 64)))
        else:
            factor = random_realizable_code(rng, 1 + below(rng, min(5, room)))
        if rng.random() < 0.5:
            factor = mirror(factor)
        code = concat_product(code, factor) if rng.random() < 0.5 else concat_product(factor, code)
    return code


def fixtures() -> list[KnotoidCode]:
    return [code for path in sorted(FIXTURES.glob("[0-9]*.knd"))
            for _, code in read_code_blocks(path.read_text())]


@cache
def walk_endpoints(per_fixture: int) -> tuple[KnotoidCode, ...]:
    out = []
    for code in fixtures():
        for seed in range(per_fixture):
            reached = code
            for _, reached in iter_walk(code, 30, seed):
                pass
            out.append(reached)
    return tuple(out)


# ---------------------------------------------------------------------------
# the sections


def code_lines(code: KnotoidCode) -> list[str]:
    text = serialize(code)
    lines = [text, serialize(parse_knotoid_code(text)),
             json.dumps(full_report(code, "c").to_json_dict())]
    if code.n_crossings <= 8:
        lines.extend(json.dumps(verify_skein(code, label).as_dict()) for label in code.labels)
    return lines


def section_family() -> list[str]:
    js = list(range(1, 17)) + [32, 64, 128, 256, 512]
    return [line for j in js for line in code_lines(generate_family(j))]


def section_products() -> list[str]:
    rng = random.Random(1)
    sizes = list(range(3, 41)) + [64, 128, 256, 512, 1024]
    return [line for n in sizes for _ in range(3) for line in code_lines(random_product(rng, n))]


def section_random() -> list[str]:
    rng = random.Random(2)
    return [line for n in range(1, 9) for _ in range(40) for line in code_lines(random_code(rng, n))]


def section_walks() -> list[str]:
    return [line for code in fixtures() + list(walk_endpoints(30)) for line in code_lines(code)]


def run_cli(argv: list[str]) -> list[str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    return [f"$ {' '.join(argv[:1] + argv[2:])}", f"exit {status}",
            *out.getvalue().splitlines(), "--- stderr", *err.getvalue().splitlines()]


def section_cli() -> list[str]:
    rng = random.Random(3)
    planar_codes = [random_product(rng, 3 + below(rng, 10)) for _ in range(8)]
    mixed = planar_codes[:3] + [random_code(rng, 3 + below(rng, 4)) for _ in range(5)]
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, codes in (("planar", planar_codes), ("mixed", mixed)):
            path = Path(tmp) / f"{name}.knd"
            blocks = (f"name k{i}\n{serialize(code)}" for i, code in enumerate(codes))
            path.write_text("\n---\n".join(blocks))
            for args in (["compute"], ["compute", "--json"], ["bound", "--odd-conjecture"], ["skein"],
                         ["check-moves", "--trials", "2", "--steps", "15", "--seed", "7"]):
                lines.extend(run_cli([args[0], str(path), *args[1:]]))
    return lines


def move_text(move) -> str:
    return (f"{move.kind}:{','.join(map(str, move.gaps))}:{','.join(map(str, move.positions))}"
            f":{','.join(move.labels)}:{','.join(map(str, move.signs))}"
            f":{move.over_first:d}{move.parallel:d}")


def section_moves() -> list[str]:
    rng = random.Random(4)
    codes = [generate_family(j) for j in range(1, 9)]
    codes.append(concat_product(generate_family(8), generate_family(8)))
    codes.extend(random_code(rng, 1 + below(rng, 6)) for _ in range(20))
    codes.extend(random_product(rng, 3 + below(rng, 20)) for _ in range(20))
    codes.extend(walk_endpoints(21))
    return [f"{serialize(code)} | {' '.join(map(move_text, enumerate_moves(code)))}" for code in codes]


def section_hnf() -> list[str]:
    rng = random.Random(5)
    lines = []
    for _ in range(3000):
        rank, rows = 1 + below(rng, 4), below(rng, 6)
        mat = [tuple(below(rng, 201) - 100 for _ in range(rank)) for _ in range(rows)]
        if mat and rng.random() < 0.2:
            mat[below(rng, rows)] = (0,) * rank  # zero rows are dropped
        if rows >= 2 and rng.random() < 0.2:
            mat[-1] = tuple((below(rng, 7) - 3) * a for a in mat[0])  # a dependent row
        if mat and rng.random() < 0.02:
            mat.append((1,) * (rank + 1))  # mixed ranks are refused
        try:
            lines.append(f"{mat} -> {hermite_normal_form(mat)}")
        except ValueError as exc:
            lines.append(f"{mat} -> ValueError: {exc}")
    return lines


KINDS = ("R1Insert", "R2Insert", "R1Delete", "R2Delete", "R3")
FLAGS = (True, False, 0, 1, "no", None)


def seeded_insertions(rng: random.Random, code: KnotoidCode) -> list[MoveInstance]:
    end, (x, y) = len(code.word) + 1, fresh_labels(code, 2)
    sign = 1 if rng.random() < 0.5 else -1
    return [MoveInstance("R1Insert", gaps=(below(rng, end),), labels=(x,), signs=(sign,),
                         over_first=rng.random() < 0.5),
            MoveInstance("R2Insert", gaps=(below(rng, end), below(rng, end)), labels=(x, y),
                         signs=(-sign,), over_first=rng.random() < 0.5, parallel=rng.random() < 0.5)]


def malformed(rng: random.Random, code: KnotoidCode, move: MoveInstance) -> list[MoveInstance]:
    """``move``, then each of its single-field mutants that reads differently."""
    indices = len(code.word) + 2  # -1 to len(word), one past each end
    out = [move]
    for field, extra in (("gaps", below(rng, indices) - 1), ("positions", below(rng, indices) - 1),
                         ("labels", "q0"), ("signs", 1)):
        value = getattr(move, field)
        out += [move._replace(**{field: value[:-1]}), move._replace(**{field: value + (extra,)})]
    out += [move._replace(kind=kind) for kind in (*KINDS, "R4")]
    out += [move._replace(**{flag: value}) for flag in ("over_first", "parallel") for value in FLAGS]
    for field in ("gaps", "positions"):
        value = getattr(move, field)
        for i, p in enumerate(value):
            for q in (p - 1, p + 1, below(rng, indices) - 1):
                out.append(move._replace(**{field: value[:i] + (q,) + value[i + 1:]}))
    for i in range(len(move.labels)):
        for label in (code.labels[below(rng, code.n_crossings)], "k k", 5):
            out.append(move._replace(labels=move.labels[:i] + (label,) + move.labels[i + 1:]))
    for sign in (0, 2, True, 1.0, None, *(-s for s in move.signs[:1])):
        out.append(move._replace(signs=(sign,) + move.signs[1:]))
    return list({repr(m): m for m in out}.values())


def outcome(call, arg, render) -> str:
    try:
        return render(call(arg))
    except Exception as exc:  # the refusal is the output
        return f"{type(exc).__name__}: {exc}"


def section_move_refusals() -> list[str]:
    rng = random.Random(6)
    codes = fixtures() + [generate_family(j) for j in range(1, 4)]
    codes.extend(random_code(rng, 1 + below(rng, 5)) for _ in range(12))
    codes.extend(walk_endpoints(21)[::7])
    lines = []
    for code in codes:
        text = serialize(code)
        sites = [*r1_delete_sites(code), *r2_delete_sites(code), *r3_sites(code),
                 *seeded_insertions(rng, code)]
        for site in sites:
            for move in malformed(rng, code, site):
                lines.append(f"{text} | {move!r} | {outcome(lambda m: apply(code, m), move, serialize)}"
                             f" | {outcome(inverse_move, move, repr)}")
    return lines


SECTIONS = {
    "family": section_family,
    "products": section_products,
    "random": section_random,
    "walks": section_walks,
    "cli": section_cli,
    "moves": section_moves,
    "hnf": section_hnf,
    "move_refusals": section_move_refusals,
}


def line_hash(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:8]


def digest(lines: list[str]) -> str:
    text = "\n".join(lines)
    return f"{hashlib.sha256(text.encode()).hexdigest()} {len(lines)}"


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_corpus_section_matches_its_digest(section):
    lines = SECTIONS[section]()
    head, *hashes = (CORPUS / f"{section}.txt").read_text().splitlines()
    if digest(lines) == head:
        return
    for i, (line, stored) in enumerate(zip(lines, hashes), 1):
        if line_hash(line) != stored:
            pytest.fail(f"{section}: line {i} of {len(lines)} differs from the stored one; "
                        f"it now reads\n{line}")
    pytest.fail(f"{section}: {len(lines)} lines against {len(hashes)} stored "
                f"({digest(lines)} against {head})")


def write_corpus() -> None:
    CORPUS.mkdir(parents=True, exist_ok=True)
    for section, render in SECTIONS.items():
        lines = render()
        (CORPUS / f"{section}.txt").write_text("\n".join([digest(lines), *map(line_hash, lines)]) + "\n")


if __name__ == "__main__":
    write_corpus()
