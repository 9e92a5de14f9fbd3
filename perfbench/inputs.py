"""Seeded inputs of the three workloads, with their expected results.

``generate(workload, seed, work)`` writes the code files the program reads
into ``work/codes`` and everything the checks need into
``work/expected.json``.  Only the benchmark's own ``oracle`` is used here,
so generating inputs neither imports nor times the program.  The sizes of
every input set are fixed; the seed changes labels, crossing signs, word
shapes and walk seeds, never the sizes of the codes or the units of a round.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle
from oracle import Code

# Each round reports every code of its workload once, except where a size
# class is repeated so that the median report of a round (report_ms_p50)
# falls in the middle of one class and is timed many times per run.

# sharp_family: D_j for n = 2j crossings; a round reports D_128 twenty times
FAMILY_SIZES = (16, 32, 64, 128, 256, 512, 1024)
FAMILY_MEDIAN_SIZE, FAMILY_MEDIAN_REPEATS = 128, 20

# product_chain: (crossings, products per round) of products of random
# realizable factors of 2..8 crossings; the median report is a 128-crossing one
PRODUCT_MIX = ((64, 4), (128, 8), (256, 2), (512, 1), (1024, 1))
FACTOR_CROSSINGS = (2, 8)

# Every run checks the paper's three table knotoids and their switched images
# once, outside the timed rounds.
PAPER_TEXTS = {
    "2_1": "Oa Ub Ua Ob ; a=+1 b=+1",
    "4_6": "Ua Ob Uc Od Oa Ud Ub Oc ; a=-1 b=+1 c=+1 d=-1",
    "5_19": "Ua Ob Uc Od Oc Ub Ue Oa Oe Ud ; a=-1 b=+1 c=+1 d=+1 e=+1",
}
# The published rows (C+, C-, CH+, CH-), compared up to switching all crossings.
PAPER_ROWS = {
    "2_1": (1, 0, {1: 1}, {}),
    "4_6": (1, 0, {2: 1}, {}),
    "5_19": (0, 0, {}, {}),
}

# move_walks: seeded walks from random realizable bases whose crossing
# numbers cycle through WALK_BASE_SIZES.  The cost of a step depends on the
# walk, so a round holds many walks to keep its mean steady across seeds;
# 7 is repeated so that the largest class (largest_report_s) holds 180 codes.
WALKS = 480
WALK_STEPS = 30
WALK_BASE_SIZES = (2, 3, 4, 5, 6, 7, 7, 7)
ENUMERATE_WALKS = (0, 1, 2, 3, 4, 5)
# Acceptance criterion 6 of the test suite walks with seeds 20000..20199;
# these walks draw theirs from a disjoint range.
WALK_SEED_BASE = 1_000_000

WORKLOADS = ("sharp_family", "product_chain", "move_walks")


def _labels(rng: random.Random, count: int, prefix: str) -> list[str]:
    return [f"{prefix}{v:x}" for v in rng.sample(range(16 ** 6), count)]


def random_realizable(rng: random.Random, n: int, labels: list[str]) -> Code:
    """Uniform random word and signs, redrawn until the code is spherical."""
    items = [(oracle.OVER, lab) for lab in labels] + [(oracle.UNDER, lab) for lab in labels]
    while True:
        # sorting by uniform keys is a uniform shuffle, and cheaper than shuffle()
        keys = [rng.random() for _ in items]
        word = tuple(item for _, item in sorted(zip(keys, items)))
        bits = rng.getrandbits(len(labels))
        code = Code(word, {lab: 1 if bits >> i & 1 else -1 for i, lab in enumerate(labels)})
        if oracle.is_realizable(code):
            return code


def _write_blocks(path: Path, blocks: list[tuple[str, Code]]) -> None:
    path.write_text("".join(f"name {name}\n{oracle.code_text(code)}\n---\n" for name, code in blocks))


def _paper_table(rng: random.Random) -> list[dict]:
    """The table knotoids and their switched images, each with one seeded skein crossing."""
    rows = []
    for table, text in PAPER_TEXTS.items():
        code = oracle.parse_code(text)
        for name, c in ((table, code), (f"{table}_switched", oracle.switch_all(code))):
            rows.append({
                "name": name,
                "table": table,
                "text": oracle.code_text(c),
                "expected": oracle.invariants(c, name),
                "skein": oracle.skein_sides(c, rng.choice(sorted(c.signs))),
            })
    return rows


def _probe(rng: random.Random, name: str, code: Code, expected: dict) -> dict:
    """A small code of the workload on which the traced run times the moves layer."""
    return {"name": name, "text": oracle.code_text(code), "expected": expected,
            "walk_seed": rng.randrange(WALK_SEED_BASE, 2 * WALK_SEED_BASE)}


def _sharp_family(rng: random.Random, codes: Path) -> dict:
    entries, probes = [], []
    for n in FAMILY_SIZES:
        code = oracle.family_code(n // 2, _labels(rng, n, "k"))
        name = f"D_{n}"
        _write_blocks(codes / f"d{n:04d}.knd", [(name, code)])
        entries.append({"name": name, "expected": oracle.family_row(n // 2, name)})
        if n == FAMILY_SIZES[0]:
            probes.append(_probe(rng, name, code, entries[-1]["expected"]))
    # the repeats of the median size come in groups between the other
    # members, so that they sample the machine at several moments of a round
    median, others = f"D_{FAMILY_MEDIAN_SIZE}", [f"D_{n}" for n in FAMILY_SIZES if n != FAMILY_MEDIAN_SIZE]
    groups = len(others) + 1
    round_names = []
    for i in range(groups):
        extra = 1 if i < FAMILY_MEDIAN_REPEATS % groups else 0
        round_names += [median] * (FAMILY_MEDIAN_REPEATS // groups + extra)
        round_names += others[i:i + 1]
    return {"entries": entries, "probes": probes, "round": round_names}


def _product_chain(rng: random.Random, codes: Path) -> dict:
    lo, hi = FACTOR_CROSSINGS
    entries, probes = [], []
    sizes = [n for n, count in PRODUCT_MIX for _ in range(count)]
    for i, n in enumerate(sizes):
        labels = _labels(rng, n, "p")
        factors: list[Code] = []
        left = n
        while left:
            k = left if left <= hi else rng.randint(lo, min(hi, left - lo))
            factors.append(random_realizable(rng, k, labels[n - left:n - left + k]))
            left -= k
        word = tuple(item for f in factors for item in f.word)
        signs = {lab: s for f in factors for lab, s in f.signs.items()}
        name = f"P_{n}.{i}"
        _write_blocks(codes / f"p{i:02d}.knd", [(name, Code(word, signs))])
        rows = [oracle.invariants(f) for f in factors]
        entries.append({
            "name": name,
            "expected": oracle.product_row(name, rows),
            "factors": len(factors),
        })
        if i == 0:
            probes.append(_probe(rng, f"{name}.factor0", factors[0], rows[0]))
    return {"entries": entries, "probes": probes, "round": [e["name"] for e in entries]}


def _move_walks(rng: random.Random, codes: Path) -> dict:
    bases = []
    for w in range(WALKS):
        n = WALK_BASE_SIZES[w % len(WALK_BASE_SIZES)]
        bases.append((f"w{w:03d}", random_realizable(rng, n, _labels(rng, n, "m"))))
    _write_blocks(codes / "bases.knd", bases)
    seeds = rng.sample(range(WALK_SEED_BASE, 2 * WALK_SEED_BASE), WALKS)
    return {
        "entries": [
            {"name": name, "expected": oracle.invariants(code, name), "walk_seed": seed}
            for (name, code), seed in zip(bases, seeds)
        ],
        "steps": WALK_STEPS,
        "enumerate_walks": list(ENUMERATE_WALKS),
    }


_GENERATORS = {
    "sharp_family": _sharp_family,
    "product_chain": _product_chain,
    "move_walks": _move_walks,
}


def generate(workload: str, seed: int, work: Path) -> None:
    """Write ``work/codes/*.knd`` and ``work/expected.json`` for one seed."""
    codes = work / "codes"
    codes.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}")
    plan = _GENERATORS[workload](rng, codes)
    plan["paper"] = _paper_table(rng)
    plan["workload"] = workload
    plan["seed"] = seed
    (work / "expected.json").write_text(json.dumps(plan))
