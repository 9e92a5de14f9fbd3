"""Move rewriting: site detection, application, inverses, invariance, walks."""

import random

import pytest

from knotoid_casson.analysis import full_report
from knotoid_casson.codes import parse_knotoid_code, serialize
from knotoid_casson.moves import (
    IllegalMoveError,
    MoveInstance,
    R1_DELETE,
    R1_INSERT,
    R2_DELETE,
    R2_INSERT,
    R3,
    apply,
    enumerate_moves,
    inverse_move,
    iter_walk,
    r1_delete_sites,
    r2_delete_sites,
    r3_sites,
    random_walk,
)
from knotoid_casson.skew import casson_pm
from support import named_fixtures, two_one


def invariant_row(code, name=""):
    r = full_report(code, name)
    return (r.c_plus, r.c_minus, r.ch_plus, r.ch_minus)


def test_kink_has_delete_site_at_zero():
    kink = parse_knotoid_code("Oa Ua ; a=+1")
    sites = r1_delete_sites(kink)
    assert [(m.kind, m.positions) for m in sites] == [(R1_DELETE, (0,))]
    assert serialize(apply(kink, sites[0])) == ""


def test_trivial_code_only_insertions():
    moves = enumerate_moves(parse_knotoid_code(""))
    assert moves
    assert {m.kind for m in moves} <= {R1_INSERT, R2_INSERT}


def test_two_one_is_reduced():
    # 2-crossing minimal: exhaustive pattern scan finds no deletions
    moves = enumerate_moves(two_one())
    assert not [m for m in moves if m.kind in (R1_DELETE, R2_DELETE)]
    assert [m for m in moves if m.kind == R1_INSERT]
    assert [m for m in moves if m.kind == R2_INSERT]


def test_r2_delete_requires_opposite_signs():
    same = parse_knotoid_code("Oa Ob Oc Ua Ub Uc ; a=+1 b=+1 c=-1")
    for m in r2_delete_sites(same):
        x, y = m.labels
        assert same.signs[x] == -same.signs[y]


def test_r1_insert_then_delete_roundtrip():
    code = two_one()
    move = MoveInstance(R1_INSERT, gaps=(len(code.word),), labels=("k0",), signs=(-1,),
                        over_first=False)
    bigger = apply(code, move)
    assert bigger.n_crossings == 3
    assert serialize(apply(bigger, inverse_move(move))) == serialize(code)


def test_r2_insert_into_trivial():
    move = MoveInstance(R2_INSERT, gaps=(0, 0), labels=("x", "y"), signs=(1,))
    poked = apply(parse_knotoid_code(""), move)
    assert serialize(poked) == "Ox Oy Ux Uy ; x=+1 y=-1"
    assert casson_pm(poked) == (0, 0)
    assert serialize(apply(poked, inverse_move(move))) == ""


def test_r2_insert_nonplanar_candidate_rejected():
    # a same-gap poke with the under block first and reversed sign can be
    # planar, but crossing the blocks over distant gaps often is not; pick a
    # concrete rejected candidate from the fixture's enumeration complement.
    code = two_one()
    legal = {m for m in enumerate_moves(code) if m.kind == R2_INSERT}
    rejected = None
    for g_over in range(len(code.word) + 1):
        for g_under in range(len(code.word) + 1):
            for sign in (1, -1):
                cand = MoveInstance(R2_INSERT, gaps=(g_over, g_under),
                                    labels=("n0", "n1"), signs=(sign,))
                if cand not in legal:
                    rejected = cand
                    break
    assert rejected is not None
    with pytest.raises(IllegalMoveError):
        apply(code, rejected)


def test_apply_validates_sites():
    code = two_one()
    with pytest.raises(IllegalMoveError):
        apply(code, MoveInstance(R1_DELETE, positions=(0,), labels=("a",),
                                 signs=(1,), over_first=True))
    with pytest.raises(IllegalMoveError):
        apply(code, MoveInstance(R1_INSERT, gaps=(0,), labels=("a",), signs=(1,)))
    with pytest.raises(IllegalMoveError):
        apply(code, MoveInstance(R2_DELETE, positions=(0, 2), labels=("a", "b"),
                                 signs=(1,)))


def test_r3_swap_and_involution():
    tri = parse_knotoid_code("Oz Ux Uy Uz Ox Oy ; x=+1 y=-1 z=+1")
    sites = r3_sites(tri)
    assert len(sites) == 1
    move = sites[0]
    assert move.labels == ("x", "y", "z")
    moved = apply(tri, move)
    assert serialize(moved) == "Ux Oz Uz Uy Oy Ox ; x=+1 z=+1 y=-1"
    assert inverse_move(move) == move
    assert serialize(apply(moved, move)) == serialize(tri)
    # the moved word matches the mirror-image arrangement and is found again
    assert r3_sites(moved) == [move]


def test_enumerated_moves_invert_exactly():
    for name, code in named_fixtures().items():
        for move in enumerate_moves(code):
            stepped = apply(code, move)
            back = apply(stepped, inverse_move(move))
            assert serialize(back) == serialize(code), (name, move)


def test_enumerated_moves_preserve_all_invariants():
    for name, code in named_fixtures().items():
        base = invariant_row(code, name)
        for move in enumerate_moves(code):
            assert invariant_row(apply(code, move), name) == base, (name, move)


def test_walk_deterministic_per_seed():
    code = named_fixtures()["4_6"]
    a = serialize(random_walk(code, 25, seed=7))
    b = serialize(random_walk(code, 25, seed=7))
    c = serialize(random_walk(code, 25, seed=8))
    assert a == b
    assert a != serialize(code) or c != serialize(code)


def test_walk_zero_steps_identity():
    code = named_fixtures()["5_19"]
    assert serialize(random_walk(code, 0, seed=1)) == serialize(code)


def test_walk_two_one_keeps_values():
    code = two_one()
    final = random_walk(code, 20, seed=7)
    assert casson_pm(final) == (1, 0)


def test_walks_preserve_invariants_stepwise():
    for name, code in named_fixtures().items():
        base = invariant_row(code, name)
        for seed in range(4):
            performed = 0
            for _move, current in iter_walk(code, 12, seed):
                performed += 1
                assert invariant_row(current, name) == base, (name, seed)
            assert performed > 0


def test_walk_growth_cap_respected():
    rng_sizes = []
    code = two_one()
    for _move, current in iter_walk(code, 200, seed=3, growth_cap=6):
        rng_sizes.append(current.n_crossings)
    # insertions stop at the cap, so the walk can exceed it by at most one R2
    assert max(rng_sizes) <= code.n_crossings + 6 + 2


def test_every_walk_step_is_enumerable_kind():
    kinds = {R1_INSERT, R1_DELETE, R2_INSERT, R2_DELETE, R3}
    seen = set()
    for seed in range(12):
        for move, _ in iter_walk(named_fixtures()["4_6"], 40, seed):
            assert move.kind in kinds
            seen.add(move.kind)
    assert {R1_INSERT, R2_INSERT, R1_DELETE, R2_DELETE} <= seen


def test_walks_reach_r3_sites():
    # triangle moves appear once bigons and kinks stack up
    found = False
    tri = parse_knotoid_code("Oz Ux Uy Uz Ox Oy ; x=+1 y=-1 z=+1")
    for seed in range(30):
        for move, _ in iter_walk(tri, 40, seed):
            if move.kind == R3:
                found = True
                break
        if found:
            break
    assert found


def test_random_walk_on_random_realizable_codes():
    from support import random_realizable_code

    rng = random.Random(44)
    for _ in range(8):
        code = random_realizable_code(rng, rng.randrange(1, 6))
        base = invariant_row(code)
        for _move, current in iter_walk(code, 15, seed=rng.randrange(10**6)):
            assert invariant_row(current) == base
