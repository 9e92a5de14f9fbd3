"""Move rewriting: site detection, application, inverses, invariance, walks."""

import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotoid_casson import codes, moves, planar
from knotoid_casson.analysis import full_report, generate_family
from knotoid_casson.codes import concat_product, parse_knotoid_code, serialize
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
from support import (
    assert_label_signs,
    code_strategy,
    every_code,
    four_six,
    invariant_row,
    move_candidates,
    named_fixtures,
    plant_bigon,
    plant_triangle,
    random_code,
    random_product,
    random_realizable_code,
    realizable_code_strategy,
    reference_apply,
    reference_enumerate_moves,
    reference_r1_delete_sites,
    reference_r2_delete_sites,
    reference_r3_sites,
    reference_rewrite,
    reference_walk,
    site_mutations,
    stored,
    two_one,
)


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
    with pytest.raises(IllegalMoveError) as exc:
        apply(code, MoveInstance(R2_DELETE, positions=(0, 2), labels=("a", "b"),
                                 signs=(1,)))
    assert str(exc.value) == "no R2Delete site at positions (0, 2) with labels ('a', 'b')"
    # a site is accepted only as listed, even in a field its kind ignores
    tri = parse_knotoid_code("Oz Ux Uy Uz Ox Oy ; x=+1 y=-1 z=+1")
    (site,) = r3_sites(tri)
    with pytest.raises(IllegalMoveError):
        apply(tri, site._replace(signs=(1, -1, 1)))


KINK = MoveInstance(R1_INSERT, gaps=(1,), labels=("k",), signs=(1,))
BIGON = MoveInstance(R2_INSERT, gaps=(1, 4), labels=("x", "y"), signs=(1,))
NOT_A_CODE = "result is not a valid code: "


@pytest.mark.parametrize("move, message", [
    *[(move._replace(signs=signs), NOT_A_CODE + f"sign of {move.labels[0]!r} must be")
      for move in (KINK, BIGON) for signs in ((2,), (True,), (1.0,))],
    *[(move._replace(signs=signs), "malformed")
      for move in (KINK, BIGON) for signs in ((), (1, -1))],
    (KINK._replace(gaps=(1, 2)), "malformed"),
    (KINK._replace(labels=("k", "l")), "malformed"),
    (BIGON._replace(gaps=(1,)), "malformed"),
    (BIGON._replace(labels=("x",)), "malformed"),
    (BIGON._replace(gaps=(1, 2, 3), labels=("x", "y", "z")), "malformed"),
    (BIGON._replace(labels=("x", "x")), NOT_A_CODE + "label 'x' must occur exactly twice"),
    (KINK._replace(labels=("a",)), NOT_A_CODE + "label 'a' must occur exactly twice"),
    (BIGON._replace(labels=("x", "b")), NOT_A_CODE + "label 'b' must occur exactly twice"),
    (KINK._replace(labels=("k k",)), NOT_A_CODE + "bad crossing label 'k k'"),
    (BIGON._replace(labels=("x", "k k")), NOT_A_CODE + "bad crossing label 'k k'"),
    (KINK._replace(positions=(1,)), "malformed"),
    (BIGON._replace(positions=(1, 3)), "malformed"),
    (KINK._replace(parallel=False), "malformed"),
    (KINK._replace(gaps=(-1,)), "gap out of range"),
    (KINK._replace(gaps=(5,)), "gap out of range"),
    (BIGON._replace(gaps=(0, 5)), "gap out of range"),
    *[(move._replace(signs=("1",)), NOT_A_CODE + f"sign of {move.labels[0]!r} must be")
      for move in (KINK, BIGON)],
    *[(move._replace(gaps=move.gaps[:-1] + (gap,)), "malformed")
      for move in (KINK, BIGON) for gap in ("1", 1.0, True)],
    (KINK._replace(labels=(5,)), "malformed"),
    (BIGON._replace(labels=("x", None)), "malformed"),
    # over_first and parallel are bools, not read by truthiness
    *[(move._replace(**{field: value}), "malformed")
      for move in (KINK, BIGON) for field in ("over_first", "parallel") for value in ("no", 1, 1.0, "")],
    (BIGON._replace(gaps=(0, 0), labels=("n0", "n1"), parallel="no"), "malformed"),
])
def test_malformed_insertions_raise_illegal_move(move, message):
    code = two_one()
    # each case differs from a legal move in the field it names
    apply(code, KINK if move.kind == R1_INSERT else BIGON)
    for fn in (apply, moves._rewrite):
        with pytest.raises(IllegalMoveError) as exc:
            fn(code, move)
        assert message in str(exc.value)
    assert outcome(moves._rewrite, code, move) == outcome(reference_rewrite, code, move)


@pytest.mark.parametrize("move, message", [
    (KINK._replace(labels=("a",), signs=(2,)), "label 'a' must occur exactly twice, once over and once under"),
    (BIGON._replace(labels=("x", "a"), signs=(True,)), "label 'a' must occur exactly twice, once over and once under"),
    (BIGON._replace(labels=("b", "a")), "label 'a' must occur exactly twice, once over and once under"),
    (BIGON._replace(labels=("a", "b"), signs=(1.0,)), "label 'a' must occur exactly twice, once over and once under"),
    (BIGON._replace(labels=("a", "a"), signs=(2,)), "label 'a' must occur exactly twice, once over and once under"),
    (BIGON._replace(labels=("k k", "a")), "bad crossing label 'k k'"),
    (BIGON._replace(labels=("a", "k k")), "bad crossing label 'k k'"),
    (KINK._replace(labels=("k k",), signs=(2,)), "bad crossing label 'k k'"),
])
def test_insertions_with_two_faults_raise_the_first_check_of_the_result(move, message):
    # a label that is not fresh, a second such label, a bad sign or a bad label:
    # the error is the one building the result as a code raises first
    code = two_one()
    expected = (IllegalMoveError, f"{move.kind} {NOT_A_CODE}{message}")
    for fn in (apply, moves._rewrite, reference_rewrite):
        assert outcome(fn, code, move) == expected


def test_random_insertions_match_the_reference():
    # labels fresh, reused, repeated or malformed; signs of every type; gaps one
    # past either end: apply raises what the reference raises, or builds its code
    rng = random.Random(2310)
    signs = (1, -1, 0, 2, True, 1.0, "1", None)
    for _ in range(300):
        code = random_code(rng, rng.randint(0, 6))
        pool = ["n0", "n1", "a b", "", "x'", *code.labels]
        end = len(code.word) + 1
        for _ in range(10):
            kink = rng.random() < 0.5
            count = 1 if kink else 2
            move = MoveInstance(
                R1_INSERT if kink else R2_INSERT,
                gaps=tuple(rng.randint(-1, end) for _ in range(count)),
                labels=tuple(rng.choice(pool) for _ in range(count)),
                signs=(rng.choice(signs),), over_first=rng.random() < 0.5,
                parallel=kink or rng.random() < 0.5,
            )
            assert outcome(apply, code, move) == outcome(reference_apply, code, move), move


def test_unknown_move_kind_raises_illegal_move():
    move = MoveInstance("R4", positions=(0,), labels=("a",))
    for fn in (lambda m: apply(two_one(), m), inverse_move):
        with pytest.raises(IllegalMoveError, match="unknown move kind 'R4'"):
            fn(move)


@pytest.mark.parametrize("move", [
    MoveInstance(R2_INSERT, gaps=(1,)),
    MoveInstance(R2_DELETE, positions=(1, 2, 3)),
    MoveInstance(R1_INSERT),
    # a deletion needs a label per block and one sign
    MoveInstance(R1_DELETE, positions=(1,)),
    MoveInstance(R1_DELETE, positions=(1,), labels=("a",)),
    MoveInstance(R1_DELETE, positions=(1,), signs=(1,)),
    MoveInstance(R1_DELETE, positions=(1,), labels=("a", "b"), signs=(1,)),
    MoveInstance(R1_DELETE, positions=(1,), labels=("a",), signs=(1, -1)),
    MoveInstance(R2_DELETE, positions=(1, 3)),
    MoveInstance(R2_DELETE, positions=(1, 3), labels=("x", "y")),
    MoveInstance(R2_DELETE, positions=(1, 3), labels=("x",), signs=(1,)),
    MoveInstance(R2_DELETE, positions=(1, 3), labels=("x", "y"), signs=(1, -1)),
    # and no gaps
    MoveInstance(R1_DELETE, gaps=(0,), positions=(1,), labels=("a",), signs=(1,)),
    MoveInstance(R2_DELETE, gaps=(0, 2), positions=(1, 3), labels=("x", "y"), signs=(1,)),
    # a triangle needs three positions and three labels, and no gaps or signs
    MoveInstance(R3, gaps=(1,)),
    MoveInstance(R3),
    MoveInstance(R3, positions=(0, 2), labels=("x", "y", "z")),
    MoveInstance(R3, positions=(0, 2, 4), labels=("x", "y")),
    MoveInstance(R3, positions=(0, 2, 4), labels=("x", "y", "z"), signs=(1,)),
    MoveInstance(R3, gaps=(1,), positions=(0, 2, 4), labels=("x", "y", "z")),
    # an insertion's over_first and parallel are bools
    MoveInstance(R2_INSERT, gaps=(0, 0), labels=("n0", "n1"), signs=(1,), parallel="no"),
    MoveInstance(R2_INSERT, gaps=(1, 4), labels=("x", "y"), signs=(1,), over_first=0),
    MoveInstance(R1_INSERT, gaps=(1,), labels=("k",), signs=(1,), over_first="", parallel=1),
    # and so are a deletion's or a triangle's, whose labels are strs
    MoveInstance(R2_DELETE, positions=(1, 3), labels=("x", "y"), signs=(1,), parallel="no"),
    MoveInstance(R1_DELETE, positions=(1,), labels=("a",), signs=(1,), over_first="yes"),
    MoveInstance(R3, positions=(0, 2, 4), labels=("x", "y", "z"), over_first=0),
    MoveInstance(R2_DELETE, positions=(1, 3), labels=("x", 5), signs=(1,)),
])
def test_inverse_of_a_malformed_move_raises_what_apply_raises(move):
    message = f"malformed {move.kind}: {move}"
    with pytest.raises(IllegalMoveError) as exc:
        inverse_move(move)
    assert str(exc.value) == message
    if move.kind in (R1_INSERT, R2_INSERT):  # apply rejects a deletion or triangle as no listed site
        with pytest.raises(IllegalMoveError) as exc:
            apply(two_one(), move)
        assert str(exc.value) == message


def test_label_signs_stored_on_every_move_result():
    for code in named_fixtures().values():
        for move in enumerate_moves(code):
            assert_label_signs(apply(code, move))
    # a virtual start whose bigon deletion makes it realizable
    virtual = plant_bigon(four_six(), (0, 3), 1, True, True)
    assert not planar.trace_faces(virtual).realizable
    for seed, start in enumerate([*named_fixtures().values(), virtual]):
        walked = list(iter_walk(start, 60, seed))
        assert walked
        for _, reached in walked:
            assert_label_signs(reached)


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
    code = two_one()
    cap = code.n_crossings + moves._GROWTH_CAP
    largest = max(current.n_crossings for seed in range(3, 8) for _, current in iter_walk(code, 200, seed))
    # insertions go on up to the cap and stop there, so a walk exceeds it by at most one R2
    assert cap <= largest <= cap + 2


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


# --- legality from faces against generate-and-test -----------------------------


def outcome(fn, code, move):
    """``(None, every stored field of the result)``, or the type and text of what ``fn`` raised."""
    try:
        return None, stored(fn(code, move))
    except Exception as exc:
        return type(exc), str(exc)


SITE_KINDS = (R1_DELETE, R2_DELETE, R3)


def site_mutants(code, sites, rng):
    """Every single-field mutation of every site in ``sites``."""
    return [mutant for move in sites for mutant in site_mutations(code, move, rng)]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_apply_matches_generate_and_test_on_every_code_up_to_3(n):
    rng = random.Random(n)
    for code in every_code(n):
        assert r1_delete_sites(code) == reference_r1_delete_sites(code)
        assert r2_delete_sites(code) == reference_r2_delete_sites(code)
        assert r3_sites(code) == reference_r3_sites(code)
        candidates = move_candidates(code)
        expected = [outcome(reference_apply, code, move) for move in candidates]
        assert [outcome(apply, code, move) for move in candidates] == expected, serialize(code)
        sites = [move for move in candidates if move.kind in SITE_KINDS]
        for move in site_mutants(code, sites, rng):
            assert outcome(apply, code, move) == outcome(reference_apply, code, move), move
        legal = [
            move for move, (raised, _) in zip(candidates, expected)
            if raised is None and (move.kind != R2_INSERT or move.parallel)
        ]
        assert enumerate_moves(code) == legal, serialize(code)


def test_sites_match_reference_on_every_code_of_4():
    codes = sites = 0
    for code in every_code(4):
        listed = r1_delete_sites(code) + r2_delete_sites(code) + r3_sites(code)
        assert listed == (reference_r1_delete_sites(code) + reference_r2_delete_sites(code)
                          + reference_r3_sites(code)), serialize(code)
        for move in listed:
            assert outcome(apply, code, move) == outcome(reference_apply, code, move), move
        codes += 1
        sites += len(listed)
    assert (codes, sites) == (26880, 33120)


def assert_moves_invert(code, listed):
    """Each listed move, deletions included, is undone by its inverse.

    On a virtual code only bigon deletions are listed, each reaching a
    realizable code; there the inverse rewrite restores the code but, its
    result being virtual, is not a move.
    """
    realizable = planar.trace_faces(code).realizable
    for move in listed:
        stepped = apply(code, move)
        if realizable:
            assert apply(stepped, inverse_move(move)) == code, move
        else:
            assert move.kind == R2_DELETE
            with pytest.raises(IllegalMoveError):
                apply(stepped, inverse_move(move))
            assert moves._rewrite(stepped, inverse_move(move)) == code, move


def test_enumerated_moves_invert_on_every_code_up_to_3():
    kinds = set()
    for n in range(4):
        for code in every_code(n):
            listed = enumerate_moves(code)
            assert_moves_invert(code, listed)
            kinds.update(move.kind for move in listed)
    assert kinds == {R1_INSERT, R1_DELETE, R2_INSERT, R2_DELETE, R3}


@st.composite
def code_with_sites(draw):
    """A realizable or virtual code of at most 40 crossings, sometimes with a
    bigon or a triangle planted without any legality check."""
    code = draw(st.one_of(realizable_code_strategy(max_crossings=34), code_strategy(max_crossings=34)))
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 2))):
        gaps = [rng.randrange(len(code.word) + 1) for _ in range(3)]
        if rng.random() < 0.5:
            code = plant_bigon(code, gaps[:2], rng.choice((1, -1)), rng.random() < 0.5, rng.random() < 0.5)
        else:
            code = plant_triangle(code, gaps, rng.random() < 0.5)
    return code


@settings(max_examples=60, deadline=None)
@given(code_with_sites(), st.data())
def test_apply_matches_generate_and_test_up_to_40(code, data):
    candidates = move_candidates(code)
    rng = data.draw(st.randoms(use_true_random=False))
    sites = [move for move in candidates if move.kind in SITE_KINDS]
    tried = sites + site_mutants(code, sites, rng)
    for move in tried + data.draw(st.lists(st.sampled_from(candidates), max_size=60)):
        assert outcome(apply, code, move) == outcome(reference_apply, code, move), move


@settings(max_examples=30, deadline=None)
@given(code_with_sites(), st.data())
def test_enumerated_moves_invert_up_to_40(code, data):
    listed = enumerate_moves(code)
    tried = [move for move in listed if move.kind in SITE_KINDS]
    insertions = [move for move in listed if move.kind not in SITE_KINDS]
    if insertions:
        tried += data.draw(st.lists(st.sampled_from(insertions), max_size=40))
    assert_moves_invert(code, tried)


@settings(max_examples=80, deadline=None)
@given(code_with_sites())
def test_site_detection_matches_reference_up_to_40(code):
    assert r1_delete_sites(code) == reference_r1_delete_sites(code)
    assert r2_delete_sites(code) == reference_r2_delete_sites(code)
    assert r3_sites(code) == reference_r3_sites(code)


@settings(max_examples=25, deadline=None)
@given(code_with_sites().filter(lambda code: code.n_crossings <= 10))
def test_enumerate_moves_matches_reference(code):
    assert enumerate_moves(code) == reference_enumerate_moves(code)


def test_enumerate_moves_matches_reference_at_32_crossings():
    code = concat_product(generate_family(8), generate_family(8))
    assert enumerate_moves(code) == reference_enumerate_moves(code)


def test_rewrite_matches_the_reference_rewrite_from_64_to_300_crossings():
    rng = random.Random(15)
    bases = [generate_family(32), generate_family(128),
             random_product(rng, rng.randint(100, 300)), random_product(rng, rng.randint(100, 300))]
    kinds = set()
    for base in bases:
        # the same code with two bigons and two triangles planted, legal or not
        planted = base
        for _ in range(2):
            gaps = [rng.randrange(len(planted.word) + 1) for _ in range(3)]
            planted = plant_bigon(planted, gaps[:2], rng.choice((1, -1)),
                                  rng.random() < 0.5, rng.random() < 0.5)
            planted = plant_triangle(planted, gaps, rng.random() < 0.5)
        for code in (base, planted):
            tried = r1_delete_sites(code) + r2_delete_sites(code) + r3_sites(code)
            for _ in range(50):
                tried.append(moves._random_candidate(code, rng.choice((R1_INSERT, R2_INSERT)), rng))
            for move in tried:
                assert stored(moves._rewrite(code, move)) == stored(reference_rewrite(code, move)), move
            kinds.update(move.kind for move in tried)
    assert kinds == {R1_INSERT, R1_DELETE, R2_INSERT, R2_DELETE, R3}


def test_walks_match_reference_walk():
    rng = random.Random(20000)
    fixtures = list(named_fixtures().values())
    for seed in range(20000, 20200):
        if seed % 4 == 0:
            code = fixtures[seed // 4 % len(fixtures)]
        elif seed % 4 == 3:
            # often virtual, with a bigon whose deletion may make it realizable
            code = random_code(rng, rng.randint(1, 6))
            gaps = [rng.randrange(len(code.word) + 1) for _ in range(2)]
            code = plant_bigon(code, gaps, rng.choice((1, -1)), rng.random() < 0.5, True)
        else:
            code = random_realizable_code(rng, rng.randint(1, 6))
        walked = [(move, stored(reached)) for move, reached in iter_walk(code, 30, seed)]
        assert walked == [(move, stored(reached)) for move, reached in reference_walk(code, 30, seed)], seed


@pytest.mark.parametrize("weights", [moves._GROW_WEIGHTS, moves._SHRINK_WEIGHTS])
def test_walk_kind_draw_matches_random_choices(weights):
    cum = moves._GROW_CUM if weights == moves._GROW_WEIGHTS else moves._SHRINK_CUM
    for seed in range(200):
        drawn, chosen = random.Random(seed), random.Random(seed)
        for _ in range(500):
            kind = moves._WALK_KINDS[bisect.bisect(cum, drawn.random() * cum[-1], 0, moves._LAST_KIND)]
            assert kind == chosen.choices(moves._WALK_KINDS, weights)[0], seed


def test_walks_never_check_a_whole_code(monkeypatch):
    fixtures = named_fixtures()
    calls = []
    check = codes._check_passes
    monkeypatch.setattr(codes, "_check_passes", lambda *args: calls.append(args) or check(*args))
    for name, code in fixtures.items():
        for seed in range(10):
            walked = list(iter_walk(code, 30, seed))
            assert walked, (name, seed)
    assert calls == []


def test_moves_trace_the_faces_of_the_moved_code_once(monkeypatch):
    # asked: the face records moves asks for; traced: the real tracings, whoever asks
    asked, traced, rewrites = [], [], []
    trace_faces, trace, rewrite = planar.trace_faces, planar._trace, moves._rewrite
    monkeypatch.setattr(moves, "trace_faces", lambda code: asked.append(code) or trace_faces(code))
    monkeypatch.setattr(planar, "_trace", lambda code: traced.append(code) or trace(code))
    monkeypatch.setattr(moves, "_rewrite", lambda code, move: rewrites.append(move) or rewrite(code, move))
    code = named_fixtures()["4_6"]
    legal = enumerate_moves(code)
    assert asked == traced == [code]
    traced.clear()
    for move in legal:
        asked.clear()
        apply(code, move)
        assert asked == [code]
    assert traced == []  # the code keeps its faces
    # a walk with a report at each step traces each code it reaches once, in
    # the walk or in the report, and rewrites only performed steps
    rewrites.clear()
    walk = []
    for move, current in iter_walk(code, 200, seed=5):
        full_report(current)
        walk.append((move, current))
    assert [move for move, _ in walk] == rewrites and len(walk) > 100
    assert len(traced) == len(walk) and all(t is c for t, (_, c) in zip(traced, walk))
    # reported walks from each fixture: one tracing per step, plus one per fixture
    traced.clear()
    fixtures = list(named_fixtures().values())
    steps = 0
    for seed in range(40):
        for start in fixtures:
            for _, current in iter_walk(start, 30, seed):
                full_report(current)
                steps += 1
    assert steps > 3000 and len(traced) == steps + len(fixtures)
    assert len({id(t) for t in traced}) == len(traced)
