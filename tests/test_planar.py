"""Planar map construction, realizability, and annulus loop classes."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotoid_casson.analysis import generate_family
from knotoid_casson.codes import (
    concat_product,
    mirror,
    parse_knotoid_code,
    read_code_blocks,
    reverse,
    switch_all,
    switch_crossing,
)
from knotoid_casson.moves import r3_sites
from knotoid_casson.planar import (
    RIGHT_TO_LEFT,
    NonRealizableError,
    _loop_classes,
    all_loop_classes,
    build_planar_map,
    dual_arc,
    trace_faces,
)
from knotoid_casson.skew import casson_homological

from support import (
    FIXTURES,
    all_simple_dual_paths,
    code_strategy,
    every_code,
    five_nineteen,
    four_six,
    loop_class_along,
    loop_edges,
    named_fixtures,
    random_code,
    random_realizable_code,
    realizable_code_strategy,
    reference_dual_arc_steps,
    reference_trace_faces,
    two_one,
)


def test_two_one_map_counts():
    pm = build_planar_map(two_one())
    assert (pm.num_edges, pm.num_faces) == (5, 3)
    assert pm.realizable


def test_trivial_map():
    pm = build_planar_map(parse_knotoid_code(""))
    assert (pm.num_edges, pm.num_faces) == (1, 1)
    assert pm.realizable
    assert pm.leg_face == pm.head_face


@pytest.mark.parametrize("text", ["Oa Ua ; a=+1", "Oa Ua ; a=-1", "Ua Oa ; a=+1", "Ua Oa ; a=-1"])
def test_kinks_realizable_single_endpoint_face(text):
    code = parse_knotoid_code(text)
    pm = build_planar_map(code)
    assert pm.num_faces == 2
    assert pm.leg_face == pm.head_face
    assert dual_arc(pm).steps == ()
    assert all_loop_classes(code) == {"a": (0,)}


def test_nonrealizable_signed_variant():
    # same word as the 2-crossing fixture, one sign flipped: genus 1
    with pytest.raises(NonRealizableError) as exc:
        build_planar_map(parse_knotoid_code("Oa Ub Ua Ob ; a=+1 b=-1"))
    assert exc.value.genus == 1
    with pytest.raises(NonRealizableError):
        all_loop_classes(parse_knotoid_code("Oa Ub Ua Ob ; a=+1 b=-1"))


@pytest.mark.parametrize("text, genus", [
    ("Oa Ub Ua Ob ; a=+1 b=-1", 1),
    ("Oc5 Uc1 Oc4 Oc3 Uc4 Uc6 Uc2 Uc3 Oc1 Oc2 Oc6 Uc5 ; c5=-1 c1=+1 c4=-1 c3=+1 c6=-1 c2=+1", 2),
    ("Uc6 Uc5 Uc4 Oc6 Oc2 Oc5 Oc3 Oc1 Uc3 Uc1 Uc2 Oc4 ; c6=+1 c5=-1 c4=+1 c2=-1 c3=-1 c1=-1", 3),
])
def test_nonrealizable_error_names_the_euler_characteristic(text, genus):
    code = parse_knotoid_code(text)
    assert not trace_faces(code).realizable
    with pytest.raises(NonRealizableError) as exc:
        build_planar_map(code)
    assert str(exc.value) == f"code has no spherical diagram (Euler characteristic {2 - 2 * genus})"
    assert exc.value.genus == genus


def face_record(pm):
    return pm.num_faces, pm.dart_face, pm.leg_face, pm.head_face


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_trace_faces_matches_reference_on_every_code_up_to_3(n):
    for code in every_code(n):
        assert face_record(trace_faces(code)) == face_record(reference_trace_faces(code)), code


@given(st.one_of(code_strategy(max_crossings=40), realizable_code_strategy(max_crossings=40)))
def test_trace_faces_matches_reference_up_to_40(code):
    assert face_record(trace_faces(code)) == face_record(reference_trace_faces(code))


def test_an_end_edge_has_its_end_face_on_both_sides():
    # an endpoint has one dart, so the face around it runs along both sides of its edge
    for code in [*named_fixtures().values(), generate_family(3), parse_knotoid_code("")]:
        pm = build_planar_map(code)
        last = pm.num_edges - 1
        assert pm.face(0, 0) == pm.face(0, 1) == pm.leg_face
        assert pm.face(last, 0) == pm.face(last, 1) == pm.head_face


def test_endpoint_faces_two_one_distinct():
    pm = build_planar_map(two_one())
    assert pm.leg_face != pm.head_face


def test_dual_arc_two_one():
    pm = build_planar_map(two_one())
    arc = dual_arc(pm)
    assert len(arc.steps) == 1
    assert arc.steps[0].edge == 2
    assert arc.steps[0].direction == RIGHT_TO_LEFT


def test_dual_arc_matches_reference_on_fixtures_and_family():
    codes = [
        code for path in sorted(FIXTURES.glob("*.knd"))
        for _, code in read_code_blocks(path.read_text())
    ]
    codes += [generate_family(j) for j in [*range(1, 33), 64, 128, 256, 512]]
    for code in codes:
        pm = build_planar_map(code)
        assert dual_arc(pm).steps == reference_dual_arc_steps(pm)


@given(realizable_code_strategy(max_crossings=40))
def test_dual_arc_matches_reference_up_to_40(code):
    pm = build_planar_map(code)
    assert dual_arc(pm).steps == reference_dual_arc_steps(pm)


def test_loop_edges():
    assert loop_edges(two_one(), "a") == (1, 2)
    assert loop_edges(two_one(), "b") == (2, 3)
    assert loop_edges(parse_knotoid_code("Oa Ua ; a=+1"), "a") == (1,)
    with pytest.raises(KeyError):
        loop_edges(two_one(), "zz")


def test_calibration_two_one_class_is_plus_g():
    # pins the orientation convention: [l(a)] of the 2-crossing fixture = +1
    assert all_loop_classes(two_one()) == {"a": (1,), "b": (1,)}


def test_four_six_classes():
    assert all_loop_classes(four_six()) == {"a": (1,), "b": (2,), "c": (2,), "d": (1,)}


def test_five_nineteen_classes():
    assert all_loop_classes(five_nineteen()) == {
        "a": (0,), "b": (-1,), "c": (-1,), "d": (1,), "e": (1,),
    }


def test_loop_class_matches_all_loop_classes():
    code = four_six()
    pm = build_planar_map(code)
    arc = dual_arc(pm)
    classes = all_loop_classes(code)
    for lab in code.labels:
        assert (loop_class_along(pm, arc.steps, lab),) == classes[lab]


@given(realizable_code_strategy(max_crossings=40))
def test_all_loop_classes_match_loop_class_along_up_to_40(code):
    pm = build_planar_map(code)
    steps = dual_arc(pm).steps
    assert all_loop_classes(code) == {
        lab: (loop_class_along(pm, steps, lab),) for lab in code.labels
    }


def assert_classes_wrap_the_int_list(code):
    classes = all_loop_classes(code)
    assert list(classes) == list(code.labels)
    assert all(type(c) is tuple and len(c) == 1 and type(c[0]) is int for c in classes.values())
    assert tuple([c for (c,) in classes.values()]) == _loop_classes(code)


def test_all_loop_classes_wrap_the_report_int_list_on_fixtures():
    for code in [*named_fixtures().values(), generate_family(5), parse_knotoid_code("")]:
        assert_classes_wrap_the_int_list(code)


@given(realizable_code_strategy(max_crossings=40))
def test_all_loop_classes_wrap_the_report_int_list_up_to_40(code):
    assert_classes_wrap_the_int_list(code)


def test_faces_equal_crossings_plus_one_on_random_realizable():
    rng = random.Random(31)
    for _ in range(40):
        code = random_realizable_code(rng, rng.randrange(0, 7))
        assert code is not None
        pm = build_planar_map(code)
        assert pm.num_faces == code.n_crossings + 1


def test_path_independence_on_fixtures():
    for name, code in named_fixtures().items():
        pm = build_planar_map(code)
        classes = all_loop_classes(code)
        paths = all_simple_dual_paths(pm)
        assert paths, name
        for path in paths:
            for lab in code.labels:
                assert loop_class_along(pm, path, lab) == classes[lab][0], (name, lab)


def test_mirror_negates_classes_keeps_subgroups():
    for name, code in named_fixtures().items():
        classes = all_loop_classes(code)
        mirrored = all_loop_classes(mirror(code))
        for lab in code.labels:
            assert mirrored[lab] == (-classes[lab][0],), (name, lab)
        assert casson_homological(code, classes) == casson_homological(mirror(code), mirrored)


def test_inserted_kink_loops_are_null():
    from knotoid_casson.moves import MoveInstance, R1_INSERT, apply

    for code in named_fixtures().values():
        for gap in range(len(code.word) + 1):
            for over_first in (True, False):
                move = MoveInstance(R1_INSERT, gaps=(gap,), labels=("k0",),
                                    signs=(1,), over_first=over_first)
                new = apply(code, move)
                assert all_loop_classes(new)["k0"] == (0,)


def _additivity_at_site(code, move, classes):
    # whichever crossing spans the positionally outer blocks carries the sum
    x, y, z = move.labels
    blocks = {"x": {0, 2}, "y": {0, 1}, "z": {1, 2}}
    order = sorted(range(3), key=lambda i: move.positions[i])
    outer_pair = {order[0], order[2]}
    roles = dict(zip("xyz", (x, y, z)))
    outer = next(roles[r] for r in "xyz" if blocks[r] == outer_pair)
    inner = [lab for lab in (x, y, z) if lab != outer]
    return classes[outer][0] == classes[inner[0]][0] + classes[inner[1]][0]


def test_triangle_site_additivity():
    """Loop-class additivity at triangle-move sites of realizable codes."""
    # explicit minimal instance of the documented arrangement (all classes zero)
    tri = parse_knotoid_code("Oz Ux Uy Uz Ox Oy ; x=+1 y=-1 z=+1")
    sites = r3_sites(tri)
    assert sites
    classes = all_loop_classes(tri)
    assert all(_additivity_at_site(tri, m, classes) for m in sites)

    # frozen nonzero instances found by seeded search
    frozen = [
        "Oc4 Oc2 Oc3 Oc1 Uc2 Uc4 Uc3 Uc1 ; c4=-1 c2=+1 c3=-1 c1=+1",
        "Oc5 Uc2 Uc4 Uc5 Oc3 Oc1 Uc1 Oc2 Oc4 Uc3 ; c5=+1 c2=+1 c4=-1 c3=-1 c1=-1",
        "Oc5 Uc3 Uc1 Uc2 Oc3 Oc4 Uc4 Uc5 Oc1 Oc2 ; c5=+1 c3=+1 c1=-1 c2=+1 c4=+1",
    ]
    for text in frozen:
        code = parse_knotoid_code(text)
        classes = all_loop_classes(code)
        sites = r3_sites(code)
        assert sites, text
        assert any(classes[lab] != (0,) for m in sites for lab in m.labels)
        for m in sites:
            assert _additivity_at_site(code, m, classes), (text, m)

    # random search for further instances
    rng = random.Random(999)
    checked = 0
    for _ in range(4000):
        code = random_code(rng, rng.randrange(4, 9))
        sites = r3_sites(code)
        if not sites:
            continue
        try:
            classes = all_loop_classes(code)
        except NonRealizableError:
            continue
        for m in sites:
            assert _additivity_at_site(code, m, classes), (code, m)
            checked += 1
    assert checked >= 10


def test_transforms_start_with_no_shape():
    code = four_six()
    trace_faces(code)
    _loop_classes(code)
    made_from = (switch_crossing(code, code.labels[0]), switch_all(code), mirror(code), reverse(code),
                 concat_product(code, code))
    for made in made_from:
        assert made._shape is None
