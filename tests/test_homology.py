"""Subgroup canonicalization and formal-sum arithmetic."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotoid_casson.homology import (
    ModuleElement,
    Subgroup,
    as_class,
    hermite_normal_form,
)


def cyc(j, coeff=1):
    return ModuleElement.single(Subgroup.cyclic(j), coeff)


def test_rank_one_generators_gcd():
    assert Subgroup.generated_by(1, 2) == Subgroup.cyclic(1)
    assert Subgroup.generated_by(2, 2) == Subgroup.cyclic(2)
    assert Subgroup.generated_by(0, 0) == Subgroup.cyclic(0)
    assert Subgroup.generated_by(6, 4) == Subgroup.cyclic(2)
    assert Subgroup.generated_by(0, 3) == Subgroup.cyclic(3)


def test_rank_one_sign_blind_and_symmetric():
    assert Subgroup.cyclic(3) == Subgroup.cyclic(-3)
    assert Subgroup.generated_by(4, 6) == Subgroup.generated_by(6, 4)
    assert Subgroup.generated_by(-4, 6) == Subgroup.generated_by(4, -6)


def test_trivial_subgroup_is_distinct_basis_element():
    assert Subgroup.cyclic(0).is_trivial
    assert str(Subgroup.cyclic(0)) == "<0>"
    assert cyc(0) != ModuleElement.zero()
    assert (cyc(0) + cyc(1)).norm() == 2


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        Subgroup.generated_by((1, 0), (1,))
    # ranks are checked before zero rows are dropped
    for rows in ([(1, 0), (1,)], [(0, 0, 0), (1,)], [(1,), (0, 0)], [(0,), (0, 0)]):
        with pytest.raises(ValueError, match="mixed ranks"):
            hermite_normal_form(rows)
    with pytest.raises(ValueError, match="mixed ranks"):
        Subgroup.generated_by((0, 0), (0,))


def test_empty_class_and_no_generators_rejected():
    with pytest.raises(ValueError, match="rank >= 1"):
        as_class(())
    with pytest.raises(ValueError, match="at least one generator"):
        Subgroup.generated_by()


@pytest.mark.parametrize("value, vec", [
    (3, (3,)), (-2, (-2,)), ((1, 0), (1, 0)), ([0, 2], (0, 2)), (iter([4]), (4,)),
])
def test_as_class_takes_an_int_or_a_vector_of_ints(value, vec):
    assert as_class(value) == vec


@pytest.mark.parametrize("value", ["12", "", 1.5, 2.0, True, None, (1.9,), (1, 2.0), [False], ("1",)])
def test_as_class_refuses_what_it_would_have_to_coerce(value):
    with pytest.raises(TypeError, match=re.escape(f"got {value!r}")):
        as_class(value)


@pytest.mark.parametrize("coefficient", [0.5, 1.0, 0.0, True, "1", None])
def test_module_element_takes_only_int_coefficients(coefficient):
    # 0.5 once made a term 0*<2> that was truthy and unequal to zero
    message = f"coefficient of <2> must be an int, got {coefficient!r}"
    with pytest.raises(TypeError, match=re.escape(message)):
        ModuleElement({Subgroup.cyclic(2): coefficient})


def test_module_scale_by_a_float_raises():
    # it once truncated each product: 2.5 * (1*<1>) read 2*<1>
    with pytest.raises(TypeError, match="coefficient of <1> must be an int, got 2.5"):
        2.5 * cyc(1)


def test_module_element_drops_zero_terms():
    elem = ModuleElement({Subgroup.cyclic(2): 0, Subgroup.cyclic(3): -1})
    assert elem == cyc(3, -1) and elem.terms() == {Subgroup.cyclic(3): -1}
    zero = ModuleElement({Subgroup.cyclic(2): 0})
    assert not zero and zero == ModuleElement()


def test_hnf_examples_rank_two():
    assert hermite_normal_form([(2, 0), (0, 2)]) == ((2, 0), (0, 2))
    assert hermite_normal_form([(1, 1), (0, 2)]) == ((1, 1), (0, 2))
    assert hermite_normal_form([(0, 2), (1, 1)]) == ((1, 1), (0, 2))
    assert hermite_normal_form([(2, 1), (0, 3)]) == ((2, 1), (0, 3))
    assert hermite_normal_form([(2, 4), (0, 3)]) == ((2, 1), (0, 3))
    assert hermite_normal_form([(-1, 0), (0, -1)]) == ((1, 0), (0, 1))
    assert hermite_normal_form([(0, 0), (0, 0)]) == ()
    assert hermite_normal_form([]) == ()


_small_matrices = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
    min_size=1, max_size=4,
)


@given(_small_matrices)
def test_hnf_idempotent(rows):
    once = hermite_normal_form(rows)
    assert hermite_normal_form(once) == once


@given(_small_matrices, st.randoms(use_true_random=False))
def test_hnf_independent_of_generator_order(rows, rng):
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert hermite_normal_form(rows) == hermite_normal_form(shuffled)


@given(_small_matrices, st.integers(-5, 5))
def test_hnf_stable_under_row_combination(rows, k):
    # adding a multiple of one generator to another does not change the subgroup
    if len(rows) < 2:
        combined = rows
    else:
        first = tuple(a + k * b for a, b in zip(rows[0], rows[1]))
        combined = [first] + list(rows[1:])
    assert hermite_normal_form(rows) == hermite_normal_form(combined)


def test_module_cancellation():
    assert cyc(1, -1) + cyc(1) == ModuleElement.zero()
    assert not (cyc(1, -1) + cyc(1))


def test_module_scale():
    assert cyc(2) * -1 == cyc(2, -1)
    assert 3 * cyc(1) == cyc(1, 3)
    assert 0 * cyc(1) == ModuleElement.zero()


def test_module_mixed_terms():
    e = cyc(0) + cyc(1)
    assert e.terms() == {Subgroup.cyclic(0): 1, Subgroup.cyclic(1): 1}


def test_norm_examples():
    assert (cyc(1, 2) + cyc(2)).norm() == 3
    assert ModuleElement.zero().norm() == 0
    assert (cyc(1, -1) + cyc(2, -1)).norm() == 2


def test_augmentation_examples():
    assert cyc(2).total_coefficient() == 1
    assert (cyc(1, -1) + cyc(1)).total_coefficient() == 0
    assert (cyc(1, 2) + cyc(0)).total_coefficient() == 3


_elements = st.lists(
    st.tuples(st.integers(0, 4), st.integers(-4, 4)), max_size=5
).map(lambda pairs: sum((cyc(j, c) for j, c in pairs), ModuleElement.zero()))


@given(_elements, _elements)
def test_norm_triangle_inequality(a, b):
    assert (a + b).norm() <= a.norm() + b.norm()


@given(_elements, st.integers(-6, 6))
def test_norm_homogeneous(a, n):
    assert (n * a).norm() == abs(n) * a.norm()


@given(_elements, _elements, _elements)
def test_add_commutative_associative(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + ModuleElement.zero() == a


def test_str_formats():
    assert str(cyc(1, -1) + cyc(2)) == "-1*<1> + 1*<2>"
    assert str(ModuleElement.zero()) == "0"
    assert str(cyc(0) + cyc(1)) == "1*<0> + 1*<1>"
    assert str(cyc(1, 2) + cyc(2)) == "2*<1> + 1*<2>"
    assert str(Subgroup.generated_by((1, 0), (0, 2))) == "<(1,0),(0,2)>"


def test_iteration_orders_terms_by_rank_then_basis():
    plane = ModuleElement.single(Subgroup.generated_by((1, 0)), 3)
    elem = plane + cyc(2, -1) + cyc(0) + cyc(1)
    assert [(str(s), c) for s, c in elem] == [("<0>", 1), ("<1>", 1), ("<2>", -1), ("<(1,0)>", 3)]
    five, x_axis, y_axis = Subgroup.cyclic(5), Subgroup.generated_by((1, 0)), Subgroup.generated_by((0, 1))
    assert sorted([x_axis, five, y_axis]) == [five, y_axis, x_axis]


def test_module_element_is_not_a_number():
    assert ModuleElement.zero().__eq__(0) is NotImplemented
    assert ModuleElement.zero() != 0
    assert repr(cyc(1, -1) + cyc(2)) == "ModuleElement(-1*<1> + 1*<2>)"
    assert repr(ModuleElement.zero()) == "ModuleElement(0)"
