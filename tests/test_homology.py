"""Subgroup canonicalization and formal-sum arithmetic."""

import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotoid_casson.homology import (
    ModuleElement,
    Subgroup,
    as_class,
    hermite_normal_form,
)

from support import cyc


def test_rank_one_generators_gcd():
    assert Subgroup.generated_by(1, 2) == Subgroup.generated_by(1)
    assert Subgroup.generated_by(2, 2) == Subgroup.generated_by(2)
    assert Subgroup.generated_by(0, 0) == Subgroup.generated_by(0)
    assert Subgroup.generated_by(6, 4) == Subgroup.generated_by(2)
    assert Subgroup.generated_by(0, 3) == Subgroup.generated_by(3)


def test_rank_one_sign_blind_and_symmetric():
    assert Subgroup.generated_by(3) == Subgroup.generated_by(-3)
    assert Subgroup.generated_by(4, 6) == Subgroup.generated_by(6, 4)
    assert Subgroup.generated_by(-4, 6) == Subgroup.generated_by(4, -6)


def test_trivial_subgroup_is_distinct_basis_element():
    assert Subgroup.generated_by(0).is_trivial
    assert str(Subgroup.generated_by(0)) == "<0>"
    assert cyc(0) != ModuleElement()
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


@pytest.mark.parametrize("rows, bad", [
    ([(2.5,), (1,)], (2.5,)),  # once gave ((0.5,),)
    ([(True,)], (True,)),  # once gave ((True,),)
    ([(1, "a")], (1, "a")),  # once came back unchanged
    ([(1, 0), (0, 2), (1.0, 1)], (1.0, 1)),
    ([[1, 2], [3, None], [4.0, 0]], (3, None)),  # the first such row is named
])
def test_hnf_entries_are_never_coerced(rows, bad):
    message = f"a generator is a vector of ints, got {bad!r}"
    with pytest.raises(TypeError, match=re.escape(message)):
        hermite_normal_form(rows)


def test_hnf_mixed_ranks_take_precedence_over_entry_types():
    for rows in ([(1.5,), (1, 0)], [(1, "a"), (True,)], [(0, 0), (2.5,)]):
        with pytest.raises(ValueError, match="mixed ranks"):
            hermite_normal_form(rows)


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
        ModuleElement({Subgroup.generated_by(2): coefficient})


def test_module_scale_by_a_float_raises():
    # it once truncated each product: 2.5 * (1*<1>) read 2*<1>
    with pytest.raises(TypeError, match="a ModuleElement is scaled by an int, got 2.5"):
        2.5 * cyc(1)


@pytest.mark.parametrize("factor", [True, "3", 1.0])
def test_module_scales_only_by_an_int(factor):
    # True once returned the element itself, and "3" a message about "33", its product with 2
    message = f"a ModuleElement is scaled by an int, got {factor!r}"
    for scale in (lambda e: e * factor, lambda e: factor * e):
        with pytest.raises(TypeError, match=re.escape(message)):
            scale(cyc(2, 2))


def test_module_element_drops_zero_terms():
    elem = ModuleElement({Subgroup.generated_by(2): 0, Subgroup.generated_by(3): -1})
    assert elem == cyc(3, -1) and elem.terms() == {Subgroup.generated_by(3): -1}
    zero = ModuleElement({Subgroup.generated_by(2): 0})
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


def det(m):
    """Exact integer determinant, by expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * a * det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, a in enumerate(m[0]) if a)


def minors_gcd(rows, r):
    """The gcd of the r x r minors of ``rows``: 1 for r = 0, 0 when every one is 0."""
    k = len(rows[0]) if rows else 0
    return math.gcd(*(det([[row[c] for c in cols] for row in sub])
                      for sub in itertools.combinations(rows, r)
                      for cols in itertools.combinations(range(k), r)))


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(st.integers(-20, 20), min_size=k, max_size=k), max_size=6)))
def test_hnf_generates_the_same_subgroup_by_minors(rows):
    # an oracle sharing nothing with the reduction: the shape, then every
    # generator in the span by back-substitution, then the index by minors
    basis = hermite_normal_form(rows)
    assert all(any(row) for row in basis)
    pivots = [next(c for c, a in enumerate(row) if a) for row in basis]
    assert pivots == sorted(set(pivots))
    for i, (row, p) in enumerate(zip(basis, pivots)):
        assert row[p] > 0 and all(0 <= above[p] < row[p] for above in basis[:i])
    for v in rows:
        for row, p in zip(basis, pivots):
            q, rest = divmod(v[p], row[p])
            assert rest == 0
            v = [a - q * b for a, b in zip(v, row)]
        assert not any(v)
    # so the input spans a sublattice of the basis's; with rank r, its index
    # there is minors_gcd(rows, r) / minors_gcd(basis, r), which must be 1
    r = len(basis)
    assert minors_gcd(rows, r + 1) == 0
    assert minors_gcd(rows, r) == minors_gcd(basis, r) != 0


def test_module_cancellation():
    assert cyc(1, -1) + cyc(1) == ModuleElement()
    assert not (cyc(1, -1) + cyc(1))


def test_module_scale():
    assert cyc(2) * -1 == cyc(2, -1)
    assert 3 * cyc(1) == cyc(1, 3)
    assert 0 * cyc(1) == ModuleElement()


def test_module_mixed_terms():
    e = cyc(0) + cyc(1)
    assert e.terms() == {Subgroup.generated_by(0): 1, Subgroup.generated_by(1): 1}


def test_norm_examples():
    assert (cyc(1, 2) + cyc(2)).norm() == 3
    assert ModuleElement().norm() == 0
    assert (cyc(1, -1) + cyc(2, -1)).norm() == 2


def test_augmentation_examples():
    assert cyc(2).total_coefficient() == 1
    assert (cyc(1, -1) + cyc(1)).total_coefficient() == 0
    assert (cyc(1, 2) + cyc(0)).total_coefficient() == 3


_elements = st.lists(
    st.tuples(st.integers(0, 4), st.integers(-4, 4)), max_size=5
).map(lambda pairs: sum((cyc(j, c) for j, c in pairs), ModuleElement()))


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
    assert a + ModuleElement() == a


def test_str_formats():
    assert str(cyc(1, -1) + cyc(2)) == "-1*<1> + 1*<2>"
    assert str(ModuleElement()) == "0"
    assert str(cyc(0) + cyc(1)) == "1*<0> + 1*<1>"
    assert str(cyc(1, 2) + cyc(2)) == "2*<1> + 1*<2>"
    assert str(Subgroup.generated_by((1, 0), (0, 2))) == "<(1,0),(0,2)>"


def test_iteration_orders_terms_by_rank_then_basis():
    plane = ModuleElement({Subgroup.generated_by((1, 0)): 3})
    elem = plane + cyc(2, -1) + cyc(0) + cyc(1)
    assert [(str(s), c) for s, c in elem] == [("<0>", 1), ("<1>", 1), ("<2>", -1), ("<(1,0)>", 3)]
    five, x_axis, y_axis = Subgroup.generated_by(5), Subgroup.generated_by((1, 0)), Subgroup.generated_by((0, 1))
    assert sorted([x_axis, five, y_axis]) == [five, y_axis, x_axis]


def test_module_element_is_not_a_number():
    assert ModuleElement().__eq__(0) is NotImplemented
    assert ModuleElement() != 0
    assert repr(cyc(1, -1) + cyc(2)) == "ModuleElement(-1*<1> + 1*<2>)"
    assert repr(ModuleElement()) == "ModuleElement(0)"
