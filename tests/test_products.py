"""Recurrence engine: weight tables, the two coefficient routes, spec JSON."""

import gc
import json
import random
from fractions import Fraction
from itertools import count, takewhile
from math import gcd, isqrt, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divprod.products as products
import divprod.series as series
from divprod.products import (
    Factor,
    ProductSpec,
    SetDescriptor,
    SpecFormatError,
    WeightSpec,
    builtin_spec,
    coeffs_via_expansion,
    coeffs_via_recurrence,
    delta_spec,
    gauss_spec,
    jacobi_spec,
    load_spec,
    p_regular_spec,
    ramanujan_spec,
    rogers_ramanujan_spec,
    spec_from_dict,
    spec_from_json,
    square_quotient_spec,
    weight_table,
)
from divprod.sequences import (
    lambert_cubic_by_divisors,
    regular_partition_counts,
    triangular_rep_counts,
)
from divprod.series import TruncatedSeries, apply_binomial_factor, kronecker_mul

from spec_reference import contains, f_value, spec_to_json
from test_bindings import RATIONAL


# --- set descriptors -------------------------------------------------------


def test_set_membership():
    evens = SetDescriptor.residue_union([(0, 2)])
    assert [n for n in range(1, 11) if contains(evens, n)] == [2, 4, 6, 8, 10]
    assert list(evens.members_upto(9)) == [2, 4, 6, 8]
    assert not contains(evens, 0)

    mult3 = SetDescriptor.multiples(3)
    assert list(mult3.members_upto(10)) == [3, 6, 9]

    ex = SetDescriptor.explicit([7, 2, 5])
    assert ex.members == (2, 5, 7)
    assert list(ex.members_upto(6)) == [2, 5]

    assert list(SetDescriptor.all_naturals().members_upto(4)) == [1, 2, 3, 4]
    # All naturals are the class (0, 1), whatever the wire form.
    assert SetDescriptor.all_naturals() == SetDescriptor.residue_union([(0, 1)])
    assert hash(SetDescriptor.all_naturals()) == hash(SetDescriptor.residue_union([(0, 1)]))


def test_overlapping_residue_classes_yield_members_once():
    s = SetDescriptor.residue_union([(1, 2), (1, 4)])
    assert list(s.members_upto(10)) == [1, 3, 5, 7, 9]


def test_single_class_members_are_its_range():
    assert SetDescriptor.all_naturals().members_upto(400) == range(1, 401)
    assert SetDescriptor.multiples(4).members_upto(10) == range(4, 11, 4)
    assert SetDescriptor.residue_union([(3, 5)]).members_upto(20) == range(3, 21, 5)


@st.composite
def set_descriptors(draw):
    which = draw(st.sampled_from(["all", "residues", "multiples", "explicit"]))
    if which == "all":
        return SetDescriptor.all_naturals()
    if which == "multiples":
        return SetDescriptor.multiples(draw(st.integers(min_value=1, max_value=12)))
    if which == "explicit":
        # Members run past the largest order drawn below.
        return SetDescriptor.explicit(
            draw(st.lists(st.integers(min_value=1, max_value=60), max_size=8, unique=True))
        )
    residue_class = st.integers(min_value=1, max_value=12).flatmap(
        lambda m: st.tuples(st.integers(min_value=0, max_value=m - 1), st.just(m))
    )
    return SetDescriptor.residue_union(
        draw(st.lists(residue_class, min_size=1, max_size=6, unique=True))
    )


@settings(max_examples=200, deadline=None)
@given(set_descriptors(), st.integers(min_value=0, max_value=50))
@example(SetDescriptor.residue_union([(0, 1), (1, 2), (0, 4)]), 12)
@example(SetDescriptor.residue_union([(1, 2), (1, 4), (3, 6)]), 30)
@example(SetDescriptor.explicit([40, 3, 55]), 10)
@example(SetDescriptor.all_naturals(), 0)
@example(SetDescriptor.multiples(3), 0)
def test_members_upto_walks_the_membership_predicate(s, order):
    assert list(s.members_upto(order)) == [n for n in range(1, order + 1) if contains(s, n)]


@pytest.mark.parametrize("m", [1, 2, 3, 7, 10**6])
def test_multiples_is_its_residue_union_form(m):
    # A set is its classes: the wire label it was read from is not kept.
    assert SetDescriptor.multiples(m) == SetDescriptor.residue_union([(0, m)])
    assert hash(SetDescriptor.multiples(m)) == hash(SetDescriptor.residue_union([(0, m)]))


def test_classes_given_as_a_list_are_stored_as_a_tuple():
    s = SetDescriptor(classes=[(1, 2)])
    assert s == SetDescriptor.residue_union([(1, 2)])
    assert hash(s) == hash(SetDescriptor.residue_union([(1, 2)]))


def test_set_validation():
    with pytest.raises(ValueError, match="non-canonical"):
        SetDescriptor.residue_union([(5, 5)])
    with pytest.raises(ValueError, match="duplicate-free"):
        SetDescriptor.residue_union([(1, 2), (1, 2)])
    with pytest.raises(ValueError, match="duplicate-free"):
        SetDescriptor.explicit([3, 3])
    with pytest.raises(ValueError):
        SetDescriptor.multiples(0)
    with pytest.raises(ValueError):
        SetDescriptor.explicit([0])


@pytest.mark.parametrize(
    "make, needle",
    [
        (lambda: SetDescriptor.explicit([1.5]), "explicit members must be positive integers"),
        (lambda: SetDescriptor.explicit([2.0]), "explicit members must be positive integers"),
        (lambda: SetDescriptor.explicit([True]), "explicit members must be positive integers"),
        (lambda: SetDescriptor.residue_union([(1.0, 2)]), r"residue class \(1.0, 2\)"),
        (lambda: SetDescriptor.residue_union([(0, True)]), r"residue class \(0, True\)"),
        (lambda: SetDescriptor.residue_union([(1, 2, 3)]),
         r"residue class \(1, 2, 3\) must be a pair of integers"),
        (lambda: SetDescriptor.residue_union([(1,)]), r"residue class \(1,\) must be a pair"),
        (lambda: SetDescriptor(classes=(5,)), "residue class 5 must be a pair"),
        (lambda: SetDescriptor(classes=([1, 2],)),
         r"residue class \[1, 2\] must be a pair"),
        (lambda: SetDescriptor.multiples(1.5), "multiples requires a positive modulus"),
        (lambda: SetDescriptor.multiples("3"), "multiples requires a positive modulus"),
        (lambda: WeightSpec.linear(0.1), "linear weight c must be an int or a Fraction, got 0.1"),
        (lambda: WeightSpec.linear(True), "linear weight c must be an int or a Fraction, got True"),
        (lambda: WeightSpec.table({2: 0.5}), "table value at n=2 must be an int or a Fraction"),
        (lambda: WeightSpec.table({2: False}), "table value at n=2 must be an int or a Fraction"),
        (lambda: WeightSpec.table({2.0: 1}), "table keys must be positive integers"),
        (lambda: WeightSpec(c=0.0, values=((1, 1),)), "weight takes c or table values, not both"),
        (lambda: WeightSpec(c=False, values=((1, 1),)), "takes c or table values, not both"),
        (lambda: ProductSpec(gauss_spec().factors, shift=True), "shift must be an integer, got True"),
        (lambda: ProductSpec(gauss_spec().factors, shift=1.5), "shift must be an integer, got 1.5"),
        (lambda: ProductSpec(gauss_spec().factors, shift=2.0), "shift must be an integer, got 2.0"),
        (lambda: ProductSpec(gauss_spec().factors, shift="2"), "shift must be an integer, got '2'"),
    ],
)
def test_constructors_reject_inexact_weights_and_non_int_members(make, needle):
    # A float is a binary fraction (0.1 would be 3602879701896397/2**55) and a
    # bool a truth value; neither is an exact weight, a set member or a shift.
    with pytest.raises(ValueError, match=needle):
        make()


def test_table_weight_holds_no_c():
    # A table has no c, not a zero one: an explicit zero c beside its values
    # is a weight given both ways.
    assert WeightSpec.table({1: 1}).c is None and WeightSpec(values=((1, 1),)).c is None
    for zero in (0, Fraction(0)):
        with pytest.raises(ValueError, match="a weight takes c or table values, not both"):
            WeightSpec(c=zero, values=((1, 1),))


@pytest.mark.parametrize(
    "made, direct",
    [
        (WeightSpec.linear(3), WeightSpec(c=3)),
        (WeightSpec.linear(Fraction(-1, 3)), WeightSpec(c=Fraction(-1, 3))),
        (WeightSpec.linear(0), WeightSpec(c=Fraction(0))),
        (WeightSpec.table({5: 1, 2: Fraction(1, 2)}),
         WeightSpec(values=((2, Fraction(1, 2)), (5, 1)))),
        (WeightSpec.table({}), WeightSpec()),
    ],
    ids=["linear(3)", "linear(-1/3)", "linear(0)", "table", "empty table"],
)
def test_weight_constructors_equal_the_fields_they_set(made, direct):
    assert made == direct and hash(made) == hash(direct)


@pytest.mark.parametrize(
    "forms",
    [
        [WeightSpec(c=1, values=[]), WeightSpec(c=1, values=()), WeightSpec(c=1), WeightSpec.linear(1)],
        [SetDescriptor(classes=((0, 1),), members=[]), SetDescriptor(classes=((0, 1),), members=()),
         SetDescriptor(classes=((0, 1),)), SetDescriptor.all_naturals()],
    ],
    ids=["weight", "set"],
)
def test_an_unused_field_given_empty_as_a_list_a_tuple_or_not_at_all_is_one_value(forms):
    # The field a value does not use is stored as (), whatever empty form it
    # was given in, so every form hashes and all compare equal.
    assert all(form == forms[0] and hash(form) == hash(forms[0]) for form in forms)


def test_empty_table_is_not_linear_zero():
    empty, zero = WeightSpec.table({}), WeightSpec.linear(0)
    assert empty != zero and (empty.c, zero.c) == (None, 0)
    with pytest.raises(TypeError):  # not an empty table
        WeightSpec.linear(None)
    over = lambda w: ProductSpec(factors=(Factor(SetDescriptor.explicit([3, 9]), w),))
    # A table needs a value at each member <= N; linear(0) is f = 0 there.
    for route in (coeffs_via_recurrence, coeffs_via_expansion):
        assert route(over(empty), 2) == TruncatedSeries([1, 0, 0])
        with pytest.raises(SpecFormatError) as info:
            route(over(empty), 5)
        assert str(info.value) == "factors[0].weight.values: table weight missing for required n=3"
        assert route(over(zero), 5) == TruncatedSeries([1, 0, 0, 0, 0, 0])


@pytest.mark.parametrize(
    "make, needle",
    [
        # A set is its classes or its members: given both, it is neither.
        (lambda: SetDescriptor(classes=((0, 1),), members=(2,)), "classes or members, not both"),
        (lambda: SetDescriptor(classes=((0, 2),), members=(2,)), "classes or members, not both"),
        (lambda: SetDescriptor(classes=((1, 2),), members=(3,)), "classes or members, not both"),
        (lambda: SetDescriptor(members=(2,), classes=((0, 1),)), "classes or members, not both"),
        # A weight is its c or its table: given both, it is neither.
        (lambda: WeightSpec(c=1, values=((1, 1),)), "c or table values, not both"),
        (lambda: WeightSpec(values=((1, 1),), c=1), "c or table values, not both"),
        # A factor and a spec hold values of their own types only: anything
        # else would fail later, inside a route.
        (lambda: Factor("x", "y"), "a factor's set must be a SetDescriptor, got 'x'"),
        (lambda: Factor(SetDescriptor.all_naturals(), "y"),
         "a factor's weight must be a WeightSpec, got 'y'"),
        (lambda: Factor(WeightSpec.linear(1), SetDescriptor.all_naturals()),
         "a factor's set must be a SetDescriptor"),
        (lambda: ProductSpec((1,)), "product spec factors must be Factor values, got 1"),
        (lambda: ProductSpec((*gauss_spec().factors, None)), "must be Factor values, got None"),
    ],
)
def test_constructors_reject_fields_the_kind_does_not_carry(make, needle):
    # A value holds only the fields of its kind, so that it equals its own
    # JSON round trip.
    with pytest.raises(ValueError, match=needle):
        make()


# --- weight tables ---------------------------------------------------------


def test_weight_table_gauss():
    g = weight_table(gauss_spec(), 6)
    assert g.values[6] == 4 - 8 == -4
    assert g.values[1] == 1


def test_weight_table_rogers_ramanujan():
    g = weight_table(rogers_ramanujan_spec(1), 6)
    assert g.values[4] == 1 + 4 == 5


def test_weight_table_jacobi():
    g = weight_table(jacobi_spec(), 4)
    assert g.values[1] == -2


def test_weight_table_of_order_zero():
    third = ProductSpec(
        factors=(Factor(SetDescriptor.all_naturals(), WeightSpec.linear(Fraction(1, 3))),)
    )
    for spec in (gauss_spec(), third):
        g = weight_table(spec, 0)
        assert (g.order, g.numerators, g.scale) == (0, (0,), 1)
        assert coeffs_via_recurrence(spec, 0) == TruncatedSeries([1])
        with pytest.raises(ValueError, match="nonnegative"):
            weight_table(spec, -1)
    assert coeffs_via_recurrence(ramanujan_spec(), 1) == TruncatedSeries([0, 1])


def test_table_weight_lookup_first_last_and_missing():
    w = WeightSpec.table({9: 3, 2: Fraction(1, 2), 5: -4})
    assert f_value(w, 2) == Fraction(1, 2)
    assert f_value(w, 9) == 3
    assert w.exponent_at(9) == Fraction(-1, 3)
    for missing in (1, 4, 10):
        with pytest.raises(ValueError, match=f"table weight missing for required n={missing}"):
            w.exponent_at(missing)


def test_weight_table_missing_table_entry():
    spec = ProductSpec(
        factors=(
            Factor(SetDescriptor.explicit([2, 4]), WeightSpec.table({2: 2})),
        )
    )
    with pytest.raises(ValueError, match="table weight missing"):
        weight_table(spec, 5)


@pytest.mark.parametrize(
    "spec",
    [builtin_spec("delta(8)"), square_quotient_spec(), p_regular_spec(3), RATIONAL],
    ids=["delta(8)", "square_quotient", "p_regular(3)", "rational"],
)
def test_weight_table_sieves_each_degree_once(monkeypatch, spec):
    """The factors' weights are summed by degree before the sieve, so
    families that share a degree hand ``divisor_sums`` one weight there."""
    degrees, real = [], products.divisor_sums

    def spy(order, weights):
        weights = list(weights)
        degrees.extend(d for d, w in weights if w)
        return real(order, weights)

    monkeypatch.setattr(products, "divisor_sums", spy)
    weight_table(spec, 60)
    assert degrees and len(degrees) == len(set(degrees))


# --- the two coefficient routes -------------------------------------------


def test_recurrence_gauss():
    assert coeffs_via_recurrence(gauss_spec(), 6) == TruncatedSeries([1, 1, 0, 1, 0, 0, 1])


def test_recurrence_jacobi():
    assert coeffs_via_recurrence(jacobi_spec(), 4) == TruncatedSeries([1, -2, 0, 0, 2])


def test_recurrence_ramanujan_shifted():
    out = coeffs_via_recurrence(ramanujan_spec(), 4)
    assert out == TruncatedSeries([0, 1, 8, 28, 64])
    assert out.coeffs[1:] == tuple(lambert_cubic_by_divisors(n) for n in range(1, 5))


def test_expansion_gauss():
    assert coeffs_via_expansion(gauss_spec(), 6) == TruncatedSeries([1, 1, 0, 1, 0, 0, 1])


def test_expansion_p_regular_2():
    out = coeffs_via_expansion(p_regular_spec(2), 5)
    assert out == TruncatedSeries([1, 1, 1, 2, 2, 3])
    assert tuple(out) == regular_partition_counts(2, 5)


def spy_products(monkeypatch):
    """True for each squaring, False for each other product the expansion
    makes through kronecker_mul."""
    calls = []

    def counted(a, b, order):
        calls.append(a is b)
        return kronecker_mul(a, b, order)

    monkeypatch.setattr(products, "kronecker_mul", counted)
    return calls


def _linear_factor(s, c):
    return Factor(s, WeightSpec.linear(c))


# +3 over all n, and -3 at three members above the cut: the tail of +3 leaves
# -6 there, which joins the group 3 as two units instead of opening a group 6.
OPPOSITE_MEMBERS = ProductSpec((
    _linear_factor(SetDescriptor.all_naturals(), -3),
    _linear_factor(SetDescriptor.explicit([100, 200, 300]), 6),
))
# -3 over all n, and -4 at twelve members above the cut: the tail of -3 leaves
# -1 there, strays with one pass each at the ladder's bit 0.
TWELVE_MEMBERS = (20, 40, 60, 80, 100, 120, 140, 160, 180, 200, 220, 240)
STRAYS_BESIDE_A_TAIL = ProductSpec((
    _linear_factor(SetDescriptor.all_naturals(), 3),
    _linear_factor(SetDescriptor.explicit(TWELVE_MEMBERS), 1),
))
LADDER_SPECS = {"opposite members": OPPOSITE_MEMBERS, "strays beside a tail": STRAYS_BESIDE_A_TAIL}


# One binary ladder over the bits of max|e|: a squaring per bit below the
# top, and a product wherever a bit below the top is set in some group's
# |e|.  gauss has |e| = 1; ramanujan and delta(8) have |e| = 8 = 0b1000;
# jacobi has the groups {1, 2} and square_quotient the groups {1, 2, 3}
# (all at order 40).  The two specs above have the one group 3 = 0b11 (at
# order 400): the join and the strays add no bit and no product.
@pytest.mark.parametrize(
    "name, squarings, multiplies",
    [("gauss", 0, 0), ("ramanujan", 3, 0), ("delta(8)", 3, 0), ("jacobi", 1, 1),
     ("square_quotient", 1, 1), ("opposite members", 1, 1), ("strays beside a tail", 1, 1)],
)
def test_expansion_ladder_squares_and_multiplies(monkeypatch, name, squarings, multiplies):
    spec, order = (LADDER_SPECS[name], 400) if name in LADDER_SPECS else (builtin_spec(name), 40)
    calls = spy_products(monkeypatch)
    assert coeffs_via_expansion(spec, order) == coeffs_via_recurrence(spec, order)
    assert (calls.count(True), calls.count(False)) == (squarings, multiplies)


# --- the expansion's progression tails -----------------------------------


def power_by_squaring(a, e, order):
    """Coefficients 0..order of a**e, e >= 0, by repeated squaring on
    kronecker_mul: the group power of the per-degree reference."""
    result, base = [1] + [0] * order, (list(a) + [0] * order)[: order + 1]
    while e:
        if e & 1:
            result = kronecker_mul(result, base, order)
        e >>= 1
        if e:
            base = kronecker_mul(base, base, order)
    return result


@settings(max_examples=100)
@given(
    st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=24),
    st.integers(min_value=0, max_value=9),
    st.integers(0, 20),
)
def test_power_by_squaring_matches_repeated_schoolbook(a, e, order):
    expected = TruncatedSeries([1] + [0] * order)
    padded = TruncatedSeries((a + [0] * order)[: order + 1])
    for _ in range(e):
        expected = expected * padded
    assert power_by_squaring(a, e, order) == list(expected.coeffs)


def merged_exponents(spec, inner):
    """{n: the merged exponent of (1 - x^n)} over the members <= inner,
    read per member through exponent_at."""
    exponents = {}
    for factor in spec.factors:
        for n in factor.set.members_upto(inner):
            e = factor.weight.exponent_at(n)
            assert e.denominator == 1
            exponents[n] = exponents.get(n, 0) + e.numerator
    return exponents


def per_degree_expansion(spec, order):
    """The expansion with one apply_binomial_factor per degree and no
    progression kernel: merged exponents grouped by |e|, each group's unit
    base raised by power_by_squaring and multiplied in."""
    inner = order - spec.shift
    if inner < 0:
        return TruncatedSeries.zero(order)
    exponents = merged_exponents(spec, inner)
    groups = {}
    for n in sorted(exponents):
        if exponents[n]:
            groups.setdefault(abs(exponents[n]), []).append(n)
    coeffs = [1] + [0] * inner
    for power, members in groups.items():
        base = [1] + [0] * inner
        for n in members:
            apply_binomial_factor(base, n, exponents[n] // power)
        coeffs = kronecker_mul(coeffs, power_by_squaring(base, power, inner), inner)
    return TruncatedSeries([0] * spec.shift + coeffs)


BUILTIN_NAMES = (
    "gauss", "jacobi", "ramanujan", "rr1", "rr2", "square_quotient",
    *(f"p_regular({p})" for p in (2, 3, 5, 7)),
    *(f"delta({m})" for m in (1, 2, 4, 6, 8, 10, 12)),
)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_expansion_matches_per_degree_passes_at_order_2000(name):
    spec = builtin_spec(name)
    assert coeffs_via_expansion(spec, 2000) == per_degree_expansion(spec, 2000)


def spy_progressions(monkeypatch):
    """The (b, m, e) of every progression the expansion multiplies in."""
    calls = []
    real = products.apply_progression

    def spy(coeffs, b, m, e):
        calls.append((b, m, e))
        real(coeffs, b, m, e)

    monkeypatch.setattr(products, "apply_progression", spy)
    return calls


# (spec, order, the progressions multiplied in, the passes (n, sign) at or
# above the cut).  A scan at step m has the cut isqrt(m * inner // 2), for
# inner = order - shift; the passes are counted from the cut of the finest
# step that took a tail.  The scan runs at step 1, then at L, the lcm of the
# moduli.  A class mod m has a tail when its most common exponent e over the
# degrees at or above the cut is nonzero and holds more than a share of the
# class from its first degree s with e on: more than half, or more than 7/10
# at step 1 when a scan at L > 1 follows.  The tail starts at s, and each
# degree it leaves nonzero keeps one correction pass.
PROGRESSION_CASES = {
    # L = lcm(5, 7) = 35 exceeds the order: no class mod L holds two degrees.
    "step past the order": (
        ProductSpec((
            _linear_factor(SetDescriptor.residue_union([(1, 5)]), 1),
            _linear_factor(SetDescriptor.multiples(7), -1),
        )),
        30,
        set(),
        set(),
    ),
    # At order 400 the same spec's step fits, and each class's run is a tail
    # from its first member at or above the cut 83.  The classes overlap at 21
    # mod 35, where the exponents cancel, so that residue has no tail.
    "step within the order": (
        ProductSpec((
            _linear_factor(SetDescriptor.residue_union([(1, 5)]), 1),
            _linear_factor(SetDescriptor.multiples(7), -1),
        )),
        400,
        {(86, 35, -1), (96, 35, -1), (101, 35, -1), (106, 35, -1), (111, 35, -1),
         (116, 35, -1), (84, 35, 1), (98, 35, 1), (105, 35, 1), (112, 35, 1)},
        set(),
    ),
    # An explicit member cancels n = 150 in the one class of L = 1.  The cut
    # is isqrt(200) = 14, and -1 holds 386 of the 387 degrees 14..400, so the
    # tail of -1 starts at 14; subtracting it leaves +1 at the gap 150, one
    # correction pass.
    "gap in a bucket": (
        ProductSpec((
            _linear_factor(SetDescriptor.all_naturals(), 1),
            _linear_factor(SetDescriptor.explicit([150]), -1),
        )),
        400,
        {(14, 1, -1)},
        {(150, 1)},
    ),
    # Cancelling the last degree: -1 holds 386 of the 387 degrees 14..400,
    # so the tail still starts at the cut 14, and the gap at 400 is a +1
    # correction pass.
    "gap at the order": (
        ProductSpec((
            _linear_factor(SetDescriptor.all_naturals(), 1),
            _linear_factor(SetDescriptor.explicit([400]), -1),
        )),
        400,
        {(14, 1, -1)},
        {(400, 1)},
    ),
    # Cut isqrt(400) = 20.  The even class is +1 but for 300, where an
    # explicit member makes +2: the tail of +1 starts at 20 and leaves +1 at
    # 300.  The odd class is -1 but for 301, which the member cancels: the
    # tail of -1 starts at 21 and leaves +1 at 301.  4 and 6, below the cut,
    # keep their +2 in the |e| = 2 group.
    "explicit members overlap the classes": (
        ProductSpec((
            _linear_factor(SetDescriptor.residue_union([(0, 2)]), -1),
            _linear_factor(SetDescriptor.residue_union([(1, 2)]), 1),
            _linear_factor(SetDescriptor.explicit([4, 6, 300, 301]), -1),
        )),
        400,
        {(20, 2, 1), (21, 2, -1)},
        {(300, 1), (301, 1)},
    ),
    # A table weight on 1 mod 3 with exponent -1 below 100 and -2 from 100
    # splits the class between two groups.  Of its 126 degrees at or above
    # the cut 24, -2 holds the 101 from 100 on, so the tail of the |e| = 2
    # group starts at 100; the 25 degrees of -1 below it keep their passes.
    "table splits a class between groups": (
        ProductSpec((
            Factor(
                SetDescriptor.residue_union([(1, 3)]),
                WeightSpec.table({n: n if n < 100 else 2 * n for n in range(1, 401, 3)}),
            ),
        )),
        400,
        {(100, 3, -1)},
        {(n, -1) for n in range(25, 100, 3)},
    ),
    # Shift 41 leaves inner = 400 of the order 441: the cut is isqrt(400) = 20,
    # not isqrt(441) = 21, and the classes end at 400 and 399, not 441 and 440.
    "shift measures the cut and the tails against inner": (
        ProductSpec(gauss_spec().factors, shift=41),
        441,
        {(20, 2, 1), (21, 2, -1)},
        set(),
    ),
    # Two factors on 0 mod 3 merge to the exponent -2 there: one tail of the
    # |e| = 2 group from the cut 24, not one per factor.  1 mod 3, on the
    # second factor only, has -1 and its own tail from 25.
    "two factors merge into one tail": (
        ProductSpec((
            _linear_factor(SetDescriptor.multiples(3), 1),
            _linear_factor(SetDescriptor.residue_union([(0, 3), (1, 3)]), 1),
        )),
        400,
        {(24, 3, -1), (25, 3, -1)},
        set(),
    ),
    # p_regular(7) is -1 off the multiples of 7 and 0 on them.  From the cut
    # 14, -1 holds 6/7 of the degrees from 15 on, so step 1 takes its tail
    # there, not six class tails mod 7.  That leaves +1 on the multiples of 7
    # from 21 on: the class 0 mod 7 takes it from its cut 37 on, at 42, and
    # 21, 28 and 35 keep their passes.
    "one tail at step 1 and one class tail": (
        p_regular_spec(7),
        400,
        {(15, 1, -1), (42, 7, 1)},
        {(21, 1), (28, 1), (35, 1)},
    ),
    # p_regular(3)'s -1 holds exactly 2/3 of the degrees from the cut 14 on,
    # not more than 7/10, so the classes 1 and 2 mod 3 keep their own tails.
    "two thirds is no tail at step 1": (
        p_regular_spec(3),
        400,
        {(25, 3, -1), (26, 3, -1)},
        set(),
    ),
    # One tail of -3 from the cut 14 leaves -1 at the twelve members: strays,
    # one pass each on the running product.  As a group 1 they would make the
    # ladder's bit 0 a new set of groups, {1, 3}, which builds the tail again.
    "strays beside a tail": (
        STRAYS_BESIDE_A_TAIL,
        400,
        {(14, 1, -1)},
        {(n, -1) for n in TWELVE_MEMBERS},
    ),
}


def spy_passes(monkeypatch):
    """The (n, e) of every apply_binomial_factor the expansion itself calls."""
    calls = []
    real = products.apply_binomial_factor

    def spy(coeffs, n, e):
        calls.append((n, e))
        real(coeffs, n, e)

    monkeypatch.setattr(products, "apply_binomial_factor", spy)
    return calls


@pytest.mark.parametrize("case", PROGRESSION_CASES)
def test_expansion_takes_the_full_progression_tails(monkeypatch, case):
    spec, order, progressions, corrections = PROGRESSION_CASES[case]
    calls = spy_progressions(monkeypatch)
    passes = spy_passes(monkeypatch)
    got = coeffs_via_expansion(spec, order)
    assert set(calls) == progressions and len(calls) == len(progressions)
    inner = order - spec.shift
    cut = min((isqrt(m * inner // 2) for _, m, _ in calls), default=inner + 1)
    assert sorted(p for p in passes if p[0] >= cut) == sorted(corrections)
    assert got == per_degree_expansion(spec, order)
    assert got == coeffs_via_recurrence(spec, order)


# A tail of step 4 from 32 and one of step 1 from 101, in the one group 1:
# the coarser tail starts below the finer one, so only an order by step runs
# it first.  The exponent -1 on the degrees 100..500 holds 300 of the 400
# degrees 101..500 once the multiples of 4 take +1.
COARSE_BELOW_FINE = ProductSpec((
    _linear_factor(SetDescriptor.explicit(range(100, 501)), 1),
    _linear_factor(SetDescriptor.multiples(4), -1),
))


@pytest.mark.parametrize(
    "name",
    ["delta(1)", "p_regular(2)", "p_regular(5)", "rr1", "square_quotient", "coarse below fine"],
)
def test_a_tail_on_the_multiples_of_its_step_divides_by_k(monkeypatch, name):
    # Each group runs its tails by descending step, so the first tail of a
    # base built from 1 meets the series 1.  A tail whose input is zero off
    # the multiples of its step m makes its k-th inverse pass by (1 - y^k),
    # y = x^m, on the (inner - start_k) // m + 1 coefficients of the
    # multiples of m; any other tail by (1 - x^(mk)) on inner - start_k + 1.
    spec, order = COARSE_BELOW_FINE if name == "coarse below fine" else builtin_spec(name), 500
    inner = order - spec.shift
    tails = []  # (base, (b, m, e), on the multiples of m, [(size, n) per pass])
    real_progression, real_pass = products.apply_progression, series.apply_binomial_factor

    def progression(coeffs, b, m, e):
        on = not any(c for i, c in enumerate(coeffs) if i % m)
        tails.append((id(coeffs), (b, m, e), on, []))
        real_progression(coeffs, b, m, e)

    def inverse_pass(coeffs, n, e):
        assert e == -1
        tails[-1][3].append((len(coeffs), n))
        real_pass(coeffs, n, e)

    monkeypatch.setattr(products, "apply_progression", progression)
    monkeypatch.setattr(series, "apply_binomial_factor", inverse_pass)
    coeffs_via_expansion(spec, order)
    (_, (_, m, _), on, _), *_ = tails
    assert on and m > 1  # the first tail meets the series 1
    steps = {}
    for base, (b, m, e), on, passes in tails:
        steps.setdefault(base, []).append(m)
        stride = m if on else 1
        starts = takewhile(lambda s: s <= inner,
                           (b * k if e < 0 else b * k + m * k * (k - 1) // 2 for k in count(1)))
        assert passes == [((inner - s) // stride + 1, m // stride * k) for k, s in enumerate(starts, 1)]
    assert all(ms == sorted(ms, reverse=True) for ms in steps.values()), steps
    if name == "coarse below fine":
        assert [tail for _, tail, _, _ in tails] == [(32, 4, 1), (101, 1, -1)]


def spy_kernels(monkeypatch):
    """The expansion's kernel calls, in order: ("pass", n, e, size) on a base
    or the running product, ("tail", b, m, e, on) with on true when its input
    is zero off the multiples of m, and ("inverse", n, size) for each pass
    inside a tail, on its copy.  Also the number of the list each call met
    (None for a tail's copy), from 0 in the order the lists appear, and the
    set of those numbers whose first call met the series 1 or a list of it."""
    calls, lists, seen, from_one = [], [], {}, set()
    real_pass, real_progression = products.apply_binomial_factor, products.apply_progression
    real_inverse = series.apply_binomial_factor

    def number(coeffs):
        if id(coeffs) not in seen:
            seen[id(coeffs)] = len(seen), coeffs  # kept, so that no id is reused
            if coeffs[0] == 1 and not any(coeffs[1:]):
                from_one.add(len(seen) - 1)
        return seen[id(coeffs)][0]

    def on_list(coeffs, n, e):
        calls.append(("pass", n, e, len(coeffs)))
        lists.append(number(coeffs))
        real_pass(coeffs, n, e)

    def progression(coeffs, b, m, e):
        calls.append(("tail", b, m, e, not any(c for i, c in enumerate(coeffs) if i % m)))
        lists.append(number(coeffs))
        real_progression(coeffs, b, m, e)

    def inverse(coeffs, n, e):
        calls.append(("inverse", n, len(coeffs)))
        lists.append(None)
        real_inverse(coeffs, n, e)

    monkeypatch.setattr(products, "apply_binomial_factor", on_list)
    monkeypatch.setattr(products, "apply_progression", progression)
    monkeypatch.setattr(series, "apply_binomial_factor", inverse)
    return calls, lists, from_one


def test_psi_multiplies_in_its_ten_positive_passes_first(monkeypatch):
    # delta(1) is Gauss's psi: the passes (1 - x^(2j)), j = 1..10, below the
    # tails (22, 2, +1) and (23, 2, -1).  Their polynomial ends at degree
    # j(j+1), so each runs on 1 + j(j+1) slots, not on 501; the tail then
    # meets a list on its lattice and divides 240 slots by 1 - y, y = x^2.
    calls, _, _ = spy_kernels(monkeypatch)
    got = coeffs_via_expansion(delta_spec(1), 500)
    assert calls[:12] == [
        *(("pass", 2 * j, 1, 1 + j * (j + 1)) for j in range(1, 11)),
        ("tail", 22, 2, 1, True), ("inverse", 1, 240),
    ]
    assert got == coeffs_via_recurrence(delta_spec(1), 500)


def test_early_passes_on_a_class_keep_its_tail_on_the_lattice(monkeypatch):
    # p_regular(7)'s tails are (15, 1, -1) and (42, 7, +1); the passes 21, 28
    # and 35 are multiples of both steps, so they go first, on 22, 50 and 85
    # slots, and the tail of step 7 still divides 66 slots in y = x^7.  The
    # inverse passes below 15 come last, on the full list.
    calls, _, _ = spy_kernels(monkeypatch)
    got = coeffs_via_expansion(p_regular_spec(7), 500)
    assert calls[:5] == [("pass", 21, 1, 22), ("pass", 28, 1, 50), ("pass", 35, 1, 85),
                         ("tail", 42, 7, 1, True), ("inverse", 1, 66)]
    base_calls = [call for call in calls if call[0] != "inverse"]
    assert base_calls[4:] == [("tail", 15, 1, -1, True),  # any list is on the step 1
                              *(("pass", n, -1, 501) for n in range(1, 14) if n != 7)]
    assert got == coeffs_via_recurrence(p_regular_spec(7), 500)


def test_passes_off_a_tail_lattice_and_later_groups_keep_their_order(monkeypatch):
    # square_quotient builds the groups 3, then 2 on its copy (the ladder's
    # bit 1), then 1 on that same copy of 3 (bit 0).  Group 3's passes at 2
    # mod 4 are off its step-4 lattice, so they run after its tail, on 501
    # slots, and the tail divides 117 slots in y = x^4.  The groups built on
    # a copy run their tails first and every pass after them, as before.
    calls, _, _ = spy_kernels(monkeypatch)
    got = coeffs_via_expansion(square_quotient_spec(), 500)
    assert calls[:2] == [("tail", 34, 4, 1, True), ("inverse", 1, 117)]
    assert [call for call in calls if call[0] != "inverse"] == [
        ("tail", 34, 4, 1, True), *(("pass", n, 1, 501) for n in range(2, 31, 4)),
        ("tail", 31, 4, -1, False), ("tail", 33, 4, -1, False),
        *(("pass", n, -1, 501) for n in range(1, 30, 2)),
        ("tail", 32, 4, 1, False), *(("pass", n, 1, 501) for n in range(4, 29, 4)),
    ]
    assert got == coeffs_via_recurrence(square_quotient_spec(), 500)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_the_first_tail_of_a_base_built_from_1_runs_on_its_lattice(monkeypatch, name):
    spec, order = builtin_spec(name), 500
    inner = order - spec.shift
    calls, lists, from_one = spy_kernels(monkeypatch)
    coeffs_via_expansion(spec, order)
    first_tails = {}
    for i, (call, number) in enumerate(zip(calls, lists)):
        if call[0] == "tail" and number in from_one:
            first_tails.setdefault(number, i)
    assert first_tails
    for i in first_tails.values():
        _, b, m, _, on = calls[i]
        assert m > 1 and on
        assert calls[i + 1] == ("inverse", 1, (inner - b) // m + 1)
        # Only positive passes on the multiples of m came before it.
        assert all(call[0] == "pass" and call[2] > 0 and call[1] % m == 0
                   for call, number in zip(calls[:i], lists) if number == lists[i])


# Exponents +3 over all n and +6 at n = 5: the group 3 takes the tail
# (14, 1, +1), and 5 joins it as two units, (5, 2).  Every pass is positive
# and on the step 1, so all go first; (5, 2) grows the list by 10 slots.
TWO_UNITS_EARLY = ProductSpec((
    _linear_factor(SetDescriptor.all_naturals(), -3),
    _linear_factor(SetDescriptor.explicit([5]), -3),
))


def test_an_early_pass_of_two_units_grows_the_list_by_both(monkeypatch):
    assert products.expansion_plan(TWO_UNITS_EARLY, 400) == products.ExpansionPlan(
        {3: ([(14, 1, 1)], [(n, 2 if n == 5 else 1) for n in range(1, 14)])}, [])
    calls, _, _ = spy_kernels(monkeypatch)
    got = coeffs_via_expansion(TWO_UNITS_EARLY, 400)
    # After the pass at n the polynomial ends at degree n(n+1)/2, plus 5 from
    # n = 5 on for the second unit of (1 - x^5).
    assert calls[:14] == [
        *(("pass", n, 2 if n == 5 else 1, 1 + n * (n + 1) // 2 + 5 * (n >= 5)) for n in range(1, 14)),
        ("tail", 14, 1, 1, True),
    ]
    assert got == coeffs_via_recurrence(TWO_UNITS_EARLY, 400)


# Explicit members with the exponents +1 at 2, 3 and 7 and -1 at 4 and 5: no
# class holds a majority past the cut, so the one group has no tail and every
# positive pass goes first.  At order 10 the list of (7, 1) stops at 11
# slots, inner + 1, where its polynomial would need 13.
NO_TAIL = ProductSpec((
    _linear_factor(SetDescriptor.explicit([2, 3, 7]), -1),
    _linear_factor(SetDescriptor.explicit([4, 5]), 1),
))


@pytest.mark.parametrize("order, sizes", [(10, (3, 6, 11)), (400, (3, 6, 13))])
def test_a_group_with_no_tail_runs_every_positive_pass_first(monkeypatch, order, sizes):
    assert products.expansion_plan(NO_TAIL, order) == products.ExpansionPlan(
        {1: ([], [(2, 1), (3, 1), (4, -1), (5, -1), (7, 1)])}, [])
    calls, _, _ = spy_kernels(monkeypatch)
    got = coeffs_via_expansion(NO_TAIL, order)
    assert calls == [("pass", 2, 1, sizes[0]), ("pass", 3, 1, sizes[1]), ("pass", 7, 1, sizes[2]),
                     ("pass", 4, -1, order + 1), ("pass", 5, -1, order + 1)]
    assert got == coeffs_via_recurrence(NO_TAIL, order) == per_degree_expansion(NO_TAIL, order)


def majority_spec(seed):
    """A seeded spec whose classes take majority tails with corrections, which
    no built-in does: a table weight over all n that is mostly one exponent,
    with other exponents and gaps scattered among them, a linear family on one
    class mod m and explicit members on that class.  All exponents share the
    seed's sign, so no correction outgrows max|e|.  Tables reach n = 777."""
    rng = random.Random(f"majority:{seed}")
    sign = 1 if seed % 2 else -1
    m, c = rng.randint(2, 6), rng.randint(1, 3)
    r = rng.randrange(m)
    table = {n: sign * n * (c if rng.random() < 0.8 else rng.randint(0, 3)) for n in range(1, 778)}
    members = rng.sample(range(r or m, 778, m), 8)
    return ProductSpec((
        Factor(SetDescriptor.all_naturals(), WeightSpec.table(table)),
        _linear_factor(SetDescriptor.residue_union([(r, m)]), sign * rng.randint(1, 2)),
        _linear_factor(SetDescriptor.explicit(sorted(members)), sign),
    ), shift=rng.randint(0, 2))


# The exponents 3, 4 and 5 on the class 1 mod 3, a third each, so that none
# is a majority there: the groups are {3, 4, 5}, whose ladder has a product
# at each of its bits 1 and 0.
THREE_FOUR_FIVE = ProductSpec((
    _linear_factor(SetDescriptor.all_naturals(), 3),
    Factor(
        SetDescriptor.residue_union([(1, 3)]),
        WeightSpec.table({n: n * (n // 3 % 3) for n in range(1, 778, 3)}),
    ),
))

MAJORITY_SPECS = {**{f"seed {seed}": majority_spec(seed) for seed in range(4)},
                  "exponents 3, 4, 5": THREE_FOUR_FIVE}


@pytest.mark.parametrize("name", MAJORITY_SPECS)
def test_majority_tails_match_per_degree_passes(monkeypatch, name):
    # A product truncated at order k is the first k + 1 coefficients of the
    # same product at any higher order, so one reference at 300 serves every
    # order 0..300.
    spec = MAJORITY_SPECS[name]
    want = per_degree_expansion(spec, 300).coeffs
    progressions, passes = spy_progressions(monkeypatch), spy_passes(monkeypatch)
    for order in range(301):
        assert coeffs_via_expansion(spec, order) == TruncatedSeries(want[: order + 1]), order
    del progressions[:], passes[:]
    assert coeffs_via_expansion(spec, 777) == per_degree_expansion(spec, 777)
    if spec is not THREE_FOUR_FIVE:
        # Some tail of the order 777 leaves a correction pass on its class.
        assert any(n > s and (n - s) % m == 0 for s, m, _ in progressions for n, _ in passes)


@pytest.mark.parametrize("name", MAJORITY_SPECS)
def test_ladder_makes_two_products_per_bit_at_most(monkeypatch, name):
    spec = MAJORITY_SPECS[name]
    calls = spy_products(monkeypatch)
    for order in (300, 777):
        del calls[:]
        coeffs_via_expansion(spec, order)
        top = max(map(abs, merged_exponents(spec, order - spec.shift).values()))
        assert len(calls) <= 2 * (top.bit_length() - 1)
        if spec is THREE_FOUR_FIVE:
            # Squarings at bits 1 and 0, and products with the bases {3} and
            # {3, 5} there.
            assert (calls.count(True), calls.count(False)) == (2, 2)


def test_equal_ladder_levels_share_one_base(monkeypatch):
    # delta(m) has |e| = m at every degree.  delta(7) has 7 = 0b111, three
    # levels of the one set {7}: it builds its base once, with the passes and
    # progressions of delta(1), and multiplies that base in at bits 1 and 0.
    progressions, passes = spy_progressions(monkeypatch), spy_passes(monkeypatch)
    coeffs_via_expansion(delta_spec(1), 300)
    kernels = (progressions[:], passes[:])
    del progressions[:], passes[:]
    calls = spy_products(monkeypatch)
    assert coeffs_via_expansion(delta_spec(7), 300) == coeffs_via_recurrence(delta_spec(7), 300)
    assert (progressions, passes) == kernels
    assert (calls.count(True), calls.count(False)) == (2, 2)


def test_a_group_shared_by_two_ladder_levels_is_built_once(monkeypatch):
    # square_quotient has the groups 1, 2 and 3, on the levels {3, 2} at bit
    # 1 and {3, 1} at bit 0: both bases start from one build of group 3, so
    # each of its 4 progressions is multiplied in once.
    spec = square_quotient_spec()
    plan = products.expansion_plan(spec, 400)
    assert sorted(plan.groups) == [1, 2, 3]
    tails = [t for power in plan.groups for t in plan.groups[power][0]]
    progressions = spy_progressions(monkeypatch)
    assert coeffs_via_expansion(spec, 400) == coeffs_via_recurrence(spec, 400)
    assert len(progressions) == len(tails) == 4
    assert sorted(progressions) == sorted(tails)


# --- the expansion's plan ---------------------------------------------------


def test_a_multiple_of_a_tail_power_joins_its_group():
    # -6 at the members is two units of the group 3, at most the 3 bits of
    # max|e| = 6; the degrees below the cut 14 keep +3, one unit each.
    plan = products.expansion_plan(OPPOSITE_MEMBERS, 400)
    passes = [(n, 1) for n in range(1, 14)] + [(100, -2), (200, -2), (300, -2)]
    assert plan == products.ExpansionPlan({3: ([(14, 1, 1)], passes)}, [])


def test_a_huge_exponent_beside_a_tail_is_its_own_group():
    # The tail of -1 leaves 10^20 at n = 100.  Any |e| is a multiple of the
    # tail power 1, but 10^20 units are more than max|e| has bits, and its 67
    # bits do not fit the tail's one-bit ladder: it opens the group 10^20.
    huge = 10**20
    spec = ProductSpec((
        _linear_factor(SetDescriptor.all_naturals(), 1),
        _linear_factor(SetDescriptor.explicit([100]), -huge),
    ))
    plan = products.expansion_plan(spec, 400)
    assert plan.groups.keys() == {1, huge}
    assert plan.groups[huge] == ([], [(100, 1)])
    assert plan.strays == []
    assert coeffs_via_expansion(spec, 120) == coeffs_via_recurrence(spec, 120)


def test_strays_patch_the_running_product_while_its_first_base_recurs():
    # +3 over all n has the ladder 3 = 0b11, whose two levels share the base
    # of {3}.  Members at +5 and +4 keep +2 and +1 after the tail: strays,
    # which patch the running product at bits 1 and 0.  At bit 1 the running
    # product starts as that base, and bit 0 multiplies the base in again.
    spec = ProductSpec((
        _linear_factor(SetDescriptor.all_naturals(), -3),
        _linear_factor(SetDescriptor.explicit([50, 150, 250]), -2),
        _linear_factor(SetDescriptor.explicit([70, 170]), -1),
    ))
    plan = products.expansion_plan(spec, 400)
    assert plan.groups.keys() == {3}
    assert plan.strays == [(50, 2), (70, 1), (150, 2), (170, 1), (250, 2)]
    got = coeffs_via_expansion(spec, 400)
    assert got == coeffs_via_recurrence(spec, 400) == per_degree_expansion(spec, 400)


def test_a_tail_at_step_1_beside_a_class_tail():
    # -3 over all n, -2 more on the multiples of 4, -1 more at four members.
    # At N = 5000, -3 holds 3711 of the 4951 degrees from the cut 50 on, so
    # step 1 takes it; the multiples of 4 then keep -2, a tail from their cut
    # 100 on.  The members left at -1 are strays; 44, below the cut with -6,
    # joins the group 3 as two units.  The multiples of 4 below the cut have
    # -5, which no tail power divides: they open the group 5.
    spec = ProductSpec((
        _linear_factor(SetDescriptor.all_naturals(), 3),
        _linear_factor(SetDescriptor.multiples(4), 2),
        _linear_factor(SetDescriptor.explicit([44, 81, 97, 5000]), 1),
    ))
    plan = products.expansion_plan(spec, 5000)
    assert {power: tails for power, (tails, _) in plan.groups.items()} == {
        3: [(50, 1, -1)], 2: [(100, 4, -1)], 5: [],
    }
    assert plan.strays == [(81, -1), (97, -1), (5000, -1)]
    assert (44, -2) in plan.groups[3][1]
    assert plan.groups[5][1] == [(n, -1) for n in range(4, 50, 4) if n != 44]


def test_a_tail_at_an_exact_half_is_not_taken():
    # -1 at the even n from 4 to 32, with no class: the step-1 scan from the
    # cut 4 to inner 33 finds -1 on 15 of its 30 degrees, exactly half, which
    # is not more than half.  So no tail: 15 unit passes, where a tail
    # (4, 1, -1) would need 15 correction passes at the odd n.
    spec = ProductSpec((_linear_factor(SetDescriptor.explicit(range(4, 34, 2)), 1),))
    plan = products.expansion_plan(spec, 33)
    assert plan == products.ExpansionPlan({1: ([], [(n, -1) for n in range(4, 34, 2)])}, [])


def test_a_step_1_tail_at_exactly_seven_tenths_is_not_taken():
    # -1 over all n as the two classes mod 2, with 0 at 3, 4 and 5.  From the
    # step-1 cut 2 to inner 11, -1 holds 7 of the 10 degrees, exactly 7/10,
    # so step 1 takes no tail (it would be (2, 1, -1) with three
    # corrections); the class scan mod 2 takes one tail per class.
    spec = ProductSpec((
        _linear_factor(SetDescriptor.residue_union([(0, 2), (1, 2)]), 1),
        _linear_factor(SetDescriptor.explicit([3, 4, 5]), -1),
    ))
    plan = products.expansion_plan(spec, 11)
    assert plan == products.ExpansionPlan({1: ([(7, 2, -1), (6, 2, -1)], [(1, -1), (2, -1)])}, [])
    assert coeffs_via_expansion(spec, 11) == coeffs_via_recurrence(spec, 11)


def test_expansion_reads_a_linear_exponent_once_per_factor(monkeypatch):
    # A linear factor's exponent is -c at every member: the expansion reads c
    # once per factor, never a per-member exponent_at.
    expected = {name: per_degree_expansion(builtin_spec(name), 200) for name in BUILTIN_NAMES}

    def refuse(self, n):
        raise AssertionError(f"exponent_at({n}) called")

    monkeypatch.setattr(WeightSpec, "exponent_at", refuse)
    for name, want in expected.items():
        assert coeffs_via_expansion(builtin_spec(name), 200) == want, name


def test_expansion_rejects_fractional_linear_weight():
    spec = ProductSpec(
        factors=(Factor(SetDescriptor.all_naturals(), WeightSpec.linear(Fraction(1, 2))),)
    )
    with pytest.raises(ValueError, match="integer exponents"):
        coeffs_via_expansion(spec, 5)


def test_expansion_checks_linear_weights_only_on_members_in_range():
    # (1-x^50)^(-1/3) does not reach x^10 (nor x^51 past a shift of 2).
    spec = ProductSpec(
        factors=(Factor(SetDescriptor.explicit([50]), WeightSpec.linear(Fraction(1, 3))),)
    )
    one = TruncatedSeries([1] + [0] * 10)
    assert coeffs_via_expansion(spec, 10) == coeffs_via_recurrence(spec, 10) == one
    shifted = ProductSpec(factors=spec.factors, shift=2)
    assert coeffs_via_expansion(shifted, 51) == coeffs_via_recurrence(shifted, 51)
    with pytest.raises(ValueError, match="linear weight c=1/3"):
        coeffs_via_expansion(spec, 50)


def test_expansion_rejects_fractional_table_exponent():
    # f(2) = 1 gives the factor (1-x^2)^(-1/2).
    spec = ProductSpec(
        factors=(Factor(SetDescriptor.explicit([2]), WeightSpec.table({2: 1})),)
    )
    with pytest.raises(ValueError, match="integer exponents"):
        coeffs_via_expansion(spec, 5)
    # the recurrence route still works exactly
    out = coeffs_via_recurrence(spec, 4)
    assert out[0] == 1 and out[2] == Fraction(1, 2)


def test_table_weight_routes_agree():
    # f(n) = -2n on {2,3} as a table: factors (1-x^2)^2 (1-x^3)^2
    spec = ProductSpec(
        factors=(
            Factor(SetDescriptor.explicit([2, 3]), WeightSpec.table({2: -4, 3: -6})),
        )
    )
    rec = coeffs_via_recurrence(spec, 12)
    exp = coeffs_via_expansion(spec, 12)
    assert rec == exp
    ref = TruncatedSeries([1, 0, -2, 0, 1] + [0] * 8) * TruncatedSeries(
        [1, 0, 0, -2, 0, 0, 1] + [0] * 6
    )
    assert exp == ref


def test_empty_effective_support_gives_one():
    spec = ProductSpec(
        factors=(Factor(SetDescriptor.explicit([50]), WeightSpec.linear(3)),)
    )
    one = TruncatedSeries([1] + [0] * 10)
    assert coeffs_via_recurrence(spec, 10) == one
    assert coeffs_via_expansion(spec, 10) == one


def test_shift_larger_than_order():
    spec = ProductSpec(factors=gauss_spec().factors, shift=8)
    assert coeffs_via_recurrence(spec, 5) == TruncatedSeries.zero(5)
    assert coeffs_via_expansion(spec, 5) == TruncatedSeries.zero(5)


def test_routes_agree_on_builtins():
    for spec, order in ((jacobi_spec(), 200), (ramanujan_spec(), 200), (delta_spec(8), 100)):
        assert coeffs_via_recurrence(spec, order) == coeffs_via_expansion(spec, order)


# --- built-in spec table ---------------------------------------------------


def test_builtin_spec_lookup():
    assert builtin_spec("gauss") == gauss_spec()
    assert builtin_spec("p_regular(3)") == p_regular_spec(3)
    assert builtin_spec("delta(8)") == delta_spec(8)
    assert builtin_spec("square_quotient") == square_quotient_spec()
    with pytest.raises(ValueError, match="unknown built-in spec"):
        builtin_spec("nope")
    with pytest.raises(ValueError, match="p must be"):
        builtin_spec("p_regular(1)")
    # signed arguments parse, and the spec maker rejects the value
    with pytest.raises(ValueError, match="p must be"):
        builtin_spec("p_regular(-2)")
    with pytest.raises(ValueError, match="positive integer"):
        builtin_spec("delta(-4)")


# Arguments are ASCII digits: an Arabic-Indic three and a fullwidth eight are not.
@pytest.mark.parametrize(
    "name",
    [
        "delta()", "delta(m)", "delta(+8)", "gauss(1)", "p_regular(2,3)",
        "q_regular(\u0663)", "p_regular(\u0663)", "delta(\uff18)",
    ],
)
def test_builtin_spec_malformed_name(name):
    with pytest.raises(ValueError, match="unknown built-in spec"):
        builtin_spec(name)


def test_delta_spec_holds_for_every_m():
    # The product is the m-th power of Gauss's psi, so no m >= 1 is refused.
    for m in (1, 2, 4, 6, 8, 10, 12, 16):
        delta_spec(m)
    for m in (3, 5, 7, 9, 11, 14):
        assert tuple(coeffs_via_expansion(delta_spec(m), 60)) == triangular_rep_counts(m, 60)


# --- properties ------------------------------------------------------------


# Table weights cover 1..TABLE_SPAN, the highest order the tests below use.
TABLE_SPAN = 50


@st.composite
def random_specs(draw, max_shift=3):
    factors = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        which = draw(st.sampled_from(["all", "residues", "multiples", "explicit"]))
        if which == "all":
            s = SetDescriptor.all_naturals()
        elif which == "residues":
            m = draw(st.integers(min_value=1, max_value=6))
            rs = draw(
                st.lists(
                    st.integers(min_value=0, max_value=m - 1),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
            s = SetDescriptor.residue_union([(r, m) for r in rs])
        elif which == "multiples":
            s = SetDescriptor.multiples(draw(st.integers(min_value=1, max_value=6)))
        else:
            s = SetDescriptor.explicit(
                draw(
                    st.lists(
                        st.integers(min_value=1, max_value=12),
                        min_size=1,
                        max_size=4,
                        unique=True,
                    )
                )
            )
        if draw(st.booleans()):
            c = draw(st.integers(min_value=-8, max_value=8))
            weight = WeightSpec.linear(c)
        else:
            # f(n) = n*e(n): the factor (1-x^n)^(-e(n)) with its own exponent
            # per n, so one spec spans many exponent groups.
            exps = draw(
                st.lists(st.integers(-12, 12), min_size=TABLE_SPAN, max_size=TABLE_SPAN)
            )
            weight = WeightSpec.table(
                {n: n * exps[n - 1] for n in s.members_upto(TABLE_SPAN)}
            )
        factors.append(Factor(s, weight))
    return ProductSpec(factors=tuple(factors), shift=draw(st.integers(0, max_shift)))


@settings(max_examples=60, deadline=None)
@given(random_specs(), st.integers(min_value=0, max_value=50))
@example(TWO_UNITS_EARLY, 50)  # an early pass (5, 2) on 21 slots
@example(NO_TAIL, 10)  # an early pass cut at inner + 1
def test_routes_agree_on_random_specs(spec, order):
    assert coeffs_via_recurrence(spec, order) == coeffs_via_expansion(spec, order)


@settings(max_examples=40, deadline=None)
@given(random_specs(max_shift=0), random_specs(max_shift=0))
def test_concatenating_factors_multiplies_series(a, b):
    combined = ProductSpec(factors=a.factors + b.factors)
    order = 30
    for route in (coeffs_via_recurrence, coeffs_via_expansion):
        assert route(combined, order) == route(a, order) * route(b, order)


@settings(max_examples=40, deadline=None)
@given(random_specs(max_shift=0), st.integers(min_value=0, max_value=6))
def test_shift_moves_coefficients(spec, s):
    order = 25
    shifted = ProductSpec(factors=spec.factors, shift=s)
    plain = coeffs_via_recurrence(spec, order)
    out = coeffs_via_recurrence(shifted, order)
    assert out.coeffs[:s] == (0,) * s
    assert out.coeffs[s:] == plain.coeffs[: order + 1 - s]


@settings(max_examples=60, deadline=None)
@given(random_specs())
def test_integer_exponent_specs_have_integral_coefficients(spec):
    assert all(type(c) is int for c in coeffs_via_recurrence(spec, 40))


@settings(max_examples=40, deadline=None)
@given(random_specs(max_shift=0))
def test_expansion_matches_naive_binomial_product(spec):
    # Pin the in-place fast path to folding ts_mul over binomial_factor.
    from divprod.series import binomial_factor

    order = 24
    acc = TruncatedSeries([1] + [0] * order)
    for factor in spec.factors:
        for n in factor.set.members_upto(order):
            e = factor.weight.exponent_at(n)
            acc = acc * binomial_factor(n, e.numerator, order)
    assert coeffs_via_expansion(spec, order) == acc


# --- rational exponents ----------------------------------------------------


RATIONAL_SPAN = 30


@st.composite
def rational_specs(draw):
    """Rational c with denominators 1..6, and table weights that mix rational
    f(n) with integer f(n) that n need not divide; shift 0..3."""
    factors = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        s = draw(
            st.one_of(
                st.just(SetDescriptor.all_naturals()),
                st.integers(min_value=2, max_value=6).map(SetDescriptor.multiples),
                st.lists(
                    st.integers(min_value=1, max_value=12), min_size=1, max_size=4, unique=True
                ).map(SetDescriptor.explicit),
            )
        )
        ratio = st.fractions(min_value=-4, max_value=4, max_denominator=6)
        if draw(st.booleans()):
            weight = WeightSpec.linear(draw(ratio))
        else:
            f = st.one_of(st.integers(-6, 6), ratio)
            weight = WeightSpec.table(
                {n: draw(f) for n in s.members_upto(RATIONAL_SPAN)}
            )
        factors.append(Factor(s, weight))
    return ProductSpec(factors=tuple(factors), shift=draw(st.integers(0, 3)))


def _exponent_scale(spec, order):
    """q from the spec: the lcm of the exponent denominators over n <= order."""
    q = 1
    for factor in spec.factors:
        for n in factor.set.members_upto(order):
            q = lcm(q, factor.weight.exponent_at(n).denominator)
    return q


def _scaled_weights(spec, q):
    """The spec with every weight times q, shift 0: the q-th power of its product."""

    def scaled(w):
        if w.c is not None:
            return WeightSpec.linear(w.c * q)
        return WeightSpec.table({n: v * q for n, v in w.values})

    return ProductSpec(factors=tuple(Factor(f.set, scaled(f.weight)) for f in spec.factors))


def _power(series, e):
    """series**e by squaring with TruncatedSeries.__mul__."""
    acc = TruncatedSeries([1] + [0] * series.order)
    while e:
        if e & 1:
            acc = acc * series
        e >>= 1
        if e:
            series = series * series
    return acc


# {3} with f(3) = 1: g is integral but the exponent is -1/3.
TABLE_THIRD = ProductSpec(factors=(Factor(SetDescriptor.explicit([3]), WeightSpec.table({3: 1})),))
# f(3) = 1 and f(5) = 7/2 on {3, 5}, c = 2/3 on all n: q = 30 (exponents
# -1/3, -7/10 and -2/3), while g's denominators have lcm 6.
TABLE_MIXED = ProductSpec(
    factors=(
        Factor(SetDescriptor.explicit([3, 5]), WeightSpec.table({3: 1, 5: Fraction(7, 2)})),
        Factor(SetDescriptor.all_naturals(), WeightSpec.linear(Fraction(2, 3))),
    )
)
# f(n) = 1 on all n: q = lcm(1..N), far more than the lcm of p's denominators.
TABLE_ONES = ProductSpec(
    factors=(
        Factor(
            SetDescriptor.all_naturals(),
            WeightSpec.table({n: 1 for n in range(1, RATIONAL_SPAN + 1)}),
        ),
    )
)
# No member <= N, so the product is 1 and q = 1.
FAR_THIRD = ProductSpec(
    factors=(Factor(SetDescriptor.explicit([50]), WeightSpec.linear(Fraction(1, 3))),)
)


@settings(max_examples=80, deadline=None)
@given(rational_specs(), st.integers(min_value=0, max_value=RATIONAL_SPAN))
@example(TABLE_THIRD, 30)
@example(TABLE_MIXED, 30)
@example(ProductSpec(factors=TABLE_MIXED.factors, shift=2), 30)
@example(TABLE_ONES, RATIONAL_SPAN)
@example(FAR_THIRD, 10)
def test_recurrence_power_matches_scaled_expansion(spec, order):
    # p(0) = 1, so p is the only series with p^q equal to the product
    # raised to q: this pins every coefficient.
    out = coeffs_via_recurrence(spec, order)
    assert all(
        type(c) is (int if Fraction(c).denominator == 1 else Fraction) for c in out
    )
    inner = order - spec.shift
    if inner < 0:
        assert out == TruncatedSeries.zero(order)
        return
    assert out.coeffs[: spec.shift] == (0,) * spec.shift
    q = _exponent_scale(spec, inner)
    # Any multiple of q will do; the expansion wants every linear c*e to be
    # an integer, also on a factor with no member <= N.
    e = lcm(q, *(f.weight.c.denominator for f in spec.factors if f.weight.c is not None))
    p = TruncatedSeries(out.coeffs[spec.shift :])
    assert _power(p, e) == coeffs_via_expansion(_scaled_weights(spec, e), inner)


def _divisor_sums(spec, order):
    """g(0..order) as Fractions, summed over each k's divisors directly."""
    g = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        for factor in spec.factors:
            for d in range(1, k + 1):
                if k % d == 0 and contains(factor.set, d):
                    g[k] += f_value(factor.weight, d)
    return g


def _weight_scale(spec, order):
    """lcm of c's denominator over linear factors with a member <= order, and
    of the table values' denominators at those members."""
    scale = 1
    for factor in spec.factors:
        w, members = factor.weight, factor.set.members_upto(order)
        if w.c is None:
            scale = lcm(scale, *(f_value(w, d).denominator for d in members))
        elif members:
            scale = lcm(scale, w.c.denominator)
    return scale


def _exponent_denominators(spec, order):
    """(v, d) for each distinct denominator v > 1 of the merged exponent
    sum_i -f_i(d)/d, with the least degree d <= order that has it."""
    first = {}
    for d in range(1, order + 1):
        e = sum(f.weight.exponent_at(d) for f in spec.factors if contains(f.set, d))
        if e.denominator > 1:
            first.setdefault(e.denominator, d)
    return tuple(first.items())


def _single_linear(s, c):
    return ProductSpec(factors=(Factor(s, WeightSpec.linear(c)),))


def _single_table(s, values):
    return ProductSpec(factors=(Factor(s, WeightSpec.table(values)),))


@settings(max_examples=80, deadline=None)
@given(st.one_of(rational_specs(), random_specs()), st.integers(min_value=1, max_value=RATIONAL_SPAN))
# c = 1/3 on multiples of 3: every g(k) is an integer, yet scale is 3.
@example(_single_linear(SetDescriptor.multiples(3), Fraction(1, 3)), 30)
# A table value of 0 adds nothing, but its denominator 1 is read.
@example(_single_table(SetDescriptor.explicit([2, 3]), {2: 0, 3: Fraction(1, 2)}), 12)
# Integer f(d) that d does not divide: integral g, rational exponent.
@example(_single_table(SetDescriptor.explicit([3, 4]), {3: 1, 4: 7}), 20)
# Members above N are never read, so c = 1/5 on {40} leaves scale 1.
@example(
    ProductSpec(
        factors=(
            Factor(SetDescriptor.explicit([2, 40]), WeightSpec.table({2: 3, 40: Fraction(1, 7)})),
            Factor(SetDescriptor.explicit([40]), WeightSpec.linear(Fraction(1, 5))),
        )
    ),
    30,
)
@example(TABLE_MIXED, 1)
def test_weight_table_matches_direct_divisor_sums(spec, order):
    table = weight_table(spec, order)
    g = _divisor_sums(spec, order)
    assert table.order == order
    assert table.denominators == _exponent_denominators(spec, order)
    assert table.scale == _weight_scale(spec, order)
    assert len(table.values) == len(table.numerators) == order + 1
    assert table.values[0] == table.numerators[0] == 0
    for k in range(1, order + 1):
        assert type(table.values[k]) is (int if g[k].denominator == 1 else Fraction)
        assert table.values[k] == g[k]
        assert type(table.numerators[k]) is int
        assert table.numerators[k] == table.scale * g[k]


def test_weight_table_of_a_third_on_multiples_of_three():
    table = weight_table(_single_linear(SetDescriptor.multiples(3), Fraction(1, 3)), 9)
    assert table.scale == 3
    assert table.numerators == (0, 0, 0, 3, 0, 0, 9, 0, 0, 12)
    assert table.values == (0, 0, 0, 1, 0, 0, 3, 0, 0, 4)
    assert all(type(v) is int for v in table.values)


def test_recurrence_of_an_integral_g_with_rational_exponent():
    # (1-x^3)^(-1/3) = 1 + x^3/3 + 2x^6/9 + 14x^9/81 + ...
    out = coeffs_via_recurrence(TABLE_THIRD, 9)
    assert out.coeffs == (1, 0, 0, Fraction(1, 3), 0, 0, Fraction(2, 9), 0, 0, Fraction(14, 81))


# --- the relaxed recurrence against the schoolbook loop -------------------


def schoolbook_recurrence(spec, order):
    """The recurrence as one O(N^2) loop over n and k, with no blocks: the
    reference that the relaxed ``coeffs_via_recurrence`` must equal."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    inner = order - spec.shift
    if inner < 0:
        return TruncatedSeries.zero(order)
    p = [1] + [0] * inner
    den = 1
    table = weight_table(spec, inner)
    b = table.scale
    kernel = [(k, hk) for k, hk in enumerate(table.numerators) if hk]
    for n in range(1, inner + 1):
        acc = 0
        for k, hk in kernel:
            if k > n:
                break
            acc += hk * p[n - k]
        m = b * n
        p[n], r = divmod(acc, m)
        if r:
            t = m // gcd(r, m)
            den *= t
            p[:n] = [c * t for c in p[:n]]
            p[n] = acc * t // m
    if den > 1:
        p = [c.numerator if c.denominator == 1 else c for c in (Fraction(c, den) for c in p)]
    return TruncatedSeries((0,) * spec.shift + tuple(p))


def assert_orders_match(spec, orders):
    """Each order against the prefix of the reference at the largest."""
    expected = schoolbook_recurrence(spec, max(orders)).coeffs
    for order in orders:
        assert coeffs_via_recurrence(spec, order).coeffs == expected[: order + 1], order


def spy_blocks(monkeypatch):
    """The length of P[l:mid] of every block the recurrence packs.  A block
    reads back only the slots it adds into acc[mid:r]: mid-l .. r-l-1."""
    calls = []
    real = products.decimal_mul

    def spy(a, b):
        assert len(a) < len(b)
        calls.append(len(a))
        out = real(a, b)
        assert len(out) == len(b) - len(a)
        return out

    monkeypatch.setattr(products, "decimal_mul", spy)
    return calls


def _over_all(weight):
    return ProductSpec(factors=(Factor(SetDescriptor.all_naturals(), weight),))


@pytest.mark.parametrize("name", ["gauss", "delta(8)", "ramanujan"])
def test_relaxed_recurrence_at_every_order_to_200(name):
    spec = builtin_spec(name)
    assert spec.shift == (name == "ramanujan")
    assert_orders_match(spec, range(201))


def seeded_integer_spec(seed, top):
    """Two or three factors with integer exponents in -3..3 on sets of every
    kind; table weights reach ``top``."""
    rng = random.Random(seed)
    factors = []
    for kind in rng.sample(["all", "residues", "multiples", "explicit"], rng.randint(2, 3)):
        if kind == "all":
            s = SetDescriptor.all_naturals()
        elif kind == "residues":
            m = rng.randint(2, 9)
            s = SetDescriptor.residue_union([(r, m) for r in rng.sample(range(m), rng.randint(1, m))])
        elif kind == "multiples":
            s = SetDescriptor.multiples(rng.randint(2, 9))
        else:
            s = SetDescriptor.explicit(rng.sample(range(1, top + 1), 20))
        if rng.random() < 0.5:
            weight = WeightSpec.linear(rng.choice([-3, -2, -1, 1, 2, 3]))
        else:
            weight = WeightSpec.table({n: n * rng.randint(-3, 3) for n in s.members_upto(top)})
        factors.append(Factor(s, weight))
    return ProductSpec(factors=tuple(factors), shift=rng.randint(0, 3))


@pytest.mark.parametrize("order", [401, 777])
@pytest.mark.parametrize("seed", range(4))
def test_relaxed_recurrence_on_seeded_integer_specs(seed, order):
    spec = seeded_integer_spec(seed, order)
    assert coeffs_via_recurrence(spec, order) == schoolbook_recurrence(spec, order)


# c = 1/3 over all n and -5/6 on 1 mod 4: D is raised at every chunk.
THIRDS = ProductSpec(factors=(
    Factor(SetDescriptor.all_naturals(), WeightSpec.linear(Fraction(1, 3))),
    Factor(SetDescriptor.residue_union([(1, 4)]), WeightSpec.linear(Fraction(-5, 6))),
))


# c = 1/2 twice: the table's scale is 2 while every p(n) is an integer, so
# blocks are packed on a kernel b*g(k) with b > 1.
HALVES = ProductSpec(factors=(
    Factor(SetDescriptor.all_naturals(), WeightSpec.linear(Fraction(1, 2))),
    Factor(SetDescriptor.residue_union([(1, 2)]), WeightSpec.linear(Fraction(1, 2))),
    Factor(SetDescriptor.residue_union([(0, 2)]), WeightSpec.linear(Fraction(1, 2))),
))
# Integral up to x^99; (1-x^100)^(-1/2) makes D grow at n = 100.
LATE_HALF = ProductSpec(factors=(
    Factor(SetDescriptor.all_naturals(), WeightSpec.linear(1)),
    Factor(SetDescriptor.explicit([100]), WeightSpec.table({100: 50})),
))


@pytest.mark.parametrize(
    "spec",
    [
        _over_all(WeightSpec.table({n: 1 for n in range(1, 401)})),
        THIRDS,
        HALVES,
        LATE_HALF,
    ],
    ids=["f=1", "thirds", "halves", "late_half"],
)
def test_relaxed_recurrence_on_rational_specs_to_400(spec):
    # Every order through the first two leaf sizes, then every ninth: the
    # rational orders cost O(N^2) each.
    assert_orders_match(spec, [*range(130), *range(130, 400, 9), 400])


def test_blocks_pack_while_the_denominator_is_one(monkeypatch):
    blocks = spy_blocks(monkeypatch)
    assert weight_table(HALVES, 400).scale == 2
    assert coeffs_via_recurrence(HALVES, 400) == schoolbook_recurrence(HALVES, 400)
    assert blocks == [50, 100, 50, 200, 50, 100, 50]
    blocks.clear()
    # The merged exponent at x^100 is not an integer, so no block is packed,
    # not even those that end before D is first raised.
    assert coeffs_via_recurrence(LATE_HALF, 400) == schoolbook_recurrence(LATE_HALF, 400)
    assert blocks == []


@pytest.mark.parametrize(
    "c, packed",
    [
        # The widest P(j) of a block grows past 8 bits per term of the
        # block: first in the blocks of [200, 400), then in all of them.
        (1000, [50, 100, 200]),
        (-1000, [50, 100, 200, 100]),
        (200000, []),
        (-200000, []),
        (1, [50, 100, 50, 200, 50, 100, 50]),
    ],
)
def test_width_rule_keeps_wide_blocks_in_the_schoolbook_loop(monkeypatch, c, packed):
    spec = _over_all(WeightSpec.linear(c))
    blocks = spy_blocks(monkeypatch)
    assert coeffs_via_recurrence(spec, 400) == schoolbook_recurrence(spec, 400)
    assert blocks == packed


# A range of at most LEAF = 64 terms is one leaf: up to N = 63 the first
# leaf (l = 0) solves all of [0, N]; from N = 64 on the range splits, and
# after a packed block the later leaves (l > 0) end their sums at P(l).
# The partition numbers, unlike gauss's 0/1 coefficients, are nonzero at
# every l, so a sum that stops short of P(l) or runs past it shows.
@pytest.mark.parametrize("order", [63, 64, 65, 127, 128, 129])
def test_recurrence_leaves_at_their_boundaries(monkeypatch, order):
    assert products.LEAF == 64
    blocks = spy_blocks(monkeypatch)
    partitions = _over_all(WeightSpec.linear(1))
    assert coeffs_via_recurrence(partitions, order) == schoolbook_recurrence(partitions, order)
    assert bool(blocks) == (order >= 64)
    # D is raised at n = 33, 65 and 97, and no block is packed.
    blocks.clear()
    ends = [32, 64, 96, 128]
    bounds = list(products.denominator_schedule(weight_table(THIRDS, 128), ends))
    assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
    assert coeffs_via_recurrence(THIRDS, order) == schoolbook_recurrence(THIRDS, order)
    assert blocks == []


@pytest.mark.parametrize("spec", [builtin_spec("gauss"), THIRDS], ids=["integer", "rational"])
def test_recurrence_leaves_no_reference_cycle(spec):
    # Each call's p, acc, table and schedule are freed when it returns, not
    # at the cyclic collector's next run.
    gc.collect()
    gc.disable()
    try:
        coeffs_via_recurrence(spec, 300)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- the recurrence's denominator schedule -------------------------------


# Exponent denominators with composite, repeated and large prime factors.
SCHEDULE_DENOMINATORS = (1, 2, 3, 4, 6, 8, 9, 12, 30, 49, 210, 2**61 - 1)
SCHEDULE_SPAN = 70  # past two raises of D at CHUNK = 32


@st.composite
def scheduled_specs(draw):
    """Rational exponents on every set kind, shift 0.  A table weight is
    f(n) = n*r (exponent -r) or f(n) = r (exponent -r/n); a last linear
    factor over all n may cancel the first factor's fractional part."""
    ratio = st.builds(
        Fraction, st.integers(-7, 7), st.sampled_from(SCHEDULE_DENOMINATORS)
    )
    factors = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        s = draw(
            st.one_of(
                st.just(SetDescriptor.all_naturals()),
                st.integers(min_value=2, max_value=5).map(SetDescriptor.multiples),
                st.integers(min_value=2, max_value=4).map(
                    lambda m: SetDescriptor.residue_union([(1, m)])
                ),
                st.lists(
                    st.integers(min_value=1, max_value=SCHEDULE_SPAN),
                    min_size=1, max_size=5, unique=True,
                ).map(SetDescriptor.explicit),
            )
        )
        if draw(st.booleans()):
            weight = WeightSpec.linear(draw(ratio))
        else:
            per_n = draw(st.booleans())
            weight = WeightSpec.table(
                {n: draw(ratio) * (n if per_n else 1) for n in s.members_upto(SCHEDULE_SPAN)}
            )
        factors.append(Factor(s, weight))
    first = factors[0].weight
    if first.c is not None and draw(st.booleans()):
        cancel = draw(st.integers(-2, 2)) - first.c
        factors.append(Factor(SetDescriptor.all_naturals(), WeightSpec.linear(cancel)))
    return ProductSpec(factors=tuple(factors))


# f(n) = 1 over all n: exponent -1/n, a different denominator at every degree.
ONES = _over_all(WeightSpec.table({n: 1 for n in range(1, SCHEDULE_SPAN + 1)}))
# c = 1/6 and c = -7/6 over all n merge to the integer exponent 1.
CANCELLING = ProductSpec(factors=(
    Factor(SetDescriptor.all_naturals(), WeightSpec.linear(Fraction(1, 6))),
    Factor(SetDescriptor.all_naturals(), WeightSpec.linear(Fraction(-7, 6))),
))
# 2^61 - 1 on the multiples of 3 and 210 on the odd n.
WIDE = ProductSpec(factors=(
    Factor(SetDescriptor.multiples(3), WeightSpec.linear(Fraction(5, 2**61 - 1))),
    Factor(SetDescriptor.residue_union([(1, 2)]), WeightSpec.linear(Fraction(-11, 210))),
))


@settings(max_examples=60, deadline=None)
@given(
    scheduled_specs(),
    st.integers(min_value=0, max_value=SCHEDULE_SPAN),
    st.sampled_from([1, 5, products.CHUNK]),
)
@example(ONES, SCHEDULE_SPAN, products.CHUNK)
@example(CANCELLING, SCHEDULE_SPAN, 5)
@example(WIDE, SCHEDULE_SPAN, products.CHUNK)
@example(HALVES, SCHEDULE_SPAN, 1)
def test_scheduled_recurrence_matches_the_schoolbook_loop(spec, order, chunk):
    # The schoolbook loop grows D by the least factor at each step; the
    # recurrence raises it once per chunk to the schedule's bound.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(products, "CHUNK", chunk)
        assert coeffs_via_recurrence(spec, order) == schoolbook_recurrence(spec, order)


def _schedule(spec, order):
    return list(products.denominator_schedule(weight_table(spec, order), range(order + 1)))


@settings(max_examples=60, deadline=None)
@given(scheduled_specs())
@example(ONES)
@example(CANCELLING)
@example(WIDE)
def test_schedule_bounds_every_prefix_and_grows_by_divisors(spec):
    bound = _schedule(spec, SCHEDULE_SPAN)
    den = 1  # the lcm of the denominators of p(0..n)
    for n, c in enumerate(schoolbook_recurrence(spec, SCHEDULE_SPAN)):
        den = lcm(den, Fraction(c).denominator)
        assert bound[n] % den == 0, n
        assert n == 0 or bound[n] % bound[n - 1] == 0, n


@pytest.mark.parametrize(
    "spec",
    [
        _over_all(WeightSpec.linear(Fraction(1, 3))),
        _over_all(WeightSpec.linear(Fraction(-5, 6))),
        ONES,
    ],
    ids=["third", "minus_five_sixths", "ones"],
)
def test_schedule_is_the_least_common_denominator_of_one_family(spec):
    # For one family over all n the bound is exact: no wider integers than
    # the lcm of the denominators that the schoolbook loop keeps.
    den, dens = 1, []
    for c in schoolbook_recurrence(spec, SCHEDULE_SPAN):
        den = lcm(den, Fraction(c).denominator)
        dens.append(den)
    assert _schedule(spec, SCHEDULE_SPAN) == dens


@pytest.mark.parametrize(
    "spec",
    [gauss_spec(), delta_spec(8), ramanujan_spec(), seeded_integer_spec(0, 60), HALVES, CANCELLING],
    ids=["gauss", "delta8", "ramanujan", "seeded", "halves", "cancelling"],
)
def test_schedule_is_one_for_integer_exponents(spec):
    table = weight_table(spec, SCHEDULE_SPAN)
    assert table.denominators == ()
    assert set(_schedule(spec, SCHEDULE_SPAN)) == {1}


@given(st.lists(st.integers(min_value=1, max_value=10**6), max_size=12))
@example([12, 18, 2**61 - 1, 6, 35, 10])
def test_coprime_base_splits_without_factoring(values):
    base = products._coprime_base(values)
    assert all(q > 1 for q in base)
    assert all(gcd(a, b) == 1 for i, a in enumerate(base) for b in base[i + 1 :])
    for v in values:
        for q in base:
            while v % q == 0:
                v //= q
        assert v == 1


@pytest.mark.parametrize(
    "spec, order",
    [(ONES, SCHEDULE_SPAN), (WIDE, SCHEDULE_SPAN), (LATE_HALF, 130)],
    ids=["ones", "wide", "late_half"],
)
def test_a_schedule_too_small_raises_rather_than_rounds(monkeypatch, spec, order):
    real = products.denominator_schedule

    def short(table, ends):
        # Each bound with every power of the largest base element taken out.
        *_, q = products._coprime_base(v for v, _ in table.denominators)
        for den in real(table, ends):
            while den % q == 0:
                den //= q
            yield den

    monkeypatch.setattr(products, "denominator_schedule", short)
    with pytest.raises(ArithmeticError, match="inexact division at n="):
        coeffs_via_recurrence(spec, order)


# --- JSON wire format ------------------------------------------------------


GAUSS_DOC = {
    "shift": 0,
    "factors": [
        {"set": {"kind": "residueUnion", "classes": [[0, 2]]}, "weight": {"kind": "linear", "c": "-1"}},
        {"set": {"kind": "residueUnion", "classes": [[1, 2]]}, "weight": {"kind": "linear", "c": "1"}},
    ],
}


def test_spec_from_dict_matches_builtin():
    assert spec_from_dict(GAUSS_DOC) == gauss_spec()


@settings(max_examples=60, deadline=None)
@given(random_specs())
def test_json_round_trip_is_exact(spec):
    assert spec_from_json(spec_to_json(spec)) == spec


def test_json_round_trip_with_table_and_rationals():
    spec = ProductSpec(
        factors=(
            Factor(
                SetDescriptor.explicit([2, 6]),
                WeightSpec.table({2: Fraction(-4, 3), 6: 6}),
            ),
            Factor(SetDescriptor.multiples(5), WeightSpec.linear(Fraction(7, 2))),
        ),
        shift=2,
    )
    again = spec_from_json(spec_to_json(spec))
    assert again == spec
    assert again.factors[0].weight.values == ((2, Fraction(-4, 3)), (6, Fraction(6)))


def test_load_spec_file(tmp_path):
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps(GAUSS_DOC))
    assert load_spec(path) == gauss_spec()


def _explicit_table_doc(values, members=(3,)):
    return json.dumps(
        {
            "factors": [
                {
                    "set": {"kind": "explicit", "members": list(members)},
                    "weight": {"kind": "table", "values": values},
                }
            ]
        }
    )


def _linear_doc(c):
    return json.dumps(
        {"factors": [{"set": {"kind": "all"}, "weight": {"kind": "linear", "c": c}}]}
    )


def _one_factor_doc(set_doc, weight_doc=None, **top):
    """A spec document of one factor, c = 1 unless a weight is given, with
    ``top`` as further top-level fields."""
    weight_doc = weight_doc or {"kind": "linear", "c": "1"}
    return json.dumps({"factors": [{"set": set_doc, "weight": weight_doc}], **top})


_ALL_DOC = {"kind": "all"}


@pytest.mark.parametrize(
    "doc,needle",
    [
        ("{not json", "invalid JSON"),
        ("[]", "top level"),
        ('{"factors": []}', "factors"),
        ('{"factors": [{"set": {"kind": "all"}}]}', "needs"),
        (
            '{"factors": [{"set": {"kind": "orbit"}, "weight": {"kind": "linear", "c": "1"}}]}',
            "unknown set kind",
        ),
        (
            '{"factors": [{"set": {"kind": "residueUnion", "classes": [[5, 5]]}, "weight": {"kind": "linear", "c": "1"}}]}',
            "non-canonical",
        ),
        (
            '{"factors": [{"set": {"kind": "all"}, "weight": {"kind": "linear", "c": 0.5}}]}',
            "strings",
        ),
        (
            '{"factors": [{"set": {"kind": "all"}, "weight": {"kind": "linear", "c": "1/0"}}]}',
            "cannot parse",
        ),
        (
            '{"shift": -1, "factors": [{"set": {"kind": "all"}, "weight": {"kind": "linear", "c": "1"}}]}',
            "shift",
        ),
        # The grammar: table keys match -?[0-9]+ and rationals
        # -?[0-9]+(/[0-9]+)?; each rejection names its field.
        (
            _explicit_table_doc({"3": "3", "03": "-3"}),
            r"factors\[0\]\.weight\.values: duplicate table entry for n=3",
        ),
        (
            _explicit_table_doc({"1_0": "10"}, members=(10,)),
            r"factors\[0\]\.weight\.values: key '1_0' is not an integer",
        ),
        (
            _explicit_table_doc({" 3": "3"}),
            r"factors\[0\]\.weight\.values: key ' 3' is not an integer",
        ),
        (
            _explicit_table_doc({"+3": "3"}),
            r"factors\[0\]\.weight\.values: key '\+3' is not an integer",
        ),
        (
            _explicit_table_doc({"\u0663": "3"}),
            r"factors\[0\]\.weight\.values: key '\u0663' is not an integer",
        ),
        (
            _explicit_table_doc({"-3": "3"}),
            r"factors\[0\]\.weight\.values: table keys must be positive integers",
        ),
        (
            _explicit_table_doc({"3": "1.5e0"}),
            r"factors\[0\]\.weight\.values\[3\]: cannot parse rational '1\.5e0'",
        ),
        (
            _linear_doc(" 1/2 "),
            r"factors\[0\]\.weight\.c: cannot parse rational ' 1/2 '",
        ),
        (_linear_doc("+1"), r"factors\[0\]\.weight\.c: cannot parse rational '\+1'"),
        (_linear_doc("1/-2"), r"factors\[0\]\.weight\.c: cannot parse rational"),
        # json.loads would keep the last of two equal keys; the spec rejects them.
        (
            '{"factors": [{"set": {"kind": "explicit", "members": [3]}, '
            '"weight": {"kind": "table", "values": {"3": "3", "3": "-3"}}}]}',
            r"factors\[0\]\.weight\.values: repeated key '3'",
        ),
        (
            '{"shift": 0, "shift": 1, "factors": [{"set": {"kind": "all"}, '
            '"weight": {"kind": "linear", "c": "1"}}]}',
            "top level: repeated key 'shift'",
        ),
        (
            '{"factors": [{"set": {"kind": "all", "kind": "explicit", "members": [3]}, '
            '"weight": {"kind": "linear", "c": "1"}}]}',
            r"factors\[0\]\.set: repeated key 'kind'",
        ),
        # Also in a field the parser ignores, and before the checks of
        # spec_from_dict (an empty factor list).
        ('{"note": {"k": 1, "k": 2}, "factors": []}', "^note: repeated key 'k'"),
        (
            '{"shift": -1, "factors": [{"set": {"kind": "all"}, "weight": {"kind": "linear", "c": "1"}}]}',
            "^shift: shift must be nonnegative$",
        ),
        pytest.param(
            _explicit_table_doc({"1" * 5000: "1"}),
            r"^factors\[0\]\.weight\.values: key of 5000 digits is past the interpreter's "
            r"int-to-str limit$",
            id="key-past-int-digit-limit",
        ),
        pytest.param(
            _linear_doc("1" * 5000),
            r"^factors\[0\]\.weight\.c: integer of 5000 digits is past the interpreter's "
            r"int-to-str limit$",
            id="rational-past-int-digit-limit",
        ),
        # A string that fails the grammar past 100 characters is named by its length.
        pytest.param(
            _linear_doc("1" * 4999 + "x"),
            r"^factors\[0\]\.weight\.c: cannot parse rational of 5000 characters: "
            r'expected "p/q" or "p"$',
            id="long-rational-named-by-length",
        ),
        pytest.param(
            _explicit_table_doc({"1" * 4999 + "x": "1"}),
            r"^factors\[0\]\.weight\.values: key of 5000 characters is not an integer$",
            id="long-key-named-by-length",
        ),
        # A valid key past 100 characters, before a value that fails the
        # grammar, is named by its length in the path.
        pytest.param(
            _explicit_table_doc({"1" * 1000: "x"}),
            r"^factors\[0\]\.weight\.values\[key of 1000 characters\]: cannot parse rational 'x': "
            r'expected "p/q" or "p"$',
            id="long-valid-key-named-by-length-in-path",
        ),
        # The parse that reads such integers still reports a later syntax error.
        pytest.param(
            '{"shift": %s, "factors": [}' % ("1" * 5000),
            "^invalid JSON at line 1 column 5025",
            id="syntax-error-after-int-past-digit-limit",
        ),
        # A kind, a non-integer integer field or a repeated key is quoted up
        # to 100 characters, and past them named by its type and size.
        pytest.param(
            _one_factor_doc({"kind": "x" * 100}),
            rf"^factors\[0\]\.set\.kind: unknown set kind '{'x' * 100}'$",
            id="set-kind-of-100-characters-quoted",
        ),
        pytest.param(
            _one_factor_doc({"kind": "x" * 5000}),
            r"^factors\[0\]\.set\.kind: unknown set kind a string of 5000 characters$",
            id="long-set-kind",
        ),
        pytest.param(
            _one_factor_doc(_ALL_DOC, {"kind": "x" * 5000}),
            r"^factors\[0\]\.weight\.kind: unknown weight kind a string of 5000 characters$",
            id="long-weight-kind",
        ),
        pytest.param(
            _one_factor_doc({"kind": list(range(3000))}),
            r"^factors\[0\]\.set\.kind: unknown set kind a list of length 3000$",
            id="set-kind-list-of-3000",
        ),
        pytest.param(
            _one_factor_doc({"kind": -(10**200)}),
            r"^factors\[0\]\.set\.kind: unknown set kind an integer of 201 digits$",
            id="set-kind-integer-of-201-digits",
        ),
        pytest.param(
            _one_factor_doc({"kind": {"a": "x" * 200}}),
            r"^factors\[0\]\.set\.kind: unknown set kind an object of length 1$",
            id="set-kind-long-object",
        ),
        pytest.param(
            _one_factor_doc({"kind": 1}).replace('"kind": 1', '"kind": ' + "9" * 5000),
            r"^factors\[0\]\.set\.kind: unknown set kind integer of 5000 digits is past the "
            r"interpreter's int-to-str limit$",
            id="set-kind-past-int-digit-limit",
        ),
        pytest.param(
            _one_factor_doc(_ALL_DOC, shift="x" * 5000),
            r"^shift: expected an integer, got a string of 5000 characters$",
            id="long-string-shift",
        ),
        pytest.param(
            _one_factor_doc({"kind": "explicit", "members": [1, "x" * 5000]}),
            r"^factors\[0\]\.set\.members\[1\]: expected an integer, got a string of 5000 "
            r"characters$",
            id="long-string-member",
        ),
        pytest.param(
            _one_factor_doc({"kind": "residueUnion", "classes": [[0, "x" * 5000]]}),
            r"^factors\[0\]\.set\.classes\[0\]\[1\]: expected an integer, got a string of "
            r"5000 characters$",
            id="long-string-in-class",
        ),
        pytest.param(
            _one_factor_doc({"kind": "multiples", "m": [0] * 20000}),
            r"^factors\[0\]\.set\.m: expected an integer, got a list of length 20000$",
            id="m-list-of-20000",
        ),
        pytest.param(
            _one_factor_doc({"kind": "multiples", "m": [1]}).replace("[1]", "[%s]" % ("9" * 5000)),
            r"^factors\[0\]\.set\.m: expected an integer, got \[<integer of 5000 digits is "
            r"past the interpreter's int-to-str limit>\]$",
            id="m-list-holding-int-past-digit-limit",
        ),
        pytest.param(
            '{"%s": 1, "%s": 2, "factors": []}' % ("k" * 5000, "k" * 5000),
            "^top level: repeated key of 5000 characters: JSON object keys may not repeat$",
            id="long-repeated-key",
        ),
        pytest.param(
            '{"%s": {"a": 1, "a": 2}, "factors": []}' % ("p" * 5000),
            r"^\[key of 5000 characters\]: repeated key 'a': JSON object keys may not repeat$",
            id="repeated-key-under-long-key",
        ),
        pytest.param(
            '{"note": {"%s": {"a": 1, "a": 2}}, "factors": []}' % ("p" * 101),
            r"^note\[key of 101 characters\]: repeated key 'a'",
            id="repeated-key-under-long-nested-key",
        ),
        pytest.param(
            '{"note": {"%s": {"a": 1, "a": 2}}, "factors": []}' % ("p" * 100),
            rf"^note\.{'p' * 100}: repeated key 'a'",
            id="repeated-key-under-nested-key-of-100-characters",
        ),
        # The shape of each set, weight and factor field.
        pytest.param(
            _one_factor_doc([]),
            r'^factors\[0\]\.set: expected an object with a "kind" field$',
            id="set-list",
        ),
        pytest.param(
            _one_factor_doc({"m": 2}),
            r'^factors\[0\]\.set: expected an object with a "kind" field$',
            id="set-without-kind",
        ),
        pytest.param(
            _one_factor_doc(_ALL_DOC, {"c": "1"}),
            r'^factors\[0\]\.weight: expected an object with a "kind" field$',
            id="weight-without-kind",
        ),
        pytest.param(
            _one_factor_doc({"kind": "residueUnion", "classes": {"0": 2}}),
            r"^factors\[0\]\.set\.classes: expected a list of \[r, m\] pairs$",
            id="classes-object",
        ),
        pytest.param(
            _one_factor_doc({"kind": "residueUnion", "classes": [[0, 2], [1]]}),
            r"^factors\[0\]\.set\.classes\[1\]: expected a \[r, m\] pair$",
            id="class-of-one-item",
        ),
        pytest.param(
            _one_factor_doc({"kind": "residueUnion", "classes": []}),
            r"^factors\[0\]\.set: residue union needs at least one \(r, m\) class$",
            id="no-classes",
        ),
        pytest.param(
            _one_factor_doc({"kind": "residueUnion", "classes": [[0, 0]]}),
            r"^factors\[0\]\.set: residue modulus must be a positive integer$",
            id="class-modulus-zero",
        ),
        pytest.param(
            _one_factor_doc({"kind": "multiples", "m": 0}),
            r"^factors\[0\]\.set: multiples requires a positive modulus$",
            id="multiples-of-zero",
        ),
        pytest.param(
            _one_factor_doc({"kind": "explicit", "members": 3}),
            r"^factors\[0\]\.set\.members: expected a list of integers$",
            id="members-not-a-list",
        ),
        pytest.param(
            _one_factor_doc(_ALL_DOC, {"kind": "linear"}),
            r"^factors\[0\]\.weight\.c: missing linear coefficient$",
            id="linear-without-c",
        ),
        pytest.param(
            _one_factor_doc(_ALL_DOC, {"kind": "linear", "c": [1]}),
            r"^factors\[0\]\.weight\.c: expected a rational, got list$",
            id="c-list",
        ),
        pytest.param(
            _one_factor_doc(_ALL_DOC, {"kind": "table", "values": [1]}),
            r"^factors\[0\]\.weight\.values: expected an object mapping n to rationals$",
            id="table-values-list",
        ),
        pytest.param(
            '{"factors": [3]}',
            r"^factors\[0\]: expected an object$",
            id="factor-not-an-object",
        ),
    ],
)
def test_spec_parse_errors(doc, needle):
    with pytest.raises(SpecFormatError, match=needle) as info:
        spec_from_json(doc)
    # No value is echoed whole: a message names a long one by its size.
    assert len(str(info.value)) < 300


def test_integer_past_the_digit_limit_in_an_unread_field_is_ignored():
    doc = '{"note": %s, "factors": [{"set": {"kind": "all"}, "weight": {"kind": "linear", "c": "1"}}]}'
    assert spec_from_json(doc % ("9" * 5000)) == spec_from_json(doc % "9")


def test_spec_grammar_accepts_documented_forms():
    spec = spec_from_json(_explicit_table_doc({"3": "-6", "04": "8/3"}, members=(3, 4)))
    assert spec.factors[0].weight.values == ((3, Fraction(-6)), (4, Fraction(8, 3)))
    assert spec_from_json(_linear_doc("-0")).factors[0].weight.c == 0
    assert spec_from_json(_linear_doc(2)).factors[0].weight == WeightSpec.linear(2)
