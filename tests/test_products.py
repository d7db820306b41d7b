"""Recurrence engine: weight tables, the two coefficient routes, spec JSON."""

import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divprod.products import (
    Factor,
    ProductSpec,
    SetDescriptor,
    SpecFormatError,
    WeightSpec,
    builtin_spec,
    coeffs_via_expansion,
    coeffs_via_recurrence,
    cross_check,
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
from divprod.sequences import lambert_cubic_by_divisors, regular_partition_counts
from divprod.series import TruncatedSeries


# --- set descriptors -------------------------------------------------------


def test_set_membership():
    evens = SetDescriptor.residue_union([(0, 2)])
    assert [n for n in range(1, 11) if evens.contains(n)] == [2, 4, 6, 8, 10]
    assert list(evens.members_upto(9)) == [2, 4, 6, 8]
    assert not evens.contains(0)

    mult3 = SetDescriptor.multiples(3)
    assert list(mult3.members_upto(10)) == [3, 6, 9]

    ex = SetDescriptor.explicit([7, 2, 5])
    assert ex.members == (2, 5, 7)
    assert list(ex.members_upto(6)) == [2, 5]

    assert list(SetDescriptor.all_naturals().members_upto(4)) == [1, 2, 3, 4]
    # Stored as the same classes, but the wire forms differ.
    assert SetDescriptor.all_naturals() != SetDescriptor.residue_union([(0, 1)])


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
    assert list(s.members_upto(order)) == [n for n in range(1, order + 1) if s.contains(n)]


@pytest.mark.parametrize("m", [1, 2, 3, 7, 10**6])
def test_multiples_keeps_its_wire_form(m):
    assert SetDescriptor.multiples(m).to_dict() == {"kind": "multiples", "m": m}
    assert SetDescriptor.multiples(m) != SetDescriptor.residue_union([(0, m)])


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


# --- weight tables ---------------------------------------------------------


def test_weight_table_gauss():
    g = weight_table(gauss_spec(), 6)
    assert g[6] == 4 - 8 == -4
    assert g[1] == 1


def test_weight_table_rogers_ramanujan():
    g = weight_table(rogers_ramanujan_spec(1), 6)
    assert g[4] == 1 + 4 == 5


def test_weight_table_jacobi():
    g = weight_table(jacobi_spec(), 4)
    assert g[1] == -2


def test_weight_table_bounds():
    g = weight_table(gauss_spec(), 5)
    with pytest.raises(IndexError):
        g[0]
    with pytest.raises(IndexError):
        g[6]


def test_table_weight_lookup_first_last_and_missing():
    w = WeightSpec.table({9: 3, 2: Fraction(1, 2), 5: -4})
    assert w.f_value(2) == Fraction(1, 2)
    assert w.f_value(9) == 3
    assert w.exponent_at(9) == Fraction(-1, 3)
    for missing in (1, 4, 10):
        with pytest.raises(ValueError, match=f"table weight missing for required n={missing}"):
            w.f_value(missing)


def test_weight_table_missing_table_entry():
    spec = ProductSpec(
        factors=(
            Factor(SetDescriptor.explicit([2, 4]), WeightSpec.table({2: 2})),
        )
    )
    with pytest.raises(ValueError, match="table weight missing"):
        weight_table(spec, 5)


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
    assert out.coeffs == regular_partition_counts(2, 5).coeffs


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
    one = TruncatedSeries.one(10)
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
    ref = (
        TruncatedSeries([1, 0, -2, 0, 1], order=12)
        * TruncatedSeries([1, 0, 0, -2, 0, 0, 1], order=12)
    )
    assert exp == ref


def test_empty_effective_support_gives_one():
    spec = ProductSpec(
        factors=(Factor(SetDescriptor.explicit([50]), WeightSpec.linear(3)),)
    )
    assert coeffs_via_recurrence(spec, 10) == TruncatedSeries.one(10)
    assert coeffs_via_expansion(spec, 10) == TruncatedSeries.one(10)


def test_shift_larger_than_order():
    spec = ProductSpec(factors=gauss_spec().factors, shift=8)
    assert coeffs_via_recurrence(spec, 5) == TruncatedSeries.zero(5)
    assert coeffs_via_expansion(spec, 5) == TruncatedSeries.zero(5)


def test_cross_check_builtins():
    assert cross_check(jacobi_spec(), 200).passed
    assert cross_check(ramanujan_spec(), 200).passed
    assert cross_check(delta_spec(8), 100).passed


def test_cross_check_reports_mismatch_location():
    # A non-integer-exponent spec cannot be expanded, so fabricate disagreement
    # by comparing two different specs through the report helper directly.
    rec = coeffs_via_recurrence(gauss_spec(), 6)
    exp = coeffs_via_expansion(jacobi_spec(), 6)
    first = next(n for n in range(7) if rec[n] != exp[n])
    assert first == 1


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
    with pytest.raises(ValueError, match="admissible m"):
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


def test_delta_spec_admissibility():
    for m in (1, 2, 4, 6, 8, 10, 12, 16):
        delta_spec(m)
    for m in (3, 5, 7, 9, 11, 14):
        with pytest.raises(ValueError, match="admissible m"):
            delta_spec(m)


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
    assert coeffs_via_recurrence(spec, 40).is_integral()


@settings(max_examples=40, deadline=None)
@given(random_specs(max_shift=0))
def test_expansion_matches_naive_binomial_product(spec):
    # Pin the in-place fast path to folding ts_mul over binomial_factor.
    from divprod.series import binomial_factor

    order = 24
    acc = TruncatedSeries.one(order)
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
        if w.kind == "linear":
            return WeightSpec.linear(w.c * q)
        return WeightSpec.table({n: v * q for n, v in w.values})

    return ProductSpec(factors=tuple(Factor(f.set, scaled(f.weight)) for f in spec.factors))


def _power(series, e):
    """series**e by squaring with TruncatedSeries.__mul__."""
    acc = TruncatedSeries.one(series.order)
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
    e = lcm(q, *(f.weight.c.denominator for f in spec.factors))
    p = TruncatedSeries(out.coeffs[spec.shift :])
    assert _power(p, e) == coeffs_via_expansion(_scaled_weights(spec, e), inner)


def test_recurrence_of_an_integral_g_with_rational_exponent():
    # (1-x^3)^(-1/3) = 1 + x^3/3 + 2x^6/9 + 14x^9/81 + ...
    out = coeffs_via_recurrence(TABLE_THIRD, 9)
    assert out.coeffs == (1, 0, 0, Fraction(1, 3), 0, 0, Fraction(2, 9), 0, 0, Fraction(14, 81))


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
    assert spec_from_json(spec.to_json()) == spec


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
    again = spec_from_json(spec.to_json())
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
            r"factors\[0\]\.weight\.values: key '1{5000}' is not an integer",
            id="key-past-int-digit-limit",
        ),
        pytest.param(
            _linear_doc("1" * 5000),
            r"factors\[0\]\.weight\.c: cannot parse rational",
            id="rational-past-int-digit-limit",
        ),
    ],
)
def test_spec_parse_errors(doc, needle):
    with pytest.raises(SpecFormatError, match=needle):
        spec_from_json(doc)


def test_spec_grammar_accepts_documented_forms():
    spec = spec_from_json(_explicit_table_doc({"3": "-6", "04": "8/3"}, members=(3, 4)))
    assert spec.factors[0].weight.values == ((3, Fraction(-6)), (4, Fraction(8, 3)))
    assert spec_from_json(_linear_doc("-0")).factors[0].weight.c == 0
