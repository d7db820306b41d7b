"""Declarative specifications of products prod_i prod_{n in A_i} (1-x^n)^(-f_i(n)/n)
and two independent ways to get their truncated coefficients:

* a divisor-sum recurrence driven by the weight table
  g(k) = sum_i sum_{d | k, d in A_i} f_i(d), via
  n*p(n) = sum_{k=1..n} g(k) * p(n-k) with p(0) = 1, run on the integers
  D * p(n) over the lcm D of the denominators met so far;
* direct expansion of the binomial factors (integer exponents only).

The two routes share nothing past the spec itself, so their agreement is the
working cross-check for every product in the catalog.  Weights are exact
rationals; every linear(c) weight stands for f(n) = c*n, i.e. the factor
family (1-x^n)^(-c) over the set.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from divprod.report import IdentityReport, first_mismatch
from divprod.series import (
    Rational,
    TruncatedSeries,
    apply_binomial_factor,
    kronecker_mul,
    kronecker_pow,
)

SET_ALL = "all"
SET_RESIDUE_UNION = "residueUnion"
SET_MULTIPLES = "multiples"
SET_EXPLICIT = "explicit"


class SpecFormatError(ValueError):
    """A product spec document failed validation; message carries the field path."""


@dataclass(frozen=True)
class SetDescriptor:
    """A subset of the positive integers: a union of residue classes r mod m
    (canonical 0 <= r < m) or an explicit finite list.

    ``kind`` is the wire label.  ``all`` is stored as the class (0, 1) and
    ``multiples`` of m as (0, m), but each keeps its own JSON form.
    """

    kind: str
    classes: tuple[tuple[int, int], ...] = ()
    members: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind == SET_EXPLICIT:
            if any(n < 1 for n in self.members):
                raise ValueError("explicit members must be positive integers")
            if len(set(self.members)) != len(self.members):
                raise ValueError("explicit members must be duplicate-free")
            object.__setattr__(self, "members", tuple(sorted(self.members)))
            return
        if self.kind not in (SET_ALL, SET_RESIDUE_UNION, SET_MULTIPLES):
            raise ValueError(f"unknown set kind {self.kind!r}")
        if not self.classes:
            raise ValueError("residue union needs at least one (r, m) class")
        for r, m in self.classes:
            if m < 1:
                raise ValueError("residue modulus must be a positive integer")
            if not 0 <= r < m:
                raise ValueError(
                    f"non-canonical residue: need 0 <= r < m, got r={r}, m={m}"
                )
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("residue union classes must be duplicate-free")

    @classmethod
    def all_naturals(cls) -> "SetDescriptor":
        return cls(SET_ALL, classes=((0, 1),))

    @classmethod
    def residue_union(cls, classes: Sequence[tuple[int, int]]) -> "SetDescriptor":
        return cls(SET_RESIDUE_UNION, classes=tuple(tuple(c) for c in classes))

    @classmethod
    def multiples(cls, m: int) -> "SetDescriptor":
        if m < 1:
            raise ValueError("multiples requires a positive modulus")
        return cls(SET_MULTIPLES, classes=((0, m),))

    @classmethod
    def explicit(cls, members: Sequence[int]) -> "SetDescriptor":
        return cls(SET_EXPLICIT, members=tuple(members))

    def contains(self, n: int) -> bool:
        if n < 1:
            return False
        if self.kind == SET_EXPLICIT:
            return n in self.members
        return any(n % m == r for r, m in self.classes)

    def members_upto(self, order: int) -> Sequence[int]:
        """Set members <= order, ascending, each once (classes may overlap).

        One class is its range.  Several are walked as ranges and merged, so
        the cost is the sum of order/m over the classes plus a sort.
        """
        if self.kind == SET_EXPLICIT:
            return self.members[: bisect_right(self.members, order)]
        if len(self.classes) == 1:
            (r, m), = self.classes
            return range(r or m, order + 1, m)
        return sorted({n for r, m in self.classes for n in range(r or m, order + 1, m)})

    def to_dict(self) -> dict:
        if self.kind == SET_EXPLICIT:
            return {"kind": SET_EXPLICIT, "members": list(self.members)}
        if self.kind == SET_RESIDUE_UNION:
            return {"kind": SET_RESIDUE_UNION, "classes": [list(c) for c in self.classes]}
        if self.kind == SET_MULTIPLES:
            return {"kind": SET_MULTIPLES, "m": self.classes[0][1]}
        return {"kind": SET_ALL}


WEIGHT_LINEAR = "linear"
WEIGHT_TABLE = "table"


@dataclass(frozen=True, eq=True)
class WeightSpec:
    """Either f(n) = c*n (kind ``linear``) or an explicit table of f values."""

    kind: str
    c: Fraction = Fraction(0)
    values: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self):
        if self.kind == WEIGHT_LINEAR:
            object.__setattr__(self, "c", Fraction(self.c))
        elif self.kind == WEIGHT_TABLE:
            seen = {}
            for n, v in self.values:
                if n < 1:
                    raise ValueError("table keys must be positive integers")
                if n in seen:
                    raise ValueError(f"duplicate table entry for n={n}")
                seen[n] = Fraction(v)
            object.__setattr__(
                self, "values", tuple(sorted(seen.items()))
            )
        else:
            raise ValueError(f"unknown weight kind {self.kind!r}")

    @classmethod
    def linear(cls, c: Rational) -> "WeightSpec":
        return cls(WEIGHT_LINEAR, c=Fraction(c))

    @classmethod
    def table(cls, values: Mapping[int, Rational]) -> "WeightSpec":
        return cls(WEIGHT_TABLE, values=tuple((n, Fraction(v)) for n, v in values.items()))

    def _lookup(self, n: int) -> Fraction:
        i = bisect_left(self.values, n, key=itemgetter(0))
        if i < len(self.values) and self.values[i][0] == n:
            return self.values[i][1]
        raise ValueError(f"table weight missing for required n={n}")

    def f_value(self, n: int) -> Fraction:
        """The weight f(n) at a set member n."""
        if self.kind == WEIGHT_LINEAR:
            return self.c * n
        return self._lookup(n)

    def exponent_at(self, n: int) -> Fraction:
        """The factor exponent of (1-x^n), i.e. -f(n)/n."""
        if self.kind == WEIGHT_LINEAR:
            return -self.c
        return -self._lookup(n) / n

    def to_dict(self) -> dict:
        if self.kind == WEIGHT_LINEAR:
            return {"kind": WEIGHT_LINEAR, "c": str(self.c)}
        return {
            "kind": WEIGHT_TABLE,
            "values": {str(n): str(v) for n, v in self.values},
        }


@dataclass(frozen=True)
class Factor:
    """One weighted family: the set of factor degrees and the weight on them."""

    set: SetDescriptor
    weight: WeightSpec

    def to_dict(self) -> dict:
        return {"set": self.set.to_dict(), "weight": self.weight.to_dict()}


@dataclass(frozen=True)
class ProductSpec:
    """A monomial prefactor x^shift times a list of weighted factor families."""

    factors: tuple[Factor, ...]
    shift: int = 0

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("a product spec needs at least one factor")
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "shift": self.shift,
            "factors": [f.to_dict() for f in self.factors],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


@dataclass(frozen=True)
class DivisorWeightTable:
    """g(k) = sum_i sum_{d | k, d in A_i} f_i(d) for 1 <= k <= order.

    ``values`` is indexed by k; slot 0 is unused and zero.
    """

    order: int
    values: tuple[Rational, ...]

    def __getitem__(self, k: int) -> Rational:
        if not 1 <= k <= self.order:
            raise IndexError(f"k={k} outside 1..{self.order}")
        return self.values[k]


def _tighten(x: Fraction) -> Rational:
    return x.numerator if x.denominator == 1 else x


def weight_table(spec: ProductSpec, order: int) -> DivisorWeightTable:
    """The recurrence kernel g(1..order) for a spec, exactly.

    Each set member d contributes its weight to every multiple of d, which is
    the divisor sum taken in sieve order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    g: list[Rational] = [0] * (order + 1)
    for factor in spec.factors:
        w = factor.weight
        for d in factor.set.members_upto(order):
            val = _tighten(w.f_value(d))
            if val:
                for k in range(d, order + 1, d):
                    g[k] += val
    return DivisorWeightTable(order, tuple(g))


def coeffs_via_recurrence(spec: ProductSpec, order: int) -> TruncatedSeries:
    """Coefficients 0..order of the spec's product via the divisor-sum
    recurrence n*p(n) = sum_{k=1..n} g(k) p(n-k), then the monomial shift.

    The loop runs on integers only: P(j) = D p(j) over one common
    denominator D, with the integer kernel b*g(k) for b the lcm of g's
    denominators, so b*n*D*p(n) = sum_k b g(k) P(n-k).  When b*n does not
    divide that sum, D grows by the least factor that makes P(n) an integer
    and every earlier P(j) is multiplied by it.  D stays the lcm of the
    denominators of p(0..n), so the cost follows the size of the
    coefficients, not of the exponents' denominators.  The output is P(n)
    itself when D = 1, else P(n)/D, an int wherever it is integral.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    inner = order - spec.shift
    if inner < 0:
        return TruncatedSeries.zero(order)
    p = [1] + [0] * inner
    den = 1
    if inner >= 1:
        g = weight_table(spec, inner).values
        b = lcm(*(v.denominator for v in g))
        kernel = [(k, (g[k] * b).numerator) for k in range(1, inner + 1) if g[k]]
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
        p = [_tighten(Fraction(c, den)) for c in p]
    return TruncatedSeries((0,) * spec.shift + tuple(p))


def coeffs_via_expansion(spec: ProductSpec, order: int) -> TruncatedSeries:
    """Coefficients 0..order by multiplying out the binomial factors, then
    shifting; never touches the recurrence.

    Requires an integer exponent at every degree <= order - shift (linear
    weights with integer c; table weights divisible by their n).  The cost is
    bounded by the order and the spec, not by the size of the exponents.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    inner = order - spec.shift
    if inner < 0:
        return TruncatedSeries.zero(order)
    for factor in spec.factors:
        w = factor.weight
        if w.kind == WEIGHT_LINEAR and w.c.denominator != 1 and factor.set.members_upto(inner):
            raise ValueError(
                f"expansion oracle requires integer exponents; linear weight c={w.c}"
            )
    exponents: dict[int, int] = {}
    for factor in spec.factors:
        w = factor.weight
        for n in factor.set.members_upto(inner):
            e = w.exponent_at(n)
            if e.denominator != 1:
                raise ValueError(
                    f"expansion oracle requires integer exponents; factor at n={n} "
                    f"has exponent {e}"
                )
            if e:
                exponents[n] = exponents.get(n, 0) + e.numerator
    # Unit exponents go in place, one O(N) pass each.  The other degrees are
    # grouped by |e|: each group's unit base prod (1-x^n)^(sign e) is raised
    # to |e| by squaring, so the cost does not grow with |e|.
    coeffs: list[int] = [1] + [0] * inner
    groups: dict[int, list[int]] = {}
    for n in sorted(exponents):
        e = exponents[n]
        if e in (1, -1):
            apply_binomial_factor(coeffs, n, e)
        elif e:
            groups.setdefault(abs(e), []).append(n)
    for power, members in groups.items():
        base = [1] + [0] * inner
        for n in members:
            apply_binomial_factor(base, n, 1 if exponents[n] > 0 else -1)
        coeffs = kronecker_mul(coeffs, kronecker_pow(base, power, inner), inner)
    return TruncatedSeries((0,) * spec.shift + tuple(coeffs))


def cross_check(spec: ProductSpec, order: int) -> IdentityReport:
    """Run both coefficient algorithms and report the first disagreement."""
    miss = first_mismatch(coeffs_via_recurrence(spec, order), coeffs_via_expansion(spec, order))
    return IdentityReport("cross_check", order, miss is None, miss)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


# Decimal digits only: int() and Fraction() also take "1_0", " 3", "+3",
# "1.5e0" and non-ASCII digits, which the wire format does not.
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _rational_from_json(value, path: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise SpecFormatError(
            f"{path}: rationals must be strings like \"p/q\" (or ints), got {value!r}"
        )
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _RATIONAL.fullmatch(value) is None:
            raise SpecFormatError(
                f"{path}: cannot parse rational {value!r}: expected \"p/q\" or \"p\""
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecFormatError(f"{path}: cannot parse rational {value!r}: {exc}")
    raise SpecFormatError(f"{path}: expected a rational, got {type(value).__name__}")


def _int_from_json(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFormatError(f"{path}: expected an integer, got {value!r}")
    return value


def _set_from_dict(doc, path: str) -> SetDescriptor:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SpecFormatError(f"{path}: expected an object with a \"kind\" field")
    kind = doc["kind"]
    try:
        if kind == SET_ALL:
            return SetDescriptor.all_naturals()
        if kind == SET_RESIDUE_UNION:
            raw = doc.get("classes")
            if not isinstance(raw, list):
                raise SpecFormatError(f"{path}.classes: expected a list of [r, m] pairs")
            classes = []
            for i, pair in enumerate(raw):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise SpecFormatError(f"{path}.classes[{i}]: expected a [r, m] pair")
                classes.append(
                    [_int_from_json(v, f"{path}.classes[{i}][{j}]") for j, v in enumerate(pair)]
                )
            return SetDescriptor.residue_union(classes)
        if kind == SET_MULTIPLES:
            return SetDescriptor.multiples(_int_from_json(doc.get("m"), f"{path}.m"))
        if kind == SET_EXPLICIT:
            raw = doc.get("members")
            if not isinstance(raw, list):
                raise SpecFormatError(f"{path}.members: expected a list of integers")
            return SetDescriptor.explicit(
                [_int_from_json(v, f"{path}.members[{i}]") for i, v in enumerate(raw)]
            )
    except ValueError as exc:
        if isinstance(exc, SpecFormatError):
            raise
        raise SpecFormatError(f"{path}: {exc}")
    raise SpecFormatError(f"{path}.kind: unknown set kind {kind!r}")


def _weight_from_dict(doc, path: str) -> WeightSpec:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SpecFormatError(f"{path}: expected an object with a \"kind\" field")
    kind = doc["kind"]
    if kind == WEIGHT_LINEAR:
        if "c" not in doc:
            raise SpecFormatError(f"{path}.c: missing linear coefficient")
        return WeightSpec.linear(_rational_from_json(doc["c"], f"{path}.c"))
    if kind == WEIGHT_TABLE:
        raw = doc.get("values")
        if not isinstance(raw, dict):
            raise SpecFormatError(f"{path}.values: expected an object mapping n to rationals")
        values = []
        for key, v in raw.items():
            try:
                if _INTEGER.fullmatch(key) is None:
                    raise ValueError
                n = int(key)  # raises past the interpreter's digit limit too
            except ValueError:
                raise SpecFormatError(f"{path}.values: key {key!r} is not an integer")
            values.append((n, _rational_from_json(v, f"{path}.values[{key}]")))
        try:
            return WeightSpec(WEIGHT_TABLE, values=tuple(values))
        except ValueError as exc:
            raise SpecFormatError(f"{path}.values: {exc}")
    raise SpecFormatError(f"{path}.kind: unknown weight kind {kind!r}")


def spec_from_dict(doc) -> ProductSpec:
    if not isinstance(doc, dict):
        raise SpecFormatError("top level: expected an object")
    shift = _int_from_json(doc.get("shift", 0), "shift")
    raw_factors = doc.get("factors")
    if not isinstance(raw_factors, list) or not raw_factors:
        raise SpecFormatError("factors: expected a nonempty list")
    factors = []
    for i, fdoc in enumerate(raw_factors):
        if not isinstance(fdoc, dict):
            raise SpecFormatError(f"factors[{i}]: expected an object")
        if "set" not in fdoc or "weight" not in fdoc:
            raise SpecFormatError(f"factors[{i}]: needs \"set\" and \"weight\" fields")
        factors.append(
            Factor(
                _set_from_dict(fdoc["set"], f"factors[{i}].set"),
                _weight_from_dict(fdoc["weight"], f"factors[{i}].weight"),
            )
        )
    try:
        return ProductSpec(factors=tuple(factors), shift=shift)
    except ValueError as exc:  # factors is nonempty, so the shift is negative
        raise SpecFormatError(f"shift: {exc}")


class _Repeated(NamedTuple):
    """Stands in for a JSON object in which ``key`` repeats."""

    key: str


def _reject_repeated_keys(doc) -> None:
    """Raise at the first object, in document order, whose keys repeat,
    naming its path; the walk also covers fields the spec does not read."""
    stack = [("", doc)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, _Repeated):
            raise SpecFormatError(
                f"{path or 'top level'}: repeated key {node.key!r}: "
                "JSON object keys may not repeat"
            )
        if isinstance(node, dict):
            stack.extend((f"{path}.{k}" if path else k, v) for k, v in reversed(node.items()))
        elif isinstance(node, list):
            stack.extend((f"{path}[{i}]", node[i]) for i in reversed(range(len(node))))


def spec_from_json(text: str) -> ProductSpec:
    repeats = []

    def unique_keys(pairs: list[tuple[str, object]]):
        doc = {}
        for key, value in pairs:
            if key in doc:
                repeats.append(key)
                return _Repeated(key)
            doc[key] = value
        return doc

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if repeats:
        _reject_repeated_keys(doc)
    return spec_from_dict(doc)


def load_spec(path) -> ProductSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json(fh.read())


# ---------------------------------------------------------------------------
# Built-in specs
# ---------------------------------------------------------------------------

_EVENS = SetDescriptor.residue_union([(0, 2)])
_ODDS = SetDescriptor.residue_union([(1, 2)])
_ALL = SetDescriptor.all_naturals()


def gauss_spec() -> ProductSpec:
    """prod (1-x^{2n}) (1-x^{2n-1})^{-1}: the triangular-number indicator series."""
    return ProductSpec(
        factors=(
            Factor(_EVENS, WeightSpec.linear(-1)),
            Factor(_ODDS, WeightSpec.linear(1)),
        )
    )


def jacobi_spec() -> ProductSpec:
    """prod (1-x^{2n}) (1-x^{2n-1})^2: 1 + 2 sum (-1)^n x^{n^2}."""
    return ProductSpec(
        factors=(
            Factor(_EVENS, WeightSpec.linear(-1)),
            Factor(_ODDS, WeightSpec.linear(-2)),
        )
    )


def ramanujan_spec() -> ProductSpec:
    """x * prod (1-x^{2n})^8 (1-x^{2n-1})^{-8}: the cubic Lambert coefficients."""
    return ProductSpec(
        factors=(
            Factor(_EVENS, WeightSpec.linear(-8)),
            Factor(_ODDS, WeightSpec.linear(8)),
        ),
        shift=1,
    )


def rogers_ramanujan_spec(which: int) -> ProductSpec:
    """prod over n = 1,4 mod 5 (which=1) or n = 2,3 mod 5 (which=2) of (1-x^n)^{-1}."""
    if which == 1:
        classes = [(1, 5), (4, 5)]
    elif which == 2:
        classes = [(2, 5), (3, 5)]
    else:
        raise ValueError("which must be 1 or 2")
    return ProductSpec(
        factors=(Factor(SetDescriptor.residue_union(classes), WeightSpec.linear(1)),)
    )


def p_regular_spec(p: int) -> ProductSpec:
    """prod (1-x^{pn}) (1-x^n)^{-1}: partitions with parts repeating < p times."""
    if p < 2:
        raise ValueError("p must be an integer >= 2")
    return ProductSpec(
        factors=(
            Factor(_ALL, WeightSpec.linear(1)),
            Factor(SetDescriptor.multiples(p), WeightSpec.linear(-1)),
        )
    )


def delta_product_admissible(m: int) -> bool:
    """m values for which the theta power equals prod (1-x^{2n})^{2m} (1-x^n)^{-m}."""
    return m in (1, 2, 6, 10) or (m > 0 and m % 4 == 0)


def delta_spec(m: int) -> ProductSpec:
    """prod (1-x^{2n})^{2m} (1-x^n)^{-m}: representations by m triangular numbers.

    Only available for m in {1, 2, 6, 10} or m a multiple of 4; the product
    formula does not hold for other m.
    """
    if not delta_product_admissible(m):
        raise ValueError(
            f"no triangular-representation product formula for m={m}; "
            "admissible m: 1, 2, 6, 10, or any multiple of 4"
        )
    return ProductSpec(
        factors=(
            Factor(_EVENS, WeightSpec.linear(-2 * m)),
            Factor(_ALL, WeightSpec.linear(m)),
        )
    )


def square_quotient_spec() -> ProductSpec:
    """prod (1-x^{2n})^5 (1-x^n)^{-2} (1-x^{4n})^{-2}: 1 + 2 sum x^{n^2}."""
    return ProductSpec(
        factors=(
            Factor(_EVENS, WeightSpec.linear(-5)),
            Factor(_ALL, WeightSpec.linear(2)),
            Factor(SetDescriptor.multiples(4), WeightSpec.linear(2)),
        )
    )


_CALL = re.compile(r"(\w+)(?:\((-?[0-9]+(?:,-?[0-9]+)*)\))?", re.ASCII)


def resolve_name(table: Mapping[str, Callable], name: str) -> Optional[Callable]:
    """Look ``name`` up in a table keyed by signatures such as ``delta(m)``.

    ``delta(8)`` finds the maker under ``delta(m)`` and binds 8 as its
    first argument; a bare name finds a bare key.  Arguments are decimal
    integers, optionally negative, which the maker validates.  None when
    nothing matches.
    """
    match = _CALL.fullmatch(name)
    if match is None:
        return None
    head, raw = match.groups()
    args = [int(a) for a in raw.split(",")] if raw else []
    for signature, make in table.items():
        sig_head, _, params = signature.partition("(")
        arity = len(params.split(",")) if params else 0
        if sig_head == head and arity == len(args):
            return partial(make, *args)
    return None


_BUILTIN_SPECS: dict[str, Callable[..., ProductSpec]] = {
    "gauss": gauss_spec,
    "jacobi": jacobi_spec,
    "ramanujan": ramanujan_spec,
    "rr1": lambda: rogers_ramanujan_spec(1),
    "rr2": lambda: rogers_ramanujan_spec(2),
    "p_regular(p)": p_regular_spec,
    "delta(m)": delta_spec,
    "square_quotient": square_quotient_spec,
}

BUILTIN_SPEC_NAMES = tuple(_BUILTIN_SPECS)


def builtin_spec(name: str) -> ProductSpec:
    """Look up a built-in spec by name, e.g. ``gauss`` or ``delta(8)``."""
    make = resolve_name(_BUILTIN_SPECS, name)
    if make is None:
        raise ValueError(
            f"unknown built-in spec {name!r}; available: {', '.join(BUILTIN_SPEC_NAMES)}"
        )
    return make()
