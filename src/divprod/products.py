"""Declarative specifications of products prod_i prod_{n in A_i} (1-x^n)^(-f_i(n)/n)
and two independent ways to get their truncated coefficients:

* a divisor-sum recurrence driven by the weight table
  g(k) = sum_i sum_{d | k, d in A_i} f_i(d), via
  n*p(n) = sum_{k=1..n} g(k) * p(n-k) with p(0) = 1, run on the integers
  D * p(n) over a common denominator D that a schedule, fixed in advance
  from the exponents' denominators, raises once per chunk of n; its sums
  relaxed into blocks packed by ``series.decimal_mul``;
* direct expansion of the binomial factors (integer exponents only), whose
  one binary ladder of squarings and products goes through
  ``series.kronecker_mul``.

The two routes share nothing past the spec itself, not even a packed
product, so their agreement is the working cross-check for every product in
the catalog.  Weights are exact
rationals; every linear(c) weight stands for f(n) = c*n, i.e. the factor
family (1-x^n)^(-c) over the set.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import compress, repeat
from math import gcd, isqrt, lcm, prod
from operator import add, itemgetter, mul, sub
from typing import Callable, Mapping, NamedTuple, Sequence

from divprod.divisors import divisor_sums, non_canonical
from divprod.series import (
    _SHOWN_CHARS,
    Rational,
    TruncatedSeries,
    apply_binomial_factor,
    apply_progression,
    check_order,
    decimal_mul,
    kronecker_mul,
)

SET_ALL = "all"
SET_RESIDUE_UNION = "residueUnion"
SET_MULTIPLES = "multiples"
SET_EXPLICIT = "explicit"
WEIGHT_LINEAR = "linear"
WEIGHT_TABLE = "table"


def _exact(x, what: str) -> Fraction:
    """x as a Fraction, itself if it is one; a float or a bool is refused
    rather than read as the binary fraction or the truth value it holds."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (bool, float)):
        raise ValueError(f"{what} must be an int or a Fraction, got {x!r}")
    return Fraction(x)


class SpecFormatError(ValueError):
    """A product spec document failed validation; message carries the field path."""


@dataclass(frozen=True)
class SetDescriptor:
    """A subset of the positive integers: a union of residue classes r mod m
    (canonical 0 <= r < m), or, with no classes, an explicit finite list.

    A set is given by its classes or by its members, never both.  All
    naturals are the class (0, 1) and the multiples of m the class (0, m),
    so each equals its residue-union form.
    """

    classes: tuple[tuple[int, int], ...] = ()
    members: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes:
            if not all(type(n) is int and n > 0 for n in self.members):
                raise ValueError("explicit members must be positive integers")
            if len(set(self.members)) != len(self.members):
                raise ValueError("explicit members must be duplicate-free")
            object.__setattr__(self, "members", tuple(sorted(self.members)))
            return
        if self.members:
            raise ValueError("a set takes classes or members, not both")
        object.__setattr__(self, "members", ())  # an empty list given here would not hash
        for c in self.classes:
            if not (type(c) is tuple and len(c) == 2 and all(type(v) is int for v in c)):
                raise ValueError(f"residue class {c!r} must be a pair of integers")
            r, m = c
            if m < 1:
                raise ValueError("residue modulus must be a positive integer")
            if not 0 <= r < m:
                raise ValueError(non_canonical(r, m))
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("residue union classes must be duplicate-free")

    @classmethod
    def all_naturals(cls) -> "SetDescriptor":
        return cls(classes=((0, 1),))

    @classmethod
    def residue_union(cls, classes: Sequence[tuple[int, int]]) -> "SetDescriptor":
        if not (classes := tuple(tuple(c) for c in classes)):
            raise ValueError("residue union needs at least one (r, m) class")
        return cls(classes=classes)

    @classmethod
    def multiples(cls, m: int) -> "SetDescriptor":
        if type(m) is not int or m < 1:
            raise ValueError("multiples requires a positive modulus")
        return cls(classes=((0, m),))

    @classmethod
    def explicit(cls, members: Sequence[int]) -> "SetDescriptor":
        return cls(members=tuple(members))

    def members_upto(self, order: int) -> Sequence[int]:
        """Set members <= order, ascending, each once (classes may overlap).

        One class is its range.  Several are walked as ranges and merged, so
        the cost is the sum of order/m over the classes plus a sort.
        """
        if not self.classes:
            return self.members[: bisect_right(self.members, order)]
        if len(self.classes) == 1:
            (r, m), = self.classes
            return range(r or m, order + 1, m)
        return sorted({n for r, m in self.classes for n in range(r or m, order + 1, m)})


@dataclass(frozen=True, eq=True)
class WeightSpec:
    """A weight f on a factor's set: f(n) = c*n when ``c`` is given, else
    the explicit table ``values`` of (n, f(n)) pairs, also keyed by n as
    ``by_n`` (empty if linear).  A weight takes c or table values, never
    both; an empty table is a table, not linear(0)."""

    c: Fraction | None = None
    values: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self):
        if self.c is not None:
            if self.values:
                raise ValueError("a weight takes c or table values, not both")
            object.__setattr__(self, "c", _exact(self.c, "linear weight c"))
            object.__setattr__(self, "values", ())  # an empty list given here would not hash
            object.__setattr__(self, "by_n", {})
            return
        seen = {}
        for n, v in self.values:
            if not (type(n) is int and n > 0):
                raise ValueError("table keys must be positive integers")
            if n in seen:
                raise ValueError(f"duplicate table entry for n={n}")
            seen[n] = v if type(v) is Fraction else _exact(v, f"table value at n={n}")
        object.__setattr__(self, "values", tuple(sorted(seen.items())))
        object.__setattr__(self, "by_n", seen)

    @classmethod
    def linear(cls, c: Rational) -> "WeightSpec":
        return cls(c=_exact(c, "linear weight c"))  # c=None would be a table

    @classmethod
    def table(cls, values: Mapping[int, Rational]) -> "WeightSpec":
        return cls(values=tuple(values.items()))

    def exponent_at(self, n: int) -> Fraction:
        """The factor exponent of (1-x^n), i.e. -f(n)/n, at a set member n."""
        if self.c is not None:
            return -self.c
        if n not in self.by_n:
            raise ValueError(f"table weight missing for required n={n}")
        return -self.by_n[n] / n


@dataclass(frozen=True)
class Factor:
    """One weighted family: the set of factor degrees and the weight on them."""

    set: SetDescriptor
    weight: WeightSpec

    def __post_init__(self):
        if not isinstance(self.set, SetDescriptor):
            raise ValueError(f"a factor's set must be a SetDescriptor, got {self.set!r}")
        if not isinstance(self.weight, WeightSpec):
            raise ValueError(f"a factor's weight must be a WeightSpec, got {self.weight!r}")


@dataclass(frozen=True)
class ProductSpec:
    """A monomial prefactor x^shift times a list of weighted factor families."""

    factors: tuple[Factor, ...]
    shift: int = 0

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("a product spec needs at least one factor")
        for f in self.factors:
            if not isinstance(f, Factor):
                raise ValueError(f"product spec factors must be Factor values, got {f!r}")
        if type(self.shift) is not int:
            raise ValueError(f"shift must be an integer, got {self.shift!r}")
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")


@dataclass(frozen=True)
class DivisorWeightTable:
    """g(k) = sum_i sum_{d | k, d in A_i} f_i(d) for 1 <= k <= order, held as
    the integers ``numerators[k] = scale * g(k)``; slot 0 is unused and zero.

    ``values`` is the exact g, an int wherever it is integral, derived on its
    first read.  ``scale`` is as ``weight_table`` chose it.  ``denominators``
    holds a pair (v, d) for each distinct denominator v > 1 of the merged
    exponents -F(d)/d, F(d) = sum_i f_i(d), read off the same per-degree sums
    that g sieves, with the least degree d that has it; it is empty when
    every merged exponent is an integer.
    """

    order: int
    numerators: tuple[int, ...]
    scale: int
    denominators: tuple[tuple[int, int], ...]

    @cached_property
    def values(self) -> tuple[Rational, ...]:
        return tuple(_tighten(Fraction(h, self.scale)) for h in self.numerators)


def _tighten(x: Fraction) -> Rational:
    return x.numerator if x.denominator == 1 else x


def _members_upto(spec: ProductSpec, order: int):
    """(weight path, weight, members <= order) of each factor in turn.  A
    table weight needs a value at each of those members; the first one
    missing is refused here, with its field path, for both routes."""
    for i, factor in enumerate(spec.factors):
        path, w, members = f"factors[{i}].weight", factor.weight, factor.set.members_upto(order)
        if w.c is None and (missing := set(members).difference(w.by_n)):
            raise SpecFormatError(
                f"{path}.values: table weight missing for required n={min(missing)}"
            )
        yield path, w, members


def weight_table(spec: ProductSpec, order: int) -> DivisorWeightTable:
    """The recurrence kernel g(1..order) for a spec, exactly, on integers.

    ``scale`` is the lcm of c's denominator over the linear factors with a
    member <= order and of the table values' denominators at those members.
    The weights scale*f_i(d) at those members are summed by degree into
    scale*F(d), F(d) = sum_i f_i(d), and ``divisor_sums`` sieves each degree
    once.  Order 0 has no k to sieve: it gives numerators (0,), scale 1.
    The merged exponents -F(d)/d give ``denominators``.
    """
    check_order(order)
    factors = [(w, members) for _, w, members in _members_upto(spec, order)]
    # A linear factor's c is read once, at its first member.
    scale = lcm(*{w.by_n[d].denominator if w.c is None else w.c.denominator
                  for w, members in factors
                  for d in (members if w.c is None else members[:1])})
    merged = [0] * (order + 1)  # scale * F(d) at each degree d
    for w, members in factors:
        if w.c is not None:
            step = w.c.numerator * (scale // w.c.denominator)
            for d in members:
                merged[d] += step * d
        else:
            for d in members:
                num, den = w.by_n[d].as_integer_ratio()
                merged[d] += num * (scale // den)
    first = {}  # each exponent denominator v > 1 -> the least degree with it
    for d in range(1, order + 1):
        if merged[d] % (scale * d):
            first.setdefault(scale * d // gcd(merged[d], scale * d), d)
    g = divisor_sums(order, enumerate(merged))
    return DivisorWeightTable(order, tuple(g), scale, tuple(first.items()))


def _coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1 of which each of ``values`` is a
    product of powers, by gcd splitting: no factoring."""
    base, todo = [], sorted((v for v in values if v > 1), reverse=True)
    while todo:
        x = todo.pop()
        for i, q in enumerate(base):
            while x % q == 0:
                x //= q
            if (g := gcd(x, q)) > 1:  # q and x share a part: split both
                base[i] = base[-1]
                base.pop()
                todo += [y for y in (g, q // g, x // g) if y > 1]
                break
            if x == 1:
                break
        else:
            base.append(x)
    return sorted(base)


def denominator_schedule(table: DivisorWeightTable, ends: Sequence[int]):
    """Yield S(n) at each n of the ascending ``ends``: a common denominator
    of the product's p(0..n), with S(n) | S(n+1), from ``table.denominators``.

    The coefficient of x^(dk) in (1-x^d)^(u/v) has a denominator dividing
    v^k times the part of k! on the primes of v, as prod_{i<k}(u-iv) holds
    the other primes of k!.  Over a coprime base {q} of the v's, with e_q(v)
    the power of q in v, S(n) = prod_q q^floor(n*rho_q) * (q-part of
    floor(n/d_q)!), where rho_q = max_d e_q(v_d)/d and d_q is the least d
    with q | v_d.
    """
    base = _coprime_base(v for v, _ in table.denominators)
    rate, least = dict.fromkeys(base, Fraction(0)), {}
    for v, d in table.denominators:  # ascending d
        for q in base:
            e = 0
            while v % q == 0:
                v //= q
                e += 1
            if e:
                rate[q] = max(rate[q], Fraction(e, d))
                least.setdefault(q, d)
                if v == 1:
                    break
    # For each q: the power of q in den, and the M whose M! has its q-part in den.
    den, powers, tops = 1, dict.fromkeys(base, 0), dict.fromkeys(base, 0)
    for n in ends:
        for q in base:
            power, top = n * rate[q].numerator // rate[q].denominator, n // least[q]
            m = prod(range(tops[q] + 1, top + 1))
            den *= q ** (power - powers[q]) * gcd(m, q ** m.bit_length())  # the q-part of m
            powers[q], tops[q] = power, top
        yield den


# The recurrence's leaf size, the bits per term of a block up to which the
# block is packed, and the number of steps between raises of its common
# denominator (see coeffs_via_recurrence).
LEAF = 64
WIDTH = 8
CHUNK = 32


def coeffs_via_recurrence(spec: ProductSpec, order: int) -> TruncatedSeries:
    """Coefficients 0..order of the spec's product via the divisor-sum
    recurrence n*p(n) = sum_{k=1..n} g(k) p(n-k), then the monomial shift.

    The loop runs on integers only: P(j) = D p(j) over one common
    denominator D, with the weight table's integer kernel h(k) = b*g(k) for
    b its ``scale``, so b*n*D*p(n) = sum_k h(k) P(n-k).  D follows a
    schedule fixed before the loop from the exponents' denominators
    (``denominator_schedule``): at n = 1, 1 + CHUNK, 1 + 2*CHUNK, ... D is
    raised to S at the chunk's last n, and the earlier P(j) are multiplied
    by the factor once.  Every division by b*n in the chunk is
    then exact, so a remainder is a defect and raises ArithmeticError.  For
    integer exponents D stays 1 and the loop's integers are the
    coefficients; otherwise the output is P(n)/D, an int wherever it is
    integral.

    The sums are relaxed (van der Hoeven's divide and conquer): ``acc[n]``
    holds the terms of the P(j) already added in blocks.  A range [l, r) of
    at most ``LEAF`` terms runs the schoolbook sum from ``acc[n]`` over the
    terms with l <= n-k, one ``sum(map(mul, h[1:], ...))`` per n over P(n-1)
    down to P(l), with no Python step per term.  A longer range solves
    [l, mid), adds the product of P[l:mid] and h[0:r-l] into acc[mid:r],
    and solves [mid, r): each of the O(log N) levels of blocks costs about
    one packed product of N terms.
    The rule for packing: a block is packed by ``series.decimal_mul`` only
    when every merged exponent is an integer (``table.denominators`` is
    empty, so D = 1 throughout) and the widest P(j) of P[l:mid] has at most
    ``WIDTH * (mid - l)`` bits; otherwise the schoolbook loop solves
    [mid, r) from l.  The expansion route never calls that product.  It
    multiplies a block on CPython ints while the product has at most 1024
    words of 19 digits, where libmpdec would take quadratic time, and by
    libmpdec's number-theoretic transform, the faster there, past that.
    """
    check_order(order)
    inner = order - spec.shift
    if inner < 0:
        return TruncatedSeries.zero(order)
    table = weight_table(spec, inner)
    b, h = table.scale, table.numerators
    h1 = h[1:]  # h(k) for k = 1..inner, the leaf's sums start at k = 1
    p = [1] + [0] * inner
    acc = [0] * (inner + 1)
    ends = [min(n, inner) for n in range(CHUNK, inner + CHUNK, CHUNK)]
    bounds = denominator_schedule(table, ends)
    den, due = 1, 1  # due: the n at which D is next raised

    def leaf(l: int, start: int, r: int) -> None:
        nonlocal den, due
        # The sums run over P(n-1) down to P(l); a stop of -1 would count
        # from the end of p, so the slices down to P(0) stop at None.
        below = l - 1 if l else None
        for n in range(start or 1, r):
            if n == due:
                due += CHUNK
                t = next(bounds) // den
                if t > 1:
                    den *= t
                    p[:n] = map(mul, p[:n], repeat(t))
            p[n], rem = divmod(sum(map(mul, h1, p[n - 1 : below : -1]), acc[n]), b * n)
            if rem:
                raise ArithmeticError(f"inexact division at n={n}")

    def run(l: int, r: int) -> None:
        if r - l <= LEAF:
            leaf(l, l, r)
            return
        mid = (l + r) // 2
        run(l, mid)
        if not table.denominators and max(map(int.bit_length, p[l:mid])) <= WIDTH * (mid - l):
            block = decimal_mul(p[l:mid], h[: r - l], mid - l, r - l)
            acc[mid:r] = map(add, acc[mid:r], block)
            run(mid, r)
        else:
            leaf(l, mid, r)

    run(0, inner + 1)
    # run's closure cell refers to run; left alone, that cycle would keep p,
    # acc and the table alive until the cyclic collector next ran.
    del run
    if den > 1:
        p = [_tighten(Fraction(c, den)) for c in p]
    return TruncatedSeries((0,) * spec.shift + tuple(p))


class ExpansionPlan(NamedTuple):
    """What ``coeffs_via_expansion`` runs: per ladder power p, the tails
    (start, step, sign) and passes (n, units) of the unit base it raises to
    p; and the strays (n, e), each one unit pass of e's sign on the running
    product at every ladder bit set in |e|."""

    groups: dict[int, tuple[list, list]]
    strays: list[tuple[int, int]]


def expansion_plan(spec: ProductSpec, inner: int) -> ExpansionPlan:
    """The plan for the factors of degree 1..inner that
    ``coeffs_via_expansion`` runs; it refuses the same factors."""
    ex = [0] * (inner + 1)  # ex[n]: the merged exponent of (1 - x^n)
    for path, w, members in _members_upto(spec, inner):
        if w.c is not None:
            if members and w.c.denominator != 1:
                raise SpecFormatError(
                    f"{path}.c: expansion oracle requires integer exponents; linear weight c={w.c}"
                )
            c = w.c.numerator
            if isinstance(members, range):  # one class, which runs to inner
                at = slice(members.start, None, members.step)
                ex[at] = map(sub, ex[at], repeat(c))
            else:
                for n in members:
                    ex[n] -= c
        else:
            for n in members:
                f = w.by_n[n]
                if f.denominator != 1 or f.numerator % n:
                    raise SpecFormatError(
                        f"{path}.values: expansion oracle requires integer exponents; "
                        f"factor at n={n} has exponent {-f / n}"
                    )
                ex[n] -= f.numerator // n
    # A tail, taken by Euler's sums, carries the most common exponent e of a
    # progression with the given step from a cut near sqrt(step * inner / 2),
    # which balances the passes below it against the kernel's
    # O(inner^2 / cut) cells.  A class holds at most one tail: from the first
    # degree s of e on, when e holds more than the scan's share of the class
    # from s on; e is then subtracted from every degree there, one slice
    # ``map``, as a linear weight over one class is merged.  The scan runs
    # at step 1 first, so that an exponent dense over all n is one tail, not
    # one per class mod L.  While the class scan mod L follows, step 1 asks
    # for more than 7/10 of the run, and a class for more than half: at 2/3,
    # as in p_regular(3), the class tails were faster.
    step = _class_step(spec, inner)
    groups: dict[int, tuple[list, list]] = {}
    for m, num, den in ((1, 7, 10), (step, 1, 2)) if step > 1 else ((1, 1, 2),):
        cut = isqrt(m * inner // 2)
        for first in range(cut, min(cut + m, inner + 1)):
            run = ex[first::m]
            if 2 * run.count(0) > len(run):
                continue  # 0 is the most common exponent
            e, count = Counter(run).most_common(1)[0]
            if e:
                s = first + run.index(e) * m
                if den * count > num * ((inner - s) // m + 1):
                    groups.setdefault(abs(e), ([], []))[0].append((s, m, 1 if e > 0 else -1))
                    ex[s::m] = map(sub, ex[s::m], repeat(e))
    # The degrees left nonzero are read off by one ``compress``.  Each joins
    # the group of its |e|, if there is one.
    # Else it is a stray when the bit length of |e| fits the ladder that the
    # tails set up, or it joins the largest tail power p that divides |e| as
    # |e|/p units, when that is at most the bit length of max|e|.  Else it
    # opens the group |e|.  So no degree makes more passes than max|e| has
    # bits, and none adds a ladder bit that its own |e| does not.
    left = list(compress(enumerate(ex), ex))
    powers, bits = tuple(groups), max(groups, default=0).bit_length()
    top, strays = max(bits, max((abs(e) for _, e in left), default=0).bit_length()), []
    for n, e in left:
        power = abs(e)
        if power not in groups:
            if power.bit_length() <= bits:
                strays.append((n, e))
                continue
            power = max((p for p in powers if power % p == 0 and power // p <= top), default=power)
        groups.setdefault(power, ([], []))[1].append((n, e // power))
    return ExpansionPlan(groups, strays)


def coeffs_via_expansion(spec: ProductSpec, order: int) -> TruncatedSeries:
    """Coefficients 0..order by multiplying out the binomial factors, then
    shifting; never touches the recurrence.

    Requires an integer exponent at every degree <= order - shift (linear
    weights with integer c; table weights divisible by their n), and refuses
    the first factor, in spec order, without one.  Its passes and products
    depend on the spec and the bit length of max|e|; the coefficients the late
    squarings carry, and so their cost, grow with |e| (ROADMAP item 3).
    """
    check_order(order)
    inner = order - spec.shift
    if inner < 0:
        return TruncatedSeries.zero(order)
    plan = expansion_plan(spec, inner)
    # One left-to-right binary ladder over the bits j of the largest power
    # squares the running product and multiplies in the unit base of every
    # group whose power has bit j set, so all groups share the squarings.
    # A base applies its groups by descending power, and each prefix of
    # groups is built once: levels with the same set of powers share one
    # base, and a set that extends a built prefix starts from its copy.
    # Then each stray with bit j set in its |e| is one unit pass on the
    # running product.  A group runs its tails by descending step, so a
    # base's first tail is its coarsest and meets the series 1, which is zero
    # off the multiples of every step: apply_progression runs its sums in
    # x^step there, where after a finer tail the list would be dense.
    powers = sorted(plan.groups, reverse=True)
    coeffs, bases = None, {(): [1] + [0] * inner}
    for j in reversed(range(max(powers, default=0).bit_length())):
        if coeffs is not None:
            coeffs = kronecker_mul(coeffs, coeffs, inner)
        if key := tuple(power for power in powers if power >> j & 1):
            for i in range(1, len(key) + 1):
                if key[:i] not in bases:
                    bases[key[:i]] = base = bases[key[: i - 1]][:]
                    tails, passes = plan.groups[key[i - 1]]
                    for s, m, sign in sorted(tails, key=itemgetter(1), reverse=True):
                        apply_progression(base, s, m, sign)
                    for n, k in passes:
                        apply_binomial_factor(base, n, k)
            # The strays patch the running product in place; a copy keeps
            # the base intact for a later level with the same key.
            coeffs = bases[key][:] if coeffs is None else kronecker_mul(coeffs, bases[key], inner)
        for n, e in plan.strays:
            if abs(e) >> j & 1:
                apply_binomial_factor(coeffs, n, 1 if e > 0 else -1)
    if coeffs is None:
        coeffs = [1] + [0] * inner
    return TruncatedSeries((0,) * spec.shift + tuple(coeffs))


def _class_step(spec: ProductSpec, inner: int) -> int:
    """The lcm L of the moduli of the spec's residue classes, the step of
    every progression its members can form; 0 when there is no class or
    L > inner, where no class mod L holds two degrees."""
    step = 0
    for factor in spec.factors:
        for _, m in factor.set.classes:
            step = lcm(step or 1, m)
            if step > inner:
                return 0
    return step


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


# Decimal digits only: int() and Fraction() also take "1_0", " 3", "+3",
# "1.5e0" and non-ASCII digits, which the wire format does not.
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _shown(text: str) -> str:
    """``text`` quoted for an error message, or its length if it is long."""
    return repr(text) if len(text) <= _SHOWN_CHARS else f"of {len(text)} characters"


def _quoted(value) -> str:
    """A JSON value for an error message: its repr up to ``_SHOWN_CHARS``
    characters (a string's own length counted), else its type and size; an
    integer past the digit limit by its problem."""
    if isinstance(value, _Oversized):
        return value.problem
    if isinstance(value, str):
        return repr(value) if len(value) <= _SHOWN_CHARS else f"a string of {len(value)} characters"
    if len(text := repr(value)) <= _SHOWN_CHARS:
        return text
    if isinstance(value, int):
        return f"an integer of {len(text.lstrip('-'))} digits"
    return f"{'a list' if isinstance(value, list) else 'an object'} of length {len(value)}"


def past_digit_limit(literal: str, what: str = "integer") -> str:
    """The problem with a decimal literal that int() refuses for its length,
    by its digit count rather than its digits."""
    return f"{what} of {len(literal.lstrip('-'))} digits is past the interpreter's int-to-str limit"


class _Oversized(NamedTuple):
    """Stands in for a JSON integer literal past the int-to-str digit limit."""

    problem: str

    def __repr__(self) -> str:  # inside a list or object that an error shows
        return f"<{self.problem}>"


def _int_or_oversized(literal: str):
    try:
        return int(literal)
    except ValueError:
        return _Oversized(past_digit_limit(literal))


def _rational_from_json(value, path: str, key: str | None = None) -> Fraction:
    """A wire rational as a Fraction.  An error names ``path``, or
    ``path[key]`` with a key (a key past ``_SHOWN_CHARS`` by its length);
    the name is formatted only on error."""
    if isinstance(value, str):
        if _RATIONAL.fullmatch(value) is None:
            problem = f"cannot parse rational {_shown(value)}: expected \"p/q\" or \"p\""
        else:
            num, _, den = value.partition("/")
            try:
                return Fraction(int(num), int(den)) if den else Fraction(int(num))
            except ZeroDivisionError as exc:
                problem = f"cannot parse rational {_shown(value)}: {exc}"
            except ValueError:  # the digits are valid, so one part is too long
                problem = past_digit_limit(max(num, den, key=len))
    elif isinstance(value, (bool, float)):
        problem = f"rationals must be strings like \"p/q\" (or ints), got {value!r}"
    elif isinstance(value, int):
        return Fraction(value)
    elif isinstance(value, _Oversized):
        problem = value.problem
    else:
        problem = f"expected a rational, got {type(value).__name__}"
    if key is not None:
        path += f"[{key}]" if len(key) <= _SHOWN_CHARS else f"[key of {len(key)} characters]"
    raise SpecFormatError(f"{path}: {problem}")


def _int_from_json(value, path: str, *index: int) -> int:
    """A wire integer.  An error names ``path`` followed by each ``[index]``;
    the name is formatted only on error."""
    if isinstance(value, bool) or not isinstance(value, int):
        where = path + "".join(f"[{i}]" for i in index)
        if isinstance(value, _Oversized):
            raise SpecFormatError(f"{where}: {value.problem}")
        raise SpecFormatError(f"{where}: expected an integer, got {_quoted(value)}")
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
            where, classes = f"{path}.classes", []
            for i, pair in enumerate(raw):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise SpecFormatError(f"{where}[{i}]: expected a [r, m] pair")
                r, m = pair
                classes.append((_int_from_json(r, where, i, 0), _int_from_json(m, where, i, 1)))
            return SetDescriptor.residue_union(classes)
        if kind == SET_MULTIPLES:
            return SetDescriptor.multiples(_int_from_json(doc.get("m"), f"{path}.m"))
        if kind == SET_EXPLICIT:
            raw = doc.get("members")
            if not isinstance(raw, list):
                raise SpecFormatError(f"{path}.members: expected a list of integers")
            return SetDescriptor.explicit(
                [_int_from_json(v, f"{path}.members", i) for i, v in enumerate(raw)]
            )
    except ValueError as exc:
        if isinstance(exc, SpecFormatError):
            raise
        raise SpecFormatError(f"{path}: {exc}")
    raise SpecFormatError(f"{path}.kind: unknown set kind {_quoted(kind)}")


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
        values, where = [], f"{path}.values"
        for key, v in raw.items():
            if _INTEGER.fullmatch(key) is None:
                raise SpecFormatError(f"{where}: key {_shown(key)} is not an integer")
            try:
                n = int(key)
            except ValueError:
                raise SpecFormatError(f"{where}: {past_digit_limit(key, 'key')}")
            values.append((n, _rational_from_json(v, where, key)))
        try:
            return WeightSpec(values=tuple(values))
        except ValueError as exc:
            raise SpecFormatError(f"{where}: {exc}")
    raise SpecFormatError(f"{path}.kind: unknown weight kind {_quoted(kind)}")


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
                f"{path or 'top level'}: repeated key {_shown(node.key)}: "
                "JSON object keys may not repeat"
            )
        if isinstance(node, dict):  # a long key is named by its length, as a table key is
            for k, v in reversed(node.items()):
                step = f".{k}" if path else k
                if len(k) > _SHOWN_CHARS:
                    step = f"[key of {len(k)} characters]"
                stack.append((path + step, v))
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
        # An int past the digit limit reads as _Oversized, so its field is named.
        doc = json.loads(text, object_pairs_hook=unique_keys, parse_int=_int_or_oversized)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise SpecFormatError("top level: JSON nests deeper than the parser's recursion limit")
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


def _linear_spec(*families: tuple[SetDescriptor, int], shift: int = 0) -> ProductSpec:
    """prod over the (set, c) families of prod_{n in set} (1-x^n)^(-c)."""
    return ProductSpec(tuple(Factor(s, WeightSpec.linear(c)) for s, c in families), shift)


def gauss_spec() -> ProductSpec:
    """prod (1-x^{2n}) (1-x^{2n-1})^{-1}: the triangular-number indicator series."""
    return _linear_spec((_EVENS, -1), (_ODDS, 1))


def jacobi_spec() -> ProductSpec:
    """prod (1-x^{2n}) (1-x^{2n-1})^2: 1 + 2 sum (-1)^n x^{n^2}."""
    return _linear_spec((_EVENS, -1), (_ODDS, -2))


def ramanujan_spec() -> ProductSpec:
    """x * prod (1-x^{2n})^8 (1-x^{2n-1})^{-8}: the cubic Lambert coefficients."""
    return _linear_spec((_EVENS, -8), (_ODDS, 8), shift=1)


def rogers_ramanujan_spec(which: int) -> ProductSpec:
    """prod over n = 1,4 mod 5 (which=1) or n = 2,3 mod 5 (which=2) of (1-x^n)^{-1}."""
    if type(which) is not int or which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    classes = [(1, 5), (4, 5)] if which == 1 else [(2, 5), (3, 5)]
    return _linear_spec((SetDescriptor.residue_union(classes), 1))


def p_regular_spec(p: int) -> ProductSpec:
    """prod (1-x^{pn}) (1-x^n)^{-1}: partitions with parts repeating < p times."""
    if type(p) is not int or p < 2:
        raise ValueError("p must be an integer >= 2")
    return _linear_spec((_ALL, 1), (SetDescriptor.multiples(p), -1))


def delta_spec(m: int) -> ProductSpec:
    """prod (1-x^{2n})^{2m} (1-x^n)^{-m}: representations by m triangular numbers,
    the m-th power of Gauss's psi(x) = (x^2;x^2)^2 / (x;x), for every m >= 1."""
    if type(m) is not int or m < 1:
        raise ValueError("m must be a positive integer")
    return _linear_spec((_EVENS, -2 * m), (_ALL, m))


def square_quotient_spec() -> ProductSpec:
    """prod (1-x^{2n})^5 (1-x^n)^{-2} (1-x^{4n})^{-2}: 1 + 2 sum x^{n^2}."""
    return _linear_spec((_EVENS, -5), (_ALL, 2), (SetDescriptor.multiples(4), 2))


_CALL = re.compile(r"(\w+)(?:\((-?[0-9]+(?:,-?[0-9]+)*)\))?", re.ASCII)


def resolve_name(table: Mapping[str, Callable], name: str, what: str) -> Callable:
    """Look ``name`` up in a table keyed by signatures such as ``delta(m)``.

    ``delta(8)`` finds the maker under ``delta(m)`` and binds 8 as its
    first argument; a bare name finds a bare key.  Arguments are decimal
    integers, optionally negative, which the maker validates; one past the
    int-to-str digit limit is named by its digit count.  When nothing
    matches, ValueError names the unknown ``what`` (a long name by its
    length) and lists the table.
    """
    match = _CALL.fullmatch(name)
    if match is not None:
        head, raw = match.groups()
        try:
            args = [int(a) for a in raw.split(",")] if raw else []
        except ValueError:  # the digits are valid, so one argument is too long
            longest = max(raw.split(","), key=lambda a: len(a.lstrip("-")))
            raise ValueError(past_digit_limit(longest, f"{what} argument")) from None
        for signature, make in table.items():
            sig_head, _, params = signature.partition("(")
            arity = len(params.split(",")) if params else 0
            if sig_head == head and arity == len(args):
                return partial(make, *args)
    raise ValueError(f"unknown {what} {_shown(name)}; available: {', '.join(table)}")


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
    return resolve_name(_BUILTIN_SPECS, name, "built-in spec")()
