"""Exact truncated formal power series, and the kernels that build them.

A series of order N carries coefficients for x^0 .. x^N inclusive and nothing
beyond.  Coefficients are Python ints or `fractions.Fraction` values (always
in lowest terms, positive denominator), and no floating point is used
anywhere.  ``TruncatedSeries`` is the value type of the coefficient routes:
an immutable container whose ``==`` compares every coefficient; the oracles
of ``sequences`` return plain tuples.  The arithmetic lives in list kernels:

* ``apply_binomial_factor``, the in-place pass that multiplies by one
  (1 - x^n)^e in O(N) cells per unit of |e|, done as at most about sqrt(N)
  slice operations;
* ``apply_progression``, the in-place product over an arithmetic
  progression, prod_j (1 - x^(b+jm))^(+-1), by Euler's sums, whose cost does
  not grow with the number of degrees in the progression; on a list that is
  zero off the multiples of m the sums run in y = x^m, at 1/m of the cells;
* ``kronecker_mul``, the packed product, on which the expansion squares and
  multiplies, and which sums the catalog's relations; slots of up to 8
  bytes go to and from signed 8-byte words (``array``) by byte-plane
  slices, with no Python step per coefficient, and wider slots by one
  ``to_bytes`` and one ``from_bytes`` per coefficient;
* ``decimal_mul``, a second packed product, which reads back only the
  slots len(a)..len(b)-1 of a*b, the block that the recurrence adds; only
  that route calls it, so the routes share no kernel.  Below libmpdec's
  switch to its number-theoretic transform, 1024 words of 19 digits,
  libmpdec multiplies in quadratic time and CPython's ints are faster, so
  the slots are bytes of an int, slots of up to 8 bytes written and read
  by byte planes of 8-byte words with no Python step per coefficient,
  wider ones by a ``to_bytes`` and a ``from_bytes`` per coefficient; past
  it they are digits of a Decimal, since the transform beats CPython's
  Karatsuba there.

``TruncatedSeries.__mul__`` keeps a plain double sum as their reference.
``exact_str`` prints a coefficient in full, past the interpreter's limit on
int-to-str conversion too, and ``_exact_int`` reads digits back the same way.
``check_order`` refuses every order argument of the package that is not an
int >= 0.
"""

from __future__ import annotations

import sys
from array import array
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb
from operator import add, sub
from typing import Iterable, Iterator, Union

Rational = Union[int, Fraction]


# A value longer than this many characters, or an int of more digits, is
# named by its length in an error message, not echoed.
_SHOWN_CHARS = 100


def require_int(*values) -> None:
    """Refuse a bool, a float or anything else that is not an int, rather
    than compute with it."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"expected an int, got {type(v).__name__}")


def check_order(order: int) -> None:
    """Refuse an order that is not an int (TypeError) or is negative
    (ValueError)."""
    require_int(order)
    if order < 0:
        raise ValueError("order must be nonnegative")


def exact_str(v: Rational) -> str:
    """``str(v)`` for an int or a Fraction, also where str() raises past the
    interpreter's int-to-str digit limit: the decimal module converts without
    that limit, and the limit is never raised."""
    try:
        return str(v)
    except ValueError:
        if isinstance(v, Fraction) and v.denominator != 1:
            return f"{exact_str(v.numerator)}/{exact_str(v.denominator)}"
        return str(Decimal(int(v)))


def _exact_int(digits: str) -> int:
    """``int(digits)``, also past the int-to-str digit limit: the decimal
    module reads without that limit."""
    return int(Decimal(digits))


def sparse_table(order: int, place, coeff=lambda k: 1) -> list[Rational]:
    """coeff(k) at place(k) for k = 0, 1, ... while place(k) <= order (place
    increasing), zero elsewhere: a table supported on the squares k*k, the
    triangular numbers T(k), ..."""
    check_order(order)
    table = [0] * (order + 1)
    k = 0
    while place(k) <= order:
        table[place(k)] = coeff(k)
        k += 1
    return table


class TruncatedSeries:
    """A formal power series truncated at a fixed order.

    ``coeffs`` has length ``order + 1``; index i holds the coefficient of x^i.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational]):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the x^0 coefficient")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((0,) * (order + 1))

    def __getitem__(self, i: int) -> Rational:
        return self.coeffs[i]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self) -> Iterator[Rational]:
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"

    def __mul__(self, other) -> "TruncatedSeries":
        """The Cauchy product to the smaller order, as the schoolbook double
        sum over the nonzero terms of both operands; the reference that the
        tests check ``kronecker_mul`` against.  Int operands give ints."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        terms = [(j, b) for j, b in enumerate(other.coeffs[: n + 1]) if b]
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a:
                for j, b in terms:
                    if i + j > n:
                        break
                    out[i + j] += a * b
        return TruncatedSeries(out)


def binomial_factor(n: int, e: int, order: int) -> TruncatedSeries:
    """Expansion of (1 - x^n)^e to the given order, for any integer e.

    e >= 0 expands by the binomial theorem; e < 0 by the negative-binomial
    series sum_k C(k+|e|-1, |e|-1) x^(n*k).  Coefficients are integers.
    """
    if n < 1:
        raise ValueError("factor degree n must be >= 1")
    check_order(order)
    out = [0] * (order + 1)
    if e >= 0:
        for k in range(min(e, order // n) + 1):
            out[n * k] = -comb(e, k) if k % 2 else comb(e, k)
    else:
        q = -e
        for k in range(order // n + 1):
            out[n * k] = comb(k + q - 1, q - 1)
    return TruncatedSeries(tuple(out))


def apply_binomial_factor(coeffs: list, n: int, e: int) -> None:
    """Multiply a coefficient list in place by (1 - x^n)^e, e any integer.

    Each (1 - x^n) application is c[i] -= c[i-n] for every i >= n at once,
    one slice ``map``; each inverse application is the prefix recurrence
    c[i] += c[i-n] taken upward: a running sum (``accumulate``) along each
    residue class mod n when n*n <= len, else one slice ``map`` per block
    of n, each block adding the one before it as already updated.  So a unit
    of |e| makes at most about sqrt(len) slice assignments.  Exact, and
    equivalent to a Cauchy product with binomial_factor(n, e, order).
    """
    if n < 1:
        raise ValueError("factor degree n must be >= 1")
    size = len(coeffs)
    if n >= size:
        return
    if e >= 0:
        for _ in range(e):
            coeffs[n:] = map(sub, coeffs[n:], coeffs[: size - n])
    elif n * n <= size:
        for _ in range(-e):
            for r in range(n):
                coeffs[r::n] = accumulate(coeffs[r::n])
    else:
        for _ in range(-e):
            for i in range(n, size, n):
                coeffs[i : i + n] = map(add, coeffs[i : i + n], coeffs[i - n : i])


def apply_progression(coeffs: list, b: int, m: int, e: int) -> None:
    """Multiply a coefficient list in place by prod_{j>=0} (1 - x^(b+jm))^e
    for e = +-1, by Euler's sums over (x^m; x^m)_k = prod_{i=1..k} (1 - x^(mi)):

        prod (1 - x^(b+jm))^(-1) = sum_k x^(bk) / (x^m; x^m)_k,
        prod (1 - x^(b+jm))      = sum_k (-1)^k x^(bk + m k(k-1)/2) / (x^m; x^m)_k.

    The k-th term is the (k-1)-th divided by (1 - x^(mk)), one inverse pass
    on a copy of the input truncated to what x^start_k leaves of the order,
    and is added into the list from start_k on.  When every coefficient off
    the multiples of m is zero (the series 1, say), so is every quotient, and
    the sums run in y = x^m: the copy keeps every m-th coefficient, truncated
    to (N - start_k) // m + 1 of them, is divided by (1 - y^k), and is added
    into every m-th place from start_k.  Exact; k runs while start_k <= N, so
    the cost is O(N^2 / b) cells for e = -1 and O(N^1.5 / sqrt(m)) for
    e = +1, however many degrees the progression has, and m times fewer on
    an input on the multiples of m: O(N^2 / (b m)) for e = -1.
    """
    if b < 1 or m < 1:
        raise ValueError("progression start b and step m must be >= 1")
    if e not in (1, -1):
        raise ValueError("progression exponent must be 1 or -1")
    top = len(coeffs) - 1
    # The sums run on every stride-th place: every m-th when the list is zero
    # off the multiples of m (any list, for m = 1), else every place.
    stride = 1 if any(any(coeffs[r::m]) for r in range(1, m)) else m
    w = coeffs[::stride]
    k, start = 1, b
    while start <= top:
        del w[(top - start) // stride + 1 :]
        apply_binomial_factor(w, m // stride * k, -1)
        op = sub if e > 0 and k % 2 else add
        coeffs[start::stride] = map(op, coeffs[start::stride], w)
        k += 1
        start = b * k if e < 0 else b * k + m * k * (k - 1) // 2


_BIG_ENDIAN = sys.byteorder == "big"
_SIGN_FILL = bytes(128) + b"\xff" * 128  # a top byte -> the byte that extends its sign


def _repeat(half: int, width: int, count: int) -> int:
    """half in each of count width-byte slots."""
    return int.from_bytes(half.to_bytes(width, "little") * count, "little")


def _words(values) -> array:
    """Signed 8-byte words from a list of ints, or from their little-endian
    bytes, held little-endian."""
    words = array("q", values)
    if _BIG_ENDIAN:
        words.byteswap()
    return words


def _pack(coeffs: list[int], width: int, half: int) -> int:
    """sum c_i * 256**(width*i), with each slot read as c_i + half, which the
    width keeps in range, and the repeated half subtracted once.  Up to 8
    bytes, a slot is the low bytes of c_i's word copied one byte plane at a
    time, and xor with half turns its two's complement into c_i + half."""
    bias = _repeat(half, width, len(coeffs))
    if width > 8:
        raw = b"".join([(c + half).to_bytes(width, "little") for c in coeffs])
        return int.from_bytes(raw, "little") - bias
    words, slots = _words(coeffs).tobytes(), bytearray(width * len(coeffs))
    for j in range(width):
        slots[j::width] = words[j::8]
    return (int.from_bytes(slots, "little") ^ bias) - bias


def kronecker_mul(a: list[int], b: list[int], order: int) -> list[int]:
    """Coefficients 0..order of the product of the integer polynomials a and b.

    Kronecker substitution: each operand is packed into one int with a
    coefficient per ``width``-byte slot, the two ints are multiplied once,
    and the low order+1 slots are read back.  A slot holds a coefficient of
    the product exactly when its magnitude stays below half the slot, which
    the width guarantees from max|a| * max|b| * (number of terms in a sum).
    Adding half a slot to every digit makes each one nonnegative, so the
    borrows of negative coefficients resolve before unpacking.  A slot of up
    to 8 bytes holds every coefficient of both operands and the product in
    a signed 8-byte word, so those go through ``array`` and slices of whole
    byte planes.
    """
    check_order(order)
    square = b is a
    a, b = a[: order + 1], b[: order + 1]
    bound = max(max(a, default=0), -min(a, default=0))
    bound *= bound if square else max(max(b, default=0), -min(b, default=0))
    if not bound:
        return [0] * (order + 1)
    bound *= min(len(a), len(b))
    width = (bound.bit_length() + 8) // 8  # one spare bit for the sign
    half = 1 << (8 * width - 1)
    packed = _pack(a, width, half)
    product = packed * packed if square else packed * _pack(b, width, half)
    size = width * (order + 1)
    bias = _repeat(half, width, order + 1)
    low = (product + bias) & ((1 << (8 * size)) - 1)
    if width > 8:
        raw = low.to_bytes(size, "little")  # bytes: slicing a memoryview is slower
        return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, size, width)]
    # Two's complement slots, spread one byte plane at a time into words
    # whose high bytes repeat the sign of the slot's top byte.
    raw, words = (low ^ bias).to_bytes(size, "little"), bytearray(8 * (order + 1))
    for j in range(width):
        words[j::8] = raw[j::width]
    fill = raw[width - 1 :: width].translate(_SIGN_FILL)
    for j in range(width, 8):
        words[j::8] = fill
    return _words(words).tolist()


def _slots_from_words(coeffs: list[int], width: int) -> bytearray:
    """The low ``width`` <= 8 bytes of each coefficient's two's complement,
    slot after slot, little-endian: the coefficients go into an array of
    signed 8-byte words, whose byte planes 0..width-1 are copied into the
    slots' byte planes, with no Python step per coefficient."""
    words = array("q", coeffs)
    if sys.byteorder == "big":
        words.byteswap()
    raw, slots = words.tobytes(), bytearray(width * len(coeffs))
    for j in range(width):
        slots[j::width] = raw[j::8]
    return slots


def _words_from_slots(raw: bytes, width: int) -> list[int]:
    """The unsigned little-endian ``width`` <= 8 byte slots of raw as ints:
    the slots' byte planes are copied into planes 0..width-1 of an array of
    unsigned 8-byte words, read at once."""
    words = bytearray(8 * (len(raw) // width))
    for j in range(width):
        words[j::8] = raw[j::width]
    words = array("Q", words)
    if sys.byteorder == "big":
        words.byteswap()
    return words.tolist()


# libmpdec multiplies in quadratic time up to a product of 1024 words, and
# by its number-theoretic transform past that; a word holds 19 decimal
# digits on a 64-bit build, so the switch lies at 1024 * 19 digits over all
# of a product's slots.
_TRANSFORM_DIGITS = 1024 * 19


def decimal_mul(a: list[int], b: list[int]) -> list[int]:
    """Coefficients len(a)..len(b)-1 of the product of the integer
    polynomials a and b, for len(a) < len(b): the block that the
    recurrence adds into acc[mid:r], for a = P[l:mid] and b its kernel's
    first r - l terms.

    Kronecker substitution: each operand is packed into one number with a
    coefficient per slot, the two are multiplied once, and slots
    len(a)..len(b)-1 of the product, and no others, are read back.  w digits
    per slot put max|a| * max|b| * len(a) (the most terms in a sum) below
    10**(w-1), and the product's slots * w digits pick the multiplier:

    * up to ``_TRANSFORM_DIGITS``, where libmpdec multiplies in quadratic
      time, CPython's ints multiply faster (2400 by 4800 digits: 0.16 ms
      against libmpdec's 0.43 ms, which grows fourfold per doubling;
      libmpdec 2.5.1 on x86-64).  The slots are ``width`` bytes, from the
      same bound plus one spare sign bit.  A slot of up to 8 bytes holds
      every coefficient in a signed 8-byte word, so the slots are written
      and read by byte planes of ``array`` words (``_slots_from_words`` and
      ``_words_from_slots``), with no Python step per coefficient; a wider
      slot is written by its own ``to_bytes`` and read by its own
      ``from_bytes``, which cost less than splitting each coefficient into
      8-byte limbs;
    * past it, libmpdec's number-theoretic transform beats CPython's
      Karatsuba, so the slots are w decimal digits of a Decimal, multiplied
      in a local context that traps ``Inexact``, so nothing is rounded.

    Either way, with h half a slot, each coefficient c of an operand or of
    the product is held as c + h, which is nonnegative and fills at most
    its slot: an operand is packed as those slots less the repeated h, and
    the product is read back with the repeated h added, each slot less h.
    On the Decimal side c + h has exactly w digits, and the digits go
    through the builtin ``str`` and ``int``, and through ``exact_str`` and
    ``_exact_int`` only when the slots are wider than the int-to-str digit
    limit, which is never raised.  No code is shared with ``kronecker_mul``.
    """
    bound = max(map(abs, a), default=0) * max(map(abs, b), default=0) * len(a)
    if not bound:
        return [0] * (len(b) - len(a))
    slots = len(a) + len(b) - 1
    # 10**(w-1) > 2**bit_length > bound, as 0.30103 > log10(2).
    w = bound.bit_length() * 30103 // 100000 + 2
    if slots * w <= _TRANSFORM_DIGITS:
        width = (bound.bit_length() + 8) // 8  # one spare bit for the sign
        h = 1 << (8 * width - 1)
        half = h.to_bytes(width, "little")

        def pack_bytes(coeffs: list[int]) -> int:
            bias = int.from_bytes(half * len(coeffs), "little")
            if width <= 8:
                return (int.from_bytes(_slots_from_words(coeffs, width), "little") ^ bias) - bias
            raw = b"".join([(c + h).to_bytes(width, "little") for c in coeffs])
            return int.from_bytes(raw, "little") - bias

        product = pack_bytes(a) * pack_bytes(b) + int.from_bytes(half * slots, "little")
        raw = product.to_bytes(width * slots, "little")[width * len(a) : width * len(b)]
        if width <= 8:
            return list(map(sub, _words_from_slots(raw, width), repeat(h)))
        return [int.from_bytes(raw[i : i + width], "little") - h for i in range(0, len(raw), width)]
    h = 5 * 10 ** (w - 1)
    # Every slot, h too, is written and read as exactly w digits, so the
    # builtin str and int raise past the int-to-str digit limit for all of
    # them or for none: str(h) decides, once, whether the slots go through
    # exact_str and _exact_int, which are slower per slot.
    try:
        half, write, read = str(h), str, int
    except ValueError:
        half, write, read = exact_str(h), exact_str, _exact_int
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])

    def pack(coeffs: list[int]) -> Decimal:
        digits = "".join([write(c + h) for c in reversed(coeffs)])
        return ctx.subtract(Decimal(digits), Decimal(half * len(coeffs)))

    text = str(ctx.add(ctx.multiply(pack(a), pack(b)), Decimal(half * slots)))
    # Slot j is the w digits ending j*w from the end (the top slot has w
    # digits too); only slots len(a)..len(b)-1 are cut out and read.
    end = len(text)
    return [read(text[j - w : j]) - h for j in range(end - len(a) * w, end - len(b) * w, -w)]
