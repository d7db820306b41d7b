"""Seeded inputs for the benchmark's workloads.

Nothing here imports divprod: the program sees only the argument vectors and
spec files built from these functions.  Equal seeds give byte-identical spec
files and the same operation order.

One operation is one ``divprod.cli.main`` call.  Each workload runs every
identity or spec at two orders, N1 and N2 = 2*N1, so that per-layer scaling
shows; ``level`` says which of the two an operation is.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

# Expected-pass identities and the three pinned failures, with the pinned
# first failure (n, lhs, rhs) that every order must reproduce.
PASS_IDS = (
    "delta_1", "delta_10", "delta_12", "delta_2", "delta_4", "delta_6", "delta_8",
    "jacobi_square", "p_regular_2", "p_regular_3", "p_regular_5", "p_regular_7",
    "partition_recurrence", "ramanujan_a", "rogers_ramanujan_1", "rogers_ramanujan_2",
    "square_eta_quotient", "triangular",
)
PINNED = {
    "jacobi_square_verbatim": (4, "4", "3"),
    "ramanujan_a_verbatim": (2, "16", "0"),
    "p_regular_verbatim_2": (1, "1", "-1"),
}

SET_KINDS = ("all", "residueUnion", "multiples", "explicit")
LEVELS = ("n1", "n2")


@dataclass(frozen=True)
class Op:
    """One CLI call; ``argv`` lacks ``--out`` and, for expand, ``--spec``."""

    key: str
    level: str  # "n1" or "n2"
    order: int
    argv: tuple[str, ...]
    spec: str | None = None  # expand operations: name of the spec, passed as --spec
    seeded: bool = False  # True when the input depends on the seed


def _pair(make, order: int) -> list[Op]:
    """``make(level, order)`` at N1 = order and N2 = 2 * order."""
    return [make(LEVELS[0], order), make(LEVELS[1], 2 * order)]


@dataclass
class Workload:
    name: str
    ops: list[Op] = field(default_factory=list)
    specs: dict[str, dict] = field(default_factory=dict)

    def orders(self, level: str) -> list[int]:
        return sorted({op.order for op in self.ops if op.level == level})


# ---------------------------------------------------------------------------
# Spec documents
# ---------------------------------------------------------------------------

_EVENS = {"kind": "residueUnion", "classes": [[0, 2]]}
_ODDS = {"kind": "residueUnion", "classes": [[1, 2]]}
_ALL = {"kind": "all"}


def _linear(s: dict, c) -> dict:
    return {"set": s, "weight": {"kind": "linear", "c": str(Fraction(c))}}


def _spec(factors: list[dict], shift: int = 0) -> dict:
    return {"shift": shift, "factors": factors}


def builtin_specs() -> dict[str, dict]:
    """The 17 built-in products as spec documents, written out here rather
    than taken from the library so the inputs stay fixed across versions."""
    specs = {
        "gauss": _spec([_linear(_EVENS, -1), _linear(_ODDS, 1)]),
        "jacobi": _spec([_linear(_EVENS, -1), _linear(_ODDS, -2)]),
        "ramanujan": _spec([_linear(_EVENS, -8), _linear(_ODDS, 8)], shift=1),
        "rr1": _spec([_linear({"kind": "residueUnion", "classes": [[1, 5], [4, 5]]}, 1)]),
        "rr2": _spec([_linear({"kind": "residueUnion", "classes": [[2, 5], [3, 5]]}, 1)]),
        "square_quotient": _spec([
            _linear(_EVENS, -5), _linear(_ALL, 2), _linear({"kind": "multiples", "m": 4}, 2),
        ]),
    }
    for p in (2, 3, 5, 7):
        specs[f"p_regular_{p}"] = _spec([
            _linear(_ALL, 1), _linear({"kind": "multiples", "m": p}, -1),
        ])
    for m in (1, 2, 4, 6, 8, 10, 12):
        specs[f"delta_{m}"] = _spec([_linear(_EVENS, -2 * m), _linear(_ALL, m)])
    return specs


def _random_set(rng: random.Random, kind: str, n_max: int) -> dict:
    if kind == "all":
        return {"kind": "all"}
    m = rng.randint(2, 12)
    if kind == "multiples":
        return {"kind": "multiples", "m": m}
    if kind == "residueUnion":
        residues = sorted(rng.sample(range(m), max(1, m // 4)))
        return {"kind": "residueUnion", "classes": [[r, m] for r in residues]}
    return {"kind": "explicit", "members": sorted(rng.sample(range(1, n_max + 1), 12))}


def _members(s: dict, n_max: int) -> list[int]:
    kind = s["kind"]
    if kind == "all":
        return list(range(1, n_max + 1))
    if kind == "multiples":
        return list(range(s["m"], n_max + 1, s["m"]))
    if kind == "explicit":
        return [n for n in s["members"] if n <= n_max]
    return [n for n in range(1, n_max + 1) if any(n % m == r for r, m in s["classes"])]


def _exponents(frac: Fraction, sign: int) -> list:
    """The exponents in [-2, 2] with the given sign and congruent to ``frac``
    mod 1; ints when ``frac`` is 0."""
    out = [e for e in (frac - 2, frac - 1, frac, frac + 1, frac + 2)
           if e and abs(e) <= 2 and (e > 0) == (sign > 0)]
    return [int(e) for e in out] if frac == 0 else out


def _random_factor(rng: random.Random, kind: str, weight: str, n_max: int,
                   choices: list) -> dict:
    s = _random_set(rng, kind, n_max)
    if weight == "linear":
        return _linear(s, rng.choice(choices))
    # f(n) = n * e(n): the exponent of (1 - x^n) is -e(n).
    values = {str(n): str(n * rng.choice(choices)) for n in _members(s, n_max)}
    return {"set": s, "weight": {"kind": "table", "values": values}}


def _random_spec(rng: random.Random, index: int, n_max: int, frac: Fraction) -> list[dict]:
    """Two factors whose weights all have one sign, fixed by ``index``, and
    are congruent to ``frac`` mod 1.

    The first, over all n with a weight fixed by ``index``, sets most of the
    cost, so the work changes little from seed to seed.  The second cycles
    through the set kinds and weight kinds; the seed picks its modulus,
    residues, members and weights.  Residue unions get max(1, m // 4)
    classes, so their density stays between 1/7 and 1/2.  With one sign the
    factors never cancel where they overlap, and there the weight is
    congruent to 2*frac: with 2*frac not an integer, no rational exponent
    collapses to an integer.  Either would make the work depend on the seed.
    """
    sign = 1 if index // 2 % 2 else -1
    dense = _linear(_ALL, sign * (1 + index % 3) + frac)
    kind = SET_KINDS[index % 4]
    # A linear weight over all n would let the seed set the whole product.
    weight = "table" if kind == "all" else ("linear", "table")[index // 4 % 2]
    return [dense, _random_factor(rng, kind, weight, n_max, _exponents(frac, sign))]


def random_integer_spec(rng: random.Random, index: int, n_max: int) -> dict:
    """Integer exponents, so both routes apply; shift 0..3."""
    factors = _random_spec(rng, index, n_max, Fraction(0))
    return _spec(factors, shift=rng.randint(0, 3))


# Exponent fractional parts j/q in lowest terms with q = 3..6, so that 2j/q
# is not an integer either.
RATIONAL_FRACS = tuple(Fraction(j, q) for q in (3, 4, 5, 6) for j in range(1, q) if gcd(j, q) == 1)


def random_rational_spec(rng: random.Random, index: int, n_max: int) -> dict:
    """Every exponent congruent to the same non-integer j/q mod 1, chosen by
    ``index``; shift 0.  Only the recurrence route applies."""
    return _spec(_random_spec(rng, index, n_max, RATIONAL_FRACS[index % len(RATIONAL_FRACS)]))


def spec_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

CATALOG_N1 = 250
EXPAND_N1 = 200
EXPAND_RANDOM = 16
# One N1 per rational spec.  With a single N1 every operation would sit in
# one of two clusters, N1 and N2 (about 5x slower), and the median latency
# would fall in the gap between them and jump from seed to seed.
RATIONAL_N1 = tuple(range(28, 64))


def _expand_op(name: str, algo: str, seeded: bool):
    def make(level: str, order: int) -> Op:
        return Op(f"expand:{name}@{order}", level, order,
                  ("expand", "--algo", algo, "--order", str(order)), spec=name, seeded=seeded)
    return make


def _verify_op(ident: str):
    def make(level: str, order: int) -> Op:
        return Op(f"verify:{ident}@{order}", level, order, ("verify", ident, "--order", str(order)))
    return make


def build(name: str, seed: int) -> Workload:
    """The workload's operations in a seeded order, and its spec documents."""
    rng = random.Random(f"{name}:{seed}")
    wl = Workload(name)
    if name == "catalog":
        for ident in PASS_IDS + tuple(PINNED):
            wl.ops += _pair(_verify_op(ident), CATALOG_N1)
    elif name == "expand_both":
        wl.specs = builtin_specs()
        for spec in wl.specs:
            wl.ops += _pair(_expand_op(spec, "both", False), EXPAND_N1)
        for i in range(EXPAND_RANDOM):
            spec = f"rand{i:02d}"
            wl.specs[spec] = random_integer_spec(rng, i, 2 * EXPAND_N1)
            wl.ops += _pair(_expand_op(spec, "both", True), EXPAND_N1)
    elif name == "rational_recurrence":
        for i, n1 in enumerate(RATIONAL_N1):
            spec = f"rat{i:02d}"
            wl.specs[spec] = random_rational_spec(rng, i, 2 * n1)
            wl.ops += _pair(_expand_op(spec, "recurrence", True), n1)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(wl.ops)
    return wl


WORKLOADS = ("catalog", "expand_both", "rational_recurrence")
