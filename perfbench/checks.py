"""Correctness of each operation's output: digests, the committed reference,
the pinned failures, and a second route for rational outputs."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import lcm
from pathlib import Path

from workloads import PINNED, Op

REFERENCE = Path(__file__).with_name("reference.json")


def digest(op: Op, raw: bytes) -> str:
    """sha256 of an operation's output.  ``expand`` output embeds the spec
    path, which differs between checkouts, so its digest covers every other
    field."""
    if op.spec is not None:
        doc = json.loads(raw)
        doc.pop("spec")
        raw = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()


def expected_exit(op: Op) -> int:
    return 1 if op.argv[0] == "verify" and op.argv[1] in PINNED else 0


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE.read_text())["digests"]


def first_output_problem(op: Op, raw: bytes, reference: dict[str, str]) -> str | None:
    """What is wrong with an operation's first output, or None.  Outputs of
    seeded inputs have no reference digest; ``expand --algo both`` still
    carries the agreement of its two routes."""
    if not op.seeded and reference.get(op.key) != digest(op, raw):
        return "digest differs from the reference"
    doc = json.loads(raw)
    if op.argv[0] == "verify":
        ident = op.argv[1]
        (report,) = doc
        if ident in PINNED:
            n, lhs, rhs = PINNED[ident]
            if report["first_failure"] != {"n": n, "lhs": lhs, "rhs": rhs}:
                return f"pinned failure moved: {report['first_failure']}"
        elif not report["passed"]:
            return f"unexpected failure: {report['first_failure']}"
    elif doc.get("agree") is False:
        return f"routes disagree: {doc['first_disagreement']}"
    return None


def exponent_denominator_lcm(spec: dict) -> int:
    """lcm of the denominators of the factor exponents -f(n)/n."""
    q = 1
    for factor in spec["factors"]:
        w = factor["weight"]
        if w["kind"] == "linear":
            q = lcm(q, Fraction(w["c"]).denominator)
        else:
            for n, v in w["values"].items():
                q = lcm(q, (Fraction(v) / int(n)).denominator)
    return q


def scale_weights(spec: dict, q: int) -> dict:
    """The spec with every weight multiplied by q: the product raised to q."""
    factors = []
    for factor in spec["factors"]:
        w = factor["weight"]
        if w["kind"] == "linear":
            w = {"kind": "linear", "c": str(Fraction(w["c"]) * q)}
        else:
            w = {"kind": "table", "values": {n: str(Fraction(v) * q) for n, v in w["values"].items()}}
        factors.append({"set": factor["set"], "weight": w})
    return {"shift": spec["shift"], "factors": factors}


def power(coeffs: list, q: int) -> list:
    """P^q truncated to len(P) terms, for P[0] == 1, by the identity
    P (P^q)' = q P' P^q: n Q[n] = sum_{k=1..n} ((q+1) k - n) P[k] Q[n-k]."""
    if coeffs[0] != 1:
        raise ValueError("power() needs a unit constant term")
    out = [Fraction(1)] + [Fraction(0)] * (len(coeffs) - 1)
    for n in range(1, len(coeffs)):
        acc = sum(((q + 1) * k - n) * coeffs[k] * out[n - k]
                  for k in range(1, n + 1) if coeffs[k])
        out[n] = Fraction(acc) / n
    return out


def rational_problem(spec: dict, raw: bytes, products) -> str | None:
    """Second route for a recurrence-only output P: with q the lcm of the
    exponent denominators, P^q must equal the expansion route's coefficients
    for the spec with every weight multiplied by q.  None when it holds."""
    coeffs = [Fraction(c) for c in json.loads(raw)["coefficients"]]
    q = exponent_denominator_lcm(spec)
    scaled = products.spec_from_dict(scale_weights(spec, q))
    expected = products.coeffs_via_expansion(scaled, len(coeffs) - 1).coeffs
    got = power(coeffs, q)
    for n, (a, b) in enumerate(zip(got, expected)):
        if a != b:
            return f"P^{q} differs from the scaled expansion at n={n}: {a} != {b}"
    return None
