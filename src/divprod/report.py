"""Pass/fail reports for coefficient and identity checks.

A failed check is data, not an exception: reports carry the first offending
index together with both side values, exactly.  ``first_mismatch`` is the one
scan that finds that index, for the catalog and for the coefficient routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

Value = Union[int, Fraction]


@dataclass(frozen=True)
class Failure:
    n: int
    lhs: Value
    rhs: Value


def first_mismatch(
    lhs: Iterable[Value], rhs: Iterable[Value], start: int = 0
) -> Optional[Failure]:
    """The first index where the two sides differ, counting the first pair as
    index ``start``; None when they agree throughout.

    Pairs are drawn one at a time, so a lazily computed side is never
    evaluated past the first mismatch.  Sides of unequal length raise
    ValueError.
    """
    for n, (a, b) in enumerate(zip(lhs, rhs, strict=True), start):
        if a != b:
            return Failure(n, a, b)
    return None


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    order_checked: int
    passed: bool
    first_failure: Optional[Failure] = None

    def __post_init__(self):
        if self.passed != (self.first_failure is None):
            raise ValueError("passed must mirror the absence of a first failure")

    def to_dict(self) -> dict:
        failure = None
        if self.first_failure is not None:
            failure = {
                "n": self.first_failure.n,
                "lhs": str(self.first_failure.lhs),
                "rhs": str(self.first_failure.rhs),
            }
        return {
            "identity": self.identity_id,
            "N": self.order_checked,
            "passed": self.passed,
            "first_failure": failure,
        }
