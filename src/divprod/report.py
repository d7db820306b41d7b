"""Pass/fail reports for coefficient and identity checks.

A failed check is data, not an exception: reports carry the first offending
index together with both side values, exactly.  ``first_mismatch`` is the one
scan that finds that index, for the catalog and for the coefficient routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import ne
from typing import Optional, Sequence

from divprod.series import Rational, exact_str


@dataclass(frozen=True)
class Failure:
    n: int
    lhs: Rational
    rhs: Rational


def first_mismatch(
    lhs: Sequence[Rational], rhs: Sequence[Rational], start: int = 0
) -> Optional[Failure]:
    """The first index where the two sides differ, counting the first pair as
    index ``start``; None when they agree throughout.

    Both sides are sequences, compared in one C-level pass and read back by
    index at the mismatch.  Sides of unequal length raise ValueError; a side
    without a length, such as a generator, raises TypeError.
    """
    if len(lhs) != len(rhs):
        raise ValueError(f"sides of unequal length: {len(lhs)} and {len(rhs)}")
    n = next(compress(count(start), map(ne, lhs, rhs)), None)
    return None if n is None else Failure(n, lhs[n - start], rhs[n - start])


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    order_checked: int
    first_failure: Optional[Failure] = None

    @property
    def passed(self) -> bool:
        return self.first_failure is None

    def to_dict(self) -> dict:
        f = self.first_failure
        failure = None if f is None else {
            "n": f.n, "lhs": exact_str(f.lhs), "rhs": exact_str(f.rhs)}
        return {
            "identity": self.identity_id,
            "N": self.order_checked,
            "passed": self.passed,
            "first_failure": failure,
        }
