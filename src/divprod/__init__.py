"""Exact q-series products, divisor-sum recurrences, and identity checks."""

from divprod.catalog import run_all, run_check
from divprod.divisors import triangular
from divprod.products import (
    Factor,
    ProductSpec,
    SetDescriptor,
    WeightSpec,
    builtin_spec,
    coeffs_via_expansion,
    coeffs_via_recurrence,
    load_spec,
    weight_table,
)
from divprod.report import IdentityReport
from divprod.sequences import (
    lambert_cubic_by_divisors,
    lambert_cubic_prefix,
    partition_counts,
    regular_partition_counts,
    rogers_ramanujan_sum_side,
    triangular_rep_counts,
)
from divprod.series import TruncatedSeries

__all__ = [
    "Factor",
    "IdentityReport",
    "ProductSpec",
    "SetDescriptor",
    "TruncatedSeries",
    "WeightSpec",
    "builtin_spec",
    "coeffs_via_expansion",
    "coeffs_via_recurrence",
    "lambert_cubic_by_divisors",
    "lambert_cubic_prefix",
    "load_spec",
    "partition_counts",
    "regular_partition_counts",
    "rogers_ramanujan_sum_side",
    "run_all",
    "run_check",
    "triangular",
    "triangular_rep_counts",
    "weight_table",
]
