"""Where the traced pass wraps divprod, and the per-layer metrics it derives.

The layers are divprod's modules.  Every span is named ``<layer>.<what>``
and wraps a public function at the name its caller binds, so the program
itself is unchanged.  ``report`` is not wrapped: its few calls count toward
the enclosing ``cli`` or ``catalog`` span.  In ``divisors`` only the two
sieves are wrapped; the per-value indicators run inside catalog loops, and a
wrapper per call would cost more than the call.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

from tracing import Tracer, root_time, self_times
from workloads import LEVELS, PASS_IDS, PINNED

LAYERS = ("cli", "catalog", "sequences", "products", "series", "divisors")
SEQUENCES = (
    "partition_counts", "regular_partition_counts", "rogers_ramanujan_sum_side",
    "triangular_rep_counts", "lambert_cubic",
)
CHECK_IDS = PASS_IDS + tuple(PINNED)
# The metric holding each layer's self time; only the sieves are wrapped in
# divisors, so its self time is the sieve time.
LAYER_TIME = {layer: f"{layer}.self_s" for layer in LAYERS} | {"divisors": "divisors.sieve_s"}


def _keep(args, result):
    return result


def _binomial_call(args, result):
    coeffs, n, e = args
    return len(coeffs), n, e


def _sigma_table_call(args, result):
    return args[0], 0, 1  # the same table as sigma_rm_table(order, 0, 1)


def _sigma_rm_table_call(args, result):
    return tuple(args)


def instrument(tracer: Tracer, mods: dict) -> None:
    """Wrap divprod's public functions where ``cli``, ``catalog``,
    ``products`` and ``sequences`` look them up.  ``tracer.restore()``
    undoes it."""
    cli, catalog = mods["divprod.cli"], mods["divprod.catalog"]
    products, sequences = mods["divprod.products"], mods["divprod.sequences"]
    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "load_spec", "products.load_spec")
    for owner in (cli, catalog):
        tracer.patch(owner, "coeffs_via_recurrence", "products.recurrence", _keep)
        tracer.patch(owner, "coeffs_via_expansion", "products.expansion", _keep)
    tracer.patch(products, "weight_table", "products.weight_table", _keep)
    tracer.patch(products, "apply_binomial_factor", "series.binomial_apply", _binomial_call)
    tracer.patch(mods["divprod.series"].TruncatedSeries, "__mul__", "series.mul")
    tracer.patch(sequences, "binomial_factor", "series.binomial_factor")
    tracer.patch(catalog, "sigma_table", "divisors.sieve", _sigma_table_call)
    tracer.patch(catalog, "sigma_rm_table", "divisors.sieve", _sigma_rm_table_call)
    for fn in ("partition_counts", "regular_partition_counts",
               "rogers_ramanujan_sum_side", "triangular_rep_counts"):
        tracer.patch(catalog, fn, f"sequences.{fn}")
    for fn in ("lambert_cubic_by_divisors", "lambert_cubic_prefix"):
        tracer.patch(catalog, fn, "sequences.lambert_cubic")
    for ident in list(catalog.ALL_CHECKS):
        tracer.patch(catalog.ALL_CHECKS, ident, f"catalog.{ident}")


def coeff_bits(c) -> int:
    """Bit length of an int, or the larger of a fraction's numerator and
    denominator bit lengths."""
    if isinstance(c, int):
        return abs(c).bit_length()
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


def recurrence_terms(table) -> int:
    """Kernel terms the recurrence visits: sum over n of #{k <= n : g(k) != 0}."""
    return sum(table.order - k + 1 for k in range(1, table.order + 1) if table.values[k])


class LayerStats:
    """Totals over the traced operations of one level, N1 or N2."""

    def __init__(self):
        self.time_s = 0.0
        self.root_s = 0.0
        self.self_s: dict[str, float] = defaultdict(float)  # by span name
        self.counts: Counter = Counter()
        self.sieve_args: set = set()

    def add(self, spans: list[list], time_s: float, out_bytes: int) -> None:
        """Account one operation: its spans, its time as the caller measured
        it, and the size of its output."""
        self.time_s += time_s
        self.root_s += root_time(spans)
        self.counts["out_bytes"] += out_bytes
        for (name, _, _, _, note), own in zip(spans, self_times(spans)):
            self.self_s[name] += own
            if name == "series.binomial_apply":
                length, n, e = note
                self.counts["binomial_passes"] += abs(e)
                self.counts["binomial_cells"] += abs(e) * (length - n)
            elif name == "series.mul":
                self.counts["mul_calls"] += 1
            elif name == "divisors.sieve":
                self.counts["sieve_calls"] += 1
                self.sieve_args.add(note)
            elif name == "products.weight_table":
                self.counts["recurrence_terms"] += recurrence_terms(note)
            elif name in ("products.recurrence", "products.expansion"):
                bits = max(coeff_bits(c) for c in note.coeffs)
                self.counts["max_coeff_bits"] = max(self.counts["max_coeff_bits"], bits)

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_s.items() if name.split(".", 1)[0] == layer)

    def metrics(self, level: str) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of this level, named ``<metric>.<level>``."""
        s, c = self.self_s, self.counts
        calls = c["sieve_calls"]
        m = {LAYER_TIME[layer]: (self.layer_self(layer), "s") for layer in LAYERS}
        m.update({
            "cli.out_bytes": (c["out_bytes"], "bytes"),
            "products.recurrence_self_s": (s["products.recurrence"], "s"),
            "products.recurrence_terms": (c["recurrence_terms"], "count"),
            "products.weight_table_s": (s["products.weight_table"], "s"),
            "products.load_spec_s": (s["products.load_spec"], "s"),
            "products.expansion_self_s": (s["products.expansion"], "s"),
            "products.max_coeff_bits": (c["max_coeff_bits"], "bits"),
            "series.binomial_apply_s": (s["series.binomial_apply"], "s"),
            "series.binomial_passes": (c["binomial_passes"], "count"),
            "series.binomial_cells": (c["binomial_cells"], "count"),
            "series.mul_s": (s["series.mul"], "s"),
            "series.mul_calls": (c["mul_calls"], "count"),
            "divisors.sieve_calls": (calls, "count"),
            "divisors.sieve_distinct_ratio": (len(self.sieve_args) / calls if calls else 0.0, "ratio"),
            "trace.time_s": (self.time_s, "s"),
            "trace.unattributed_s": (self.time_s - self.root_s, "s"),
        })
        m.update({f"sequences.{q}_s": (s[f"sequences.{q}"], "s") for q in SEQUENCES})
        return {f"{name}.{level}": v for name, v in m.items()}


def per_layer_metrics(by_level: dict[str, list[LayerStats]],
                      overhead_s: float) -> dict[str, tuple[float, str]]:
    """The traced run's metrics from each level's stats, one per traced pass:
    times are means over the passes; counts must repeat exactly from pass to
    pass (see ``counts_repeat``)."""
    out: dict[str, tuple[float, str]] = {}
    for level in LEVELS:
        rows = [p.metrics(level) for p in by_level[level]]
        for name, (value, unit) in rows[0].items():
            if unit == "s":
                value = sum(r[name][0] for r in rows) / len(rows)
            out[name] = (value, unit)
    n2 = by_level[LEVELS[1]]
    for ident in CHECK_IDS:
        t = sum(p.self_s[f"catalog.{ident}"] for p in n2) / len(n2)
        out[f"catalog.{ident}.self_s"] = (t, "s")
    for layer in LAYERS:
        a, b = (out[f"{LAYER_TIME[layer]}.{level}"][0] for level in LEVELS)
        out[f"{layer}.exp"] = (math.log2(b / a) if a > 0 and b > 0 else 0.0, "log2")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def counts_repeat(passes: list[LayerStats]) -> bool:
    """True when every pass made the same counts, as an unchanged program must."""
    first = passes[0]
    return all(p.counts == first.counts and p.sieve_args == first.sieve_args for p in passes)
