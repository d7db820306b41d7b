"""Which kernels each module may bind, and the names the benchmark's tracer
wraps.

Every comparison needs one side that the other side's kernel did not
compute: the oracles stay off the packed product and the expansion route,
the recurrence stays off the packed product, and a relation's left side is
built without the packed product that sums its right side.
"""

import importlib
import sys
from pathlib import Path

import pytest

import divprod.catalog as catalog
import divprod.products as products
import divprod.sequences as sequences
from divprod.products import builtin_spec, coeffs_via_expansion, coeffs_via_recurrence

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _refuse(*args, **kwargs):
    raise AssertionError("a packed product ran")


def test_sequences_binds_no_kernel_of_another_route():
    bound = set(vars(sequences))
    assert not {name for name in bound if name.startswith(("kronecker_", "coeffs_via_"))}
    assert "apply_binomial_factor" not in bound


@pytest.mark.parametrize("name", ["gauss", "ramanujan", "delta(8)", "square_quotient"])
def test_recurrence_runs_without_the_packed_product(monkeypatch, name):
    spec = builtin_spec(name)
    expected = coeffs_via_expansion(spec, 40)
    monkeypatch.setattr(products, "kronecker_mul", _refuse)
    monkeypatch.setattr(products, "kronecker_pow", _refuse)
    assert coeffs_via_recurrence(spec, 40) == expected


@pytest.mark.parametrize(
    "identity", [r for r in catalog.CATALOG if r.relation is not None], ids=lambda r: r.id
)
def test_relation_left_side_is_built_without_the_packed_product(monkeypatch, identity):
    t = catalog.Tables(30)
    monkeypatch.setattr(catalog, "kronecker_mul", _refuse)
    monkeypatch.setattr(products, "kronecker_mul", _refuse)
    monkeypatch.setattr(products, "kronecker_pow", _refuse)
    assert len(t(identity.relation.lhs)) == 31


def test_benchmark_trace_targets_are_bound(monkeypatch, capsys):
    """perfbench's ``layers.instrument`` wraps names in divprod's modules;
    one that no longer exists would break ``run.py --trace 1``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracing = importlib.import_module("tracing")
    # Fresh modules, as the benchmark imports them; the originals come back
    # after the test.
    for name in [m for m in sys.modules if m == "divprod" or m.startswith("divprod.")]:
        monkeypatch.delitem(sys.modules, name)
    names = ("cli", "catalog", "products", "sequences", "series")
    mods = {f"divprod.{n}": importlib.import_module(f"divprod.{n}") for n in names}
    originals = {name: dict(vars(mod)) for name, mod in mods.items()}

    tracer = tracing.Tracer()
    layers.instrument(tracer, mods)
    try:
        assert mods["divprod.cli"].main(["verify", "all", "--order", "12"]) == 0
        spans = {span[0] for span in tracer.take()}
    finally:
        tracer.restore()
    capsys.readouterr()

    assert {"cli.main", "catalog.delta_8", "sequences.rogers_ramanujan_sum_side",
            "sequences.triangular_rep_counts", "divisors.sieve"} <= spans
    for name, mod in mods.items():
        assert dict(vars(mod)) == originals[name], name
