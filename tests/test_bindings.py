"""Which kernels each module may bind, the names the benchmark's tracer
wraps, and the names the package ships.

Every comparison needs one side that the other side's kernel did not
compute.  The oracles stay off both packed products and the expansion
route's kernels.  The two coefficient routes each have their own packed
product: the expansion's ladder of squarings and products goes through
``kronecker_mul``, and the recurrence's blocks through ``decimal_mul``, so
each route runs with the other's kernels refused.  A relation's left side
is built without the packed products that sum its right side.
"""

import ast
import importlib
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import divprod
import divprod.catalog as catalog
import divprod.divisors as divisors
import divprod.products as products
import divprod.sequences as sequences
import divprod.series as series
from divprod.products import (
    Factor,
    ProductSpec,
    SetDescriptor,
    WeightSpec,
    builtin_spec,
    coeffs_via_expansion,
    coeffs_via_recurrence,
    weight_table,
)
from divprod.report import IdentityReport
from spec_reference import contains, f_value

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _refuse(*args, **kwargs):
    raise AssertionError("a kernel of another route ran")


def test_sequences_binds_no_kernel_of_another_route():
    bound = set(vars(sequences))
    assert not {name for name in bound if name.startswith(("kronecker_", "coeffs_via_"))}
    assert not bound & {"apply_binomial_factor", "apply_progression", "decimal_mul"}


def test_sequences_binds_no_series_type():
    # The oracles return plain tuples; only the routes build a TruncatedSeries.
    assert "TruncatedSeries" not in vars(sequences)


def test_catalog_binds_no_recurrence_block_product():
    assert "decimal_mul" not in vars(catalog)


def _loaded_names(*functions) -> set[str]:
    """Every global and attribute name that the functions' code loads, in
    their nested functions too."""
    names, codes = set(), [f.__code__ for f in functions]
    while codes:
        code = codes.pop()
        names.update(code.co_names)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return names


def test_recurrence_block_product_loads_no_helper_of_the_expansions():
    """Every name that ``decimal_mul``'s code loads, in its nested functions
    too, is none of ``kronecker_mul`` and its helpers: below libmpdec's
    transform it packs bytes of an int as ``kronecker_mul`` does, but with
    its own code."""
    names = _loaded_names(series.decimal_mul)
    # Both sides, and ctx.subtract, which only the nested Decimal packer loads.
    assert {"Context", "from_bytes", "subtract"} <= names
    assert not names & {"kronecker_mul", "_pack", "_words", "_repeat", "_SIGN_FILL"}


def test_expansion_product_loads_no_helper_of_the_recurrences():
    """The other direction: the byte-plane helpers that ``decimal_mul``
    loads are loaded by none of ``kronecker_mul`` and its helpers, and load
    none of theirs, so a packing bug in either product is not common to both
    routes."""
    helpers = {"_slots_from_words", "_words_from_slots"}
    assert helpers <= _loaded_names(series.decimal_mul)
    kronecker = (series.kronecker_mul, series._pack, series._words, series._repeat)
    assert not _loaded_names(*kronecker) & helpers
    assert not _loaded_names(series._slots_from_words, series._words_from_slots) & {
        "kronecker_mul", "_pack", "_words", "_repeat", "_SIGN_FILL", "_BIG_ENDIAN"}


# Each coefficient route's functions, and the names only that route may load.
_RECURRENCE = (products.coeffs_via_recurrence, products.weight_table,
               products.denominator_schedule, products._coprime_base)
_EXPANSION = (products.coeffs_via_expansion, products.expansion_plan, products._class_step)
_RECURRENCE_ONLY = {"decimal_mul", "weight_table", "denominator_schedule", "_coprime_base"}
_EXPANSION_ONLY = {"kronecker_mul", "apply_binomial_factor", "apply_progression",
                   "expansion_plan", "_class_step"}


@pytest.mark.parametrize("function", _RECURRENCE, ids=lambda f: f.__name__)
def test_recurrence_function_loads_no_name_of_the_expansion(function):
    """The routes stay independent in their code, whatever a run exercises;
    the refused-kernel tests below cover the calls that run."""
    assert not _loaded_names(function) & _EXPANSION_ONLY


@pytest.mark.parametrize("function", _EXPANSION, ids=lambda f: f.__name__)
def test_expansion_function_loads_no_name_of_the_recurrence(function):
    assert not _loaded_names(function) & _RECURRENCE_ONLY


def test_product_kernel_loads_nothing_of_the_recurrence_route():
    """A relation's kernel is read off the spec that its pin expands with the
    catalog's own code, so the relation stays a check of that spec: neither
    ``_product_kernel`` nor the divisor kernel it builds loads the
    recurrence's weight table, route or block product, or the packed product
    that sums the relation."""
    names = _loaded_names(catalog._product_kernel, catalog._divisor_kernel)
    assert "_divisor_kernel" in names
    assert not names & {"weight_table", "coeffs_via_recurrence", "decimal_mul", "kronecker_mul"}


def test_each_route_loads_its_own_packed_product():
    # The scans above read names that the routes do load.
    assert "decimal_mul" in _loaded_names(*_RECURRENCE)
    assert "kronecker_mul" in _loaded_names(*_EXPANSION)


def test_runtime_imports_only_the_standard_library():
    """Every absolute import of the package is the package or the stdlib."""
    for path in sorted(Path(products.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "divprod" or top in sys.stdlib_module_names, (path.name, name)


def test_exports_resolve_and_test_only_names_are_gone():
    """Every name in ``divprod.__all__`` resolves.  The spec serialisers and
    ``sigma_ext`` are removed, and ``contains`` and ``f_value`` are test
    references (tests/spec_reference.py); a report still has ``to_dict``.
    The per-value sigma and indicator functions and ``cross_check`` are
    removed too: the sieves, ``sparse_table`` and ``expand --algo both`` do
    their work, so ``products`` binds nothing from ``report``.
    ``binomial_factor`` is a test reference, left in ``series`` only."""
    assert [name for name in divprod.__all__ if not hasattr(divprod, name)] == []
    removed = ("sigma", "sigma_rm", "sigma_odd", "sigma_even", "square_indicator",
               "triangular_indicator", "cross_check")
    assert [(mod.__name__, name) for mod in (divprod, divisors, products)
            for name in removed if hasattr(mod, name)] == []
    assert [name for name, value in vars(products).items()
            if getattr(value, "__module__", None) == "divprod.report"] == []
    gone = {
        divisors: ("sigma_ext",),
        SetDescriptor: ("to_dict", "contains"),
        WeightSpec: ("to_dict", "f_value"),
        Factor: ("to_dict",),
        ProductSpec: ("to_dict", "to_json"),
    }
    assert [(owner.__name__, name) for owner, names in gone.items()
            for name in names if hasattr(owner, name)] == []
    assert not hasattr(divprod, "sigma_ext")
    assert not hasattr(divprod, "binomial_factor")
    assert hasattr(series, "binomial_factor")
    assert hasattr(IdentityReport, "to_dict")


@pytest.mark.parametrize("name", ["gauss", "ramanujan", "delta(8)", "square_quotient"])
def test_routes_run_with_the_other_routes_packed_product_refused(monkeypatch, name):
    spec = builtin_spec(name)
    blocks = []
    real = products.decimal_mul

    def spy(a, b):
        blocks.append(len(a))
        return real(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(products, "decimal_mul", _refuse)
        expected = coeffs_via_expansion(spec, 300)
    monkeypatch.setattr(products, "decimal_mul", spy)
    monkeypatch.setattr(products, "kronecker_mul", _refuse)
    monkeypatch.setattr(products, "apply_progression", _refuse)
    assert coeffs_via_recurrence(spec, 300) == expected
    assert blocks  # at order 300 the recurrence packs blocks


@pytest.mark.parametrize(
    "identity", [r for r in catalog.CATALOG if r.relation is not None], ids=lambda r: r.id
)
def test_relation_left_side_is_built_without_the_packed_product(monkeypatch, identity):
    t = catalog.Tables(30)
    monkeypatch.setattr(catalog, "kronecker_mul", _refuse)
    monkeypatch.setattr(products, "kronecker_mul", _refuse)
    monkeypatch.setattr(products, "decimal_mul", _refuse)
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


# g(k) = 0 at k = 1, 5, ... (no member divides k) and at k = 4, 6, ... (the
# weights cancel, as f(2) + f(4) = 0).
RATIONAL = ProductSpec(
    factors=(
        Factor(SetDescriptor.multiples(3), WeightSpec.linear(Fraction(1, 3))),
        Factor(SetDescriptor.residue_union([(3, 4)]), WeightSpec.linear(Fraction(-5, 6))),
        Factor(SetDescriptor.explicit([2, 4]), WeightSpec.table({2: Fraction(-1, 2), 4: Fraction(1, 2)})),
    )
)


@pytest.mark.parametrize("spec", [RATIONAL, builtin_spec("delta(8)")], ids=["rational", "delta(8)"])
def test_benchmark_recurrence_terms_reads_the_weight_table(monkeypatch, spec):
    """perfbench counts the recurrence's kernel terms from the table that
    ``weight_table`` returns: the terms with k <= n, summed over n."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    order = 60
    nonzero = [
        k for k in range(1, order + 1)
        if sum(f_value(f.weight, d) for f in spec.factors
               for d in range(1, k + 1) if k % d == 0 and contains(f.set, d))
    ]
    expected = sum(order - k + 1 for k in nonzero)
    assert layers.recurrence_terms(weight_table(spec, order)) == expected
