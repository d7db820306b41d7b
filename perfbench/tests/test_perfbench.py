"""Tests for the benchmark's own code.  Run with

    python -m pytest perfbench/tests
"""

import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import checks
import layers
import run
import workloads
from tracing import Tracer, root_time, self_times

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def fake_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


# --- spans and self time ------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer(clock=fake_clock())
    leaf = tracer.wrap(lambda: None, "c.leaf")
    mid = tracer.wrap(lambda: leaf(), "b.mid")
    top = tracer.wrap(lambda: (mid(), leaf()), "a.top")
    top()
    spans = tracer.take()
    # clock ticks: top 0..7, mid 1..4, its leaf 2..3, second leaf 5..6
    names = [s[0] for s in spans]
    assert names == ["a.top", "b.mid", "c.leaf", "c.leaf"]
    assert [s[3] for s in spans] == [-1, 0, 1, 0]
    durations = [end - start for _, start, end, _, _ in spans]
    assert durations == [7.0, 3.0, 1.0, 1.0]
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == root_time(spans) == 7.0


def test_patch_and_restore_module_attribute_and_dict_entry():
    class Owner:
        @staticmethod
        def f(x):
            return x + 1

    table = {"g": lambda x: x * 2}
    original_f, original_g = Owner.f, table["g"]
    tracer = Tracer()
    tracer.patch(Owner, "f", "a.f", note=lambda args, result: (args, result))
    tracer.patch(table, "g", "a.g")
    assert Owner.f(1) == 2 and table["g"](3) == 6
    spans = tracer.take()
    assert [s[0] for s in spans] == ["a.f", "a.g"]
    assert spans[0][4] == ((1,), 2)
    tracer.restore()
    assert Owner.f is original_f and table["g"] is original_g


def test_take_inside_open_span_is_refused():
    tracer = Tracer()
    inner = tracer.wrap(lambda: tracer.take(), "a.x")
    with pytest.raises(RuntimeError):
        inner()


# --- tail percentile ----------------------------------------------------------


def test_tail_is_the_highest_rank_with_ten_samples_beyond():
    pct, value = run.tail_latency([float(v) for v in range(42, 0, -1)])
    assert value == 32.0  # ten values, 33..42, lie beyond it
    assert pct == pytest.approx(100 * 32 / 42)
    assert run.tail_latency([float(v) for v in range(11)]) == (100 / 11, 0.0)
    with pytest.raises(ValueError):
        run.tail_latency([1.0] * 10)


# --- seeded inputs ------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_byte_identical_for_equal_seeds(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a.ops == b.ops
    assert {k: workloads.spec_bytes(v) for k, v in a.specs.items()} == {
        k: workloads.spec_bytes(v) for k, v in b.specs.items()
    }
    c = workloads.build(name, 8)
    assert [op.key for op in a.ops] != [op.key for op in c.ops]
    assert sorted(op.key for op in a.ops) == sorted(op.key for op in c.ops)


def test_workloads_run_every_input_at_n1_and_twice_n1():
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 0)
        pairs = {}
        for op in wl.ops:
            pairs.setdefault(op.argv[:2] + (op.spec,), {})[op.level] = op.order
        assert all(p["n2"] == 2 * p["n1"] for p in pairs.values())
        assert len(wl.ops) == 2 * len(pairs) > run.TAIL_BEYOND
    assert len(workloads.build("catalog", 0).ops) == 2 * 21
    assert len(workloads.build("expand_both", 0).specs) == 17 + workloads.EXPAND_RANDOM


def test_builtin_spec_documents_match_the_library():
    from divprod.products import builtin_spec, spec_from_dict

    for name, doc in workloads.builtin_specs().items():
        library_name = name.replace("p_regular_", "p_regular(").replace("delta_", "delta(")
        if library_name != name:
            library_name += ")"
        assert spec_from_dict(doc) == builtin_spec(library_name), name


def test_random_specs_have_the_promised_exponents():
    from divprod.products import spec_from_dict

    order = 2 * min(workloads.RATIONAL_N1)
    wl = workloads.build("rational_recurrence", 3)
    for doc in wl.specs.values():
        spec = spec_from_dict(doc)
        assert spec.shift == 0
        dens = {f.weight.exponent_at(n).denominator
                for f in spec.factors for n in f.set.members_upto(order)}
        assert 1 < checks.exponent_denominator_lcm(doc) <= 6
        assert dens - {1}
    for name, doc in workloads.build("expand_both", 3).specs.items():
        spec = spec_from_dict(doc)
        assert all(f.weight.exponent_at(n).denominator == 1
                   for f in spec.factors for n in f.set.members_upto(2 * workloads.EXPAND_N1))


# --- per-layer counts on hand-checked inputs -------------------------------------


def traced_ops(tmp_path, argvs):
    """Run CLI calls under the benchmark's instrumentation; one LayerStats."""
    mods, _ = run.setup(Path(run.ROOT / "src"), "catalog", 0, tmp_path / "specs")
    stats = layers.LayerStats()
    tracer = Tracer()
    layers.instrument(tracer, mods)
    try:
        for argv in argvs:
            out = tmp_path / "out.json"
            assert mods["divprod.cli"].main([*argv, "--out", str(out)]) in (0, 1)
            spans = tracer.take()
            stats.add(spans, root_time(spans), out.stat().st_size)
    finally:
        tracer.restore()
    assert not hasattr(mods["divprod.cli"].main, "__wrapped__")
    return stats, out


def test_counts_on_a_small_spec(tmp_path):
    # x * (1-x^2)^2 (1-x^4)^2 (1-x^3)^-1 to order 6, i.e. inner order 5:
    # exponents 2 at n=2,4 and -1 at n=3.
    doc = {"shift": 1, "factors": [
        {"set": {"kind": "multiples", "m": 2}, "weight": {"kind": "linear", "c": "-2"}},
        {"set": {"kind": "explicit", "members": [3]},
         "weight": {"kind": "table", "values": {"3": "3"}}},
    ]}
    spec = tmp_path / "small.json"
    spec.write_text(json.dumps(doc))
    stats, out = traced_ops(tmp_path, [["expand", "--spec", str(spec), "--order", "6"]])
    assert json.loads(out.read_text())["coefficients"] == ["0", "1", "0", "-2", "1", "-1", "-2"]
    c = stats.counts
    assert c["binomial_passes"] == 2 + 1 + 2
    assert c["binomial_cells"] == 2 * (6 - 2) + 1 * (6 - 3) + 2 * (6 - 4)
    # g = (0, -4, 3, -12, 0) on k = 1..5; nonzero at k = 2, 3, 4
    assert c["recurrence_terms"] == (5 - 2 + 1) + (5 - 3 + 1) + (5 - 4 + 1)
    assert c["max_coeff_bits"] == 2
    assert c["sieve_calls"] == 0 and c["mul_calls"] == 0
    assert stats.self_s["products.weight_table"] > 0
    total = sum(stats.layer_self(layer) for layer in layers.LAYERS)
    assert total == pytest.approx(stats.root_s, abs=1e-12)


def test_sieve_distinct_ratio_counts_repeated_tables(tmp_path):
    # jacobi_square sieves (10,0,1) and (10,1,2); triangular (10,1,2), (10,0,2)
    stats, _ = traced_ops(tmp_path, [["verify", "jacobi_square", "--order", "10"],
                                     ["verify", "triangular", "--order", "10"]])
    assert stats.counts["sieve_calls"] == 4
    assert stats.sieve_args == {(10, 0, 1), (10, 1, 2), (10, 0, 2)}
    m = stats.metrics("n1")
    assert m["divisors.sieve_distinct_ratio.n1"] == (0.75, "ratio")
    assert stats.self_s["catalog.jacobi_square"] > 0


# --- correctness checks -------------------------------------------------------


def test_power_by_the_derivative_identity():
    # (1-x)^(-1/2) squared is 1/(1-x)
    half = [Fraction(comb(2 * n, n), 4 ** n) for n in range(12)]
    assert checks.power(half, 2) == [1] * 12


def test_rational_second_route_accepts_the_recurrence_and_catches_a_change(tmp_path):
    from divprod import products

    doc = workloads.build("rational_recurrence", 5).specs["rat01"]
    coeffs = products.coeffs_via_recurrence(products.spec_from_dict(doc), 30).coeffs
    raw = json.dumps({"coefficients": [str(c) for c in coeffs]}).encode()
    assert checks.rational_problem(doc, raw, products) is None
    bad = [str(c) for c in coeffs]
    bad[17] = str(Fraction(bad[17]) + Fraction(1, 3))
    problem = checks.rational_problem(doc, json.dumps({"coefficients": bad}).encode(), products)
    assert problem is not None and "n=17" in problem


def test_expand_digest_ignores_the_spec_path():
    op = workloads.Op("expand:x@2", "n1", 2, ("expand", "--order", "2"), spec="x")
    a = json.dumps({"spec": "/a/x.json", "order": 2, "coefficients": ["1", "0", "1"]})
    b = json.dumps({"spec": "/b/x.json", "order": 2, "coefficients": ["1", "0", "1"]})
    assert checks.digest(op, a.encode()) == checks.digest(op, b.encode())


def test_moved_pinned_failure_is_a_problem():
    op = workloads.Op("verify:jacobi_square_verbatim@10", "n1", 10,
                      ("verify", "jacobi_square_verbatim", "--order", "10"))
    report = {"identity": "jacobi_square_verbatim", "N": 10, "passed": False,
              "first_failure": {"n": 4, "lhs": "4", "rhs": "3"}}
    raw = json.dumps([report]).encode()
    assert checks.first_output_problem(op, raw, {op.key: checks.digest(op, raw)}) is None
    report["first_failure"]["n"] = 5
    raw = json.dumps([report]).encode()
    assert "pinned" in checks.first_output_problem(op, raw, {op.key: checks.digest(op, raw)})
    assert "reference" in checks.first_output_problem(op, raw, {})


# --- the metric names promised in BENCHMARK.json ---------------------------------


def test_per_layer_metric_names_match_benchmark_json():
    m = layers.per_layer_metrics({"n1": [layers.LayerStats()], "n2": [layers.LayerStats()]}, 0.0)
    declared = {e["name"]: e["unit"] for e in BENCHMARK["per_layer"]}
    assert {k: u for k, (_, u) in m.items()} == declared


def test_scaling_uses_the_median_probe_of_a_centred_window():
    probes = [0.001, 0.004, 0.003, 0.002, 0.001, 0.100]
    timings = {key: (1.0, p) for key, p in zip("abcdef", probes)}
    # windows: a..c, a..d, a..e, b..f, c..f, d..f
    medians = [0.003, 0.0025, 0.002, 0.003, 0.0025, 0.002]
    got = run.scaled_pass(timings)
    assert list(got) == list(timings)
    assert list(got.values()) == pytest.approx([run.PROBE_REF_S / m for m in medians])


def test_end_to_end_metric_names_match_benchmark_json():
    wl = workloads.build("catalog", 0)
    slow = 2 * run.PROBE_REF_S
    passes = [{op.key: (0.01 * (i + 1), slow) for i, op in enumerate(wl.ops)}] * 3
    m, detail = run.end_to_end(wl, passes, [(0.5, slow)])
    declared = {e["name"]: e["unit"] for e in BENCHMARK["end_to_end"]}
    assert {k: u for k, (_, u) in m.items()} == declared
    assert detail["op_samples"] == len(wl.ops)
    # the probe took twice the reference time, so scaled times are halved
    assert m["setup_s"][0] == pytest.approx(0.25)
    assert detail["unscaled"]["setup_s"] == 0.5
    assert m["op_tail_ms"][0] == pytest.approx(0.5 * detail["unscaled"]["op_tail_ms"])
