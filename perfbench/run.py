"""divprod benchmark: drives ``divprod.cli.main`` in-process over a seeded
workload and prints its metrics as JSON.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; divprod is imported from the
checkout's ``src``.  ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer metrics of a traced pass.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it holds details such as the orders, the pass count and the tail percentile.
See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path
from statistics import median

import checks
import workloads
from layers import LAYERS, LAYER_TIME, LayerStats, counts_repeat, instrument, per_layer_metrics
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
MODULES = (
    "divprod", "divprod.cli", "divprod.catalog", "divprod.products",
    "divprod.sequences", "divprod.series",
)
SETUP_REPEATS = 9
TAIL_BEYOND = 10
# Every time the benchmark reports is CPU time of this process: on a shared
# VM, wall time also counts the time the host gives to other VMs.  See
# README.md, "Noise".
CLOCK = time.process_time
# Times are reported at the CPU speed at which the yardstick, probe(), takes
# PROBE_REF_S.
PROBE_REF_S = 0.002
PROBE_WINDOW = 5


def probe() -> float:
    """CPU seconds the yardstick takes right now.  It uses no divprod code.
    Its three parts (small-int arithmetic, a schoolbook product of 128-bit
    ints, Fraction sums) are the kinds of work divprod's loops do; together
    they track how the host's load slows those loops better than any one of
    them alone."""
    start = CLOCK()
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    big = [(i * 2654435761 + 12345) ** 4 for i in range(48)]
    prod = [0] * (2 * len(big))
    for i, x in enumerate(big):
        for j, y in enumerate(big):
            prod[i + j] += x * y
    frac = Fraction(0)
    for i in range(1, 120):
        f = Fraction(i * 7919 + 1, i * 104729 + 3)
        frac += f * f
    return CLOCK() - start


def scaled(seconds: float, probe_s: float) -> float:
    """A time measured just after a probe, at the reference CPU speed."""
    return seconds * PROBE_REF_S / probe_s


def scaled_pass(timings: dict[str, tuple[float, float]]) -> dict[str, float]:
    """A pass's (latency, probe) pairs, in the order they ran, as latencies at
    the reference CPU speed.  Each latency is scaled by the median probe of
    the PROBE_WINDOW operations centred on it, which damps the probe's own
    noise."""
    probes = [p for _, p in timings.values()]
    half = PROBE_WINDOW // 2
    return {key: scaled(t, median(probes[max(0, i - half): i + half + 1]))
            for i, (key, (t, _)) in enumerate(timings.items())}


def tail_latency(values: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest nearest-rank percentile that still
    has TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {len(ordered)}")
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def setup(src: Path, name: str, seed: int, specdir: Path):
    """Import divprod afresh, build the seeded workload and write its spec
    files into ``specdir``, a new directory.  (On ext4, rewriting a file in
    place makes the close wait for the disk.)"""
    for mod in [m for m in sys.modules if m == "divprod" or m.startswith("divprod.")]:
        del sys.modules[mod]
    mods = {m: importlib.import_module(m) for m in MODULES}
    wl = workloads.build(name, seed)
    specdir.mkdir()
    for spec_name, doc in wl.specs.items():
        (specdir / f"{spec_name}.json").write_bytes(workloads.spec_bytes(doc))
    return mods, wl


def cli_argv(op: workloads.Op, specdir: Path, out: Path) -> list[str]:
    argv = list(op.argv)
    if op.spec is not None:
        argv += ["--spec", str(specdir / f"{op.spec}.json")]
    return argv + ["--out", str(out)]


class Runner:
    """Runs operations through the CLI and checks each output."""

    def __init__(self, mods: dict, wl: workloads.Workload, specdir: Path, out: Path):
        self.mods, self.wl, self.specdir, self.out = mods, wl, specdir, out
        self.reference = checks.load_reference()
        self.first_digest: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def run(self, op: workloads.Op, tracer: Tracer | None = None):
        """(latency, probe time, output bytes, spans) of one operation, after
        checking its output; the probe runs just before the operation."""
        argv = cli_argv(op, self.specdir, self.out)
        self.out.unlink(missing_ok=True)  # a new file each time, as in setup()
        cli = self.mods["divprod.cli"]
        probe_s = probe()
        start = CLOCK()
        code = cli.main(argv)
        latency = CLOCK() - start
        spans = tracer.take() if tracer is not None else []
        raw = self.out.read_bytes() if self.out.exists() else b""
        self.attempted += 1
        problem = self._problem(op, code, raw)
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{op.key}: {problem}")
        return latency, probe_s, len(raw), spans

    def _problem(self, op: workloads.Op, code: int, raw: bytes) -> str | None:
        if code != checks.expected_exit(op):
            return f"exit code {code}"
        try:
            d = checks.digest(op, raw)
            if op.key in self.first_digest:
                return None if d == self.first_digest[op.key] else "output differs from its first run"
            self.first_digest[op.key] = d
            problem = checks.first_output_problem(op, raw, self.reference)
            if problem is None and "recurrence" in op.argv:
                problem = checks.rational_problem(self.wl.specs[op.spec], raw,
                                                  self.mods["divprod.products"])
            return problem
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"

    def plain_pass(self) -> dict[str, tuple[float, float]]:
        """Latency and probe time of every operation, by key."""
        gc.collect()
        return {op.key: self.run(op)[:2] for op in self.wl.ops}

    def traced_pass(self) -> tuple[float, dict[str, LayerStats]]:
        gc.collect()
        stats = {level: LayerStats() for level in workloads.LEVELS}
        tracer = Tracer(CLOCK)
        instrument(tracer, self.mods)
        total = 0.0
        try:
            for op in self.wl.ops:
                latency, _, size, spans = self.run(op, tracer)
                stats[op.level].add(spans, latency, size)
                total += latency
        finally:
            tracer.restore()
        return total, stats


def end_to_end(wl: workloads.Workload, passes: list[dict], setup: list[tuple[float, float]]):
    """The end-to-end metrics, with every time at the reference CPU speed,
    and the same figures unscaled for the detail line."""
    terms = sum(op.order + 1 for op in wl.ops)
    metrics, raw = {}, {}
    for out, rows, setup_s in (
        (metrics, [scaled_pass(p) for p in passes], [scaled(t, p) for t, p in setup]),
        (raw, [{k: t for k, (t, _) in p.items()} for p in passes], [t for t, _ in setup]),
    ):
        per_op_ms = [1000 * median(row[op.key] for row in rows) for op in wl.ops]
        pct, tail = tail_latency(per_op_ms)
        out.update({
            "terms_per_s": (median(terms / sum(row.values()) for row in rows), "terms/s"),
            "op_p50_ms": (median(per_op_ms), "ms"),
            "op_tail_ms": (tail, "ms"),
            "setup_s": (median(setup_s), "s"),
        })
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    return metrics, {"op_samples": len(wl.ops), "tail_percentile": pct, "terms_per_pass": terms,
                     "unscaled": {k: v for k, (v, _) in raw.items()}}


def traced_metrics(runner: Runner, deadline: float) -> tuple[dict, int]:
    """Alternate untraced and traced passes until ``deadline``; the
    per-layer metrics and the number of traced passes."""
    plain, traced = [], []
    while not traced or time.perf_counter() < deadline:
        plain.append(sum(t for t, _ in runner.plain_pass().values()))
        traced.append(runner.traced_pass())
    by_level = {level: [stats[level] for _, stats in traced] for level in workloads.LEVELS}
    metrics = per_layer_metrics(by_level, median(w for w, _ in traced) - median(plain))
    for level in workloads.LEVELS:
        parts = sum(metrics[f"{LAYER_TIME[layer]}.{level}"][0] for layer in LAYERS)
        parts += metrics[f"trace.unattributed_s.{level}"][0]
        whole = metrics[f"trace.time_s.{level}"][0]
        if abs(parts - whole) > 1e-9 * max(1.0, whole):
            runner.problems.append(f"self times do not add up at {level}: {parts} != {whole}")
        if not counts_repeat(by_level[level]):
            runner.problems.append(f"per-layer counts at {level} changed between passes")
    return metrics, len(traced)


def measure(args, src: Path, workdir: Path) -> dict:
    setup_times = []
    for rep in range(SETUP_REPEATS):
        gc.collect()  # frees the previous repetition's modules
        specdir = workdir / f"specs{rep}"
        probe_s = probe()
        start = CLOCK()
        mods, wl = setup(src, args.workload, args.seed, specdir)
        setup_times.append((CLOCK() - start, probe_s))
    if not Path(mods["divprod"].__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"divprod was imported from {mods['divprod'].__file__}, not {src}")
    runner = Runner(mods, wl, specdir, workdir / "out.json")
    runner.plain_pass()  # warm-up; checks every first output in full
    detail = {"workload": wl.name, "seed": args.seed,
              "orders": {level: wl.orders(level) for level in workloads.LEVELS},
              "operations_per_pass": len(wl.ops), "python": platform.python_version()}
    deadline = time.perf_counter() + args.seconds  # the run itself lasts wall seconds
    if args.trace:
        metrics, detail["passes"] = traced_metrics(runner, deadline)
    else:
        passes = []
        while not passes or time.perf_counter() < deadline:
            passes.append(runner.plain_pass())
        metrics, more = end_to_end(wl, passes, setup_times)
        detail.update(more, passes=len(passes))
    detail["ops_failed_frac"] = runner.failed / runner.attempted
    detail["problems"] = runner.problems[:10]
    print(json.dumps(detail, sort_keys=True))
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "divprod" / "__init__.py").is_file():
        print(f"error: no divprod sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        result = measure(args, src.resolve(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
