"""Command-line front end: compute sequences, expand product specs, and run
the identity catalog with machine-readable reports.

One writer, ``_write``, prints every command in either ``--format``, from
a JSON document and CSV rows built on the same strings.  One parser class,
``_Parser``, names a long argv value by its length in argparse's own
messages, for the sub-parsers too.  Exit codes: 0 success / all identities
passed, 1 an identity or agreement check failed, 2 usage or configuration
error.  Output is deterministic and byte-stable for a fixed invocation;
values are printed exactly (full decimal integers, rationals as p/q), also
past the interpreter's int-to-str digit limit (``series.exact_str``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache
from itertools import chain

from divprod.catalog import ALL_CHECKS, CATALOG, FAIL, run_all, run_check
from divprod.divisors import sigma_rm_table, sigma_table, triangular
from divprod.products import (
    BUILTIN_SPEC_NAMES,
    coeffs_via_expansion,
    coeffs_via_recurrence,
    load_spec,
    past_digit_limit,
    resolve_name,
)
from divprod.report import first_mismatch
from divprod.series import _SHOWN_CHARS, exact_str, sparse_table
from divprod.sequences import (
    lambert_cubic_by_divisors,
    partition_counts,
    regular_partition_counts,
    rogers_ramanujan_sum_side,
    triangular_rep_counts,
)


def _from_one(table: list[int]) -> list[tuple[int, int]]:
    """Rows 1..order of a divisor-sum table, whose slot 0 is unused."""
    return list(enumerate(table))[1:]


def _per_n(fn):
    return lambda order: [(n, fn(n)) for n in range(order + 1)]


# (n, value) rows for a named sequence: each maker takes its parameters,
# then the order.  The divisor sums start at n = 1, the rest at 0.
_SEQUENCES = {
    "sigma": lambda order: _from_one(sigma_table(order)),
    "sigma_odd": lambda order: _from_one(sigma_rm_table(order, 1, 2)),
    "sigma_even": lambda order: _from_one(sigma_rm_table(order, 0, 2)),
    "sigma_rm(r,m)": lambda r, m, order: _from_one(sigma_rm_table(order, r, m)),
    "s": lambda order: list(enumerate(sparse_table(order, lambda k: k * k))),
    "t": lambda order: list(enumerate(sparse_table(order, triangular))),
    "T": _per_n(triangular),
    "a": _per_n(lambert_cubic_by_divisors),
    "partition": lambda order: list(enumerate(partition_counts(order))),
    "q_regular(p)": lambda p, order: list(enumerate(regular_partition_counts(p, order))),
    "rr1": lambda order: list(enumerate(rogers_ramanujan_sum_side(1, order))),
    "rr2": lambda order: list(enumerate(rogers_ramanujan_sum_side(2, order))),
    "delta(m)": lambda m, order: list(enumerate(triangular_rep_counts(m, order))),
}

SEQUENCE_NAMES = tuple(_SEQUENCES)

_NO_FAILURE = {"n": "", "lhs": "", "rhs": ""}


def _write(args, doc, header: tuple[str, ...], rows) -> None:
    """``doc`` as indented JSON, or the CSV ``header`` and one line per row
    (a field with a comma is quoted), to stdout or ``--out``.  Only the CSV
    path iterates the ``rows``."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(doc, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_compute(args) -> int:
    if args.order < 0:
        raise ValueError("--order must be nonnegative")
    make = resolve_name(_SEQUENCES, args.name, "sequence")
    rows = [(n, exact_str(v)) for n, v in make(args.order)]
    _write(args, {"name": args.name, "order": args.order, "rows": rows}, ("n", "value"), rows)
    return 0


def _cmd_expand(args) -> int:
    if args.order < 0:
        raise ValueError("--order must be nonnegative")
    spec = load_spec(args.spec)
    route = coeffs_via_expansion if args.algo == "expansion" else coeffs_via_recurrence
    primary = route(spec, args.order)
    coefficients = [exact_str(c) for c in primary.coeffs]
    doc = {"spec": str(args.spec), "order": args.order, "algorithm": args.algo,
           "coefficients": coefficients}
    miss = None
    if args.algo == "both":
        miss = first_mismatch(primary.coeffs, coeffs_via_expansion(spec, args.order).coeffs)
        doc["agree"] = miss is None
        doc["first_disagreement"] = None if miss is None else {
            "n": miss.n, "recurrence": exact_str(miss.lhs), "expansion": exact_str(miss.rhs)}
    _write(args, doc, ("n", "value"), enumerate(coefficients))
    if miss is not None and args.format == "csv":
        d = doc["first_disagreement"]
        print(f"error: algorithms disagree at n={d['n']}: recurrence={d['recurrence']} "
              f"expansion={d['expansion']}", file=sys.stderr)
    return 1 if miss is not None else 0


def _cmd_verify(args) -> int:
    if args.order < 1:
        raise ValueError("--order must be >= 1")
    ids = args.identities
    if "all" in ids:
        if len(ids) > 1:
            raise ValueError('"all" cannot be combined with explicit identity ids')
        reports = run_all(args.order)
    else:
        unknown = [i if len(i) <= _SHOWN_CHARS else f"an id of {len(i)} characters"
                   for i in ids if i not in ALL_CHECKS]
        if unknown:
            raise ValueError(
                f"unknown identities: {', '.join(unknown)}; "
                f"known: {', '.join(sorted(ALL_CHECKS))}"
            )
        reports = [run_check(i, args.order) for i in sorted(set(ids))]
    doc = [r.to_dict() for r in reports]
    rows = (
        (d["identity"], d["N"], json.dumps(d["passed"]),
         *(d["first_failure"] or _NO_FAILURE).values())
        for d in doc
    )
    _write(args, doc, ("identity", "N", "passed", "failure_n", "lhs", "rhs"), rows)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_catalog(args) -> int:
    listed = sorted(CATALOG, key=lambda r: (r.expected == FAIL, r.id))
    doc = {
        "identities": [{"id": r.id, "expected": r.expected} for r in listed],
        "specs": list(BUILTIN_SPEC_NAMES),
        "sequences": list(SEQUENCE_NAMES),
    }
    rows = chain(
        (("identity", r.id, r.expected) for r in listed),
        (("spec", name, "") for name in BUILTIN_SPEC_NAMES),
        (("sequence", name, "") for name in SEQUENCE_NAMES),
    )
    _write(args, doc, ("kind", "name", "expected"), rows)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that names a value past ``_SHOWN_CHARS`` by its
    length where argparse would echo it: an invalid choice (``_check_value``),
    an ``--order`` that int() refuses (``_get_value``, decimal digits by
    their count) and unrecognized arguments (``parse_args``).  The first two
    are argparse internals, checked by the pinned CLI bytes on every
    supported Python.  The sub-parsers inherit the class (``add_subparsers``)."""

    def parse_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        # Current 3.13 releases of argparse drop one leading "--" themselves;
        # 3.10, 3.11 and 3.13.0 read it as the command.  Two are left to
        # argparse, so that no version drops both.
        if args[:1] == ["--"] and args[1:2] != ["--"]:
            del args[0]
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(
                e if len(e) <= _SHOWN_CHARS else f"an argument of {len(e)} characters"
                for e in extras))
        return namespace

    def _get_value(self, action, text):
        try:
            return super()._get_value(action, text)
        except argparse.ArgumentError:  # only --order has a type
            digits = text.removeprefix("-")
            if digits.isascii() and digits.isdigit():
                raise argparse.ArgumentError(action, past_digit_limit(text))
            if len(text) > _SHOWN_CHARS:
                raise argparse.ArgumentError(action, f"invalid int value of {len(text)} characters")
            raise

    def _check_value(self, action, value):
        if action.choices is not None and len(value) > _SHOWN_CHARS:  # longer than any choice
            raise argparse.ArgumentError(action, f"invalid choice of {len(value)} characters "
                                         f"(choose from {', '.join(map(repr, action.choices))})")
        super()._check_value(action, value)


@cache  # one parser per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="divprod",
        description="Exact product expansions, divisor-sum recurrences, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, order=True):
        if order:
            p.add_argument("--order", type=int, default=100, metavar="N",
                           help="truncation order (default 100)")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format (default json)")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write output to PATH instead of stdout")
        p.set_defaults(run=run)

    p_compute = sub.add_parser("compute", help="emit n,value rows of a named sequence")
    p_compute.add_argument("name", help="sequence name, e.g. sigma, a, q_regular(3), delta(8)")
    add_common(p_compute, _cmd_compute)

    p_expand = sub.add_parser("expand", help="expand a product spec file to coefficients")
    p_expand.add_argument("--spec", required=True, metavar="PATH",
                          help="path to a product spec JSON file")
    p_expand.add_argument("--algo", choices=("recurrence", "expansion", "both"),
                          default="both", help="coefficient algorithm (default both)")
    add_common(p_expand, _cmd_expand)

    p_verify = sub.add_parser("verify", help="run identity checks and report results")
    p_verify.add_argument("identities", nargs="+", metavar="ID",
                          help='identity ids, or "all" for every expected-pass check')
    add_common(p_verify, _cmd_verify)

    p_catalog = sub.add_parser("catalog", help="list identities, built-in specs, sequences")
    add_common(p_catalog, _cmd_catalog, order=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:  # a SpecFormatError is a ValueError
        message, path = str(exc), getattr(exc, "filename", None)
        if isinstance(path, str) and len(path) > _SHOWN_CHARS:
            message = f"[Errno {exc.errno}] {exc.strerror}: a path of {len(path)} characters"
        print(f"error: {message}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
