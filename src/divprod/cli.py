"""Command-line front end: compute sequences, expand product specs, and run
the identity catalog with machine-readable reports.

Exit codes: 0 success / all identities passed, 1 an identity or agreement
check failed, 2 usage or configuration error.  Output is deterministic and
byte-stable for a fixed invocation; values are printed exactly (full decimal
integers, rationals as p/q).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from divprod.catalog import ALL_CHECKS, CATALOG, FAIL, run_all, run_check
from divprod.divisors import (
    sigma_rm_table,
    sigma_table,
    square_indicator,
    triangular,
    triangular_indicator,
)
from divprod.products import (
    BUILTIN_SPEC_NAMES,
    coeffs_via_expansion,
    coeffs_via_recurrence,
    load_spec,
    resolve_name,
)
from divprod.report import first_mismatch
from divprod.sequences import (
    lambert_cubic_by_divisors,
    partition_counts,
    regular_partition_counts,
    rogers_ramanujan_sum_side,
    triangular_rep_counts,
)


class UsageError(ValueError):
    pass


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
    "s": _per_n(square_indicator),
    "t": _per_n(triangular_indicator),
    "T": _per_n(triangular),
    "a": _per_n(lambert_cubic_by_divisors),
    "partition": lambda order: list(enumerate(partition_counts(order).coeffs)),
    "q_regular(p)": lambda p, order: list(enumerate(regular_partition_counts(p, order).coeffs)),
    "rr1": lambda order: list(enumerate(rogers_ramanujan_sum_side(1, order).coeffs)),
    "rr2": lambda order: list(enumerate(rogers_ramanujan_sum_side(2, order).coeffs)),
    "delta(m)": lambda m, order: list(enumerate(triangular_rep_counts(m, order).coeffs)),
}

SEQUENCE_NAMES = tuple(_SEQUENCES)


def _sequence_rows(name: str, order: int) -> list[tuple[int, int]]:
    make = resolve_name(_SEQUENCES, name)
    if make is None:
        raise UsageError(
            f"unknown sequence {name!r}; available: {', '.join(SEQUENCE_NAMES)}"
        )
    return make(order)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _rows_as_csv(rows: list[tuple[int, object]]) -> str:
    lines = ["n,value"]
    lines.extend(f"{n},{v}" for n, v in rows)
    return "\n".join(lines) + "\n"


def _as_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _cmd_compute(args) -> int:
    if args.order < 0:
        raise UsageError("--order must be nonnegative")
    rows = _sequence_rows(args.name, args.order)
    if args.format == "csv":
        _emit(_rows_as_csv(rows), args.out)
    else:
        doc = {
            "name": args.name,
            "order": args.order,
            "rows": [[n, str(v)] for n, v in rows],
        }
        _emit(_as_json(doc), args.out)
    return 0


def _cmd_expand(args) -> int:
    if args.order < 0:
        raise UsageError("--order must be nonnegative")
    spec = load_spec(args.spec)
    # Built per call, so each route is the module's name as bound at call time.
    routes = {"recurrence": coeffs_via_recurrence, "expansion": coeffs_via_expansion}
    names = tuple(routes) if args.algo == "both" else (args.algo,)
    series = {name: routes[name](spec, args.order) for name in names}
    primary = next(iter(series.values()))
    disagreement = None
    if len(series) == 2:
        miss = first_mismatch(series["recurrence"].coeffs, series["expansion"].coeffs)
        if miss is not None:
            disagreement = {
                "n": miss.n,
                "recurrence": str(miss.lhs),
                "expansion": str(miss.rhs),
            }

    if args.format == "csv":
        _emit(_rows_as_csv(list(enumerate(primary.coeffs))), args.out)
        if disagreement is not None:
            print(
                f"error: algorithms disagree at n={disagreement['n']}: "
                f"recurrence={disagreement['recurrence']} "
                f"expansion={disagreement['expansion']}",
                file=sys.stderr,
            )
    else:
        doc = {
            "spec": str(args.spec),
            "order": args.order,
            "algorithm": args.algo,
            "coefficients": [str(c) for c in primary.coeffs],
        }
        if len(series) == 2:
            doc["agree"] = disagreement is None
            doc["first_disagreement"] = disagreement
        _emit(_as_json(doc), args.out)
    return 1 if disagreement is not None else 0


def _cmd_verify(args) -> int:
    if args.order < 1:
        raise UsageError("--order must be >= 1")
    ids = args.identities
    if "all" in ids:
        if len(ids) > 1:
            raise UsageError('"all" cannot be combined with explicit identity ids')
        reports = run_all(args.order)
    else:
        unknown = [i for i in ids if i not in ALL_CHECKS]
        if unknown:
            raise UsageError(
                f"unknown identities: {', '.join(unknown)}; "
                f"known: {', '.join(sorted(ALL_CHECKS))}"
            )
        reports = [run_check(i, args.order) for i in sorted(set(ids))]

    if args.format == "csv":
        lines = ["identity,N,passed,failure_n,lhs,rhs"]
        for r in reports:
            if r.first_failure is None:
                lines.append(f"{r.identity_id},{r.order_checked},true,,,")
            else:
                f = r.first_failure
                lines.append(
                    f"{r.identity_id},{r.order_checked},false,{f.n},{f.lhs},{f.rhs}"
                )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_as_json([r.to_dict() for r in reports]), args.out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_catalog(args) -> int:
    listed = sorted(CATALOG, key=lambda r: (r.expected == FAIL, r.id))
    identities = [{"id": r.id, "expected": r.expected} for r in listed]
    if args.format == "csv":
        lines = ["kind,name,expected"]
        lines.extend(f"identity,{e['id']},{e['expected']}" for e in identities)
        lines.extend(f"spec,{name}," for name in BUILTIN_SPEC_NAMES)
        lines.extend(f"sequence,{name}," for name in SEQUENCE_NAMES)
        _emit("\n".join(lines) + "\n", args.out)
    else:
        doc = {
            "identities": identities,
            "specs": list(BUILTIN_SPEC_NAMES),
            "sequences": list(SEQUENCE_NAMES),
        }
        _emit(_as_json(doc), args.out)
    return 0


@cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divprod",
        description="Exact product expansions, divisor-sum recurrences, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--order", type=int, default=100, metavar="N",
                       help="truncation order (default 100)")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format (default json)")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write output to PATH instead of stdout")

    p_compute = sub.add_parser("compute", help="emit n,value rows of a named sequence")
    p_compute.add_argument("name", help="sequence name, e.g. sigma, a, q_regular(3), delta(8)")
    add_common(p_compute)

    p_expand = sub.add_parser("expand", help="expand a product spec file to coefficients")
    p_expand.add_argument("--spec", required=True, metavar="PATH",
                          help="path to a product spec JSON file")
    p_expand.add_argument("--algo", choices=("recurrence", "expansion", "both"),
                          default="both", help="coefficient algorithm (default both)")
    add_common(p_expand)

    p_verify = sub.add_parser("verify", help="run identity checks and report results")
    p_verify.add_argument("identities", nargs="+", metavar="ID",
                          help='identity ids, or "all" for every expected-pass check')
    add_common(p_verify)

    p_catalog = sub.add_parser("catalog", help="list identities, built-in specs, sequences")
    add_common(p_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "compute": _cmd_compute,
        "expand": _cmd_expand,
        "verify": _cmd_verify,
        "catalog": _cmd_catalog,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:  # UsageError and SpecFormatError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
