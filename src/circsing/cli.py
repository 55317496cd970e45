"""Command-line interface.

Subcommands: exact, divisor, bounds, asym, table, mc, verify.  Machine
output goes to stdout (JSON, or CSV for tables); diagnostics go to stderr.
Exit codes: 0 success, 1 verify-suite failure, 2 usage error, 3 budget or
resource error.

Budgets can be overridden by flags or the environment variables
CIRCSING_ENUM_BUDGET, CIRCSING_BRUTE_BUDGET, and CIRCSING_SAMPLES_CAP.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import asym, mcsim, polycyc, singexact, verify
from .errors import BudgetExceededError

DEFAULT_SAMPLES_CAP = 100_000_000


def parse_q(text: str):
    """'a/b' parses as an exact rational; a decimal stays a float."""
    try:
        if "/" in text:
            q = Fraction(text)
        else:
            q = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse q={text!r}: {exc}") from None
    if not 0 < q < 1:
        raise ValueError(f"q={text} must lie strictly between 0 and 1")
    return q


def require_rational(q, command: str) -> Fraction:
    if not isinstance(q, Fraction):
        raise ValueError(
            f"the {command} command computes exact rationals; "
            f"pass q as a fraction like 1/2")
    return q


def parse_n_range(text: str) -> list[int]:
    """A:B[:step], inclusive of B when (B - A) is divisible by step."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"expected A:B[:step], got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise ValueError(f"expected integers in range {text!r}") from None
    if step < 1 or b < a:
        raise ValueError(f"range {text!r} must be increasing with positive step")
    return list(range(a, b + 1, step))


def _budgets_from(args) -> singexact.Budgets:
    env = os.environ
    enum_budget = (args.enum_budget
                   if getattr(args, "enum_budget", None) is not None
                   else int(env.get("CIRCSING_ENUM_BUDGET",
                                    singexact.ENUMERATION_BUDGET)))
    brute_budget = (args.brute_budget
                    if getattr(args, "brute_budget", None) is not None
                    else int(env.get("CIRCSING_BRUTE_BUDGET",
                                     singexact.BRUTEFORCE_BUDGET)))
    return singexact.Budgets(enumeration=enum_budget, bruteforce=brute_budget)


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _cmd_exact(args) -> int:
    q = require_rational(parse_q(args.q), "exact")
    model = "signed" if args.signed else "binary"
    rep = singexact.report(args.n, q, model, _budgets_from(args))
    _emit(json.dumps(singexact.report_json(rep), indent=2), args.output)
    return 0


def _cmd_divisor(args) -> int:
    q = require_rational(parse_q(args.q), "divisor")
    model = "signed" if args.signed else "binary"
    dp = singexact.divisor_probability(args.d, args.n, q, model, _budgets_from(args))
    _emit(json.dumps(singexact.divisor_probability_json(dp), indent=2), args.output)
    return 0


def _cmd_bounds(args) -> int:
    q = require_rational(parse_q(args.q), "bounds")
    ds = [args.d] if args.d is not None else [
        d for d in polycyc.divisors(args.n) if d >= 2]
    rows = []
    for d in ds:
        lower, upper = singexact.prob_bounds(d, args.n, q)
        rows.append({"d": d,
                     "lower": None if lower is None else singexact.rational_json(lower),
                     "upper": singexact.rational_json(upper)})
    payload = {"n": args.n, "q": singexact.rational_json(q), "bounds": rows}
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


def _cmd_asym(args) -> int:
    q = parse_q(args.q)
    if args.signed:
        value = asym.approx_signed(args.n, q)
    elif args.formula == "closed":
        value = asym.approx_closed(args.n, q)
    else:
        value = asym.approx_main(args.n, q)
    payload = {"n": value.n, "q": value.q, "model": value.model,
               "value": value.value, "formula": value.formula}
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


TABLE_COLUMNS = ("n", "exact_num", "exact_den", "exact_decimal",
                 "approx", "ratio", "formula")


def table_to_csv(rows: list[asym.ConvergenceRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TABLE_COLUMNS)
    for row in rows:
        writer.writerow([
            row.n,
            "" if row.exact is None else singexact.int_str(row.exact.numerator),
            "" if row.exact is None else singexact.int_str(row.exact.denominator),
            "" if row.exact is None else f"{float(row.exact):.15g}",
            repr(row.approx),
            "" if row.ratio is None else repr(row.ratio),
            row.formula,
        ])
    return buf.getvalue()


def table_to_json(rows: list[asym.ConvergenceRow]) -> str:
    return json.dumps([
        {"n": row.n,
         "exact": None if row.exact is None else singexact.rational_json(row.exact),
         "approx": row.approx,
         "ratio": row.ratio,
         "formula": row.formula}
        for row in rows], indent=2)


def _cmd_table(args) -> int:
    q = require_rational(parse_q(args.q), "table")
    model = "signed" if args.signed else "binary"
    rows = asym.convergence_table(q, parse_n_range(args.n_range), model,
                                  _budgets_from(args))
    text = table_to_json(rows) if args.format == "json" else table_to_csv(rows)
    _emit(text, args.output)
    return 0


def _cmd_mc(args) -> int:
    q = parse_q(args.q)
    cap = int(os.environ.get("CIRCSING_SAMPLES_CAP", DEFAULT_SAMPLES_CAP))
    if args.samples > cap:
        raise BudgetExceededError(
            f"{args.samples} samples exceed the cap {cap}",
            required=args.samples, budget=cap)
    model = "signed" if args.signed else "binary"
    est = mcsim.sample_singularity(
        args.n, q, args.samples, args.seed, model, args.shards,
        q_source=args.q if isinstance(q, Fraction) else None)
    _emit(json.dumps(est.to_json_dict(), indent=2), args.output)
    return 0


def _cmd_verify(args) -> int:
    checks = [check() for check in verify.SUITES[args.suite]]
    failures = [(name, detail) for name, ok, detail in checks if not ok]
    for name, detail in failures:
        print(f"{args.suite}: FAIL {name}" + (f" ({detail})" if detail else ""),
              file=sys.stderr)
    status = "FAIL" if failures else "PASS"
    print(f"{args.suite}: {status} ({len(checks) - len(failures)}/{len(checks)} checks)")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circsing",
        description="Singularity probabilities of random circulant Bernoulli matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, exact_budgets=False):
        p.add_argument("--output", default=None,
                       help="write machine output to this path (default stdout)")
        if exact_budgets:
            p.add_argument("--enum-budget", type=int, default=None,
                           help="max lattice-box candidates per divisor")
            p.add_argument("--brute-budget", type=int, default=None,
                           help="max rows for exhaustive union enumeration")

    p = sub.add_parser("exact", help="exact probability report for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", required=True, help="rational like 1/2")
    p.add_argument("--signed", action="store_true")
    add_common(p, exact_budgets=True)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("divisor", help="one per-divisor probability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", required=True, help="rational like 1/2")
    p.add_argument("--signed", action="store_true")
    add_common(p, exact_budgets=True)
    p.set_defaults(func=_cmd_divisor)

    p = sub.add_parser("bounds", help="per-divisor probability bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None,
                   help="single divisor (default: all divisors of n)")
    p.add_argument("--q", required=True, help="rational like 1/2")
    add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("asym", help="large-n approximation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", required=True, help="rational or decimal")
    p.add_argument("--signed", action="store_true")
    p.add_argument("--formula", choices=("main", "closed"), default="main")
    add_common(p)
    p.set_defaults(func=_cmd_asym)

    p = sub.add_parser("table", help="exact-vs-approximation convergence table")
    p.add_argument("--n-range", required=True, help="A:B[:step], ends inclusive")
    p.add_argument("--q", required=True, help="rational like 1/2")
    p.add_argument("--signed", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p, exact_budgets=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("mc", help="Monte-Carlo estimate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", required=True, help="rational or decimal")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--signed", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("--suite", choices=sorted(verify.SUITES), required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
