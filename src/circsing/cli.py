"""Command-line interface.

Subcommands: exact, divisor, bounds, asym, table, mc, verify.  Machine
output goes to stdout (JSON, or CSV for tables); diagnostics go to stderr.
Exit codes: 0 success, 1 verify-suite failure, 2 usage error, 3 budget or
resource error (out of memory, or a failed write).

Each exact budget is an option only on the commands that spend it:
--enum-budget (candidates the CRT convolution visits per divisor) on exact
and divisor, --brute-budget (half-row scans of the exhaustive union's join,
2^tau(n) * 2^ceil(n/2)) on exact and table.  The Monte-Carlo sample cap is
the environment variable CIRCSING_SAMPLES_CAP.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import decimal
import io
import json
import os
import sys
from fractions import Fraction

from . import asym, mcsim, singexact, verify
from .errors import BudgetExceededError

DEFAULT_SAMPLES_CAP = 100_000_000

#: Rows one table may list; checked from the range's length before listing.
TABLE_ROWS_CAP = 100_000


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
    """A:B[:step], inclusive of B when (B - A) is divisible by step; more
    than TABLE_ROWS_CAP rows are refused before any is listed."""
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
    rows = (b - a) // step + 1  # len(range(...)) overflows past 2^63
    if rows > TABLE_ROWS_CAP:
        raise BudgetExceededError(
            f"range {text!r} has {rows} rows, past the cap {TABLE_ROWS_CAP}",
            required=rows, budget=TABLE_ROWS_CAP)
    return list(range(a, b + 1, step))


def digits(x: int) -> str:
    """Decimal digits of x past the interpreter's int-to-str digit limit;
    Decimal ignores that limit, so the process-wide setting stays as it is."""
    return str(decimal.Decimal(x))


def decimal_view(x: Fraction) -> str:
    """x rounded to 15 significant digits.  Below the smallest normal float
    the float has lost digits, so there decimal rounds x itself."""
    if x == 0 or abs(float(x)) >= sys.float_info.min:
        return f"{float(x):.15g}"
    with decimal.localcontext() as ctx:
        ctx.prec = 15
        value = decimal.Decimal(x.numerator) / x.denominator
    return f"{value.normalize():.15g}"


def to_json(x):
    """JSON form of a result: a Fraction as num/den digit strings plus its
    decimal view, a dataclass as its fields in declaration order, a list or
    tuple as a list, anything else as it is."""
    if isinstance(x, Fraction):
        return {"num": digits(x.numerator), "den": digits(x.denominator),
                "decimal": decimal_view(x)}
    if dataclasses.is_dataclass(x):
        return {f.name: to_json(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (list, tuple)):
        return [to_json(v) for v in x]
    return x


def bounds_json(bounds: dict[int, tuple[Fraction | None, Fraction]]) -> list[dict]:
    return [{"d": d, "lower": to_json(lower), "upper": to_json(upper)}
            for d, (lower, upper) in sorted(bounds.items())]


def _cmd_exact(args, q):
    rep = singexact.report(args.n, q, args.model, enum_budget=args.enum_budget,
                           brute_budget=args.brute_budget)
    return {**to_json(rep), "bounds": bounds_json(rep.bounds),
            "omitted": [{"d": d, "reason": why} for d, why in rep.omitted]}


def _cmd_divisor(args, q):
    return to_json(singexact.divisor_probability(args.d, args.n, q, args.model,
                                                 args.enum_budget))


def _cmd_bounds(args, q):
    bounds = (singexact.divisor_bounds(args.n, q) if args.d is None
              else {args.d: singexact.prob_bounds(args.d, args.n, q)})
    return {"n": args.n, "q": to_json(q), "bounds": bounds_json(bounds)}


def _cmd_asym(args, q):
    if args.model == "signed" and args.formula == "closed":
        raise ValueError("--formula closed has no signed form; drop --signed")
    if args.model == "signed":
        return to_json(asym.approx_signed(args.n, q))
    if args.formula == "closed":
        return to_json(asym.approx_closed(args.n, q))
    return to_json(asym.approx_main(args.n, q))


TABLE_COLUMNS = ("n", "exact_num", "exact_den", "exact_decimal",
                 "approx", "ratio", "formula")


def table_to_csv(rows: list[asym.ConvergenceRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TABLE_COLUMNS)
    for row in rows:
        exact = ("", "", "") if row.exact is None else to_json(row.exact).values()
        writer.writerow([
            row.n,
            *exact,
            repr(row.approx),
            "" if row.ratio is None else repr(row.ratio),
            row.formula,
        ])
    return buf.getvalue()


def _cmd_table(args, q):
    rows = asym.convergence_table(q, parse_n_range(args.n_range), args.model,
                                  args.brute_budget)
    return to_json(rows) if args.format == "json" else table_to_csv(rows)


def _cmd_mc(args, q):
    try:
        cap = int(os.environ.get("CIRCSING_SAMPLES_CAP", DEFAULT_SAMPLES_CAP))
    except ValueError:
        raise ValueError("CIRCSING_SAMPLES_CAP must be an integer") from None
    if args.samples > cap:
        raise BudgetExceededError(
            f"{args.samples} samples exceed the cap {cap}",
            required=args.samples, budget=cap)
    est = mcsim.sample_singularity(args.n, q, args.samples, args.seed,
                                   args.model, args.shards)
    payload = to_json(est)
    if isinstance(q, Fraction):
        payload["q_source"] = args.q
    return payload


def _cmd_verify(args) -> tuple[str, int]:
    checks = [check() for check in verify.SUITES[args.suite]]
    failures = [(name, detail) for name, ok, detail in checks if not ok]
    for name, detail in failures:
        print(f"{args.suite}: FAIL {name}" + (f" ({detail})" if detail else ""),
              file=sys.stderr)
    status = "FAIL" if failures else "PASS"
    return (f"{args.suite}: {status} ({len(checks) - len(failures)}/{len(checks)} "
            "checks)\n", 1 if failures else 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circsing",
        description="Singularity probabilities of random circulant Bernoulli matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    signed = dict(dest="model", action="store_const", const="signed", default="binary")

    def add_common(p, enum_budget=False, brute_budget=False):
        p.add_argument("--output", default=None,
                       help="write machine output to this path (default stdout)")
        if enum_budget:
            p.add_argument("--enum-budget", type=int,
                           default=singexact.ENUMERATION_BUDGET,
                           help="max candidates the CRT convolution visits "
                                "per divisor")
        if brute_budget:
            p.add_argument("--brute-budget", type=int,
                           default=singexact.BRUTEFORCE_BUDGET,
                           help="max half-row scans of the exhaustive union "
                                "(2^tau(n) * 2^ceil(n/2) at dimension n)")

    p = sub.add_parser("exact", help="exact probability report for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", required=True, help="rational like 1/2")
    p.add_argument("--signed", **signed)
    add_common(p, enum_budget=True, brute_budget=True)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("divisor", help="one per-divisor probability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", required=True, help="rational like 1/2")
    p.add_argument("--signed", **signed)
    add_common(p, enum_budget=True)
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
    p.add_argument("--signed", **signed)
    p.add_argument("--formula", choices=("main", "closed"), default="main")
    add_common(p)
    p.set_defaults(func=_cmd_asym)

    p = sub.add_parser("table", help="exact-vs-approximation convergence table")
    p.add_argument("--n-range", required=True, help="A:B[:step], ends inclusive")
    p.add_argument("--q", required=True, help="rational like 1/2")
    p.add_argument("--signed", **signed)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p, brute_budget=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("mc", help="Monte-Carlo estimate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", required=True, help="rational or decimal")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--signed", **signed)
    add_common(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("--suite", choices=sorted(verify.SUITES), required=True)
    p.set_defaults(output=None)  # it writes to stdout

    return parser


def run(argv: list[str]) -> int:
    """Parse argv, run one command and write what it returns (JSON indented,
    CSV as it is); each failure is one ``error:`` line and its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    out, code = sys.stdout, 0  # stdout looked up at call time
    try:
        if args.command == "verify":  # no q, no --output; a failed check exits 1
            result, code = _cmd_verify(args)
        else:
            q = parse_q(args.q)
            if args.command in ("exact", "divisor", "bounds", "table"):
                q = require_rational(q, args.command)
            if args.output not in (None, "-"):  # opened, so emptied, before the work
                try:
                    out = open(args.output, "w", encoding="utf-8", newline="")
                except OSError as exc:  # say, a missing directory: a usage error
                    raise ValueError(
                        f"cannot write {args.output}: {exc.strerror or exc}") from None
            result = args.func(args, q)
        try:  # the flush reports a full disk or a closed pipe: a resource error
            out.write(result if isinstance(result, str)
                      else json.dumps(result, indent=2) + "\n")
            out.flush()
        except OSError as exc:
            print(f"error: cannot write {args.output or 'stdout'}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 3
    except (BudgetExceededError, MemoryError) as exc:  # a resource error
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if out is not sys.stdout:  # flushed or failed: a close error adds nothing
            with contextlib.suppress(OSError):
                out.close()
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
