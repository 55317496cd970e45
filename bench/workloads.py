"""The benchmark's workloads: the CLI operations each one runs, and how each
operation's output is checked against the frozen references in
``references.json``.

Inputs are fixed.  The seed only sets the Monte-Carlo stream and the order
in which a pass runs its operations.  Every exact operation resolves within
the default budgets at the commit that froze the references, so ``wall_s``
compares the same work on every commit.  README.md records why each
workload was chosen, which layers it stresses and bypasses, and which
frontier inputs are left out.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import random
from fractions import Fraction

TABLE_RANGE = "4:22:2"

# (n, resolving divisors d >= 2) for `divisor --q 1/3`; candidates per
# divisor are (n/d + 1)^(d - phi(d)) against the default budget of 10^7.
DIVISOR_CASES = (
    (30, (2, 3, 5, 6, 10, 15, 30)),
    (42, (2, 3, 6, 7, 14, 21)),
    (45, (3, 5, 9, 15, 45)),
    (60, (2, 3, 4, 5, 6, 10, 12, 15)),
)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "exact" or "mc"
    ops: tuple[tuple[str, ...], ...] = ()
    mc_n: int = 0
    mc_q: str = ""
    mc_samples: int = 0

    def operations(self, seed: int) -> list[tuple[str, ...]]:
        """The argv of every operation of one pass, in the seed's order."""
        if self.kind == "mc":
            return [self.mc_argv(seed, self.mc_samples)]
        ops = list(self.ops)
        random.Random(seed).shuffle(ops)
        return ops

    def mc_argv(self, seed: int, samples: int, shards: int = 1) -> tuple[str, ...]:
        argv = ("mc", "--n", str(self.mc_n), "--q", self.mc_q,
                "--samples", str(samples), "--seed", str(seed))
        return argv + (("--shards", str(shards)) if shards != 1 else ())


WORKLOADS = {w.name: w for w in (
    # Binary as CSV and signed as JSON, so that both serializers run.
    Workload("exact-union", "exact",
             ops=(("table", "--n-range", TABLE_RANGE, "--q", "1/2"),
                  ("table", "--n-range", TABLE_RANGE, "--q", "1/2", "--signed",
                   "--format", "json"))),
    Workload("exact-divisor", "exact",
             ops=tuple(("divisor", "--n", str(n), "--d", str(d), "--q", "1/3")
                       for n, ds in DIVISOR_CASES for d in ds)),
    Workload("mc-rich", "mc", mc_n=120, mc_q="1/2", mc_samples=1 << 19),
    Workload("mc-prime", "mc", mc_n=127, mc_q="1/50", mc_samples=1 << 21),
)}


def op_key(argv) -> str:
    return " ".join(argv)


def _fraction(obj) -> Fraction | None:
    return None if obj is None else Fraction(int(obj["num"]), int(obj["den"]))


def parse_exact(argv, text: str) -> list[dict]:
    """Exact results of one operation's stdout, as a list of records.

    A divisor operation gives one record ``{"d", "n", "value"}``; a table
    gives one ``{"n", "exact", "approx"}`` per row.  Values are Fractions.
    """
    if argv[0] == "divisor":
        data = json.loads(text)
        return [{"d": data["d"], "n": data["n"], "value": _fraction(data["value"])}]
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        return [{"n": row["n"], "exact": _fraction(row["exact"]),
                 "approx": row["approx"]} for row in json.loads(text)]
    reader = csv.DictReader(io.StringIO(text))
    return [{"n": int(row["n"]),
             "exact": (Fraction(int(row["exact_num"]), int(row["exact_den"]))
                       if row["exact_num"] else None),
             "approx": float(row["approx"])} for row in reader]


def records_to_json(records: list[dict]) -> list[dict]:
    return [{k: ([str(v.numerator), str(v.denominator)]
                 if isinstance(v, Fraction) else v)
             for k, v in rec.items()} for rec in records]


def records_from_json(items: list[dict]) -> list[dict]:
    return [{k: (Fraction(int(v[0]), int(v[1])) if isinstance(v, list) else v)
             for k, v in item.items()} for item in items]


def same_records(got: list[dict], want: list[dict]) -> bool:
    """Exact fields must match exactly; floats to 12 significant digits."""
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if g.keys() != w.keys():
            return False
        for key, wv in w.items():
            gv = g[key]
            if isinstance(wv, float):
                if not (isinstance(gv, float) and math.isclose(gv, wv, rel_tol=1e-12)):
                    return False
            elif gv != wv:
                return False
    return True
