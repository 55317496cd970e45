#!/usr/bin/env python3
"""Freeze the benchmark's reference outputs into references.json.

Run once, from the repository root, at the commit whose outputs become the
references (this needs the repository's tests/ directory for the oracle
tables):

    python3 bench/freeze.py

Every exact operation of every workload runs once through the CLI.  Before
anything is written, each frozen value is cross-checked by a second route
wherever one exists, and the script exits nonzero on any mismatch:

- table rows against the Bareiss-determinant oracle tables in
  tests/oracles.py, and against prob_union_bruteforce wherever the union
  also has a closed form (n = p^2 or p*r);
- prime and prime-power divisors against lattice-box enumeration;
- squarefree two-prime divisors d = p*r against the de Bruijn
  factorization sum_c (sum_e prod_j mass(e + c_j))^p over the lattice
  {s_ij = e_i + c_j} of the CRT grid Z/p x Z/r;
- two-prime d = n (0/1 rows) against de Bruijn's theorem: a 0/1 vanishing
  sum of d-th roots of unity is a disjoint union of cosets of the
  subgroups of prime order;
- any other d against a meet-in-the-middle count: the folded row's
  two halves are mapped to Z[x]/(Phi_d), with Phi_d checked numerically,
  and paired by opposite images;
- every divisor value against the bounds max-mass^d <= P <= max-mass^phi(d)
  (the lower one for prime d only).

The Monte-Carlo references are the seed-0 counts and, for prime n, the
closed-form union q^n + (1-q)^n.
"""
from __future__ import annotations

import cmath
import itertools
import json
import math
import sys
from fractions import Fraction

from run import HERE, ROOT, Runner, load_library, pin_environment
from workloads import WORKLOADS, op_key, parse_exact, records_to_json

DEFAULT_SEED = 0


def structured_two_prime(d: int, n: int, q: Fraction, polycyc) -> Fraction:
    """P(Phi_d | f) for squarefree d = p*r from the CRT coset structure."""
    r, p = sorted(polycyc.factorize(d))
    w = n // d
    mass = [math.comb(w, k) * q**k * (1 - q) ** (w - k) for k in range(w + 1)]

    def m(k):
        return mass[k] if 0 <= k <= w else 0

    total = Fraction(0)
    for tail in itertools.product(range(-w, w + 1), repeat=r - 1):
        c = (0,) + tail
        total += sum(math.prod(m(e + cj) for cj in c) for e in range(w + 1)) ** p
    return total


def disjoint_cosets(d: int, q: Fraction, polycyc) -> Fraction:
    """P(Phi_d | f) for a 0/1 row of length d = p^a r^b (de Bruijn 1953)."""
    cosets = [sum(1 << ((k + j * (d // p)) % d) for j in range(p))
              for p in polycyc.factorize(d) for k in range(d // p)]
    found = {0}
    for mask in cosets:
        found |= {s | mask for s in found if not s & mask}
    weights = [bin(s).count("1") for s in found]
    return sum((q**k * (1 - q) ** (d - k) for k in weights), start=Fraction(0))


def meet_in_the_middle(d: int, n: int, q: Fraction, polycyc) -> Fraction:
    """P(Phi_d | f) by pairing the images of the fold's two halves mod Phi_d."""
    phi = polycyc.cyclotomic(d).coeffs
    zeta = cmath.exp(2j * cmath.pi / d)
    deg = len(phi) - 1
    if (deg != sum(math.gcd(k, d) == 1 for k in range(1, d + 1))
            or abs(sum(c * zeta**i for i, c in enumerate(phi))) > 1e-9):
        raise AssertionError(f"cyclotomic({d}) fails the numeric check")
    residues, cur = [], [1] + [0] * (deg - 1)  # x^k mod Phi_d, k = 0 .. d-1
    for _ in range(d):
        residues.append(cur)
        top = cur[-1]
        cur = [c - top * phi[i] for i, c in enumerate([0] + cur[:-1])]
    w = n // d
    a, b = q.numerator, q.denominator
    num = [math.comb(w, k) * a**k * (b - a) ** (w - k) for k in range(w + 1)]

    def half(coords):
        acc: dict = {}
        for s in itertools.product(range(w + 1), repeat=len(coords)):
            img = tuple(sum(v * residues[k][i] for v, k in zip(s, coords))
                        for i in range(deg))
            acc[img] = acc.get(img, 0) + math.prod(num[v] for v in s)
        return acc

    left, right = half(range(d // 2)), half(range(d // 2, d))
    total = sum(v * right.get(tuple(-x for x in img), 0) for img, v in left.items())
    return Fraction(total, b ** (w * d))


def cross_check_table(argv, records, lib, oracles, problems) -> None:
    singexact = lib["singexact"]
    signed = "--signed" in argv
    q = Fraction(argv[argv.index("--q") + 1])
    table = oracles.UNION_SIGNED_HALF if signed else oracles.UNION_BINARY_HALF
    for rec in records:
        n, exact = rec["n"], rec["exact"]
        if exact is None:
            problems.append(f"{op_key(argv)}: n={n} has no exact value")
            continue
        if q == Fraction(1, 2) and n in table and table[n] != exact:
            problems.append(f"{op_key(argv)}: n={n} differs from the oracle table")
        if not signed and singexact.prob_union_closed_form(n, q) is not None:
            brute = singexact.prob_union_bruteforce(n, q, "binary", 1 << 26)
            if brute != exact:
                problems.append(f"{op_key(argv)}: n={n} closed form != brute force")


def cross_check_divisor(argv, records, lib, problems) -> str:
    singexact, polycyc = lib["singexact"], lib["polycyc"]
    (rec,) = records
    d, n, value = rec["d"], rec["n"], rec["value"]
    q = Fraction(argv[argv.index("--q") + 1])
    fac = polycyc.factorize(d)
    lower, upper = singexact.prob_bounds(d, n, q)
    if not ((lower is None or lower <= value) and value <= upper):
        problems.append(f"{op_key(argv)}: outside the max-mass bounds")
    if len(fac) == 1:
        route = "box enumeration"
        second = singexact.prob_divisor_general(d, n, q)
    elif len(fac) == 2 and all(e == 1 for e in fac.values()):
        route = "two-prime coset structure"
        second = structured_two_prime(d, n, q, polycyc)
    elif len(fac) == 2 and d == n:
        route = "disjoint cosets"
        second = disjoint_cosets(d, q, polycyc)
    else:
        route = "meet in the middle"
        second = meet_in_the_middle(d, n, q, polycyc)
    if second != value:
        problems.append(f"{op_key(argv)}: differs from {route}")
    return route


def main() -> int:
    pin_environment()
    lib = load_library()
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    problems: list[str] = []
    refs = {"exact": {}, "mc": {}}
    for workload in WORKLOADS.values():
        runner = Runner(lib, workload, refs)
        if workload.kind == "mc":
            argv = workload.mc_argv(DEFAULT_SEED, workload.mc_samples)
            code, _, out = runner.call(argv)
            est = runner.check_mc(argv, code, out, workload.mc_samples)
            if est is None:
                problems.append(f"{op_key(argv)}: malformed output")
                continue
            ref = {"seed": DEFAULT_SEED, "samples": workload.mc_samples,
                   "singular_count": est["singular_count"],
                   "p_hat": est["p_hat"], "stderr": est["stderr"]}
            n, q = workload.mc_n, Fraction(workload.mc_q)
            if lib["polycyc"].is_prime(n):
                exact = lib["singexact"].prob_union_closed_form(n, q)
                if exact != q**n + (1 - q) ** n:
                    problems.append(f"{workload.name}: closed-form union is wrong")
                ref["exact_union"] = [str(exact.numerator), str(exact.denominator)]
                z = abs(est["p_hat"] - float(exact)) / est["stderr"]
                print(f"{workload.name}: seed-0 estimate {z:.2f} stderr from exact")
            refs["mc"][workload.name] = ref
            continue
        for argv in workload.ops:
            code, seconds, out = runner.call(argv)
            if code != 0:
                problems.append(f"{op_key(argv)}: exit code {code}")
                continue
            records = parse_exact(argv, out)
            if argv[0] == "table":
                cross_check_table(argv, records, lib, oracles, problems)
                route = "oracle tables, closed forms vs brute force"
            else:
                route = cross_check_divisor(argv, records, lib, problems)
            print(f"{op_key(argv)}: {seconds:.3f} s, checked by {route}")
            refs["exact"][op_key(argv)] = records_to_json(records)
    for problem in problems:
        print(f"freeze: MISMATCH {problem}", file=sys.stderr)
    if problems:
        return 1
    path = HERE / "references.json"
    path.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
