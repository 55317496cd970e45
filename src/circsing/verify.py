"""Self-check registry behind the ``verify`` CLI command and the acceptance
suite.

Each check is a deterministic function returning a (check name, ok,
detail) triple, and each lives here once: ``verify --suite NAME`` runs the
checks registered under NAME and prints one summary line, and
``tests/test_acceptance.py`` builds its criteria from the same functions.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from fractions import Fraction

from . import asym, binomstats, mcsim, polycyc, singexact

Check = tuple[str, bool, str]

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def check_cyclotomic_identities() -> Check:
    ok = True
    for n in range(1, 129):
        prod = polycyc.IntPolynomial((1,))
        for d in polycyc.divisors(n):
            prod = prod * polycyc.cyclotomic(d)
        if prod != polycyc.IntPolynomial([-1] + [0] * (n - 1) + [1]):
            ok = False
    for d in range(2, 129):
        phi = polycyc.cyclotomic(d)
        if not (phi.is_monic() and phi.degree == polycyc.totient(d)
                and phi.coeffs[0] == 1):
            ok = False
    return ("cyclotomic product equals x^n - 1 for n <= 128; cyclotomic "
            "monic, degree phi(d), constant 1 for d <= 128", ok, "")


def check_prime_shift_congruence() -> Check:
    ok = True
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, 51):
            rem = polycyc.reduce_mod_cyclotomic(polycyc.cyclotomic(n * p), n)
            if any(c % p for c in rem.coeffs):
                ok = False
    return ("cyclotomic(n*p) mod cyclotomic(n) has coefficients "
            "divisible by p (p <= 13, n <= 50)", ok, "")


def check_fold_commutes() -> Check:
    ok = True
    for n in (6, 8, 9, 10, 12):
        for bits in itertools.product((0, 1), repeat=n):
            f = polycyc.FirstRow(n, bits).polynomial()
            for d in polycyc.divisors(n):
                in_rn = polycyc.reduce_mod_cyclotomic(f, d).is_zero()
                in_rd = polycyc.reduce_mod_cyclotomic(
                    polycyc.fold(f, n, d), d).is_zero()
                if in_rn != in_rd:
                    ok = False
    return "divisibility commutes with folding (exhaustive small n)", ok, ""


def check_divisor_bounds() -> Check:
    ok = True
    detail = ""
    for q in (HALF, THIRD):
        for n in range(2, 31):
            for d, (lower, upper) in singexact.divisor_bounds(n, q).items():
                value = singexact.prob_divisor_general(d, n, q)
                if value > upper or (lower is not None and value < lower):
                    ok = False
                    detail = f"violation at n={n}, d={d}, q={q}"
    return ("divisor probability bounds hold for n <= 30, q in {1/2, 1/3}",
            ok, detail)


def check_union_closed_forms() -> Check:
    ok = True
    detail = ""
    for q in (HALF, THIRD):
        for n in (2, 3, 4, 5, 6, 7, 9, 10, 14, 15, 21, 22, 25):
            cf = singexact.prob_union_closed_form(n, q)
            bf = singexact.prob_union_bruteforce(n, q)
            if cf != bf:
                ok = False
                detail = f"first mismatch at n={n}, q={q}"
                break
    spot = (singexact.prob_union_closed_form(4, HALF) == HALF
            and singexact.prob_union_closed_form(6, HALF) == Fraction(7, 16))
    return ("closed-form unions equal exhaustive enumeration for "
            "q in {1/2, 1/3}; P(4)=1/2, P(6)=7/16", ok and spot, detail)


def check_divisor_engine() -> Check:
    ok = True
    # every d >= 2 against the event weight counted row by row
    for n in range(2, 11):
        hits = {d: [0] * (n + 1) for d in polycyc.divisors(n)[1:]}
        for bits in itertools.product((0, 1), repeat=n):
            for d in polycyc.singular_divisors(polycyc.FirstRow(n, bits)) - {1}:
                hits[d][sum(bits)] += 1
        for q in (HALF, THIRD):
            for d, counts in hits.items():
                want = sum(c * q**w * (1 - q) ** (n - w)
                           for w, c in enumerate(counts))
                if singexact.prob_divisor_general(d, n, q) != want:
                    ok = False
    hits = sum(6 in polycyc.singular_divisors(polycyc.FirstRow(6, bits))
               for bits in itertools.product((0, 1), repeat=6))
    event_ok = (hits == 10
                and singexact.prob_divisor_general(6, 6, HALF) == Fraction(10, 64))
    return ("divisor engine matches row-by-row event weights (n <= 10, "
            "q in {1/2, 1/3}); divisor-6 event count is 10/64",
            ok and event_ok, "")


def check_primes_exact() -> Check:
    ok = True
    for n in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        # prime n: the union is the event Phi_n | f, which holds the zero row
        if (singexact.prob_union_bruteforce(n, HALF)
                != singexact.prob_divisor_general(n, n, HALF)):
            ok = False
    return "dominant-divisor sum is exact at primes n <= 23", ok, ""


def check_rate_agreement() -> Check:
    ok = True
    prev = None
    for n in (2 ** 6, 2 ** 8, 2 ** 10):
        rel = abs(asym.approx_main(n, HALF).value
                  / asym.approx_closed(n, 0.5).value - 1)
        if rel > 0.05 or (prev is not None and rel >= prev):
            ok = False
        prev = rel
    return "sum and closed-form rate agree within 5%, tightening", ok, ""


def check_power_sum_asymptotics() -> Check:
    exact = binomstats.power_sum_exact(1000, 2, HALF)
    vandermonde = exact == Fraction(math.comb(2000, 1000), 4 ** 1000)
    center = abs(float(exact) * math.sqrt(math.pi * 1000) - 1) <= 2e-3
    trend_ok = True
    for m in (2, 3, 5):
        prev = None
        for n in (100, 400, 1600):
            ratio = (float(binomstats.power_sum_exact(n, m, HALF))
                     / binomstats.power_sum_asymptotic(n, m, 0.5))
            if not 0.8 <= ratio <= 1.2:
                trend_ok = False
            dev = abs(ratio - 1)
            if prev is not None and dev >= prev:
                trend_ok = False
            prev = dev
    return ("power-sum approximation: 0.2% at n=1000, m=2; "
            "within 20% and tightening for m in {2,3,5}",
            vandermonde and center and trend_ok, "")


def check_monte_carlo() -> Check:
    close_ok = True
    for n, exact in ((4, 0.5), (6, 7 / 16)):
        est = mcsim.sample_singularity(n, 0.5, 10 ** 6, seed=2024)
        if abs(est.p_hat - exact) > 4 * est.stderr:
            close_ok = False
    rerun = (mcsim.sample_singularity(4, 0.5, 10 ** 6, seed=2024)
             == mcsim.sample_singularity(4, 0.5, 10 ** 6, seed=2024))
    counts = {s: mcsim.sample_singularity(6, 0.5, 10 ** 6, seed=7,
                                          shards=s).singular_count
              for s in (1, 4, 16)}
    shard_ok = len(set(counts.values())) == 1
    return ("estimates within 4 standard errors at n=4 and n=6; "
            "bit-identical rerun; shard-count invariance",
            close_ok and rerun and shard_ok, "")


SUITES: dict[str, tuple[Callable[[], Check], ...]] = {
    "algebra": (check_cyclotomic_identities, check_prime_shift_congruence,
                check_fold_commutes),
    "bounds": (check_divisor_bounds,),
    "closed-forms": (check_union_closed_forms, check_divisor_engine),
    "asymptotics": (check_primes_exact, check_rate_agreement,
                    check_power_sum_asymptotics),
    "mc": (check_monte_carlo,),
}
