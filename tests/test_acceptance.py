"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.  Every check body lives once in ``circsing.verify``, the registry
behind ``circsing verify``; each criterion here runs its check from there,
except the two closed forms the library does not need, the signed d = 1
and d = 2 intersection (criterion 8) and the de Moivre-Laplace
approximation (criterion 10), which are asserted here on the helpers in
``tests/oracles.py``.
Criteria 7 and 8 add the finite-n forms of the paper's limit statements,
asserted on exact fractions: the dominant-divisor sandwich and the
vanishing n = 2p excess (criterion 7), and the signed n = 2p identity
whose ratio to the corollary rises toward 1 from below (criterion 8).
They also print the desk-scale ratio sequences, which are not monotone;
see the repository notes for why.
"""
import math
from fractions import Fraction

from circsing import asym, binomstats, polycyc, singexact, verify

import oracles

HALF = Fraction(1, 2)


def criterion(num, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_criterion_1_algebraic_identities():
    _, ok, _ = verify.check_cyclotomic_identities()
    criterion(1, "cyclotomic product and shape identities up to n=128", ok)


def test_criterion_2_prime_shift_congruence():
    _, ok, _ = verify.check_prime_shift_congruence()
    criterion(2, "cyclotomic(n*p) vanishes mod (p, cyclotomic(n)) "
                 "for p <= 13, n <= 50", ok)


def test_criterion_3_closed_forms_vs_bruteforce():
    _, ok, detail = verify.check_union_closed_forms()
    criterion(3, "union closed forms equal exhaustive enumeration "
                 "(n up to 25, q in {1/2, 1/3}); P(4)=1/2, P(6)=7/16",
              ok, detail)


def test_criterion_4_divisor_formula_cross_agreement():
    _, ok, _ = verify.check_divisor_engine()
    box_ok = True
    for n in range(2, 33):
        for d in polycyc.divisors(n):
            fac = polycyc.factorize(d)
            if d < 2 or d > 16 or len(fac) != 1:
                continue
            (p,) = fac
            if (oracles.box_probability(d, n, HALF)
                    != singexact.prob_divisor_general(d, n, HALF)):
                box_ok = False
    criterion(4, "divisor engine equals box enumeration at prime powers "
                 "(d <= 16, n <= 32) and row-by-row event weights (n <= 10); "
                 "divisor-6 event count is 10/64",
              ok and box_ok)


def test_criterion_5_divisor_probability_bounds():
    _, ok, detail = verify.check_divisor_bounds()
    criterion(5, "max-mass bounds sandwich every divisor probability "
                 "(n <= 30, q in {1/2, 1/3})", ok, detail)


def test_criterion_6_power_sum_asymptotics():
    _, ok, _ = verify.check_power_sum_asymptotics()
    criterion(6, "power-sum approximation: 0.2% at n=1000, m=2; "
                 "within 20% and tightening for m in {2,3,5}", ok)


def test_criterion_7_main_theorem_trend():
    _, primes_ok, _ = verify.check_primes_exact()
    # Composite n: main = P(Phi_p | f) for p the smallest prime factor, and
    # P(Phi_p | f) <= union <= sum over d >= 2 of P(Phi_d | f).
    sandwich_ok = True
    ratios = []
    for n in (4, 6, 8, 10, 12, 14, 16, 20, 22):
        p = polycyc.smallest_prime(n)
        main = oracles.power_sum_naive(n // p, p, HALF)
        union = singexact.prob_union_bruteforce(n, HALF)
        divisor_sum = sum(singexact.divisor_probability(d, n, HALF).value
                          for d in polycyc.divisors(n) if d >= 2)
        if not (main == singexact.divisor_probability(p, n, HALF).value
                and main <= union <= divisor_sum):
            sandwich_ok = False
        ratios.append(float(union) / asym.approx_main(n, HALF).value)
    # n = 2p: the excess union/main - 1 is 2^(-p) / P(Phi_2 | f) at q = 1/2.
    excesses = []
    for p in (p for p in range(3, 48) if polycyc.is_prime(p)):
        main = oracles.power_sum_naive(p, 2, HALF)
        if main != singexact.divisor_probability(2, 2 * p, HALF).value:
            sandwich_ok = False
        excesses.append(singexact.prob_union_closed_form(2 * p, HALF) / main - 1)
    excess_ok = (all(a > b for a, b in zip(excesses, excesses[1:]))
                 and excesses[-1] < Fraction(1, 10 ** 12))
    detail = ("composite ratios " + ", ".join(f"{r:.4f}" for r in ratios)
              + f"; n=2p excess {float(excesses[0]):.2g} at n=6 "
              f"to {float(excesses[-1]):.2g} at n=94")
    criterion(7, "union equals the dominant-divisor sum at primes <= 23; "
                 "main <= union <= divisor sum for composite n <= 22; "
                 "n=2p excess strictly decreasing to below 1e-12 at n=94",
              primes_ok and sandwich_ok and excess_ok, detail)


def test_criterion_8_signed_asymptotics():
    intersection_ok = oracles.signed_intersection_1_2(4, HALF) == Fraction(1, 4)
    ratios = []
    for n in (8, 12, 16, 20):
        exact = singexact.prob_union_bruteforce(n, HALF, "signed")
        ratios.append(float(exact) / asym.approx_signed(n, HALF).value)
    # n = 2p: the union is 2 C(n, n/2) / 2^n, and its ratio to
    # 2 sqrt(2) / sqrt(pi n) is sqrt(pi n / 8) * union.  The exact scaled
    # value union^2 * n = 8 ratio^2 / pi orders the ratios, and pi < 355/113
    # makes union^2 * n < 8 * 113/355 a sufficient test for ratio < 1.
    identity_ok = True
    scaled = []
    two_p_ratios = []
    for n in (6, 10, 14, 22):
        union = singexact.prob_union_bruteforce(n, HALF, "signed")
        if union != 2 * Fraction(math.comb(n, n // 2), 2 ** n):
            identity_ok = False
        scaled.append(union ** 2 * n)
        two_p_ratios.append(float(union) / asym.approx_signed(n, HALF).value)
    rising_below_1 = (all(a < b for a, b in zip(scaled, scaled[1:]))
                      and all(s < Fraction(8 * 113, 355) for s in scaled))
    detail = ("signed/asymptotic ratios "
              + ", ".join(f"{r:.4f}" for r in ratios)
              + "; at n=2p in {6,10,14,22} "
              + ", ".join(f"{r:.4f}" for r in two_p_ratios))
    criterion(8, "signed union equals 2*C(n,n/2)/2^n at n in {6,10,14,22}, "
                 "its ratio to 2*sqrt(2)/sqrt(pi*n) below 1 and strictly "
                 "increasing; intersection(4)=1/4",
              intersection_ok and identity_ok and rising_below_1, detail)


def test_criterion_9_monte_carlo():
    _, ok, _ = verify.check_monte_carlo()
    criterion(9, "Monte-Carlo within 4 standard errors at n=4 and n=6; "
                 "bit-identical rerun; shard-count invariance", ok)


def test_criterion_10_normal_approximation():
    n = 1000
    center = abs(oracles.demoivre_approx(500, n, 0.5)
                 / float(binomstats.binom_pdf_exact(500, n, HALF)) - 1)
    half_width = math.floor(2 * math.sqrt(n))
    band = max(
        abs(oracles.demoivre_approx(k, n, 0.5)
            / float(binomstats.binom_pdf_exact(k, n, HALF)) - 1)
        for k in range(500 - half_width, 500 + half_width + 1))
    criterion(10, "normal approximation within 0.2% at the center and 5% "
                  "across the 2*sqrt(n) band (n=1000)",
              center <= 0.002 and band <= 0.05,
              f"center={center:.2e}, band max={band:.2e}")
