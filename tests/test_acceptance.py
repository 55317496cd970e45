"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.  Every check body lives once in ``circsing.verify``, the registry
behind ``circsing verify``; each criterion here runs its check from there.
Criteria 7 and 8 add desk-scale monotone trends that are not verify checks
and do not hold (the divisor-rich dimensions 12 and 16 break them); they
are implemented as stated and fail honestly.  See the repository notes for
the analysis.
"""
import math
from fractions import Fraction

from circsing import asym, singexact, verify

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
    _, ok, _ = verify.check_box_vs_prime_powers()
    criterion(4, "box enumeration equals prime-power closed forms "
                 "(d <= 16, n <= 32); divisor-6 event count is 10/64", ok)


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
    ratios = []
    for n in (4, 6, 8, 10, 12, 14, 16, 20, 22):
        exact = singexact.prob_union_bruteforce(n, HALF)
        ratios.append(float(exact) / asym.approx_main(n, HALF).value)
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    detail = "composite ratios " + ", ".join(f"{r:.4f}" for r in ratios)
    criterion(7, "exact/approximation ratio: exactly 1 at primes <= 23, "
                 "strictly decreasing over composite even n <= 22",
              primes_ok and decreasing, detail)


def test_criterion_8_signed_asymptotics():
    _, intersection_ok, _ = verify.check_signed_intersection()
    ratios = []
    for n in (8, 12, 16, 20):
        exact = singexact.prob_union_bruteforce(n, HALF, "signed")
        ratios.append(float(exact) / (2 * math.sqrt(2) / math.sqrt(math.pi * n)))
    # decreasing toward 1: each step moves down without crossing below 1
    decreasing_toward_1 = (all(a > b for a, b in zip(ratios, ratios[1:]))
                           and all(r >= 1 for r in ratios))
    detail = ("signed/asymptotic ratios "
              + ", ".join(f"{r:.4f}" for r in ratios))
    criterion(8, "signed union ratio to 2*sqrt(2)/sqrt(pi*n) decreasing "
                 "toward 1 over n in {8,12,16,20}; intersection(4)=1/4",
              intersection_ok and decreasing_toward_1, detail)


def test_criterion_9_monte_carlo():
    _, ok, _ = verify.check_monte_carlo()
    criterion(9, "Monte-Carlo within 4 standard errors at n=4 and n=6; "
                 "bit-identical rerun; shard-count invariance", ok)


def test_criterion_10_normal_approximation():
    _, ok, detail = verify.check_normal_approximation()
    criterion(10, "normal approximation within 0.2% at the center and 5% "
                  "across the 2*sqrt(n) band (n=1000)", ok, detail)
