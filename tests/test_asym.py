import math
from fractions import Fraction

import pytest

from circsing import asym, binomstats, polycyc, singexact
from circsing.asym import (approx_closed, approx_main, approx_signed,
                           convergence_table)

import oracles

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

PRIMES_TO_23 = (2, 3, 5, 7, 11, 13, 17, 19, 23)


class TestApproxMain:
    def test_examples(self):
        assert approx_main(4, HALF).value == 0.375
        assert approx_main(5, HALF).value == 0.0625
        assert approx_main(6, HALF).value == 0.3125

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            approx_main(1, HALF)

    def test_prime_equals_exact_union(self):
        for n in PRIMES_TO_23:
            got = approx_main(n, HALF)
            assert got.formula == "main-theorem"
            assert got.value == float(singexact.prob_union_bruteforce(n, HALF))

    def test_float_q_matches_exact_q(self):
        for n in (12, 50, 99):
            exact = approx_main(n, Fraction(2, 5)).value
            floaty = approx_main(n, 0.4).value
            assert floaty == pytest.approx(exact, rel=1e-11)

    def test_huge_n_switches_to_power_sum_formula(self):
        n = 2 * 150_000 + 2  # n/2 summands exceed the float-sum limit
        got = approx_main(n, 0.5)
        assert got.formula == "main-theorem-asymptotic"
        assert got.value == binomstats.power_sum_asymptotic(n // 2, 2, 0.5)

    def test_exact_path_boundary_uses_float_sum(self):
        n = asym.EXACT_SUM_LIMIT + 2
        assert approx_main(n, HALF).formula == "main-theorem"
        assert approx_main(n, HALF).value == pytest.approx(
            approx_main(n, 0.5).value, rel=1e-11)


class TestApproxClosed:
    def test_even_half_is_simple_rate(self):
        for n in (10, 100, 10000):
            assert approx_closed(n, 0.5).value == pytest.approx(
                2 / math.sqrt(2 * math.pi * n), rel=1e-12)
        assert approx_closed(10000, 0.5).value == pytest.approx(0.0079788, abs=1e-7)

    def test_odd_smallest_prime_three(self):
        got = approx_closed(9, 0.5)
        want = (1 / math.sqrt(3)) * (3 / (2 * math.pi * 0.25)) / 9
        assert got.value == pytest.approx(want, rel=1e-12)
        assert got.value == pytest.approx(0.1225175, abs=1e-7)

    def test_rejects_primes(self):
        with pytest.raises(ValueError):
            approx_closed(13, 0.5)

    @pytest.mark.parametrize("n, composite", [(10007 * 10009, True), (10007, False)])
    def test_one_trial_division(self, monkeypatch, n, composite):
        # p(n) == n marks a prime, so n is trial-divided once either way
        calls = []
        smallest_prime = polycyc.smallest_prime

        def counting(m):
            calls.append(m)
            return smallest_prime(m)
        monkeypatch.setattr(polycyc, "smallest_prime", counting)
        if composite:
            assert approx_closed(n, 0.5).formula == "closed-form-corollary"
        else:
            with pytest.raises(ValueError, match="composite"):
                approx_closed(n, 0.5)
        assert calls == [n]

    def test_large_cofactor_is_not_factored(self):
        # p(n) = 2 decides both formulas; n/2 = 2^127 - 1 is prime
        n = 2 * (2**127 - 1)
        assert approx_closed(n, 0.5).value == pytest.approx(
            2 / math.sqrt(2 * math.pi * n), rel=1e-12)
        assert approx_main(n, 0.5).formula == "main-theorem-asymptotic"

    def test_monotone_decay(self):
        values = [approx_closed(n, 0.5).value for n in range(10, 200, 2)]
        assert all(a > b > 0 for a, b in zip(values, values[1:]))
        values = [approx_closed(n, 0.3).value for n in (9, 15, 21, 33, 45)]
        assert all(a > b > 0 for a, b in zip(values, values[1:]))


class TestApproxSigned:
    def test_exceptional_branch(self):
        got = approx_signed(100, 0.5)
        assert got.formula == "signed-corollary"
        assert got.value == pytest.approx(2 * math.sqrt(2) / math.sqrt(100 * math.pi),
                                          rel=1e-12)
        assert got.value == pytest.approx(0.15958, abs=1e-5)

    def test_odd_n_uses_main_branch(self):
        got = approx_signed(9, 0.5)
        assert got.model == "signed"
        assert got.formula == "main-theorem"
        assert got.value == approx_main(9, 0.5).value
        assert got.value == pytest.approx(56 / 512, rel=1e-12)

    def test_other_q_uses_main_branch(self):
        got = approx_signed(100, 0.3)
        assert got.formula == "main-theorem"
        assert got.value == approx_main(100, 0.3).value

    def test_ratio_to_binary_near_two(self):
        n = 1024
        ratio = approx_signed(n, 0.5).value / approx_main(n, HALF).value
        assert abs(ratio - 2) <= 0.2


class TestCorollaryConsistency:
    def test_sum_and_rate_agree(self):
        prev = None
        for n in (2 ** 6, 2 ** 8, 2 ** 10):
            rel = abs(approx_main(n, HALF).value / approx_closed(n, 0.5).value - 1)
            assert rel <= 0.05
            if prev is not None:
                assert rel < prev
            prev = rel


class TestConvergenceTable:
    def test_examples(self):
        rows = convergence_table(HALF, [6, 4, 5])
        assert [r.n for r in rows] == [4, 5, 6]
        by_n = {r.n: r for r in rows}
        assert by_n[4].ratio == pytest.approx(4 / 3, rel=1e-14)
        assert by_n[5].ratio == 1.0  # prime rows are exact
        assert by_n[6].ratio == pytest.approx(1.4, rel=1e-14)
        assert by_n[6].exact == Fraction(7, 16)

    @pytest.mark.parametrize("q", [HALF, THIRD])
    def test_prime_rows_are_exactly_one(self, q):
        rows = convergence_table(q, PRIMES_TO_23)
        assert all(r.ratio == 1.0 for r in rows)

    def test_float_q_leaves_exact_absent(self):
        rows = convergence_table(0.5, [4, 6])
        assert all(r.exact is None and r.ratio is None for r in rows)

    def test_signed_model(self):
        rows = convergence_table(HALF, [4], model="signed")
        assert rows[0].exact == Fraction(1, 2)
        assert rows[0].formula == "signed-corollary"

    def test_absent_exact_over_budget(self):
        rows = convergence_table(HALF, [36], budget=10)
        assert rows[0].exact is None and rows[0].ratio is None
        assert rows[0].approx > 0

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            convergence_table(HALF, [1, 4])

    @pytest.mark.parametrize("model", ["binary", "signed"])
    def test_rejects_n_below_two_before_exact_work(self, monkeypatch, model):
        def no_union(*args):
            raise AssertionError("exact union ran before n was checked")
        monkeypatch.setattr(singexact, "exact_union", no_union)
        with pytest.raises(ValueError, match="n must be at least 2"):
            convergence_table(HALF, [4, 1], model)

    @pytest.mark.parametrize("model", ["binary", "signed"])
    def test_exponent_refused_before_n_is_factored(self, factor_limit, model):
        factor_limit(binomstats.POWER_SUM_BUDGET)
        rows = convergence_table(HALF, oracles.HUGE_N, model)
        assert [r.n for r in rows] == sorted(oracles.HUGE_N)
        assert all(r.exact is None and r.ratio is None and r.approx > 0
                   for r in rows)

    def test_underflowed_approx_takes_ratio_from_exact_sum(self):
        # prime n = 1103: approx_main is 2^-1102, which is 0.0 as a float;
        # the ratio divides by the exact dominant sum, equal to the union
        (row,) = convergence_table(HALF, [1103])
        assert row.exact == HALF ** 1102
        assert row.approx == 0.0
        assert row.ratio == 1.0
        # a float q has no exact union, so the ratio stays absent
        (row,) = convergence_table(0.5, [1103])
        assert row.approx == 0.0 and row.exact is None and row.ratio is None
