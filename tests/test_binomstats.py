import math
import time
from fractions import Fraction

import pytest

from circsing import binomstats
from circsing.binomstats import (binom_max, binom_pdf_exact, binom_pdf_log,
                                 power_sum_asymptotic, power_sum_exact)
from circsing.errors import BudgetExceededError

import oracles

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


class TestPdfExact:
    def test_examples(self):
        assert binom_pdf_exact(1, 2, HALF) == HALF
        assert binom_pdf_exact(0, 3, THIRD) == Fraction(8, 27)
        assert binom_pdf_exact(2, 4, HALF) == Fraction(3, 8)
        assert sum(binom_pdf_exact(k, 4, HALF) for k in range(5)) == 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binom_pdf_exact(5, 4, HALF)
        with pytest.raises(ValueError):
            binom_pdf_exact(-1, 4, HALF)
        with pytest.raises(ValueError):
            binom_pdf_exact(1, 4, Fraction(3, 2))
        with pytest.raises(ValueError):
            binom_pdf_exact(1, 4, 0.5)  # float q has no exact path

    def test_exponent_budget(self, monkeypatch):
        monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 10)
        assert binom_pdf_exact(0, 10, HALF) == Fraction(1, 1024)
        with pytest.raises(BudgetExceededError, match="exponent") as err:
            binom_pdf_exact(0, 11, HALF)
        assert (err.value.required, err.value.budget) == (11, 10)

    @pytest.mark.parametrize("q", [HALF, THIRD, Fraction(2, 5)])
    def test_normalization(self, q):
        for n in list(range(1, 51)) + [100, 200]:
            assert sum(binom_pdf_exact(k, n, q) for k in range(n + 1)) == 1


class TestPdfLog:
    def test_examples(self):
        assert binom_pdf_log(1, 2, 0.5) == pytest.approx(math.log(0.5), rel=1e-14)
        assert binom_pdf_log(2, 4, 0.5) == pytest.approx(math.log(0.375), rel=1e-14)
        exact = float(binom_pdf_exact(500, 1000, HALF))
        assert math.exp(binom_pdf_log(500, 1000, 0.5)) == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("n", [10, 100, 1000])
    @pytest.mark.parametrize("qf,qr", [(0.5, HALF), (0.3, Fraction(3, 10))])
    def test_agrees_with_exact(self, n, qf, qr):
        # log-domain comparison: tail masses underflow float conversion
        def rel_err(k):
            exact = binom_pdf_exact(k, n, qr)
            exact_log = math.log(exact.numerator) - math.log(exact.denominator)
            return abs(math.expm1(binom_pdf_log(k, n, qf) - exact_log))

        assert max(rel_err(k) for k in range(n + 1)) <= 1e-10


class TestBinomMax:
    def test_examples(self):
        assert binom_max(4, HALF) == Fraction(3, 8)
        assert binom_max(2, THIRD) == Fraction(4, 9)
        assert binom_max(1, HALF) == HALF

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            binom_max(4, Fraction(0))

    def test_exponent_budget(self, monkeypatch):
        monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 10)
        assert binom_max(10, HALF) == Fraction(63, 256)
        with pytest.raises(BudgetExceededError) as err:
            binom_max(11, HALF)
        assert (err.value.required, err.value.budget) == (11, 10)

    @pytest.mark.parametrize("q", [HALF, THIRD, Fraction(2, 5), Fraction(3, 4)])
    def test_against_scan(self, q):
        for n in range(41):
            assert binom_max(n, q) == oracles.max_pdf_by_scan(n, q)[1]
            t = (n + 1) * q
            if t.denominator == 1:  # the masses at t - 1 and t tie
                assert binom_pdf_exact(int(t) - 1, n, q) == binom_max(n, q)

    @pytest.mark.parametrize("q", [HALF, THIRD])
    def test_scaled_max_near_one(self, q):
        # M(q,n) * sqrt(2 pi n q (1-q)) drifts into [0.9, 1.1], tightening
        prev = None
        for n in (100, 1000, 10000):
            scaled = float(binom_max(n, q)) * math.sqrt(
                2 * math.pi * n * float(q) * (1 - float(q)))
            assert 0.9 <= scaled <= 1.1
            if prev is not None:
                assert abs(scaled - 1) < abs(prev - 1)
            prev = scaled


class TestDeMoivre:
    def test_center_closed_form(self):
        n, q = 1000, 0.5
        assert oracles.demoivre_approx(n * q, n, q) == pytest.approx(
            1 / math.sqrt(2 * math.pi * n * q * (1 - q)), rel=1e-14)

    def test_center_accuracy(self):
        approx = oracles.demoivre_approx(500, 1000, 0.5)
        assert approx == pytest.approx(0.0252313, abs=5e-7)
        exact = float(binom_pdf_exact(500, 1000, HALF))
        assert abs(approx / exact - 1) <= 0.002

    def test_band_accuracy(self):
        exact = float(binom_pdf_exact(520, 1000, HALF))
        assert abs(oracles.demoivre_approx(520, 1000, 0.5) / exact - 1) <= 0.05

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            oracles.demoivre_approx(0, 0, 0.5)


class TestPowerSumExact:
    def test_examples(self):
        for n, q in [(1, HALF), (7, THIRD), (20, Fraction(2, 5))]:
            assert power_sum_exact(n, 1, q) == 1
        assert power_sum_exact(2, 2, HALF) == Fraction(3, 8)
        assert power_sum_exact(2, 3, HALF) == Fraction(5, 32)

    @pytest.mark.parametrize("q", [HALF, Fraction(2, 5)])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_against_naive(self, q, m):
        for n in range(31):
            assert power_sum_exact(n, m, q) == oracles.power_sum_naive(n, m, q)

    @pytest.mark.parametrize("q", [HALF, THIRD, Fraction(2, 7)])
    def test_equals_streamed_sum(self, q):
        for m in range(1, 8):
            for n in range(61):
                assert (power_sum_exact(n, m, q)
                        == oracles.power_sum_streamed(n, m, q)), (n, m)
        for m in (2, 3, 7):
            for n in (127, 1001, 2000):
                assert (power_sum_exact(n, m, q)
                        == oracles.power_sum_streamed(n, m, q)), (n, m)

    def test_many_terms_take_quasi_linear_time(self):
        # on a shared 2-core box the streamed sum took 15.7 s at this w
        # and the binary splitting under 1 s
        binomstats._power_sum.cache_clear()
        start = time.perf_counter()
        power_sum_exact(40_000, 2, THIRD)
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 25, 50, 100])
    def test_vandermonde(self, n):
        assert power_sum_exact(n, 2, HALF) == Fraction(math.comb(2 * n, n), 4**n)

    def test_budget_error_names_budget(self, monkeypatch):
        monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 1000)
        with pytest.raises(BudgetExceededError, match="budget 1000"):
            power_sum_exact(600, 2, HALF)

    def test_cached_sum_still_checked(self, monkeypatch):
        # a value cached under the default budget is refused under a smaller
        # one, and bad arguments are refused before the cache is read
        assert power_sum_exact(11, 1, HALF) == 1
        monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 10)
        with pytest.raises(BudgetExceededError):
            power_sum_exact(11, 1, HALF)
        for args in ((11, 0, HALF), (-1, 1, HALF), (1, 1, 0.5)):
            with pytest.raises(ValueError):
                power_sum_exact(*args)

    def test_budget_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 10)
        assert power_sum_exact(10, 1, HALF) == 1
        with pytest.raises(BudgetExceededError) as err:
            power_sum_exact(11, 1, HALF)
        assert (err.value.required, err.value.budget) == (11, 10)


class TestPowerSumAsymptotic:
    def test_examples(self):
        assert power_sum_asymptotic(7, 1, 0.3) == pytest.approx(1.0, rel=1e-14)
        assert power_sum_asymptotic(123, 1, 0.5) == pytest.approx(1.0, rel=1e-14)
        assert power_sum_asymptotic(1000, 2, 0.5) == pytest.approx(
            1 / math.sqrt(math.pi * 1000), rel=1e-12)
        # tiny-n sanity: the formula value pi^(-1/2)/sqrt(2), far from the
        # exact 3/8 as expected at n=2
        assert power_sum_asymptotic(2, 2, 0.5) == pytest.approx(
            1 / math.sqrt(math.pi) / math.sqrt(2), rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_ratio_tightens(self, m):
        prev = None
        for n in (100, 400):
            ratio = float(power_sum_exact(n, m, HALF)) / power_sum_asymptotic(n, m, 0.5)
            assert 0.8 <= ratio <= 1.2
            if prev is not None:
                assert abs(ratio - 1) < abs(prev - 1)
            prev = ratio

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            power_sum_asymptotic(0, 2, 0.5)
        with pytest.raises(ValueError):
            power_sum_asymptotic(10, 0, 0.5)
        with pytest.raises(ValueError):
            power_sum_asymptotic(10, 2, 1.5)


class TestMassNumerators:
    @pytest.mark.parametrize("q", [HALF, THIRD, Fraction(2, 7), Fraction(49, 50)])
    def test_total_is_denominator_power(self, q):
        for n in range(40):
            assert sum(binomstats.mass_numerators(n, q)) == q.denominator ** n

    @pytest.mark.parametrize("q", [Fraction(2, 7), Fraction(49, 50)])
    def test_numerators_are_masses(self, q):
        for n in range(13):
            masses = [Fraction(x, q.denominator ** n)
                      for x in binomstats.mass_numerators(n, q)]
            assert masses == [binom_pdf_exact(k, n, q) for k in range(n + 1)]

    @pytest.mark.parametrize("q", [Fraction(2, 7), Fraction(49, 50)])
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_power_sum_against_naive(self, q, m):
        for n in range(13):
            assert power_sum_exact(n, m, q) == oracles.power_sum_naive(n, m, q)


class TestExponentBits:
    """The exponent budget weighs each power of q = a/b by floor(log2 b)."""

    def test_bits_scale_the_exponent(self, monkeypatch):
        monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 40)
        for q, limit in ((Fraction(1, 4), 20), (Fraction(1, 1024), 4),
                         (Fraction(1, 3), 40), (Fraction(255, 256), 5)):
            binomstats.check_exponent(limit, q, "x")
            bits = q.denominator.bit_length() - 1
            with pytest.raises(BudgetExceededError) as err:
                binomstats.check_exponent(limit + 1, q, "x")
            assert (err.value.required, err.value.budget) == ((limit + 1) * bits, 40)
            assert str(err.value) == (f"x of {bits} bits each (budget 40)"
                                      if bits > 1 else "x (budget 40)")

    def test_float_q_is_a_usage_error(self):
        with pytest.raises(ValueError, match="Fraction"):
            binomstats.check_exponent(5, 0.25, "x")
