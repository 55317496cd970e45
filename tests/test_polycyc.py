import time
from fractions import Fraction
from itertools import product, zip_longest

import pytest

from circsing import polycyc
from circsing.polycyc import (FirstRow, IntPolynomial, cyclotomic, fold,
                              reduce_mod_cyclotomic, singular_divisors)

import oracles
from oracles import dft_eigenvalues, dft_singularity_crosscheck


def P(*coeffs):
    return IntPolynomial(coeffs)


class TestIntPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert P(1, 0, 2, 0, 0).coeffs == (1, 0, 2)
        assert P(0, 0).coeffs == ()

    def test_zero_degree_is_none(self):
        assert P().degree is None
        assert P(0).degree is None
        assert P(5).degree == 0
        assert P(0, 1).degree == 1

    def test_arithmetic(self):
        assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)
        assert P(2).stretch(3) == P(2)
        assert P(1, 1).stretch(2) == P(1, 0, 1)

    @pytest.mark.parametrize("f,g", [
        (P(3, -2, 0, 7, 1), P(1, 1)),
        (P(5), P(-1, 0, 1)),
        (P(), P(2, 1)),
        (P(1, 2, 3, 4, 5, 6), P(1, -1, 1)),
        (P(-4, 0, 0, 0, 0, 0, 2, 1), P(0, 1)),
    ])
    def test_divmod_roundtrip(self, f, g):
        quot, rem = f.divmod_monic(g)
        f_minus_rem = zip_longest(f.coeffs, rem.coeffs, fillvalue=0)
        assert g * quot == P(*(a - b for a, b in f_minus_rem))
        assert rem.is_zero() or rem.degree < g.degree

    def test_divmod_rejects_non_monic(self):
        with pytest.raises(ValueError):
            P(1, 1).divmod_monic(P(1, 2))


class TestCyclotomic:
    def test_base_cases(self):
        assert cyclotomic(1) == P(-1, 1)
        assert cyclotomic(4) == P(1, 0, 1)
        assert cyclotomic(6) == P(1, -1, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    @pytest.mark.parametrize("n", list(range(1, 41)) + [105])
    def test_product_over_divisors(self, n):
        prod = P(1)
        for d in polycyc.divisors(n):
            prod = prod * cyclotomic(d)
        assert prod == IntPolynomial([-1] + [0] * (n - 1) + [1])

    @pytest.mark.parametrize("d", range(2, 65))
    def test_monic_degree_constant(self, d):
        phi = cyclotomic(d)
        assert phi.is_monic()
        assert phi.degree == polycyc.totient(d)
        assert phi.coeffs[0] == 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_prime_shift_congruence(self, p):
        # cyclotomic(n*p) reduces to 0 mod (p, cyclotomic(n))
        for n in range(1, 21):
            rem = reduce_mod_cyclotomic(cyclotomic(n * p), n)
            assert all(c % p == 0 for c in rem.coeffs)


class TestNumberTheory:
    def test_factorize(self):
        assert polycyc.factorize(1) == {}
        assert polycyc.factorize(360) == {2: 3, 3: 2, 5: 1}

    def test_factorize_matches_trial_division(self):
        # the primes, and their order, of the oracle's loop
        for n in range(1, 10**4):
            want = oracles.factorize_by_trial_division(n)
            assert list(polycyc.factorize(n).items()) == list(want.items()), n

    @pytest.mark.parametrize("n, want", [
        (20000000000000122, [(2, 1), (10**16 + 61, 1)]),
        (999983 * 1000003, [(999983, 1), (1000003, 1)]),
    ])
    def test_factorize_large_prime_cofactor(self, n, want):
        # trial division to the root of the cofactor 10^16 + 61 took 6 s;
        # Miller-Rabin recognizes it as prime
        start = time.perf_counter()
        assert list(polycyc.factorize(n).items()) == want
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("n", range(1, 200))
    def test_totient_sum(self, n):
        assert sum(polycyc.totient(d) for d in polycyc.divisors(n)) == n

    def test_is_prime(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
        assert {n for n in range(25) if polycyc.is_prime(n)} == primes

    def test_smallest_prime_matches_factorization(self):
        for n in range(2, 600):
            assert polycyc.smallest_prime(n) == min(polycyc.factorize(n)), n
            assert polycyc.is_prime(n) == (polycyc.factorize(n) == {n: 1}), n

    def test_miller_rabin_matches_factorization(self):
        # past 41^2 = 1681 the composites prime to the bases begin (1849)
        assert not polycyc._probably_prime(0) and not polycyc._probably_prime(1)
        for n in range(2, 5000):
            assert polycyc._probably_prime(n) == (polycyc.factorize(n) == {n: 1}), n

    @pytest.mark.parametrize("n, factor", [
        # strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5, 7; and the
        # first 9 primes, each a composite one base short of the test
        (2047, 23), (1373653, 829), (3215031751, 151),
        (3825123056546413051, 149491),
        # Carmichael numbers, which fool the Fermat test to every base
        (561, 3), (41041, 7),
    ])
    def test_miller_rabin_rejects_pseudoprimes(self, n, factor):
        assert not polycyc._probably_prime(n)
        assert not polycyc.is_prime(n)
        assert polycyc.smallest_prime(n) == factor

    @pytest.mark.parametrize("n", [10**16 + 61, 2**61 - 1])
    def test_large_prime_skips_trial_division(self, n):
        # trial division to the square root took 8.6 s at 10^16 + 61
        start = time.perf_counter()
        assert polycyc.smallest_prime(n) == n and polycyc.is_prime(n)
        assert time.perf_counter() - start < 0.5

    def test_miller_rabin_past_its_exact_bound(self):
        # above the bound a prime still passes, and smallest_prime falls
        # back to trial division, which stops at the first factor
        assert 2**127 - 1 > polycyc._MR_EXACT
        assert polycyc._probably_prime(2**127 - 1)
        assert not polycyc._probably_prime(2 * (2**127 - 1))

    def test_smallest_prime_stops_at_first_factor(self):
        # the cofactor 2^127 - 1 is prime: trial division to its root
        # would not end
        n = 2 * (2**127 - 1)
        assert polycyc.smallest_prime(n) == 2
        assert not polycyc.is_prime(n)


class TestFold:
    def test_examples(self):
        assert fold(P(1, 1, 0, 1), 4, 2) == P(1, 2)
        assert fold(P(), 4, 2) == P()
        assert fold(P(1, 1, 1, 1, 1, 1), 6, 3) == P(2, 2, 2)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            fold(P(1, 1), 4, 3)

    def test_rejects_degree_overflow(self):
        with pytest.raises(ValueError):
            fold(P(1, 0, 0, 0, 1), 4, 2)


class TestReduce:
    def test_examples(self):
        assert reduce_mod_cyclotomic(P(1, 1, 1, 1), 2) == P()
        assert reduce_mod_cyclotomic(P(1, 0, 1), 4) == P()
        assert reduce_mod_cyclotomic(P(1, 1), 4) == P(1, 1)

    def test_zero_iff_divisible(self):
        f = cyclotomic(12) * P(3, 0, -2, 1)
        assert reduce_mod_cyclotomic(f, 12).is_zero()
        f_plus_1 = P(f.coeffs[0] + 1, *f.coeffs[1:])
        assert not reduce_mod_cyclotomic(f_plus_1, 12).is_zero()


class TestSingularDivisors:
    def test_examples(self):
        assert singular_divisors(FirstRow(4, (1, 1, 0, 1))) == set()
        assert singular_divisors(FirstRow(4, (1, 0, 1, 0))) == {4}
        assert singular_divisors(FirstRow(3, (0, 0, 0))) == {1, 3}

    def test_examples_confirmed_by_determinant(self):
        assert not oracles.det_singular((1, 1, 0, 1))
        assert oracles.det_singular((1, 0, 1, 0))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_determinant_exhaustively(self, n):
        for bits in product((0, 1), repeat=n):
            exact = bool(singular_divisors(FirstRow(n, bits)))
            assert exact == oracles.det_singular(bits), bits

    @pytest.mark.parametrize("n", [4, 6, 9, 10, 12])
    def test_fold_compatibility_exhaustive(self, n):
        # divisibility in the big ring iff divisibility of the folded image
        for bits in product((0, 1), repeat=n):
            f = FirstRow(n, bits).polynomial()
            for d in polycyc.divisors(n):
                direct = reduce_mod_cyclotomic(f, d).is_zero()
                folded = reduce_mod_cyclotomic(fold(f, n, d), d).is_zero()
                assert direct == folded

    @pytest.mark.parametrize("n", [13, 14, 15, 16])
    def test_fold_compatibility_sampled(self, n):
        import random
        rng = random.Random(n)
        for _ in range(300):
            bits = tuple(rng.randint(0, 1) for _ in range(n))
            f = FirstRow(n, bits).polynomial()
            for d in polycyc.divisors(n):
                direct = reduce_mod_cyclotomic(f, d).is_zero()
                folded = reduce_mod_cyclotomic(fold(f, n, d), d).is_zero()
                assert direct == folded

    def test_signed_model(self):
        # a signed row is singular at d=1 exactly at half weight
        assert 1 in singular_divisors(FirstRow(4, (1, 0, 1, 0)), signed=True)
        assert 1 not in singular_divisors(FirstRow(4, (1, 1, 1, 0)), signed=True)


class TestDft:
    def test_examples(self):
        lams = dft_eigenvalues(FirstRow(2, (1, 1)))
        assert lams[0] == pytest.approx(2) and lams[1] == pytest.approx(0)
        assert dft_eigenvalues(FirstRow(3, (1, 0, 0))) == pytest.approx([1, 1, 1])
        lams = dft_eigenvalues(FirstRow(4, (1, 1, 1, 1)))
        assert lams[0] == pytest.approx(4)
        assert max(abs(v) for v in lams[1:]) < 1e-12

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_crosscheck_agrees_exhaustively(self, n):
        for bits in product((0, 1), repeat=n):
            row = FirstRow(n, bits)
            verdict = dft_singularity_crosscheck(row)
            assert verdict == bool(singular_divisors(row))

    def test_crosscheck_warns_and_trusts_exact(self):
        # force a disagreement with an absurd tolerance
        row = FirstRow(4, (1, 1, 0, 1))  # nonsingular
        with pytest.warns(RuntimeWarning):
            assert dft_singularity_crosscheck(row, tol=10.0) is False


class TestFirstRow:
    def test_validation(self):
        with pytest.raises(ValueError):
            FirstRow(3, (1, 0))
        with pytest.raises(ValueError):
            FirstRow(2, (1, 2))
        with pytest.raises(ValueError):
            FirstRow(0, ())

    def test_polynomials(self):
        row = FirstRow(3, (1, 0, 1))
        assert row.polynomial() == P(1, 0, 1)
        assert row.polynomial(signed=True) == P(1, -1, 1)
