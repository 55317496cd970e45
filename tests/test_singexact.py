import logging
import math
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from circsing import asym, binomstats, cli, mcsim, polycyc, singexact
from circsing.errors import BudgetExceededError
from circsing.polycyc import FirstRow, cyclotomic, singular_divisors
from circsing.singexact import (divisor_bounds, divisor_probability,
                                exact_union, hnf_basis,
                                prob_bounds, prob_divisor_general,
                                prob_union_bruteforce, prob_union_closed_form,
                                report, singular_mask)

import oracles

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def all_bit_rows(n):
    idx = np.arange(1 << n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n, dtype=np.int64)) & 1).astype(np.int8)


def periodic_and_random_rows(n):
    """Rows g(x) (x^n - 1)/(x^c - 1), i.e. a random 0/1 block g of length c
    repeated n/c times, for every proper divisor c of n, plus random rows.
    Phi_d divides such a row for every d | n with d not dividing c, so the
    large-d events that random rows almost never hit occur here."""
    rng = np.random.default_rng(n)
    blocks = [np.tile(rng.integers(0, 2, (8, c)), (1, n // c))
              for c in polycyc.divisors(n)[:-1]]
    return np.vstack(blocks + [rng.integers(0, 2, (64, n))]).astype(np.int8)


def scalar_divisor_sets(n, bits, model):
    """``polycyc.singular_divisors`` of every row, as sets."""
    return [singular_divisors(FirstRow(n, tuple(row)), signed=(model == "signed"))
            for row in bits.tolist()]


def divisor_hit_sets(bits, model):
    """The divisors whose ``singexact._hits`` verdict holds, per row."""
    n = bits.shape[1]
    hits = singexact._hits(bits.astype(np.float32) @ singexact._columns(n)[0],
                           n, model)
    divisors = np.array(polycyc.divisors(n))
    return [set(divisors[row].tolist()) for row in hits.T]


class TestPrimeDivisor:
    """Prime d is the e = 1 case of the engine's binomial power sum."""

    def test_examples(self):
        assert prob_divisor_general(2, 4, HALF) == Fraction(3, 8)
        assert prob_divisor_general(3, 6, HALF) == Fraction(5, 32)
        assert prob_divisor_general(3, 3, THIRD) == THIRD

    def test_event_count_matches(self):
        # 6 of the 16 binary rows of length 4 satisfy the d=2 event
        hits = sum(2 in singular_divisors(FirstRow(4, bits))
                   for bits in product((0, 1), repeat=4))
        assert prob_divisor_general(2, 4, HALF) == Fraction(hits, 16)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            prob_divisor_general(3, 4, HALF)


class TestPrimePowerDivisor:
    def test_examples(self):
        assert prob_divisor_general(4, 4, HALF) == Fraction(1, 4)
        assert prob_divisor_general(2, 4, HALF) == Fraction(3, 8)
        assert prob_divisor_general(4, 8, HALF) == Fraction(9, 64)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            prob_divisor_general(8, 4, HALF)


class TestTrivialDivisor:
    def test_exponent_budget(self, monkeypatch):
        # the d = 1 mass has exponent n, capped like every other exact power
        monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 10)
        assert divisor_probability(1, 10, HALF).value == Fraction(1, 1024)
        assert (divisor_probability(1, 10, HALF, "signed").value
                == Fraction(252, 1024))
        with pytest.raises(BudgetExceededError):
            divisor_probability(1, 11, HALF)
        with pytest.raises(BudgetExceededError):
            divisor_probability(1, 12, HALF, "signed")

    @pytest.mark.parametrize("model", ["binary", "signed"])
    def test_d1_weight_matches_scalar_oracle(self, model):
        # Phi_1 divides a row iff its weight is the model's d = 1 weight;
        # the mask's d = 1 verdict, the union's counts at that weight and
        # the d = 1 probability all read the same weight
        for n in range(1, 13):
            w = singexact._d1_weight(n, model)
            bits = all_bit_rows(n)
            weights = bits.sum(axis=1).tolist()
            event = [1 in s for s in scalar_divisor_sets(n, bits, model)]
            assert event == [k == w for k in weights], (n, model)
            assert event == [1 in s for s in divisor_hit_sets(bits, model)]
            if w is not None:
                assert singexact._singular_weight_counts(n, model)[w] == \
                    math.comb(n, w)
            want = sum(THIRD ** k * (1 - THIRD) ** (n - k)
                       for k, hit in zip(weights, event) if hit)
            assert divisor_probability(1, n, THIRD, model).value == want

    def test_d1_weight_refuses_model_then_n(self):
        assert [singexact._d1_weight(n, "signed") for n in (1, 2, 7, 8)] == \
            [None, 1, None, 4]
        assert singexact._d1_weight(7, "binary") == 0
        with pytest.raises(ValueError, match="model must be one of"):
            singexact._d1_weight(0, "ternary")
        with pytest.raises(ValueError, match="n must be positive"):
            singexact._d1_weight(0, "signed")


def basis_rows(d):
    """The rows (I | A) of the lattice basis whose A block hnf_basis(d) is."""
    tail = hnf_basis(d)
    return tuple(tuple(int(j == i) for j in range(len(tail))) + row
                 for i, row in enumerate(tail))


# Past d = 40: every divisor of 120 and the three-prime 105 and 210.
BASIS_DS = sorted({*range(2, 41), *polycyc.divisors(120)[1:], 105, 210})


class TestHnfBasis:
    def test_examples(self):
        assert basis_rows(2) == ((1, 1),)
        assert basis_rows(4) == ((1, 0, 1, 0), (0, 1, 0, 1))
        for p in (3, 5, 7):
            assert basis_rows(p) == ((1,) * p,)

    @pytest.mark.parametrize("d", BASIS_DS)
    def test_structure(self, d):
        tail = hnf_basis(d)
        rank = d - polycyc.totient(d)
        assert len(tail) == rank
        for row in basis_rows(d):
            assert len(row) == d
            # every basis row is a polynomial multiple of the cyclotomic
            rem = polycyc.IntPolynomial(row).divmod_monic(cyclotomic(d))[1]
            assert rem.is_zero()

    @pytest.mark.parametrize("d", BASIS_DS)
    def test_span_preserved(self, d):
        # each generating shift x^j * Phi_d lies back in the row span, with
        # integer coordinates read off the identity block
        rows = basis_rows(d)
        rank = len(rows)
        phi = cyclotomic(d).coeffs
        for j in range(rank):
            shift = [0] * j + list(phi) + [0] * (d - j - len(phi))
            combo = [0] * d
            for i in range(rank):
                z = shift[i]
                if z:
                    for t in range(d):
                        combo[t] += z * rows[i][t]
            assert combo == shift

    def test_cold_d1155(self):
        # d = 1155 = 3 * 5 * 7 * 11, built outside the cache: phi = 480
        start = time.perf_counter()
        tail = hnf_basis.__wrapped__(1155)
        assert time.perf_counter() - start < 5
        assert len(tail) == 675
        assert all(len(row) == 480 for row in tail)
        a = np.array(tail, dtype=np.int64)
        phi = cyclotomic(1155).coeffs
        for j in (0, 337, 674):
            s = np.zeros(1155, dtype=np.int64)
            s[j:j + len(phi)] = phi
            assert np.array_equal(s[675:], s[:675] @ a), j

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            hnf_basis(1)

    def test_non_squarefree_is_kron_of_radical(self):
        # Phi_d(x) = Phi_k(x^e) for k = rad d, e = d/k: the block of d is
        # the block of k acting on each of the e interleaved sub-rows
        checked = 0
        for d in range(2, 401):
            k = math.prod(polycyc.factorize(d))
            if k == d:
                continue
            dense = np.array(hnf_basis.__wrapped__(d), dtype=np.int64)
            block = np.array(hnf_basis(k), dtype=np.int64)
            kron = np.kron(block, np.eye(d // k, dtype=np.int64))
            assert np.array_equal(dense, kron), d
            checked += 1
        assert checked == 157


class TestGeneralDivisor:
    def test_examples(self):
        assert prob_divisor_general(4, 4, HALF) == Fraction(1, 4)
        assert prob_divisor_general(6, 6, HALF) == Fraction(5, 32)
        assert prob_divisor_general(2, 6, HALF) == Fraction(5, 16)

    def test_event_count_for_d6(self):
        hits = sum(6 in singular_divisors(FirstRow(6, bits))
                   for bits in product((0, 1), repeat=6))
        assert hits == 10
        assert prob_divisor_general(6, 6, HALF) == Fraction(10, 64)

    @pytest.mark.parametrize("q", [HALF, THIRD])
    def test_matches_prime_power_closed_forms(self, q):
        for n in range(2, 25):
            for d in polycyc.divisors(n):
                fac = polycyc.factorize(d)
                if d < 2 or len(fac) != 1:
                    continue
                (p,) = fac
                assert (prob_divisor_general(d, n, q)
                        == oracles.power_sum_naive(n // d, p, q) ** (d // p))

    def test_matches_two_prime_coset_sum(self):
        for q in (HALF, THIRD):
            for d in (6, 10, 14, 15, 21, 22, 35):
                for n in range(d, 61, d):
                    assert (prob_divisor_general(d, n, q)
                            == oracles.two_prime_coset_sum(d, n, q)), (d, n, q)
        # d = 12 is not squarefree: pin the value the box enumeration gave,
        # which is 100 of the 4096 rows of length 12
        assert prob_divisor_general(12, 12, HALF) == Fraction(100, 4096)

    @pytest.mark.parametrize("q", [HALF, THIRD, Fraction(2, 7)])
    def test_matches_box_oracle(self, q):
        # every d >= 2, including the non-squarefree 12, 18, 20, 24, 28
        # that go through the radical reduction
        for n in range(2, 31):
            for d in polycyc.divisors(n)[1:]:
                assert (prob_divisor_general(d, n, q)
                        == oracles.box_probability(d, n, q)), (d, n, q)

    def test_matches_crt_enumeration_oracle(self, caplog):
        # the only code-independent check for d with three primes and
        # n/d >= 2: the box reaches n <= 30, the coset sum two primes only
        def kept(logger):
            return [int(re.search(r"kept (\d+) of", rec.getMessage())[1])
                    for rec in caplog.records if rec.name == logger]

        cases = [(d, n) for n in range(2, 121) for d in polycyc.divisors(n)
                 if len(polycyc.factorize(d)) > 1]
        # (30, 240) is the first case with omega(m) = 2 and w = 8: the lag
        # key's digits reach +-16 of its radix R = 33
        cases += [(6, 600), (10, 2000), (35, 350), (30, 240)]
        for q in (HALF, THIRD):
            caplog.clear()
            with caplog.at_level(logging.DEBUG):
                for d, n in cases:
                    assert (prob_divisor_general(d, n, q)
                            == oracles.crt_enumeration_probability(d, n, q)), (d, n, q)
            engine_kept = kept("circsing.singexact")
            assert len(engine_kept) == len(cases)
            assert engine_kept == kept("oracles")

    @pytest.mark.parametrize("model", ["binary", "signed"])
    @pytest.mark.parametrize("q", [HALF, THIRD])
    def test_every_divisor_resolves_up_to_120(self, model, q):
        for n in range(1, 121):
            for d in polycyc.divisors(n):
                dp = divisor_probability(d, n, q, model)
                assert 0 <= dp.value <= 1
                if len(polycyc.factorize(d)) > 1:
                    assert dp.method == "crt-image-sum"

    def test_int64_overflow_refused_before_enumeration(self):
        w = 1 << 61
        with pytest.raises(BudgetExceededError) as err:
            oracles.box_probability(6, 6 * w, HALF, budget=10 ** 100)
        assert err.value.required == (w + 1) ** len(hnf_basis(6))
        # fewer than 2^63 candidates, but w * rank * max|A| reaches 2^62
        with pytest.raises(BudgetExceededError):
            oracles.box_probability(2, 2 << 62, HALF, budget=10 ** 100)

    def test_budget_error_reports_required_count(self):
        with pytest.raises(BudgetExceededError) as err:
            oracles.box_probability(12, 24, HALF, budget=10)
        assert err.value.required == 3 ** 8
        with pytest.raises(ValueError):
            oracles.box_probability(5, 12, HALF)

    def test_engine_refuses_huge_inputs_before_enumeration(self):
        w = 1 << 61
        # the value is a fraction over 2^n, so n is refused before any law
        with pytest.raises(BudgetExceededError) as err:
            prob_divisor_general(6, 6 * w, HALF, budget=10 ** 100)
        assert err.value.required == 6 * w
        # m = 1: refused the same way, before the binomial power sum
        with pytest.raises(BudgetExceededError):
            prob_divisor_general(2, 2 << 62, HALF, budget=10 ** 100)

    def test_engine_budget_error_reports_required_count(self):
        # d = 12 at n = 24: rad 6 = 3 * 2, w = 2; the two fold steps visit
        # 1 * 3 and then 3 * 3 (image, k) candidates
        with pytest.raises(BudgetExceededError, match="candidate") as err:
            prob_divisor_general(12, 24, HALF, budget=11)
        assert (err.value.required, err.value.budget) == (12, 11)
        assert (prob_divisor_general(12, 24, HALF, budget=12)
                == oracles.box_probability(12, 24, HALF))
        with pytest.raises(ValueError):
            prob_divisor_general(5, 12, HALF)

    def test_work_budget_boundary(self):
        # d = 70 at n = 140: m = 10 and w = 2, so 3^10 image vectors, but the
        # convolution visits 10356 candidates
        with pytest.raises(BudgetExceededError) as err:
            prob_divisor_general(70, 140, THIRD, budget=10355)
        assert (err.value.required, err.value.budget) == (10356, 10355)
        assert (prob_divisor_general(70, 140, THIRD, budget=10356)
                == oracles.crt_enumeration_probability(70, 140, THIRD))

    def test_work_budget_refuses_quickly(self):
        # d = n = 667 = 29 * 23: m = 23, w = 1, and each of fold steps 0..21
        # reaches a new lag position and doubles the law, so the full run
        # visits 2 + 4 + ... + 2^22 + 2^23 = 2^24 - 2 candidates, and that is
        # the bound before step 0; the last steps' law would take GBs
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as err:
            prob_divisor_general(667, 667, THIRD, budget=1000)
        assert (err.value.required, err.value.budget) == ((1 << 24) - 2, 1000)
        # d = 6 at n = 199998: w = 33333, and step 1 would visit (w + 1)^2
        # candidates; refused before the w + 1 masses of ~w*log2(3) bits exist
        with pytest.raises(BudgetExceededError) as err:
            prob_divisor_general(6, 199998, THIRD)
        assert err.value.required == 33334 + 33334 ** 2
        assert time.perf_counter() - start < 10

    def test_over_budget_law_is_never_built(self):
        # the same d = n = 667 at the default budget: refused before step 0,
        # so no law of 2^21 entries (hundreds of MB) is built first
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as err:
                prob_divisor_general(667, 667, THIRD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.required == (1 << 24) - 2
        assert time.perf_counter() - start < 1
        assert peak < 8 << 20

    def test_growth_pass_is_linear_in_steps(self):
        # d = n = 170170 = 17 * 10010: 10010 fold steps of 32 lags each; the
        # steps that reach new lag positions are found in one forward pass
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            prob_divisor_general(170170, 170170, THIRD)
        assert time.perf_counter() - start < 5

    def test_refusal_set_is_total_work_within_budget(self, caplog):
        # refusing as soon as the steps left must pass the budget refuses
        # exactly the values whose full run visits more than the budget; a
        # prime power (m = 1) visits none and always resolves; the budgets
        # one below and at each full count are the sharpest
        cases = [(d, n) for n in range(2, 61) for d in polycyc.divisors(n)[1:]]
        with caplog.at_level(logging.DEBUG, logger="circsing.singexact"):
            full = {}
            for d, n in cases:
                caplog.clear()
                value = prob_divisor_general(d, n, THIRD)
                logged = [int(re.search(r"of (\d+) candidates", rec.getMessage())[1])
                          for rec in caplog.records]
                full[d, n] = value, sum(logged)
        for (d, n), (value, visited) in full.items():
            for budget in (10, 10 ** 2, 10 ** 3, 10 ** 4,
                           max(visited - 1, 0), visited):
                if visited <= budget:
                    assert prob_divisor_general(d, n, THIRD, budget) == value
                else:
                    with pytest.raises(BudgetExceededError) as err:
                        prob_divisor_general(d, n, THIRD, budget)
                    assert budget < err.value.required <= visited

    def test_engine_exponent_budget(self, monkeypatch):
        # every divisor value of dimension n is a fraction over b^n: d = 6 at
        # n = 12 needs exponent 12, at n = 6 exponent 6
        monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 10)
        with pytest.raises(BudgetExceededError, match="exponent 12") as err:
            prob_divisor_general(6, 12, HALF)
        assert (err.value.required, err.value.budget) == (12, 10)
        assert prob_divisor_general(6, 6, HALF) == Fraction(5, 32)


class TestBounds:
    def test_examples(self):
        lo, up = prob_bounds(2, 4, HALF)
        assert (lo, up) == (Fraction(1, 4), Fraction(1, 2))
        assert lo <= prob_divisor_general(2, 4, HALF) <= up
        assert prob_bounds(4, 4, HALF) == (None, Fraction(1, 4))
        assert prob_bounds(3, 9, HALF) == (Fraction(27, 512), Fraction(9, 64))

    @pytest.mark.parametrize("q", [HALF, THIRD])
    def test_sandwich_holds(self, q):
        for n in range(2, 21):
            for d in polycyc.divisors(n):
                if d == 1:
                    continue
                lower, upper = prob_bounds(d, n, q)
                value = prob_divisor_general(d, n, q)
                assert value <= upper
                if lower is not None:
                    assert lower <= value

    def test_exponent_budget(self, monkeypatch):
        # both bounds are fractions over 2^n, so n is budgeted, not n/d
        monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 10)
        assert prob_bounds(2, 10, HALF) == (Fraction(25, 256), Fraction(5, 16))
        with pytest.raises(BudgetExceededError, match="exponent 12") as err:
            prob_bounds(2, 12, HALF)
        assert err.value.required == 12


class TestClosedForm:
    def test_examples(self):
        assert prob_union_closed_form(3, HALF) == Fraction(1, 4)
        assert prob_union_closed_form(4, HALF) == Fraction(1, 2)
        assert prob_union_closed_form(6, HALF) == Fraction(7, 16)

    def test_unsupported_shapes(self):
        # n = 1 has no prime-power event: its union is the weight counts'
        for n in (1, 8, 12, 16, 30, 36):
            assert prob_union_closed_form(n, HALF) is None
        with pytest.raises(ValueError, match="n must be positive"):
            prob_union_closed_form(0, HALF)

    def test_exponent_budget(self, monkeypatch):
        monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 10)
        assert prob_union_closed_form(7, HALF) == Fraction(1, 64)
        for n in (11, 13 * 13, 2 * 13):
            with pytest.raises(BudgetExceededError):
                prob_union_closed_form(n, HALF)
        assert prob_union_closed_form(12, HALF) is None

    @pytest.mark.parametrize("q", [HALF, THIRD])
    def test_matches_determinant_oracle(self, q):
        for n in (2, 3, 4, 5, 6, 7, 9):
            assert prob_union_closed_form(n, q) == oracles.union_prob_by_det(n, q)


class TestBruteForce:
    def test_examples(self):
        assert prob_union_bruteforce(4, HALF) == Fraction(1, 2)
        assert prob_union_bruteforce(4, HALF, "signed") == Fraction(1, 2)
        assert prob_union_bruteforce(6, HALF) == Fraction(7, 16)

    @pytest.mark.parametrize("model", ["binary", "signed"])
    @pytest.mark.parametrize("q", [HALF, THIRD])
    def test_matches_determinant_oracle(self, model, q):
        for n in range(1, 9):
            got = prob_union_bruteforce(n, q, model)
            want = oracles.union_prob_by_det(n, q, signed=(model == "signed"))
            assert got == want, (n, model, q)

    def test_frozen_oracle_values(self):
        for n, want in oracles.UNION_BINARY_HALF.items():
            assert prob_union_bruteforce(n, HALF) == want
        for n, want in oracles.UNION_SIGNED_HALF.items():
            assert prob_union_bruteforce(n, HALF, "signed") == want
        for n, want in oracles.UNION_BINARY_THIRD.items():
            assert prob_union_bruteforce(n, THIRD) == want

    def test_budget_error(self):
        # n = 30 spends 2^tau(30) * 2^15 = 2^23 half-row scans
        with pytest.raises(BudgetExceededError) as err:
            prob_union_bruteforce(30, HALF, budget=(1 << 23) - 1)
        assert (err.value.required, err.value.budget) == (1 << 23, (1 << 23) - 1)
        counts = oracles.WEIGHT_COUNTS[30, "binary"]
        assert prob_union_bruteforce(30, HALF, budget=1 << 23) == \
            Fraction(sum(counts), 1 << 30)

    def test_signed_matches_scalar_path(self):
        # the signed counts are derived from the binary enumeration; the
        # scalar test reduces each signed row polynomial on its own
        for n in range(1, 13):
            hits = [0] * (n + 1)
            for bits in product((0, 1), repeat=n):
                if singular_divisors(FirstRow(n, bits), signed=True):
                    hits[sum(bits)] += 1
            for q in (HALF, THIRD):
                want = sum(c * q**w * (1 - q) ** (n - w)
                           for w, c in enumerate(hits))
                assert prob_union_bruteforce(n, q, "signed") == want, (n, q)


@pytest.fixture
def narrow_bound(monkeypatch):
    """Set ``FLOAT32_EXACT`` for the test with a cold column cache."""
    def narrow(bound):
        monkeypatch.setattr(singexact, "FLOAT32_EXACT", bound)
        singexact._columns.cache_clear()
    yield narrow
    singexact._columns.cache_clear()


@pytest.fixture
def cold_counts():
    """A cold ``_singular_weight_counts`` cache before and after the test."""
    singexact._singular_weight_counts.cache_clear()
    yield
    singexact._singular_weight_counts.cache_clear()


class TestHalfEnumeration:
    """The union joins the column sums of the two halves of each row."""

    def test_matches_full_enumeration(self, cold_counts):
        for n in range(1, 21):
            assert singexact._singular_weight_counts(n) == \
                oracles.full_weight_counts(n), n

    def test_signed_matches_full_enumeration(self, cold_counts):
        for n in range(1, 21):
            assert singexact._singular_weight_counts(n, "signed") == \
                oracles.full_weight_counts(n, "signed"), n

    @pytest.mark.parametrize("bound", [13, 16, 64])
    def test_matches_full_enumeration_narrow_bound(self, cold_counts,
                                                   narrow_bound, bound):
        # narrow bounds pack fewer coordinates into each column, so some
        # divisor has several columns and its ids pack more than one value;
        # every n <= 20 below the bound builds its columns
        ns = range(1, min(21, bound))
        want = {(n, model): oracles.full_weight_counts(n, model)
                for n in ns for model in ("binary", "signed")}
        narrow_bound(bound)
        assert max(singexact._columns(n)[1].sum(axis=0).max() for n in ns) > 1
        for (n, model), counts in want.items():
            assert singexact._singular_weight_counts(n, model) == counts, (n, model)

    @pytest.mark.parametrize("n", [28, 30])
    @pytest.mark.parametrize("model", ["binary", "signed"])
    def test_frozen_counts(self, n, model):
        assert singexact._singular_weight_counts(n, model) == \
            oracles.WEIGHT_COUNTS[n, model]

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_odd_n_halves_sum_to_every_row(self, n):
        # odd n: the high half has one bit more than the low half; each
        # row's column values are the low sum plus the high sum
        cols = singexact._columns(n)[0].astype(np.int64)
        lo = singexact._subset_sums(cols[:n // 2])
        hi = singexact._subset_sums(cols[n // 2:])
        assert (len(lo), len(hi)) == (1 << (n // 2), 1 << (n - n // 2))
        rows = all_bit_rows(n).astype(np.int64)
        idx = np.arange(1 << n)
        low = idx & ((1 << (n // 2)) - 1)
        assert np.array_equal(lo[low] + hi[idx >> (n // 2)], rows @ cols)
        assert lo[:, 0].tolist() == [i.bit_count() for i in range(len(lo))]

    @pytest.mark.parametrize("bound", [10, 1000])
    def test_term_whose_classes_are_all_pruned(self, bound):
        # keys found on one side only leave no class and no row; the
        # narrow bound ranks by a table of flags, the wide one by sorting
        lo, hi = np.array([0, 3, 3, 5]), np.array([1, 2, 4])
        lo_ids, hi_ids, keep_lo, keep_hi, classes = \
            singexact._matched(lo, hi, bound)
        assert classes == 0 and len(lo_ids) == len(hi_ids) == 0
        assert not keep_lo.any() and not keep_hi.any()
        table = singexact._by_weight(lo_ids, lo[keep_lo], 0, 3).T @ \
            singexact._by_weight(hi_ids, hi[keep_hi], 0, 4)
        assert table.shape == (3, 4) and not table.any()
        # one shared key: only its rows survive, as class 0
        lo_ids, hi_ids, keep_lo, keep_hi, classes = \
            singexact._matched(lo, np.array([1, 3, 4]), bound)
        assert classes == 1
        assert keep_lo.tolist() == [False, True, True, False]
        assert keep_hi.tolist() == [False, True, False]
        assert lo_ids.tolist() == [0, 0] and hi_ids.tolist() == [0]

    def test_counts_past_float64_refused(self):
        # n = 54 could pass a raised budget (2^35 scans), but its counts
        # pass float64's exact integers: refused before any table is built
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match=r"n <= 53") as err:
                prob_union_bruteforce(54, HALF, budget=1 << 35)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.required, err.value.budget) == (54, 53)
        assert peak < 1 << 20

    @pytest.mark.parametrize("model", ["binary", "signed"])
    def test_union_past_float64_is_absent_at_any_budget(self, model):
        # n = 54..70 pass a 2^80 scan budget, but the counts stop at
        # n = 53: the ladder answers its closed form or absent, never a
        # refusal, and builds no table on the way
        for n in range(54, 71):
            d1 = singexact._d1_weight(n, model)
            want = prob_union_closed_form(n, HALF) if d1 in (0, None) else None
            tracemalloc.start()
            try:
                got = exact_union(n, HALF, model, 1 << 80)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == ((None, "absent-over-budget") if want is None
                           else (want, "closed-form")), (n, model)
            assert peak < 1 << 20, (n, model)
        rep = report(54, HALF, model, brute_budget=1 << 35)
        assert (rep.exact_union, rep.provenance) == (None, "absent-over-budget")

    def test_signed_weight_half_term(self):
        # every signed row of weight n/2 is singular (the d = 1 event); at
        # every other weight the models share the d >= 2 events, the zero
        # row (-J in the signed model) included, except at n = 1
        for n in range(2, 21):
            binary = singexact._singular_weight_counts(n)
            signed = singexact._singular_weight_counts(n, "signed")
            for w in range(n + 1):
                if 2 * w == n:
                    assert signed[w] == math.comb(n, w) >= binary[w], (n, w)
                else:
                    assert signed[w] == binary[w], (n, w)
        assert singexact._singular_weight_counts(1, "signed") == (0, 0)
        assert singexact._singular_weight_counts(1) == (1, 0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_complement_keeps_divisor_events(self, n):
        for bits in product((0, 1), repeat=n):
            events = set(singular_divisors(FirstRow(n, bits))) - {1}
            flipped = tuple(1 - b for b in bits)
            assert events == set(singular_divisors(FirstRow(n, flipped))) - {1}

    def test_row_budget_never_forms_the_row_count(self):
        # 2^(tau(2^27) + 2^26) would take 8 MB
        tracemalloc.start()
        try:
            got = exact_union(1 << 27, HALF)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (None, "absent-over-budget")
        assert peak < 1 << 20

    def test_row_budget_refusal_within_a_raised_exponent_budget(self, monkeypatch):
        # n = 2^27 past the exponent budget is refused before the row
        # budget is read; with that budget raised, the row budget refuses
        # it, still without forming the row count
        monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 1 << 28)
        tracemalloc.start()
        try:
            got = exact_union(1 << 27, HALF)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (None, "absent-over-budget")
        assert peak < 1 << 20

    def test_row_budget_refusal_past_the_digit_limit(self):
        # 30000 = 2^4 * 3 * 5^4 has 50 divisors; 2^15050 has 4531 digits
        with pytest.raises(BudgetExceededError,
                           match=r"2\^15050 half-row scans \(budget 8388608\)"):
            prob_union_bruteforce(30000, HALF)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_nonpositive_row_budget_leaves_union_absent(self, budget):
        assert exact_union(4, HALF, "signed", budget) == \
            (None, "absent-over-budget")
        with pytest.raises(BudgetExceededError):
            prob_union_bruteforce(4, HALF, budget=budget)

    def test_row_budget_counts_enumerated_rows(self):
        # n = 10 spends 2^tau(10) * 2^5 = 2^9 half-row scans; binary
        # n = 10 = 2 * 5 has a closed form, so the ladder's boundary shows
        # in the signed model
        assert prob_union_bruteforce(10, HALF, budget=512) == \
            oracles.union_prob_by_det(10, HALF)
        with pytest.raises(BudgetExceededError) as err:
            prob_union_bruteforce(10, HALF, budget=511)
        assert (err.value.required, err.value.budget) == (512, 511)
        assert exact_union(10, HALF, "signed", 512)[1] == "brute-force"
        assert exact_union(10, HALF, "signed", 511) == (None, "absent-over-budget")

    def test_budget_counts_the_larger_half(self):
        # odd n = 9 scans 2^tau(9) * 2^5 = 2^8 half rows: its high half
        # has 5 bits
        assert prob_union_bruteforce(9, HALF, budget=256) == \
            oracles.UNION_BINARY_HALF[9]
        with pytest.raises(BudgetExceededError) as err:
            prob_union_bruteforce(9, HALF, budget=255)
        assert (err.value.required, err.value.budget) == (256, 255)


def lag_patterns(d):
    """The (d, phi(d)) matrix whose column j - r, for j in [r, d) and
    r = d - phi(d), holds (-1)^|T| at row (j - sum_{p in T} d/p) mod d for
    every subset T of d's primes."""
    primes = list(polycyc.factorize(d))
    r = d - polycyc.totient(d)
    j = np.arange(r, d)
    pattern = np.zeros((d, d - r), dtype=np.int64)
    for size in range(len(primes) + 1):
        for subset in combinations(primes, size):
            pattern[(j - sum(d // p for p in subset)) % d, j - r] += (-1) ** size
    return pattern


class TestColumns:
    """The mixed-radix columns that ``_hits`` decides every divisor from."""

    @pytest.mark.parametrize("bound", [None, 13, 16, 64])
    def test_pack_every_coordinate_once_and_exactly(self, narrow_bound, bound):
        if bound:
            narrow_bound(bound)
        limit = singexact.FLOAT32_EXACT
        for n in [*range(1, 131), 210, 420]:
            divisors = polycyc.divisors(n)
            # each coordinate of d sums 2^omega(d) signed fold entries in
            # [0, n/d], so it spans R - 1 = (n/d) * 2^omega(d)
            spans = {d: (n // d) << len(polycyc.factorize(d)) for d in divisors}
            if max(spans.values()) >= limit:
                with pytest.raises(BudgetExceededError, match="float32"):
                    singexact._columns(n)
                continue
            cols, group = singexact._columns(n)
            assert cols.dtype == np.float32 and cols.shape[0] == n
            assert (np.abs(cols).sum(axis=0) < limit).all(), n
            assert (group.sum(axis=1) == 1).all() and group[0, 0] == 1
            for k, d in enumerate(divisors):
                own = cols[:, group[:, k] == 1].astype(np.int64)
                assert (own == np.tile(own[:d], (n // d, 1))).all(), (n, d)
                # own[:d] = pattern @ place for the one integer matrix place
                # (the lag patterns are independent), so each coordinate's
                # +-place sits at its 2^omega(d) lags with sign (-1)^|T|
                pattern = lag_patterns(d)
                place = np.linalg.lstsq(pattern.astype(np.float64),
                                        own[:d].astype(np.float64),
                                        rcond=None)[0].round().astype(np.int64)
                assert (pattern @ place == own[:d]).all(), (n, d)
                # each coordinate sits in one column, and each place value
                # passes what the coordinates below it can sum to
                assert ((place != 0).sum(axis=1) == 1).all(), (n, d)
                for c in place.T:
                    used = c[c != 0]
                    assert (used > 0).all()
                    reach = np.cumsum(used * spans[d])
                    assert (used[1:] > reach[:-1]).all(), (n, d)

    @pytest.mark.parametrize("n, count", [(120, 29), (127, 10), (128, 18),
                                          (210, 52), (2310, 682)])
    def test_column_counts(self, n, count):
        # the benchmark's mask inputs (n = 120, 127) set the width of the
        # product it times
        assert singexact._columns(n)[0].shape[1] == count

    def test_cold_columns_stay_small(self):
        # n = 4096 = 2^12 has 448 columns: the matrix is 7.3 MB, and no
        # larger block is built on the way
        singexact._columns.cache_clear()
        tracemalloc.start()
        try:
            singexact._columns(4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            singexact._columns.cache_clear()
        assert peak < 32 << 20

    def test_column_bytes_refused_before_building(self, monkeypatch):
        # n = 4096 needs 4 * 4096 * 448 bytes of columns
        need = 4 * 4096 * 448
        singexact._columns.cache_clear()
        monkeypatch.setattr(singexact, "COLUMN_BYTES", need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as err:
                singexact._columns(4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.required, err.value.budget) == (need, need - 1)
        assert peak < need - 1
        monkeypatch.setattr(singexact, "COLUMN_BYTES", need)
        try:
            assert singexact._columns(4096)[0].nbytes == need
        finally:
            singexact._columns.cache_clear()

    def test_only_squarefree_bases_are_built(self, cold_counts, monkeypatch,
                                             capsys):
        # no compute path builds a lattice basis or a cyclotomic polynomial:
        # the mask, the union and the divisor engine key by lag differences
        seen = []

        def spy(module, name):
            real = getattr(module, name)

            def wrapper(d):
                seen.append((name, d))
                return real(d)
            monkeypatch.setattr(module, name, wrapper)

        spy(singexact, "hnf_basis")
        spy(polycyc, "cyclotomic")
        singexact._columns.cache_clear()
        try:
            assert cli.run(["mc", "--n", "360", "--q", "1/2",
                            "--samples", "1000"]) == 0
            exact_union(24, HALF, "signed")
            report(120, THIRD)
            prob_divisor_general(105, 105, THIRD)
        finally:
            singexact._columns.cache_clear()
        assert seen == []


class TestSingularMask:
    @pytest.mark.parametrize("model", ["binary", "signed"])
    @pytest.mark.parametrize("n", [*range(1, 11), 60, 64, 90, 105, 120, 128,
                                   210, 420])
    def test_matches_scalar_path(self, model, n):
        bits = all_bit_rows(n) if n <= 10 else periodic_and_random_rows(n)
        mask = singular_mask(bits, model)
        for i, row_bits in enumerate(bits.tolist()):
            want = bool(singular_divisors(FirstRow(n, tuple(row_bits)),
                                          signed=(model == "signed")))
            assert bool(mask[i]) == want

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            singular_mask(all_bit_rows(2), "ternary")

    def test_column_cache_is_bounded(self):
        bound = singexact._columns.cache_info().maxsize
        assert bound is not None
        singexact._columns.cache_clear()
        try:
            for n in range(20, 23 + bound):
                singular_mask(np.zeros((1, n), dtype=np.int8))
            assert singexact._columns.cache_info().currsize <= bound
        finally:
            singexact._columns.cache_clear()

    def test_refuses_inexact_float32_test(self, monkeypatch):
        # n = 12: the weight (d = 1, no primes) reaches 12, and so do the
        # lag differences of the d = 2 fold, 6 * 2; d = 1 is refused first
        singexact._columns.cache_clear()
        monkeypatch.setattr(singexact, "FLOAT32_EXACT", 12)
        try:
            with pytest.raises(BudgetExceededError,
                               match="float32 lag-difference test for d=1 "
                                     "with fold entries up to 12 reaches 12"):
                singular_mask(periodic_and_random_rows(12))
        finally:
            singexact._columns.cache_clear()

    @pytest.mark.parametrize("model", ["binary", "signed"])
    @pytest.mark.parametrize("bound", [None, 13, 16, 64])
    def test_divisor_hits_match_scalar_path(self, narrow_bound, bound, model):
        # narrow bounds spread each divisor over more columns; at 13 every
        # n <= 12 still builds them (n = 12: d = 2 reaches 6 * 2 = 12)
        if bound:
            narrow_bound(bound)
        for n in range(1, 13):
            bits = all_bit_rows(n)
            want = scalar_divisor_sets(n, bits, model)
            assert divisor_hit_sets(bits, model) == want, n
            assert singular_mask(bits, model).tolist() == [bool(d) for d in want]

    @pytest.mark.parametrize("model", ["binary", "signed"])
    @pytest.mark.parametrize("n, q", [(120, 0.5), (127, 0.02), (210, 0.5)])
    def test_divisor_hits_match_scalar_path_mc(self, model, n, q):
        bits = mcsim._sample_bits(5, n, 0, 1 << 13, q)
        assert divisor_hit_sets(bits, model) == \
            scalar_divisor_sets(n, bits, model)

    @pytest.mark.parametrize("model", ["binary", "signed"])
    @pytest.mark.parametrize("n, q", [(120, 0.5), (127, 0.02), (128, 0.5),
                                      (210, 0.5)])
    def test_matches_fold_down_oracle(self, model, n, q):
        signed = model == "signed"
        for start in range(0, 1 << 16, 1 << 13):
            bits = mcsim._sample_bits(7, n, start, 1 << 13, q)
            got = singular_mask(bits, model)
            assert np.array_equal(got, oracles.fold_down_mask(bits, signed))


class TestSignedOps:
    def test_divisor_examples(self):
        assert divisor_probability(1, 3, HALF, "signed").value == 0
        assert divisor_probability(1, 4, HALF, "signed").value == Fraction(3, 8)
        assert divisor_probability(2, 4, HALF, "signed").value == Fraction(3, 8)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_signed_equals_binary_above_d1(self, n):
        for d in polycyc.divisors(n):
            if d == 1:
                continue
            assert (divisor_probability(d, n, HALF, "signed").value
                    == divisor_probability(d, n, HALF).value)

    def test_intersection_examples(self):
        assert oracles.signed_intersection_1_2(6, HALF) == 0
        assert oracles.signed_intersection_1_2(4, HALF) == Fraction(1, 4)
        assert oracles.signed_intersection_1_2(8, HALF) == Fraction(9, 64)
        with pytest.raises(ValueError):
            oracles.signed_intersection_1_2(5, HALF)

    def test_intersection_by_enumeration(self):
        hits = 0
        for bits in product((0, 1), repeat=4):
            signed = [2 * b - 1 for b in bits]
            if sum(signed) == 0 and sum(c * (-1) ** i for i, c in enumerate(signed)) == 0:
                hits += 1
        assert oracles.signed_intersection_1_2(4, HALF) == Fraction(hits, 16)


class TestContainment:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_d1_event_inside_every_divisor_event(self, n):
        # binary: the d=1 event is only the zero row, divisible by everything
        for bits in product((0, 1), repeat=n):
            hits = singular_divisors(FirstRow(n, bits))
            if 1 in hits:
                assert hits == set(polycyc.divisors(n))

    @pytest.mark.parametrize("n", [11, 12])
    def test_zero_row_hits_all_divisors(self, n):
        hits = singular_divisors(FirstRow(n, (0,) * n))
        assert hits == set(polycyc.divisors(n))


class TestReport:
    def test_example_n4(self):
        rep = report(4, HALF)
        assert rep.exact_union == Fraction(1, 2)
        assert rep.provenance == "closed-form"
        values = {dp.d: dp.value for dp in rep.per_divisor}
        assert values == {1: Fraction(1, 16), 2: Fraction(3, 8), 4: Fraction(1, 4)}
        methods = {dp.d: dp.method for dp in rep.per_divisor}
        assert methods == {1: "trivial-d1", 2: "prime-closed-form",
                           4: "prime-power-closed-form"}

    def test_example_n1(self):
        assert report(1, THIRD).exact_union == Fraction(2, 3)
        assert report(1, THIRD).provenance == "brute-force"
        assert report(1, THIRD, "signed").exact_union == 0

    def test_example_n12_uses_bruteforce(self):
        rep = report(12, HALF)
        assert rep.provenance == "brute-force"
        assert rep.exact_union == Fraction(47, 128)  # determinant-oracle value

    def test_exact_union_edges(self):
        for q in (HALF, THIRD):
            assert exact_union(1, q, "signed") == (0, "brute-force")
            assert prob_union_bruteforce(1, q, "signed") == 0
            assert exact_union(2, q, "signed") == (1, "brute-force")
            assert prob_union_bruteforce(2, q, "signed") == 1
        with pytest.raises(ValueError):
            exact_union(4, HALF, "ternary")
        with pytest.raises(ValueError):
            exact_union(0, HALF)
        with pytest.raises(ValueError):
            exact_union(4, 0.5)

    @pytest.mark.parametrize("model", ["binary", "signed"])
    @pytest.mark.parametrize("n", oracles.HUGE_N)
    def test_exact_union_refuses_exponent_before_factoring(self, factor_limit,
                                                           model, n):
        # 2 * (10^16 + 61) has the closed form's shape, whose rung factors n
        factor_limit(binomstats.POWER_SUM_BUDGET)
        start = time.perf_counter()
        assert exact_union(n, HALF, model) == (None, "absent-over-budget")
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("n", [1, 4, 12, 18, 25])
    def test_bounds_list_every_divisor(self, n):
        want = {d: prob_bounds(d, n, THIRD) for d in polycyc.divisors(n)[1:]}
        assert divisor_bounds(n, THIRD) == want
        assert list(divisor_bounds(n, THIRD)) == list(want)
        assert report(n, THIRD).bounds == want

    @pytest.mark.parametrize("model", ["binary", "signed"])
    @pytest.mark.parametrize("q", [HALF, THIRD])
    def test_smallest_n_come_from_the_ladder(self, model, q):
        # n = 1 and signed n = 2 have no rung of their own: the weight
        # counts give them, within the row budget like every other n
        for n in (1, 2):
            want = oracles.union_prob_by_det(n, q, signed=(model == "signed"))
            assert exact_union(n, q, model)[0] == want, (n, model, q)
        assert exact_union(1, q, model)[1] == "brute-force"
        assert exact_union(1, q, model, 0) == (None, "absent-over-budget")
        if model == "signed":
            assert exact_union(2, q, model) == (1, "brute-force")
            assert exact_union(2, q, model, 1) == (None, "absent-over-budget")
        else:
            assert exact_union(2, q, model, 0)[1] == "closed-form"

    def test_closed_form_report_sums_each_power_sum_once(self):
        # n = 2p: the union and the per-divisor loop both read the d = 2
        # and d = p power sums, (w, m) = (p, 2) and (2, p)
        power_sum = binomstats._power_sum
        power_sum.cache_clear()
        try:
            rep = report(2 * 101, THIRD)
            info = power_sum.cache_info()
        finally:
            power_sum.cache_clear()
        assert rep.provenance == "closed-form"
        assert (info.misses, info.hits) == (2, 2)

    def test_table_skips_per_divisor_values(self, monkeypatch):
        calls = []
        engine = singexact.prob_divisor_general

        def counting_engine(*args, **kwargs):
            calls.append(args)
            return engine(*args, **kwargs)
        monkeypatch.setattr(singexact, "prob_divisor_general", counting_engine)
        rows = asym.convergence_table(HALF, range(2, 17))
        # the closed-form union sums the engine's prime-power events, each a
        # binomial power sum; no d with two primes runs the CRT image sum
        table_calls = len(calls)
        assert all(len(polycyc.factorize(d)) == 1 for d, *_ in calls)
        assert [r.exact for r in rows] == [report(n, HALF).exact_union
                                           for n in range(2, 17)]
        # report itself goes through the engine for d = 6, 10, ...
        assert any(len(polycyc.factorize(d)) > 1 for d, *_ in calls[table_calls:])

    def test_signed_strategies(self):
        assert report(2, HALF, "signed").exact_union == 1
        # odd n: signed union equals the binary one
        rep = report(9, HALF, "signed")
        assert rep.provenance == "closed-form"
        assert rep.exact_union == prob_union_closed_form(9, HALF)
        assert rep.exact_union == prob_union_bruteforce(9, HALF, "signed")

    @pytest.mark.parametrize("model", ["binary", "signed"])
    @pytest.mark.parametrize("q", [HALF, THIRD])
    def test_union_sandwich(self, model, q):
        for n in range(1, 21):
            rep = report(n, q, model)
            assert rep.exact_union is not None
            values = [dp.value for dp in rep.per_divisor]
            assert max(values) <= rep.exact_union <= sum(values)

    def test_report_refused_over_exponent_budget(self, monkeypatch):
        # every value of dimension n has exponent n, so the report is
        # refused whole; n = 12 is not prime, so no closed form refuses first
        monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 10)
        with pytest.raises(BudgetExceededError, match="exponent 12") as err:
            report(12, HALF)
        assert (err.value.required, err.value.budget) == (12, 10)

    def test_budget_degradation(self):
        # the union of n = 36 spends 2^tau(36) * 2^18 = 2^27 half-row scans
        rep = report(36, HALF, enum_budget=3, brute_budget=(1 << 27) - 1)
        assert rep.exact_union is None
        assert rep.provenance == "absent-over-budget"
        assert singexact._join_fits(36, 1 << 27)
        omitted = dict(rep.omitted)
        # each refuses before fold step 0, at the full run's (w + 1)(w + 2)
        # candidates for w = 6, 3, 2, 1
        assert set(omitted) == {6, 12, 18, 36}
        for d, visited in ((6, 56), (12, 20), (18, 12), (36, 6)):
            assert f"visits {visited} candidates (budget 3)" in omitted[d]
        assert {dp.d for dp in rep.per_divisor}.isdisjoint(omitted)
        assert set(rep.bounds) == {d for d in polycyc.divisors(36) if d > 1}


class TestJson:
    def test_rational_json(self):
        assert cli.to_json(Fraction(7, 16)) == {
            "num": "7", "den": "16", "decimal": "0.4375"}

    def test_rational_json_beyond_str_digit_limit(self):
        den = 3 ** 9029  # 4308 digits, above the default limit of 4300
        data = cli.to_json(Fraction(2, den))
        assert data["num"] == "2"
        assert data["den"] == oracles.decimal_digits(den)
        assert len(data["den"]) == 4308
        # far below the float range: decimal rounds the Fraction itself
        assert data["decimal"] == "2.36168043539307e-4308"

    def test_report_json_shape(self):
        data = cli.to_json(report(6, HALF))
        assert data["n"] == 6
        assert data["exact_union"]["num"] == "7"
        assert data["exact_union"]["den"] == "16"
        assert [e["d"] for e in data["per_divisor"]] == [1, 2, 3, 6]
        assert data["provenance"] == "closed-form"
        d2 = next(b for b in cli.bounds_json(data["bounds"]) if b["d"] == 2)
        assert d2["lower"] is not None and d2["upper"] is not None


class TestClosedFormIdentity:
    """The closed form is one inclusion-exclusion over prime-power events."""

    @pytest.mark.parametrize("q", [Fraction(2, 7), Fraction(49, 50)])
    def test_matches_bruteforce(self, q):
        for n in (4, 6, 9, 10, 15, 21, 22, 25):
            assert prob_union_closed_form(n, q) == prob_union_bruteforce(n, q)


class TestNonpositiveN:
    @pytest.mark.parametrize("n", [0, -6])
    def test_divisor_layer_refuses(self, n):
        calls = [lambda: prob_divisor_general(2, n, HALF),
                 lambda: prob_divisor_general(6, n, HALF),
                 lambda: prob_bounds(2, n, HALF),
                 lambda: divisor_probability(1, n, HALF),
                 lambda: divisor_probability(2, n, HALF, "signed"),
                 lambda: divisor_probability(6, n, HALF),
                 lambda: oracles.signed_intersection_1_2(n, HALF)]
        for call in calls:
            with pytest.raises(ValueError, match="n must be positive"):
                call()

    @pytest.mark.parametrize("n", [0, -1, -6])
    @pytest.mark.parametrize("model", ["binary", "signed"])
    def test_union_layer_refuses(self, n, model):
        # at any union budget, a budget that admits nothing included
        for budget in (0, singexact.BRUTEFORCE_BUDGET):
            for call in (exact_union, prob_union_bruteforce):
                with pytest.raises(ValueError, match="n must be positive"):
                    call(n, HALF, model, budget)
        with pytest.raises(ValueError, match="model must be one of"):
            exact_union(n, HALF, "ternary")
        with pytest.raises(ValueError, match="n must be positive"):
            mcsim.sample_singularity(n, 0.5, 10, 0, model)


# (q, site, largest n inside a budget of 40 bits, smallest n past it)
EXPONENT_SITES = {
    "binom_pdf_exact": lambda n, q: binomstats.binom_pdf_exact(0, n, q),
    "power_sum_exact": lambda n, q: binomstats.power_sum_exact(n, 1, q),
    "prob_divisor_general": lambda n, q: prob_divisor_general(2, n, q),
    "prob_bounds": lambda n, q: prob_bounds(2, n, q),
    "divisor_bounds": lambda n, q: divisor_bounds(n, q),
    "prob_union_closed_form": lambda n, q: prob_union_closed_form(n, q),
    "report": lambda n, q: report(n, q),
}
EXPONENT_CASES = [
    (Fraction(1, 4), "binom_pdf_exact", 20, 21),
    (Fraction(1, 4), "power_sum_exact", 20, 21),
    (Fraction(1, 4), "prob_divisor_general", 20, 22),
    (Fraction(1, 4), "prob_bounds", 20, 22),
    (Fraction(1, 4), "prob_union_closed_form", 19, 21),
    (Fraction(1, 4), "report", 19, 21),
    (Fraction(1, 1024), "binom_pdf_exact", 4, 5),
    (Fraction(1, 1024), "power_sum_exact", 4, 5),
    (Fraction(1, 1024), "prob_divisor_general", 4, 6),
    (Fraction(1, 1024), "prob_bounds", 4, 6),
    (Fraction(1, 1024), "prob_union_closed_form", 4, 5),
    (Fraction(1, 1024), "report", 4, 5),
    (Fraction(1, 4), "divisor_bounds", 20, 21),
    (Fraction(1, 1024), "divisor_bounds", 4, 5),
]


@pytest.mark.parametrize("q, site, inside, past", EXPONENT_CASES)
def test_exponent_budget_counts_bits(monkeypatch, q, site, inside, past):
    monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 40)
    bits = q.denominator.bit_length() - 1
    assert EXPONENT_SITES[site](inside, q) is not None
    with pytest.raises(BudgetExceededError, match=f"of {bits} bits each") as err:
        EXPONENT_SITES[site](past, q)
    assert (err.value.required, err.value.budget) == (past * bits, 40)


@pytest.mark.parametrize("call", [lambda: prob_bounds(2, 4, 0.5),
                                  lambda: report(4, 0.5)])
def test_exponent_check_still_wants_fraction(call):
    with pytest.raises(ValueError, match="Fraction"):
        call()
