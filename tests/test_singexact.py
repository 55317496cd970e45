import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from circsing import asym, binomstats, polycyc, singexact
from circsing.errors import BudgetExceededError
from circsing.polycyc import FirstRow, cyclotomic, singular_divisors
from circsing.singexact import (Budgets, divisor_probability, exact_union,
                                hnf_basis, prob_bounds, prob_divisor_general,
                                prob_divisor_prime_power,
                                prob_union_bruteforce, prob_union_closed_form,
                                rational_json, report, report_json,
                                signed_intersection_1_2, singular_mask)

import oracles

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def all_bit_rows(n):
    idx = np.arange(1 << n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n, dtype=np.int64)) & 1).astype(np.int8)


class TestPrimeDivisor:
    """Prime d is the m = 1 case of the prime-power closed form."""

    def test_examples(self):
        assert prob_divisor_prime_power(2, 1, 4, HALF) == Fraction(3, 8)
        assert prob_divisor_prime_power(3, 1, 6, HALF) == Fraction(5, 32)
        assert prob_divisor_prime_power(3, 1, 3, THIRD) == THIRD

    def test_event_count_matches(self):
        # 6 of the 16 binary rows of length 4 satisfy the d=2 event
        hits = sum(2 in singular_divisors(FirstRow(4, bits))
                   for bits in product((0, 1), repeat=4))
        assert prob_divisor_prime_power(2, 1, 4, HALF) == Fraction(hits, 16)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            prob_divisor_prime_power(4, 1, 8, HALF)
        with pytest.raises(ValueError):
            prob_divisor_prime_power(3, 1, 4, HALF)


class TestPrimePowerDivisor:
    def test_examples(self):
        assert prob_divisor_prime_power(2, 2, 4, HALF) == Fraction(1, 4)
        assert prob_divisor_prime_power(2, 1, 4, HALF) == Fraction(3, 8)
        assert prob_divisor_prime_power(2, 2, 8, HALF) == Fraction(9, 64)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            prob_divisor_prime_power(2, 3, 4, HALF)
        with pytest.raises(ValueError):
            prob_divisor_prime_power(6, 1, 6, HALF)


class TestHnfBasis:
    def test_examples(self):
        assert hnf_basis(2).rows == ((1, 1),)
        assert hnf_basis(4).rows == ((1, 0, 1, 0), (0, 1, 0, 1))
        for p in (3, 5, 7):
            assert hnf_basis(p).rows == ((1,) * p,)

    @pytest.mark.parametrize("d", range(2, 41))
    def test_structure(self, d):
        basis = hnf_basis(d)
        rank = d - polycyc.totient(d)
        assert basis.rank == rank == len(basis.rows)
        for i, row in enumerate(basis.rows):
            assert row[:rank] == tuple(1 if j == i else 0 for j in range(rank))
            # every basis row is a polynomial multiple of the cyclotomic
            rem = polycyc.IntPolynomial(row).divmod_monic(cyclotomic(d))[1]
            assert rem.is_zero()

    @pytest.mark.parametrize("d", range(2, 41))
    def test_span_preserved(self, d):
        # each generating shift x^j * Phi_d lies back in the row span, with
        # integer coordinates read off the identity block
        basis = hnf_basis(d)
        rank = basis.rank
        phi = cyclotomic(d).coeffs
        for j in range(rank):
            shift = [0] * j + list(phi) + [0] * (d - j - len(phi))
            combo = [0] * d
            for i in range(rank):
                z = shift[i]
                if z:
                    for t in range(d):
                        combo[t] += z * basis.rows[i][t]
            assert combo == shift

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            hnf_basis(1)


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
                ((p, m),) = fac.items()
                assert (prob_divisor_general(d, n, q)
                        == prob_divisor_prime_power(p, m, n, q))

    def test_matches_two_prime_coset_sum(self):
        for q in (HALF, THIRD):
            for d in (6, 10, 14, 15, 21, 22, 35):
                for n in range(d, 61, d):
                    assert (prob_divisor_general(d, n, q)
                            == oracles.two_prime_coset_sum(d, n, q)), (d, n, q)
        # d = 12 is not squarefree: pin the value the box returned before it
        # had a single path, which is 100 of the 4096 rows of length 12
        assert prob_divisor_general(12, 12, HALF) == Fraction(100, 4096)

    def test_int64_overflow_refused_before_enumeration(self):
        w = 1 << 61
        with pytest.raises(BudgetExceededError) as err:
            prob_divisor_general(6, 6 * w, HALF, budget=10 ** 100)
        assert err.value.required == (w + 1) ** hnf_basis(6).rank
        # fewer than 2^63 candidates, but w * rank * max|A| reaches 2^62
        with pytest.raises(BudgetExceededError):
            prob_divisor_general(2, 2 << 62, HALF, budget=10 ** 100)

    def test_budget_error_reports_required_count(self):
        with pytest.raises(BudgetExceededError) as err:
            prob_divisor_general(12, 24, HALF, budget=10)
        assert err.value.required == 3 ** 8
        with pytest.raises(ValueError):
            prob_divisor_general(5, 12, HALF)


class TestBounds:
    def test_examples(self):
        lo, up = prob_bounds(2, 4, HALF)
        assert (lo, up) == (Fraction(1, 4), Fraction(1, 2))
        assert lo <= prob_divisor_prime_power(2, 1, 4, HALF) <= up
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
        monkeypatch.setattr(binomstats, "POWER_SUM_BUDGET", 10)
        assert prob_bounds(2, 20, HALF)[1] == Fraction(63, 256)  # n/d = 10
        with pytest.raises(BudgetExceededError):
            prob_bounds(2, 22, HALF)


class TestClosedForm:
    def test_examples(self):
        assert prob_union_closed_form(3, HALF) == Fraction(1, 4)
        assert prob_union_closed_form(4, HALF) == Fraction(1, 2)
        assert prob_union_closed_form(6, HALF) == Fraction(7, 16)

    def test_unsupported_shapes(self):
        for n in (8, 12, 16, 30, 36):
            assert prob_union_closed_form(n, HALF) is None
        with pytest.raises(ValueError):
            prob_union_closed_form(1, HALF)

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
        with pytest.raises(BudgetExceededError):
            prob_union_bruteforce(30, HALF, budget=1 << 20)

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

    def test_signed_reuses_binary_enumeration(self):
        prob_union_bruteforce(14, THIRD)
        misses = singexact._singular_weight_counts.cache_info().misses
        prob_union_bruteforce(14, THIRD, "signed")
        assert singexact._singular_weight_counts.cache_info().misses == misses


class TestSingularMask:
    @pytest.mark.parametrize("model", ["binary", "signed"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_scalar_path(self, model, n):
        bits = all_bit_rows(n)
        mask = singular_mask(bits, model)
        for i, row_bits in enumerate(bits.tolist()):
            want = bool(singular_divisors(FirstRow(n, tuple(row_bits)),
                                          signed=(model == "signed")))
            assert bool(mask[i]) == want

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            singular_mask(all_bit_rows(2), "ternary")


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
        assert signed_intersection_1_2(6, HALF) == 0
        assert signed_intersection_1_2(4, HALF) == Fraction(1, 4)
        assert signed_intersection_1_2(8, HALF) == Fraction(9, 64)
        with pytest.raises(ValueError):
            signed_intersection_1_2(5, HALF)

    def test_intersection_by_enumeration(self):
        hits = 0
        for bits in product((0, 1), repeat=4):
            signed = [2 * b - 1 for b in bits]
            if sum(signed) == 0 and sum(c * (-1) ** i for i, c in enumerate(signed)) == 0:
                hits += 1
        assert signed_intersection_1_2(4, HALF) == Fraction(hits, 16)


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
        assert report(1, THIRD).provenance == "trivial-n1"
        assert report(1, THIRD, "signed").exact_union == 0

    def test_example_n12_uses_bruteforce(self):
        rep = report(12, HALF)
        assert rep.provenance == "brute-force"
        assert rep.exact_union == Fraction(47, 128)  # determinant-oracle value

    def test_exact_union_edges(self):
        for q in (HALF, THIRD):
            assert exact_union(1, q, "signed") == (0, "trivial-n1")
            assert prob_union_bruteforce(1, q, "signed") == 0
            assert exact_union(2, q, "signed") == (1, "closed-form")
            assert prob_union_bruteforce(2, q, "signed") == 1
        with pytest.raises(ValueError):
            exact_union(4, HALF, "ternary")
        with pytest.raises(ValueError):
            exact_union(0, HALF)
        with pytest.raises(ValueError):
            exact_union(4, 0.5)

    def test_table_skips_per_divisor_values(self, monkeypatch):
        calls = []
        box = singexact.prob_divisor_general

        def counting_box(*args, **kwargs):
            calls.append(args)
            return box(*args, **kwargs)
        monkeypatch.setattr(singexact, "prob_divisor_general", counting_box)
        rows = asym.convergence_table(HALF, range(2, 17))
        assert calls == []
        assert [r.exact for r in rows] == [report(n, HALF).exact_union
                                           for n in range(2, 17)]
        assert calls  # report itself goes through the box for d = 6, 10, ...

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

    def test_budget_degradation(self):
        rep = report(36, HALF, budgets=Budgets(enumeration=1000, bruteforce=1000))
        assert rep.exact_union is None
        assert rep.provenance == "absent-over-budget"
        omitted = {d for d, _ in rep.omitted}
        assert 36 in omitted  # needs 2^24 box candidates > 1000
        assert {dp.d for dp in rep.per_divisor}.isdisjoint(omitted)
        assert set(rep.bounds) == {d for d in polycyc.divisors(36) if d > 1}


class TestJson:
    def test_rational_json(self):
        assert rational_json(Fraction(7, 16)) == {
            "num": "7", "den": "16", "decimal": "0.4375"}

    def test_rational_json_beyond_str_digit_limit(self):
        den = 3 ** 9029  # 4308 digits, above the default limit of 4300
        data = rational_json(Fraction(2, den))
        assert data["num"] == "2"
        assert data["den"] == oracles.decimal_digits(den)
        assert len(data["den"]) == 4308
        assert data["decimal"] == "0"

    def test_report_json_shape(self):
        data = report_json(report(6, HALF))
        assert data["n"] == 6
        assert data["exact_union"]["num"] == "7"
        assert data["exact_union"]["den"] == "16"
        assert [e["d"] for e in data["per_divisor"]] == [1, 2, 3, 6]
        assert data["provenance"] == "closed-form"
        d2 = next(b for b in data["bounds"] if b["d"] == 2)
        assert d2["lower"] is not None and d2["upper"] is not None
