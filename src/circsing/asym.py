"""Large-n approximations of the singularity probability and convergence
diagnostics against the exact values.
"""
from __future__ import annotations

import contextlib
import dataclasses
import math
from fractions import Fraction

from . import binomstats, polycyc, singexact
from .errors import BudgetExceededError

# With rational q and n at or below this, the dominant-divisor sum is
# evaluated exactly and only then rounded to float.
EXACT_SUM_LIMIT = 4096
# Above this many summands the power-sum approximation replaces the sum.
FLOAT_SUM_LIMIT = 100_000


@dataclasses.dataclass(frozen=True)
class AsymptoticValue:
    n: int
    q: float
    model: str
    value: float
    formula: str  # main-theorem | main-theorem-asymptotic | closed-form-corollary | signed-corollary


def approx_main(n: int, q) -> AsymptoticValue:
    """Dominant-divisor approximation: sum_k mass(k, n/p)^p for p = p(n).

    Exact (the engine's P(Phi_p | f), rounded once) for rational q and small
    n that the exponent budget admits; summed in the log domain otherwise;
    replaced by the power-sum approximation when the number of summands
    exceeds FLOAT_SUM_LIMIT, which the formula tag records.  For prime n the
    value is the exact union probability.
    """
    p = polycyc.smallest_prime(n)
    terms = n // p
    if isinstance(q, Fraction) and n <= EXACT_SUM_LIMIT:
        with contextlib.suppress(BudgetExceededError):
            value = float(singexact.prob_divisor_general(p, n, q))
            return AsymptoticValue(n=n, q=float(q), model="binary", value=value,
                                   formula="main-theorem")
    qf = binomstats._check_float_q(q)
    if terms <= FLOAT_SUM_LIMIT:
        value = math.fsum(
            math.exp(p * binomstats.binom_pdf_log(k, terms, qf))
            for k in range(terms + 1))
        return AsymptoticValue(n=n, q=qf, model="binary", value=value,
                               formula="main-theorem")
    try:
        value = binomstats.power_sum_asymptotic(terms, p, qf)
    except ValueError:
        raise ValueError(f"main-theorem value for n={n}, q={q} is past the "
                         "float range") from None
    return AsymptoticValue(n=n, q=qf, model="binary", value=value,
                           formula="main-theorem-asymptotic")


def approx_closed(n: int, q) -> AsymptoticValue:
    """Closed-form rate p^(-1/2) (p / (2 pi q (1-q)))^((p-1)/2) n^(-(p-1)/2).

    Only meaningful for composite n (for prime n the dominant-divisor sum
    is already exact), so prime n is rejected.
    """
    p = polycyc.smallest_prime(n)
    if p == n:
        raise ValueError("closed-form rate applies to composite n only")
    qf = binomstats._check_float_q(q)
    log_value = (-0.5 * math.log(p)
                 + 0.5 * (p - 1) * (math.log(p) - math.log(2 * math.pi * qf * (1 - qf)))
                 - 0.5 * (p - 1) * math.log(n))
    try:
        value = math.exp(log_value)
    except OverflowError:
        raise ValueError(f"closed-form rate for n={n}, q={q} is past the "
                         "float range") from None
    return AsymptoticValue(n=n, q=qf, model="binary", value=value,
                           formula="closed-form-corollary")


def approx_signed(n: int, q) -> AsymptoticValue:
    """Signed-model approximation.

    The exceptional case q = 1/2 with even n gets 2*sqrt(2)/sqrt(pi*n);
    everywhere else the signed probability shares the binary approximation.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    qf = binomstats._check_float_q(q)
    if n % 2 == 0 and qf == 0.5:
        try:
            value = 2 * math.sqrt(2) / math.sqrt(math.pi * n)
        except OverflowError:  # n past the float range: take its log apart
            value = 2 * math.sqrt(2) * math.exp(
                -0.5 * (math.log(math.pi) + math.log(n)))
        return AsymptoticValue(n=n, q=qf, model="signed", value=value,
                               formula="signed-corollary")
    return dataclasses.replace(approx_main(n, q), model="signed")


@dataclasses.dataclass(frozen=True)
class ConvergenceRow:
    n: int
    exact: Fraction | None
    approx: float
    ratio: float | None
    formula: str


def convergence_table(q, n_list, model: str = "binary",
                      budget: int = singexact.BRUTEFORCE_BUDGET,
                      ) -> list[ConvergenceRow]:
    """Exact-vs-approximation rows, sorted by n.

    Exact values are absent when q is not rational or when the union
    ladder ``singexact.exact_union`` answers absent, which it does, never
    raising a budget error, where no exact strategy fits (the exhaustive
    union is capped at ``budget`` half-row scans and n = 53, every value
    by the exponent budget); the ratio column is exact/approx as a float,
    absent when either is absent.  When the dominant-divisor sum underflows
    to 0.0, the ratio divides by that sum as an exact Fraction instead.
    The approximation refuses an n below 2 at the first row.
    """
    singexact._check_model(model)
    rows = []
    for n in sorted(n_list):
        av = approx_signed(n, q) if model == "signed" else approx_main(n, q)
        exact = None
        if isinstance(q, Fraction):
            exact = singexact.exact_union(n, q, model, budget)[0]
        if exact is None:
            ratio = None
        elif av.value == 0.0 and av.formula == "main-theorem":
            p = polycyc.smallest_prime(n)
            ratio = float(exact / singexact.prob_divisor_general(p, n, q))
        else:
            ratio = float(exact) / av.value
        rows.append(ConvergenceRow(n=n, exact=exact, approx=av.value,
                                   ratio=ratio, formula=av.formula))
    return rows
