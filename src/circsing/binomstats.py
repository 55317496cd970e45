"""Binomial mass statistics: exact rational values, log-domain evaluation,
the distribution maximum, and power sums with their large-n approximations.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from fractions import Fraction

from .errors import BudgetExceededError

#: Cap on exponent * floor(log2 b) for every exact power of q = a/b: the
#: n*m term-power operations of a power sum, the exponent n of every exact
#: value of dimension n.
POWER_SUM_BUDGET = 200_000


def _check_exact_q(q) -> Fraction:
    if isinstance(q, int) or not isinstance(q, Fraction):
        raise ValueError("exact computations require q as a Fraction")
    if not 0 < q < 1:
        raise ValueError(f"q={q} must lie strictly between 0 and 1")
    return q


def _check_float_q(q) -> float:
    qf = float(q)
    if not 0.0 < qf < 1.0:
        raise ValueError(f"q={q} must lie strictly between 0 and 1")
    return qf


def check_exponent(exponent: int, q: Fraction, need: str) -> None:
    """Refuse an exact power of q = a/b whose exponent times floor(log2 b),
    about its bits, exceeds POWER_SUM_BUDGET, read at call time; ``need``
    says what needs it, for the error message."""
    bits = _check_exact_q(q).denominator.bit_length() - 1
    if exponent * bits > POWER_SUM_BUDGET:
        if bits > 1:
            need += f" of {bits} bits each"
        raise BudgetExceededError(f"{need} (budget {POWER_SUM_BUDGET})",
                                  required=exponent * bits, budget=POWER_SUM_BUDGET)


def binom_pdf_exact(k: int, n: int, q: Fraction) -> Fraction:
    """Exact binomial mass q^k (1-q)^(n-k) C(n,k).

    Refuses exponent n by ``check_exponent``: the exact mass is over b^n.
    """
    _check_exact_q(q)
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside [0, {n}]")
    check_exponent(n, q, f"binomial mass for n={n} needs exponent {n}")
    return math.comb(n, k) * q**k * (1 - q) ** (n - k)


def binom_pdf_log(k: int, n: int, q: float) -> float:
    """Natural log of the binomial mass, via log-gamma."""
    qf = _check_float_q(q)
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside [0, {n}]")
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(qf) + (n - k) * math.log1p(-qf))


def binom_max(n: int, q: Fraction) -> Fraction:
    """Maximum over k of the binomial mass, attained at k = floor((n+1)q);
    when (n+1)q is an integer the mass at k - 1 ties with it.

    Refuses exponent n, as ``binom_pdf_exact`` does.
    """
    return binom_pdf_exact(math.floor((n + 1) * _check_exact_q(q)), n, q)


def mass_numerators(n: int, q: Fraction) -> Iterator[int]:
    """Numerators C(n,k) a^k (b-a)^(n-k) over b^n of the Binomial(n, a/b)
    masses for k = 0..n, each computed from the last (the divisions are exact)."""
    a, b = q.numerator, q.denominator
    x = (b - a) ** n
    for k in range(n + 1):
        yield x
        x = x * (n - k) * a // ((k + 1) * (b - a))


def power_sum_exact(n: int, m: int, q: Fraction) -> Fraction:
    """Exact sum over k of the m-th power of the binomial mass.

    The numerators x_k = C(n,k) a^k c^(n-k) over b^n, c = b - a, have the
    term ratio x_(k+1) / x_k = (n - k) a / ((k + 1) c), so the sum of the
    x_k^m is x_0^m (1 + T/Q) for the binary splitting (P, Q, T) of the
    ratios' m-th powers (Haible and Papanikolaou, ANTS 1998): a product
    tree of small factors, then one exact division, in quasi-linear time.
    Refuses exponent n*m by ``check_exponent``.
    """
    _check_exact_q(q)
    if m < 1:
        raise ValueError("m must be at least 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_exponent(n * m, q, f"power sum needs {n * m} term-power operations")
    return _power_sum(n, m, q)


# A report reads each prime-power value twice, in the closed-form union and
# per divisor, and a table row reads P(Phi_p | f) for its approximation, its
# union and its underflow ratio: each is one evaluation.
@functools.lru_cache(maxsize=32)
def _power_sum(n: int, m: int, q: Fraction) -> Fraction:
    """``power_sum_exact`` past its checks."""
    if n == 0:
        return Fraction(1)
    a, b = q.numerator, q.denominator

    def split(lo: int, hi: int) -> tuple[int, int, int]:
        # ratios j in [lo, hi): P and Q multiply their numerators and
        # denominators, T / Q sums their prefix products
        if hi - lo == 1:
            x = ((n - lo) * a) ** m
            return x, ((lo + 1) * (b - a)) ** m, x
        mid = (lo + hi) // 2
        p1, q1, t1 = split(lo, mid)
        p2, q2, t2 = split(mid, hi)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2

    _, den, t = split(0, n)
    scale = b ** (n * m)
    # The sum is an integer of at most scale, so with den cut to 2 bits
    # past scale the cut quotient lies within 1/2 of it: rounding is exact.
    s = max(0, den.bit_length() - scale.bit_length() - 2)
    num, den = (b - a) ** (n * m) * (den + t) >> s, den >> s
    return Fraction((2 * num + den) // (2 * den), scale)


def power_sum_asymptotic(n: int, m: int, q: float) -> float:
    """Large-n approximation (2*pi*q*(1-q)*n)^(-(m-1)/2) / sqrt(m).

    An n past the float range takes its logarithm apart; a value past the
    float range is a ValueError.
    """
    qf = _check_float_q(q)
    if m < 1:
        raise ValueError("m must be at least 1")
    if n < 1:
        raise ValueError("n must be positive")
    try:
        log_base = math.log(2 * math.pi * qf * (1 - qf) * n)
    except OverflowError:  # n past the float range: take its log apart
        log_base = math.log(2 * math.pi * qf * (1 - qf)) + math.log(n)
    try:
        return math.exp(-(m - 1) / 2 * log_base - 0.5 * math.log(m))
    except OverflowError:
        raise ValueError(f"power-sum approximation for n={n}, m={m}, q={q} "
                         "is past the float range") from None
