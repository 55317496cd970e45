"""Exact singularity probabilities of random circulant Bernoulli matrices.

Per-divisor probabilities come from binomial power-sum closed forms when the
divisor is a prime power and from exact lattice-box enumeration otherwise.
Unions over all divisors use closed forms for n in {prime, prime^2,
prime*prime'}, and an exhaustive weighted enumeration of all 2^n rows as the
independent fallback and oracle.  Every value is an exact Fraction.
"""
from __future__ import annotations

import dataclasses
import decimal
import functools
import logging
import math
from fractions import Fraction

import numpy as np

from . import binomstats, polycyc
from .errors import BudgetExceededError

log = logging.getLogger(__name__)

#: Default cap on lattice-box candidate vectors per divisor.
ENUMERATION_BUDGET = 10_000_000
#: Default cap on rows for the exhaustive union enumeration.
BRUTEFORCE_BUDGET = 1 << 26

MODELS = ("binary", "signed")


@dataclasses.dataclass(frozen=True)
class Budgets:
    enumeration: int = ENUMERATION_BUDGET
    bruteforce: int = BRUTEFORCE_BUDGET


DEFAULT_BUDGETS = Budgets()


def _check_model(model: str) -> str:
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    return model


@dataclasses.dataclass(frozen=True)
class LatticeBasis:
    """Row basis (I | A) of the divisibility lattice for modulus d.

    The rows span, over the integers, the same lattice as the coefficient
    vectors of x^j * Phi_d(x) for j = 0 .. rank-1 inside Z^d.  A length-d
    integer vector s lies in the lattice iff s[rank:] == s[:rank] @ A.
    """

    d: int
    rank: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def tail(self) -> tuple[tuple[int, ...], ...]:
        """The A block: rank rows of length d - rank."""
        return tuple(row[self.rank:] for row in self.rows)


@functools.lru_cache(maxsize=None)
def hnf_basis(d: int) -> LatticeBasis:
    """Hermite-normal-form basis of the divisibility lattice for d >= 2."""
    if d < 2:
        raise ValueError("d must be at least 2")
    phi = polycyc.cyclotomic(d).coeffs
    rank = d - polycyc.totient(d)
    rows = [[0] * j + list(phi) + [0] * (d - j - len(phi)) for j in range(rank)]
    # The shifts never wrap (j + deg Phi_d <= d - 1) and each row has a
    # unit pivot at column j because Phi_d(0) = 1 for d >= 2, so clearing
    # above-diagonal entries with integer row ops yields (I | A) exactly.
    for i in range(rank):
        for j in range(i + 1, rank):
            f = rows[i][j]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[j])]
    return LatticeBasis(d=d, rank=rank, rows=tuple(tuple(r) for r in rows))


@dataclasses.dataclass(frozen=True)
class DivisorProbability:
    """Probability that the cyclotomic of d divides the random row polynomial."""

    d: int
    n: int
    q: Fraction
    value: Fraction
    method: str  # prime-closed-form | prime-power-closed-form | lattice-enumeration | trivial-d1


@dataclasses.dataclass(frozen=True)
class ProbabilityReport:
    """Per-divisor probabilities, bounds, and the exact union where available."""

    n: int
    q: Fraction
    model: str
    exact_union: Fraction | None
    per_divisor: tuple[DivisorProbability, ...]
    bounds: dict[int, tuple[Fraction | None, Fraction]]
    provenance: str  # closed-form | brute-force | trivial-n1 | absent-over-budget
    omitted: tuple[tuple[int, str], ...] = ()


def prob_divisor_prime_power(p: int, m: int, n: int, q: Fraction) -> Fraction:
    """Exact divisor probability for d = p^m dividing n."""
    if not polycyc.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("exponent must be at least 1")
    pm = p ** m
    if n % pm:
        raise ValueError(f"{pm} does not divide {n}")
    return binomstats.power_sum_exact(n // pm, p, q) ** (p ** (m - 1))


def prob_divisor_general(d: int, n: int, q: Fraction,
                         budget: int = ENUMERATION_BUDGET) -> Fraction:
    """Exact divisor probability for any d | n, d >= 2, by box enumeration.

    Walks the necessary box [0, n/d]^rank of free coordinates, maps each
    candidate through the basis (I | A), keeps vectors whose dependent
    coordinates also land in [0, n/d], and sums the products of binomial
    masses.  Agrees with the prime-power closed forms where both apply.
    Refuses with BudgetExceededError when the candidate count exceeds
    ``budget`` or when the int64 filter could overflow.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if n % d:
        raise ValueError(f"{d} does not divide {n}")
    binomstats._check_exact_q(q)
    w = n // d
    basis = hnf_basis(d)
    r = basis.rank
    required = (w + 1) ** r
    if required > budget:
        raise BudgetExceededError(
            f"lattice enumeration for d={d}, n={n} needs {required} "
            f"candidate vectors (budget {budget})",
            required=required, budget=budget)
    tail = np.array(basis.tail, dtype=np.int64)
    max_tail = int(np.abs(tail).max(initial=0))
    if required >= 2 ** 63 or w * r * max_tail >= 2 ** 62:
        raise BudgetExceededError(
            f"lattice enumeration for d={d}, n={n} needs {required} "
            f"candidate vectors, beyond the int64 range of the box filter",
            required=required, budget=budget)
    comb = [math.comb(w, k) for k in range(w + 1)]
    coeff_by_weight: dict[int, int] = {}
    radix = w + 1
    chunk = 1 << 16
    kept = 0
    for start in range(0, required, chunk):
        idx = np.arange(start, min(start + chunk, required), dtype=np.int64)
        digits = np.empty((len(idx), r), dtype=np.int64)
        rem = idx
        for i in range(r - 1, -1, -1):
            digits[:, i] = rem % radix
            rem = rem // radix
        tails = digits @ tail
        ok = ((tails >= 0) & (tails <= w)).all(axis=1)
        for zrow, trow in zip(digits[ok].tolist(), tails[ok].tolist()):
            wt = sum(zrow) + sum(trow)
            coef = (math.prod(comb[v] for v in zrow)
                    * math.prod(comb[v] for v in trow))
            coeff_by_weight[wt] = coeff_by_weight.get(wt, 0) + coef
        kept += int(ok.sum())
    log.debug("box enumeration d=%d n=%d: kept %d of %d candidates",
              d, n, kept, required)
    one_minus = 1 - q
    return sum((Fraction(coef) * q**wt * one_minus**(n - wt)
                for wt, coef in sorted(coeff_by_weight.items())),
               start=Fraction(0))


def prob_bounds(d: int, n: int, q: Fraction) -> tuple[Fraction | None, Fraction]:
    """Bounds M(q,n/d)^d <= P(d) <= M(q,n/d)^phi(d); lower only for prime d."""
    if d < 2:
        raise ValueError("d must be at least 2")
    if n % d:
        raise ValueError(f"{d} does not divide {n}")
    mx = binomstats.binom_max(n // d, q).value
    upper = mx ** polycyc.totient(d)
    lower = mx ** d if polycyc.is_prime(d) else None
    return lower, upper


def prob_union_closed_form(n: int, q: Fraction) -> Fraction | None:
    """Exact binary union probability for n in {p, p^2, p*r}; else None.

    Refuses those shapes above the exponent budget POWER_SUM_BUDGET.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    binomstats._check_exact_q(q)
    fac = polycyc.factorize(n)
    shape = sorted(fac.values())
    if shape not in ([1], [2], [1, 1]):
        return None
    budget = binomstats.POWER_SUM_BUDGET
    if n > budget:
        raise BudgetExceededError(
            f"closed-form union for n={n} needs exponent {n} (budget {budget})",
            required=n, budget=budget)
    if shape == [1]:
        return q**n + (1 - q) ** n
    if shape == [2]:
        (p,) = fac
        return ((q**p + (1 - q) ** p) ** p
                + binomstats.power_sum_exact(p, p, q)
                - q ** n - (1 - q) ** n)
    p, r = sorted(fac)
    return (binomstats.power_sum_exact(p, r, q)
            + binomstats.power_sum_exact(r, p, q)
            - q ** n - (1 - q) ** n)


def singular_mask(bits: np.ndarray, model: str = "binary") -> np.ndarray:
    """Exact singularity verdicts for a batch of first rows.

    ``bits`` is an (m, n) array of 0/1 entries, one row per line.  The d = 1
    event is row weight 0 (binary) or n/2 (signed).  Phi_d divides the
    all-ones row J for every d >= 2 dividing n, so it divides the signed row
    2b - J iff it divides b: both models fold the 0/1 rows into length d and
    test lattice membership s[rank:] == s[:rank] @ A, exactly.  Equivalent
    to ``polycyc.singular_divisors`` being nonempty, row by row.
    """
    _check_model(model)
    m, n = bits.shape
    weight = bits.sum(axis=1, dtype=np.int32)
    mask = weight == 0 if model == "binary" else 2 * weight == n
    for d in polycyc.divisors(n)[1:]:
        if mask.all():
            break
        folded = bits.reshape(m, n // d, d).sum(axis=1, dtype=np.int32)
        basis = hnf_basis(d)
        r = basis.rank
        a = np.array(basis.tail, dtype=np.int32)
        mask |= (folded[:, r:] == folded[:, :r] @ a).all(axis=1)
    return mask


@functools.lru_cache(maxsize=64)
def _singular_weight_counts(n: int) -> tuple[int, ...]:
    """Count singular binary rows among all 2^n, grouped by number of one bits."""
    counts = np.zeros(n + 1, dtype=np.int64)
    shifts = np.arange(n, dtype=np.int64)
    chunk = 1 << 20
    for start in range(0, 1 << n, chunk):
        idx = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
        bits = ((idx[:, None] >> shifts) & 1).astype(np.int8)
        sel = singular_mask(bits)
        counts += np.bincount(bits.sum(axis=1, dtype=np.int64)[sel],
                              minlength=n + 1)
    return tuple(int(c) for c in counts)


def prob_union_bruteforce(n: int, q: Fraction, model: str = "binary",
                          budget: int = BRUTEFORCE_BUDGET) -> Fraction:
    """Exact union probability by enumerating all 2^n rows.

    Each row is weighted q^w (1-q)^(n-w) where w counts the one bits of
    the underlying Bernoulli vector, in both models.
    """
    _check_model(model)
    if n < 1:
        raise ValueError("n must be positive")
    binomstats._check_exact_q(q)
    if 2 ** n > budget:
        raise BudgetExceededError(
            f"brute force for n={n} needs {2**n} rows (budget {budget})",
            required=2**n, budget=budget)
    counts = list(_singular_weight_counts(n))
    if model == "signed":
        # The models differ only in the d = 1 event (see singular_mask): the
        # zero row is -J, singular iff n >= 2; every half-weight row is singular.
        counts[0] = int(n >= 2)
        if n % 2 == 0:
            counts[n // 2] = math.comb(n, n // 2)
    one_minus = 1 - q
    return sum((Fraction(c) * q**w * one_minus**(n - w)
                for w, c in enumerate(counts) if c),
               start=Fraction(0))


def signed_intersection_1_2(n: int, q: Fraction) -> Fraction:
    """Probability that a signed row hits both the d=1 and d=2 events."""
    if n % 2:
        raise ValueError("n must be even")
    if n % 4:
        return Fraction(0)
    h, quarter = n // 2, n // 4
    return Fraction(math.comb(h, quarter)) ** 2 * q**h * (1 - q) ** h


def divisor_probability(d: int, n: int, q: Fraction, model: str = "binary",
                        budgets: Budgets = DEFAULT_BUDGETS) -> DivisorProbability:
    """Single divisor probability with the method that produced it: the one
    dispatch on d's factorization (the models differ only at d = 1)."""
    _check_model(model)
    if d < 1 or n % d:
        raise ValueError(f"{d} does not divide {n}")
    binomstats._check_exact_q(q)
    fac = polycyc.factorize(d)
    if d == 1:
        # The event is row weight 0 (binary) or n/2 (signed, none for odd n).
        value = Fraction(0)
        if model == "binary" or n % 2 == 0:
            value = binomstats.binom_pdf_exact(0 if model == "binary" else n // 2, n, q)
        method = "trivial-d1"
    elif len(fac) == 1:
        ((p, m),) = fac.items()
        value = prob_divisor_prime_power(p, m, n, q)
        method = "prime-closed-form" if m == 1 else "prime-power-closed-form"
    else:
        value = prob_divisor_general(d, n, q, budgets.enumeration)
        method = "lattice-enumeration"
    return DivisorProbability(d=d, n=n, q=q, value=value, method=method)


def exact_union(n: int, q: Fraction, model: str = "binary",
                budgets: Budgets = DEFAULT_BUDGETS) -> tuple[Fraction | None, str]:
    """Exact union over all divisors with its provenance: a trivial or closed
    form, else the exhaustive 2^n enumeration within ``budgets.bruteforce``,
    else None with ``absent-over-budget``."""
    _check_model(model)
    if n < 1:
        raise ValueError("n must be positive")
    binomstats._check_exact_q(q)
    if n == 1:
        return ((1 - q) if model == "binary" else Fraction(0)), "trivial-n1"
    if model == "signed" and n == 2:
        # det [[a, b], [b, a]] = a^2 - b^2 vanishes for all signs a, b
        return Fraction(1), "closed-form"
    if model == "binary" or n % 2:
        # odd n: no signed row has half weight, so the two unions agree
        value = prob_union_closed_form(n, q)
        if value is not None:
            return value, "closed-form"
    if 2 ** n <= budgets.bruteforce:
        return prob_union_bruteforce(n, q, model, budgets.bruteforce), "brute-force"
    return None, "absent-over-budget"


def report(n: int, q: Fraction, model: str = "binary",
           budgets: Budgets = DEFAULT_BUDGETS) -> ProbabilityReport:
    """Full singularity report for dimension n: per-divisor values, bounds,
    and the exact union via the best available strategy.

    Strategies degrade gracefully: divisors whose enumeration exceeds the
    budget are listed in ``omitted`` and an out-of-budget union is left
    absent with provenance recording why.
    """
    union, provenance = exact_union(n, q, model, budgets)
    per: list[DivisorProbability] = []
    omitted: list[tuple[int, str]] = []
    for d in polycyc.divisors(n):
        try:
            per.append(divisor_probability(d, n, q, model, budgets))
        except BudgetExceededError as exc:
            omitted.append((d, str(exc)))
    bounds = {d: prob_bounds(d, n, q) for d in polycyc.divisors(n) if d >= 2}
    return ProbabilityReport(n=n, q=q, model=model, exact_union=union,
                             per_divisor=tuple(per), bounds=bounds,
                             provenance=provenance, omitted=tuple(omitted))


def int_str(x: int) -> str:
    """Decimal digits of x past the interpreter's int-to-str digit limit;
    Decimal ignores that limit, so the process-wide setting stays as it is."""
    return str(decimal.Decimal(x))


def rational_json(x: Fraction) -> dict[str, str]:
    """JSON form of an exact rational: num/den strings plus a decimal view."""
    return {"num": int_str(x.numerator), "den": int_str(x.denominator),
            "decimal": f"{float(x):.15g}"}


def divisor_probability_json(dp: DivisorProbability) -> dict:
    return {"d": dp.d, "n": dp.n, "q": rational_json(dp.q),
            "value": rational_json(dp.value), "method": dp.method}


def report_json(rep: ProbabilityReport) -> dict:
    return {
        "n": rep.n,
        "q": rational_json(rep.q),
        "model": rep.model,
        "exact_union": None if rep.exact_union is None else rational_json(rep.exact_union),
        "per_divisor": [divisor_probability_json(dp) for dp in rep.per_divisor],
        "bounds": [
            {"d": d,
             "lower": None if lo is None else rational_json(lo),
             "upper": rational_json(up)}
            for d, (lo, up) in sorted(rep.bounds.items())
        ],
        "provenance": rep.provenance,
        "omitted": [{"d": d, "reason": reason} for d, reason in rep.omitted],
    }
