"""Independent oracles used only by the tests.

The determinant route never touches the library's cyclotomic or lattice
machinery: it assembles the full n x n circulant integer matrix and runs
fraction-free (Bareiss) Gaussian elimination.  The DFT eigenvalues are the
floating-point cross-check of the exact singularity test, and the CRT coset
sum is an independent route to two-prime divisor probabilities, box
enumeration over the lattice basis is an independent route to every divisor
probability, enumeration of the CRT image vectors is a second route for
every d with two or more primes, the chunked decimal conversion checks
output past the int-to-str digit limit, the float form of the 53-bit
threshold test checks the Monte-Carlo row generator, the shard ranges
redraw a Monte-Carlo run shard by shard, the fold-down mask,
which folds every row to every divisor in float64, checks the packed
columns of the mask, the full enumeration of all 2^n rows checks the
union's half-row join, and the streamed sum of the mass numerators'
powers checks the power sum's binary splitting.  Two closed forms that the
library does not need are kept here for the acceptance suite: the signed
d = 1 and d = 2 intersection, and the de Moivre-Laplace approximation of
the binomial mass.
"""
from __future__ import annotations

import cmath
import logging
import math
import warnings
from fractions import Fraction
from itertools import product

import numpy as np

from circsing.binomstats import _check_exact_q, _check_float_q
from circsing.errors import BudgetExceededError
from circsing.polycyc import (FirstRow, divisors, factorize, singular_divisors,
                              smallest_prime)
from circsing.singexact import ENUMERATION_BUDGET, hnf_basis, singular_mask

log = logging.getLogger(__name__)


def bareiss_det(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    a = [row[:] for row in matrix]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def circulant(row: list[int]) -> list[list[int]]:
    n = len(row)
    return [[row[(j - i) % n] for j in range(n)] for i in range(n)]


def det_singular(bits, signed: bool = False) -> bool:
    row = [2 * b - 1 for b in bits] if signed else list(bits)
    return bareiss_det(circulant(row)) == 0


def union_prob_by_det(n: int, q: Fraction, signed: bool = False) -> Fraction:
    """Exact union probability from determinants over all 2^n rows."""
    total = Fraction(0)
    for bits in product((0, 1), repeat=n):
        if det_singular(bits, signed):
            w = sum(bits)
            total += q**w * (1 - q) ** (n - w)
    return total


def dft_eigenvalues(row: FirstRow, signed: bool = False) -> list[complex]:
    """Floating-point circulant eigenvalues sum_k c_k exp(2*pi*i*k*j/n)."""
    cs = [2 * b - 1 for b in row.bits] if signed else list(row.bits)
    n = row.n
    return [
        sum(c * cmath.exp(2j * cmath.pi * k * j / n) for k, c in enumerate(cs))
        for j in range(n)
    ]


def dft_singularity_crosscheck(row: FirstRow, signed: bool = False,
                               tol: float | None = None) -> bool:
    """Exact singularity verdict, warning if the DFT check disagrees.

    The numeric check declares an eigenvalue zero below ``tol``
    (default 1e-6 * n).  Disagreements are reported as warnings; the
    exact result is always returned.
    """
    if tol is None:
        tol = 1e-6 * row.n
    exact = bool(singular_divisors(row, signed))
    numeric = min(abs(lam) for lam in dft_eigenvalues(row, signed)) < tol
    if numeric != exact:
        warnings.warn(
            f"DFT singularity check disagrees with exact test for n={row.n} "
            f"(numeric={numeric}, exact={exact}); trusting the exact test",
            RuntimeWarning,
            stacklevel=2,
        )
    return exact


def pdf(k: int, n: int, q: Fraction) -> Fraction:
    return math.comb(n, k) * q**k * (1 - q) ** (n - k)


def demoivre_approx(k: int, n: int, q: float) -> float:
    """Gaussian approximation of the binomial mass at k (de Moivre-Laplace)."""
    qf = _check_float_q(q)
    if n < 1:
        raise ValueError("n must be positive")
    var = n * qf * (1 - qf)
    return math.exp(-((k - n * qf) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


def signed_intersection_1_2(n: int, q: Fraction) -> Fraction:
    """Probability that a signed row hits both the d=1 and d=2 events."""
    if n < 1:
        raise ValueError("n must be positive")
    if n % 2:
        raise ValueError("n must be even")
    if n % 4:
        return Fraction(0)
    h, quarter = n // 2, n // 4
    return Fraction(math.comb(h, quarter)) ** 2 * q**h * (1 - q) ** h


def two_prime_coset_sum(d: int, n: int, q: Fraction) -> Fraction:
    """P(Phi_d | f) for squarefree d = p*r with r < p, by CRT cosets.

    Under Z/d = Z/p x Z/r the fold s of f to length d is divisible by Phi_d
    iff s[i, j] = e_i + c_j (de Bruijn 1953).  Fixing c_0 = 0 makes the
    decomposition unique, so the probability is
    sum over c in [-w, w]^(r-1) of (sum_e prod_j mass(e + c_j))^p, w = n/d.
    """
    r, p = sorted(factorize(d))
    w = n // d

    def mass(k):
        return pdf(k, w, q) if 0 <= k <= w else 0

    total = Fraction(0)
    for tail in product(range(-w, w + 1), repeat=r - 1):
        c = (0,) + tail
        total += sum(math.prod(mass(e + cj) for cj in c)
                     for e in range(w + 1)) ** p
    return total


def box_probability(d: int, n: int, q: Fraction,
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
    _check_exact_q(q)
    w = n // d
    tail = np.array(hnf_basis(d), dtype=np.int64)
    r = len(tail)
    required = (w + 1) ** r
    if required > budget:
        raise BudgetExceededError(
            f"lattice enumeration for d={d}, n={n} needs {required} "
            f"candidate vectors (budget {budget})",
            required=required, budget=budget)
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


def crt_enumeration_probability(d: int, n: int, q: Fraction,
                                budget: int = ENUMERATION_BUDGET) -> Fraction:
    """Exact divisor probability for d | n whose radical has two or more
    primes, by enumerating the CRT image vectors.

    With k = rad d = p*m (p the largest prime) and e = d/k, walks the
    (n/d + 1)^m vectors of a length-m sub-row in int64 chunks, keys each by
    its image s[r:] - s[:r] @ A in Z[x]/Phi_m and its sorted values, groups
    the keys with np.unique, and returns (sum_v pi_m(v)^p)^e.  Refuses with
    BudgetExceededError when the vectors exceed ``budget`` or when the
    image product could overflow int64.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if n % d:
        raise ValueError(f"{d} does not divide {n}")
    _check_exact_q(q)
    *rest, p = sorted(factorize(d))
    m = math.prod(rest)
    e, w = d // (p * m), n // d
    if m == 1:
        raise ValueError(f"{d} is a prime power")
    required = (w + 1) ** m
    if required > budget:
        raise BudgetExceededError(
            f"CRT image sum for d={d}, n={n} needs {required} "
            f"candidate vectors (budget {budget})",
            required=required, budget=budget)
    tail = np.array(hnf_basis(m), dtype=np.int64)
    r = len(tail)
    if required >= 2 ** 63 or w * r * int(np.abs(tail).max()) >= 2 ** 62:
        raise BudgetExceededError(
            f"CRT image sum for d={d}, n={n} needs {required} "
            f"candidate vectors, beyond the int64 range of the image product",
            required=required, budget=budget)
    # Numerators over b^w of the Binomial(w, a/b) masses.  A vector's mass
    # depends only on its sorted values: group by (image, sorted values).
    a, b = q.numerator, q.denominator
    mass = [math.comb(w, k) * a**k * (b - a) ** (w - k) for k in range(w + 1)]
    place = (w + 1) ** np.arange(m, dtype=np.int64)
    group_mass: dict[tuple[int, ...], int] = {}
    image_mass: dict[tuple[int, ...], int] = {}
    chunk = 1 << 16
    for start in range(0, required, chunk):
        idx = np.arange(start, min(start + chunk, required), dtype=np.int64)
        digits = idx[:, None] // place % (w + 1)
        keys = np.hstack([digits[:, r:] - digits[:, :r] @ tail,
                          np.sort(digits, axis=1)])
        groups, counts = np.unique(keys, axis=0, return_counts=True)
        for key, count in zip(groups.tolist(), counts.tolist()):
            image, values = tuple(key[:m - r]), tuple(key[m - r:])
            if values not in group_mass:
                group_mass[values] = math.prod(mass[v] for v in values)
            image_mass[image] = image_mass.get(image, 0) + count * group_mass[values]
    log.debug("CRT image sum d=%d n=%d: kept %d of %d candidates",
              d, n, len(image_mass), required)
    total = sum(num ** p for num in image_mass.values())
    return Fraction(total, b ** (m * w * p)) ** e


def decimal_digits(x: int) -> str:
    """Decimal digits of x >= 0 in 1000-digit pieces, each under the
    interpreter's int-to-str limit."""
    pieces = []
    while x >= 10 ** 1000:
        x, low = divmod(x, 10 ** 1000)
        pieces.append(f"{low:01000d}")
    return str(x) + "".join(reversed(pieces))


def sample_bits_by_uniforms(seed: int, n: int, start: int, count: int,
                            q: float) -> np.ndarray:
    """Monte-Carlo rows by the documented float test: the entry that the
    per-sample Philox layout gives the raw output x is (x >> 11) * 2^-53 < q."""
    bps = -(-n // 4)
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start * bps)
    raw = bitgen.random_raw(count * bps * 4).reshape(count, bps * 4)[:, :n]
    return ((raw >> np.uint64(11)) * 2.0 ** -53 < q).astype(np.int8)


def shard_ranges(samples: int, shards: int) -> list[tuple[int, int]]:
    """(start, count) of each shard; the remainder goes to the leading ones."""
    base, extra = divmod(samples, shards)
    return [(s * base + min(s, extra), base + (s < extra)) for s in range(shards)]


def fold_down_mask(bits: np.ndarray, signed: bool = False) -> np.ndarray:
    """Singularity verdicts with no packed columns: every row is folded to
    every divisor d >= 2 of n and tested s[rank:] == s[:rank] @ A in float64,
    exact for every integer below 2^53, on its own array of ``hnf_basis(d)``.

    Each d is folded from the fold of its smallest multiple D = d*p among the
    divisors (p the least prime of n/d) by adding the p column blocks of
    width d; a fold is dropped after its last reader.
    """
    n = bits.shape[1]
    weight = bits.sum(axis=1, dtype=np.int32)
    mask = 2 * weight == n if signed else weight == 0
    down = divisors(n)[:0:-1]
    source = {d: d * smallest_prime(n // d) for d in down[1:]}
    last_reader = {big: d for d, big in source.items()}  # smallest d wins
    folds: dict[int, np.ndarray] = {}
    g = bits.astype(np.float64)
    for d in down:
        if d < n:
            big_d = source[d]
            big = folds.pop(big_d) if last_reader[big_d] == d else folds[big_d]
            g = big[:, :d] + big[:, d:2 * d]
            for k in range(2 * d, big_d, d):
                g += big[:, k:k + d]
        if d in last_reader:
            folds[d] = g
        a = np.array(hnf_basis(d), dtype=np.float64)
        r = len(a)
        mask |= (g[:, r:] == g[:, :r] @ a).all(axis=1)
    return mask


def full_weight_counts(n: int, model: str = "binary") -> tuple[int, ...]:
    """Singular rows among all 2^n, grouped by weight: every row goes
    through ``singular_mask``, in chunks of at most 2^16 rows, with no
    half-row join and no inclusion-exclusion."""
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, 1 << n, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), 1 << n), dtype=np.int64)
        bits = ((idx[:, None] >> np.arange(n)) & 1).astype(np.int8)
        weight = bits.sum(axis=1)
        singular = singular_mask(bits, model)
        counts += np.bincount(weight[singular], minlength=n + 1)
    return tuple(int(c) for c in counts)


def factorize_by_trial_division(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1, primes ascending, by trial division
    with every integer from 2 up to the root of what is left."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


def max_pdf_by_scan(n: int, q: Fraction) -> tuple[int, Fraction]:
    """Argmax (lowest index) and value of the binomial mass by direct scan."""
    best_k, best = 0, pdf(0, n, q)
    for k in range(1, n + 1):
        v = pdf(k, n, q)
        if v > best:
            best_k, best = k, v
    return best_k, best


def power_sum_naive(n: int, m: int, q: Fraction) -> Fraction:
    """Term-by-term Fraction accumulation, no shared-denominator shortcut."""
    return sum(pdf(k, n, q) ** m for k in range(n + 1))


def power_sum_streamed(n: int, m: int, q: Fraction) -> Fraction:
    """The m-th powers of the integer mass numerators, streamed term by term
    over the common denominator b^(n*m): the power sum without binary
    splitting."""
    a, b = q.numerator, q.denominator
    x, total = (b - a) ** n, 0
    for k in range(n + 1):
        total += x ** m
        x = x * (n - k) * a // ((k + 1) * (b - a))
    return Fraction(total, b ** (n * m))


# Exact unions computed with union_prob_by_det ahead of the build; the
# small ones are recomputed live by the tests, the larger ones are frozen
# here so the slow determinant pass does not run on every test invocation.
UNION_BINARY_HALF = {
    1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(1, 4),
    4: Fraction(1, 2), 5: Fraction(1, 16), 6: Fraction(7, 16),
    7: Fraction(1, 64), 8: Fraction(3, 8), 9: Fraction(31, 256),
    10: Fraction(71, 256), 12: Fraction(47, 128),
}
UNION_SIGNED_HALF = {
    2: Fraction(1), 3: Fraction(1, 4), 4: Fraction(1, 2),
    6: Fraction(5, 8), 8: Fraction(1, 2),
}
UNION_BINARY_THIRD = {4: Fraction(41, 81), 6: Fraction(103, 243)}

# Singular rows of dimension n by weight (w = 0, ..., n), computed twice:
# by the half-row join and by the scan of 2^(n-1) rows that it replaced.
WEIGHT_COUNTS = {
    (28, "binary"): (
        1, 0, 294, 0, 9163, 0, 178164, 16384, 1124501, 1820, 5209386, 5460,
        10141775, 9100, 15361688, 9100, 10141775, 5460, 5209386, 1820,
        1124501, 16384, 178164, 0, 9163, 0, 294, 0, 1),
    (28, "signed"): (
        1, 0, 294, 0, 9163, 0, 178164, 16384, 1124501, 1820, 5209386, 5460,
        10141775, 9100, 40116600, 9100, 10141775, 5460, 5209386, 1820,
        1124501, 16384, 178164, 0, 9163, 0, 294, 0, 1),
    (30, "binary"): (
        1, 0, 225, 1000, 11025, 14916, 267555, 97350, 1894185, 2077020,
        9741585, 2131770, 32032875, 4452870, 42386235, 22343280, 42386235,
        4452870, 32032875, 2131770, 9741585, 2077020, 1894185, 97350, 267555,
        14916, 11025, 1000, 225, 0, 1),
    (30, "signed"): (
        1, 0, 225, 1000, 11025, 14916, 267555, 97350, 1894185, 2077020,
        9741585, 2131770, 32032875, 4452870, 42386235, 155117520, 42386235,
        4452870, 32032875, 2131770, 9741585, 2077020, 1894185, 97350, 267555,
        14916, 11025, 1000, 225, 0, 1),
}

# Dimensions that every exact budget and the mask's column bound refuse,
# and whose factoring by trial division would not end in time:
# 2 * (2^127 - 1) and 2 * (10^16 + 61).
HUGE_N = (2 * (2**127 - 1), 20000000000000122)
