"""Independent oracles used only by the tests.

The determinant route never touches the library's cyclotomic or lattice
machinery: it assembles the full n x n circulant integer matrix and runs
fraction-free (Bareiss) Gaussian elimination.  The DFT eigenvalues are the
floating-point cross-check of the exact singularity test, and the CRT coset
sum is an independent route to two-prime divisor probabilities, and the
chunked decimal conversion checks output past the int-to-str digit limit.
"""
from __future__ import annotations

import cmath
import math
import warnings
from fractions import Fraction
from itertools import product

from circsing.polycyc import FirstRow, factorize, singular_divisors


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


def decimal_digits(x: int) -> str:
    """Decimal digits of x >= 0 in 1000-digit pieces, each under the
    interpreter's int-to-str limit."""
    pieces = []
    while x >= 10 ** 1000:
        x, low = divmod(x, 10 ** 1000)
        pieces.append(f"{low:01000d}")
    return str(x) + "".join(reversed(pieces))


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
