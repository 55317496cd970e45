"""Integer polynomials, cyclotomic polynomials, and exact singularity tests.

A circulant matrix is identified with its first row, and the first row with
the polynomial sum(c_j x^j) in Z[x]/(x^n - 1).  The matrix is singular
exactly when some cyclotomic polynomial of a divisor of n divides that row
polynomial, which is what :func:`singular_divisors` decides with exact
integer arithmetic.
"""
from __future__ import annotations

import dataclasses
import functools
import math


@dataclasses.dataclass(init=False, frozen=True)
class IntPolynomial:
    """Dense integer polynomial; ``coeffs[j]`` is the coefficient of x^j.

    Trailing zero coefficients are trimmed on construction, so equal
    polynomials always compare equal.  The zero polynomial is the empty
    tuple and has ``degree is None``.

    >>> IntPolynomial((1, 0, 2, 0))
    IntPolynomial(coeffs=(1, 0, 2))
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def stretch(self, k: int) -> IntPolynomial:
        """Substitute x -> x^k."""
        if k < 1:
            raise ValueError("stretch factor must be positive")
        out = [0] * (k * len(self.coeffs))
        for j, c in enumerate(self.coeffs):
            out[k * j] = c
        return IntPolynomial(out)

    def divmod_monic(self, divisor: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
        """Quotient and remainder by a monic divisor, exact over the integers.

        Satisfies self = divisor * quot + rem with deg rem < deg divisor.
        """
        if not divisor.is_monic():
            raise ValueError("divisor must be monic")
        dd = len(divisor.coeffs) - 1
        rem = list(self.coeffs)
        if len(rem) <= dd:
            return IntPolynomial(), self
        quot = [0] * (len(rem) - dd)
        terms = [(j, g) for j, g in enumerate(divisor.coeffs) if g]
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + dd]
            if c:
                quot[i] = c
                for j, g in terms:
                    rem[i + j] -= c * g
        return IntPolynomial(quot), IntPolynomial(rem)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1, primes ascending, by peeling off
    ``smallest_prime`` factors: a prime cofactor below ``_MR_EXACT`` is
    found by Miller-Rabin, not by trial division up to its square root."""
    if n < 1:
        raise ValueError("n must be positive")
    out: dict[int, int] = {}
    while n > 1:
        p = smallest_prime(n)
        out[p] = out.get(p, 0) + 1
        n //= p
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and smallest_prime(n) == n


def divisors(n: int) -> list[int]:
    """All divisors of n, sorted ascending."""
    ds = [1]
    for p, k in factorize(n).items():
        ds = [d * p**j for d in ds for j in range(k + 1)]
    return sorted(ds)


def totient(n: int) -> int:
    t = 1
    for p, k in factorize(n).items():
        t *= (p - 1) * p ** (k - 1)
    return t


#: The first 13 primes: as Miller-Rabin bases they decide primality of
#: every n below ``_MR_EXACT`` (Sorenson and Webster 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3317044064679887385961981
_MR_PRIMORIAL = math.prod(_MR_BASES)


def _probably_prime(n: int) -> bool:
    """Miller-Rabin with the bases ``_MR_BASES``: never False for a prime,
    and exact below ``_MR_EXACT``."""
    if n < 2 or math.gcd(n, _MR_PRIMORIAL) != 1:
        return n in _MR_BASES
    if n < _MR_BASES[-1] ** 2:  # no prime factor up to its square root
        return True
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime(n: int) -> int:
    """Smallest prime divisor of n >= 2: n itself when n < ``_MR_EXACT``
    and Miller-Rabin says n is prime, else by trial division up to it, so
    the cost is that of n's least prime factor, not of its largest."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if n < _MR_EXACT and _probably_prime(n):
        return n
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1 if p == 2 else 2
    return n


@dataclasses.dataclass(frozen=True)
class FirstRow:
    """First row of a circulant matrix as a 0/1 coefficient sequence.

    The signed model maps bit b to 2b - 1, so the same row object serves
    both the {0,1} and the {-1,1} matrix.
    """

    n: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if len(self.bits) != self.n:
            raise ValueError(f"expected {self.n} bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    def polynomial(self, signed: bool = False) -> IntPolynomial:
        if signed:
            return IntPolynomial([2 * b - 1 for b in self.bits])
        return IntPolynomial(self.bits)


@functools.lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial, exact.

    Built from x - 1 by the substitution/division recursion on the
    squarefree kernel, then stretched by d / rad d; every division is an
    exact monic integer division.

    >>> cyclotomic(6).coeffs
    (1, -1, 1)
    """
    if d < 1:
        raise ValueError("d must be positive")
    if d == 1:
        return IntPolynomial((-1, 1))
    fac = factorize(d)
    poly = IntPolynomial((-1, 1))
    for p in sorted(fac):
        quot, rem = poly.stretch(p).divmod_monic(poly)
        if not rem.is_zero():  # cannot happen: p is new to the kernel
            raise AssertionError(f"inexact cyclotomic division at d={d}, p={p}")
        poly = quot
    rad = math.prod(fac)
    return poly.stretch(d // rad)


def fold(f: IntPolynomial, n: int, d: int) -> IntPolynomial:
    """Image of f in Z[x]/(x^d - 1): bucket coefficients by index mod d."""
    if d < 1 or n % d:
        raise ValueError(f"{d} does not divide {n}")
    if f.degree is not None and f.degree >= n:
        raise ValueError(f"polynomial degree {f.degree} not below n={n}")
    return IntPolynomial(sum(f.coeffs[j::d]) for j in range(d))


def reduce_mod_cyclotomic(f: IntPolynomial, d: int) -> IntPolynomial:
    """Exact remainder of f modulo the d-th cyclotomic polynomial."""
    return f.divmod_monic(cyclotomic(d))[1]


def singular_divisors(row: FirstRow, signed: bool = False) -> set[int]:
    """Divisors d of n whose cyclotomic polynomial divides the row polynomial.

    The circulant matrix built from the row is singular iff the returned
    set is nonempty.  Each divisor is tested by folding into
    Z[x]/(x^d - 1) first and reducing modulo the cyclotomic there.
    """
    f = row.polynomial(signed)
    hits = set()
    for d in divisors(row.n):
        if reduce_mod_cyclotomic(fold(f, row.n, d), d).is_zero():
            hits.add(d)
    return hits
