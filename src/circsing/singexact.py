"""Exact singularity probabilities of random circulant Bernoulli matrices.

Every per-divisor probability for d >= 2 comes from one engine: a radical
reduction, then the binomial power sum when d is a prime power, or else a
CRT image sum over the exact convolution of the image law, each image the
sub-row's lag differences packed into one int.
Unions over all divisors use one inclusion-exclusion over the prime-power
divisor events for n in {prime, prime^2, prime*prime'}, and an exhaustive
weighted count of the 2^n rows, by a meet-in-the-middle join of their two
halves, as the independent fallback and oracle.  Monte-Carlo rows are
decided by one exact float32 product with mixed-radix columns that test
every divisor at once by lag differences of the row's fold (``_columns``);
the exhaustive union joins the same columns' sums over the two halves of a
row.  Both key divisibility by ``_lags``, so no compute path builds a
lattice basis or a cyclotomic polynomial.
Every value is an exact Fraction.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import logging
import math
from fractions import Fraction

import numpy as np

from . import binomstats, polycyc
from .errors import BudgetExceededError

log = logging.getLogger(__name__)

#: Default cap on (image, k) candidates the CRT convolution visits per divisor.
ENUMERATION_BUDGET = 10_000_000
#: Default cap on the half-row scans of the exhaustive union:
#: 2^tau(n) * 2^ceil(n/2) at dimension n (``_join_scans``).
BRUTEFORCE_BUDGET = 1 << 23

#: Byte bound on the ``_columns`` matrix, 4n bytes a column: it is built
#: whole and cached before any row is tested, and grows about 4x per
#: doubling of n (n = 65536 would take 1.9 GB), so past this bound the mask
#: exits 3 instead of being killed for memory.  1 GiB admits n = 32768.
COLUMN_BYTES = 1 << 30

MODELS = ("binary", "signed")


def _check_model(model: str, n: int = 1) -> str:
    """Refuse an unknown model, then n < 1."""
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    if n < 1:
        raise ValueError("n must be positive")
    return model


def _d1_weight(n: int, model: str) -> int | None:
    """The row weight of the d = 1 event, a row sum of 0: 0 binary, n/2
    signed, None for signed odd n.  The models differ only here, since
    Phi_d divides J for d >= 2.  Refuses an unknown model, then n < 1."""
    _check_model(model, n)
    return 0 if model == "binary" else (None if n % 2 else n // 2)


@functools.lru_cache(maxsize=None)
def hnf_basis(d: int) -> tuple[tuple[int, ...], ...]:
    """The A block of the Hermite-normal-form basis (I | A) of the
    divisibility lattice for d >= 2: rank = d - phi(d) rows of length phi(d).

    The rows (I | A) span, over the integers, the same lattice as the
    coefficient vectors of x^j * Phi_d(x) for j = 0 .. rank-1 inside Z^d.  A
    length-d integer vector s lies in the lattice iff s[rank:] == s[:rank] @ A.

    Row i is x^i + x^rank * a_i(x), in the lattice iff Phi_d divides it.
    Since Phi_d divides x^d - 1, x^-rank = x^phi(d) modulo Phi_d, so
    A[i] = -(x^(phi(d) + i) mod Phi_d): start from -(x^phi mod Phi_d), the
    low coefficients of Phi_d, and multiply by x and reduce once per row.

    No library path calls it: the mask and the divisor engine key
    divisibility by lag differences (``_lags``).  It is the independent
    lattice route that the test oracles check them against.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    low = polycyc.cyclotomic(d).coeffs[:-1]
    rows = [low]
    for _ in range(d - len(low) - 1):
        top = rows[-1][-1]
        rows.append(tuple(a - top * c for a, c in zip((0,) + rows[-1], low)))
    return tuple(rows)


@dataclasses.dataclass(frozen=True)
class DivisorProbability:
    """Probability that the cyclotomic of d divides the random row polynomial."""

    d: int
    n: int
    q: Fraction
    value: Fraction
    method: str  # prime-closed-form | prime-power-closed-form | crt-image-sum | trivial-d1


@dataclasses.dataclass(frozen=True)
class ProbabilityReport:
    """Per-divisor probabilities, bounds, and the exact union where available."""

    n: int
    q: Fraction
    model: str
    exact_union: Fraction | None
    per_divisor: tuple[DivisorProbability, ...]
    bounds: dict[int, tuple[Fraction | None, Fraction]]
    provenance: str  # closed-form | brute-force | absent-over-budget
    omitted: tuple[tuple[int, str], ...] = ()


def _check_divisor(d: int, n: int, trivial: bool = False) -> None:
    """Refuse n < 1, then d < 2 (unless ``trivial`` admits d = 1), then d
    not dividing n, in that order."""
    if n < 1:
        raise ValueError("n must be positive")
    if d < 2 and not trivial:
        raise ValueError("d must be at least 2")
    if d < 1 or n % d:
        raise ValueError(f"{d} does not divide {n}")


def _lags(d: int) -> list[tuple[int, int]]:
    """The (shift, sign) pair of each subset T of d's primes: shift is the
    sum over T of d/p and sign is (-1)^|T|.  A length-d vector g is a
    multiple of Phi_d modulo x^d - 1 iff each lag difference
    sum of sign * g[(j - shift) mod d], for j in [d - phi(d), d), is 0
    (``_columns`` says why)."""
    lags = [(0, 1)]
    for p in polycyc.factorize(d):
        lags += [(s + d // p, -sign) for s, sign in lags]
    return lags


def prob_divisor_general(d: int, n: int, q: Fraction,
                         budget: int = ENUMERATION_BUDGET) -> Fraction:
    """Exact divisor probability for any d | n, d >= 2, by a CRT image sum.

    Phi_d(x) = Phi_k(x^e) for k = rad d and e = d/k, so P(d, n) = P(k, n/e)^e
    over the e independent sub-rows s[j::e] of the fold.  For k = p*m, p the
    largest prime, Phi_k divides a row iff its p sub-rows of length m share
    one image in Z[x]/Phi_m (de Bruijn 1953), so P(k, n/e) = sum_v pi_m(v)^p
    for pi_m the image law under iid Binomial(w, q) entries, w = n/d: the
    binomial power sum when m = 1, else the convolution of the m coordinate
    laws, folded in one at a time.  The image of a sub-row is its lag key:
    the top phi(m) lag differences (``_lags``), all 0 iff Phi_m divides it,
    as balanced digits of one int in base R = w * 2^omega(m) + 1.  Entries
    in [0, w] keep each difference within +-(R - 1)/2, so the digits are
    unique and equal keys are equal images.  Refuses exponent n by
    ``binomstats.check_exponent``, and a fold step once a lower bound on the
    candidates of the full run, exact at the last step, passes ``budget``.
    """
    _check_divisor(d, n)
    binomstats.check_exponent(n, q, f"divisor d={d} of n={n} needs exponent {n}")
    *rest, p = sorted(polycyc.factorize(d))
    m = math.prod(rest)
    e, w = d // (p * m), n // d
    if m == 1:
        return binomstats.power_sum_exact(w, p, q) ** e
    # Unit vector e_i adds sign * R^(j - r) at each lag position j >= r.
    # Each image keeps its k = 0 term, so the law never shrinks; a step that
    # reaches a lag position no earlier step reached puts k * sign in [-w, w]
    # at a digit that is 0 in every key, so the law grows by exactly w + 1.
    lags = _lags(m)
    r, radix = m - polycyc.totient(m), w * len(lags) + 1
    reaches, growth, seen = [], [], set()
    for i in range(m):
        reach = {j: sign for shift, sign in lags if (j := (i + shift) % m) >= r}
        growth.append(w + 1 if reach.keys() - seen else 1)
        seen |= reach.keys()
        reaches.append(reach)
    # tail[i]: candidates steps i.. visit at least, for each image
    tail = list(itertools.accumulate(reversed(growth), lambda t, g: w + 1 + g * t,
                                     initial=0))[::-1]
    law, visited, mass = {0: 1}, 0, []
    for reach, t in zip(reaches, tail):
        required = visited + len(law) * t
        if required > budget:
            raise BudgetExceededError(
                f"CRT image sum for d={d}, n={n} visits {required} "
                f"candidates (budget {budget})", required=required, budget=budget)
        # only a step that fits builds its int (step 0: the w + 1 masses too)
        mass = mass or list(binomstats.mass_numerators(w, q))
        step = sum(sign * radix ** (j - r) for j, sign in reach.items())
        visited += len(law) * (w + 1)
        folded: dict[int, int] = {}
        for image, num in law.items():
            for k, mk in enumerate(mass):
                key = image + k * step
                folded[key] = folded.get(key, 0) + num * mk
        law = folded
    log.debug("CRT image sum d=%d n=%d: kept %d of %d candidates",
              d, n, len(law), visited)
    total = sum(num ** p for num in law.values())
    return Fraction(total, q.denominator ** (m * w * p)) ** e


def prob_bounds(d: int, n: int, q: Fraction) -> tuple[Fraction | None, Fraction]:
    """Bounds M(q,n/d)^d <= P(d) <= M(q,n/d)^phi(d); lower only for prime d."""
    _check_divisor(d, n)
    binomstats.check_exponent(n, q, f"bounds for d={d} of n={n} need exponent {n}")
    mx = binomstats.binom_max(n // d, q)
    upper = mx ** polycyc.totient(d)
    lower = mx ** d if polycyc.is_prime(d) else None
    return lower, upper


def divisor_bounds(n: int, q: Fraction) -> dict[int, tuple[Fraction | None, Fraction]]:
    """``prob_bounds`` for every divisor d >= 2 of n, keyed by d ascending.
    Each has exponent n, which is refused before n is factored."""
    binomstats.check_exponent(n, q, f"bounds for n={n} need exponent {n}")
    return {d: prob_bounds(d, n, q) for d in polycyc.divisors(n) if d >= 2}


def prob_union_closed_form(n: int, q: Fraction) -> Fraction | None:
    """Exact binary union probability for n in {p, p^2, p*r}; else None.

    For these n the union is that of the prime-power events Phi_d | f, d = p^a
    dividing n (the d = 1 and d = n = p*r events lie inside them), and any two
    of those meet only in the two constant rows: so the union is the sum of
    P(d, n), each the engine's binomial power sum, less (k - 1) times
    q^n + (1-q)^n, for k such d.  Refuses exponent n by
    ``binomstats.check_exponent``.
    """
    fac = polycyc.factorize(n)
    binomstats._check_exact_q(q)
    if sorted(fac.values()) not in ([1], [2], [1, 1]):
        return None
    binomstats.check_exponent(n, q, f"closed-form union for n={n} needs exponent {n}")
    events = [p ** a for p, k in fac.items() for a in range(1, k + 1)]
    union = sum(prob_divisor_general(d, n, q) for d in events)
    if len(events) > 1:
        union -= (len(events) - 1) * (q ** n + (1 - q) ** n)
    return union


#: float32 represents every integer of magnitude below this bound exactly.
FLOAT32_EXACT = 1 << 24


# Each command uses one n, and n = 16384 alone takes 112 MiB of columns:
# a library loop over many n keeps only the last few.
@functools.lru_cache(maxsize=4)
def _columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The float32 columns whose exact product with 0/1 rows of length n
    decides every divisor event, and the 0/1 matrix that groups them by
    divisor (``_hits``).

    For d | n, w = n/d and r = d - phi(d), let g be the fold of a row to
    length d.  P_d = prod over the primes p of d of (x^(d/p) - 1) is prime
    to Phi_d and a multiple of Psi_d = (x^d - 1)/Phi_d, so g * P_d mod
    x^d - 1 is Psi_d * h with deg h < phi(d), and h = 0 iff Phi_d divides
    the row.  Psi_d is monic of degree r, so that is iff every coordinate
    j in [r, d) of the product, sum over subsets T of d's primes of
    (-1)^|T| g[(j - sum_T d/p) mod d], is 0.  With fold entries in [0, w],
    each takes one of R = w * 2^omega(d) + 1 values.  ``per`` consecutive
    coordinates, the most with R^per <= ``FLOAT32_EXACT``, share a column
    with place values 1, R, R^2, ..., so by mixed-radix uniqueness its
    product is 0 iff each coordinate is; every partial sum over a 0/1 row
    is at most the column's absolute sum, below R^per, so float32 BLAS is
    exact.  d = 1 has no primes: its column of ones gives the weight.  An
    R past ``FLOAT32_EXACT``, or columns past ``COLUMN_BYTES``, are refused
    before any column is built; columns that must pass it, at least
    4n * ceil(n/24) bytes (a column holds at most 24 coordinates, and the
    phi(d) coordinates add up to n), are refused before n is factored.
    """
    def refuse_past_bytes(columns: int, least: str = "") -> None:
        if 4 * n * columns > COLUMN_BYTES:
            raise BudgetExceededError(
                f"mask columns for n={n} take {least}{4 * n * columns} bytes "
                f"(budget {COLUMN_BYTES})",
                required=4 * n * columns, budget=COLUMN_BYTES)

    refuse_past_bytes(-(-n // (FLOAT32_EXACT.bit_length() - 1)), "at least ")
    divisors = polycyc.divisors(n)
    layout, owner = [], []
    for i, d in enumerate(divisors):
        lags = _lags(d)
        span = n // d * len(lags)
        if span >= FLOAT32_EXACT:
            raise BudgetExceededError(
                f"float32 lag-difference test for d={d} with fold entries "
                f"up to {n // d} reaches {span} (exact below {FLOAT32_EXACT})",
                required=span, budget=FLOAT32_EXACT)
        per = max(k for k in range(1, FLOAT32_EXACT.bit_length())
                  if (span + 1) ** k <= FLOAT32_EXACT)
        phi = polycyc.totient(d)
        layout.append((d, lags, span + 1, per, phi, len(owner)))
        owner += [i] * -(-phi // per)
    refuse_past_bytes(len(owner))
    cols = np.zeros((n, len(owner)), dtype=np.float32)
    for d, lags, radix, per, phi, at in layout:
        t = np.arange(phi)
        col, place = at + t // per, (radix ** (t % per)).astype(np.float32)
        for shift, sign in lags:
            cols[(d - phi + t - shift) % d, col] += sign * place
        own = slice(at, col[-1] + 1)
        cols.reshape(n // d, d, -1)[1:, :, own] = cols[:d, own]
    group = np.zeros((len(owner), len(divisors)), dtype=np.float32)
    group[np.arange(len(owner)), owner] = 1
    return cols, group


def _hits(prod: np.ndarray, n: int, model: str) -> np.ndarray:
    """Per-divisor verdicts from ``prod``, the product of 0/1 rows with the
    ``_columns(n)`` columns: row k of the (tau(n), rows) result says for
    each row whether Phi_d, d = divisors(n)[k], divides it.

    ``prod`` is overwritten by its absolute value, which leaves column 0,
    the weight, as it was.  A sum of nonnegative floats is 0 iff every term
    is, so the group matrix times ``abs(prod)`` is 0 exactly where all of
    d's columns are, at any magnitude.  Its d = 1 row is the weight, and
    holds where it is the model's ``_d1_weight``.
    """
    sums = _columns(n)[1].T @ np.abs(prod, out=prod).T
    hits = sums == 0
    d1 = _d1_weight(n, model)
    hits[0] = False if d1 is None else sums[0] == d1
    return hits


def singular_mask(bits: np.ndarray, model: str = "binary") -> np.ndarray:
    """Exact singularity verdicts for a batch of first rows.

    ``bits`` is an (m, n) array of 0/1 entries, one row per line.  The d = 1
    event is the model's ``_d1_weight``.  Phi_d divides the all-ones row J
    for every d >= 2 dividing n, so it divides the signed row 2b - J iff it
    divides b: both models test the 0/1 rows' folds by their lag
    differences.  One exact float32 BLAS product with the ``_columns``
    matrix decides every divisor at once (``_hits``).  Equivalent to
    ``polycyc.singular_divisors`` being nonempty, row by row.
    """
    _check_model(model)
    n = bits.shape[1]
    return _hits(bits.astype(np.float32) @ _columns(n)[0], n, model).any(axis=0)


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """All 2^k sums of subsets of the k ``rows``, as exact int64, by
    doubling: sum i adds the rows whose bits are set in i."""
    out = np.zeros((1 << len(rows), rows.shape[1]), dtype=np.int64)
    for j, row in enumerate(rows):
        np.add(out[:1 << j], row, out=out[1 << j:2 << j])
    return out


def _dense(keys: np.ndarray) -> np.ndarray:
    """The rank of each key among the distinct keys."""
    return np.unique(keys, return_inverse=True)[1]


def _matched(lo: np.ndarray, hi: np.ndarray, bound: int):
    """Join keys in [0, bound) of the two halves' rows: the dense ids of the
    keys found on both sides, per kept row, the masks of the kept rows on
    each side, and the number of ids.  Keys are ranked by a table of
    ``bound`` flags, or by sorting when ``bound`` passes four times the
    rows."""
    if bound > 4 * (len(lo) + len(hi)):
        ids = _dense(np.concatenate((lo, hi)))
        lo, hi, bound = ids[:len(lo)], ids[len(lo):], len(ids)
    on = np.zeros((2, bound), dtype=bool)
    on[0, lo] = on[1, hi] = True
    both = on[0] & on[1]
    rank = np.cumsum(both) - 1
    keep_lo, keep_hi = both[lo], both[hi]
    return (rank[lo[keep_lo]], rank[hi[keep_hi]], keep_lo, keep_hi,
            int(np.count_nonzero(both)))


def _by_weight(ids: np.ndarray, weight: np.ndarray, classes: int,
               width: int) -> np.ndarray:
    """Rows per (class, weight), as a float64 (classes, width) table."""
    return np.bincount(ids * width + weight, np.ones(len(ids)),
                       classes * width).reshape(classes, width)


@functools.lru_cache(maxsize=64)
def _singular_weight_counts(n: int, model: str = "binary") -> tuple[int, ...]:
    """Count singular rows among all 2^n, grouped by number of one bits, by
    a meet-in-the-middle join (Horowitz and Sahni 1974).

    Each ``_columns`` column is a linear integer function of the row, so a
    row with low half x (bits below L = floor(n/2)) and high half y has
    column value col(x) + col(y), and Phi_d divides it iff col(x) = -col(y)
    in every column of d.  The 2^L sums over x and the 2^(n-L) over y are
    built by doubling (``_subset_sums``); column 0 is the weight.  Each
    d >= 2 gets a dense id of its column values over x and -y, so equal
    ids on the two sides are exactly the rows in its event.

    The union of the d >= 2 events is a signed inclusion-exclusion over
    the sets S of them, walked depth first: each set refines its parent's
    classes by one divisor's ids, drops the classes found on one side only
    (no superset of S can match there), and counts its rows by weight as
    the anti-diagonal sums of Cl.T @ Ch, Cl and Ch the (class, weight)
    tables of the two sides.  Every entry is at most 2^n, so float64 is
    exact for n <= 53, where the packed keys, below (2^(n-L+1))^2, fit
    int64; past that the counts are refused.  The d = 1 event is every row
    of the model's ``_d1_weight``.
    """
    if n > 53:
        raise BudgetExceededError(
            f"exhaustive union counts for n={n} reach 2^{n}, past float64's "
            f"exact integers (n <= 53)", required=n, budget=53)
    cols, group = _columns(n)
    cols, low = cols.astype(np.int64), n // 2
    lo, hi = _subset_sums(cols[:low]), _subset_sums(cols[low:])
    events = []
    for own in group[:, 1:].T:
        ids = np.zeros(len(lo) + len(hi), dtype=np.int64)
        for c in np.flatnonzero(own):
            # col takes fewer than span values, so (id, col) -> id * span + col
            # is one to one
            col = np.concatenate((lo[:, c], -hi[:, c]))
            ids = _dense(ids * (int(col.max()) - int(col.min()) + 1) + col)
        events.append((ids[:len(lo)], ids[len(lo):], int(ids.max()) + 1))
    # the weight of each (low weight, high weight) entry of a term's table
    weight = (np.arange(low + 1)[:, None] + np.arange(n - low + 1)).ravel()
    counts = [0] * (n + 1)

    def join(first, sign, lo_rows, hi_rows, lo_cls, hi_cls, classes):
        for k in range(first, len(events)):
            lo_ids, hi_ids, size = events[k]
            lo_new, hi_new, keep_lo, keep_hi, new = _matched(
                lo_cls * size + lo_ids[lo_rows], hi_cls * size + hi_ids[hi_rows],
                classes * size)
            rows = lo_rows[keep_lo], hi_rows[keep_hi]
            table = (_by_weight(lo_new, lo[rows[0], 0], new, low + 1).T
                     @ _by_weight(hi_new, hi[rows[1], 0], new, n - low + 1))
            for w, c in enumerate(np.bincount(weight, table.ravel(), n + 1).tolist()):
                counts[w] += sign * int(c)
            join(k + 1, -sign, *rows, lo_new, hi_new, new)

    join(0, 1, np.arange(len(lo)), np.arange(len(hi)),
         np.zeros(len(lo), dtype=np.int64), np.zeros(len(hi), dtype=np.int64), 1)
    w = _d1_weight(n, model)
    if w is not None:
        counts[w] = math.comb(n, w)
    return tuple(counts)


def _join_scans(n: int) -> int:
    """The k of the 2^k half-row scans the exhaustive union spends at most:
    2^tau(n) sets of divisor events, each scanning at most the 2^ceil(n/2)
    rows of a half.  Pruning only lowers it."""
    return math.prod(k + 1 for k in polycyc.factorize(n).values()) + (n + 1) // 2


def _join_fits(n: int, budget: int) -> bool:
    """Whether the join's 2^``_join_scans(n)`` half-row scans are within
    ``budget``, decided by bit lengths without forming the power.  An n
    whose half alone is past ``budget`` is refused before it factorizes."""
    bits = budget.bit_length()
    return budget > 0 and (n + 1) // 2 < bits and _join_scans(n) < bits


def prob_union_bruteforce(n: int, q: Fraction, model: str = "binary",
                          budget: int = BRUTEFORCE_BUDGET) -> Fraction:
    """Exact union probability from the singular rows of all 2^n, counted
    by weight (``_singular_weight_counts``), whose 2^``_join_scans(n)``
    half-row scans are counted against ``budget``.

    Each row is weighted q^w (1-q)^(n-w) where w counts the one bits of
    the underlying Bernoulli vector, in both models.
    """
    _check_model(model, n)
    binomstats.check_exponent(n, q, f"brute force for n={n} needs exponent {n}")
    if not _join_fits(n, budget):
        scans = _join_scans(n)
        raise BudgetExceededError(
            f"brute force for n={n} needs 2^{scans} half-row scans "
            f"(budget {budget})", required=1 << scans, budget=budget)
    counts, a, b = _singular_weight_counts(n, model), q.numerator, q.denominator
    return Fraction(sum(c * a ** w * (b - a) ** (n - w)
                        for w, c in enumerate(counts) if c), b ** n)


def divisor_probability(d: int, n: int, q: Fraction, model: str = "binary",
                        budget: int = ENUMERATION_BUDGET) -> DivisorProbability:
    """Single divisor probability with the method that produced it: the one
    dispatch on d's factorization (the models differ only at d = 1)."""
    _check_divisor(d, n, trivial=True)
    w = _d1_weight(n, model)
    binomstats._check_exact_q(q)
    if d == 1:
        value = Fraction(0) if w is None else binomstats.binom_pdf_exact(w, n, q)
        method = "trivial-d1"
    else:
        value = prob_divisor_general(d, n, q, budget)
        fac = polycyc.factorize(d)
        if len(fac) > 1:
            method = "crt-image-sum"
        else:
            method = "prime-closed-form" if d in fac else "prime-power-closed-form"
    return DivisorProbability(d=d, n=n, q=q, value=value, method=method)


def exact_union(n: int, q: Fraction, model: str = "binary",
                budget: int = BRUTEFORCE_BUDGET) -> tuple[Fraction | None, str]:
    """Exact union and provenance: the closed form if the d = 1 event adds
    no row to the d >= 2 union, else the weight counts if their half-row
    scans are within ``budget``, else None with ``absent-over-budget``.
    Every rung has exponent n, so past the exponent budget the answer is
    absent before any rung factors n.  Any other rung's refusal (the counts
    stop at n = 53) answers absent too: no budget error for a well-formed n."""
    d1 = _d1_weight(n, model)
    try:
        binomstats.check_exponent(n, q, f"exact union for n={n} needs exponent {n}")
        if d1 in (0, None):
            value = prob_union_closed_form(n, q)
            if value is not None:
                return value, "closed-form"
        if _join_fits(n, budget):
            return prob_union_bruteforce(n, q, model, budget), "brute-force"
    except BudgetExceededError:
        pass
    return None, "absent-over-budget"


def report(n: int, q: Fraction, model: str = "binary", *,
           enum_budget: int = ENUMERATION_BUDGET,
           brute_budget: int = BRUTEFORCE_BUDGET) -> ProbabilityReport:
    """Full singularity report for dimension n: per-divisor values, bounds,
    and the exact union via the best available strategy.

    Every value has exponent n, so ``binomstats.check_exponent`` refuses it whole.
    Below that, divisors over the work budget are listed in ``omitted`` and an
    out-of-budget union is left absent with provenance recording why.
    """
    binomstats.check_exponent(n, q, f"report for n={n} needs exponent {n}")
    union, provenance = exact_union(n, q, model, brute_budget)
    per: list[DivisorProbability] = []
    omitted: list[tuple[int, str]] = []
    for d in polycyc.divisors(n):
        try:
            per.append(divisor_probability(d, n, q, model, enum_budget))
        except BudgetExceededError as exc:
            omitted.append((d, str(exc)))
    return ProbabilityReport(n=n, q=q, model=model, exact_union=union,
                             per_divisor=tuple(per), bounds=divisor_bounds(n, q),
                             provenance=provenance, omitted=tuple(omitted))
