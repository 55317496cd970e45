"""Monte-Carlo estimation of singularity probabilities.

Sampling uses the Philox 4x64-10 counter-based generator (numpy's Philox
bit generator).  The stream is laid out per sample: sample i always owns
the counter blocks [i * bps, (i+1) * bps) where bps = ceil(n/4), and each
entry comes from a 53-bit uniform threshold comparison against q.  Because
the layout depends only on (seed, n, sample index), the singular count is
bit-identical for every shard count, and any shard can be generated
independently from (seed, shard range) without coordination.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import singexact

GENERATOR = "philox-4x64-10"

# Each slice of samples draws at most this many raw Philox bytes (one row
# takes 32 * ceil(n/4)), which bounds memory for every n.
_SLICE_BYTES = 1 << 24


@dataclasses.dataclass(frozen=True)
class EstimateWithCI:
    """Monte-Carlo estimate with its binomial standard error and provenance."""

    p_hat: float
    stderr: float
    samples: int
    singular_count: int
    seed: int
    model: str
    n: int
    q: float
    shards: int = 1
    q_source: str | None = None  # original spelling when q was given as a rational

    def to_json_dict(self) -> dict:
        out = {
            "p_hat": self.p_hat,
            "stderr": self.stderr,
            "samples": self.samples,
            "singular_count": self.singular_count,
            "seed": self.seed,
            "model": self.model,
            "n": self.n,
            "q": self.q,
            "shards": self.shards,
            "generator": GENERATOR,
        }
        if self.q_source is not None:
            out["q_source"] = self.q_source
        return out


def _sample_bits(seed: int, n: int, start: int, count: int, q: float) -> np.ndarray:
    """Bernoulli rows for samples [start, start+count) of the global stream."""
    bps = -(-n // 4)  # blocks per sample; one block is 4 uint64 outputs
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start * bps)
    raw = bitgen.random_raw(count * bps * 4)
    uniforms = (raw >> np.uint64(11)) * 2.0 ** -53
    return (uniforms.reshape(count, bps * 4)[:, :n] < q).astype(np.int8)


def shard_sizes(samples: int, shards: int) -> list[int]:
    """Fixed shard sizes: the remainder spreads over the leading shards."""
    base, extra = divmod(samples, shards)
    return [base + (1 if s < extra else 0) for s in range(shards)]


def sample_singularity(n: int, q, samples: int, seed: int,
                       model: str = "binary", shards: int = 1,
                       q_source: str | None = None) -> EstimateWithCI:
    """Estimate the singularity probability from `samples` i.i.d. rows.

    Every sampled row is tested exactly (fold plus lattice membership per
    divisor, equivalent to ``polycyc.singular_divisors``).  Fixed
    (seed, samples) give a bit-identical count for any shard split.
    """
    singexact._check_model(model)
    if n < 1:
        raise ValueError("n must be positive")
    if samples < 1:
        raise ValueError("samples must be positive")
    if shards < 1:
        raise ValueError("shards must be positive")
    if shards > samples:
        raise ValueError(f"shards={shards} exceeds samples={samples}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in 64 bits")
    qf = float(q)
    if not 0.0 < qf < 1.0:
        raise ValueError(f"q={q} must lie strictly between 0 and 1")

    rows = max(1, _SLICE_BYTES // (32 * -(-n // 4)))
    count = 0
    start = 0
    for size in shard_sizes(samples, shards):
        for offset in range(0, size, rows):
            step = min(rows, size - offset)
            bits = _sample_bits(seed, n, start + offset, step, qf)
            count += int(singexact.singular_mask(bits, model).sum())
        start += size

    p_hat = count / samples
    stderr = math.sqrt(p_hat * (1 - p_hat) / samples)
    return EstimateWithCI(p_hat=p_hat, stderr=stderr, samples=samples,
                          singular_count=count, seed=seed, model=model,
                          n=n, q=qf, shards=shards, q_source=q_source)
