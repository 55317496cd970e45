"""Monte-Carlo estimation of singularity probabilities.

Sampling uses the Philox 4x64-10 counter-based generator (numpy's Philox
bit generator).  The stream is laid out per sample: sample i always owns
the counter blocks [i * bps, (i+1) * bps) where bps = ceil(n/4), and each
entry comes from a 53-bit uniform threshold comparison against q, made in
integers: (x >> 11) * 2^-53 < q holds iff x < ceil(q * 2^53) * 2^11 for the
raw 64-bit output x, so no float uniforms are formed.  Because
the layout depends only on (seed, n, sample index), any range of samples
can be generated independently from (seed, start, count) without
coordination.

Rows are drawn in byte-bounded slices of the global range [0, samples) on
worker threads, one per CPU in the process's affinity mask (Philox
releases the interpreter lock while it fills a buffer), and the calling
thread tests the finished slices in order.  The count is an integer sum
over the rows, so it depends on neither the slicing nor the number of
workers.  The shard count is recorded in the estimate; it changes neither
the rows nor the slicing.
"""
from __future__ import annotations

import dataclasses
import math
import os
from collections import deque
from itertools import islice

import numpy as np

from . import binomstats, singexact

GENERATOR = "philox-4x64-10"

#: Byte bound on the raw Philox bytes of one slice.  1 MiB: each worker
#: thread draws one slice at a time, so raw bytes stay at 1 MiB per CPU.
#: (A 16 MiB slice, once freed, raised glibc's dynamic mmap threshold past
#: it, and later slices came from a heap that kept them.)
BATCH_BYTES = 1 << 20


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
    generator: str = GENERATOR


def _sample_bits(seed: int, n: int, start: int, count: int, q: float) -> np.ndarray:
    """Bernoulli rows for samples [start, start+count) of the global stream."""
    bps = -(-n // 4)  # blocks per sample; one block is 4 uint64 outputs
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start * bps)
    raw = bitgen.random_raw(count * bps * 4)
    # The 53-bit test in integers (see the module docstring); q < 1 keeps
    # the threshold below 2^64.  The bool result is viewed, not copied, as 0/1.
    threshold = np.uint64(math.ceil(q * 2.0 ** 53) << 11)
    return (raw.reshape(count, bps * 4)[:, :n] < threshold).view(np.int8)


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def sample_singularity(n: int, q, samples: int, seed: int,
                       model: str = "binary", shards: int = 1) -> EstimateWithCI:
    """Estimate the singularity probability from `samples` i.i.d. rows.

    Every sampled row is tested exactly by ``singexact.singular_mask``, one
    float32 product that decides every divisor, equivalent to
    ``polycyc.singular_divisors``.  Fixed (seed, samples) give a
    bit-identical count for any number of worker threads; the mask runs on
    the calling thread.  ``shards`` is validated and recorded, but the rows
    and their slices do not depend on it.
    """
    singexact._check_model(model, n)
    if samples < 1:
        raise ValueError("samples must be positive")
    if shards < 1:
        raise ValueError("shards must be positive")
    if shards > samples:
        raise ValueError(f"shards={shards} exceeds samples={samples}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in 64 bits")
    qf = binomstats._check_float_q(q)
    singexact._columns(n)  # built, or refused, before any row is drawn

    # Each slice draws at most BATCH_BYTES raw Philox bytes (one row takes
    # 32 * ceil(n/4)) from the global range [0, samples).  Slices are
    # submitted lazily and counted by ceiling division: the sample count
    # is unbounded.
    rows = max(1, BATCH_BYTES // (32 * -(-n // 4)))
    workers = min(_cpus(), -(-samples // rows))
    # imported on first use: it adds about 3 ms and 0.3 MB to every command
    from concurrent.futures import ThreadPoolExecutor
    count = 0
    pool = ThreadPoolExecutor(workers, thread_name_prefix="circsing-mc")
    try:
        # workers draw the next slices while this thread tests the oldest,
        # so at most workers + 1 slices are in flight
        draws = (pool.submit(_sample_bits, seed, n, start,
                             min(rows, samples - start), qf)
                 for start in range(0, samples, rows))
        pending = deque(islice(draws, workers))
        while pending:
            bits = pending.popleft().result()
            pending.extend(islice(draws, 1))
            count += int(singexact.singular_mask(bits, model).sum())
    finally:  # on any error, drop the slices not yet started, then join
        pool.shutdown(cancel_futures=True)

    p_hat = count / samples
    stderr = math.sqrt(p_hat * (1 - p_hat) / samples)
    return EstimateWithCI(p_hat=p_hat, stderr=stderr, samples=samples,
                          singular_count=count, seed=seed, model=model,
                          n=n, q=qf, shards=shards)
