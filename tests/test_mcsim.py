import math
import os
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from circsing import cli, mcsim, singexact
from circsing.errors import BudgetExceededError
from circsing.mcsim import EstimateWithCI, sample_singularity
from circsing.polycyc import FirstRow, singular_divisors
from circsing.singexact import prob_union_bruteforce

import oracles

HALF = Fraction(1, 2)


class TestDeterminism:
    def test_rerun_is_bit_identical(self):
        a = sample_singularity(4, 0.5, 50_000, seed=42)
        b = sample_singularity(4, 0.5, 50_000, seed=42)
        assert a.singular_count == b.singular_count
        assert a == b

    def test_different_seeds_differ(self):
        a = sample_singularity(4, 0.5, 50_000, seed=1)
        b = sample_singularity(4, 0.5, 50_000, seed=2)
        assert a.singular_count != b.singular_count

    @pytest.mark.parametrize("samples", [99_999, 100_000])
    def test_shard_count_invariance(self, samples):
        counts = {shards: sample_singularity(6, 0.5, samples, seed=9,
                                             shards=shards).singular_count
                  for shards in (1, 4, 16)}
        assert len(set(counts.values())) == 1

    def test_shards_regenerate_from_seed_and_range(self):
        # each shard draws its own range alone, and the shard counts add up
        # to the count of the whole run
        for shards in (1, 4, 16):
            count = sum(int(singexact.singular_mask(
                mcsim._sample_bits(9, 6, start, size, 0.5), "binary").sum())
                for start, size in oracles.shard_ranges(99_999, shards))
            assert count == sample_singularity(6, 0.5, 99_999, seed=9,
                                               shards=shards).singular_count

    def test_one_row_shards_draw_byte_slices(self, monkeypatch):
        # n = 6 takes 64 bytes a row, so 20000 one-row shards are still
        # drawn in ceil(20000 / 16384) = 2 slices
        want = sample_singularity(6, 0.5, 20_000, seed=1).singular_count
        draws = []
        sample_bits = mcsim._sample_bits

        def recording_sample_bits(*args):
            draws.append(args)
            return sample_bits(*args)
        monkeypatch.setattr(mcsim, "_sample_bits", recording_sample_bits)
        est = sample_singularity(6, 0.5, 20_000, seed=1, shards=20_000)
        assert len(draws) == -(-20_000 // (mcsim.BATCH_BYTES // 64)) == 2
        assert est.singular_count == want and est.shards == 20_000


class TestRowGeneration:
    @pytest.mark.parametrize("q", [2.0 ** -40, 1 / 50, 1 / 3, 0.5, 1 - 2.0 ** -53])
    @pytest.mark.parametrize("n", [1, 3, 5, 127])
    def test_matches_float_threshold(self, n, q):
        got = mcsim._sample_bits(seed=11, n=n, start=4321, count=2000, q=q)
        want = oracles.sample_bits_by_uniforms(11, n, 4321, 2000, q)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_threshold_at_a_drawn_uniform(self):
        # q equal to a drawn uniform u: that entry is u < q, false, and the
        # next float above u makes it true
        raw = np.random.Philox(key=11).random_raw(1)
        u = float(raw[0] >> np.uint64(11)) * 2.0 ** -53
        for q in (u, math.nextafter(u, 1.0)):
            got = mcsim._sample_bits(seed=11, n=1, start=0, count=1, q=q)
            assert got[0, 0] == int(u < q)


class TestExactness:
    @pytest.mark.parametrize("model", ["binary", "signed"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_sampled_rows_tested_like_scalar_path(self, n, model):
        bits = mcsim._sample_bits(seed=5, n=n, start=0, count=500, q=0.5)
        from circsing.singexact import singular_mask
        mask = singular_mask(bits, model)
        for row_bits, got in zip(bits.tolist(), mask.tolist()):
            want = bool(singular_divisors(FirstRow(n, tuple(row_bits)),
                                          signed=(model == "signed")))
            assert got == want

    def test_signed_n3_is_all_entries_equal(self):
        est = sample_singularity(3, 0.5, 100_000, seed=17, model="signed")
        bits = mcsim._sample_bits(seed=17, n=3, start=0, count=100_000, q=0.5)
        all_equal = int(((bits == bits[:, :1]).all(axis=1)).sum())
        assert est.singular_count == all_equal
        assert abs(est.p_hat - 0.25) <= 4 * est.stderr


class TestAgainstExactValues:
    @pytest.mark.parametrize("n,exact", [(4, 0.5), (6, 7 / 16)])
    def test_binary_within_four_sigma(self, n, exact):
        est = sample_singularity(n, 0.5, 100_000, seed=123)
        assert abs(est.p_hat - exact) <= 4 * est.stderr

    def test_calibration_two_sigma_coverage(self):
        exact = 0.5
        covered = 0
        for seed in range(20):
            est = sample_singularity(4, 0.5, 100_000, seed=seed)
            if abs(est.p_hat - exact) <= 2 * est.stderr:
                covered += 1
        assert covered >= 17

    def test_asymmetric_q(self):
        exact = float(prob_union_bruteforce(6, Fraction(3, 10)))
        est = sample_singularity(6, 0.3, 100_000, seed=31)
        assert abs(est.p_hat - exact) <= 4 * est.stderr


class TestEstimateFields:
    def test_invariants(self):
        est = sample_singularity(4, 0.5, 10_000, seed=0, shards=4)
        assert est.p_hat == est.singular_count / est.samples
        assert est.stderr == math.sqrt(est.p_hat * (1 - est.p_hat) / est.samples)
        assert 0 <= est.p_hat <= 1

    @pytest.mark.parametrize("n", oracles.HUGE_N)
    def test_columns_refused_before_any_row(self, factor_limit, monkeypatch, n):
        # 4n bytes a column, at most 24 coordinates a column and n in all:
        # refused from n alone, before n is factored or a row is drawn
        factor_limit(0)

        def no_rows(*args):
            raise AssertionError("drew rows before the columns")
        monkeypatch.setattr(mcsim, "_sample_bits", no_rows)
        with pytest.raises(BudgetExceededError, match="take at least"):
            sample_singularity(n, 0.5, 1, seed=0)

    def test_json_provenance(self):
        est = sample_singularity(4, 0.5, 1000, seed=7, shards=2)
        data = cli.to_json(est)
        assert data["generator"] == "philox-4x64-10"
        assert data["seed"] == 7
        assert data["shards"] == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_singularity(4, 1.5, 100, seed=0)
        with pytest.raises(ValueError):
            sample_singularity(4, 0.5, 0, seed=0)
        with pytest.raises(ValueError):
            sample_singularity(4, 0.5, 100, seed=0, shards=0)
        with pytest.raises(ValueError):
            sample_singularity(4, 0.5, 3, seed=0, shards=4)
        with pytest.raises(ValueError):
            sample_singularity(0, 0.5, 100, seed=0)
        with pytest.raises(ValueError):
            sample_singularity(4, 0.5, 100, seed=2 ** 64)

    def test_byte_bounded_slices_of_range_match_layout(self, monkeypatch):
        whole = mcsim._sample_bits(seed=3, n=5, start=0, count=1000, q=0.5)
        parts = np.vstack([
            mcsim._sample_bits(seed=3, n=5, start=0, count=400, q=0.5),
            mcsim._sample_bits(seed=3, n=5, start=400, count=600, q=0.5),
        ])
        assert np.array_equal(whole, parts)
        # n = 5 takes two Philox blocks of 32 bytes per row, so a 7-row byte
        # bound cuts [0, samples) into slices of at most 7 rows, whatever
        # the shard count
        unsliced = sample_singularity(5, 0.5, 1000, seed=3, shards=3)
        steps = []
        sample_bits = mcsim._sample_bits

        def recording_sample_bits(seed, n, start, count, q):
            steps.append(count)
            return sample_bits(seed, n, start, count, q)
        monkeypatch.setattr(mcsim, "_sample_bits", recording_sample_bits)
        monkeypatch.setattr(mcsim, "BATCH_BYTES", 7 * 64 + 63)
        sliced = sample_singularity(5, 0.5, 1000, seed=3, shards=3)
        assert sliced == unsliced
        assert max(steps) == 7 and sum(steps) == 1000


# 7 rows of n = 5 (two Philox blocks of 32 bytes each) per slice, as in
# test_byte_bounded_slices_of_range_match_layout
SMALL_BATCH = 7 * 64 + 63


class TestWorkerThreads:
    @pytest.mark.parametrize("batch_bytes, samples",
                             [(mcsim.BATCH_BYTES, 40_000), (SMALL_BATCH, 2000)])
    @pytest.mark.parametrize("shards", [1, 3, 16])
    @pytest.mark.parametrize("model", ["binary", "signed"])
    @pytest.mark.parametrize("n", [4, 6, 60, 127])
    def test_count_independent_of_workers(self, monkeypatch, n, model, shards,
                                          batch_bytes, samples):
        monkeypatch.setattr(mcsim, "BATCH_BYTES", batch_bytes)
        bits = mcsim._sample_bits(seed=5, n=n, start=0, count=samples, q=0.3)
        want = int(singexact.singular_mask(bits, model).sum())
        default = sample_singularity(n, 0.3, samples, seed=5, model=model,
                                     shards=shards)
        drawers = set()
        sample_bits = mcsim._sample_bits

        def recording_sample_bits(*args):
            drawers.add(threading.get_ident())
            return sample_bits(*args)
        monkeypatch.setattr(mcsim, "_sample_bits", recording_sample_bits)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        one_worker = sample_singularity(n, 0.3, samples, seed=5, model=model,
                                        shards=shards)
        assert len(drawers) == 1
        assert default == one_worker and default.singular_count == want

    def test_mask_on_calling_thread(self, monkeypatch):
        # the mask runs where sample_singularity was called; rows are drawn
        # off it.  Three workers, more than a 2-core machine has CPUs.
        monkeypatch.setattr(mcsim, "BATCH_BYTES", SMALL_BATCH)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        lock = threading.Lock()
        masked, drawn, in_flight = [], [], []
        sample_bits, singular_mask = mcsim._sample_bits, singexact.singular_mask

        def recording_sample_bits(*args):
            with lock:
                drawn.append(threading.get_ident())
                in_flight.append(len(drawn) - len(masked))
            return sample_bits(*args)

        def recording_mask(bits, model):
            result = singular_mask(bits, model)
            with lock:
                masked.append(threading.get_ident())
            return result
        monkeypatch.setattr(mcsim, "_sample_bits", recording_sample_bits)
        monkeypatch.setattr(singexact, "singular_mask", recording_mask)
        est = sample_singularity(5, 0.5, 1000, seed=3, shards=3)
        me = threading.get_ident()
        assert len(masked) == len(drawn) == 143  # ceil(1000 / 7)
        assert set(masked) == {me} and me not in drawn
        assert max(in_flight) <= 3 + 1
        assert est.singular_count == int(singular_mask(
            mcsim._sample_bits(3, 5, 0, 1000, 0.5), "binary").sum())

    def test_memory_error_cancels_and_joins(self, monkeypatch, capsys):
        baseline = threading.active_count()
        monkeypatch.setattr(mcsim, "BATCH_BYTES", SMALL_BATCH)
        lock = threading.Lock()
        calls = []
        sample_bits = mcsim._sample_bits

        def failing_sample_bits(*args):
            with lock:
                calls.append(args)
                if len(calls) == 3:
                    raise MemoryError
            return sample_bits(*args)
        monkeypatch.setattr(mcsim, "_sample_bits", failing_sample_bits)
        with pytest.raises(MemoryError):
            sample_singularity(5, 0.5, 1000, seed=3)
        assert len(calls) < -(-1000 // 7)
        assert threading.active_count() == baseline

        calls.clear()
        assert cli.run(["mc", "--n", "5", "--q", "1/2", "--samples", "1000",
                        "--seed", "3"]) == 3
        assert capsys.readouterr() == ("", "error: out of memory\n")
        assert threading.active_count() == baseline

    def test_slices_are_not_listed_up_front(self, monkeypatch):
        # no sample cap in the library: 10^15 samples must not list their
        # slices before the first is drawn, and 10^25 samples, past
        # sys.maxsize slices, must not need their slices' len()
        def no_memory(*args):
            raise MemoryError
        monkeypatch.setattr(mcsim, "_sample_bits", no_memory)
        for samples in (10 ** 15, 10 ** 25):
            tracemalloc.start()
            try:
                began = time.perf_counter()
                with pytest.raises(MemoryError):
                    sample_singularity(127, 0.5, samples, seed=0)
                elapsed = time.perf_counter() - began
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert elapsed < 1 and peak < 1 << 20
