import math
from fractions import Fraction

import numpy as np
import pytest

from circsing import mcsim
from circsing.mcsim import EstimateWithCI, sample_singularity, shard_sizes
from circsing.polycyc import FirstRow, singular_divisors
from circsing.singexact import prob_union_bruteforce

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

    def test_shard_sizes_fixed_layout(self):
        assert shard_sizes(10, 4) == [3, 3, 2, 2]
        assert shard_sizes(8, 4) == [2, 2, 2, 2]
        assert sum(shard_sizes(99_999, 16)) == 99_999


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

    def test_json_provenance(self):
        est = sample_singularity(4, 0.5, 1000, seed=7, shards=2, q_source="1/2")
        data = est.to_json_dict()
        assert data["generator"] == "philox-4x64-10"
        assert data["seed"] == 7
        assert data["shards"] == 2
        assert data["q_source"] == "1/2"

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

    def test_slicing_inside_shard_matches_layout(self, monkeypatch):
        whole = mcsim._sample_bits(seed=3, n=5, start=0, count=1000, q=0.5)
        parts = np.vstack([
            mcsim._sample_bits(seed=3, n=5, start=0, count=400, q=0.5),
            mcsim._sample_bits(seed=3, n=5, start=400, count=600, q=0.5),
        ])
        assert np.array_equal(whole, parts)
        # n = 5 takes two Philox blocks of 32 bytes per row, so a 7-row byte
        # bound cuts each shard into slices of at most 7 rows
        unsliced = sample_singularity(5, 0.5, 1000, seed=3, shards=3)
        steps = []
        sample_bits = mcsim._sample_bits

        def recording_sample_bits(seed, n, start, count, q):
            steps.append(count)
            return sample_bits(seed, n, start, count, q)
        monkeypatch.setattr(mcsim, "_sample_bits", recording_sample_bits)
        monkeypatch.setattr(mcsim, "_SLICE_BYTES", 7 * 64 + 63)
        sliced = sample_singularity(5, 0.5, 1000, seed=3, shards=3)
        assert sliced == unsliced
        assert max(steps) == 7 and sum(steps) == 1000
