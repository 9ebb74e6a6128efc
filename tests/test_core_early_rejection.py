"""Tests for QSR (Algorithm 1) and CMR policies, and read quality control."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basecalling.types import BasecalledChunk, BasecalledRead
from repro.core.early_rejection import CMRPolicy, QSRPolicy, qsr_sample_indices
from repro.qc import QCConfig, apply_qc, passes_qc


def _chunk(index: int, quality: float, n: int = 300) -> BasecalledChunk:
    return BasecalledChunk(index, np.zeros(n, dtype=np.uint8), np.full(n, quality), n)


class TestQsrSampleIndices:
    def test_two_samples_are_ends(self):
        assert qsr_sample_indices(10, 2) == [0, 9]

    def test_single_sample(self):
        assert qsr_sample_indices(10, 1) == [0]

    def test_single_chunk(self):
        assert qsr_sample_indices(1, 5) == [0]

    def test_more_samples_than_chunks(self):
        assert qsr_sample_indices(3, 6) == [0, 1, 2]

    def test_even_spread(self):
        indices = qsr_sample_indices(100, 5)
        assert indices == [0, 25, 50, 74, 99]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            qsr_sample_indices(0, 2)
        with pytest.raises(ValueError):
            qsr_sample_indices(10, 0)

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=10))
    @settings(max_examples=80)
    def test_properties(self, n_chunks, n_qs):
        indices = qsr_sample_indices(n_chunks, n_qs)
        # Sorted, unique, in range, at most n_qs, non-consecutive spread
        # when there is room.
        assert indices == sorted(set(indices))
        assert all(0 <= i < n_chunks for i in indices)
        assert len(indices) <= n_qs
        if n_qs >= 2 and n_chunks >= 2:
            assert indices[0] == 0
            assert indices[-1] == n_chunks - 1


class TestQSRPolicy:
    def test_rejects_low_quality(self):
        policy = QSRPolicy(theta_qs=7.0, n_qs=2)
        decision = policy.decide([_chunk(0, 4.0), _chunk(9, 5.0)])
        assert decision.reject
        assert decision.average_quality == pytest.approx(4.5)

    def test_accepts_high_quality(self):
        policy = QSRPolicy(theta_qs=7.0, n_qs=2)
        decision = policy.decide([_chunk(0, 11.0), _chunk(9, 12.0)])
        assert not decision.reject

    def test_boundary_inclusive_pass(self):
        policy = QSRPolicy(theta_qs=7.0)
        assert not policy.decide([_chunk(0, 7.0)]).reject

    def test_base_weighted_average(self):
        # A 600-base chunk counts twice as much as a 300-base chunk.
        policy = QSRPolicy(theta_qs=7.0)
        decision = policy.decide([_chunk(0, 3.0, n=600), _chunk(1, 12.0, n=300)])
        assert decision.average_quality == pytest.approx((3.0 * 600 + 12.0 * 300) / 900)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            QSRPolicy().decide([])

    def test_records_sampled_indices(self):
        decision = QSRPolicy().decide([_chunk(0, 9.0), _chunk(7, 9.0)])
        assert decision.sampled_indices == (0, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            QSRPolicy(theta_qs=-1.0)
        with pytest.raises(ValueError):
            QSRPolicy(n_qs=0)


class TestCMRPolicy:
    def test_rejects_low_chain_score(self):
        policy = CMRPolicy(theta_cm=0.15, n_cm=5)
        decision = policy.decide(chain_score=10.0, merged_bases=1500)
        assert decision.reject
        assert decision.threshold == pytest.approx(225.0)

    def test_accepts_high_chain_score(self):
        policy = CMRPolicy(theta_cm=0.15, n_cm=5)
        assert not policy.decide(chain_score=500.0, merged_bases=1500).reject

    def test_merged_indices_continuous(self):
        policy = CMRPolicy(n_cm=5)
        assert policy.merged_chunk_indices(20) == [0, 1, 2, 3, 4]
        assert policy.merged_chunk_indices(3) == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            CMRPolicy(theta_cm=-0.1)
        with pytest.raises(ValueError):
            CMRPolicy(n_cm=0)
        with pytest.raises(ValueError):
            CMRPolicy().decide(1.0, -5)

    @given(
        st.floats(min_value=0.0, max_value=1000.0),
        st.integers(min_value=0, max_value=5000),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=50)
    def test_threshold_monotonicity(self, score, bases, theta):
        policy = CMRPolicy(theta_cm=theta)
        decision = policy.decide(score, bases)
        assert decision.reject == (score < theta * bases)


class TestReadQC:
    def _read(self, quality: float) -> BasecalledRead:
        return BasecalledRead("r", np.tile(np.arange(4, dtype=np.uint8), 10), np.full(40, quality), 1)

    def test_passes_above_threshold(self):
        assert passes_qc(self._read(9.0))
        assert not passes_qc(self._read(5.0))

    def test_threshold_boundary(self):
        assert passes_qc(self._read(7.0), QCConfig(theta_qs=7.0))

    def test_apply_qc_partitions(self):
        reads = [self._read(q) for q in (3.0, 8.0, 6.9, 12.0)]
        result = apply_qc(reads)
        assert len(result.passed) == 2
        assert len(result.failed) == 2
        assert result.pass_fraction == pytest.approx(0.5)

    def test_apply_qc_empty(self):
        assert apply_qc([]).pass_fraction == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QCConfig(theta_qs=-2.0)
