"""Tests for chunk types, chunk arithmetic, and the surrogate basecaller."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basecalling import (
    BasecalledChunk,
    SurrogateBasecaller,
    SurrogateConfig,
    chunk_bounds,
    chunk_span,
    n_chunks,
    reassemble_chunks,
)
from repro.genomics.alphabet import encode
from repro.genomics.mutate import ErrorProfile
from repro.genomics.reference import ReferenceGenome
from repro.nanopore.read_simulator import ReadSimulator, SimulatorConfig


@pytest.fixture(scope="module")
def reads():
    ref = ReferenceGenome.random(80_000, seed=21)
    config = SimulatorConfig(
        median_length=2_000, mean_length=2_100, min_length=600, max_length=6_000
    )
    return ReadSimulator(ref, config, seed=22).sample_reads(12)


class TestChunkBounds:
    def test_exact_multiple(self):
        assert chunk_bounds(900, 300) == [(0, 300), (300, 600), (600, 900)]

    def test_remainder_goes_to_last(self):
        assert chunk_bounds(750, 300) == [(0, 300), (300, 600), (600, 750)]

    def test_short_read_single_chunk(self):
        assert chunk_bounds(100, 300) == [(0, 100)]

    def test_empty_read(self):
        assert chunk_bounds(0, 300) == [(0, 0)]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            chunk_bounds(100, 0)
        with pytest.raises(ValueError):
            chunk_bounds(-1, 300)

    @given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=1, max_value=700))
    @settings(max_examples=60)
    def test_partition_property(self, total, chunk):
        bounds = chunk_bounds(total, chunk)
        # Contiguous, ordered, covering partition of [0, total).
        assert bounds[0][0] == 0
        assert bounds[-1][1] == total
        for (a0, a1), (b0, _b1) in zip(bounds, bounds[1:], strict=False):
            assert a1 == b0
            assert a1 - a0 == chunk
        assert all(end > start for start, end in bounds)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=700))
    @settings(max_examples=60)
    def test_span_agrees_with_bounds(self, total, chunk):
        bounds = chunk_bounds(total, chunk)
        expected = [(s, min(s + chunk, total)) for s in range(0, total, chunk)] or [(0, 0)]
        assert bounds == expected
        assert n_chunks(total, chunk) == len(bounds)
        for index, span in enumerate(bounds):
            assert chunk_span(total, chunk, index) == span
        for index in (-1, len(bounds)):
            with pytest.raises(ValueError, match="out of range"):
                chunk_span(total, chunk, index)


class TestBasecalledChunk:
    def test_sum_quality_is_sqs(self):
        chunk = BasecalledChunk(0, encode("ACGT"), np.array([5.0, 6.0, 7.0, 8.0]), 4)
        assert chunk.sum_quality == pytest.approx(26.0)
        assert chunk.mean_quality == pytest.approx(6.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BasecalledChunk(0, encode("ACGT"), np.array([5.0]), 4)

    def test_empty_chunk(self):
        chunk = BasecalledChunk(0, encode(""), np.empty(0), 0)
        assert chunk.mean_quality == 0.0
        assert chunk.sum_quality == 0.0


class TestReassembly:
    def test_order_enforced(self):
        chunks = [
            BasecalledChunk(1, encode("AC"), np.array([1.0, 2.0]), 2),
            BasecalledChunk(0, encode("GT"), np.array([3.0, 4.0]), 2),
        ]
        with pytest.raises(ValueError):
            reassemble_chunks("r", chunks)

    def test_missing_chunk_detected(self):
        chunks = [
            BasecalledChunk(0, encode("AC"), np.array([1.0, 2.0]), 2),
            BasecalledChunk(2, encode("GT"), np.array([3.0, 4.0]), 2),
        ]
        with pytest.raises(ValueError):
            reassemble_chunks("r", chunks)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reassemble_chunks("r", [])

    def test_concatenation(self):
        chunks = [
            BasecalledChunk(0, encode("AC"), np.array([1.0, 2.0]), 2),
            BasecalledChunk(1, encode("GT"), np.array([3.0, 4.0]), 2),
        ]
        read = reassemble_chunks("r", chunks)
        assert read.bases == "ACGT"
        np.testing.assert_allclose(read.qualities, [1, 2, 3, 4])
        assert read.n_chunks == 2


class TestSurrogateBasecaller:
    def test_deterministic_per_chunk(self, reads):
        caller = SurrogateBasecaller()
        read = reads[0]
        a = caller.basecall_chunk(read, 1, 300)
        b = caller.basecall_chunk(read, 1, 300)
        assert a.bases == b.bases
        np.testing.assert_allclose(a.qualities, b.qualities)

    def test_chunks_independent_of_order(self, reads):
        """Chunk i's output never depends on which chunks ran before.

        This is the property that makes CP (chunk pipeline) equivalent
        to the conventional pipeline.
        """
        caller = SurrogateBasecaller()
        read = reads[1]
        n = caller.n_chunks(read, 300)
        forward = [caller.basecall_chunk(read, i, 300) for i in range(n)]
        backward = [caller.basecall_chunk(read, i, 300) for i in reversed(range(n))]
        for chunk in forward:
            match = next(c for c in backward if c.chunk_index == chunk.chunk_index)
            assert chunk.bases == match.bases

    def test_full_read_equals_chunk_concat(self, reads):
        caller = SurrogateBasecaller()
        read = reads[2]
        whole = caller.basecall_read(read, 300)
        chunks = [caller.basecall_chunk(read, i, 300) for i in range(caller.n_chunks(read, 300))]
        assert whole.bases == "".join(c.bases for c in chunks)
        assert whole.n_chunks == len(chunks)

    def test_output_length_near_truth(self, reads):
        caller = SurrogateBasecaller()
        for read in reads[:6]:
            called = caller.basecall_read(read, 300)
            # Indels roughly balance; length within 15%.
            assert abs(len(called) - len(read)) / len(read) < 0.15

    def test_error_rate_tracks_quality(self, reads):
        """Lower-quality reads must carry more errors."""
        caller = SurrogateBasecaller()
        read = reads[0]
        high_q = read.qualities.copy()
        # Build two synthetic variants of the same read at fixed quality.
        from dataclasses import replace

        q_high = replace(read, qualities=np.full_like(high_q, 15.0))
        q_low = replace(read, qualities=np.full_like(high_q, 4.0))
        called_high = caller.basecall_read(q_high, 300)
        called_low = caller.basecall_read(q_low, 300)
        errors_high = _rough_error_fraction(q_high.true_bases, called_high.bases)
        errors_low = _rough_error_fraction(q_low.true_bases, called_low.bases)
        assert errors_low > errors_high

    def test_emitted_quality_tracks_process(self, reads):
        caller = SurrogateBasecaller()
        read = reads[3]
        called = caller.basecall_read(read, 300)
        assert called.mean_quality == pytest.approx(read.mean_true_quality, abs=1.0)

    def test_chunk_index_out_of_range(self, reads):
        caller = SurrogateBasecaller()
        with pytest.raises(ValueError):
            caller.basecall_chunk(reads[0], 10**6, 300)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SurrogateConfig(error_scale=0.0)
        with pytest.raises(ValueError):
            SurrogateConfig(max_error_prob=0.0)

    def test_error_scale_zero_errors(self, reads):
        """With a tiny error scale the surrogate is near-perfect."""
        caller = SurrogateBasecaller(SurrogateConfig(error_scale=1e-9))
        read = reads[4]
        called = caller.basecall_read(read, 300)
        assert called.bases == read.true_bases

    def test_profile_respected(self, reads):
        """A deletion-only profile can only shorten the read."""
        profile = ErrorProfile(substitution=0.0, insertion=0.0, deletion=1.0)
        caller = SurrogateBasecaller(SurrogateConfig(profile=profile))
        read = reads[5]
        called = caller.basecall_read(read, 300)
        assert len(called) <= len(read)


def _rough_error_fraction(truth: str, called: str) -> float:
    """Cheap error estimate: 1 - matching 8-mer fraction."""
    kmers_truth = {truth[i : i + 8] for i in range(0, len(truth) - 8, 4)}
    kmers_called = {called[i : i + 8] for i in range(0, len(called) - 8, 4)}
    if not kmers_truth:
        return 0.0
    return 1.0 - len(kmers_truth & kmers_called) / len(kmers_truth)
