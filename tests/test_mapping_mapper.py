"""Integration tests: the full mapper and the incremental chunk mapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basecalling import SurrogateBasecaller
from repro.genomics import alphabet
from repro.genomics.mutate import apply_errors
from repro.genomics.reference import ReferenceGenome
from repro.mapping import (
    IncrementalChunkMapper,
    Mapper,
    MapperConfig,
    MinimizerConfig,
    MinimizerIndex,
)
from repro.nanopore.read_simulator import ReadClass, ReadSimulator, SimulatorConfig


@pytest.fixture(scope="module")
def index():
    ref = ReferenceGenome.random(200_000, seed=17)
    return MinimizerIndex.build(ref, MinimizerConfig(k=13, w=10))


@pytest.fixture(scope="module")
def mapper(index):
    return Mapper(index)


class TestMapper:
    def test_exact_read_maps_to_origin(self, mapper, index):
        read = index.reference.fetch_bases(80_000, 86_000)
        result = mapper.map_read(read, "exact")
        assert result.mapped
        assert result.strand == 1
        assert abs(result.ref_start - 80_000) <= 20
        assert abs(result.ref_end - 86_000) <= 20
        assert result.identity > 0.99
        assert result.mapq > 30

    def test_noisy_read_maps(self, mapper, index):
        rng = np.random.default_rng(18)
        true = index.reference.fetch(120_000, 128_000)
        noisy = apply_errors(true, 0.12, rng)
        result = mapper.map_read(alphabet.decode(noisy.codes), "noisy")
        assert result.mapped
        assert abs(result.ref_start - 120_000) < 400
        assert 0.75 < result.identity < 0.95

    def test_reverse_strand_read(self, mapper, index):
        rng = np.random.default_rng(19)
        true = index.reference.fetch(60_000, 66_000, strand=-1)
        noisy = apply_errors(true, 0.1, rng)
        result = mapper.map_read(alphabet.decode(noisy.codes), "rev")
        assert result.mapped
        assert result.strand == -1
        assert abs(result.ref_start - 60_000) < 400

    def test_junk_read_unmapped(self, mapper):
        junk = alphabet.decode(
            np.random.default_rng(20).integers(0, 4, size=6_000).astype(np.uint8)
        )
        result = mapper.map_read(junk, "junk")
        assert not result.mapped
        assert result.identity == 0.0 or result.chain_score < 60

    def test_skip_alignment_mode(self, mapper, index):
        read = index.reference.fetch_bases(10_000, 15_000)
        result = mapper.map_read(read, "fast", align=False)
        assert result.mapped
        assert result.alignment is None
        assert result.chain_score > 100

    def test_chaining_k_follows_index(self, index):
        custom = Mapper(index, MapperConfig())
        assert custom.config.chaining.kmer_size == index.config.k


class TestSimulatedReadsEndToEnd:
    """The §2.3-style population study: classes behave as designed."""

    @pytest.fixture(scope="class")
    def population(self, index):
        config = SimulatorConfig(
            median_length=3_000,
            mean_length=3_200,
            min_length=1_000,
            max_length=8_000,
            low_quality_fraction=0.2,
            junk_fraction=0.12,
        )
        simulator = ReadSimulator(index.reference, config, seed=21)
        reads = simulator.sample_reads(60)
        caller = SurrogateBasecaller()
        mapper = Mapper(index)
        results = []
        for read in reads:
            called = caller.basecall_read(read, 300)
            results.append((read, mapper.map_read(called.bases, read.read_id)))
        return results

    def test_normal_reads_mostly_map(self, population):
        normal = [r for read, r in population if read.read_class is ReadClass.NORMAL]
        mapped_fraction = sum(r.mapped for r in normal) / len(normal)
        assert mapped_fraction > 0.9

    def test_junk_reads_never_map(self, population):
        junk = [r for read, r in population if read.read_class is ReadClass.JUNK]
        assert junk, "population must contain junk reads"
        assert all(not r.mapped for r in junk)

    def test_mapped_positions_match_truth(self, population):
        for read, result in population:
            if read.read_class is not ReadClass.NORMAL or not result.mapped:
                continue
            assert abs(result.ref_start - read.ref_start) < 1_000
            assert result.strand == read.strand


def _assert_same_anchors(a: IncrementalChunkMapper, b: IncrementalChunkMapper) -> None:
    got, want = a._gathered(), b._gathered()
    assert got.keys() == want.keys()
    for strand in want:
        np.testing.assert_array_equal(got[strand], want[strand])


class TestIncrementalChunkMapper:
    def test_incremental_equals_whole(self, index):
        """Seeding chunk-by-chunk gathers exactly the whole-read anchors."""
        read = index.reference.fetch(140_000, 146_000)
        whole = IncrementalChunkMapper(index, read.size)
        whole.extend(read)

        chunked = IncrementalChunkMapper(index, read.size)
        for start in range(0, read.size, 300):
            chunked.extend(read[start : start + 300])

        _assert_same_anchors(chunked, whole)
        (got, _), (want, _) = chunked.chain_prefix(), whole.chain_prefix()
        assert want is not None and got.score == want.score
        np.testing.assert_array_equal(got.anchors, want.anchors)

    @given(
        start=st.integers(min_value=0, max_value=190_000),
        length=st.integers(min_value=0, max_value=2_500),
        error_seed=st.integers(min_value=0, max_value=2**16),
        strand=st.sampled_from([1, -1]),
        cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_extend_any_cut_points_equals_one_extend(
        self, index, start, length, error_seed, strand, cuts
    ):
        """Any split of a read into runs gathers the whole-read anchors."""
        true = index.reference.fetch(start, start + length, strand=strand)
        read = apply_errors(true, 0.08, np.random.default_rng(error_seed)).codes
        whole = IncrementalChunkMapper(index, read.size)
        whole.extend(read)

        pieces = IncrementalChunkMapper(index, read.size)
        bounds = sorted({0, read.size, *(int(c * read.size) for c in cuts)})
        for lo, hi in zip(bounds, bounds[1:], strict=False):
            pieces.extend(read[lo:hi])

        assert pieces.bases_seeded == whole.bases_seeded == read.size
        _assert_same_anchors(pieces, whole)

    def test_short_first_run_is_reseeded(self, index):
        """A first run shorter than one (k, w) window seeds only a partial
        window; whole-read seeding of the longer read drops it."""
        k, w = index.config.k, index.config.w
        for start in range(0, 20_000, 1_000):
            read = index.reference.fetch(start, start + 600)
            whole = IncrementalChunkMapper(index, read.size)
            whole.extend(read)
            for cut in range(k, k + w - 1):
                split = IncrementalChunkMapper(index, read.size)
                split.extend(read[:cut])
                split.extend(read[cut:])
                _assert_same_anchors(split, whole)

    def test_prefix_chain_grows(self, index):
        read = index.reference.fetch(150_000, 156_000)
        mapper = IncrementalChunkMapper(index, read.size)
        scores = []
        for start in range(0, read.size, 1_500):
            mapper.extend(read[start : start + 1_500])
            primary, _ = mapper.chain_prefix()
            scores.append(primary.score if primary else 0.0)
        assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:], strict=False))
        assert scores[-1] > scores[0]

    def test_junk_prefix_has_no_chain(self, index):
        junk = np.random.default_rng(22).integers(0, 4, size=1_500).astype(np.uint8)
        mapper = IncrementalChunkMapper(index, 6_000)
        mapper.extend(junk)
        primary, _ = mapper.chain_prefix()
        assert primary is None or primary.score < 60

    def test_bases_seeded_tracking(self, index):
        mapper = IncrementalChunkMapper(index, 1_000)
        mapper.extend(index.reference.fetch(0, 300))
        mapper.extend(index.reference.fetch(300, 600))
        mapper.extend(np.empty(0, dtype=np.uint8))
        assert mapper.bases_seeded == 600

    def test_finalize_unmapped_for_empty(self, index):
        mapper = IncrementalChunkMapper(index, 100)
        result = mapper.finalize("empty", np.empty(0, dtype=np.uint8))
        assert not result.mapped
