"""Tests for the vectorised mapping kernel plane.

Three bit-identity families, mirroring CI's kernel-equivalence lane:

* batched seeding (one ``searchsorted`` + repeat/gather) must produce
  the exact grouped anchor arrays of the per-key scalar walk;
* the blocked chain DP must produce bit-identical scores *and parents*
  to the scalar reference (same float64 combine order per row);
* the native Gotoh's value mode must produce the identical score and
  CIGAR as the scalar Python kernel on every segment shape the small
  path can see (its rows mode is covered in test_kernels_align_native).

Plus the riders: the mapping-ops ledger must record exactly the
arithmetic the kernels performed, the perf models must charge it, the
incremental mapper's gathered-anchor cache must invalidate correctly,
and a pooled run must stay byte-identical to the serial run with every
new kernel active.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GenPIP, GenPIPConfig
from repro.genomics import alphabet
from repro.genomics.mutate import apply_errors
from repro.genomics.reference import ReferenceGenome
from repro.kernels import (
    ALIGN_KERNELS,
    CHAIN_KERNELS,
    MAPPING_OP_KINDS,
    SEED_KERNELS,
    MappingOpsCounter,
    chain_candidate_count,
    chain_scores_blocked,
    chain_scores_scalar,
    gotoh_scalar,
    mapping_ops,
    native_gotoh,
    process_mapping_ops,
    resolve_chain_kernel,
    resolve_seed_kernel,
    seed_anchors_batched,
    seed_anchors_scalar,
)
from repro.mapping.alignment import (
    AlignmentConfig,
    _classify_diagonals,
    align_banded,
    align_chain,
    cigar_to_string,
)
from repro.mapping.chaining import ChainingConfig, chain_scores
from repro.mapping.index import MinimizerConfig, MinimizerIndex
from repro.mapping.mapper import IncrementalChunkMapper, Mapper, MapperConfig
from repro.mapping.minimizers import minimizer_arrays
from repro.mapping.seeding import collect_anchor_arrays, collect_anchors
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile
from repro.perf.costs import DEFAULT_COSTS
from repro.perf.systems import evaluate_system
from repro.perf.workload import PipelineWorkload


@pytest.fixture(scope="module")
def reference():
    return ReferenceGenome.random(120_000, seed=23)


@pytest.fixture(scope="module")
def index(reference):
    return MinimizerIndex.build(reference, MinimizerConfig(k=13, w=10))


def _random_anchors(rng, n, ref_span=50_000, read_span=8_000, runs=False):
    """Random sorted (ref_pos, read_pos) anchors, optionally clustered."""
    if runs and n >= 4:
        # Colinear runs with jitter: the geometry real chains have.
        starts = rng.integers(0, ref_span, size=n // 8 + 1)
        ref = np.sort(np.concatenate([s + rng.integers(0, 600, size=8) for s in starts])[:n])
        read = np.maximum(0, ref - ref.min() + rng.integers(-30, 30, size=n))
    else:
        ref = np.sort(rng.integers(0, ref_span, size=n))
        read = rng.integers(0, read_span, size=n)
    arr = np.stack([ref, read], axis=1).astype(np.int64)
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    return arr[order]


class TestChainKernels:
    @pytest.mark.parametrize("lookback", [1, 5, 50])
    @pytest.mark.parametrize("max_gap", [50, 5_000])
    def test_blocked_bit_identical_to_scalar(self, lookback, max_gap):
        rng = np.random.default_rng(101)
        for trial in range(25):
            n = int(rng.integers(0, 400))
            anchors = _random_anchors(rng, n, runs=bool(trial % 2))
            s_scores, s_parents = chain_scores_scalar(anchors, 13, max_gap, lookback)
            b_scores, b_parents = chain_scores_blocked(anchors, 13, max_gap, lookback)
            assert np.array_equal(s_scores, b_scores), (trial, lookback, max_gap)
            assert np.array_equal(s_parents, b_parents), (trial, lookback, max_gap)

    def test_blocked_crosses_block_boundary(self):
        # More anchors than one 4096-row block, dense colinear geometry.
        rng = np.random.default_rng(102)
        ref = np.sort(rng.integers(0, 80_000, size=5_000))
        read = np.maximum(0, ref + rng.integers(-40, 40, size=ref.size))
        anchors = np.stack([ref, read], axis=1).astype(np.int64)
        order = np.lexsort((anchors[:, 1], anchors[:, 0]))
        anchors = anchors[order]
        s = chain_scores_scalar(anchors, 13, 5_000, 50)
        b = chain_scores_blocked(anchors, 13, 5_000, 50)
        assert np.array_equal(s[0], b[0]) and np.array_equal(s[1], b[1])

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_inputs(self, n):
        anchors = np.zeros((n, 2), dtype=np.int64)
        for kernel in (chain_scores_scalar, chain_scores_blocked):
            scores, parents = kernel(anchors, 13, 5_000, 50)
            assert scores.shape == (n,) and parents.shape == (n,)
            if n:
                assert parents[0] == -1

    def test_candidate_count_closed_form(self):
        for n in (0, 1, 2, 7, 50, 51, 200):
            for h in (1, 5, 50):
                brute = sum(min(i, h) for i in range(n)) if n > 1 else 0
                assert chain_candidate_count(n, h) == brute, (n, h)

    def test_kernels_charge_the_ledger(self):
        rng = np.random.default_rng(103)
        anchors = _random_anchors(rng, 120, runs=True)
        ledger = process_mapping_ops()
        before = ledger.ops("chain-candidate")
        chain_scores_blocked(anchors, 13, 5_000, 50)
        assert ledger.ops("chain-candidate") - before == chain_candidate_count(120, 50)

    def test_config_selects_kernel(self):
        rng = np.random.default_rng(104)
        anchors = _random_anchors(rng, 80, runs=True)
        by_name = {
            name: chain_scores(anchors, ChainingConfig(kernel=name)) for name in CHAIN_KERNELS
        }
        ref_scores, ref_parents = by_name["scalar"]
        assert np.array_equal(by_name["blocked"][0], ref_scores)
        assert np.array_equal(by_name["blocked"][1], ref_parents)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="blocked"):
            resolve_chain_kernel("simd")
        with pytest.raises(ValueError, match="chain kernel"):
            ChainingConfig(kernel="simd")


def _random_pair(rng, n, m):
    return (
        rng.integers(0, 4, size=n).astype(np.uint8),
        rng.integers(0, 4, size=m).astype(np.uint8),
    )


def _scalar_classified(a, b, *scoring):
    """gotoh_scalar with its raw 'M' runs split into '='/'X'."""
    score, cigar = gotoh_scalar(a, b, *scoring)
    return score, _classify_diagonals(cigar, a, b)


@pytest.fixture(scope="module")
def native():
    kernels = native_gotoh()
    if kernels is None:
        pytest.skip("native Gotoh kernel unavailable (no C compiler)")
    return kernels


class TestAlignKernels:
    # The test names predate the native tier; they check the native
    # value mode against the scalar reference.
    @pytest.mark.parametrize(
        "shape",
        [(0, 0), (0, 7), (7, 0), (1, 1), (3, 9), (20, 20), (45, 52), (60, 60), (80, 75)],
    )
    def test_wavefront_bit_identical_fixed_shapes(self, native, shape):
        rng = np.random.default_rng(sum(shape) + 7)
        a, b = _random_pair(rng, *shape)
        s_score, s_cigar = _scalar_classified(a, b, 2.0, -4.0, -4.0, -2.0)
        n_score, n_cigar = native.value(a, b, 2.0, -4.0, -4.0, -2.0)
        assert s_score == n_score
        assert s_cigar == n_cigar

    def test_wavefront_bit_identical_fuzz(self, native):
        rng = np.random.default_rng(201)
        configs = [(2.0, -4.0, -4.0, -2.0), (2.1, -3.7, -4.3, -1.9), (1.0, -1.0, -6.0, -0.5)]
        for trial in range(40):
            n, m = int(rng.integers(1, 70)), int(rng.integers(1, 70))
            a, b = _random_pair(rng, n, m)
            if trial % 3 == 0:
                # Mutated copy: realistic near-diagonal traceback.
                b = apply_errors(a, 0.15, rng).codes
            scoring = configs[trial % len(configs)]
            assert _scalar_classified(a, b, *scoring) == native.value(a, b, *scoring), trial

    def test_all_ambiguous_ties_break_identically(self, native):
        # Constant sequences make every cell a tie: the traceback must
        # still walk the same path in both kernels.
        a = np.zeros(30, dtype=np.uint8)
        b = np.zeros(45, dtype=np.uint8)
        assert _scalar_classified(a, b, 2.0, -4.0, -4.0, -2.0) == native.value(
            a, b, 2.0, -4.0, -4.0, -2.0
        )

    def test_align_banded_small_path_kernel_equivalence(self, native):
        # Below and above the value-traceback threshold (value, then rows).
        rng = np.random.default_rng(202)
        for trial in range(20):
            lo, hi = (20, 60) if trial % 2 else (70, 80)
            n, m = int(rng.integers(lo, hi)), int(rng.integers(lo, hi))
            a, b = _random_pair(rng, n, m)
            results = {
                name: align_banded(a, b, AlignmentConfig(kernel=name)) for name in ALIGN_KERNELS
            }
            assert results["native"].score == results["scalar"].score
            assert results["native"].cigar == results["scalar"].cigar

    def test_band_edge_path_unchanged_by_kernel_field(self):
        # Banded alignment uses the Python row pipeline under either
        # kernel name -- the kernel field must not perturb it.
        rng = np.random.default_rng(203)
        a, b = _random_pair(rng, 300, 310)
        banded = {
            name: align_banded(a, b, AlignmentConfig(kernel=name), band=12)
            for name in ALIGN_KERNELS
        }
        assert banded["native"].score == banded["scalar"].score
        assert banded["native"].cigar == banded["scalar"].cigar

    def test_align_chain_capped_segment_equivalence(self, reference):
        # A chain whose inter-anchor gap blows max_segment_cells takes
        # the D+I fallback; both kernels must stitch identical CIGARs.
        codes = reference.codes
        read = np.concatenate([codes[1_000:1_200], codes[9_000:9_200]])
        anchors = np.array([[1_000, 0], [9_000, 200]], dtype=np.int64)
        results = {}
        for name in ALIGN_KERNELS:
            config = AlignmentConfig(kernel=name, max_segment_cells=100)
            results[name] = align_chain(codes, read, anchors, 13, config)
        (a_n, lo_n, hi_n), (a_s, lo_s, hi_s) = results["native"], results["scalar"]
        assert (a_n.score, cigar_to_string(a_n.cigar)) == (a_s.score, cigar_to_string(a_s.cigar))
        assert (lo_n, hi_n) == (lo_s, hi_s)
        assert "D" in cigar_to_string(a_n.cigar) and "I" in cigar_to_string(a_n.cigar)

    def test_kernels_charge_cells(self, native):
        rng = np.random.default_rng(204)
        a, b = _random_pair(rng, 40, 50)
        ledger = process_mapping_ops()
        before = ledger.ops("align-cell")
        native.value(a, b, 2.0, -4.0, -4.0, -2.0)
        native.rows(a, b, 2.0, -4.0, -4.0, -2.0, free_ref_tail=True)
        gotoh_scalar(a, b, 2.0, -4.0, -4.0, -2.0)
        assert ledger.ops("align-cell") - before == 3 * 40 * 50

    def test_unknown_kernel_rejected(self):
        for name in ("gpu", "wavefront"):
            with pytest.raises(ValueError, match="align kernel.*native"):
                AlignmentConfig(kernel=name)


class TestSeedKernels:
    def test_batched_bit_identical_to_scalar(self, index, reference):
        rng = np.random.default_rng(301)
        for trial in range(12):
            start = int(rng.integers(0, len(reference) - 6_000))
            true = reference.codes[start : start + int(rng.integers(500, 6_000))]
            read = apply_errors(true, 0.10, rng).codes if trial % 2 else true
            keys, positions, strands = minimizer_arrays(read, index.config)
            read_length = int(read.size) if trial % 3 else None
            offset = int(rng.integers(0, 50))
            kwargs = dict(read_offset=offset, read_length=read_length, kmer_size=index.config.k)
            got = {
                name: resolve_seed_kernel(name)(
                    keys,
                    positions,
                    strands,
                    index.key_array,
                    index.bounds_array,
                    index.position_array,
                    index.strand_array,
                    **kwargs,
                )
                for name in SEED_KERNELS
            }
            for strand in (1, -1):
                assert np.array_equal(got["batched"][strand], got["scalar"][strand]), (
                    trial,
                    strand,
                )

    def test_junk_read_and_empty_query(self, index):
        rng = np.random.default_rng(302)
        junk = rng.integers(0, 4, size=2_000).astype(np.uint8)
        keys, positions, strands = minimizer_arrays(junk, index.config)
        batched = seed_anchors_batched(
            keys,
            positions,
            strands,
            index.key_array,
            index.bounds_array,
            index.position_array,
            index.strand_array,
        )
        scalar = seed_anchors_scalar(
            keys,
            positions,
            strands,
            index.key_array,
            index.bounds_array,
            index.position_array,
            index.strand_array,
        )
        for strand in (1, -1):
            assert np.array_equal(batched[strand], scalar[strand])
        empty = np.empty(0, dtype=np.uint64)
        out = seed_anchors_batched(
            empty,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int8),
            index.key_array,
            index.bounds_array,
            index.position_array,
            index.strand_array,
        )
        assert out[1].shape == (0, 2) and out[-1].shape == (0, 2)

    def test_collectors_agree_across_kernels(self, index, reference):
        read = reference.codes[40_000:44_000]
        for name in SEED_KERNELS:
            arrays = collect_anchor_arrays(index, read, kernel=name)
            assert arrays[1].dtype == np.int64
        base = {s: a.copy() for s, a in collect_anchor_arrays(index, read, kernel="scalar").items()}
        fast = collect_anchor_arrays(index, read, kernel="batched")
        for strand in (1, -1):
            assert np.array_equal(base[strand], fast[strand])
        objs = collect_anchors(index, read)
        assert len(objs) == sum(a.shape[0] for a in fast.values())

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="batched"):
            resolve_seed_kernel("hashed")
        with pytest.raises(ValueError, match="seed kernel"):
            MapperConfig(seed_kernel="hashed")


class TestMapperIntegration:
    @pytest.fixture(scope="class")
    def scalar_config(self):
        return MapperConfig(
            chaining=ChainingConfig(kernel="scalar"),
            alignment=AlignmentConfig(kernel="scalar"),
            seed_kernel="scalar",
        )

    def test_map_read_identical_across_planes(self, index, reference, scalar_config):
        rng = np.random.default_rng(401)
        fast = Mapper(index)
        slow = Mapper(index, scalar_config)
        for trial in range(6):
            start = int(rng.integers(0, len(reference) - 8_000))
            true = reference.codes[start : start + 6_000]
            read = alphabet.decode(apply_errors(true, 0.1, rng).codes)
            a = fast.map_read(read, f"r{trial}")
            b = slow.map_read(read, f"r{trial}")
            assert a == b, trial

    def test_incremental_gathered_cache(self, index, reference):
        read = reference.codes[10_000:13_000]
        mapper = IncrementalChunkMapper(index, read_length=read.size)
        mapper.extend(read[:1_500])
        first = mapper._gathered()
        assert mapper._gathered() is first  # repeated probes hit the cache
        mapper.chain_prefix()
        assert mapper._gathered() is first
        mapper.extend(read[1_500:])
        second = mapper._gathered()
        assert second is not first  # extend invalidates
        assert second[1].shape[0] >= first[1].shape[0]
        mapper.set_read_length(read.size)  # unchanged length: keep cache
        assert mapper._gathered() is second
        mapper.set_read_length(read.size + 10)
        assert mapper._gathered() is not second  # length change invalidates

    def test_incremental_matches_whole_read(self, index, reference):
        rng = np.random.default_rng(402)
        true = reference.codes[55_000:59_000]
        read = apply_errors(true, 0.08, rng).codes
        whole = Mapper(index).map_read(alphabet.decode(read), "whole")
        inc = IncrementalChunkMapper(index, read_length=read.size)
        for at in range(0, read.size, 700):
            inc.extend(read[at : at + 700])
        result = inc.finalize("whole", read)
        assert result.mapped == whole.mapped
        assert (result.ref_start, result.ref_end, result.strand) == (
            whole.ref_start,
            whole.ref_end,
            whole.strand,
        )


class TestOpsAccounting:
    def test_counter_contract(self):
        counter = MappingOpsCounter()
        counter.record("chain-candidate", 5)
        counter.record("align-cell", 7)
        counter.record("chain-candidate", 2)
        assert counter.ops("chain-candidate") == 7
        assert counter.ops() == 14
        assert counter.by_kind() == {"chain-candidate": 7, "align-cell": 7}
        with pytest.raises(ValueError):
            counter.record("align-cell", -1)
        counter.reset()
        assert counter.ops() == 0

    def test_cost_anchors_exist(self):
        for kind in MAPPING_OP_KINDS:
            assert DEFAULT_COSTS.kernel_ops_per_base(kind) > 0

    def test_workload_carries_ledger_delta(self, index, reference):
        dataset = generate_dataset(
            small_profile(ECOLI_LIKE, max_read_length=3_000), scale=0.0003, seed=31
        )
        system = GenPIP(MinimizerIndex.build(dataset.reference), GenPIPConfig(), align=True)
        ledger = process_mapping_ops()
        before = ledger.by_kind()
        report = system.run(dataset)
        after = ledger.by_kind()
        delta = {kind: after.get(kind, 0) - before.get(kind, 0) for kind in after}
        assert delta.get("chain-candidate", 0) > 0
        assert delta.get("align-cell", 0) > 0
        workload = PipelineWorkload.from_report(report, mapping_ops=delta)
        assert workload.chain_candidate_ops == delta["chain-candidate"]
        assert workload.align_cell_ops == delta["align-cell"]
        scaled = workload.scaled(2.0)
        assert scaled.chain_candidate_ops == 2.0 * workload.chain_candidate_ops
        assert scaled.align_cell_ops == 2.0 * workload.align_cell_ops
        # Ops-based mapping time differs from (but stays in the regime
        # of) the per-base estimate; without ops it is bit-identical.
        plain = PipelineWorkload.from_report(report)
        est_ops = evaluate_system("CPU", workload)
        est_plain = evaluate_system("CPU", plain)
        assert est_ops.breakdown["map"] > 0
        assert est_ops.breakdown["basecall"] == est_plain.breakdown["basecall"]
        ratio = est_ops.breakdown["map"] / est_plain.breakdown["map"]
        assert 0.1 < ratio < 10.0

    def test_mapping_ops_global_helper(self):
        before = mapping_ops()
        gotoh_scalar(
            np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8), 2.0, -4.0, -4.0, -2.0
        )
        assert mapping_ops() - before == 12


class TestParallelEquivalence:
    def test_serial_and_pooled_identical_with_kernels(self):
        dataset = generate_dataset(
            small_profile(ECOLI_LIKE, max_read_length=3_000), scale=0.0004, seed=37
        )
        index = MinimizerIndex.build(dataset.reference)
        system = GenPIP(index, GenPIPConfig(), align=True)
        serial = system.run(dataset)
        pooled = system.run(dataset, workers=2, batch_size=5)
        assert pooled.outcomes == serial.outcomes
        assert pooled.counters == serial.counters
        assert pooled.mean_identity() == serial.mean_identity()
