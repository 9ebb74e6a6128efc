"""Microbenchmarks of the computational kernels every experiment rests on.

These are the operations the paper's hardware accelerates -- MVM
(basecalling), hash lookup (seeding), chain DP, alignment DP -- plus the
simulator's own hot paths. They quantify the software substrate; the
hardware models' speedups are relative to these costs.

Two consumers:

* **pytest-benchmark** (``pytest benchmarks/bench_kernels.py``): the
  classic per-kernel timing fixtures below.
* **standalone equivalence trail** (``python benchmarks/bench_kernels.py
  --out BENCH_kernels.json``): replays the vectorised kernel plane
  (:mod:`repro.kernels`) against its scalar references on fixed seeds
  and emits one record per case -- cost/path equality verdicts plus the
  measured speedups -- exiting non-zero on **any** mismatch. CI's
  kernel-equivalence lane runs this and uploads the document, so every
  commit carries a machine-checkable proof that the wavefront sDTW is
  bit-identical to the scalar recurrence, the trellis kernel matches the
  triple-loop reference, the event-space decode tracks the sample-space
  one, batched DNN inference reproduces the per-chunk path, and the
  mapping plane (batched seeding, blocked chain DP, native Gotoh in both
  tie-rule modes) reproduces its scalar references anchor-for-anchor,
  parent-for-parent, CIGAR-for-CIGAR.
"""

import argparse
import difflib
import json
import platform
import sys
import time

import numpy as np
import pytest

from repro.basecalling import SurrogateBasecaller, ViterbiBasecaller, ViterbiConfig
from repro.basecalling.dnn import BonitoLikeModel
from repro.genomics.mutate import apply_errors
from repro.genomics.reference import ReferenceGenome
from repro.hardware.cam import CamArray, CamConfig
from repro.hardware.nvm_crossbar import CrossbarArray, CrossbarConfig
from repro.mapping import MinimizerIndex, align_banded, edit_distance
from repro.mapping.chaining import ChainingConfig, chain_scores
from repro.mapping.minimizers import MinimizerConfig, minimizer_arrays
from repro.mapping.seeding import collect_anchor_arrays
from repro.nanopore.pore_model import PoreModel
from repro.nanopore.signal import SignalConfig, synthesize_signal
from repro.perf.pipeline_sim import simulate_flow_shop


@pytest.fixture(scope="module")
def reference():
    return ReferenceGenome.random(200_000, seed=3)


@pytest.fixture(scope="module")
def index(reference):
    return MinimizerIndex.build(reference)


def test_minimizer_extraction(benchmark, reference):
    codes = reference.fetch(0, 50_000)
    result = benchmark(minimizer_arrays, codes, MinimizerConfig())
    assert result[0].size > 1_000


def test_index_build(benchmark):
    small = ReferenceGenome.random(50_000, seed=4)
    index = benchmark(MinimizerIndex.build, small)
    assert len(index) > 1_000


def test_seeding_query(benchmark, reference, index):
    rng = np.random.default_rng(5)
    read = apply_errors(reference.fetch(10_000, 19_000), 0.12, rng).codes
    grouped = benchmark(collect_anchor_arrays, index, read, 0, read.size)
    assert grouped[1].shape[0] > 100


def test_chaining_dp(benchmark):
    rng = np.random.default_rng(6)
    n = 2_000
    anchors = np.stack(
        [np.sort(rng.integers(0, 100_000, n)), np.sort(rng.integers(0, 9_000, n))],
        axis=1,
    ).astype(np.int64)
    scores, parents = benchmark(chain_scores, anchors, ChainingConfig())
    assert scores.size == n


def test_alignment_dp(benchmark):
    rng = np.random.default_rng(7)
    a = rng.integers(0, 4, 400).astype(np.uint8)
    b = apply_errors(a, 0.12, rng).codes
    result = benchmark(align_banded, a, b)
    assert result.identity > 0.7


def test_edit_distance_long(benchmark):
    rng = np.random.default_rng(8)
    a = rng.integers(0, 4, 2_000).astype(np.uint8)
    b = apply_errors(a, 0.1, rng).codes
    distance = benchmark(edit_distance, a, b)
    assert 0 < distance < 600


def test_viterbi_chunk_decode(benchmark):
    pore = PoreModel.synthetic(k=5)
    rng = np.random.default_rng(9)
    codes = rng.integers(0, 4, 300).astype(np.uint8)
    signal = synthesize_signal(codes, pore, SignalConfig(noise_std=2.0), np.random.default_rng(10))
    caller = ViterbiBasecaller(pore, ViterbiConfig(extra_noise_std=2.0))
    called = benchmark(caller.basecall, signal.samples)
    assert len(called.bases) > 200


def test_surrogate_chunk_basecall(benchmark):
    from repro.nanopore.read_simulator import ReadSimulator, SimulatorConfig

    ref = ReferenceGenome.random(40_000, seed=11)
    read = ReadSimulator(ref, SimulatorConfig(median_length=9_000, mean_length=9_100), seed=12).sample_read()
    caller = SurrogateBasecaller()
    chunk = benchmark(caller.basecall_chunk, read, 0, 300)
    assert len(chunk) > 200


def test_dnn_forward(benchmark):
    model = BonitoLikeModel(seed=0, hidden=32)
    samples = np.random.default_rng(13).normal(100, 10, 1_800)
    log_probs = benchmark(model.forward, samples)
    assert log_probs.shape[1] == 5


def test_crossbar_mvm(benchmark):
    array = CrossbarArray(CrossbarConfig(rows=128, cols=128, bits_per_cell=4))
    rng = np.random.default_rng(14)
    array.program(rng.normal(size=(128, 128)))
    vector = rng.normal(size=128)
    out = benchmark(array.mvm, vector)
    assert out.shape == (128,)


def test_cam_search(benchmark):
    cam = CamArray(CamConfig(rows=832, width_bits=64))
    rng = np.random.default_rng(15)
    keys = rng.integers(0, 2**48, 832).tolist()
    cam.program_all(keys)
    hits = benchmark(cam.search, keys[500])
    assert hits.size >= 1


def test_flow_shop_sim(benchmark):
    rng = np.random.default_rng(16)
    jobs = rng.uniform(0.5, 2.0, size=(5_000, 2))
    result = benchmark(simulate_flow_shop, jobs)
    assert result.makespan_s > 0


# --- standalone kernel-equivalence trail (BENCH_kernels.json) ---------------

KERNELS_SCHEMA = "genpip-bench-kernels/1"


def _best_time(fn, *args, repeats: int = 3):
    """(result, best wall time) of ``fn(*args)`` over ``repeats`` passes."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - started)
    return result, best


def _identity(a: str, b: str) -> float:
    # autojunk must be off: with a 4-letter alphabet every character is
    # "popular" junk and the default ratio collapses to ~0.
    return difflib.SequenceMatcher(None, a, b, autojunk=False).ratio()


def collect_sdtw_equivalence(repeats: int = 3) -> list[dict]:
    """Wavefront vs scalar sDTW: bit-equal costs on fixed-seed cases."""
    from repro.kernels.sdtw import sdtw_cost_scalar, sdtw_cost_wavefront

    rng = np.random.default_rng(20)
    cases = [
        ("random-unbanded", rng.normal(size=120), rng.normal(size=900), None),
        ("random-banded", rng.normal(size=150), rng.normal(size=1200), 40),
        ("tight-band", rng.normal(size=100), rng.normal(size=800), 4),
        ("query-longer-than-reference", rng.normal(size=300), rng.normal(size=200), None),
        ("single-sample-query", rng.normal(size=1), rng.normal(size=500), None),
    ]
    records = []
    for name, query, reference, band in cases:
        scalar, t_scalar = _best_time(
            sdtw_cost_scalar, query, reference, band, repeats=repeats
        )
        wavefront, t_wavefront = _best_time(
            sdtw_cost_wavefront, query, reference, band, repeats=repeats
        )
        records.append(
            {
                "plane": "sdtw",
                "case": name,
                "band": band,
                "equal": bool(scalar == wavefront),
                "scalar_cost": scalar,
                "wavefront_cost": wavefront,
                "scalar_s": round(t_scalar, 6),
                "kernel_s": round(t_wavefront, 6),
                "speedup": round(t_scalar / t_wavefront, 2) if t_wavefront else 0.0,
            }
        )
    return records


def collect_viterbi_equivalence(repeats: int = 3) -> list[dict]:
    """Trellis kernel vs triple-loop scalar, and event- vs sample-space.

    The forward-pass comparison is bitwise (same float64 per-cell max,
    identical tie-breaking); the event-space record compares decoded
    *sequences* against the simulated truth, since event decoding is an
    approximation that trades observations for speed.
    """
    from repro.basecalling.engines import EVENT_SEGMENTATION
    from repro.genomics import alphabet
    from repro.kernels.viterbi import (
        event_features,
        viterbi_forward,
        viterbi_forward_scalar,
    )
    from repro.signal.segmentation import detect_events

    records = []

    # Forward-pass equivalence on a small trellis (the scalar reference
    # is a triple loop; keep it to k=3 / a few hundred observations).
    pore = PoreModel.synthetic(k=3)
    rng = np.random.default_rng(21)
    codes = rng.integers(0, 4, 40).astype(np.uint8)
    signal = synthesize_signal(
        codes, pore, SignalConfig(noise_std=2.0), np.random.default_rng(22)
    )
    caller = ViterbiBasecaller(pore, ViterbiConfig(extra_noise_std=2.0))
    emissions = caller._emission_loglik(signal.samples)
    vec, t_vec = _best_time(
        viterbi_forward, emissions, caller._pred, caller._log_stay, caller._log_move,
        repeats=repeats,
    )
    scalar, t_scalar = _best_time(
        viterbi_forward_scalar, emissions, caller._pred, caller._log_stay,
        caller._log_move, repeats=1,
    )
    records.append(
        {
            "plane": "viterbi-forward",
            "case": "k3-noisy-signal",
            "observations": int(emissions.shape[0]),
            "states": int(emissions.shape[1]),
            "equal": bool(
                np.array_equal(vec[0], scalar[0]) and np.array_equal(vec[2], scalar[2])
            ),
            "scalar_s": round(t_scalar, 6),
            "kernel_s": round(t_vec, 6),
            "speedup": round(t_scalar / t_vec, 2) if t_vec else 0.0,
        }
    )

    # Event-space vs sample-space decode fidelity on a longer read.
    pore5 = PoreModel.synthetic(k=5)
    codes = np.random.default_rng(23).integers(0, 4, 300).astype(np.uint8)
    truth = alphabet.decode(codes)
    signal = synthesize_signal(
        codes, pore5, SignalConfig(noise_std=1.0), np.random.default_rng(24)
    )
    caller5 = ViterbiBasecaller(pore5, ViterbiConfig(extra_noise_std=1.0))
    sample_read, t_samples = _best_time(
        caller5.basecall, signal.samples, repeats=repeats
    )

    def _decode_events():
        starts = detect_events(signal.samples, EVENT_SEGMENTATION)
        means, dwells = event_features(signal.samples, starts)
        return caller5.basecall_events(means, dwells)

    event_read, t_events = _best_time(_decode_events, repeats=repeats)
    sample_identity = _identity(sample_read.bases, truth)
    event_identity = _identity(event_read.bases, truth)
    records.append(
        {
            "plane": "viterbi-events",
            "case": "k5-300-bases",
            "sample_identity": round(sample_identity, 4),
            "event_identity": round(event_identity, 4),
            # "equal" here means: the approximation holds (event decode
            # stays within 15 identity points of the exact decode).
            "equal": bool(event_identity >= sample_identity - 0.15),
            "scalar_s": round(t_samples, 6),
            "kernel_s": round(t_events, 6),
            "speedup": round(t_samples / t_events, 2) if t_events else 0.0,
        }
    )
    return records


def collect_dnn_equivalence(repeats: int = 3) -> list[dict]:
    """Ragged batched DNN inference vs the per-chunk forward pass."""
    from repro.kernels.batched_dnn import batched_basecall

    model = BonitoLikeModel(seed=0, hidden=32)
    rng = np.random.default_rng(25)
    lengths = rng.integers(900, 1_800, 12)
    windows = [rng.normal(100.0, 10.0, int(n)) for n in lengths]

    def _per_chunk():
        return [model.basecall(window) for window in windows]

    solo, t_solo = _best_time(_per_chunk, repeats=repeats)
    batched, t_batched = _best_time(batched_basecall, model, windows, repeats=repeats)
    bases_equal = all(a[0] == b[0] for a, b in zip(solo, batched, strict=True))
    quals_close = all(
        np.allclose(a[1], b[1], atol=1e-8) for a, b in zip(solo, batched, strict=True)
    )
    return [
        {
            "plane": "dnn-batch",
            "case": "ragged-12-windows",
            "windows": len(windows),
            "equal": bool(bases_equal and quals_close),
            "bases_equal": bool(bases_equal),
            "quals_allclose": bool(quals_close),
            "scalar_s": round(t_solo, 6),
            "kernel_s": round(t_batched, 6),
            "speedup": round(t_solo / t_batched, 2) if t_batched else 0.0,
        }
    ]


def collect_chain_equivalence(repeats: int = 3) -> list[dict]:
    """Blocked chain DP vs the scalar reference: bit-equal scores/parents."""
    from repro.kernels.chain import chain_scores_blocked, chain_scores_scalar

    rng = np.random.default_rng(26)

    def _colinear(n, jitter):
        ref = np.sort(rng.integers(0, 60_000, size=n))
        read = np.maximum(0, ref - ref.min() + rng.integers(-jitter, jitter, size=n))
        arr = np.stack([ref, read], axis=1).astype(np.int64)
        return arr[np.lexsort((arr[:, 1], arr[:, 0]))]

    def _scattered(n):
        arr = np.stack(
            [np.sort(rng.integers(0, 60_000, size=n)), rng.integers(0, 9_000, size=n)],
            axis=1,
        ).astype(np.int64)
        return arr[np.lexsort((arr[:, 1], arr[:, 0]))]

    cases = [
        ("colinear-2000", _colinear(2_000, 40), 5_000, 50),
        ("scattered-1500", _scattered(1_500), 5_000, 50),
        ("short-lookback", _colinear(800, 30), 500, 5),
        ("block-boundary-5000", _colinear(5_000, 40), 5_000, 50),
    ]
    records = []
    for name, anchors, max_gap, lookback in cases:
        scalar, t_scalar = _best_time(
            chain_scores_scalar, anchors, 13, max_gap, lookback, repeats=repeats
        )
        blocked, t_blocked = _best_time(
            chain_scores_blocked, anchors, 13, max_gap, lookback, repeats=repeats
        )
        records.append(
            {
                "plane": "chain-dp",
                "case": name,
                "anchors": int(anchors.shape[0]),
                "equal": bool(
                    np.array_equal(scalar[0], blocked[0])
                    and np.array_equal(scalar[1], blocked[1])
                ),
                "scalar_s": round(t_scalar, 6),
                "kernel_s": round(t_blocked, 6),
                "speedup": round(t_scalar / t_blocked, 2) if t_blocked else 0.0,
            }
        )
    return records


def collect_align_equivalence(repeats: int = 3) -> list[dict]:
    """Native Gotoh vs its Python references, in both tie-rule modes.

    ``value`` cases compare against :func:`gotoh_scalar` (the small
    segment path), ``rows`` cases against the row pipeline
    ``_align_core`` (large segments; ``free-tail`` is the head/tail
    extension). Raises if the native library did not load, so this
    lane cannot pass on the Python fallback.
    """
    from repro.kernels.align import gotoh_scalar, native_gotoh
    from repro.mapping.alignment import AlignmentConfig, _align_core, _classify_diagonals

    native = native_gotoh()
    if native is None:
        raise RuntimeError("native Gotoh kernel did not load")
    scoring = (2.0, -4.0, -4.0, -2.0)
    config = AlignmentConfig(*scoring)

    def value_reference(a, b):
        score, cigar = gotoh_scalar(a, b, *scoring)
        return score, _classify_diagonals(cigar, a, b)

    def rows_reference(a, b, free_ref_tail):
        raw = _align_core(a, b, config, free_ref_tail=free_ref_tail)
        return raw.score, _classify_diagonals(raw.cigar, a, b)

    rng = np.random.default_rng(27)
    a_rand = rng.integers(0, 4, 55).astype(np.uint8)
    b_rand = rng.integers(0, 4, 62).astype(np.uint8)
    a_mut = rng.integers(0, 4, 58).astype(np.uint8)
    a_short = rng.integers(0, 4, 9).astype(np.uint8)
    a_mid = rng.integers(0, 4, 90).astype(np.uint8)
    b_mid = rng.integers(0, 4, 100).astype(np.uint8)
    a_long = rng.integers(0, 4, 400).astype(np.uint8)
    # Head/tail extension shape: a 400-base read end in a 616-base window.
    window = rng.integers(0, 4, 616).astype(np.uint8)
    window[:400] = a_long
    zeros = np.zeros(55, dtype=np.uint8)
    cases = [
        ("random-55x62", "value", a_rand, b_rand),
        ("mutated-58", "value", a_mut, apply_errors(a_mut, 0.15, rng).codes),
        ("all-ambiguous-ties", "value", zeros[:40], zeros),
        ("empty-vs-short", "value", zeros[:0], a_short),
        ("rows-random-90x100", "rows", a_mid, b_mid),
        ("rows-mutated-400", "rows", a_long, apply_errors(a_long, 0.12, rng).codes),
        ("free-tail-616x400", "free-tail", window, apply_errors(a_long, 0.12, rng).codes),
    ]
    records = []
    for name, mode, a, b in cases:
        if mode == "value":
            reference, t_scalar = _best_time(value_reference, a, b, repeats=repeats)
            kernel, t_native = _best_time(native.value, a, b, *scoring, repeats=repeats)
        else:
            free = mode == "free-tail"
            reference, t_scalar = _best_time(rows_reference, a, b, free, repeats=repeats)
            kernel, t_native = _best_time(native.rows, a, b, *scoring, free, repeats=repeats)
        records.append(
            {
                "plane": "align-gotoh",
                "case": name,
                "mode": mode,
                "cells": int(a.size) * int(b.size),
                "equal": bool(reference == kernel),
                "scalar_score": reference[0],
                "kernel_score": kernel[0],
                "scalar_s": round(t_scalar, 6),
                "kernel_s": round(t_native, 6),
                "speedup": round(t_scalar / t_native, 2) if t_native else 0.0,
            }
        )
    return records


def collect_seed_equivalence(repeats: int = 3) -> list[dict]:
    """Batched searchsorted seeding vs the per-key scalar walk."""
    from repro.kernels.seed import seed_anchors_batched, seed_anchors_scalar

    rng = np.random.default_rng(28)
    reference = ReferenceGenome.random(150_000, seed=29)
    index = MinimizerIndex.build(reference)
    cases = []
    for name, start, length, error in [
        ("clean-6kb", 20_000, 6_000, 0.0),
        ("noisy-9kb", 60_000, 9_000, 0.12),
    ]:
        read = reference.fetch(start, start + length)
        if error:
            read = apply_errors(read, error, rng).codes
        cases.append((name, minimizer_arrays(read, index.config), int(read.size)))
    junk = rng.integers(0, 4, 3_000).astype(np.uint8)
    cases.append(("junk-3kb", minimizer_arrays(junk, index.config), int(junk.size)))

    records = []
    for name, (keys, positions, strands), read_length in cases:
        args = (
            keys,
            positions,
            strands,
            index.key_array,
            index.bounds_array,
            index.position_array,
            index.strand_array,
        )
        scalar, t_scalar = _best_time(
            lambda a=args, n=read_length: seed_anchors_scalar(*a, read_length=n),
            repeats=repeats,
        )
        batched, t_batched = _best_time(
            lambda a=args, n=read_length: seed_anchors_batched(*a, read_length=n),
            repeats=repeats,
        )
        records.append(
            {
                "plane": "seed-lookup",
                "case": name,
                "queries": int(keys.size),
                "anchors": int(batched[1].shape[0] + batched[-1].shape[0]),
                "equal": bool(
                    np.array_equal(scalar[1], batched[1])
                    and np.array_equal(scalar[-1], batched[-1])
                ),
                "scalar_s": round(t_scalar, 6),
                "kernel_s": round(t_batched, 6),
                "speedup": round(t_scalar / t_batched, 2) if t_batched else 0.0,
            }
        )
    return records


def write_kernels_json(path, records: list[dict]) -> None:
    document = {
        "schema": KERNELS_SCHEMA,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": records,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Replay kernel-vs-reference equivalence and emit BENCH_kernels.json."
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_kernels.json")
    args = parser.parse_args(argv)

    records = (
        collect_sdtw_equivalence(repeats=args.repeats)
        + collect_viterbi_equivalence(repeats=args.repeats)
        + collect_dnn_equivalence(repeats=args.repeats)
        + collect_chain_equivalence(repeats=args.repeats)
        + collect_align_equivalence(repeats=args.repeats)
        + collect_seed_equivalence(repeats=args.repeats)
    )
    write_kernels_json(args.out, records)
    failures = 0
    for record in records:
        status = "ok" if record["equal"] else "MISMATCH"
        failures += not record["equal"]
        print(
            f"{record['plane']:<16} {record['case']:<28} {status:<8} "
            f"speedup x{record['speedup']:.2f}",
            file=sys.stderr,
        )
    print(f"wrote {args.out} ({len(records)} records)", file=sys.stderr)
    if failures:
        print(f"{failures} equivalence failure(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
