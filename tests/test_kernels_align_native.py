"""The native Gotoh tier: byte identity to both Python tie rules, plus
its build, cache, and fallback behaviour.

* ``value`` mode must equal :func:`gotoh_scalar` (classified into
  ``=``/``X``) and ``rows`` mode the unbanded ``_align_core``, with and
  without ``free_ref_tail``: same score bits, same CIGAR, same
  ``align-cell`` ledger charge -- on random, mutated, and constant
  inputs under integer and non-integer scoring.
* The two Python tie rules differ; a pinned case keeps anyone from
  merging them silently.
* Without the native library the run warns once and stays
  byte-identical; a corrupt cached library is rebuilt; a failed build
  leaves no temp files behind.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_reports import _BASE_ARGS, GOLDEN_DIGESTS

import repro.kernels.align as native_align
from repro.genomics.mutate import apply_errors
from repro.kernels import gotoh_scalar, native_gotoh, process_mapping_ops
from repro.mapping.alignment import AlignmentConfig, _align_core, _classify_diagonals
from repro.runtime.cli import main as cli_main

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def native():
    kernels = native_gotoh()
    if kernels is None:
        pytest.skip("native Gotoh kernel unavailable (no C compiler)")
    return kernels


def _codes(values) -> np.ndarray:
    return np.array(values, dtype=np.uint8)


@st.composite
def segment_pairs(draw):
    """(ref, read) pairs of length 0..200: random, mutated, or constant."""
    kind = draw(st.sampled_from(["random", "mutated", "constant"]))
    if kind == "constant":
        base = draw(st.integers(0, 3))
        n, m = draw(st.integers(0, 200)), draw(st.integers(0, 200))
        return _codes([base] * n), _codes([draw(st.sampled_from([base, (base + 1) % 4]))] * m)
    ref = _codes(draw(st.lists(st.integers(0, 3), max_size=200)))
    if kind == "random":
        return ref, _codes(draw(st.lists(st.integers(0, 3), max_size=200)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    read = apply_errors(ref, draw(st.sampled_from([0.05, 0.15, 0.3])), rng).codes
    return ref, read[:200]


#: Integer defaults plus non-integer configs, where the association
#: order of each float64 sum shows in the score bits.
scorings = st.one_of(
    st.sampled_from([(2.0, -4.0, -4.0, -2.0), (2.1, -3.7, -4.3, -1.9), (1.0, -1.0, -6.0, -0.5)]),
    st.tuples(
        st.floats(0.1, 5.0), st.floats(-8.0, -0.1), st.floats(-8.0, -0.1), st.floats(-4.0, -0.1)
    ),
)


def _charged(fn, *args, **kwargs):
    """Run ``fn`` and return (its result, the align-cell ops it charged)."""
    ledger = process_mapping_ops()
    before = ledger.ops("align-cell")
    result = fn(*args, **kwargs)
    return result, ledger.ops("align-cell") - before


def _value_reference(a, b, *scoring):
    score, cigar = gotoh_scalar(a, b, *scoring)
    return score, _classify_diagonals(cigar, a, b)


def _rows_reference(a, b, *scoring, free_ref_tail=False):
    raw = _align_core(a, b, AlignmentConfig(*scoring), free_ref_tail=free_ref_tail)
    return raw.score, _classify_diagonals(raw.cigar, a, b)


class TestByteIdentity:
    @given(pair=segment_pairs(), scoring=scorings)
    @settings(max_examples=120, deadline=None)
    def test_value_mode_matches_gotoh_scalar(self, native, pair, scoring):
        a, b = pair
        assert _charged(native.value, a, b, *scoring) == _charged(
            _value_reference, a, b, *scoring
        )

    @given(pair=segment_pairs(), scoring=scorings)
    @settings(max_examples=120, deadline=None)
    def test_rows_mode_matches_align_core(self, native, pair, scoring):
        a, b = pair
        assert _charged(native.rows, a, b, *scoring) == _charged(
            _rows_reference, a, b, *scoring
        )

    @given(pair=segment_pairs(), scoring=scorings)
    @settings(max_examples=120, deadline=None)
    def test_rows_mode_free_ref_tail_matches_align_core(self, native, pair, scoring):
        a, b = pair
        assert _charged(native.rows, a, b, *scoring, free_ref_tail=True) == _charged(
            _rows_reference, a, b, *scoring, free_ref_tail=True
        )

    def test_fixed_seed_sweep(self, native):
        # A deterministic sweep next to the property tests, so a
        # mismatch never depends on what hypothesis happens to draw.
        rng = np.random.default_rng(2024)
        configs = [(2.0, -4.0, -4.0, -2.0), (2.1, -3.7, -4.3, -1.9), (0.3, -0.7, -1.1, -0.1)]
        for trial in range(150):
            n, m = int(rng.integers(0, 90)), int(rng.integers(0, 90))
            a = rng.integers(0, 4, n).astype(np.uint8)
            b = apply_errors(a, 0.15, rng).codes if trial % 2 else rng.integers(0, 4, m).astype(
                np.uint8
            )
            scoring = configs[trial % len(configs)]
            assert native.value(a, b, *scoring) == _value_reference(a, b, *scoring), trial
            for free in (False, True):
                assert native.rows(a, b, *scoring, free_ref_tail=free) == _rows_reference(
                    a, b, *scoring, free_ref_tail=free
                ), (trial, free)

    def test_free_ref_tail_takes_the_first_best_row(self, native):
        # A read matching the window twice ends at the first copy's row.
        a = _codes([0, 1, 2, 3, 0, 1, 2, 3])
        b = _codes([0, 1, 2, 3])
        expected = _rows_reference(a, b, 2.0, -4.0, -4.0, -2.0, free_ref_tail=True)
        assert expected == (8.0, (("=", 4),))
        assert native.rows(a, b, 2.0, -4.0, -4.0, -2.0, free_ref_tail=True) == expected

    def test_non_contiguous_inputs(self, native):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 4, 80).astype(np.uint8)[::-1]
        b = rng.integers(0, 4, 70).astype(np.uint8)[::2]
        assert native.rows(a, b, 2.0, -4.0, -4.0, -2.0) == _rows_reference(
            np.ascontiguousarray(a), np.ascontiguousarray(b), 2.0, -4.0, -4.0, -2.0
        )


def test_the_two_tie_rules_differ():
    # Same optimal score, different CIGAR: walking back from the end,
    # the value-comparing traceback takes a tied gap first (the I run
    # lands at the end), the stored pointers take a tied diagonal first
    # (the I run lands at the start). Both rules are part of the output
    # contract; merging them changes reports.
    a = np.zeros(30, dtype=np.uint8)
    b = np.zeros(45, dtype=np.uint8)
    value = _value_reference(a, b, 2.0, -4.0, -4.0, -2.0)
    rows = _rows_reference(a, b, 2.0, -4.0, -4.0, -2.0)
    assert value == (26.0, (("=", 30), ("I", 15)))
    assert rows == (26.0, (("I", 15), ("=", 30)))
    kernels = native_gotoh()
    if kernels is not None:
        assert kernels.value(a, b, 2.0, -4.0, -4.0, -2.0) == value
        assert kernels.rows(a, b, 2.0, -4.0, -4.0, -2.0) == rows


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A cold loader cache pointed at an empty per-test cache directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.delenv("GENPIP_WORKERS", raising=False)
    native_gotoh.cache_clear()
    yield tmp_path / "genpip-repro"
    native_gotoh.cache_clear()


class TestLoader:
    def test_fallback_warns_once_and_stays_byte_identical(
        self, fresh_loader, monkeypatch, tmp_path
    ):
        def broken():
            raise OSError("no compiler")

        monkeypatch.setattr(native_align, "_load_native", broken)
        out = tmp_path / "align.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(_BASE_ARGS + ["--align", "--json", str(out)]) == 0
        native_warnings = [w for w in caught if "native Gotoh" in str(w.message)]
        assert len(native_warnings) == 1
        assert native_warnings[0].category is RuntimeWarning
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DIGESTS["align"]

    def test_builds_into_the_cache_without_stray_files(self, fresh_loader):
        if native_gotoh() is None:
            pytest.skip("native Gotoh kernel unavailable (no C compiler)")
        assert [p.name for p in fresh_loader.iterdir()] == [native_align._library_name()]

    def test_corrupt_cached_library_is_rebuilt(self, fresh_loader):
        fresh_loader.mkdir(parents=True)
        target = fresh_loader / native_align._library_name()
        target.write_bytes(b"not a shared object")
        kernels = native_gotoh()
        if kernels is None:
            pytest.skip("native Gotoh kernel unavailable (no C compiler)")
        assert kernels.value(_codes([0, 1]), _codes([0, 1]), 2.0, -4.0, -4.0, -2.0) == (
            4.0, (("=", 2),)
        )
        assert target.read_bytes()[:4] == b"\x7fELF"
        assert [p.name for p in fresh_loader.iterdir()] == [target.name]

    def test_failed_build_falls_back_and_cleans_up(self, fresh_loader, monkeypatch, tmp_path):
        bad = tmp_path / "broken.c"
        bad.write_text("this is not C\n")
        monkeypatch.setattr(native_align, "_SOURCE", bad)
        with pytest.warns(RuntimeWarning, match="native Gotoh kernel unavailable"):
            assert native_gotoh() is None
        assert list(fresh_loader.iterdir()) == []
