"""A real signal-space basecaller: k-mer HMM Viterbi decoding.

This is the classical HMM formulation used by early nanopore basecallers
(Nanocall, Scrappie-events): the hidden state is the k-mer occupying the
pore; at each signal sample the state either *stays* (the same base keeps
translocating) or *moves* to one of the 4 k-mers obtained by shifting in
a new base. Emissions are Gaussian around the pore model's per-k-mer
level.

The decoder is exact Viterbi over ``4**k`` states, vectorised with numpy
across the state dimension. Per-base quality scores derive from the
emission-posterior margin of the decoded state (confident samples give
margins near 0 in log space, hence high Phred scores), which makes
quality fall monotonically with signal noise -- the property the
surrogate basecaller is calibrated to and that quality-based early
rejection exploits.

On clean signal the decoder recovers the input sequence exactly (see
``tests/test_basecalling_viterbi.py``); with realistic noise it exhibits
the expected substitution/indel error mix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.basecalling.chunked import chunk_bounds
from repro.basecalling.types import BasecalledChunk, BasecalledRead
from repro.genomics import alphabet
from repro.kernels.viterbi import (
    event_emissions,
    viterbi_forward,
    viterbi_traceback,
)
from repro.nanopore.pore_model import PoreModel
from repro.nanopore.signal import RawSignal


@dataclass(frozen=True)
class ViterbiConfig:
    """Decoder parameters.

    Attributes
    ----------
    stay_prob:
        Prior probability that consecutive samples belong to the same
        base. Should roughly match ``1 - 1/dwell_mean`` of the signal
        generator.
    extra_noise_std:
        Measurement-noise standard deviation assumed *in addition to*
        the pore model's per-k-mer spread.
    max_quality:
        Phred cap for emitted per-base qualities.
    event_stay_prob:
        Stay prior for *event-space* decoding (:meth:`basecall_events`).
        Events are ~one per base-dwell, so this prior only absorbs
        over-segmentation (split dwells), not dwell runs; with the
        deliberately over-sensitive event segmentation the backends use
        (splits are recoverable, merges are not) roughly half the
        events are splits, hence the default.
    """

    stay_prob: float = 0.8
    extra_noise_std: float = 1.0
    max_quality: float = 30.0
    event_stay_prob: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.stay_prob < 1.0:
            raise ValueError("stay_prob must be in (0, 1)")
        if not 0.0 < self.event_stay_prob < 1.0:
            raise ValueError("event_stay_prob must be in (0, 1)")
        if self.extra_noise_std < 0:
            raise ValueError("extra_noise_std must be non-negative")


class ViterbiBasecaller:
    """Exact Viterbi decoding of raw signal against a pore model."""

    def __init__(self, pore_model: PoreModel, config: ViterbiConfig | None = None):
        self._model = pore_model
        self._config = config or ViterbiConfig()
        k = pore_model.k
        n_states = 4**k
        states = np.arange(n_states, dtype=np.int64)
        # Predecessors of state s (on a move): (c << 2(k-1)) | (s >> 2).
        self._pred = ((np.arange(4, dtype=np.int64)[None, :] << (2 * (k - 1))) | (states >> 2)[:, None])
        self._sigma = np.sqrt(pore_model.spread**2 + self._config.extra_noise_std**2)
        self._log_sigma = np.log(self._sigma)
        self._log_stay = float(np.log(self._config.stay_prob))
        self._log_move = float(np.log1p(-self._config.stay_prob) - np.log(4.0))
        self._log_stay_event = float(np.log(self._config.event_stay_prob))
        self._log_move_event = float(
            np.log1p(-self._config.event_stay_prob) - np.log(4.0)
        )

    @property
    def pore_model(self) -> PoreModel:
        return self._model

    @property
    def config(self) -> ViterbiConfig:
        return self._config

    def _emission_loglik(self, samples: np.ndarray) -> np.ndarray:
        """``float64[T, S]`` Gaussian log-likelihood of each state."""
        x = np.asarray(samples, dtype=np.float64)[:, None]
        z = (x - self._model.levels[None, :]) / self._sigma[None, :]
        return -0.5 * z * z - self._log_sigma[None, :]

    def decode_states(self, samples: np.ndarray) -> np.ndarray:
        """Most-likely state path (one packed k-mer per sample)."""
        path, _ = self._viterbi(samples)
        return path

    def _viterbi(self, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Viterbi DP; returns (state path, full score matrix).

        Forward pass and traceback run on the shared trellis kernels
        (:func:`repro.kernels.viterbi.viterbi_forward` /
        :func:`~repro.kernels.viterbi.viterbi_traceback`). The score
        matrix is kept (``float32[T, S]``) so that per-base confidence
        margins can be read off during traceback; memory is ~4 MB per
        1000 samples with k=5, i.e. this decoder is meant for
        chunk-scale signals, which is how GenPIP feeds its basecaller.
        """
        samples = np.asarray(samples, dtype=np.float64)
        if samples.size == 0:
            n_states = self._model.levels.size
            return np.empty(0, dtype=np.int64), np.empty((0, n_states), dtype=np.float32)
        emissions = self._emission_loglik(samples)
        backptr, scores, dp = viterbi_forward(
            emissions, self._pred, self._log_stay, self._log_move
        )
        return viterbi_traceback(backptr, self._pred, dp), scores

    def basecall(self, samples: np.ndarray, read_id: str = "viterbi-read") -> BasecalledRead:
        """Basecall a raw-signal array into bases + per-base qualities."""
        path, scores = self._viterbi(samples)
        return self._read_from_path(path, scores, read_id)

    def basecall_events(
        self,
        means: np.ndarray,
        dwells: np.ndarray,
        read_id: str = "viterbi-read",
    ) -> BasecalledRead:
        """Basecall pre-segmented events (means + dwells) instead of samples.

        The trellis is the same k-mer HMM, but each observation is one
        detected event (:func:`repro.signal.segmentation.detect_events`
        grid) instead of one raw sample -- ~``dwell_mean``x fewer
        observations, the event-space decode's speed source. Emissions
        weight each event's Gaussian log-likelihood by its dwell
        (:func:`repro.kernels.viterbi.event_emissions`), so score
        magnitudes -- and hence the quality margins -- stay commensurate
        with the sample-space decode.
        """
        means = np.asarray(means, dtype=np.float64)
        dwells = np.asarray(dwells, dtype=np.float64)
        if means.size == 0:
            return BasecalledRead(
                read_id=read_id, codes=np.empty(0, np.uint8), qualities=np.empty(0), n_chunks=1
            )
        emissions = event_emissions(
            means, dwells, self._model.levels, self._sigma, self._log_sigma
        )
        backptr, scores, dp = viterbi_forward(
            emissions, self._pred, self._log_stay_event, self._log_move_event
        )
        path = viterbi_traceback(backptr, self._pred, dp)
        return self._read_from_path(path, scores, read_id)

    def _read_from_path(
        self, path: np.ndarray, scores: np.ndarray, read_id: str
    ) -> BasecalledRead:
        """Collapse a state path + score matrix into a BasecalledRead."""
        if path.size == 0:
            return BasecalledRead(
                read_id=read_id, codes=np.empty(0, np.uint8), qualities=np.empty(0), n_chunks=1
            )
        k = self._model.k

        # Collapse stays: a new base is emitted whenever the state changes.
        moved = np.concatenate(([True], path[1:] != path[:-1]))
        # The first state contributes k bases; each move contributes the
        # newly shifted-in base (bottom 2 bits of the new state).
        first_kmer = alphabet.encode(alphabet.int_to_kmer(int(path[0]), k))
        move_positions = np.nonzero(moved)[0][1:]
        appended = (path[move_positions] & 3).astype(np.uint8)
        codes = np.concatenate((first_kmer, appended))

        qualities = self._base_qualities(scores, path, move_positions, codes.size)
        return BasecalledRead(read_id=read_id, codes=codes, qualities=qualities, n_chunks=1)

    def basecall_signal(self, signal: RawSignal, read_id: str = "viterbi-read") -> BasecalledRead:
        """Convenience wrapper over :meth:`basecall` for RawSignal."""
        return self.basecall(signal.samples, read_id=read_id)

    def basecall_signal_chunks(
        self, signal: RawSignal, chunk_size: int, read_id: str = "viterbi-read"
    ) -> list[BasecalledChunk]:
        """Basecall a signal chunk by chunk (~``chunk_size`` bases each).

        Chunks are cut on the signal generator's base boundaries, exactly
        as GenPIP's controller feeds signal chunks to the PIM basecaller.
        Each chunk is decoded independently, so k-mer context is lost at
        boundaries (a few bases of edge noise per chunk) -- the same
        trade-off real chunked basecallers make.
        """
        n_bases = signal.n_bases
        chunks: list[BasecalledChunk] = []
        for index, (start, end) in enumerate(chunk_bounds(n_bases, chunk_size)):
            piece = signal.slice_bases(start, end) if n_bases else signal.samples
            called = self.basecall(piece, read_id=read_id)
            chunks.append(
                BasecalledChunk(
                    chunk_index=index,
                    codes=called.codes,
                    qualities=called.qualities,
                    n_true_bases=end - start,
                )
            )
        return chunks

    def _base_qualities(
        self,
        scores: np.ndarray,
        path: np.ndarray,
        move_positions: np.ndarray,
        n_bases: int,
    ) -> np.ndarray:
        """Per-base Phred scores from sibling path-score margins.

        When the decoder emits a base (a move into state ``s``), the
        competing hypotheses at that instant are the sibling states that
        share the same k-1 prefix but end in a different base
        (``s ^ 1, s ^ 2, s ^ 3`` in packed form). The margin between the
        decoded state's cumulative Viterbi score and the best sibling's
        is a log-odds-like confidence; mapping it through a logistic
        gives an error probability and hence a Phred score. Clean signal
        yields large margins (scores diverge fast), noise shrinks them.
        """
        k = self._model.k
        if move_positions.size:
            states = path[move_positions]
            base_ids = (states & 3).astype(np.int64)
            prefix = states & ~np.int64(3)
            siblings = prefix[:, None] | np.arange(4, dtype=np.int64)[None, :]
            sib_scores = scores[move_positions[:, None], siblings].astype(np.float64)
            own = sib_scores[np.arange(states.size), base_ids]
            sib_scores[np.arange(states.size), base_ids] = -np.inf
            margin = own - sib_scores.max(axis=1)
            # Logistic mapping: P(error) ~ 1 / (1 + e^margin).
            p_error = 1.0 / (1.0 + np.exp(np.clip(margin, 0.0, 60.0)))
            move_quality = -10.0 * np.log10(np.clip(p_error, 1e-4, 1.0))
            move_quality = np.clip(move_quality, 1.0, self._config.max_quality)
        else:
            move_quality = np.empty(0, dtype=np.float64)

        qualities = np.empty(n_bases, dtype=np.float64)
        head = move_quality.mean() if move_quality.size else self._config.max_quality / 2.0
        qualities[:k] = head
        qualities[k:] = move_quality[: n_bases - k]
        return qualities
