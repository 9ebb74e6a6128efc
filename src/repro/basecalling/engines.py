"""Signal-space chunk-basecaller backends for the CP pipeline.

The core pipeline consumes the structural
:class:`~repro.core.backends.Basecaller` protocol; this module adapts
the repo's two *signal-space* decoders -- the k-mer HMM Viterbi decoder
and the Bonito-like CTC network -- to that chunk-level contract, so they
run the identical CP/ER control flow as the dataset-scale surrogate.

The decoders consume raw current, so the only real question per read is
*where its signal comes from*. A :class:`SignalProvider` answers it:

* :class:`CarriedSignalProvider` -- the read **is** signal: a
  :class:`~repro.nanopore.signal_read.SignalRead` decoded from a stored
  container (the paper's actual input artefact) carries its samples,
  and the backend decodes them as provided.
* :class:`SynthesisSignalProvider` -- the read is a
  :class:`SimulatedRead` (ground truth + quality track, no samples):
  the provider synthesizes its signal on demand, deterministically in
  ``read.seed`` (one rng stream per read, so the signal -- and
  therefore every chunk decode -- is independent of processing order,
  the invariant the chunk pipeline relies on). The synthesis is
  *quality-conditioned*: measurement noise grows where the read's
  quality track is low, so low-quality reads genuinely decode worse and
  quality-based early rejection remains meaningful in signal space.

Chunks are cut on the shared :func:`~repro.basecalling.chunked.chunk_span`
grid (base coordinates) and decoded independently, losing k-mer
context at boundaries -- the same trade-off real chunked basecallers
make. ``n_true_bases`` keeps the surrogate's accounting so SQS/AQS and
the performance model treat all engines uniformly.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.basecalling.chunked import chunk_span, n_chunks, reassemble_chunks
from repro.basecalling.dnn.model import BonitoLikeModel
from repro.basecalling.types import BasecalledChunk, BasecalledRead
from repro.basecalling.viterbi import ViterbiBasecaller, ViterbiConfig
from repro.genomics import alphabet
from repro.genomics.quality import phred_to_error_prob
from repro.kernels.batched_dnn import batched_basecall
from repro.kernels.viterbi import event_features, viterbi_state_ops
from repro.kernels.workload import KernelWorkload
from repro.nanopore.pore_model import PoreModel
from repro.nanopore.read_simulator import SimulatedRead
from repro.nanopore.signal import RawSignal, SignalConfig, synthesize_signal
from repro.nanopore.signal_read import SignalRead
from repro.nanopore.signal_store import SignalRecord
from repro.signal.segmentation import SegmentationConfig, detect_events

#: Decode observation grids the Viterbi backend supports.
VITERBI_DECODE_MODES = ("samples", "events")

#: Default segmentation for event-space decoding: deliberately
#: over-sensitive (low threshold, tight window, no dwell floor).
#: A split dwell costs one stay transition -- recoverable -- while a
#: merged dwell deletes a base outright, so event decoding segments
#: aggressively and lets the trellis' stay prior absorb the splits.
#: (The chunk-grid segmentation default in
#: :class:`repro.signal.segmentation.SegmentationConfig` stays
#: conservative: grids want ~one event per base, not more.)
EVENT_SEGMENTATION = SegmentationConfig(window=2, threshold=0.8, min_dwell=1)

#: Second word of the per-read rng seed sequence, so the signal stream
#: never collides with the surrogate's (read.seed, chunk_size, index)
#: error-injection streams.
_SIGNAL_STREAM = 0x516E41

#: Reads whose synthesized signal is kept hot; the pipeline touches one
#: read at a time, so a handful covers every access pattern.
_SIGNAL_CACHE_READS = 4


def synthesize_read_signal(
    read: SimulatedRead,
    pore_model: PoreModel,
    signal_config: SignalConfig,
    quality_noise: float = 0.0,
) -> RawSignal:
    """Deterministic raw signal for a simulated read.

    Seeded purely by ``read.seed``, so the result is independent of
    processing order. ``quality_noise`` scales extra per-base
    measurement noise by the quality-implied error probability
    (``sigma_i = quality_noise * sqrt(10^(-q_i/10))``): a q=5 stretch
    gains ~0.56x that sigma, a q=30 stretch ~0.03x.
    """
    rng = np.random.default_rng([read.seed & 0x7FFFFFFF, _SIGNAL_STREAM])
    signal = synthesize_signal(read.true_codes, pore_model, signal_config, rng)
    if quality_noise <= 0.0 or signal.n_bases == 0:
        return signal
    dwells = np.diff(np.append(signal.base_starts, signal.samples.size))
    sigma = quality_noise * np.sqrt(phred_to_error_prob(read.qualities[: signal.n_bases]))
    extra = rng.normal(0.0, 1.0, size=signal.samples.size) * np.repeat(sigma, dwells)
    return RawSignal(
        samples=(signal.samples + extra).astype(np.float32),
        base_starts=signal.base_starts,
    )


@runtime_checkable
class SignalProvider(Protocol):
    """Where a read's raw signal comes from.

    ``supports`` says whether this provider can serve the read;
    ``signal_for`` returns the read's full signal. Providers must be
    deterministic per read (same read -> same signal, independent of
    call order) -- the chunk pipeline's byte-identity invariant rests
    on it -- and picklable, since backends travel to worker processes.
    """

    def supports(self, read) -> bool: ...  # pragma: no cover - protocol

    def signal_for(self, read) -> RawSignal: ...  # pragma: no cover - protocol


class CarriedSignalProvider:
    """Serves reads that *are* signal (:class:`SignalRead`).

    This is the signal-native path: the samples came from a container
    (or straight from a device) and are decoded as provided.
    ``normalize`` applies per-read median/MAD normalisation first --
    cached per read behind a small LRU, so chunked decoding normalises
    once per read, not once per chunk. ``calibration`` instead applies
    one *container-wide* affine map
    (:class:`~repro.signal.calibration.SignalCalibration`) onto the
    decoders' picoampere scale: unlike per-read normalisation it
    preserves absolute level differences between reads, which is what
    decoding a container written in non-pA units requires. The two are
    mutually exclusive. Containers written by this repo store
    picoampere-scale samples (the units the decoders assume), so both
    default off; the caches are dropped on pickling, like the synthesis
    provider's.
    """

    def __init__(self, normalize: bool = False, calibration=None):
        if normalize and calibration is not None:
            raise ValueError(
                "normalize and calibration are mutually exclusive: per-read "
                "median/MAD normalisation would undo the container-wide "
                "affine calibration"
            )
        self._normalize = normalize
        self._calibration = calibration
        # Keyed by the sample buffer's identity, with the buffer itself
        # pinned in the value: while an entry lives, its id cannot be
        # reused, and the `is` check on hit rejects any aliasing --
        # read ids repeat across containers (read-000000, ...), so an
        # id-based key alone could serve another container's signal.
        self._normalized_cache: "OrderedDict[tuple[str, int], tuple]" = OrderedDict()

    def supports(self, read) -> bool:
        return isinstance(read, SignalRead)

    def signal_for(self, read: SignalRead) -> RawSignal:
        if not self._normalize and self._calibration is None:
            return read.signal
        samples = read.signal.samples
        key = (read.read_id, id(samples))
        entry = self._normalized_cache.get(key)
        if entry is not None and entry[0] is samples:
            self._normalized_cache.move_to_end(key)
            return entry[1]
        if self._calibration is not None:
            signal = RawSignal(
                samples=self._calibration.apply(samples),
                base_starts=read.signal.base_starts,
            )
        else:
            signal = read.normalized().signal
        self._normalized_cache[key] = (samples, signal)
        while len(self._normalized_cache) > _SIGNAL_CACHE_READS:
            self._normalized_cache.popitem(last=False)
        return signal

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_normalized_cache"] = OrderedDict()
        return state


class SynthesisSignalProvider:
    """Synthesizes signal for base-space reads (:class:`SimulatedRead`).

    Deterministic in ``read.seed`` and quality-conditioned (see
    :func:`synthesize_read_signal`). A small LRU keeps the few reads
    the pipeline touches concurrently hot; the cache is dropped on
    pickling so instances stay cheap to ship to worker processes.
    """

    def __init__(
        self,
        pore_model: PoreModel,
        signal_config: SignalConfig,
        quality_noise: float,
    ):
        self._pore_model = pore_model
        self._signal_config = signal_config
        self._quality_noise = quality_noise
        self._signal_cache: OrderedDict[tuple[str, int, int], RawSignal] = OrderedDict()

    @property
    def pore_model(self) -> PoreModel:
        return self._pore_model

    @property
    def signal_config(self) -> SignalConfig:
        return self._signal_config

    def supports(self, read) -> bool:
        return isinstance(read, SimulatedRead)

    def signal_for(self, read: SimulatedRead) -> RawSignal:
        """The read's synthesized signal (cached per read).

        The key includes the length so manually constructed reads that
        reuse an id + seed with different content don't alias a stale
        entry (content itself is not hashed -- that would cost O(read)
        per chunk call)."""
        key = (read.read_id, read.seed, len(read))
        cached = self._signal_cache.get(key)
        if cached is not None:
            self._signal_cache.move_to_end(key)
            return cached
        signal = synthesize_read_signal(
            read, self._pore_model, self._signal_config, self._quality_noise
        )
        self._signal_cache[key] = signal
        while len(self._signal_cache) > _SIGNAL_CACHE_READS:
            self._signal_cache.popitem(last=False)
        return signal

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_signal_cache"] = OrderedDict()
        return state


class SignalSpaceBasecaller:
    """Shared chunk plumbing for engines that decode raw signal.

    Subclasses implement :meth:`_decode` (samples -> bases, qualities);
    this base supplies the :class:`~repro.core.backends.Basecaller`
    surface: the shared chunk grid, chunk reassembly, and signal
    resolution through an ordered chain of :class:`SignalProvider`\\ s
    -- carried signal first (signal-native inputs), synthesis as the
    fallback for base-space simulated reads. ``providers`` replaces the
    leading carried provider(s) -- e.g. a
    ``CarriedSignalProvider(normalize=True)`` for containers in non-pA
    units -- while synthesis always stays the final fallback.
    """

    #: Signal-space engines decode :class:`SignalRead` inputs natively.
    accepts_signal_reads = True

    def __init__(
        self,
        pore_model: PoreModel,
        signal_config: SignalConfig,
        quality_noise: float,
        normalize_carried: bool = False,
        providers: "tuple[SignalProvider, ...] | None" = None,
    ):
        self._synthesis = SynthesisSignalProvider(pore_model, signal_config, quality_noise)
        if providers is None:
            providers = (CarriedSignalProvider(normalize=normalize_carried),)
        self._providers: tuple[SignalProvider, ...] = tuple(providers) + (
            self._synthesis,
        )
        # Chunk results primed by a batched decode pass (see
        # prime_chunk_batch on the DNN backend); consumed -- and
        # removed -- by basecall_chunk. Never pickled: priming happens
        # inside whichever process runs the decode.
        self._primed_chunks: dict[tuple[str, int, int], tuple[np.ndarray, np.ndarray]] = {}

    @property
    def pore_model(self) -> PoreModel:
        return self._synthesis.pore_model

    @property
    def signal_config(self) -> SignalConfig:
        return self._synthesis.signal_config

    @property
    def providers(self) -> tuple[SignalProvider, ...]:
        return self._providers

    def read_signal(self, read) -> RawSignal:
        """The read's signal, from the first provider that serves it."""
        for provider in self._providers:
            if provider.supports(read):
                return provider.signal_for(read)
        raise TypeError(
            f"no signal provider for {type(read).__name__}; signal-space engines "
            "decode SignalRead (carried samples) or SimulatedRead (synthesis)"
        )

    def synthesize_signal(self, read: SimulatedRead) -> RawSignal:
        """Synthesize a base-space read's signal (bypasses carried paths).

        This is what writes signal containers: the synthesized current
        of a simulated dataset, persisted once, replaces synthesis for
        every subsequent signal-native run.
        """
        return self._synthesis.signal_for(read)

    def signal_records(self, reads: Iterable[SimulatedRead]) -> Iterator[SignalRecord]:
        """Container records of the reads' synthesized signals (streamed)."""
        for read in reads:
            yield SignalRecord(read_id=read.read_id, signal=self.synthesize_signal(read))

    def n_chunks(self, read, chunk_size: int) -> int:
        """Number of chunks the read splits into (shared grid)."""
        return n_chunks(len(read), chunk_size)

    def basecall_chunk(self, read, index: int, chunk_size: int) -> BasecalledChunk:
        """Decode one chunk's signal slice.

        The signal models ``len(read) - k + 1`` k-mer positions, so the
        final chunk's bound is clamped to the modelled range (its last
        ``k - 1`` true bases have no dedicated samples; the decoder's
        trailing k-mer emission covers them approximately).
        """
        start, end = chunk_span(len(read), chunk_size, index)
        primed = self._primed_chunks.pop((read.read_id, index, chunk_size), None)
        if primed is not None:
            codes, qualities = primed
        else:
            signal = self.read_signal(read)
            samples = signal.clamped_slice(start, end)
            codes, qualities = self._decode(samples, read.read_id)
        return BasecalledChunk(
            chunk_index=index,
            codes=codes,
            qualities=qualities,
            n_true_bases=end - start,
        )

    def basecall_read(self, read, chunk_size: int) -> BasecalledRead:
        """Basecall every chunk of the read and reassemble."""
        chunks = [
            self.basecall_chunk(read, i, chunk_size)
            for i in range(self.n_chunks(read, chunk_size))
        ]
        return reassemble_chunks(read.read_id, chunks)

    def _decode(self, samples: np.ndarray, read_id: str) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_primed_chunks"] = {}
        return state


@dataclass(frozen=True)
class ViterbiBackendConfig:
    """Construction recipe for :class:`ViterbiChunkBasecaller`.

    A plain picklable dataclass, so a registry name + this config can
    round-trip to worker processes and rebuild an identical engine.

    Attributes
    ----------
    pore_k, pore_seed:
        Shape of the deterministic synthetic pore model. ``k`` sets the
        Viterbi state space (``4**k``); tests drop to ``k=3`` for speed.
    decoder:
        Viterbi decoding parameters.
    signal:
        Signal synthesis parameters.
    quality_noise:
        Scale of the quality-conditioned extra measurement noise (pA);
        0 disables conditioning.
    normalize_carried:
        Median/MAD-normalise carried (signal-native) reads before
        decoding; for containers whose samples are not in picoampere
        units. Off by default -- this repo's containers store pA.
    decode:
        Observation grid of the trellis: ``"samples"`` (one observation
        per raw sample, the classical decode) or ``"events"`` (samples
        segmented into events first -- ~``dwell_mean``x fewer
        observations, see
        :meth:`~repro.basecalling.viterbi.ViterbiBasecaller.basecall_events`).
    segmentation:
        Event-detection parameters for ``decode="events"``.
    """

    pore_k: int = 5
    pore_seed: int = 7
    decoder: ViterbiConfig = field(default_factory=ViterbiConfig)
    signal: SignalConfig = field(default_factory=SignalConfig)
    quality_noise: float = 6.0
    normalize_carried: bool = False
    decode: str = "samples"
    segmentation: SegmentationConfig = EVENT_SEGMENTATION

    def __post_init__(self) -> None:
        if self.quality_noise < 0:
            raise ValueError("quality_noise must be non-negative")
        if self.decode not in VITERBI_DECODE_MODES:
            raise ValueError(
                f"unknown decode mode {self.decode!r}; expected one of {VITERBI_DECODE_MODES}"
            )


class ViterbiChunkBasecaller(SignalSpaceBasecaller):
    """The k-mer HMM Viterbi decoder behind the chunk-basecaller contract.

    ``providers`` overrides the leading carried-signal provider(s) --
    e.g. a :class:`CarriedSignalProvider` with a per-container
    :class:`~repro.signal.calibration.SignalCalibration` for stores
    written in non-pA units; synthesis stays the final fallback.
    """

    def __init__(
        self,
        config: ViterbiBackendConfig | None = None,
        providers: "tuple[SignalProvider, ...] | None" = None,
    ):
        config = config or ViterbiBackendConfig()
        pore = PoreModel.synthetic(k=config.pore_k, seed=config.pore_seed)
        super().__init__(
            pore,
            config.signal,
            config.quality_noise,
            normalize_carried=config.normalize_carried,
            providers=providers,
        )
        self._config = config
        self._decoder = ViterbiBasecaller(pore, config.decoder)

    @property
    def config(self) -> ViterbiBackendConfig:
        return self._config

    @property
    def decoder(self) -> ViterbiBasecaller:
        return self._decoder

    def _decode(self, samples: np.ndarray, read_id: str) -> tuple[np.ndarray, np.ndarray]:
        if self._config.decode == "events":
            samples = np.asarray(samples, dtype=np.float64)
            starts = detect_events(samples, self._config.segmentation)
            means, dwells = event_features(samples, starts)
            called = self._decoder.basecall_events(means, dwells, read_id=read_id)
        else:
            called = self._decoder.basecall(samples, read_id=read_id)
        return called.codes, called.qualities

    def kernel_workload(self, n_bases: int) -> KernelWorkload:
        """Trellis state-space ops for decoding ``n_bases`` worth of signal.

        The sample-space trellis sees ``dwell_mean`` observations per
        base; the event-space trellis sees ~one (the segmentation's
        whole point). Both pay :data:`TRANSITIONS_PER_STATE
        <repro.kernels.viterbi.TRANSITIONS_PER_STATE>` transition
        evaluations per state per observation.
        """
        observations = (
            int(n_bases)
            if self._config.decode == "events"
            else int(round(n_bases * self._config.signal.dwell_mean))
        )
        return KernelWorkload(
            kind="viterbi-state",
            ops=viterbi_state_ops(observations, int(self.pore_model.levels.size)),
            unit="state-ops",
        )


@dataclass(frozen=True)
class DNNBackendConfig:
    """Construction recipe for :class:`DNNChunkBasecaller`.

    Attributes
    ----------
    model_seed, hidden:
        Deterministic weight seed and GRU width of the Bonito-like
        network (untrained: the engine exercises the real compute graph
        and control flow, not trained accuracy).
    pore_k, pore_seed, signal, quality_noise, normalize_carried:
        Signal synthesis and carried-signal handling, as for
        :class:`ViterbiBackendConfig`.
    batched:
        Decode chunk windows in stacked multi-read forward passes
        (:func:`repro.kernels.batched_dnn.batched_basecall`) when the
        pipeline primes a batch. The batched pass reassociates matmuls,
        so outputs match the per-chunk path to rounding rather than
        bitwise -- hence opt-in. Serial and pooled runs prime the same
        batches (work units are composed identically), so the
        serial == pooled byte-identity of reports is preserved.
    """

    model_seed: int = 0
    hidden: int = 96
    pore_k: int = 5
    pore_seed: int = 7
    signal: SignalConfig = field(default_factory=SignalConfig)
    quality_noise: float = 6.0
    normalize_carried: bool = False
    batched: bool = False

    def __post_init__(self) -> None:
        if self.hidden < 1:
            raise ValueError("hidden must be positive")
        if self.quality_noise < 0:
            raise ValueError("quality_noise must be non-negative")


class DNNChunkBasecaller(SignalSpaceBasecaller):
    """The Bonito-like CTC network behind the chunk-basecaller contract.

    The network ships with deterministic random weights (training is out
    of scope offline), so its calls do not recover the input sequence --
    reads flow through the identical CP/ER control flow and typically
    end rejected or unmapped. That makes this engine a *workload and
    integration* backend: it proves the pipeline is basecaller-agnostic
    and feeds the Helix MVM cost model with real shapes.
    """

    def __init__(
        self,
        config: DNNBackendConfig | None = None,
        providers: "tuple[SignalProvider, ...] | None" = None,
    ):
        config = config or DNNBackendConfig()
        pore = PoreModel.synthetic(k=config.pore_k, seed=config.pore_seed)
        super().__init__(
            pore,
            config.signal,
            config.quality_noise,
            normalize_carried=config.normalize_carried,
            providers=providers,
        )
        self._config = config
        self._model = BonitoLikeModel(seed=config.model_seed, hidden=config.hidden)

    @property
    def config(self) -> DNNBackendConfig:
        return self._config

    @property
    def model(self) -> BonitoLikeModel:
        return self._model

    def _decode(self, samples: np.ndarray, read_id: str) -> tuple[np.ndarray, np.ndarray]:
        bases, qualities = self._model.basecall(samples)
        return alphabet.encode(bases), qualities

    def prime_chunk_batch(
        self, requests: "list[tuple[object, int]]", chunk_size: int
    ) -> int:
        """Batch-decode ``(read, chunk_index)`` requests ahead of time.

        Stacks the requested chunk windows into grouped
        :func:`~repro.kernels.batched_dnn.batched_basecall` forward
        passes and parks the results where :meth:`basecall_chunk` finds
        them. A no-op unless the backend was configured ``batched``;
        out-of-range indices are skipped (the per-chunk path will raise
        on them as usual). Returns the number of chunks primed.
        """
        if not self._config.batched:
            return 0
        keys: list[tuple[str, int, int]] = []
        windows: list[np.ndarray] = []
        for read, index in requests:
            if not 0 <= index < n_chunks(len(read), chunk_size):
                continue
            key = (read.read_id, index, chunk_size)
            if key in self._primed_chunks:
                continue
            start, end = chunk_span(len(read), chunk_size, index)
            signal = self.read_signal(read)
            keys.append(key)
            windows.append(signal.clamped_slice(start, end))
        if not windows:
            return 0
        for key, (bases, qualities) in zip(
            keys, batched_basecall(self._model, windows), strict=True
        ):
            self._primed_chunks[key] = (alphabet.encode(bases), qualities)
        return len(keys)

    def kernel_workload(self, n_bases: int) -> KernelWorkload:
        """DNN MACs for decoding ``n_bases`` worth of signal.

        Charged from the model's own layer shapes
        (:meth:`BonitoLikeModel.workload
        <repro.basecalling.dnn.model.BonitoLikeModel.workload>`) on the
        ``dwell_mean``-samples-per-base window the chunk grid feeds it.
        Batching does not change the MAC count -- only how the MACs are
        grouped into matmuls -- so the workload is batching-agnostic.
        """
        n_samples = int(round(n_bases * self._config.signal.dwell_mean))
        return KernelWorkload(
            kind="dnn-mvm",
            ops=int(self._model.workload(n_samples).total_macs),
            unit="macs",
        )
