"""Structural protocols for the pluggable engine API.

GenPIP's central claim is that the chunk pipeline (CP) and early
rejection (ER) are independent of the basecaller implementation: the
paper pairs the same control flow with a Bonito-class DNN running on PIM
hardware. This module states that independence as code: the pipeline is
typed against *protocols* -- the chunk-basecaller contract and the two
rejection-policy contracts -- not against any concrete engine.

Any object satisfying :class:`Basecaller` can drive
:class:`~repro.core.pipeline.GenPIPPipeline`; the repo ships three:

* ``"surrogate"`` -- ground-truth replay with a calibrated error model
  (:class:`~repro.basecalling.surrogate.SurrogateBasecaller`), the
  dataset-scale engine;
* ``"viterbi"`` -- real signal-space k-mer HMM decoding
  (:class:`~repro.basecalling.engines.ViterbiChunkBasecaller`);
* ``"dnn"`` -- the Bonito-like CTC network
  (:class:`~repro.basecalling.engines.DNNChunkBasecaller`).

The protocols are ``runtime_checkable`` so registries and tests can
verify conformance with ``isinstance``; being structural, third-party
engines need no imports from this repo beyond the data types.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.basecalling.types import BasecalledChunk, BasecalledRead

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.early_rejection import CMRDecision, QSRDecision
    from repro.nanopore.read_simulator import SimulatedRead
    from repro.nanopore.signal_read import SignalRead
    from repro.signal.rejection import SERDecision


@runtime_checkable
class Basecaller(Protocol):
    """The chunk-level basecaller contract the CP pipeline consumes.

    Implementations must be *chunk-deterministic*: ``basecall_chunk``
    may depend only on ``(read, index, chunk_size)``, never on which
    other chunks were requested before it. The chunk-based pipeline,
    the conventional pipeline, and every early-rejection policy must
    see byte-identical basecalls for the chunks they do process -- the
    software analogue of the paper's "no accuracy loss" claim, and the
    invariant behind the parallel runtime's report equivalence.

    For the runtime to ship an engine to worker processes it must also
    be picklable (or registered in :mod:`repro.core.registry`, which
    lets a name + config travel instead of the instance).

    Engines that can decode *signal-native* inputs -- reads that carry
    stored raw current (:class:`~repro.nanopore.signal_read.SignalRead`)
    instead of base-space ground truth -- declare it with a truthy
    ``accepts_signal_reads`` attribute (a plain class attribute; absent
    means base-space only). The pipeline and runtime check it before
    feeding a signal source to an engine.
    """

    def n_chunks(self, read: "SimulatedRead", chunk_size: int) -> int:
        """Number of chunks the read splits into at this chunk size."""
        ...

    def basecall_chunk(
        self, read: "SimulatedRead", index: int, chunk_size: int
    ) -> BasecalledChunk:
        """Basecall one chunk; deterministic in (read, index, chunk_size)."""
        ...

    def basecall_read(self, read: "SimulatedRead", chunk_size: int) -> BasecalledRead:
        """Basecall every chunk of the read and reassemble."""
        ...


@runtime_checkable
class QSRPolicyProtocol(Protocol):
    """Quality-score early-rejection contract (paper Sec. 3.2.1).

    Decides, from a few sampled basecalled chunks, whether a read is
    too low-quality to finish. The default implementation is
    :class:`~repro.core.early_rejection.QSRPolicy`.
    """

    def sample_indices(self, n_chunks: int) -> list[int]:
        """Chunk indices to basecall for the quality check."""
        ...

    def decide(self, sampled_chunks: list[BasecalledChunk]) -> "QSRDecision":
        """Accept/reject from the sampled chunks' quality scores."""
        ...


@runtime_checkable
class CMRPolicyProtocol(Protocol):
    """Chunk-mapping early-rejection contract (paper Sec. 3.2.2).

    Decides, from the chaining score of a merged chunk prefix, whether
    a read is unmappable. The default implementation is
    :class:`~repro.core.early_rejection.CMRPolicy`.
    """

    def merged_chunk_indices(self, n_chunks: int) -> list[int]:
        """Chunk indices merged before the chaining check: a prefix ``0..n-1``."""
        ...

    def decide(self, chain_score: float, merged_bases: int) -> "CMRDecision":
        """Accept/reject from the merged prefix's chaining score."""
        ...


@runtime_checkable
class SignalRejectionPolicyProtocol(Protocol):
    """Signal-domain early-rejection contract (SER; paper Sec. 2.3's
    "ideally even before they go through basecalling").

    Decides, from a signal-native read's *raw current* alone, whether
    the read is junk -- before the pipeline basecalls a single chunk.
    Runs only for :class:`~repro.nanopore.signal_read.SignalRead`
    inputs (base-space reads carry no current to screen). The default
    implementation is
    :class:`~repro.signal.rejection.SignalRejectionPolicy`, which
    matches the signal prefix against reference templates by
    subsequence DTW.

    Policies travel to pooled workers inside the
    :class:`~repro.runtime.spec.PipelineSpec`, so -- like basecallers
    -- they must be picklable and deterministic per read.
    """

    def decide(self, read: "SignalRead") -> "SERDecision":
        """Accept/reject from the read's raw-current prefix."""
        ...
