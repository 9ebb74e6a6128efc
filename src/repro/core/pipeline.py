"""The chunk-based pipeline (CP) with early rejection (ER) interleaved.

Functional model of the paper's Fig. 6 control flow:

1. basecall the ``N_qs`` evenly-sampled chunks, check QSR -> maybe stop;
2. basecall the first ``N_cm`` chunks, merge, seed + chain, check CMR ->
   maybe stop;
3. basecall the remaining chunks and seed them as one run; final
   chaining + alignment produce the mapping result. Each run (the CMR
   prefix, the rest) is one ``seed`` span, seeded with ``k + w - 2``
   bases of context, so the anchors are *exactly* whole-read seeding's
   (see :mod:`repro.mapping.mapper`).

The :class:`ConventionalPipeline` (basecall everything -> read-level QC
-> map) is provided for equivalence testing and as the software baseline
of the evaluation. With ER disabled, the chunk-based pipeline produces
*identical* results to the conventional one -- the paper's "negligible
accuracy loss" claim, which ``tests/test_core_pipeline.py`` checks
exactly.

Timing is *not* modelled here: this module decides what work happens;
:mod:`repro.perf` decides how long that work takes on each system.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.basecalling.chunked import reassemble_chunks
from repro.basecalling.surrogate import SurrogateBasecaller
from repro.basecalling.types import BasecalledChunk, BasecalledRead
from repro.core.backends import (
    Basecaller,
    CMRPolicyProtocol,
    QSRPolicyProtocol,
    SignalRejectionPolicyProtocol,
)
from repro.core.config import GenPIPConfig
from repro.core.early_rejection import CMRDecision, CMRPolicy, QSRDecision, QSRPolicy
from repro.mapping.index import MinimizerIndex
from repro.mapping.mapper import IncrementalChunkMapper, MapperConfig, MappingResult
from repro.nanopore.read_simulator import SimulatedRead
from repro.nanopore.signal_read import SignalRead
from repro.obs.trace import Tracer, active_tracer, use_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only (keeps repro.signal lazy)
    from collections.abc import Iterable

    from repro.signal.rejection import SERDecision

#: Anything the chunk pipeline can process: a base-space simulated read
#: or a signal-native read carrying stored raw current. Both expose
#: ``read_id`` and ``len(read)`` (the shared chunk/shard grid); which
#: kinds a run supports is the basecaller's affair (signal-space
#: engines declare ``accepts_signal_reads = True``).
PipelineRead = SimulatedRead | SignalRead


class ReadStatus(enum.Enum):
    """Terminal state of one read in the pipeline."""

    #: Stopped by signal-domain early rejection (before any basecalling).
    REJECTED_SIGNAL = "rejected_signal"
    #: Stopped by quality-score early rejection (after N_qs chunks).
    REJECTED_QSR = "rejected_qsr"
    #: Stopped by chunk-mapping early rejection (after ~N_qs + N_cm chunks).
    REJECTED_CMR = "rejected_cmr"
    #: Fully basecalled but dropped by read-level quality control.
    FAILED_QC = "failed_qc"
    #: Fully processed but no confident mapping was found.
    UNMAPPED = "unmapped"
    #: Fully processed and mapped.
    MAPPED = "mapped"


@dataclass(frozen=True)
class ReadOutcome:
    """Everything the experiments and the performance model need per read.

    Work counters count *distinct* chunks (a chunk basecalled for QSR is
    not re-basecalled later).
    """

    read_id: str
    status: ReadStatus
    read_length: int
    n_chunks_total: int
    n_chunks_basecalled: int
    n_bases_basecalled: int
    n_chunks_seeded: int
    n_chain_invocations: int
    aligned: bool
    mean_quality: float | None = None
    ser: SERDecision | None = None
    qsr: QSRDecision | None = None
    cmr: CMRDecision | None = None
    mapping: MappingResult | None = None

    @property
    def rejected_early(self) -> bool:
        return self.status in (
            ReadStatus.REJECTED_SIGNAL,
            ReadStatus.REJECTED_QSR,
            ReadStatus.REJECTED_CMR,
        )

    @property
    def basecall_fraction(self) -> float:
        """Fraction of the read's chunks that were actually basecalled."""
        return self.n_chunks_basecalled / max(self.n_chunks_total, 1)


class GenPIPPipeline:
    """Chunk-based pipeline with optional early rejection.

    The engines are injected behind structural protocols
    (:mod:`repro.core.backends`): any chunk-deterministic
    :class:`~repro.core.backends.Basecaller` and any pair of rejection
    policies run the identical control flow. Defaults are the surrogate
    basecaller and the paper's QSR/CMR policies derived from ``config``.
    """

    def __init__(
        self,
        index: MinimizerIndex,
        basecaller: Basecaller | None = None,
        config: GenPIPConfig | None = None,
        mapper_config: MapperConfig | None = None,
        align: bool = True,
        qsr_policy: QSRPolicyProtocol | None = None,
        cmr_policy: CMRPolicyProtocol | None = None,
        ser_policy: SignalRejectionPolicyProtocol | None = None,
        tracer: Tracer | None = None,
    ):
        self._index = index
        self._basecaller: Basecaller = basecaller or SurrogateBasecaller()
        self._config = config or GenPIPConfig()
        self._mapper_config = mapper_config or MapperConfig()
        self._align = align
        self._qsr: QSRPolicyProtocol = qsr_policy or QSRPolicy(
            self._config.theta_qs, self._config.n_qs
        )
        self._cmr: CMRPolicyProtocol = cmr_policy or CMRPolicy(
            self._config.theta_cm, self._config.n_cm
        )
        # SER has no reference-free default: None simply disables the
        # pre-basecalling stage (the PR-4-and-earlier control flow).
        self._ser: SignalRejectionPolicyProtocol | None = ser_policy
        # Span tracer: an explicit instance pins the clock (tests);
        # None defers to the process tracer per read, so enabling
        # tracing after construction (CLI, worker init) still takes.
        self._tracer = tracer

    @property
    def config(self) -> GenPIPConfig:
        return self._config

    @property
    def index(self) -> MinimizerIndex:
        return self._index

    @property
    def basecaller(self) -> Basecaller:
        return self._basecaller

    @property
    def mapper_config(self) -> MapperConfig:
        return self._mapper_config

    @property
    def align(self) -> bool:
        return self._align

    @property
    def qsr_policy(self) -> QSRPolicyProtocol:
        return self._qsr

    @property
    def cmr_policy(self) -> CMRPolicyProtocol:
        return self._cmr

    @property
    def ser_policy(self) -> SignalRejectionPolicyProtocol | None:
        return self._ser

    def process_batch(self, reads: "list[PipelineRead]") -> "list[ReadOutcome]":
        """Process a batch of reads in order (one runtime work unit).

        Reads are independent -- the pipeline keeps no cross-read state
        -- so batching exists purely to amortise scheduling and IPC in
        :mod:`repro.runtime`. Backends that batch-decode across reads
        (``prime_chunk_batch``) are handed the batch's first-stage
        chunk set up front; outcomes are unchanged, only the kernel
        grouping differs.
        """
        self._prime_basecalls(reads)
        return [self.process_read(read) for read in reads]

    def _prime_basecalls(self, reads: "list[PipelineRead]") -> int:
        """Offer the batch's first-stage chunks to a batching backend.

        Collects exactly the chunks stage 1 of :meth:`process_read`
        deterministically decodes for each read -- the QSR sample when
        QSR will run, else the CMR merge set, else every chunk -- and
        passes them to the backend's ``prime_chunk_batch`` in one call,
        so a batched engine stacks them into multi-read forward passes.
        Reads SER might reject are skipped (their chunks may never be
        decoded at all). Backends without the hook cost nothing.
        Returns the number of chunks primed.
        """
        prime = getattr(self._basecaller, "prime_chunk_batch", None)
        if prime is None:
            return 0
        cfg = self._config
        chunk_size = cfg.chunk_size
        requests: list[tuple[PipelineRead, int]] = []
        for read in reads:
            n_chunks = self._basecaller.n_chunks(read, chunk_size)
            er_eligible = n_chunks >= cfg.min_chunks_for_er
            if (
                cfg.enable_ser
                and self._ser is not None
                and er_eligible
                and isinstance(read, SignalRead)
            ):
                continue
            if cfg.enable_qsr and er_eligible:
                indices: "Iterable[int]" = self._qsr.sample_indices(n_chunks)
            else:
                indices = (
                    self._cmr.merged_chunk_indices(n_chunks)
                    if cfg.enable_cmr and er_eligible
                    else range(n_chunks)
                )
            requests.extend((read, index) for index in indices)
        if not requests:
            return 0
        return prime(requests, chunk_size)

    def process_read(self, read: PipelineRead) -> ReadOutcome:
        """Run one read through CP (+ ER if enabled).

        Accepts base-space :class:`SimulatedRead`\\ s with any backend,
        and signal-native :class:`SignalRead`\\ s with backends that
        decode provided signal (``accepts_signal_reads``) -- the same
        CP/ER control flow either way.
        """
        if isinstance(read, SignalRead) and not getattr(
            self._basecaller, "accepts_signal_reads", False
        ):
            raise TypeError(
                f"{type(self._basecaller).__name__} cannot decode signal-native "
                "reads; use a signal-space backend ('viterbi', 'dnn') for raw-"
                "current inputs"
            )
        if self._tracer is not None:
            # Scope the injected tracer (pinned clock) process-wide so
            # the mapper's seed/chain/align sites record into it too.
            with use_tracer(self._tracer) as tracer, tracer.read(read.read_id):
                return self._process_read(read, tracer)
        tracer = active_tracer()
        with tracer.read(read.read_id):
            return self._process_read(read, tracer)

    def _process_read(self, read: PipelineRead, tracer) -> ReadOutcome:
        cfg = self._config
        chunk_size = cfg.chunk_size
        n_chunks = self._basecaller.n_chunks(read, chunk_size)
        called: dict[int, BasecalledChunk] = {}

        def basecall(index: int) -> BasecalledChunk:
            if index not in called:
                with tracer.span("basecall_chunk"):
                    called[index] = self._basecaller.basecall_chunk(read, index, chunk_size)
            return called[index]

        er_eligible = n_chunks >= cfg.min_chunks_for_er

        # --- Stage 0: SER on the raw-current prefix, before any chunk
        # is basecalled (the paper's "ideally even before they go
        # through basecalling", Sec. 2.3). Signal-native reads only --
        # base-space reads carry no current to screen.
        ser_decision = None
        if (
            cfg.enable_ser
            and self._ser is not None
            and er_eligible
            and isinstance(read, SignalRead)
        ):
            with tracer.span("ser"):
                ser_decision = self._ser.decide(read)
            if ser_decision.reject:
                return self._outcome(
                    read,
                    ReadStatus.REJECTED_SIGNAL,
                    n_chunks,
                    called,
                    n_chunks_seeded=0,
                    n_chain_invocations=0,
                    aligned=False,
                    ser=ser_decision,
                )

        # --- Stage 1: QSR on N_qs evenly sampled chunks (Fig. 6 (1)-(3)).
        qsr_decision = None
        if cfg.enable_qsr and er_eligible:
            with tracer.span("qsr_probe"):
                sampled = [basecall(i) for i in self._qsr.sample_indices(n_chunks)]
                qsr_decision = self._qsr.decide(sampled)
            if qsr_decision.reject:
                return self._outcome(
                    read,
                    ReadStatus.REJECTED_QSR,
                    n_chunks,
                    called,
                    n_chunks_seeded=0,
                    n_chain_invocations=0,
                    aligned=False,
                    ser=ser_decision,
                    qsr=qsr_decision,
                )

        # --- Stage 2: CMR on the first N_cm chunks merged (Fig. 6 (4)-(6)).
        cmr_decision = None
        n_chain_invocations = 0
        # Provisional read length (the true length) for reverse-strand
        # coordinate flipping during prefix chaining; fixed to the exact
        # basecalled length before finalize().
        chunk_mapper = IncrementalChunkMapper(
            self._index, read_length=len(read), config=self._mapper_config
        )
        if cfg.enable_cmr and er_eligible:
            with tracer.span("cmr_probe"):
                # reassemble_chunks rejects anything but a chunk prefix.
                merged = reassemble_chunks(
                    read.read_id,
                    [basecall(i) for i in self._cmr.merged_chunk_indices(n_chunks)],
                )
                chunk_mapper.extend(merged.codes)
                primary, _ = chunk_mapper.chain_prefix()
                score = primary.score if primary is not None else 0.0
                n_chain_invocations += 1
                cmr_decision = self._cmr.decide(score, len(merged))
            if cmr_decision.reject:
                return self._outcome(
                    read,
                    ReadStatus.REJECTED_CMR,
                    n_chunks,
                    called,
                    n_chunks_seeded=merged.n_chunks,
                    n_chain_invocations=n_chain_invocations,
                    aligned=False,
                    ser=ser_decision,
                    qsr=qsr_decision,
                    cmr=cmr_decision,
                )

        # --- Stage 3: basecall + seed the remaining chunks (Fig. 6 (6b)-(7)).
        full_read = reassemble_chunks(read.read_id, [basecall(i) for i in range(n_chunks)])
        read_codes = full_read.codes
        chunk_mapper.extend(read_codes[chunk_mapper.bases_seeded :])

        # Read-level quality control applies when QSR is off (QSR *is*
        # the quality filter when enabled).
        if not cfg.enable_qsr and full_read.mean_quality < cfg.theta_qs:
            return self._outcome(
                read,
                ReadStatus.FAILED_QC,
                n_chunks,
                called,
                n_chunks_seeded=n_chunks,
                n_chain_invocations=n_chain_invocations,
                aligned=False,
                mean_quality=full_read.mean_quality,
                ser=ser_decision,
            )

        chunk_mapper.set_read_length(read_codes.size)
        mapping = chunk_mapper.finalize(read.read_id, read_codes, align=self._align)
        n_chain_invocations += 1
        status = ReadStatus.MAPPED if mapping.mapped else ReadStatus.UNMAPPED
        with tracer.span("report"):
            return self._outcome(
                read,
                status,
                n_chunks,
                called,
                n_chunks_seeded=n_chunks,
                n_chain_invocations=n_chain_invocations,
                aligned=mapping.alignment is not None,
                mean_quality=full_read.mean_quality,
                ser=ser_decision,
                qsr=qsr_decision,
                cmr=cmr_decision,
                mapping=mapping,
            )

    def basecall_full(self, read: SimulatedRead) -> BasecalledRead:
        """Basecall every chunk of a read (oracle/recovery helper)."""
        return self._basecaller.basecall_read(read, self._config.chunk_size)

    def _outcome(
        self,
        read: SimulatedRead,
        status: ReadStatus,
        n_chunks: int,
        called: dict[int, BasecalledChunk],
        n_chunks_seeded: int,
        n_chain_invocations: int,
        aligned: bool,
        mean_quality: float | None = None,
        ser: SERDecision | None = None,
        qsr: QSRDecision | None = None,
        cmr: CMRDecision | None = None,
        mapping: MappingResult | None = None,
    ) -> ReadOutcome:
        return ReadOutcome(
            read_id=read.read_id,
            status=status,
            read_length=len(read),
            n_chunks_total=n_chunks,
            n_chunks_basecalled=len(called),
            n_bases_basecalled=sum(c.n_true_bases for c in called.values()),
            n_chunks_seeded=n_chunks_seeded,
            n_chain_invocations=n_chain_invocations,
            aligned=aligned,
            mean_quality=mean_quality,
            ser=ser,
            qsr=qsr,
            cmr=cmr,
            mapping=mapping,
        )


class ConventionalPipeline:
    """The decoupled software pipeline: basecall -> RQC -> map.

    This is what Systems ``CPU`` / ``GPU`` of the evaluation run; it
    produces the same :class:`ReadOutcome` records so the performance
    model and the experiments can treat all pipelines uniformly.
    """

    def __init__(
        self,
        index: MinimizerIndex,
        basecaller: Basecaller | None = None,
        config: GenPIPConfig | None = None,
        mapper_config: MapperConfig | None = None,
        align: bool = True,
    ):
        config = (config or GenPIPConfig()).conventional()
        self._pipeline = GenPIPPipeline(index, basecaller, config, mapper_config, align=align)

    @property
    def config(self) -> GenPIPConfig:
        return self._pipeline.config

    @property
    def pipeline(self) -> GenPIPPipeline:
        return self._pipeline

    def process_read(self, read: SimulatedRead) -> ReadOutcome:
        """Conventional processing == chunk pipeline with ER disabled.

        The chunk-based pipeline with ER off performs exactly the same
        computation as basecall-everything-then-map (identical basecalls
        by chunk determinism; identical anchors by the seeding overlap),
        so the conventional pipeline *is* that configuration -- only the
        performance model treats their timing differently.
        """
        return self._pipeline.process_read(read)
