"""Signal-native reads: stored raw current as a first-class pipeline input.

GenPIP's pipeline starts from *raw nanopore current*, not from bases
(PAPER.md, Fig. 2): the conventional flow's first artefact is the signal
container at rest, and everything downstream -- chunking, basecalling,
CP/ER, mapping -- consumes windows of that current. A
:class:`SignalRead` is that artefact as a pipeline input: one read's
raw samples (plus the base-start track the chunk grid needs), flowing
from a signal container (:func:`repro.nanopore.signal_store.iter_signals`)
through the runtime's source/transport layers into a signal-space
basecaller, without ever synthesizing current from known bases.

The contract mirrors :class:`~repro.nanopore.read_simulator.SimulatedRead`
where the pipeline is generic -- ``read_id`` and ``len(read)`` (the
base-grid length every layer chunks and shards on) -- and adds the
signal-specific surface: the shared chunk grid over the samples
(:meth:`chunk_bounds`, :meth:`chunk_samples`), per-read normalisation
(:meth:`normalized`), and container round-tripping
(:meth:`from_record` / :meth:`to_record`).

Base-grid length vs modelled positions: a synthesized signal models
``n_true_bases - k + 1`` k-mer positions, so a read reconstructed from
a container knows only the modelled count. ``declared_bases`` lets a
producer that *does* know the true base count (e.g. the synthesis path
in tests) pin the chunk grid to it, making signal-native decodes
byte-identical to the synthesis path's; stored reads default to the
modelled count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nanopore.signal import RawSignal, normalize_signal
from repro.nanopore.signal_store import SignalRecord


@dataclass(frozen=True)
class SignalRead:
    """One read's raw current, addressable on the shared chunk grid.

    Attributes
    ----------
    read_id:
        Unique identifier within the dataset/container.
    signal:
        The raw current: ``float32`` samples plus the sample index at
        which each modelled base starts.
    declared_bases:
        Base-grid length used for chunking and sharding (``len(read)``).
        ``None`` defaults to the signal's modelled position count; a
        producer that knows the true base count may declare it so the
        grid matches a base-space view of the same read exactly.
    """

    read_id: str
    signal: RawSignal
    declared_bases: int | None = None

    def __post_init__(self) -> None:
        if self.declared_bases is None:
            object.__setattr__(self, "declared_bases", self.signal.n_bases)
        elif self.declared_bases < self.signal.n_bases:
            raise ValueError(
                f"declared_bases {self.declared_bases} below the signal's "
                f"{self.signal.n_bases} modelled positions"
            )

    def __len__(self) -> int:
        """Base-grid length (what chunking and sharding consume)."""
        return int(self.declared_bases)

    @property
    def n_samples(self) -> int:
        return len(self.signal)

    def chunk_bounds(self, chunk_size: int) -> list[tuple[int, int]]:
        """Half-open base intervals of each chunk (the shared grid)."""
        # Imported lazily: repro.basecalling imports this package's
        # submodules, so a module-level import here would close a cycle
        # during package initialisation.
        from repro.basecalling.chunked import chunk_bounds

        return chunk_bounds(len(self), chunk_size)

    def n_chunks(self, chunk_size: int) -> int:
        """Number of chunks the read splits into at this chunk size."""
        from repro.basecalling.chunked import n_chunks

        return n_chunks(len(self), chunk_size)

    def chunk_samples(self, index: int, chunk_size: int) -> np.ndarray:
        """Sample view covering chunk ``index`` of the grid.

        Bounds past the modelled positions are clamped (the grid may
        declare more bases than the signal models -- see the module
        docstring); a chunk lying entirely past the modelled range is
        an empty view. The result is a *view* into the read's samples,
        never a copy.
        """
        from repro.basecalling.chunked import chunk_span

        start, end = chunk_span(len(self), chunk_size, index)
        return self.signal.clamped_slice(start, end)

    def normalized(self) -> "SignalRead":
        """A copy with median/MAD-normalised samples (same grid).

        Real pipelines normalise each read's current to remove per-pore
        gain and offset before basecalling; containers written by this
        repo already store picoampere-scale samples, so normalisation
        is opt-in.
        """
        return SignalRead(
            read_id=self.read_id,
            signal=RawSignal(
                samples=normalize_signal(self.signal.samples),
                base_starts=self.signal.base_starts,
            ),
            declared_bases=self.declared_bases,
        )

    @classmethod
    def from_record(
        cls, record: SignalRecord, declared_bases: int | None = None
    ) -> "SignalRead":
        """Wrap a container record (the signal-store decode path)."""
        return cls(
            read_id=record.read_id, signal=record.signal, declared_bases=declared_bases
        )

    def to_record(self) -> SignalRecord:
        """The container record for this read (the signal-store encode path)."""
        return SignalRecord(read_id=self.read_id, signal=self.signal)
