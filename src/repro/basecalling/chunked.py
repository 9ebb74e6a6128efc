"""Chunk boundary arithmetic and chunk reassembly.

The paper's basecallers split a read's signal into fixed-size chunks
(~300 bases of signal), basecall each chunk, and reassemble the pieces
into the full read. GenPIP keeps that chunk granularity alive through
quality control and read mapping; these helpers define the *single*
notion of chunk boundaries used everywhere (simulator, basecallers, CP
pipeline, early rejection), so every component agrees on what "chunk i"
means.
"""

from __future__ import annotations

import numpy as np

from repro.basecalling.types import BasecalledChunk, BasecalledRead


def n_chunks(total_bases: int, chunk_size: int) -> int:
    """Number of chunks a read of ``total_bases`` splits into (at least 1)."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if total_bases < 0:
        raise ValueError("total_bases must be non-negative")
    return max(1, -(-total_bases // chunk_size))


def chunk_span(total_bases: int, chunk_size: int, index: int) -> tuple[int, int]:
    """Half-open (start, end) base interval of chunk ``index``, in O(1)."""
    count = n_chunks(total_bases, chunk_size)
    if not 0 <= index < count:
        raise ValueError(f"chunk index {index} out of range (read has {count} chunks)")
    start = index * chunk_size
    return start, min(start + chunk_size, total_bases)


def chunk_bounds(total_bases: int, chunk_size: int) -> list[tuple[int, int]]:
    """Half-open (start, end) base intervals of every chunk of a read.

    Every chunk but the last spans ``chunk_size`` bases; the last is the
    shorter remainder (``(750, 300)`` ends with ``(600, 750)``). A read
    shorter than one chunk is a single chunk, and an empty read is the
    single empty chunk ``(0, 0)``.
    """
    return [
        chunk_span(total_bases, chunk_size, i)
        for i in range(n_chunks(total_bases, chunk_size))
    ]


def reassemble_chunks(read_id: str, chunks: list[BasecalledChunk]) -> BasecalledRead:
    """Concatenate basecalled chunks back into a full read.

    Chunks must be supplied complete and in order (the GenPIP controller's
    chunk buffer guarantees this before sequence alignment).
    """
    if not chunks:
        raise ValueError("cannot reassemble zero chunks")
    indices = [c.chunk_index for c in chunks]
    if indices != list(range(len(chunks))):
        raise ValueError(f"chunks out of order or missing: indices {indices}")
    return BasecalledRead(
        read_id=read_id,
        codes=np.concatenate([c.codes for c in chunks]),
        qualities=np.concatenate([c.qualities for c in chunks]),
        n_chunks=len(chunks),
    )
