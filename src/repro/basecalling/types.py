"""Data types shared by all basecalling engines.

Called bases travel as ``uint8`` 2-bit codes (:mod:`repro.genomics.alphabet`),
the form seeding, chaining and alignment consume; ``bases`` decodes them
to a string only for display and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.genomics import alphabet


class _CalledBases:
    """Called ``codes`` with per-base Phred ``qualities`` aligned to them."""

    codes: np.ndarray
    qualities: np.ndarray

    def __post_init__(self) -> None:
        codes = np.ascontiguousarray(self.codes, dtype=np.uint8)
        qualities = np.ascontiguousarray(self.qualities, dtype=np.float64)
        if codes.ndim != 1 or qualities.shape != codes.shape:
            raise ValueError("qualities must align with codes")
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "qualities", qualities)

    def __len__(self) -> int:
        return int(self.codes.size)

    @property
    def bases(self) -> str:
        """The called bases as a string."""
        return alphabet.decode(self.codes)

    @property
    def mean_quality(self) -> float:
        """Average quality score of the called bases (a read's AQS, Eq. 1)."""
        if self.qualities.size == 0:
            return 0.0
        return float(self.qualities.mean())


@dataclass(frozen=True)
class BasecalledChunk(_CalledBases):
    """The basecaller's output for one chunk of a read.

    Attributes
    ----------
    chunk_index:
        0-based position of the chunk within its read.
    codes:
        Called bases as 2-bit codes (may differ in length from the true
        chunk due to indel errors).
    qualities:
        Per-base Phred scores, aligned with ``codes``.
    n_true_bases:
        Number of underlying true bases the chunk covers (the chunk size
        except for the final chunk of a read).
    """

    chunk_index: int
    codes: np.ndarray
    qualities: np.ndarray
    n_true_bases: int

    @property
    def sum_quality(self) -> float:
        """SQS -- the sum of the chunk's base quality scores (paper Eq. 2).

        This is what the PIM-CQS unit computes in hardware (a dot product
        of the quality vector with an all-ones vector).
        """
        return float(self.qualities.sum())


@dataclass(frozen=True)
class BasecalledRead(_CalledBases):
    """A fully basecalled read assembled from its chunks.

    ``mean_quality`` is the read's AQS (paper Eq. 1): the chunk-merged
    computation of Eq. 3 yields the identical value, which
    ``tests/test_core_pipeline.py`` asserts.
    """

    read_id: str
    codes: np.ndarray
    qualities: np.ndarray
    n_chunks: int
