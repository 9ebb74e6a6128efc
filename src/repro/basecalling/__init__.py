"""Basecalling substrate: signal -> (bases, per-base quality scores).

The GenPIP paper uses Bonito, a DNN basecaller, running on a CPU/GPU (or
its MVM workload mapped onto the Helix PIM accelerator). This subpackage
provides three engines behind one chunk-level contract:

* :class:`~repro.basecalling.viterbi.ViterbiBasecaller` -- a *real*
  basecaller: k-mer HMM Viterbi decoding of raw signal against the pore
  model. Exact on clean signal, degrades gracefully with noise. Used in
  unit tests, the quickstart, and to calibrate the surrogate.
* :class:`~repro.basecalling.surrogate.SurrogateBasecaller` -- replays
  the simulator's ground truth through the quality-conditioned error
  model. Deterministic per (read, chunk), independent of processing
  order -- a property the chunk-based pipeline (CP) relies on. This is
  the dataset-scale engine.
* :mod:`repro.basecalling.dnn` -- a numpy inference stack (conv1d, GRU,
  dense, CTC decoding) with a Bonito-like architecture. It characterises
  the matrix-vector-multiply workload that the Helix-like PIM model
  accelerates (Sec. 2.2 of the paper).

All engines emit :class:`~repro.basecalling.types.BasecalledChunk`
objects whose ``sum_quality`` is exactly the paper's SQS (Eq. 2) and
assemble into :class:`~repro.basecalling.types.BasecalledRead` whose
``mean_quality`` is the paper's AQS (Eqs. 1/3).

:mod:`repro.basecalling.engines` adapts the Viterbi decoder and the DNN
to the chunk-basecaller protocol (:mod:`repro.core.backends`) over
deterministically synthesized per-read signal, so all three engines are
interchangeable inside the CP/ER pipeline and selectable by name
(``"surrogate"``, ``"viterbi"``, ``"dnn"``) via
:mod:`repro.core.registry`.
"""

from repro.basecalling.chunked import chunk_bounds, chunk_span, n_chunks, reassemble_chunks
from repro.basecalling.engines import (
    CarriedSignalProvider,
    DNNBackendConfig,
    DNNChunkBasecaller,
    SignalProvider,
    SignalSpaceBasecaller,
    SynthesisSignalProvider,
    ViterbiBackendConfig,
    ViterbiChunkBasecaller,
    synthesize_read_signal,
)
from repro.basecalling.surrogate import SurrogateBasecaller, SurrogateConfig
from repro.basecalling.types import BasecalledChunk, BasecalledRead
from repro.basecalling.viterbi import ViterbiBasecaller, ViterbiConfig

__all__ = [
    "BasecalledChunk",
    "BasecalledRead",
    "SurrogateBasecaller",
    "SurrogateConfig",
    "ViterbiBasecaller",
    "ViterbiConfig",
    "chunk_bounds",
    "chunk_span",
    "n_chunks",
    "reassemble_chunks",
    "CarriedSignalProvider",
    "DNNBackendConfig",
    "DNNChunkBasecaller",
    "SignalProvider",
    "SignalSpaceBasecaller",
    "SynthesisSignalProvider",
    "ViterbiBackendConfig",
    "ViterbiChunkBasecaller",
    "synthesize_read_signal",
]
