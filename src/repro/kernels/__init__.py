"""The vectorised kernel plane: batched arithmetic for the hot loops.

The paper's thesis is that basecalling and mapping should share one
tightly integrated, minimally-moving data path; this package is the
software expression of that idea for the repo's hot kernels, which
previously iterated sample-by-sample in interpreted Python:

* :mod:`repro.kernels.sdtw` -- subsequence DTW as an **anti-diagonal
  wavefront**: every cell on one anti-diagonal depends only on the two
  previous diagonals, so each diagonal is a single numpy vector op.
  Produces bit-identical costs to the scalar reference (same float64
  operations, reassociated only across independent cells), so it is a
  drop-in behind :class:`~repro.nanopore.signal_filter.SignalPrefilter`
  and :class:`~repro.signal.rejection.SignalRejectionPolicy`.
* :mod:`repro.kernels.viterbi` -- the HMM trellis forward pass
  (vectorised across the state dimension) extracted from
  :class:`~repro.basecalling.viterbi.ViterbiBasecaller`, plus a
  triple-loop scalar reference for equivalence testing, plus the
  **event-space** front-end: dwell-segmented event means/dwells
  (~6x fewer observations than raw samples) decoded on the same
  trellis.
* :mod:`repro.kernels.batched_dnn` -- batched inference for
  :class:`~repro.basecalling.dnn.model.BonitoLikeModel`: chunk windows
  stacked across reads into ``[batch, time, features]`` tensors so the
  conv/GRU/head matmuls amortise across the whole work unit (the
  pepper-style DataLoader idiom). Variable-length windows run packed
  (sorted by length, active batch shrinking per time step), so real
  dwell-ragged chunk windows still batch.
* :mod:`repro.kernels.seed` -- batched anchor seeding over the index's
  flat key/bounds/location arrays (one ``searchsorted`` + repeat/gather
  instead of a per-key dict walk), the probe GenPIP's seeding unit
  answers from its CAM rows (paper Fig. 1(a)).
* :mod:`repro.kernels.chain` -- the minimap2 chain DP (paper
  Fig. 1(c)) with the band geometry hoisted into per-block matrices and
  a slim sequential combine.
* :mod:`repro.kernels.align` -- affine-gap (Gotoh) alignment (paper
  Fig. 1(d)) as a **native C tier** (``_gotoh.c`` through ``ctypes``,
  compiled with the system ``cc`` on first use and cached per user):
  fill and traceback in one call, in two modes that reproduce the two
  Python tie rules byte for byte. Without a compiler it warns once and
  falls back to the Python references, with identical output.

Every kernel reports its own workload (:mod:`repro.kernels.workload`)
so :mod:`repro.perf` can charge the *real* arithmetic -- Viterbi
state-space ops, DNN MVM MACs, chain candidates, alignment cells --
instead of a generic per-base price. Basecalling kinds are known
up-front; the data-dependent mapping kinds accumulate in the
process-local ledger (:mod:`repro.kernels.mapping_ops`) as kernels run.

Kernel selection is by name (``"wavefront"`` / ``"scalar"`` for sDTW,
``"native"`` / ``"scalar"`` for Gotoh, ``"vectorised"`` / ``"scalar"``
for the trellis, ``"blocked"`` / ``"scalar"`` for the chain DP,
``"batched"`` / ``"scalar"`` for seeding); the scalar references stay
first-class because CI's kernel-equivalence lane replays both on fixed
seeds and fails on any mismatch.
"""

from repro.kernels.align import ALIGN_KERNELS, gotoh_scalar, native_gotoh
from repro.kernels.batched_dnn import (
    batched_basecall,
    model_forward_batch,
    model_forward_ragged,
)
from repro.kernels.chain import (
    CHAIN_KERNELS,
    chain_candidate_count,
    chain_scores_blocked,
    chain_scores_scalar,
    resolve_chain_kernel,
)
from repro.kernels.mapping_ops import (
    MAPPING_OP_KINDS,
    MappingOpsCounter,
    mapping_ops,
    process_mapping_ops,
    record_mapping_ops,
)
from repro.kernels.sdtw import (
    SDTW_KERNELS,
    resolve_sdtw_kernel,
    sdtw_cost,
    sdtw_cost_scalar,
    sdtw_cost_wavefront,
)
from repro.kernels.viterbi import (
    TRANSITIONS_PER_STATE,
    event_emissions,
    event_features,
    viterbi_forward,
    viterbi_forward_scalar,
    viterbi_state_ops,
    viterbi_traceback,
)
from repro.kernels.seed import (
    SEED_KERNELS,
    resolve_seed_kernel,
    seed_anchors_batched,
    seed_anchors_scalar,
)
from repro.kernels.workload import KernelWorkload

__all__ = [
    "ALIGN_KERNELS",
    "CHAIN_KERNELS",
    "MAPPING_OP_KINDS",
    "SDTW_KERNELS",
    "SEED_KERNELS",
    "TRANSITIONS_PER_STATE",
    "KernelWorkload",
    "MappingOpsCounter",
    "batched_basecall",
    "chain_candidate_count",
    "chain_scores_blocked",
    "chain_scores_scalar",
    "event_emissions",
    "event_features",
    "gotoh_scalar",
    "mapping_ops",
    "model_forward_batch",
    "model_forward_ragged",
    "native_gotoh",
    "process_mapping_ops",
    "record_mapping_ops",
    "resolve_chain_kernel",
    "resolve_sdtw_kernel",
    "resolve_seed_kernel",
    "sdtw_cost",
    "sdtw_cost_scalar",
    "sdtw_cost_wavefront",
    "seed_anchors_batched",
    "seed_anchors_scalar",
    "viterbi_forward",
    "viterbi_forward_scalar",
    "viterbi_state_ops",
    "viterbi_traceback",
]
