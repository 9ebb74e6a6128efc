"""GenPIP's core contribution: the chunk-based pipeline and early rejection.

This package implements the paper's Sections 3 and 4 at the functional
level (the hardware cost models live in :mod:`repro.hardware` /
:mod:`repro.perf`):

* :mod:`repro.core.config` -- :class:`GenPIPConfig` with the paper's
  parameters (chunk size, ``N_qs``/``theta_qs``, ``N_cm``/``theta_cm``)
  and per-dataset presets (E. coli: ``N_qs=2, N_cm=5``; human:
  ``N_qs=5, N_cm=3``; Sec. 6.3).
* :mod:`repro.core.early_rejection` -- QSR (Algorithm 1) and CMR.
* :mod:`repro.core.pipeline` -- the chunk-based pipeline: basecall and
  CQS per chunk, seed + chain per run of chunks (the CMR prefix, then
  the rest), with ER interleaved, then final chaining + alignment; plus
  the conventional pipeline for comparison.
* :mod:`repro.core.genpip` -- the :class:`GenPIP` system facade and the
  dataset-level report consumed by the performance model and the
  experiments.
* :mod:`repro.core.backends` -- the structural engine protocols
  (:class:`Basecaller`, :class:`QSRPolicyProtocol`,
  :class:`CMRPolicyProtocol`) the pipeline is typed against.
* :mod:`repro.core.registry` -- named basecaller backends
  (``"surrogate"``, ``"viterbi"``, ``"dnn"``) and pipeline presets
  (``"ecoli"``, ``"human"``), plus the picklable
  :class:`BasecallerRef` that ships an engine choice to workers.
* :mod:`repro.core.builder` -- :class:`PipelineBuilder`, the fluent
  ``GenPIP.build()...`` construction API.
"""

from repro.core.backends import (
    Basecaller,
    CMRPolicyProtocol,
    QSRPolicyProtocol,
    SignalRejectionPolicyProtocol,
)
from repro.core.builder import PipelineBuilder
from repro.core.config import (
    ECOLI_PARAMS,
    HUMAN_PARAMS,
    VARIANTS,
    GenPIPConfig,
    variant_config,
)
from repro.core.controller import AQSCalculator, ControllerTrace
from repro.core.early_rejection import (
    CMRPolicy,
    QSRPolicy,
    qsr_sample_indices,
)
from repro.core.genpip import GenPIP, GenPIPReport
from repro.core.pipeline import (
    ConventionalPipeline,
    GenPIPPipeline,
    ReadOutcome,
    ReadStatus,
)
from repro.core.registry import (
    BackendRegistration,
    BasecallerRef,
    basecaller_names,
    create_basecaller,
    preset_config,
    preset_names,
    register_basecaller,
    register_preset,
)

__all__ = [
    "AQSCalculator",
    "ControllerTrace",
    "GenPIPConfig",
    "ECOLI_PARAMS",
    "HUMAN_PARAMS",
    "VARIANTS",
    "variant_config",
    "Basecaller",
    "QSRPolicyProtocol",
    "CMRPolicyProtocol",
    "SignalRejectionPolicyProtocol",
    "QSRPolicy",
    "CMRPolicy",
    "qsr_sample_indices",
    "GenPIPPipeline",
    "ConventionalPipeline",
    "ReadOutcome",
    "ReadStatus",
    "GenPIP",
    "GenPIPReport",
    "PipelineBuilder",
    "BackendRegistration",
    "BasecallerRef",
    "basecaller_names",
    "create_basecaller",
    "preset_config",
    "preset_names",
    "register_basecaller",
    "register_preset",
]
