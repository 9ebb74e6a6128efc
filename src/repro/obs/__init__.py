"""Unified observability plane: span tracing, metrics, exporters.

This package answers the question the five pre-existing telemetry
idioms could not: *for one read, how long did SER, each basecalled
chunk, each ER probe, chaining, and alignment take -- and on which
worker?* It has three layers:

:mod:`repro.obs.trace`
    A process-local :class:`~repro.obs.trace.Tracer` (explicit clock
    injection, ~zero-cost :class:`~repro.obs.trace.NullTracer` when
    disabled). ``GenPIPPipeline.process_read`` opens one trace per read
    with stage spans (``ser``, ``basecall_chunk``, ``qsr_probe``,
    ``cmr_probe``, ``report``), the incremental chunk mapper adds
    ``seed``/``chain``/``align`` spans at the kernel call sites (one
    ``seed`` span per seeded run of chunks, so at most two per read), the
    worker loop wraps each unit in a ``batch`` trace, and the serving
    dispatcher records an enqueue->verdict ``dispatch`` trace. Worker
    traces ride home as compact tuples on
    :class:`~repro.runtime.merge.ShardResult` and merge in dataset
    order.

:mod:`repro.obs.metrics`
    :class:`~repro.obs.metrics.MetricsRegistry` with
    ``Counter``/``Gauge``/``Histogram`` instruments and
    snapshot/delta/merge semantics matching the ShardResult idiom.
    The pre-existing ad-hoc ledgers are registered instruments:

    * ``repro.perf.copies.CopyCounter`` (process ledger) ->
      ``genpip_copied_bytes`` counter, label ``boundary``;
    * ``repro.kernels.mapping_ops.MappingOpsCounter`` (process ledger)
      -> ``genpip_mapping_ops`` counter, label ``kind``;
    * ``repro.perf.latency.LatencyHistogram`` -> ``Histogram``
      instruments (the serving layer registers its live
      ``genpip_serving_latency_seconds``);
    * ``RuntimeStats`` / ``ServingStats`` gain ``from_registry``
      constructors that rebuild their public fields (bit-identical)
      from registry snapshots instead of hand-threaded integers.

:mod:`repro.obs.export`
    Chrome ``trace_event`` JSON (Perfetto-loadable) and a flat JSONL
    span log (both behind ``python -m repro.runtime --trace PATH``),
    plus the Prometheus text exposition used by the serving protocol's
    ``stats`` frame and ``python -m repro.serving drive --metrics-out``.

The standing byte-identity invariant extends: tracing off leaves every
hot path untouched apart from one no-op context per span; tracing on
never changes reports or sink output -- only the side-channel trace and
metrics artifacts.
"""

from repro.obs.export import (
    chrome_trace_document,
    chrome_trace_events,
    prometheus_text,
    span_records,
    write_chrome_trace,
    write_span_jsonl,
)
from repro.obs.metrics import (
    COPIED_BYTES,
    MAPPING_OPS,
    Counter,
    Gauge,
    Histogram,
    LedgerCounter,
    MetricsRegistry,
    merge_snapshots,
    process_registry,
    snapshot_delta,
    worker_metrics_delta,
    worker_metrics_snapshot,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    ReadTrace,
    Tracer,
    active_tracer,
    decode_traces,
    disable_tracing,
    drain_read_traces,
    enable_tracing,
    tracing_enabled,
    use_tracer,
)

__all__ = [
    "COPIED_BYTES",
    "MAPPING_OPS",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "LedgerCounter",
    "MetricsRegistry",
    "NullTracer",
    "ReadTrace",
    "Tracer",
    "active_tracer",
    "chrome_trace_document",
    "chrome_trace_events",
    "decode_traces",
    "disable_tracing",
    "drain_read_traces",
    "enable_tracing",
    "merge_snapshots",
    "process_registry",
    "prometheus_text",
    "snapshot_delta",
    "span_records",
    "tracing_enabled",
    "use_tracer",
    "worker_metrics_delta",
    "worker_metrics_snapshot",
    "write_chrome_trace",
    "write_span_jsonl",
]
