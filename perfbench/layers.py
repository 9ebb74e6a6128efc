"""Traced runs: per-layer metrics from the benchmark's own timers and spans.

The benchmark calls each layer's public entry point itself and times it
(``profile_reference``, ``MinimizerIndex.build``, source open and scan,
``DatasetEngine.run``, ``PoolDispatcher.start``, sink emit and finish,
report write). Inside the pipeline it reads the stage spans the program
already records (``DatasetEngine.last_trace``,
``PoolDispatcher.drain_traces()``) and turns them into self time per
stage. Untraced engine runs alternate with the traced ones, so the
trace overhead is measured on the same inputs in the same run.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from perfbench.common import (
    accuracy,
    count_mismatches,
    median,
    percentile,
    program_env,
    root_durations,
    self_times,
    timed_median,
)
from perfbench.inputs import (
    Inputs,
    build_pipeline,
    make_inputs,
    open_source,
    profile_of,
    python_cmd,
)
from perfbench.serve import Drive, check_outcomes, drive, encode_reads, open_loop_layers
from perfbench.spec import ROOT, Workload, metric_units
from repro.mapping.index import MinimizerIndex
from repro.nanopore.datasets import profile_reference
from repro.obs.metrics import MAPPING_OPS, process_registry
from repro.runtime import cli as runtime_cli
from repro.runtime.engine import DatasetEngine
from repro.runtime.sink import JSONLSink, MemorySink, outcome_to_json
from repro.serving.dispatch import PoolDispatcher
from repro.serving.server import ServingServer

#: Pipeline stages whose spans the program records, in pipeline order;
#: ``read`` is the per-read root span (time between the stages).
STAGES = ("ser", "basecall_chunk", "qsr_probe", "cmr_probe", "seed", "chain", "align", "report", "read")


class TimedSink:
    """A report sink wrapper timing ``emit`` and ``finish`` of the sink it wraps."""

    def __init__(self, inner, started: float):
        self.inner = inner
        self.started = started
        self.first_emit_s = 0.0
        self.emit_s = 0.0
        self.finish_s = 0.0

    def begin(self, config) -> None:
        self.inner.begin(config)

    def emit(self, outcomes) -> None:
        started = time.perf_counter()
        if not self.first_emit_s:
            self.first_emit_s = started - self.started
        self.inner.emit(outcomes)
        self.emit_s += time.perf_counter() - started

    def finish(self, counters):
        started = time.perf_counter()
        report = self.inner.finish(counters)
        self.finish_s += time.perf_counter() - started
        return report

    def abort(self) -> None:
        self.inner.abort()


@dataclass
class EngineRun:
    """One ``DatasetEngine.run`` with everything the benchmark read off it."""

    lines: list[str]
    elapsed_s: float
    ops: dict[str, int]
    sink: TimedSink | None = None
    stats: object = None
    traces: list | None = None
    report_write_s: float = 0.0
    sink_bytes: int = 0


def mapping_ops() -> dict[str, int]:
    return dict(process_registry().snapshot().get(MAPPING_OPS, {}).get("values", {}))


def run_engine(
    pipeline, workload: Workload, inputs: Inputs, workdir: Path, *, workers: int, trace: bool
) -> EngineRun:
    """One engine run over the workload's source, checked and timed."""
    jsonl = workdir / "layers.jsonl"
    inner = JSONLSink(jsonl) if workload.output == "jsonl" else MemorySink()
    before = mapping_ops()
    started = time.perf_counter()
    sink = TimedSink(inner, started)
    engine = DatasetEngine(
        pipeline,
        workers=workers,
        sink=sink,
        batching="length-aware" if workload.adaptive_batching else "fixed",
        transport=workload.transport or "auto",
        trace=trace,
    )
    report = engine.run(open_source(workload, inputs))
    elapsed = time.perf_counter() - started
    after = mapping_ops()
    ops = {kind: after.get(kind, 0) - before.get(kind, 0) for kind in after}
    run = EngineRun(
        lines=[], elapsed_s=elapsed, ops=ops, sink=sink, stats=engine.last_stats, traces=engine.last_trace
    )
    if workload.output == "jsonl":
        run.lines = jsonl.read_text(encoding="utf-8").splitlines()
        run.sink_bytes = jsonl.stat().st_size
    else:
        run.lines = [outcome_to_json(outcome) for outcome in report.outcomes]
        started = time.perf_counter()
        payload = runtime_cli.report_to_json(report, {"workload": workload.name})
        (workdir / "layers.json").write_text(payload, encoding="utf-8")
        run.report_write_s = time.perf_counter() - started
        run.sink_bytes = len(payload.encode())
    return run


def import_time(module: str) -> float:
    """Median time to import ``module`` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    samples = []
    for _ in range(3):
        out = subprocess.run(
            python_cmd("-c", code), capture_output=True, text=True, env=program_env(), cwd=ROOT,
            check=True, timeout=120,
        )
        samples.append(float(out.stdout.strip()))
    return median(samples)


def outcome_layers(records: list[dict], classes: dict[str, str]) -> dict[str, float]:
    """Early-rejection and work counts from per-read outcome records."""
    n = max(len(records), 1)
    status = Counter(record["status"] for record in records)
    total_chunks = sum(record["n_chunks_total"] for record in records)
    called = sum(record["n_chunks_basecalled"] for record in records)
    _, false_reject_frac = accuracy(records, classes)
    return {
        "er.qsr_reject_frac": status["rejected_qsr"] / n,
        "er.cmr_reject_frac": status["rejected_cmr"] / n,
        "er.ser_reject_frac": status["rejected_signal"] / n,
        "er.basecall_savings": 1.0 - called / total_chunks if total_chunks else 0.0,
        "er.false_reject_frac": false_reject_frac,
        "basecall.chunks": called,
        "basecall.bases": sum(record["n_bases_basecalled"] for record in records),
        "mapping.chunks_seeded": sum(record["n_chunks_seeded"] for record in records),
    }


def span_layers(traces: list, busy_s: float) -> dict[str, float]:
    """Stage self times plus how much of ``busy_s`` the read spans cover."""
    values: dict[str, float] = {}
    stages = self_times(traces)
    for stage in STAGES:
        self_s, calls = stages.get(stage, (0.0, 0))
        values[f"pipeline.{stage}.self_s"] = self_s
        values[f"pipeline.{stage}.calls"] = calls
    values["obs.span_coverage_frac"] = sum(root_durations(traces, "read")) / busy_s if busy_s else 0.0
    return values


def rates(counts: dict[str, float], ops: dict[str, int], samples: dict[str, list]) -> dict[str, float]:
    """Mapping op counts and per-busy-second rates of basecalling and alignment."""
    basecall_s = median(samples["pipeline.basecall_chunk.self_s"])
    align_s = median(samples["pipeline.align.self_s"])
    cells = ops.get("align-cell", 0)
    return {
        "mapping.chain_candidates": ops.get("chain-candidate", 0),
        "mapping.align_cells": cells,
        "basecall.kbases_per_busy_s": counts["basecall.bases"] / basecall_s / 1000.0 if basecall_s else 0.0,
        "mapping.align_mcells_per_busy_s": cells / align_s / 1e6 if align_s else 0.0,
    }


def setup_layers(workload: Workload, inputs: Inputs):
    """Set-up layers, each timed through its public call (median of 3)."""
    profile = profile_of(workload)
    reference = profile_reference(profile)
    index = MinimizerIndex.build(reference)
    values = {
        "setup.import_s": import_time("repro.serving.cli" if workload.serving else "repro.runtime.cli"),
        "setup.reference_s": timed_median(lambda: profile_reference(profile), 3),
        "setup.index_build_s": timed_median(lambda: MinimizerIndex.build(reference), 3),
    }
    if not workload.serving:
        values["setup.source_open_s"] = timed_median(lambda: next(iter(open_source(workload, inputs))), 3)
        values["source.scan_s"] = timed_median(lambda: sum(1 for _ in open_source(workload, inputs)), 1)
    return values, build_pipeline(workload, index)


def exact_layers(values: dict[str, float]) -> dict[str, float]:
    """The per-run layer values that must repeat exactly: call counts and transport bytes."""
    return {k: v for k, v in values.items() if k.endswith(".calls") or k.startswith("transport.")}


def batch_layers(workload: Workload, inputs: Inputs, pipeline, seconds: float, workdir: Path):
    reference = run_engine(pipeline, workload, inputs, workdir, workers=1, trace=False)
    traced: list[EngineRun] = []
    untraced: list[EngineRun] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() + traced[-1].elapsed_s + untraced[-1].elapsed_s <= deadline:
        for trace, runs in ((True, traced), (False, untraced)):
            run = run_engine(pipeline, workload, inputs, workdir, workers=workload.workers, trace=trace)
            runs.append(run)
    failed = 0
    per_run = []
    for run in traced:
        stats = run.stats
        pool = stats.workers if stats.mode == "process-pool" else 1
        units = root_durations(run.traces, "unit")
        values = span_layers(run.traces, run.elapsed_s * pool)
        values.update(
            {
                "engine.pipeline_s": run.elapsed_s,
                "engine.first_result_s": run.sink.first_emit_s,
                "engine.worker_busy_frac": sum(units) / (run.elapsed_s * pool),
                "engine.inflight_peak": stats.inflight_peak,
                "engine.prefetch_peak": stats.prefetch_peak,
                "engine.unit_p50_ms": median(units) * 1000.0,
                "engine.unit_p99_ms": percentile(units, 99) * 1000.0,
                "transport.bytes_copied_per_read": stats.bytes_copied_per_read,
                "transport.bytes_published_per_read": stats.bytes_published / max(stats.n_reads, 1),
                "sink.emit_s": run.sink.emit_s,
                "sink.finish_s": run.sink.finish_s,
                "sink.bytes": run.sink_bytes,
                "report.write_s": run.report_write_s,
            }
        )
        per_run.append(values)
    # Deterministic quantities must repeat exactly and match the reference.
    for run in traced + untraced:
        failed += count_mismatches(run.lines, reference.lines) + (run.ops != reference.ops)
    failed += sum(1 for values in per_run if exact_layers(values) != exact_layers(per_run[0]))
    samples = {name: [values[name] for values in per_run] for name in per_run[0]}
    overhead = median([r.elapsed_s for r in traced]) / median([r.elapsed_s for r in untraced]) - 1.0
    samples["obs.trace_overhead_frac"] = [overhead]
    attempted = len(reference.lines) * (len(traced) + len(untraced))
    return samples, reference, attempted, failed, reference.ops


def serve_layers(workload: Workload, inputs: Inputs, pipeline, workdir: Path):
    """Open-loop latency of the real server, then traced in-process serving."""
    reference = run_engine(pipeline, workload, inputs, workdir, workers=1, trace=False)
    n_open = min(workload.open_loop_reads, len(inputs.reads))
    open_frames = encode_reads(inputs.reads[:n_open])
    values, failed = open_loop_layers(workload, workdir, open_frames, reference.lines[:n_open])

    def serve(trace: bool, frames: list[bytes], rate: float | None) -> tuple[Drive, list, dict, float]:
        dispatcher = PoolDispatcher(pipeline, workers=workload.workers, trace=trace)
        before = mapping_ops()
        started = time.perf_counter()
        dispatcher.start()
        start_s = time.perf_counter() - started

        async def client() -> Drive:
            async with ServingServer(dispatcher) as server:
                return await drive("127.0.0.1", server.port, frames, workload.sessions, rate)

        try:
            record = asyncio.run(client())
            traces = dispatcher.drain_traces()
        finally:
            dispatcher.stop()
        after = mapping_ops()
        return record, traces, {k: after.get(k, 0) - before.get(k, 0) for k in after}, start_s

    record, traces, _, start_s = serve(True, open_frames, workload.offered_rate)
    # Trace overhead and op counts: every read at once, untraced then traced.
    all_frames = encode_reads(inputs.reads)
    plain, _, _, _ = serve(False, all_frames, None)
    burst, burst_traces, ops, _ = serve(True, all_frames, None)
    failed += check_outcomes(record, reference.lines[:n_open])
    failed += check_outcomes(plain, reference.lines) + check_outcomes(burst, reference.lines)
    failed += (ops != reference.ops) + record.errors + plain.errors + burst.errors
    dispatch = {t.label: t.spans[0][3] - t.spans[0][2] for t in traces if t.kind == "dispatch"}
    read_ids = {seq: inputs.reads[seq].read_id for seq in range(n_open)}
    wire = [
        (record.answered[seq] - record.sent[seq]) - dispatch[read_id]
        for seq, read_id in read_ids.items()
        if seq in record.answered and read_id in dispatch
    ]
    # Stage spans of every read (the counts cover every read too). A
    # dispatch span includes the wait for a free worker; the unit spans
    # are the time workers spent on the reads.
    values.update(span_layers(burst_traces, sum(root_durations(burst_traces, "unit"))))
    values.update(
        {
            "serving.start_s": start_s,
            "serving.dispatch_p50_ms": percentile(list(dispatch.values()), 50) * 1000.0,
            "serving.dispatch_p99_ms": percentile(list(dispatch.values()), 99) * 1000.0,
            "serving.wire_overhead_p50_ms": median(wire) * 1000.0,
            "obs.trace_overhead_frac": burst.elapsed_s / plain.elapsed_s - 1.0,
        }
    )
    attempted = n_open * 2 + len(all_frames) * 2
    return {name: [value] for name, value in values.items()}, reference, attempted, failed, ops


def measure(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    inputs = make_inputs(workload, seed, workdir)
    setup, pipeline = setup_layers(workload, inputs)
    if workload.serving:
        measured = serve_layers(workload, inputs, pipeline, workdir)
    else:
        measured = batch_layers(workload, inputs, pipeline, seconds, workdir)
    samples, reference, attempted, failed, ops = measured
    records = [json.loads(line) for line in reference.lines]
    counts = outcome_layers(records, inputs.classes)
    counts.update(rates(counts, ops, samples))
    # Layers off this workload's path read 0 (e.g. serving.* on batch runs).
    merged = {name: [0.0] for name in metric_units("per_layer")}
    merged.update({name: [value] for name, value in setup.items()})
    merged.update({name: [value] for name, value in counts.items()})
    merged.update(samples)
    return {"samples": merged, "attempted": attempted, "failed": failed}
