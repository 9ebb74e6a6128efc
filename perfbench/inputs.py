"""Inputs of a workload, made once from the seed before any timing.

The program never sees the seed's dataset directly: batch workloads get
an on-disk container (reads or raw signal), the serving workload gets
read frames over its socket. The benchmark keeps the simulator's ground
truth (read id -> ``ReadClass``) to score accuracy.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from pathlib import Path

from perfbench.spec import Workload
from repro.core.config import variant_config
from repro.core.genpip import GenPIP
from repro.core.registry import create_basecaller, preset_config
from repro.mapping.index import MinimizerIndex
from repro.nanopore.datasets import (
    PRESETS,
    DatasetProfile,
    iter_dataset_reads,
    profile_reference,
    small_profile,
)
from repro.nanopore.read_simulator import ReadClass, SimulatedRead
from repro.nanopore.signal_store import strip_base_starts, write_read_store, write_signals
from repro.runtime.source import SignalStoreSource, StoreSource
from repro.signal import SegmentationConfig


@dataclass
class Inputs:
    """What one seed of a workload produced."""

    reads: list[SimulatedRead]
    classes: dict[str, str]  # read id -> ReadClass value
    container: Path  # the read or raw-signal container
    scale: float  # the reads' share of the preset's full read count

    @property
    def total_bases(self) -> int:
        return sum(len(read) for read in self.reads)


def profile_of(workload: Workload) -> DatasetProfile:
    profile = PRESETS[workload.profile]
    if workload.max_read_length is not None:
        profile = small_profile(profile, max_read_length=workload.max_read_length)
    return profile


def take_reads(workload: Workload, seed: int) -> list[SimulatedRead]:
    """The seed's reads, in simulator order.

    The serving workload takes a fixed read count. A batch workload
    takes reads until each read class holds its share of ``bases`` (the
    preset's class fractions), skipping reads of classes already full:
    the seed picks the reads, but every seed's input has the same size
    and class mix, so early rejection and alignment do comparable work.
    """
    profile = profile_of(workload)
    stream = iter_dataset_reads(profile, scale=1.0, seed=seed, reference=profile_reference(profile))
    if workload.serving:
        return list(itertools.islice(stream, workload.saturation_reads))
    sim = profile.simulator
    shares = {
        ReadClass.JUNK: sim.junk_fraction,
        ReadClass.LOW_QUALITY: sim.low_quality_fraction,
        ReadClass.NORMAL: 1.0 - sim.junk_fraction - sim.low_quality_fraction,
    }
    room = {cls: share * workload.bases for cls, share in shares.items()}
    reads = []
    for read in stream:
        if room[read.read_class] > 0:
            reads.append(read)
            room[read.read_class] -= len(read)
            if all(left <= 0 for left in room.values()):
                break
    return reads


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Simulate the seed's reads and write the container the program reads.

    The serving workload's container is read only by the serial
    reference run; its reads reach the server as frames.
    """
    reads = take_reads(workload, seed)
    if workload.source == "signals":
        container = workdir / "signals.rsig"
        records = create_basecaller(workload.basecaller).signal_records(reads)
        if workload.segmentation:
            records = strip_base_starts(records)
        write_signals(container, records)
    else:
        container = workdir / "reads.gprd"
        write_read_store(container, reads)
    return Inputs(
        reads=reads,
        classes={read.read_id: read.read_class.value for read in reads},
        container=container,
        scale=len(reads) / PRESETS[workload.profile].full_read_count,
    )


def runtime_args(workload: Workload, seed: int, inputs: Inputs, output: Path) -> list[str]:
    """``python -m repro.runtime`` arguments of a batch workload."""
    args = [
        "--profile", workload.profile,
        "--scale", repr(inputs.scale),
        "--seed", str(seed),
        "--source", "store" if workload.serving else workload.source,
        "--store", str(inputs.container),
        "--basecaller", workload.basecaller,
        "--workers", str(workload.workers),
    ]
    if workload.max_read_length is not None:
        args += ["--max-read-length", str(workload.max_read_length)]
    if workload.align:
        args.append("--align")
    if workload.segmentation:
        args.append("--segmentation")
    if workload.transport is not None:
        args += ["--transport", workload.transport]
    if workload.adaptive_batching:
        args.append("--adaptive-batching")
    if workload.output == "jsonl":
        args += ["--sink", "jsonl", "--outcomes", str(output)]
    else:
        args += ["--json", str(output)]
    return args


def serve_args(workload: Workload, port_file: Path) -> list[str]:
    """``python -m repro.serving serve`` arguments of a serving workload."""
    args = [
        "serve",
        "--profile", workload.profile,
        "--basecaller", workload.basecaller,
        "--workers", str(workload.workers),
        "--port-file", str(port_file),
    ]
    if workload.max_read_length is not None:
        args += ["--max-read-length", str(workload.max_read_length)]
    if workload.align:
        args.append("--align")
    return args


def build_pipeline(workload: Workload, index: MinimizerIndex):
    """The pipeline the CLIs build for this workload (library calls)."""
    config = variant_config(preset_config(workload.profile).with_chunk_size(300), "full_er")
    return (
        GenPIP.build()
        .index(index)
        .config(config)
        .basecaller(create_basecaller(workload.basecaller))
        .align(workload.align)
        .build()
        .pipeline
    )


def open_source(workload: Workload, inputs: Inputs):
    """The read source the batch CLI opens over the container."""
    if workload.source == "signals":
        return SignalStoreSource(
            inputs.container,
            segmentation=SegmentationConfig() if workload.segmentation else None,
        )
    if workload.source == "store":
        return StoreSource(inputs.container)
    return inputs.reads


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]
