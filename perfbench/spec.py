"""Workload parameters and the metric table of the benchmark.

``BENCHMARK.json`` at the repository root is the single source of the
metric names, units and bounds and of each workload's reason; this
module adds what the benchmark needs to run each workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the dataset recipe and how it is run.

    Reads come from the seed's simulator stream of the ``profile``
    preset (``max_read_length`` caps lengths as the CLI flag does). A
    batch workload takes reads until they hold ``bases`` bases, so its
    input size is fixed in bases and only its composition varies with
    the seed; the serving workload takes ``saturation_reads`` reads. ``output`` is what a timed run writes and
    the benchmark digests: the JSON report (``"report"``) or the JSONL
    outcome sink (``"jsonl"``).
    """

    name: str
    profile: str
    bases: int = 0
    max_read_length: int | None = None
    source: str = "store"  # "store" | "signals" | "serve"
    basecaller: str = "surrogate"
    align: bool = False
    workers: int = 1
    transport: str | None = None
    adaptive_batching: bool = False
    output: str = "report"  # "report" | "jsonl"
    segmentation: bool = False
    # Serving only: every read is sent at once over ``sessions``
    # connections (saturation); the traced run also offers the first
    # ``open_loop_reads`` reads at ``offered_rate`` reads/s (open loop)
    # and counts verdicts later than ``latency_limit_ms`` as SLO misses.
    sessions: int = 0
    offered_rate: float = 0.0
    open_loop_reads: int = 0
    saturation_reads: int = 0
    latency_limit_ms: float = 0.0

    @property
    def serving(self) -> bool:
        return self.source == "serve"


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="ecoli-er-serial",
            profile="ecoli-like",
            bases=1_500_000,
        ),
        Workload(
            name="human-align-pool",
            profile="human-like",
            bases=800_000,
            align=True,
            workers=2,
            transport="shm",
            adaptive_batching=True,
            output="jsonl",
        ),
        # Not in BENCHMARK.json: its timings spread across seeds by up to
        # the largest allowed bound on a shared 2-CPU host, and dropping it
        # lets the other workloads run longer (see README.md). It still
        # runs by name for a manual look at real (Viterbi) basecalling.
        Workload(
            name="signal-viterbi",
            profile="ecoli-like",
            bases=8_000,
            max_read_length=2000,
            source="signals",
            basecaller="viterbi",
            segmentation=True,
        ),
        Workload(
            name="serve-open-loop",
            profile="ecoli-like",
            max_read_length=4000,
            source="serve",
            workers=2,
            output="jsonl",
            sessions=2,
            offered_rate=50.0,
            open_loop_reads=400,
            saturation_reads=600,
            latency_limit_ms=100.0,
        ),
    )
}


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for ``"end_to_end"`` or ``"per_layer"``."""
    return {metric["name"]: metric["unit"] for metric in load_benchmark()[section]}
