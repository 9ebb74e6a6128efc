"""Serving workload: a loopback client against the real server.

``python -m repro.serving serve`` runs as a fresh process; its set-up
is spawn to the ``--port-file`` appearing (imports, reference, index,
pool spin-up and index publication). The client -- this process --
opens ``sessions`` connections and drives the server in one of two
ways:

* **saturation** (untraced runs): every read is written at once, and
  throughput is input bases over first send to last verdict;
* **open loop** (traced runs): reads are due on a fixed schedule at
  ``offered_rate`` reads/s whatever the server does. A read's latency
  runs from its due time to its verdict, so a stall also delays the
  reads queued behind it; how late the sender itself ran is recorded.
"""

from __future__ import annotations

import asyncio
import json
import signal
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.batch import reference_run
from perfbench.common import (
    Finished,
    accuracy,
    end_group,
    kill_group,
    outcome_line,
    percentile,
    reap,
    spawn,
)
from perfbench.inputs import make_inputs, python_cmd, serve_args
from perfbench.spec import Workload
from repro.serving import protocol

READY_TIMEOUT_S = 60.0
DRIVE_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


@dataclass
class Drive:
    """Client-side record of one drive: per-seq times and outcomes."""

    due: dict[int, float] = field(default_factory=dict)
    sent: dict[int, float] = field(default_factory=dict)
    answered: dict[int, float] = field(default_factory=dict)
    outcomes: dict[int, dict] = field(default_factory=dict)
    errors: int = 0
    backlog_peak: int = 0
    elapsed_s: float = 0.0  # first due time to last verdict

    def latencies_ms(self) -> list[float]:
        """Due-time-to-verdict latency of every answered read."""
        return [(self.answered[s] - self.due[s]) * 1000.0 for s in self.answered]

    def lags_ms(self) -> list[float]:
        """How late the sender wrote each read, against its due time."""
        return [(self.sent[s] - self.due[s]) * 1000.0 for s in self.sent]

    def slo_miss_frac(self, limit_ms: float) -> float:
        """Reads answered later than ``limit_ms``, or never, per read offered."""
        late = sum(1 for value in self.latencies_ms() if value > limit_ms)
        return (late + len(self.due) - len(self.answered)) / max(len(self.due), 1)


async def drive(host: str, port: int, frames: list[bytes], sessions: int, rate: float | None) -> Drive:
    """Offer ``frames`` (seq = list index) round-robin over ``sessions``.

    ``rate=None`` writes every frame at once; otherwise frame ``i`` is
    due ``i / rate`` seconds after the start (open loop).
    """
    record = Drive()
    connections = [
        await asyncio.open_connection(host, port, limit=64 * 1024 * 1024) for _ in range(sessions)
    ]
    for reader, writer in connections:
        writer.write(protocol.encode_frame(protocol.hello_frame()))
        await writer.drain()
        welcome = protocol.decode_frame(await reader.readline())
        if welcome.get("type") != "welcome":
            raise RuntimeError(f"server refused the session: {welcome}")
    all_answered = asyncio.Event()

    async def receive(reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:  # server gone: its unanswered reads count as missing
                all_answered.set()
                return
            frame = protocol.decode_frame(line)
            if frame["type"] == "verdict":
                record.answered[frame["seq"]] = time.perf_counter()
                record.outcomes[frame["seq"]] = frame["outcome"]
            elif frame["type"] == "error":
                record.errors += 1
            elif frame["type"] == "summary":
                return
            if len(record.answered) + record.errors >= len(frames):
                all_answered.set()

    async def send(index: int, writer: asyncio.StreamWriter, start: float) -> None:
        for seq in range(index, len(frames), sessions):
            due = start if rate is None else start + seq / rate
            record.due[seq] = due
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            record.sent[seq] = time.perf_counter()
            writer.write(frames[seq])
            if rate is not None:
                await writer.drain()
                record.backlog_peak = max(record.backlog_peak, len(record.sent) - len(record.answered))
        await writer.drain()

    receivers = [asyncio.ensure_future(receive(reader)) for reader, _ in connections]
    try:
        start = time.perf_counter() + 0.05
        await asyncio.gather(*(send(i, writer, start) for i, (_, writer) in enumerate(connections)))
        await all_answered.wait()
        record.elapsed_s = max(record.answered.values(), default=start) - start
        for _, writer in connections:
            writer.write(protocol.encode_frame(protocol.end_frame()))
            await writer.drain()
        await asyncio.gather(*receivers)
    finally:
        for task in receivers:
            task.cancel()
        for _, writer in connections:
            writer.close()
    return record


def encode_reads(reads) -> list[bytes]:
    return [protocol.encode_frame(protocol.read_frame(i, read)) for i, read in enumerate(reads)]


def check_outcomes(record: Drive, reference: list[str]) -> int:
    """Reads whose verdict is missing or differs from the serial reference."""
    return sum(1 for seq, line in enumerate(reference) if outcome_line(record.outcomes.get(seq)) != line)


def serial_reference(workload: Workload, seed: int, inputs, workdir: Path) -> list[str]:
    """JSONL outcome lines of the serial batch run over the same reads."""
    path = workdir / "reference.jsonl"
    reference_run(workload, seed, inputs, path)
    return path.read_text(encoding="utf-8").splitlines()


def start_server(workload: Workload, workdir: Path):
    """Spawn the server; return it, its spawn time, set-up time and port."""
    port_file, log = workdir / "port.json", workdir / "server.err"
    port_file.unlink(missing_ok=True)
    with log.open("wb") as stderr:
        proc, started = spawn(python_cmd("-m", "repro.serving", *serve_args(workload, port_file)), stderr)
    deadline = started + READY_TIMEOUT_S
    while time.perf_counter() < deadline and proc.poll() is None:
        try:
            port = json.loads(port_file.read_text(encoding="utf-8"))["port"]
        except (OSError, ValueError, KeyError):
            time.sleep(0.002)
            continue
        return proc, started, time.perf_counter() - started, int(port)
    kill_group(proc.pid)
    proc.wait()
    end_group(proc.pid)
    raise RuntimeError(f"server did not become ready: {log.read_text(errors='replace')[-2000:]}")


def stop_server(proc: subprocess.Popen, started: float) -> Finished:
    """Stop the server the way an operator does: SIGINT to its main process."""
    proc.send_signal(signal.SIGINT)
    return reap(proc, started, STOP_TIMEOUT_S)


def serve_process(workload: Workload, workdir: Path, frames: list[bytes], rate: float | None):
    """Start the server, drive it once, stop it: ``(drive, setup_s, wall_s, finished)``.

    ``wall_s`` runs from the server's spawn to the last verdict.
    """
    proc, started, setup_s, port = start_server(workload, workdir)
    try:
        record = asyncio.run(
            asyncio.wait_for(drive("127.0.0.1", port, frames, workload.sessions, rate), DRIVE_TIMEOUT_S)
        )
    finally:
        finished = stop_server(proc, started)
    wall_s = max(record.answered.values(), default=started) - started
    return record, setup_s, wall_s, finished


def open_loop_layers(workload: Workload, workdir: Path, frames: list[bytes], reference: list[str]):
    """Untraced open-loop latency of the real server: ``(values, failed)``."""
    record, _, _, finished = serve_process(workload, workdir, frames, workload.offered_rate)
    latencies = record.latencies_ms()
    values = {
        "serving.verdict_p50_ms": percentile(latencies, 50),
        "serving.verdict_p99_ms": percentile(latencies, 99),
        "serving.slo_miss_frac": record.slo_miss_frac(workload.latency_limit_ms),
        "serving.generator_lag_p99_ms": percentile(record.lags_ms(), 99),
        "serving.backlog_peak": record.backlog_peak,
    }
    failed = check_outcomes(record, reference) + record.errors + (finished.returncode != 0)
    return values, failed


def measure(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Start, saturate and stop the server, again and again for ``seconds``.

    Every cycle is a user's whole session: spawn to ready (set-up),
    every read at once, spawn to last verdict (wall time).
    """
    inputs = make_inputs(workload, seed, workdir)
    reference = serial_reference(workload, seed, inputs, workdir)
    mapped_frac, false_reject_frac = accuracy([json.loads(line) for line in reference], inputs.classes)
    frames = encode_reads(inputs.reads)
    samples: dict[str, list[float]] = {
        name: [] for name in ("wall_s", "setup_s", "kbases_per_s", "peak_rss_mb")
    }
    failed = cycles = 0
    deadline = time.perf_counter() + seconds
    while cycles < 2 or time.perf_counter() + samples["wall_s"][-1] <= deadline:
        record, setup_s, wall_s, finished = serve_process(workload, workdir, frames, None)
        cycles += 1
        failed += check_outcomes(record, reference) + record.errors + (finished.returncode != 0)
        samples["wall_s"].append(wall_s)
        samples["setup_s"].append(setup_s)
        samples["kbases_per_s"].append(inputs.total_bases / 1000.0 / record.elapsed_s)
        samples["peak_rss_mb"].append(finished.peak_rss_mb)
    samples["mapped_frac"] = [mapped_frac]
    samples["normal_kept_frac"] = [1.0 - false_reject_frac]
    return {
        "samples": samples,
        "attempted": len(frames) * cycles,
        "failed": failed,
        "notes": {"false_reject_frac": false_reject_frac, "reads": len(frames)},
    }
