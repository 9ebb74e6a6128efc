"""Batch workloads, untraced: ``python -m repro.runtime`` as fresh processes.

Each timed run is a new interpreter over the seed's container, so the
run pays every cost a user pays: imports, reference and index build,
container open, pool spin-up, the pipeline, and the sink or report
write. The program's own stderr summary gives the engine's elapsed time
(``DatasetEngine.run``: pool spin-up, pipeline, sink flush), which
splits the wall time into set-up and pipeline.
"""

from __future__ import annotations

import re
import time
from pathlib import Path

from perfbench.common import (
    Finished,
    accuracy,
    count_mismatches,
    digest,
    median,
    read_records,
    reap,
    spawn,
)
from perfbench.inputs import make_inputs, python_cmd, runtime_args
from perfbench.spec import Workload
from repro.runtime import cli as runtime_cli

#: The CLI summary ends with ``...): <elapsed>s, <rate> reads/s``.
_ELAPSED = re.compile(r"\): ([0-9]+\.[0-9]+)s, [0-9.]+ reads/s")

#: A single program run may take at most this long before it is killed.
RUN_TIMEOUT_S = 120.0


def reference_run(workload: Workload, seed: int, inputs, out: Path) -> None:
    """Serial, untraced, in-process run through the same CLI entry point."""
    args = runtime_args(workload, seed, inputs, out)
    args[args.index("--workers") + 1] = "1"
    if runtime_cli.main([*args, "--quiet"]) != 0:
        raise RuntimeError(f"reference run of {workload.name} failed")


def timed_run(args: list[str], stderr_path: Path) -> tuple[Finished, float | None]:
    """One fresh-process run; returns it with the engine's elapsed time."""
    with stderr_path.open("wb") as stderr:
        proc, started = spawn(python_cmd("-m", "repro.runtime", *args), stderr)
        finished = reap(proc, started, RUN_TIMEOUT_S)
    match = _ELAPSED.search(stderr_path.read_text(encoding="utf-8", errors="replace"))
    return finished, float(match.group(1)) if match else None


def measure(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    inputs = make_inputs(workload, seed, workdir)
    suffix = ".jsonl" if workload.output == "jsonl" else ".json"
    reference = workdir / f"reference{suffix}"
    reference_run(workload, seed, inputs, reference)
    want_digest = digest(reference)
    want = read_records(reference, workload.output)
    mapped_frac, false_reject_frac = accuracy(want, inputs.classes)
    kbases = inputs.total_bases / 1000.0

    samples: dict[str, list[float]] = {
        name: [] for name in ("wall_s", "setup_s", "kbases_per_s", "peak_rss_mb")
    }
    attempted = failed = 0
    out = workdir / f"run{suffix}"
    deadline = time.perf_counter() + seconds
    while len(samples["wall_s"]) < 2 or time.perf_counter() + median(samples["wall_s"]) <= deadline:
        out.unlink(missing_ok=True)
        finished, elapsed = timed_run(runtime_args(workload, seed, inputs, out), workdir / "run.err")
        attempted += len(want)
        if finished.returncode != 0 or elapsed is None or not out.exists():
            failed += len(want)
            if attempted >= 3 * len(want):
                break
            continue
        if digest(out) != want_digest:
            failed += max(count_mismatches(read_records(out, workload.output), want), 1)
        samples["wall_s"].append(finished.wall_s)
        samples["setup_s"].append(finished.wall_s - elapsed)
        samples["kbases_per_s"].append(kbases / elapsed)
        samples["peak_rss_mb"].append(finished.peak_rss_mb)
    samples["mapped_frac"] = [mapped_frac]
    samples["normal_kept_frac"] = [1.0 - false_reject_frac]
    return {
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "notes": {"false_reject_frac": false_reject_frac, "reads": len(want), "kbases": kbases},
    }
