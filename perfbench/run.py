"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ecoli-er-serial --seed 1 --seconds 35 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric. A table of each metric's
median, quartiles and sample count precedes the result, which is the
last line of standard output. The exit code is 1 when any output
differed from the serial reference run, and 2 when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
    raise SystemExit(2)
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import batch, layers, serve  # noqa: E402
from perfbench.common import become_subreaper, end_descendants, median, quartiles  # noqa: E402
from perfbench.spec import WORKLOADS, metric_units  # noqa: E402

WORK_ROOT = ROOT / ".perfbench_work"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def summarise(measured: dict, section: str) -> dict:
    """Print the per-metric table and return the result object."""
    units = metric_units(section)
    samples = measured["samples"]
    missing = sorted(set(units) - set(samples))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        q1, q3 = quartiles(values)
        value = median(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:40s} {value:14.6g} {unit:10s} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
    for name, value in sorted(measured.get("notes", {}).items()):
        print(f"{name:40s} {value:14.6g} (not gated)")
    return {
        "correct": measured["failed"] == 0,
        "attempted": max(int(measured["attempted"]), 1),
        "failed": int(measured["failed"]),
        "metrics": metrics,
    }


def _exit_on_signal(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The server stops cleanly only on SIGINT, and a child keeps an
    # ignored SIGINT across exec: hand children the default disposition.
    if signal.getsignal(signal.SIGINT) == signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.default_int_handler)
    # Terminated from outside, still stop every process started below.
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    become_subreaper()
    workload = WORKLOADS[args.workload]
    workdir = WORK_ROOT / f"{workload.name}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            measured = layers.measure(workload, args.seed, args.seconds, workdir)
        elif workload.serving:
            measured = serve.measure(workload, args.seed, args.seconds, workdir)
        else:
            measured = batch.measure(workload, args.seed, args.seconds, workdir)
        result = summarise(measured, "per_layer" if args.trace else "end_to_end")
    finally:
        end_descendants()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
