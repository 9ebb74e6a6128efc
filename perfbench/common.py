"""Shared helpers: statistics, span self time, processes, output checks."""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import signal
import statistics
import subprocess
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path

from perfbench.spec import ROOT

SRC = ROOT / "src"


# --- statistics ----------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile (``statistics.quantiles``, n=4)."""
    if len(values) < 2:
        value = float(values[0]) if values else 0.0
        return value, value
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of raw samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def timed_median(fn: Callable[[], object], repeats: int) -> float:
    """Median wall time of ``repeats`` calls of ``fn``."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return median(samples)


# --- span self time ------------------------------------------------------


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(traces: Iterable, kinds: tuple[str, ...] = ("read",)) -> dict[str, tuple[float, int]]:
    """Self time and call count per span name over ``traces``.

    A span's self time is its duration minus the part of it that its
    child spans cover. Only traces whose ``kind`` is in ``kinds`` count:
    a unit trace's ``batch`` span encloses read traces emitted as
    separate trees, so mixing the kinds would count that time twice.
    """
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for trace in traces:
        if trace.kind not in kinds:
            continue
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _name, parent, t0, t1 in trace.spans:
            if parent >= 0:
                children[parent].append((t0, t1))
        for index, (name, _parent, t0, t1) in enumerate(trace.spans):
            entry = totals[name]
            entry[0] += (t1 - t0) - _covered(children.get(index, ()), t0, t1)
            entry[1] += 1
    return {name: (entry[0], entry[1]) for name, entry in totals.items()}


def root_durations(traces: Iterable, kind: str) -> list[float]:
    """Root-span duration of every trace of ``kind``."""
    return [trace.spans[0][3] - trace.spans[0][2] for trace in traces if trace.kind == kind]


# --- processes -----------------------------------------------------------


def program_env() -> dict[str, str]:
    """Environment for program subprocesses: ``src`` importable, tracing off."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("GENPIP_WORKERS", None)
    return env


@dataclass
class Finished:
    """A reaped process: exit code, peak RSS of its tree, and wall time."""

    returncode: int
    peak_rss_mb: float
    wall_s: float


def spawn(args: list[str], stderr) -> tuple[subprocess.Popen, float]:
    """Start a program process in its own process group; return it and its start time."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        args, stdout=subprocess.DEVNULL, stderr=stderr, env=program_env(), cwd=ROOT, start_new_session=True
    )
    return proc, started


#: How long a leftover process may take to end by itself before it is
#: killed: a program's ``resource_tracker`` exits when the program has,
#: unlinking any shared memory the program left behind.
GRACE_S = 5.0

#: How long to wait for killed processes to end before giving up.
END_TIMEOUT_S = 30.0

#: ``prctl`` option that makes orphaned descendants children of the caller.
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt every orphaned descendant, so that it can be waited for.

    A program process that exits leaves its helpers (pool workers, the
    shared-memory ``resource_tracker``) to the init process, which the
    benchmark cannot wait on. As a child subreaper (Linux ``prctl``) the
    benchmark becomes their parent instead.
    """
    with contextlib.suppress(AttributeError, OSError):
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _processes() -> dict[int, tuple[str, int, int]]:
    """pid -> (state, parent pid, process group) of every process."""
    table = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        state, ppid, pgid = stat[stat.rindex(")") + 2 :].split()[:3]
        table[int(entry.name)] = (state, int(ppid), int(pgid))
    return table


def _descendants(table: dict[int, tuple[str, int, int]], root: int) -> set[int]:
    children: dict[int, list[int]] = defaultdict(list)
    for pid, (_, ppid, _) in table.items():
        children[ppid].append(pid)
    found, stack = set(), [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            if child not in found:
                found.add(child)
                stack.append(child)
    return found


def _end(select: Callable[[dict[int, tuple[str, int, int]]], set[int]]) -> None:
    """Wait until none of the processes ``select`` picks is left.

    Each gets :data:`GRACE_S` to end by itself and is then killed. A
    zombie has ended; the benchmark reaps the ones that are its own
    children. Raises ``RuntimeError`` when a process outlives the kill.
    """
    me = os.getpid()
    started = time.monotonic()
    while True:
        waited = time.monotonic() - started
        table = _processes()
        live = []
        for pid in select(table):
            state, ppid, _ = table.get(pid, ("X", 0, 0))
            if ppid == me:
                with contextlib.suppress(ChildProcessError):
                    if os.waitpid(pid, os.WNOHANG)[0] == pid:
                        continue
            if state not in ("Z", "X"):
                live.append(pid)
                if waited >= GRACE_S:
                    with contextlib.suppress(ProcessLookupError, PermissionError):
                        os.kill(pid, signal.SIGKILL)
            elif ppid == me:
                live.append(pid)  # our zombie, reaped on the next pass
        if not live:
            return
        if waited > GRACE_S + END_TIMEOUT_S:
            raise RuntimeError(f"processes {sorted(live)} did not end")
        time.sleep(0.005)


def kill_group(pid: int) -> None:
    """Kill every process left in the process group that ``pid`` leads."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def end_group(pgid: int) -> None:
    """Wait until what is left of process group ``pgid`` has ended, killing it if it must."""
    _end(lambda table: {pid for pid, (_, _, group) in table.items() if group == pgid})


def end_descendants() -> None:
    """Stop every process this one started, directly or not, and wait for each.

    The shared-memory ``resource_tracker`` of this process is stopped
    the way Python does it at exit (its pipe closed, then waited for);
    anything else still running under this process is killed after its
    grace time.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    with contextlib.suppress(AttributeError, OSError, ChildProcessError):
        tracker._stop()
    me = os.getpid()
    _end(lambda table: _descendants(table, me))


def reap(proc: subprocess.Popen, started: float, timeout: float) -> Finished:
    """Wait for ``proc`` with ``os.wait4`` and record its resource use.

    ``wait4`` reports the largest resident set of the child and of every
    descendant it waited for (the pool workers), which is the peak RSS
    of the whole process tree. After ``timeout`` the process and its
    workers (its process group, see :func:`spawn`) are killed. Whatever
    it left behind is waited for, and killed if it does not end.
    """
    killer = threading.Timer(timeout, kill_group, (proc.pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    finally:
        killer.cancel()
        end_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, usage.ru_maxrss / 1024.0, wall)


# --- output checks -------------------------------------------------------


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_records(path: Path, output: str) -> list[dict]:
    """Per-read records of a JSON report or a JSONL outcome file."""
    if output == "report":
        return json.loads(path.read_text(encoding="utf-8"))["reads"]
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def outcome_line(outcome: dict | None) -> str | None:
    """An outcome record as the JSONL sink writes it (``None`` if missing)."""
    return None if outcome is None else json.dumps(outcome, sort_keys=True, separators=(",", ":"))


def count_mismatches(records: Sequence, reference: Sequence) -> int:
    """Reads whose record (or outcome line) differs from the reference, or is missing."""
    mismatched = sum(1 for got, want in zip(records, reference) if got != want)
    return mismatched + abs(len(reference) - len(records))


def accuracy(records: Sequence[dict], classes: dict[str, str]) -> tuple[float, float]:
    """``(mapped_frac, false_reject_frac)`` from outcomes and ground truth.

    A false reject is a read the simulator made ``normal`` that signal
    (SER), quality (QSR) or chunk-mapping (CMR) early rejection stopped.
    """
    rejected = {"rejected_signal", "rejected_qsr", "rejected_cmr"}
    mapped = sum(1 for record in records if record["status"] == "mapped")
    normal = [record for record in records if classes[record["read_id"]] == "normal"]
    false_rejects = sum(1 for record in normal if record["status"] in rejected)
    return mapped / max(len(records), 1), false_rejects / max(len(normal), 1)
