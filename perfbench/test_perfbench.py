"""Tests of the benchmark's own code.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import os
import re
import subprocess
from types import SimpleNamespace

import pytest

from perfbench.common import (
    _processes,
    accuracy,
    become_subreaper,
    percentile,
    quartiles,
    reap,
    self_times,
    spawn,
)
from perfbench.spec import WORKLOADS, load_benchmark

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def trace(kind, *spans):
    return SimpleNamespace(kind=kind, spans=spans)


def test_self_time_subtracts_children_per_name():
    tree = trace(
        "read",
        ("read", -1, 0.0, 10.0),
        ("basecall_chunk", 0, 1.0, 4.0),
        ("cmr_probe", 0, 5.0, 9.0),
        ("seed", 2, 6.0, 7.0),
        ("basecall_chunk", 0, 9.0, 9.5),
    )
    got = self_times([tree])
    assert got["read"] == pytest.approx((10.0 - 3.0 - 4.0 - 0.5, 1))
    assert got["basecall_chunk"] == pytest.approx((3.5, 2))
    assert got["cmr_probe"] == pytest.approx((3.0, 1))
    assert got["seed"] == pytest.approx((1.0, 1))


def test_self_time_sums_over_traces_and_counts_calls():
    first = trace("read", ("read", -1, 0.0, 2.0), ("seed", 0, 0.5, 1.0))
    second = trace("read", ("read", -1, 5.0, 6.0), ("seed", 0, 5.0, 6.0))
    got = self_times([first, second])
    assert got["seed"] == pytest.approx((1.5, 2))
    assert got["read"] == pytest.approx((1.5, 2))


def test_self_time_counts_overlapping_children_once_and_clips_them():
    tree = trace(
        "read",
        ("read", -1, 0.0, 10.0),
        ("a", 0, 1.0, 5.0),
        ("b", 0, 3.0, 6.0),  # overlaps a by 2
        ("c", 0, 8.0, 12.0),  # runs past the parent's end
    )
    assert self_times([tree])["read"] == pytest.approx((10.0 - 5.0 - 2.0, 1))


def test_self_time_ignores_other_trace_kinds_by_default():
    unit = trace("unit", ("batch", -1, 0.0, 100.0))
    read = trace("read", ("read", -1, 0.0, 1.0))
    assert set(self_times([unit, read])) == {"read"}
    assert self_times([unit], kinds=("unit",))["batch"] == pytest.approx((100.0, 1))


def test_percentile_and_quartiles():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([], 99) == 0.0
    assert quartiles([2.0]) == (2.0, 2.0)
    q1, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert q1 < 3.0 < q3


def test_accuracy_counts_only_normal_reads_stopped_by_early_rejection():
    records = [
        {"read_id": "a", "status": "mapped"},
        {"read_id": "b", "status": "rejected_qsr"},  # normal: false reject
        {"read_id": "c", "status": "rejected_cmr"},  # junk: true reject
        {"read_id": "d", "status": "unmapped"},  # normal, but not rejected early
    ]
    classes = {"a": "normal", "b": "normal", "c": "junk", "d": "normal"}
    mapped, false_reject = accuracy(records, classes)
    assert mapped == pytest.approx(0.25)
    assert false_reject == pytest.approx(1 / 3)


def test_benchmark_file_shape():
    bench = load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert 2 <= len(bench["workloads"]) <= 8
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in bench["workloads"])
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60


def test_metric_names_units_and_bounds():
    bench = load_benchmark()
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [metric["name"] for metric in metrics] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_stage_metrics_are_declared():
    from perfbench.layers import STAGES

    declared = {metric["name"] for metric in load_benchmark()["per_layer"]}
    for stage in STAGES:
        assert {f"pipeline.{stage}.self_s", f"pipeline.{stage}.calls"} <= declared


def test_reap_ends_the_processes_a_program_leaves_behind(tmp_path):
    become_subreaper()
    pid_file = tmp_path / "orphan.pid"
    proc, started = spawn(["sh", "-c", f"sleep 60 & echo $! > {pid_file}; exit 3"], subprocess.DEVNULL)
    finished = reap(proc, started, timeout=30.0)
    assert finished.returncode == 3
    orphan = int(pid_file.read_text())
    state, parent, _ = _processes().get(orphan, ("X", 0, 0))
    # Gone, or ended and left to a parent other than the benchmark.
    assert state == "X" or (state == "Z" and parent != os.getpid())
