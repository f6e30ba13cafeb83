"""Tests of the benchmark itself: wrappers, span arithmetic, short runs.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _raw(target: tracing.Target):
    import importlib

    module = importlib.import_module(target.module)
    holder = module if target.owner is None else getattr(module, target.owner)
    return holder, vars(holder).get(target.attr, None)


def test_uninstall_restores_every_patched_attribute():
    before = [_raw(t) for t in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for target, (holder, original) in zip(tracing.TARGETS, before):
            patched = vars(holder)[target.attr]
            assert patched is not original
            assert patched.__wrapped__ is original
    finally:
        tracer.uninstall()
    for target, (holder, original) in zip(tracing.TARGETS, before):
        assert vars(holder).get(target.attr, None) is original, target


def test_wrappers_record_parent_op_and_rank():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    import types

    module = types.ModuleType("perfbench_fake")
    module.Box = Box
    original = vars(Box)["outer"]
    sys.modules[module.__name__] = module
    targets = (
        tracing.Target("mpi", "Box.outer", module.__name__, "Box", "outer"),
        tracing.Target("xdev", "Box.inner", module.__name__, "Box", "inner"),
    )
    tracer = tracing.Tracer(targets)
    tracer.install()
    try:
        tracer.bind_rank(1)
        tracer.set_op(7)
        assert Box().outer() == 2
    finally:
        tracer.uninstall()
        del sys.modules[module.__name__]
    spans = tracer.take()
    (inner,) = [s for s in spans if s[0] == 1]
    (outer,) = [s for s in spans if s[0] == 0]
    assert inner[4] == outer[3] and outer[4] == 0
    assert inner[5] == outer[5] == 7
    assert inner[6] == outer[6] == 1
    assert vars(Box)["outer"] is original


def _span(index, start, end, sid, parent, op=0, rank=0):
    return (index, start, end, sid, parent, op, rank)


def test_self_time_on_a_synthetic_tree():
    # root [0, 100) has children [10, 30) and [50, 90); the second has a
    # child [60, 70).  A child overrunning its parent is clipped, and
    # overlapping children are not subtracted twice.
    spans = [
        _span(0, 0, 100, 1, 0),
        _span(1, 10, 30, 2, 1),
        _span(1, 50, 90, 3, 1),
        _span(2, 60, 70, 4, 3),
        _span(0, 200, 300, 5, 0),
        _span(1, 190, 240, 6, 5),
        _span(1, 220, 260, 7, 5),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 40, 2: 20, 3: 30, 4: 10, 5: 40, 6: 50, 7: 40}


def test_summarize_splits_layers_and_waits():
    targets = (
        tracing.Target("mpi", "a", "m", None, "a"),
        tracing.Target("mpjdev", "Request.wait", "m", None, "w", tracing.WAIT),
        tracing.Target("transport", "t", "m", None, "t"),
    )
    spans = [
        _span(0, 0, 100, 1, 0, op=0),
        _span(1, 10, 60, 2, 1, op=0),
        _span(2, 70, 80, 3, 1, op=0),
        _span(0, 100, 130, 4, 0, op=1),
        _span(2, 500, 520, 5, 0, op=-1),  # another thread, no op
        _span(0, 0, 999, 6, 0, op=0, rank=1),  # the other rank
    ]
    out = tracing.summarize(spans, targets, rank=0)
    assert out["self_ns"] == {"mpi": 70, "mpjdev": 0, "xdev": 0, "transport": 30}
    assert out["wait_ns"] == 50
    assert out["root_ns"] == 130 and out["op_root_ns"] == [100, 30]
    assert out["calls"] == {"mpi": 2, "mpjdev": 1, "xdev": 0, "transport": 2}
    # The self times of the ops' spans (waits included) add up to their
    # root spans.
    selfs = tracing.self_times(spans)
    in_ops = [s[3] for s in spans if s[5] >= 0 and s[6] == 0]
    assert sum(selfs[sid] for sid in in_ops) == out["root_ns"]


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        a, b = workloads.make_inputs(name, 5), workloads.make_inputs(name, 5)
        c = workloads.make_inputs(name, 6)
        key = "halo_tags" if name == "cg_niodev" else "tags"
        assert a[key] == b[key]
        assert a[key] != c[key]


def _run(cwd: Path, name: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_run_is_correct_and_complete(name, trace):
    proc = _run(ROOT, name, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        metrics = result["metrics"]
        assert metrics["runtime.leaked_threads"]["value"] == 0
        assert metrics["runtime.leaked_fds"]["value"] == 0
        assert metrics["shm.leaked_segments"]["value"] == 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "pingpong_small_smdev", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
