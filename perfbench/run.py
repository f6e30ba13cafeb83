"""The repository benchmark: one workload, timed or traced, one JSON line out.

Run from the repository root::

    python3 perfbench/run.py --workload pingpong_small_smdev --seed 1 --seconds 20 --trace 0

A run repeats jobs (launch, first exchange, a fixed number of ops,
teardown) of the chosen workload until ``--seconds`` of timed loop have
passed and rank 0 holds enough op-time samples for the p99.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` jobs alternate between untraced and traced, and it
carries the per-layer metrics (see NOTES.md).  Every output is checked;
a failed or wrong op, and a thread, file descriptor or shared-memory
segment left behind by a job, count into ``failed``.

The line before the result is the run's provenance and per-job detail;
the same record, and with tracing the spans of the first traced job,
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: The reported p99 (smoothed up to the 99.5th percentile) needs at
#: least ten samples beyond it.
MIN_SAMPLES = 2000
#: A job that hangs is stopped and counted failed well inside the
#: run's own time limit.
JOB_TIMEOUT_S = 45.0
#: Runs stop starting new jobs after this many multiples of --seconds,
#: or this many seconds if that is longer (short runs still get their
#: minimum of jobs and samples), well inside the 180 s a run may take.
MAX_RUN_FACTOR, MAX_RUN_FLOOR_S = 3.0, 60.0
#: Leaked resources must be gone this soon after a job returns.
SETTLE_S = 2.0


def _prepare_environment() -> None:
    """Import path, scratch directory and a fixed program configuration."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # Process ranks import the program and these files too.
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    # The program reads these at device creation; the benchmark runs
    # with metrics on and everything else at its default.
    for var in ("REPRO_TRACE", "REPRO_DEVICE", "REPRO_ENDPOINTS", "PERFBENCH_SPANS"):
        os.environ.pop(var, None)
    os.environ["REPRO_METRICS"] = "1"


# ----------------------------------------------------------------------
# resources


def _resources() -> dict[str, int]:
    try:
        shm = len(os.listdir("/dev/shm"))
    except OSError:
        shm = 0
    return {
        "threads": threading.active_count(),
        "fds": len(os.listdir("/proc/self/fd")),
        "shm": shm,
    }


def _leaks(baseline: dict[str, int]) -> dict[str, int]:
    """Resources above *baseline*, after giving teardown time to finish."""
    deadline = time.monotonic() + SETTLE_S
    while True:
        now = _resources()
        over = {k: max(0, now[k] - baseline[k]) for k in baseline}
        if not any(over.values()) or time.monotonic() > deadline:
            return over
        time.sleep(0.01)


def _release_heap() -> None:
    """Collect garbage and hand freed heap back to the OS.

    Each job then starts from the same heap: garbage left by the last
    one does not shift this one's collector pauses, and memory freed but
    kept by the allocator does not raise this one's resident size.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: nothing to trim
        pass


def _children() -> list[int]:
    """Pids whose parent is this process."""
    me, kids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            kids.append(int(entry))
    return kids


def _adopt_orphans() -> None:
    """Become the reaper of descendants whose parent exits first.

    Each process rank starts its own multiprocessing resource tracker,
    which outlives the rank by a moment; as a subreaper this process
    inherits and waits for it, so a run leaves no process behind.
    """
    pr_set_child_subreaper = 36
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)


def _reap_orphans(keep: set[int], timeout: float = 5.0) -> None:
    """Wait for every child not in *keep*; kill what is left at *timeout*."""
    deadline = time.monotonic() + timeout
    while True:
        kids = [pid for pid in _children() if pid not in keep]
        if not kids:
            return
        late = time.monotonic() > deadline
        for pid in kids:
            try:
                if late:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                else:
                    os.waitpid(pid, os.WNOHANG)
            except (ChildProcessError, ProcessLookupError):
                pass
        time.sleep(0.01)


# ----------------------------------------------------------------------
# jobs


def _run_threads_job(wl, spec: dict, inputs: dict, tracer) -> tuple[list, float]:
    from repro.runtime import run_spmd

    import workloads

    launched = time.monotonic()
    results = run_spmd(
        workloads.rank_main,
        2,
        device=wl.device,
        args=(spec, inputs, tracer),
        timeout=JOB_TIMEOUT_S,
    )
    return results, launched


def _run_procs_job(wl, spec: dict, spans_path: Optional[Path]) -> tuple[list, float]:
    from repro.runtime.localspawn import run_local_job

    if spans_path is not None:
        os.environ["PERFBENCH_SPANS"] = str(spans_path)
    try:
        launched = time.monotonic()
        job = run_local_job(
            2,
            module_path=HERE / "procrank.py",
            args=[spec],
            device=wl.device,
            timeout=JOB_TIMEOUT_S,
        )
    finally:
        os.environ.pop("PERFBENCH_SPANS", None)
    return job.results, launched


def run_job(wl, seed: int, inputs: Optional[dict], traced: bool, state: dict) -> dict:
    """One job: launch, first exchange, ops, teardown, resource audit."""
    import tracer as tracing
    import workloads

    spec = {"workload": wl.name, "seed": seed, "cg_iters": state.get("cg_iters")}
    spec["write_spans"] = traced and not state.get("spans_written")
    spans_path = OUT / f"{wl.name}-s{seed}-spans" if traced else None
    _release_heap()
    baseline = _resources()
    job: dict[str, Any] = {"traced": traced}
    tracer = tracing.Tracer() if traced and wl.launcher == "threads" else None
    if tracer is not None:
        tracer.install()
    try:
        if wl.launcher == "threads":
            results, launched = _run_threads_job(wl, spec, inputs, tracer)
        else:
            results, launched = _run_procs_job(wl, spec, spans_path)
    except Exception as exc:  # noqa: BLE001 - a failed job is a result
        job["error"] = f"{type(exc).__name__}: {str(exc)[:2000]}"
        results = None
    finally:
        returned = time.monotonic()
        if tracer is not None:
            tracer.uninstall()
    if wl.launcher == "procs":
        from multiprocessing import resource_tracker

        _reap_orphans(keep={resource_tracker._resource_tracker._pid})
    job["leaks"] = _leaks(baseline)
    if results is None:
        return job
    if tracer is not None:
        spans = tracer.take()
        for r in results:
            r["trace"] = tracing.summarize(spans, tracer.targets, r["rank"])
        if spec["write_spans"]:
            tracing.write_spans(f"{spans_path}.jsonl", spans, tracer.targets)
    if traced:
        state["spans_written"] = True
    if "cg_iters" in results[0] and state.get("cg_iters") is None:
        state["cg_iters"] = results[0]["cg_iters"]
    # Resident memory when the loop ends, the completed-request backlog
    # at its largest: the whole process for thread ranks; for process
    # ranks, both ranks plus this launcher.
    if wl.launcher == "threads":
        rss_kb = results[0]["rss_kb"]
    else:
        rss_kb = sum(r["rss_kb"] for r in results) + workloads.rss_kb()
    job.update(
        rss_kb=rss_kb,
        setup_s=max(r["ready"] for r in results) - launched,
        teardown_s=returned - max(r["done"] for r in results),
        timed_s=results[0]["done"] - results[0]["ready"],
        ranks=results,
    )
    return job


# ----------------------------------------------------------------------
# metrics


def _smoothed_quantile(sorted_values: list[float], q: float, width: float = 0.01) -> float:
    """The *q* quantile as the mean of the samples ranked within *width* of it.

    Op times on the thread devices carry a mode of collector pauses that
    holds about 1% of the ops, so the plain 99th percentile sits on that
    mode's edge and jumps between the two modes from run to run.  The
    mean over the ranks from q - width/2 to q + width/2 moves smoothly
    as the share of slow ops changes, and equals the quantile where the
    distribution has no such edge.
    """
    n = len(sorted_values)
    lo = min(n - 1, math.floor((q - width / 2) * n))
    hi = max(lo + 1, math.ceil((q + width / 2) * n))
    return statistics.fmean(sorted_values[lo:hi])


def _op_times_us(jobs: list[dict], wl) -> list[float]:
    samples = []
    for job in jobs:
        samples.extend(ns / 1e3 / wl.ops_per_sample for ns in job["ranks"][0]["op_ns"])
    return sorted(samples)


def _job_ops(job: dict) -> tuple[int, int]:
    """(attempted, failed) ops of one completed job."""
    attempted = max(r["attempted"] for r in job["ranks"])
    failed = min(attempted, sum(r["failed"] for r in job["ranks"]))
    return attempted, failed


def end_to_end(jobs: list[dict], wl) -> dict[str, dict]:
    ok = [j for j in jobs if "ranks" in j]
    # Per-job medians: a job disturbed by something else on the machine
    # moves them less than it moves a pooled total.
    rate = statistics.median(_job_ops(j)[0] / j["timed_s"] for j in ok)
    rss_kb = statistics.median(j["rss_kb"] for j in ok)
    return {
        "ops_per_s": {"value": rate, "unit": "op/s"},
        "op_us_p50": {"value": statistics.median(_op_times_us(ok, wl)), "unit": "us"},
        "setup_s": {"value": statistics.median(j["setup_s"] for j in ok), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


def tail(jobs: list[dict], wl) -> dict[str, float]:
    """The op-time tail, reported beside the metrics but not gated.

    On a shared machine its run-to-run spread exceeds any bound the
    benchmark may set (see NOTES.md), so it informs and never decides.
    """
    samples = _op_times_us([j for j in jobs if "ranks" in j], wl)
    return {"samples": len(samples), "op_us_p99": _smoothed_quantile(samples, 0.99)}


def _delta(job: dict, rank: int, *path: str) -> float:
    r = job["ranks"][rank]
    after, before = r["after"], r["before"]
    for key in path:
        after, before = after.get(key, 0), before.get(key, 0)
    return after - before


def per_layer(jobs: list[dict], wl) -> dict[str, dict]:
    """The traced jobs' layer split, per rank, plus job-level checks."""
    import tracer as tracing

    ok = [j for j in jobs if "ranks" in j]
    traced = [j for j in ok if j["traced"]]
    plain = [j for j in ok if not j["traced"]]
    ops = sum(_job_ops(j)[0] for j in traced)
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for rank in (0, 1):
        t = tracing.merge_summaries([j["ranks"][rank]["trace"] for j in traced])
        d = lambda *path: sum(_delta(j, rank, *path) for j in traced)
        p = f"r{rank}."
        sent = d("engine", "eager_sends") + d("engine", "rendezvous_sends")
        put(p + "mpi.self_us_per_op", ratio(t["self_ns"]["mpi"] / 1e3, ops), "us")
        put(p + "mpi.calls_per_op", ratio(t["calls"]["mpi"], ops), "count")
        put(p + "mpi.allreduce_us_p50", tracing.median_us(t["durations"].get("Intracomm.Allreduce", [])), "us")
        put(p + "mpjdev.self_us_per_op", ratio(t["self_ns"]["mpjdev"] / 1e3, ops), "us")
        put(p + "mpjdev.wait_us_per_op", ratio(t["wait_ns"] / 1e3, ops), "us")
        put(p + "mpjdev.waitany_us_p50", tracing.median_us(t["durations"].get("mpjdev.waitany", [])), "us")
        put(p + "xdev.self_us_per_op", ratio(t["self_ns"]["xdev"] / 1e3, ops), "us")
        put(p + "xdev.unexpected_ratio", ratio(d("engine", "unexpected_messages"), d("matching", "arrivals")), "ratio")
        put(p + "xdev.lock_wait_us_per_msg", ratio(d("lock_wait_us"), sent), "us")
        put(p + "xdev.futile_wakeups_per_msg", ratio(d("probe", "futile_wakeups"), d("matching", "arrivals")), "count")
        put(p + "xdev.rendezvous_per_op", ratio(d("engine", "rendezvous_sends"), ops), "count")
        put(p + "xdev.completed_backlog", max(j["ranks"][rank]["after"]["completed_backlog"] for j in traced), "count")
        put(p + "transport.write_us_per_op", ratio(t["self_ns"]["transport"] / 1e3, ops), "us")
        put(p + "transport.frames_spilled_per_op", ratio(d("transport", "frames_spilled"), ops), "count")
        put(p + "transport.landings_fallback", d("transport", "landings_fallback"), "count")
        put(p + "transport.connects", ratio(sum(j["ranks"][rank]["after"]["transport"]["connects"] for j in traced), len(traced)), "count")
        put(p + "buffer.copies_per_op", ratio(d("copy", "copies"), ops), "count")
        put(p + "buffer.bytes_copied_per_op", ratio(d("copy", "bytes_copied"), ops), "B")
        put(p + "buffer.pool_hit_ratio", ratio(d("pool", "reused"), d("pool", "acquired")), "ratio")
        put(p + "runtime.device_init_s", tracing.median_us(t["durations"].get("Device.init", [])) / 1e6, "s")

    put("runtime.teardown_s", statistics.median(j["teardown_s"] for j in ok), "s")
    put("runtime.leaked_threads", sum(j["leaks"]["threads"] for j in jobs), "count")
    put("runtime.leaked_fds", sum(j["leaks"]["fds"] for j in jobs), "count")
    put("shm.leaked_segments", sum(j["leaks"]["shm"] for j in jobs), "count")

    # Ledger on rank 0, the client: its op time is the traced calls its
    # user thread made (layer self times plus waits, which partition the
    # root spans) and the benchmark's own code between them.
    t0 = tracing.merge_summaries([j["ranks"][0]["trace"] for j in traced])
    op_ns = sum(sum(j["ranks"][0]["op_ns"]) for j in traced)
    parts_us = statistics.median(t0["op_root_ns"]) / 1e3 / wl.ops_per_sample
    p50_plain = statistics.median(_op_times_us(plain, wl))
    p50_traced = statistics.median(_op_times_us(traced, wl))
    put("ledger.unattributed_us_per_op", ratio((op_ns - t0["root_ns"]) / 1e3, ops), "us")
    put("ledger.accounted_pct", 100.0 * parts_us / p50_plain, "%")
    put("obs.trace_overhead_pct", 100.0 * (p50_traced / p50_plain - 1.0), "%")
    return metrics


# ----------------------------------------------------------------------
# provenance


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # A checkout without .git must not report an enclosing repository.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """SHA-256 over the program's source files (checkouts without git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, traced: bool) -> dict[str, Any]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ----------------------------------------------------------------------


def _run_jobs(wl, args, inputs: Optional[dict], traced: bool) -> list[dict]:
    """Repeat jobs until the run has its time and samples (both phases if traced)."""
    jobs: list[dict] = []
    state: dict[str, Any] = {}
    limit = time.monotonic() + max(MAX_RUN_FACTOR * args.seconds, MAX_RUN_FLOOR_S)
    while True:
        # The first job warms caches and lazy imports; it is checked but
        # not measured.
        done = [j for j in jobs[1:] if "ranks" in j]
        timed = sum(j["timed_s"] for j in done)
        samples = sum(len(j["ranks"][0]["op_ns"]) for j in done)
        phases = {j["traced"] for j in done}
        if traced:
            # The traced run reports no percentile tail, only medians.
            enough = timed >= args.seconds and phases == {False, True}
        else:
            enough = timed >= args.seconds and samples >= MIN_SAMPLES and len(done) >= 3
        if enough or time.monotonic() > limit:
            break
        # Traced runs alternate, so drift hits both phases alike.
        jobs.append(run_job(wl, args.seed, inputs, traced and len(jobs) % 2 == 1, state))
    return jobs


def _report(wl, args, jobs: list[dict], traced: bool) -> int:
    attempted = failed = 0
    for job in jobs:
        if "ranks" in job:
            a, f = _job_ops(job)
        else:
            a = f = wl.ops_per_job
        leaked = sum(job["leaks"].values())
        attempted += a
        failed += min(a, f + leaked)
    measured = [j for j in jobs[1:] if "ranks" in j and j["traced"] == traced]
    detail = {
        "provenance": provenance(wl.name, args.seed, traced),
        "error_rate": failed / attempted if attempted else 1.0,
        "jobs": [
            {
                "traced": j["traced"],
                "error": j.get("error"),
                "leaks": j["leaks"],
                "setup_s": j.get("setup_s"),
                "teardown_s": j.get("teardown_s"),
                "timed_s": j.get("timed_s"),
                "rss_mb": j["rss_kb"] / 1024 if "rss_kb" in j else None,
                "rss_growth_mb": [
                    (r["rss_kb"] - r["rss_ready_kb"]) / 1024 for r in j.get("ranks", [])
                ],
                "completed_backlog": [r["after"]["completed_backlog"] for r in j.get("ranks", [])],
                "notes": [n for r in j.get("ranks", []) for n in r["notes"]],
            }
            for j in jobs
        ],
    }
    if not measured:
        # Nothing ran to completion: there are no metrics to report.
        print(json.dumps(detail), file=sys.stderr)
        return 1
    if traced:
        metrics = per_layer(jobs[1:], wl)
    else:
        metrics = end_to_end(jobs[1:], wl)
        detail["tail"] = tail(jobs[1:], wl)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**detail, "result": result}, indent=1), encoding="utf-8"
    )
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    _prepare_environment()
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    inputs = workloads.make_inputs(wl.name, args.seed) if wl.launcher == "threads" else None

    if wl.launcher == "procs":
        # Shared memory starts multiprocessing's resource tracker, a
        # process holding a pipe open for the life of this one.  Start it
        # before the first job so the resource audit does not count it.
        from multiprocessing import resource_tracker

        _adopt_orphans()
        resource_tracker.ensure_running()
    try:
        jobs = _run_jobs(wl, args, inputs, traced)
    finally:
        if wl.launcher == "procs":
            # Stop the tracker and wait for it (the public API leaves it
            # running until this process exits, and nothing reaps it then).
            resource_tracker._resource_tracker._stop()
            _reap_orphans(keep=set())
    return _report(wl, args, jobs, traced)


if __name__ == "__main__":
    sys.exit(main())
