"""The four workloads: seeded inputs and the rank programs that run them.

Every workload is a closed loop of two ranks, one user thread each;
rank 0 is the single client and times each op.  Inputs come from
:func:`make_inputs`, a pure function of the workload name and seed; the
rank programs see only those inputs.  Rank programs use the public MPI
API alone (``repro.mpi``) and never drain or reach into the device the
way a test would, so whatever the program leaves pinned stays pinned.

A rank program returns a JSON-able dict: its ready and done stamps
(``time.monotonic``, comparable across processes), rank 0's per-op
times in nanoseconds, ops attempted and failed, up to a few failure
notes, and the counters the program exposes before and after the
timed loop.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro import mpi

#: Tags reserved for the harness's own control messages; seeded data
#: tags are drawn below them.
TAG_HANDSHAKE, TAG_CREDIT, TAG_FIN = 32001, 32002, 32003
_TAG_SPACE = 32000

#: flood: messages per window.
WINDOW = 64
#: bulk: message size.
BULK_BYTES = 1 << 20
_STAMP = 16
#: cg: global problem size (two ranks), tolerance and iteration cap.
CG_N, CG_TOL, CG_MAX_ITER, CG_MAX_ERR = 2000, 1e-8, 2000, 1e-6

_MAX_NOTES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    device: str
    #: "threads" runs ranks under run_spmd; "procs" under run_local_job.
    launcher: str
    #: ops per job; jobs repeat until the run's time is used.
    ops_per_job: int
    #: op time samples per op (flood times a window of WINDOW messages).
    ops_per_sample: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pingpong_small_smdev", "smdev", "threads", 4000),
        Workload("flood_anysource_smdev", "smdev", "threads", 160 * WINDOW, WINDOW),
        Workload("bulk_procdev_xproc", "procdev", "procs", 600),
        # One op is one CG iteration; a job is one solve (its iteration
        # count is fixed by the problem, so ops_per_job is the cap).
        Workload("cg_niodev", "niodev", "threads", CG_MAX_ITER),
    )
}


# ----------------------------------------------------------------------
# inputs


def _stamped_rows(rng: np.random.Generator, count: int) -> np.ndarray:
    """8-byte messages, shape (2, count, 8): seq (u32), sender rank, 3 seeded bytes."""
    rows = np.zeros((2, count, 8), dtype=np.uint8)
    seqs = np.arange(count, dtype="<u4").view(np.uint8).reshape(count, 4)
    rows[:, :, :4] = seqs
    rows[1, :, 4] = 1
    rows[:, :, 5:] = rng.integers(0, 256, size=(2, count, 3), dtype=np.uint8)
    return rows


def _tag_sequence(rng: np.random.Generator, distinct: int, count: int) -> list[int]:
    tags = rng.choice(np.arange(1, _TAG_SPACE), size=distinct, replace=False)
    return [int(t) for t in tags[rng.integers(0, distinct, size=count)]]


def make_inputs(name: str, seed: int) -> dict[str, Any]:
    """The seeded inputs of one job of workload *name* (same seed, same inputs)."""
    wl = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    if name in ("pingpong_small_smdev", "flood_anysource_smdev"):
        rows = _stamped_rows(rng, wl.ops_per_job)
        return {
            "tags": _tag_sequence(rng, 16, wl.ops_per_job),
            "rows": rows.reshape(2, -1),
            "expect": [[r.tobytes() for r in rows[k]] for k in range(2)],
        }
    if name == "bulk_procdev_xproc":
        body = rng.integers(0, 256, size=BULK_BYTES - _STAMP, dtype=np.uint8)
        return {
            "tags": _tag_sequence(rng, 16, wl.ops_per_job),
            "body": body,
            "crc": zlib.crc32(body),
        }
    if name == "cg_niodev":
        lo, hi = _tag_sequence(rng, 2, 2)
        if lo == hi:
            hi = lo % (_TAG_SPACE - 1) + 1
        return {"halo_tags": (lo, hi)}
    raise KeyError(name)


# ----------------------------------------------------------------------
# rank programs


class _Outcome:
    """Per-rank accounting shared by the loops."""

    def __init__(self) -> None:
        self.op_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < _MAX_NOTES:
            self.notes.append(note)


def _noop(_op: int) -> None:
    pass


def _pingpong(comm, inp, ops: int, out: _Outcome, set_op: Callable) -> None:
    rank = comm.rank()
    peer = 1 - rank
    rows, expect, tags = inp["rows"][rank], inp["expect"][peer], inp["tags"]
    rbuf = np.zeros(8, dtype=np.uint8)
    clock = time.perf_counter_ns
    for i in range(ops):
        set_op(i)
        tag = tags[i]
        if rank == 0:
            t0 = clock()
            comm.Send(rows, i * 8, 8, mpi.BYTE, peer, tag)
            comm.Recv(rbuf, 0, 8, mpi.BYTE, peer, tag)
            out.op_ns.append(clock() - t0)
        else:
            comm.Recv(rbuf, 0, 8, mpi.BYTE, peer, tag)
            comm.Send(rows, i * 8, 8, mpi.BYTE, peer, tag)
        out.attempted += 1
        if rbuf.tobytes() != expect[i]:
            out.fail(f"round trip {i}: payload {rbuf.tobytes().hex()}")
    set_op(-1)


def _flood(comm, inp, ops: int, out: _Outcome, set_op: Callable) -> None:
    rank = comm.rank()
    rows, expect, tags = inp["rows"][0], inp["expect"][0], inp["tags"]
    windows = ops // WINDOW
    credit = np.zeros(1, dtype=np.int32)
    clock = time.perf_counter_ns
    if rank == 0:
        # Client: wait for the server's credit (its window of wildcard
        # receives is posted), stream the window, repeat.  One sample is
        # one credit-to-credit cycle.
        comm.Recv(credit, 0, 1, mpi.INT, 1, TAG_CREDIT)
        for w in range(windows):
            set_op(w)
            t0 = clock()
            base = w * WINDOW
            reqs = [
                comm.Isend(rows, s * 8, 8, mpi.BYTE, 1, tags[s])
                for s in range(base, base + WINDOW)
            ]
            mpi.waitall(reqs)
            comm.Recv(credit, 0, 1, mpi.INT, 1, TAG_CREDIT)
            out.op_ns.append(clock() - t0)
            if int(credit[0]) != w + 1:
                out.fail(f"window {w}: credit {int(credit[0])}")
        set_op(-1)
        comm.Send(credit, 0, 1, mpi.INT, 1, TAG_FIN)
        return
    bufs = [np.zeros(8, dtype=np.uint8) for _ in range(WINDOW)]
    for w in range(windows + 1):
        base = w * WINDOW
        reqs = []
        if w < windows:
            reqs = [
                comm.Irecv(b, 0, 8, mpi.BYTE, mpi.ANY_SOURCE, mpi.ANY_TAG)
                for b in bufs
            ]
        credit[0] = w
        comm.Send(credit, 0, 1, mpi.INT, 0, TAG_CREDIT)
        slots = list(range(len(reqs)))
        seen = set()
        while reqs:
            idx, status = mpi.waitany(reqs)
            buf = bufs[slots[idx]]
            del reqs[idx], slots[idx]
            seq = int.from_bytes(buf[:4].tobytes(), "little")
            out.attempted += 1
            if not (base <= seq < base + WINDOW) or seq in seen:
                out.fail(f"window {w}: unexpected or repeated seq {seq}")
            elif buf.tobytes() != expect[seq] or status.tag != tags[seq] or status.source != 0:
                out.fail(f"seq {seq}: payload/tag/source mismatch")
            seen.add(seq)
    # Non-overtaking order: once FIN is in, anything else rank 0 sent has
    # arrived too, so an unmatched extra message would show in Iprobe.
    comm.Recv(credit, 0, 1, mpi.INT, 0, TAG_FIN)
    if comm.Iprobe(mpi.ANY_SOURCE, mpi.ANY_TAG) is not None:
        out.fail("extra message left after the last window")


def _bulk(comm, inp, ops: int, out: _Outcome, set_op: Callable) -> None:
    rank = comm.rank()
    peer = 1 - rank
    tags, crc = inp["tags"], inp["crc"]
    buf = np.empty(BULK_BYTES, dtype=np.uint8)
    buf[_STAMP:] = inp["body"]
    stamp = buf[:_STAMP].view("<u8")
    rbuf = np.zeros(BULK_BYTES, dtype=np.uint8)
    rstamp = rbuf[:_STAMP].view("<u8")
    clock = time.perf_counter_ns
    for i in range(ops):
        set_op(i)
        tag = tags[i]
        if rank == 0:
            stamp[0], stamp[1] = i, 0
            t0 = clock()
            comm.Send(buf, 0, BULK_BYTES, mpi.BYTE, peer, tag)
            comm.Recv(rbuf, 0, BULK_BYTES, mpi.BYTE, peer, tag)
            out.op_ns.append(clock() - t0)
            ok = int(rstamp[0]) == i and int(rstamp[1]) == 1
        else:
            comm.Recv(rbuf, 0, BULK_BYTES, mpi.BYTE, peer, tag)
            ok = int(rstamp[0]) == i and int(rstamp[1]) == 0
            rstamp[1] = 1
            comm.Send(rbuf, 0, BULK_BYTES, mpi.BYTE, peer, tag)
        # The checksum runs after this rank's part of the round trip, so
        # on the echoing rank it overlaps the client's receive.
        out.attempted += 1
        if not ok or zlib.crc32(rbuf[_STAMP:]) != crc:
            out.fail(f"round trip {i}: stamp {rstamp.tolist()} or checksum mismatch")
    set_op(-1)


def _cg(comm, inp, ops: int, out: _Outcome, set_op: Callable, expect_iters: Optional[int]) -> int:
    """One CG solve of the 1-D Poisson system; returns its iteration count."""
    rank = comm.rank()
    peer = 1 - rank
    lo_tag, hi_tag = inp["halo_tags"]
    local_n = CG_N // 2
    halo = np.zeros(1)
    one, red = np.zeros(1), np.zeros(1)

    def matvec(v: np.ndarray) -> np.ndarray:
        # Rank 0 owns the low half: it sends its last element up and
        # receives rank 1's first.  Tags name the direction of travel.
        edge, send_tag, recv_tag = (
            (local_n - 1, hi_tag, lo_tag) if rank == 0 else (0, lo_tag, hi_tag)
        )
        reqs = [
            comm.Isend(v, edge, 1, mpi.DOUBLE, peer, send_tag),
            comm.Irecv(halo, 0, 1, mpi.DOUBLE, peer, recv_tag),
        ]
        mpi.waitall(reqs)
        y = 2.0 * v
        y[:-1] -= v[1:]
        y[1:] -= v[:-1]
        if rank == 0:
            y[-1] -= halo[0]
        else:
            y[0] -= halo[0]
        return y

    def allreduce(value: float, op) -> float:
        one[0] = value
        comm.Allreduce(one, 0, red, 0, 1, mpi.DOUBLE, op)
        return float(red[0])

    def dot(a: np.ndarray, b: np.ndarray) -> float:
        return allreduce(float(a @ b), mpi.SUM)

    b = matvec(np.ones(local_n))
    x = np.zeros(local_n)
    r = b - matvec(x)
    p = r.copy()
    rs_old = dot(r, r)
    clock = time.perf_counter_ns
    iters = 0
    for k in range(ops):
        set_op(k)
        t0 = clock()
        ap = matvec(p)
        alpha = rs_old / dot(p, ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = dot(r, r)
        if rank == 0:
            out.op_ns.append(clock() - t0)
        iters = k + 1
        if np.sqrt(rs_new) < CG_TOL:
            break
        p = r + (rs_new / rs_old) * p
        rs_old = rs_new
    set_op(-1)
    out.attempted += iters
    error = allreduce(float(np.abs(x - 1.0).max()), mpi.MAX)
    if error >= CG_MAX_ERR or (expect_iters is not None and iters != expect_iters):
        out.fail(f"solve: {iters} iterations (expected {expect_iters}), max|x-1| {error:.3g}", iters)
    return iters


def rss_kb() -> int:
    """Resident memory of this process now, in KiB."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") // 1024


def _counters(env) -> dict[str, Any]:
    """The counters the program exposes: metrics snapshot, introspect, pools."""
    device = env.device
    snap = device.engine.metrics.snapshot()
    intro = device.introspect()
    lock_wait = snap.get("histograms", {}).get("channel_lock.wait_us", {})
    transport = intro.get("transport", {})
    return {
        "engine": snap.get("engine", {}),
        "matching": snap.get("matching", {}),
        "copy": snap.get("copy", {}),
        "lock_wait_us": lock_wait.get("sum", 0),
        "probe": intro.get("endpoints", {}).get("probe_stats", {}),
        "transport": {
            "frames_spilled": transport.get("frames_spilled", 0),
            "landings_fallback": transport.get("landings_fallback", 0),
            "connects": transport.get("connection_cache", {}).get("connects", 0),
        },
        "completed_backlog": intro.get("completed_backlog", 0),
        "pool": dict(env.pool.stats),
    }


def rank_main(env, spec: dict[str, Any], inputs: Optional[dict] = None, tracer=None) -> dict:
    """One rank of one job of ``spec["workload"]``.

    *inputs* are passed in by the thread launcher; process ranks rebuild
    them from the seed with the same generator.  With a *tracer*, the
    rank binds its user thread and tags spans with op ids.
    """
    name = spec["workload"]
    wl = WORKLOADS[name]
    if inputs is None:
        inputs = make_inputs(name, spec["seed"])
    comm = env.COMM_WORLD
    rank = comm.rank()
    set_op = _noop
    if tracer is not None:
        tracer.bind_rank(rank)
        set_op = tracer.set_op
        engine = env.device.engine
        for obj in (env.device, engine, engine.transport):
            tracer.register(obj, rank)
    # The first exchange opens every connection a lazy transport dials
    # on first traffic; setup ends when it is done.
    token = np.zeros(1, dtype=np.int32)
    if rank == 0:
        comm.Send(token, 0, 1, mpi.INT, 1, TAG_HANDSHAKE)
        comm.Recv(token, 0, 1, mpi.INT, 1, TAG_HANDSHAKE)
    else:
        comm.Recv(token, 0, 1, mpi.INT, 0, TAG_HANDSHAKE)
        comm.Send(token, 0, 1, mpi.INT, 0, TAG_HANDSHAKE)
    before = _counters(env)
    rss_ready = rss_kb()
    ready = time.monotonic()
    out = _Outcome()
    result: dict[str, Any] = {}
    if name == "pingpong_small_smdev":
        _pingpong(comm, inputs, wl.ops_per_job, out, set_op)
    elif name == "flood_anysource_smdev":
        _flood(comm, inputs, wl.ops_per_job, out, set_op)
    elif name == "bulk_procdev_xproc":
        _bulk(comm, inputs, wl.ops_per_job, out, set_op)
    else:
        result["cg_iters"] = _cg(comm, inputs, wl.ops_per_job, out, set_op, spec.get("cg_iters"))
    done = time.monotonic()
    result.update(
        rank=rank,
        ready=ready,
        done=done,
        op_ns=out.op_ns,
        attempted=out.attempted,
        failed=out.failed,
        notes=out.notes,
        before=before,
        after=_counters(env),
        rss_ready_kb=rss_ready,
        rss_kb=rss_kb(),
    )
    return result
