"""smdev's inline delivery: no threads, no inbox, no channel lock.

``SMTransport.write`` runs the receiver's engine on the sending thread.
These gates are deterministic counts (threads started, bytes copied,
completed-store backlog) plus the patterns inline delivery must survive:
crossing rendezvous with no lock held across a delivery, a self-send
rendezvous answered entirely on one thread, and writes to a finished
rank.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.testing import LockGraph, ProgressWatchdog, wait_until
from repro.testing.chaos import ChaosConfig
from repro.testing.fixtures import DEFAULT_SEED, make_chaos_job
from repro.xdev.device import DeviceConfig, new_instance
from repro.xdev.smdev import SMFabric

from tests.conftest import make_job

KB = 1 << 10


def send_buffer(arr):
    buf = Buffer(capacity=arr.nbytes + 64)
    buf.write(arr)
    return buf


def test_two_rank_init_and_traffic_start_no_threads():
    """Init starts no thread, and eager traffic runs entirely on the
    calling threads."""
    fabric = SMFabric(2)
    before = threading.active_count()
    devices = []
    for rank in range(2):
        dev = new_instance("smdev")
        dev.init(DeviceConfig(rank=rank, nprocs=2, fabric=fabric))
        devices.append(dev)
    pids = fabric.pids
    try:
        assert threading.active_count() == before
        for i in range(20):
            devices[0].send(send_buffer(np.array([i])), pids[1], 1, 0)
            rbuf = Buffer()
            devices[1].recv(rbuf, pids[0], 1, 0)
            assert rbuf.read_section()[0] == i
        assert threading.active_count() == before
    finally:
        for d in devices:
            d.finish()


def test_completed_store_stays_bounded():
    """Requests handed over by wait() leave the peek store: a long
    ping-pong leaves at most a couple of entries per rank."""
    devices, pids = make_job("smdev", 2)
    try:

        def responder():
            for _ in range(500):
                devices[1].recv(Buffer(), pids[0], 1, 0)
                devices[1].send(send_buffer(np.array([1])), pids[0], 2, 0)

        t = threading.Thread(target=responder)
        t.start()
        for _ in range(500):
            devices[0].send(send_buffer(np.array([0])), pids[1], 1, 0)
            devices[0].recv(Buffer(), pids[1], 2, 0)
        t.join(30)
        assert not t.is_alive()
        for d in devices:
            assert d.introspect()["completed_backlog"] <= 2
    finally:
        for d in devices:
            d.finish()


@pytest.mark.parametrize("endpoints", [1, 4])
def test_crossing_rendezvous_under_chaos_and_lock_graph(endpoints):
    """Both ranks send 256 KiB to each other at once, many times: each
    RTS is delivered on its sender's thread while the peer's RTR comes
    the other way.  With no lock held across a delivery this can never
    deadlock, and the lock graph records no ordering cycle."""
    graph = LockGraph()
    config = ChaosConfig.torture(DEFAULT_SEED)
    devices, pids = make_chaos_job(
        2, DEFAULT_SEED, config=config, graph=graph, endpoints=endpoints
    )
    rounds = 30
    payloads = [np.arange(256 * KB // 8, dtype=np.int64) + r for r in range(2)]
    errors = []

    def rank_main(rank):
        try:
            other = 1 - rank
            for i in range(rounds):
                sreq = devices[rank].isend(
                    send_buffer(payloads[rank] + i), pids[other], 7, 0
                )
                rbuf = Buffer(capacity=payloads[other].nbytes + 64)
                devices[rank].recv(rbuf, pids[other], 7, 0)
                got = rbuf.read_section()
                assert np.array_equal(got, payloads[other] + i)
                sreq.wait(timeout=30)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append((rank, exc))

    try:
        with ProgressWatchdog(
            [d.engine for d in devices], budget_s=10.0, graph=graph,
            on_stall=lambda stall: errors.append(("stall", stall)),
        ):
            threads = [
                threading.Thread(target=rank_main, args=(r,), daemon=True)
                for r in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert not any(t.is_alive() for t in threads), "crossing hang"
        assert not errors, errors
        assert graph.violations == []
    finally:
        for d in devices:
            d.finish()


def test_self_send_rendezvous_without_writer_thread():
    """RTS, RTR and data of a self-send all run nested on the sending
    thread when the rendezvous writer is not forked."""
    devices, pids = make_job(
        "smdev", 1, options={"fork_rendezvous_writer": False}
    )
    dev = devices[0]
    me = pids[0]
    try:
        payload = np.arange(64 * KB, dtype=np.int64)
        before = threading.active_count()
        # Send first (RTS parks as unexpected), then receive.
        sreq = dev.isend(send_buffer(payload), me, 3, 0)
        rbuf = Buffer(capacity=payload.nbytes + 64)
        dev.recv(rbuf, me, 3, 0)
        assert np.array_equal(rbuf.read_section(), payload)
        sreq.wait(timeout=5)
        # Receive first (the RTS matches a posted receive).
        rreq = dev.irecv(Buffer(capacity=payload.nbytes + 64), me, 4, 0)
        dev.send(send_buffer(payload * 2), me, 4, 0)
        status = rreq.wait(timeout=5)
        assert np.array_equal(status.buffer.read_section(), payload * 2)
        assert threading.active_count() == before
        assert dev.engine.stats["rendezvous_writer_threads"] == 0
        assert dev.engine.transport.errors == []
    finally:
        dev.finish()


def test_send_to_finished_rank_is_dropped():
    devices, pids = make_job("smdev", 2)
    try:
        devices[1].finish()
        # Neither raises nor hangs, eager or rendezvous (the RTS is
        # dropped, so the rendezvous send simply stays pending).
        devices[0].send(send_buffer(np.array([1])), pids[1], 1, 0)
        sreq = devices[0].isend(
            send_buffer(np.arange(256 * KB // 8)), pids[1], 2, 0
        )
        assert not sreq.done
        assert devices[1].engine.unexpected_count() == 0
        assert devices[1].engine.transport.introspect()["frame_errors"] == 0
    finally:
        devices[0].finish()


def test_frame_fault_recorded_at_receiver_not_sender():
    """A corrupt frame fails only itself, on the receiver's side."""
    from repro.xdev.frames import FrameType, encode_frame

    devices, pids = make_job("smdev", 2)
    try:
        # RTR for a send id rank 1 never issued: a duplicate/corrupt
        # control frame the receiving engine must reject.
        frame = encode_frame(FrameType.RTR, 0, 0, send_id=999, recv_id=1)
        devices[0].engine.transport.write(pids[1], frame)
        errors = devices[1].engine.transport.errors
        assert len(errors) == 1 and "unknown send id" in str(errors[0])
        assert devices[0].engine.transport.errors == []
        # The channel still works afterwards.
        rreq = devices[1].irecv(Buffer(), pids[0], 5, 0)
        devices[0].send(send_buffer(np.array([5])), pids[1], 5, 0)
        wait_until(lambda: rreq.done, timeout=5, message="recv after fault")
    finally:
        for d in devices:
            d.finish()


def test_frames_before_start_are_handed_over_in_order():
    """A rank may write to a peer whose device is not up yet: the frames
    wait on the fabric (copied) and reach the peer's engine in order."""
    fabric = SMFabric(2)
    sender = new_instance("smdev")
    sender.init(DeviceConfig(rank=0, nprocs=2, fabric=fabric))
    pids = fabric.pids
    receiver = None
    try:
        values = [np.array([v]) for v in (11, 22, 33)]
        for v in values:
            sbuf = send_buffer(v)
            sender.send(sbuf, pids[1], 4, 0)
            v[0] = -1  # the early copy must not alias the send buffer
        receiver = new_instance("smdev")
        receiver.init(DeviceConfig(rank=1, nprocs=2, fabric=fabric))
        got = []
        for _ in values:
            rbuf = Buffer()
            receiver.recv(rbuf, pids[0], 4, 0)
            got.append(int(rbuf.read_section()[0]))
        assert got == [11, 22, 33]
    finally:
        sender.finish()
        if receiver is not None:
            receiver.finish()
