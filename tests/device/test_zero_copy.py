"""The zero-copy datapath: segment sends, in-place rendezvous landings,
copy accounting, pools, and the partial-sendmsg continuation.

The acceptance bar for the scatter-gather datapath is observable in
:class:`~repro.buffer.pool.CopyStats`: a large contiguous rendezvous
transfer must show ``bytes_copied == 0`` — every payload byte lands
directly in the posted receive's storage, never staged through
temporary scratch.
"""

from __future__ import annotations

import threading
import warnings

import numpy as np
import pytest

from repro.buffer import Buffer
from repro.buffer.buffer import WIRE_HEADER_SIZE
from repro.buffer.pool import BufferPool, CopyStats, RawPool, size_class
from repro.xdev.frames import HEADER, HEADER_SIZE, FrameHeader, FrameType

from tests.conftest import make_job

MB = 1 << 20


def send_buffer(arr):
    buf = Buffer(capacity=arr.nbytes + 64)
    buf.write(arr)
    return buf


def _reset_stats(devices):
    for d in devices:
        d.engine.copy_stats.reset()


def _combined(devices):
    stats = [d.engine.copy_stats.snapshot() for d in devices]
    return {k: sum(s[k] for s in stats) for k in stats[0]}


class TestZeroCopyRendezvous:
    """>= 1 MB contiguous transfers must not copy a single payload byte."""

    @pytest.mark.parametrize("device_kind", ["smdev", "niodev"])
    def test_large_contiguous_rendezvous_is_zero_copy(self, device_kind):
        devices, pids = make_job(device_kind, 2)
        try:
            payload = np.arange(MB, dtype=np.uint8)
            out = np.empty(MB, dtype=np.uint8)
            _reset_stats(devices)

            def receiver():
                rbuf = Buffer(capacity=payload.nbytes + 64)
                devices[1].recv(rbuf, pids[0], 5, 0)
                rbuf.read_section(out=out)

            t = threading.Thread(target=receiver)
            t.start()
            devices[0].send(send_buffer(payload), pids[1], 5, 0)
            t.join(timeout=30)
            assert not t.is_alive()
            assert np.array_equal(out, payload)

            combined = _combined(devices)
            assert combined["bytes_copied"] == 0, combined
            # The payload did move — at least once on each side.
            assert combined["bytes_moved"] >= payload.nbytes
        finally:
            for d in devices:
                d.finish()

    def test_ssend_is_zero_copy_on_smdev(self, ):
        # Synchronous mode forces rendezvous regardless of size.
        devices, pids = make_job("smdev", 2)
        try:
            payload = np.arange(4 * MB, dtype=np.uint8)
            _reset_stats(devices)

            def receiver():
                devices[1].recv(Buffer(capacity=payload.nbytes + 64), pids[0], 9, 0)

            t = threading.Thread(target=receiver)
            t.start()
            devices[0].ssend(send_buffer(payload), pids[1], 9, 0)
            t.join(timeout=30)
            assert not t.is_alive()
            assert _combined(devices)["bytes_copied"] == 0
        finally:
            for d in devices:
                d.finish()

    def test_eager_copies_are_accounted(self):
        # smdev delivers inline: a matched eager message lands straight
        # in the posted buffer (zero copies), an unexpected one is staged
        # into device scratch exactly once — and that byte count shows
        # under bytes_copied, proving the *rendezvous* zeros above are
        # measurements, not a broken meter.
        devices, pids = make_job("smdev", 2)
        try:
            payload = np.arange(1, dtype=np.int64)  # 8 B
            _reset_stats(devices)
            rreq = devices[1].irecv(Buffer(), pids[0], 3, 0)
            devices[0].send(send_buffer(payload), pids[1], 3, 0)
            rreq.wait(timeout=10)
            matched = _combined(devices)
            assert matched["bytes_copied"] == 0, matched

            _reset_stats(devices)
            sbuf = send_buffer(payload)
            devices[0].send(sbuf, pids[1], 4, 0)
            rbuf = Buffer()
            devices[1].recv(rbuf, pids[0], 4, 0)
            assert rbuf.read_section()[0] == payload[0]
            unexpected = _combined(devices)
            assert unexpected["copies"] == 1, unexpected
            assert unexpected["bytes_copied"] == WIRE_HEADER_SIZE + sbuf.size
        finally:
            for d in devices:
                d.finish()


class TestPartialSendmsgContinuation:
    """niodev must survive sendmsg() accepting only part of a frame."""

    def test_large_transfer_with_tiny_socket_buffers(self):
        # SO_SNDBUF/SO_RCVBUF of 4 KB guarantee many partial writes for
        # a 1 MB frame; the vectored-write continuation must resume
        # mid-segment until every byte is flushed.
        devices, pids = make_job(
            "niodev", 2, options={"socket_buffer_size": 4096}
        )
        try:
            payload = np.arange(MB, dtype=np.uint8)
            out = np.empty(MB, dtype=np.uint8)

            def receiver():
                rbuf = Buffer(capacity=payload.nbytes + 64)
                devices[1].recv(rbuf, pids[0], 11, 0)
                rbuf.read_section(out=out)

            t = threading.Thread(target=receiver)
            t.start()
            devices[0].send(send_buffer(payload), pids[1], 11, 0)
            t.join(timeout=60)
            assert not t.is_alive()
            assert np.array_equal(out, payload)
        finally:
            for d in devices:
                d.finish()

    def test_eager_transfer_with_tiny_socket_buffers(self):
        # Eager frames (below threshold) hit the same continuation path.
        devices, pids = make_job(
            "niodev", 2, options={"socket_buffer_size": 2048}
        )
        try:
            payload = np.arange(64 * 1024, dtype=np.uint8)
            out = np.empty_like(payload)

            def receiver():
                rbuf = Buffer(capacity=payload.nbytes + 64)
                devices[1].recv(rbuf, pids[0], 12, 0)
                rbuf.read_section(out=out)

            t = threading.Thread(target=receiver)
            t.start()
            devices[0].send(send_buffer(payload), pids[1], 12, 0)
            t.join(timeout=60)
            assert not t.is_alive()
            assert np.array_equal(out, payload)
        finally:
            for d in devices:
                d.finish()


class TestFrameHeaderDecode:
    def test_decode_from_bytes_memoryview_and_bytearray(self):
        header = FrameHeader(FrameType.RTS, context=3, tag=7, payload_len=0,
                             send_id=42, recv_id=99)
        wire = header.encode()
        assert len(wire) == HEADER_SIZE == HEADER.size
        for form in (bytes(wire), bytearray(wire), memoryview(bytes(wire))):
            decoded = FrameHeader.decode(form)
            assert decoded == header

    def test_decode_reads_prefix_without_slicing(self):
        # Input-handler hands decode() whole frames; only the first
        # HEADER_SIZE bytes are the header.
        header = FrameHeader(FrameType.EAGER, context=0, tag=1,
                             payload_len=4, send_id=0, recv_id=0)
        frame = header.encode() + b"abcd"
        assert FrameHeader.decode(memoryview(frame)) == header


class TestSizeClasses:
    def test_powers_of_two(self):
        assert size_class(1) == 16
        assert size_class(16) == 16
        assert size_class(17) == 32
        assert size_class(1000) == 1024
        assert size_class(1025) == 2048

    def test_rawpool_serves_size_classed_storage(self):
        pool = RawPool()
        storage = pool.acquire(1000)
        assert len(storage) == 1024
        pool.release(storage)
        again = pool.acquire(600)
        assert again is storage  # same bucket, reused
        pool.release(again)

    def test_rawpool_does_not_retain_giant_buffers(self):
        pool = RawPool(max_pooled_size=1024)
        storage = pool.acquire(4096)
        pool.release(storage)
        assert pool.acquire(4096) is not storage


class TestLeakChecks:
    def test_rawpool_leak_warns(self):
        pool = RawPool()
        pool.acquire(64)
        with pytest.warns(ResourceWarning, match="RawPool leak at test"):
            assert pool.check_leaks("test") == 1

    def test_bufferpool_leak_warns(self):
        pool = BufferPool()
        pool.acquire(64)
        with pytest.warns(ResourceWarning, match="BufferPool leak"):
            assert pool.check_leaks() == 1

    def test_balanced_usage_is_silent(self):
        pool = RawPool()
        pool.release(pool.acquire(64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pool.check_leaks("test") == 0

    def test_device_finish_is_leak_clean(self, device_name):
        # A full send/recv round trip must return every pooled scratch
        # buffer before finish()'s audit runs.
        devices, pids = make_job(device_name, 2)
        payload = np.arange(1024, dtype=np.uint8)

        def receiver():
            devices[1].recv(Buffer(capacity=2048), pids[0], 4, 0)

        t = threading.Thread(target=receiver)
        t.start()
        devices[0].send(send_buffer(payload), pids[1], 4, 0)
        t.join(timeout=30)
        assert not t.is_alive()
        for d in devices:
            d.finish()
            engine = getattr(d, "engine", None)
            if engine is not None:  # mxdev/ibisdev have no pooled path
                assert engine.raw_pool.outstanding == 0


class TestCopyStats:
    def test_counters_and_snapshot(self):
        stats = CopyStats()
        stats.copied(100)
        stats.copied(50)
        stats.moved(1000)
        stats.pool_hit()
        stats.pool_miss()
        snap = stats.snapshot()
        assert snap == {
            "bytes_copied": 150, "copies": 2,
            "bytes_moved": 1000, "moves": 1,
            "pool_hits": 1, "pool_misses": 1,
        }

    def test_reset(self):
        stats = CopyStats()
        stats.copied(1)
        stats.moved(2)
        stats.reset()
        assert all(v == 0 for v in stats.snapshot().values())

    def test_thread_safety(self):
        stats = CopyStats()

        def bump():
            for _ in range(10_000):
                stats.copied(1)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.snapshot()["bytes_copied"] == 40_000

    @pytest.mark.parametrize("device_kind", ["smdev", "niodev"])
    def test_engine_exposes_stats_through_device(self, device_kind):
        devices, _pids = make_job(device_kind, 2)
        try:
            for d in devices:
                snap = d.copy_stats.snapshot()
                assert set(snap) == {
                    "bytes_copied", "copies", "bytes_moved", "moves",
                    "pool_hits", "pool_misses",
                }
        finally:
            for d in devices:
                d.finish()
