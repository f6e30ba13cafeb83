"""Unit tests for the completed-request store behind every device's
peek() (CompletionShards: sharded in the protocol engine, one shard in
mxdev/ibisdev/mxlib)."""

import threading

import pytest

from repro.mpjdev.request import Request, Status
from repro.xdev.completion import CompletionShards


class TestCompletedQueue:
    """The seed's completed-queue contract, now served by the one store."""

    def test_tracked_request_appears_on_completion(self):
        q = CompletionShards()
        req = q.track(Request(Request.SEND))
        assert len(q) == 0
        req.complete(Status())
        assert len(q) == 1
        assert q.pop_latest(timeout=1) is req

    def test_lifo_order(self):
        q = CompletionShards()
        a = q.track(Request(Request.SEND))
        b = q.track(Request(Request.RECV))
        a.complete(Status())
        b.complete(Status())
        assert q.pop_latest(timeout=1) is b
        assert q.pop_latest(timeout=1) is a

    def test_peek_blocks_until_push(self):
        q = CompletionShards()
        req = q.track(Request(Request.RECV))
        out = {}

        def peeker():
            out["req"] = q.pop_latest(timeout=5)

        t = threading.Thread(target=peeker, daemon=True)
        t.start()
        # peek cannot return before the request completes (it would
        # need the 5 s timeout to fire), so the thread is still inside
        # the blocking wait here — no sleep-based handshake required.
        assert "req" not in out
        req.complete(Status())
        t.join(5)
        assert out["req"] is req

    def test_timeout(self):
        q = CompletionShards()
        with pytest.raises(TimeoutError):
            q.pop_latest(timeout=0.02)

    def test_already_completed_request_tracked(self):
        q = CompletionShards()
        req = Request(Request.SEND)
        req.complete(Status())
        q.track(req)  # listener runs immediately
        assert q.pop_latest(timeout=1) is req

    def test_concurrent_producers_consumers(self):
        q = CompletionShards()
        n = 100
        consumed = []

        def producer():
            for _ in range(n):
                q.track(Request(Request.SEND)).complete(Status())

        def consumer():
            for _ in range(n):
                consumed.append(q.pop_latest(timeout=10))

        threads = [
            threading.Thread(target=producer, daemon=True),
            threading.Thread(target=consumer, daemon=True),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert len(consumed) == n
        assert len(set(map(id, consumed))) == n


class TestHandOver:
    """A request that wait()/test() handed to its owner leaves the store."""

    def test_wait_removes_completed_request(self):
        q = CompletionShards()
        req = q.track(Request(Request.RECV))
        req.complete(Status())
        assert len(q) == 1
        req.wait(timeout=1)
        assert len(q) == 0

    def test_test_removes_only_when_done(self):
        q = CompletionShards()
        req = q.track(Request(Request.RECV))
        assert req.test() is None
        req.complete(Status())
        assert req.test() is not None
        assert len(q) == 0

    def test_handed_before_completion_listener_never_enters(self):
        # The owner saw the outcome before the store's push ran (the
        # completing thread was preempted between done and listeners):
        # the late push must skip the request, not leak it.
        q = CompletionShards()
        req = Request(Request.RECV)
        req.complete(Status())
        req.wait(timeout=1)
        q.track(req)
        assert len(q) == 0

    def test_failed_request_hand_over(self):
        from repro.mpjdev.request import RequestFailedError

        q = CompletionShards()
        req = q.track(Request(Request.RECV))
        req.fail(ValueError("truncated"))
        with pytest.raises(RequestFailedError):
            req.wait(timeout=1)
        assert len(q) == 0

    def test_unwaited_requests_stay_for_peek(self):
        # Sharded, as the protocol engine uses it: each request lands
        # on its own endpoint's shard, where discard looks for it.
        q = CompletionShards(4)
        reqs = []
        for ep in range(4):
            r = Request(Request.SEND)
            r.endpoint = ep
            r.on_handed = q.discard
            r.complete(Status())
            q.push(r, ep)
            reqs.append(r)
        reqs[1].wait(timeout=1)
        assert len(q) == 3
        assert q.pop_latest(timeout=1) is reqs[3]
        assert q.drain() == [reqs[0], reqs[2]]
