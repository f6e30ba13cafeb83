"""The completed-request store backing ``peek()``.

:class:`CompletionShards` serves every device: the protocol engine
shards it per endpoint, so threads bound to different endpoints never
contend when their requests complete, while ``peek()`` still returns
the globally most-recent completion via per-entry global sequence
numbers; mxdev, ibisdev and mxlib use a single shard.

A request stays in the store only until its owner learns its outcome:
``Request.wait()``/``Request.test()`` hand it over and call
:meth:`CompletionShards.discard`.  ``peek()`` pops the rest — the
requests nobody has waited on yet, which is what WaitAny needs — so
the store holds only completions no owner has seen.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Optional

from repro.mpjdev.request import Request


class CompletionShards:
    """Endpoint-sharded completed-request store.

    ``push`` touches only the completing request's endpoint shard — one
    uncontended lock — plus, *only when someone is blocked in peek*, a
    shared notification condition.  Entries carry a global sequence
    number so ``pop_latest`` can preserve the paper's LIFO "most
    recently completed" contract across shards (the semantics the paper
    borrows from the Myrinet eXpress library, Section III-A), and
    ``drain`` can return requests in true completion order.

    The peek/push handshake is lost-wakeup safe without holding any
    shard lock while waiting: a waiter registers itself, samples the
    push tick, scans the shards, and sleeps only while the tick is
    unchanged.  A push appends first and checks for waiters second, so
    either the waiter's scan sees the entry or the push sees the
    waiter and bumps the tick.

    Hand-over is race free the same way: the owner sets
    ``request.handed`` before :meth:`discard` takes the shard lock, and
    ``push`` checks the flag under that lock — a push either lands
    before the discard (and is removed by it) or sees the flag and
    skips the request.
    """

    def __init__(self, n: int = 1) -> None:
        self.n = max(1, int(n))
        self._locks = [threading.Lock() for _ in range(self.n)]
        #: Per shard: request -> global sequence number, in insertion
        #: (= sequence) order, so popitem() is the shard's newest.
        self._queues: list[dict[Request, int]] = [{} for _ in range(self.n)]
        #: Total completions ever pushed per shard (obs).
        self._counts = [0] * self.n
        self._seq = itertools.count(1)
        self._cond = threading.Condition()
        self._pushes = 0
        self._waiters = 0

    def track(self, request: Request) -> Request:
        """Have *request* enter the store on completion and leave it
        when its owner waits on it."""
        request.on_handed = self.discard
        request.add_completion_listener(self.push)
        return request

    def push(self, request: Request, endpoint: int = 0) -> None:
        """Store a completed request on *endpoint*'s shard — its own
        ``request.endpoint``, where :meth:`discard` looks for it."""
        i = endpoint % self.n
        with self._locks[i]:
            self._counts[i] += 1
            if request.handed:
                return
            self._queues[i][request] = next(self._seq)
        if self._waiters:
            with self._cond:
                self._pushes += 1
                self._cond.notify_all()

    def discard(self, request: Request) -> None:
        """Forget *request*: its owner has its outcome."""
        i = request.endpoint % self.n
        with self._locks[i]:
            self._queues[i].pop(request, None)

    def _try_pop_latest(self) -> Optional[Request]:
        # Find the shard whose newest entry is globally newest, then
        # pop from it.  A concurrent peeker may drain the candidate
        # between scan and pop — rescan until a pop succeeds or every
        # shard is empty.
        while True:
            best_i = -1
            best_seq = -1
            for i in range(self.n):
                with self._locks[i]:
                    q = self._queues[i]
                    if q:
                        seq = next(reversed(q.values()))
                        if seq > best_seq:
                            best_seq = seq
                            best_i = i
            if best_i < 0:
                return None
            with self._locks[best_i]:
                q = self._queues[best_i]
                if q:
                    return q.popitem()[0]

    def pop_latest(self, timeout: Optional[float] = None) -> Request:
        """Block until a completion is available; return the newest."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._waiters += 1
        try:
            while True:
                with self._cond:
                    tick = self._pushes
                request = self._try_pop_latest()
                if request is not None:
                    return request
                with self._cond:
                    while self._pushes == tick:
                        if deadline is None:
                            self._cond.wait()
                        else:
                            remaining = deadline - time.monotonic()
                            if remaining <= 0 or not self._cond.wait(remaining):
                                raise TimeoutError("peek() timed out")
        finally:
            with self._cond:
                self._waiters -= 1

    def drain(self) -> list[Request]:
        """Remove and return everything, in completion order."""
        entries: list[tuple[Request, int]] = []
        for i in range(self.n):
            with self._locks[i]:
                entries.extend(self._queues[i].items())
                self._queues[i].clear()
        entries.sort(key=lambda e: e[1])
        return [request for request, _ in entries]

    def __len__(self) -> int:
        total = 0
        for i in range(self.n):
            with self._locks[i]:
                total += len(self._queues[i])
        return total

    def depths(self) -> list[int]:
        """Per-shard backlog (obs)."""
        return [len(q) for q in self._queues]

    def totals(self) -> list[int]:
        """Per-shard lifetime completion counts (obs)."""
        return list(self._counts)
