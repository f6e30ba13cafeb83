"""Seeded interleaving scheduler for smdev's delivery seam.

smdev delivers every frame inline, on the writing thread, the moment
it is written — so a test run exercises exactly one interleaving,
whichever one the OS scheduler happened to produce.
:func:`make_scheduled_fabric` builds a :class:`ScheduledFabric`, an
:class:`~repro.xdev.smdev.SMFabric` whose one delivery seam,
:meth:`~repro.xdev.smdev.SMFabric.deliver`, buffers written frames per
``(destination rank, endpoint)`` lane and lets the writing threads
release them in an order drawn from a PRNG seeded by the test.  The
choice permutes delivery across independent streams while preserving
MPI's per-stream FIFO guarantee: only the earliest buffered frame of
each ``(src, context, tag)`` stream is a candidate.

A writer returns only once its own frame has been delivered — by
itself, or by another writer whose seeded pick was that frame — so a
smdev write still consumes its segments before returning, and no
inbox, queue or thread exists to serve the scheduler.

Every choice is recorded in the shared :class:`SeededSchedule`; a
failing test prints its seed, and re-running with that seed replays
the same sequence of scheduler choices.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Optional

from repro.xdev.endpoints import route_of, route_of_id
from repro.xdev.frames import FrameHeader, FrameType
from repro.xdev.processid import ProcessID
from repro.xdev.smdev import SMFabric


class SeededSchedule:
    """The PRNG and choice log shared by every lane of one job."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        #: (rank, chosen index, number of candidates, endpoint) per
        #: decision — one entry for every frame delivery of the job,
        #: across every rank's every endpoint lane.
        self.choices: list[tuple[int, int, int, int]] = []

    def pick(self, rank: int, n: int, endpoint: int = 0) -> int:
        """Choose one of *n* deliverable frames for one of *rank*'s
        endpoint lanes."""
        with self._lock:
            idx = self._rng.randrange(n) if n > 1 else 0
            self.choices.append((rank, idx, n, endpoint))
            return idx

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeededSchedule(seed={self.seed}, choices={len(self.choices)})"


class _Frame:
    __slots__ = ("src_pid", "segments", "stream", "delivered")

    def __init__(self, src_pid: ProcessID, segments, stream: Optional[tuple]):
        self.src_pid = src_pid
        self.segments = segments
        #: (src uid, context, tag) for matching-ordered frames; None for
        #: id-addressed frames (RTR/RNDZ_DATA) and BYE, which any order
        #: may deliver.
        self.stream = stream
        self.delivered = False


class ScheduledFabric(SMFabric):
    """An SMFabric whose delivery seam replays a :class:`SeededSchedule`."""

    def __init__(
        self,
        nprocs: int,
        schedule: SeededSchedule,
        gather_window_s: float = 0.001,
        endpoints: Optional[int] = None,
    ) -> None:
        super().__init__(nprocs, endpoints=endpoints)
        self.schedule = schedule
        #: After a writer buffers a frame with no rival in its lane, it
        #: waits this long for one while another thread is writing too,
        #: so the scheduler has an actual choice to make under
        #: contention.  A lone writer cannot get a rival and never
        #: waits, which keeps sequential traffic's timing undisturbed.
        self._gather_window_s = gather_window_s
        self._cond = threading.Condition()
        self._lanes: dict[tuple[int, int], list[_Frame]] = {}
        #: thread ident -> nesting depth of its deliver() calls.
        self._writers: dict[int, int] = {}

    def _endpoint(self, header: FrameHeader) -> int:
        if header.type in (FrameType.EAGER, FrameType.RTS):
            route = route_of(header.context, header.tag)
        elif header.type == FrameType.RTR:
            route = route_of_id(header.send_id)
        elif header.type == FrameType.RNDZ_DATA:
            route = route_of_id(header.recv_id)
        else:
            route = 0
        return route % self.endpoints

    @staticmethod
    def _eligible(lane: list[_Frame]) -> list[_Frame]:
        """Stream heads plus every unordered frame, in arrival order."""
        eligible: list[_Frame] = []
        seen: set[tuple] = set()
        for frame in lane:
            if frame.stream is None:
                eligible.append(frame)
            elif frame.stream not in seen:
                seen.add(frame.stream)
                eligible.append(frame)
        return eligible

    def deliver(self, src_pid: ProcessID, dest_rank: int, segments) -> None:
        header = FrameHeader.decode(segments[0])
        stream = (
            (src_pid.uid, header.context, header.tag)
            if header.type in (FrameType.EAGER, FrameType.RTS)
            else None
        )
        mine = _Frame(src_pid, segments, stream)
        endpoint = self._endpoint(header)
        me = threading.get_ident()
        with self._cond:
            lane = self._lanes.setdefault((dest_rank, endpoint), [])
            lane.append(mine)
            self._writers[me] = self._writers.get(me, 0) + 1
            self._cond.notify_all()
        try:
            while True:
                with self._cond:
                    if (
                        self._gather_window_s > 0
                        and len(lane) < 2
                        and len(self._writers) > 1
                    ):
                        deadline = time.monotonic() + self._gather_window_s
                        while mine in lane and len(lane) < 2:
                            remaining = deadline - time.monotonic()
                            if remaining <= 0 or not self._cond.wait(remaining):
                                break
                    if mine not in lane:
                        # Another writer picked our frame: wait until it
                        # has been handled, so our segments are consumed.
                        self._cond.wait_for(lambda: mine.delivered)
                        return
                    eligible = self._eligible(lane)
                    chosen = eligible[
                        self.schedule.pick(dest_rank, len(eligible), endpoint)
                    ]
                    lane.remove(chosen)
                try:
                    super().deliver(chosen.src_pid, dest_rank, chosen.segments)
                finally:
                    with self._cond:
                        chosen.delivered = True
                        self._cond.notify_all()
                if chosen is mine:
                    return
        finally:
            with self._cond:
                depth = self._writers.pop(me) - 1
                if depth:
                    self._writers[me] = depth


def make_scheduled_fabric(
    nprocs: int,
    seed: int,
    schedule: Optional[SeededSchedule] = None,
    gather_window_s: float = 0.001,
    endpoints: Optional[int] = None,
) -> tuple[ScheduledFabric, SeededSchedule]:
    """A fabric whose deliveries replay the seeded schedule.

    Lanes follow smdev's matching shards (the ``REPRO_ENDPOINTS`` knob,
    or *endpoints* explicitly): every ``(rank, endpoint)`` lane draws
    from the one shared :class:`SeededSchedule`, so interleavings are
    schedulable — and replayable — across endpoints, not just ranks.
    """
    if schedule is None:
        schedule = SeededSchedule(seed)
    fabric = ScheduledFabric(
        nprocs, schedule, gather_window_s=gather_window_s, endpoints=endpoints
    )
    return fabric, schedule
