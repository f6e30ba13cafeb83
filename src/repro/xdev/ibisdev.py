"""ibisdev — a thread-per-message baseline device (models MPJ/Ibis).

The paper positions MPJ Express against MPJ/Ibis on two structural
points (Sections II, V-A and VI):

* MPJ/Ibis "starts a new thread for each send or receive operation",
  so posting 650 simultaneous receives "fails with cannot create
  native threads exception", and
* its devices have no selector-style progress engine; higher levels
  "only use blocking versions" of the device methods, so pending
  receives are serviced by per-operation threads that poll — stealing
  CPU from any computation running in parallel (the effect behind the
  11% ANY_SOURCE matrix-multiplication result).

This device reproduces both behaviours honestly:

* every ``isend``/``irecv`` consumes a slot in a bounded thread budget
  (default 640 — the paper observed failure at 650) and raises
  :class:`~repro.xdev.exceptions.ResourceExhaustedError` beyond it;
* receive threads *poll* a per-rank mailbox with a linear matching
  scan — no four-key index, no progress engine — at a configurable
  interval, so their CPU cost is real and measurable.

It is a correct device (all tests pass on it); it is only *structured*
the way the paper says the baseline is structured.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.buffer import Buffer
from repro.mpjdev.request import Request, Status
from repro.xdev.completion import CompletionShards
from repro.xdev.constants import ANY_SOURCE, ANY_TAG
from repro.xdev.device import Device, DeviceConfig, register_device
from repro.xdev.exceptions import (
    ConnectionSetupError,
    DeviceFinishedError,
    ResourceExhaustedError,
)
from repro.xdev.processid import ProcessID

#: Default cap on concurrently live operation threads per process,
#: chosen just below the paper's observed 650-receive failure point.
DEFAULT_MAX_THREADS = 640

#: Default mailbox polling interval for receive threads (seconds).
DEFAULT_POLL_INTERVAL = 0.001


@dataclass
class _MailboxMessage:
    src_rank: int
    tag: int
    context: int
    data: bytes
    sync_event: Optional[threading.Event] = None
    claimed: bool = False


@dataclass
class _Mailbox:
    lock: threading.Lock = field(default_factory=threading.Lock)
    messages: list[_MailboxMessage] = field(default_factory=list)


class IbisFabric:
    """Shared wiring for an in-process ibisdev job."""

    def __init__(self, nprocs: int) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        self.pids = [ProcessID(uid=r, address=("ibis", r)) for r in range(nprocs)]
        self.mailboxes = [_Mailbox() for _ in range(nprocs)]
        # The JVM-wide native thread budget, shared by all ranks in the
        # process, like the paper's single-JVM-per-node test.
        self.thread_budget_lock = threading.Lock()
        self.live_threads = 0


@register_device("ibisdev")
class IbisDevice(Device):
    """Thread-per-operation baseline device.

    ``DeviceConfig.options``:

    * ``max_threads`` — the native-thread cap (default 640);
    * ``poll_interval`` — receive-thread polling period in seconds.
    """

    def __init__(self) -> None:
        self._fabric: IbisFabric | None = None
        self._rank = -1
        self._completed = CompletionShards()
        self._finished = False
        self._max_threads = DEFAULT_MAX_THREADS
        self._poll_interval = DEFAULT_POLL_INTERVAL
        self.stats = {"threads_spawned": 0, "poll_iterations": 0}

    # ------------------------------------------------------------------
    # lifecycle

    def init(self, args: DeviceConfig) -> list[ProcessID]:
        fabric: IbisFabric | None = args.fabric
        if fabric is None:
            if args.nprocs == 1:
                fabric = IbisFabric(1)
            else:
                raise ConnectionSetupError(
                    "ibisdev needs a shared IbisFabric in DeviceConfig.fabric"
                )
        if not (0 <= args.rank < fabric.nprocs):
            raise ConnectionSetupError(
                f"rank {args.rank} out of range for fabric of {fabric.nprocs}"
            )
        options = dict(args.options or {})
        self._max_threads = int(options.get("max_threads", DEFAULT_MAX_THREADS))
        self._poll_interval = float(
            options.get("poll_interval", DEFAULT_POLL_INTERVAL)
        )
        self._fabric = fabric
        self._rank = args.rank
        return list(fabric.pids)

    def id(self) -> ProcessID:
        self._check_live()
        assert self._fabric is not None
        return self._fabric.pids[self._rank]

    def finish(self) -> None:
        self._finished = True

    def _check_live(self) -> None:
        if self._finished:
            raise DeviceFinishedError("ibisdev has been finished")
        if self._fabric is None:
            raise DeviceFinishedError("ibisdev not initialized")

    # ------------------------------------------------------------------
    # the thread budget

    def _spawn(self, target, name: str) -> None:
        """Start an operation thread, charging the fabric-wide budget."""
        assert self._fabric is not None
        fabric = self._fabric
        with fabric.thread_budget_lock:
            if fabric.live_threads >= self._max_threads:
                raise ResourceExhaustedError(
                    f"cannot create native threads: {fabric.live_threads} "
                    f"operation threads already live (cap {self._max_threads})"
                )
            fabric.live_threads += 1
        self.stats["threads_spawned"] += 1

        def run() -> None:
            try:
                target()
            finally:
                with fabric.thread_budget_lock:
                    fabric.live_threads -= 1

        threading.Thread(target=run, name=name, daemon=True).start()

    # ------------------------------------------------------------------
    # sends

    def _deliver(
        self,
        buf: Buffer,
        dest: ProcessID,
        tag: int,
        context: int,
        sync_event: Optional[threading.Event],
    ) -> None:
        assert self._fabric is not None
        buf.commit()
        msg = _MailboxMessage(
            src_rank=self._rank,
            tag=tag,
            context=context,
            data=buf.to_wire(),
            sync_event=sync_event,
        )
        mailbox = self._fabric.mailboxes[dest.uid]
        with mailbox.lock:
            mailbox.messages.append(msg)

    def isend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> Request:
        self._check_live()
        request = self._completed.track(Request(Request.SEND, buffer=buf))
        request.tag, request.peer, request.context = tag, dest, context

        def run() -> None:
            self._deliver(buf, dest, tag, context, None)
            request.complete(Status(source=self.id(), tag=tag, size=buf.size))

        # "MPJ/Ibis starts a new thread for each send or receive".
        self._spawn(run, name=f"ibis-send-{self._rank}")
        return request

    def send(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        self.isend(buf, dest, tag, context).wait()

    def issend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> Request:
        self._check_live()
        request = self._completed.track(Request(Request.SEND, buffer=buf))
        request.tag, request.peer, request.context = tag, dest, context
        matched = threading.Event()

        def run() -> None:
            self._deliver(buf, dest, tag, context, matched)
            matched.wait()
            request.complete(Status(source=self.id(), tag=tag, size=buf.size))

        self._spawn(run, name=f"ibis-ssend-{self._rank}")
        return request

    def ssend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        self.issend(buf, dest, tag, context).wait()

    # ------------------------------------------------------------------
    # receives

    def _match(self, src_rank: int, tag: int, context: int) -> Optional[_MailboxMessage]:
        """Linear scan of the mailbox — the no-index baseline."""
        assert self._fabric is not None
        mailbox = self._fabric.mailboxes[self._rank]
        with mailbox.lock:
            for msg in mailbox.messages:
                if msg.claimed or msg.context != context:
                    continue
                if tag != ANY_TAG and msg.tag != tag:
                    continue
                if src_rank != ANY_SOURCE and msg.src_rank != src_rank:
                    continue
                msg.claimed = True
                mailbox.messages.remove(msg)
                return msg
        return None

    def irecv(self, buf: Buffer, src: ProcessID | int, tag: int, context: int) -> Request:
        self._check_live()
        src_rank = src.uid if isinstance(src, ProcessID) else int(src)
        request = self._completed.track(Request(Request.RECV, buffer=buf))
        request.tag, request.peer, request.context = tag, src, context

        def run() -> None:
            # Poll the mailbox until a matching message shows up.  This
            # is the CPU-stealing behaviour the experiments measure.
            while not self._finished:
                msg = self._match(src_rank, tag, context)
                if msg is not None:
                    buf.load_wire(msg.data)
                    if msg.sync_event is not None:
                        msg.sync_event.set()
                    assert self._fabric is not None
                    request.complete(
                        Status(
                            source=self._fabric.pids[msg.src_rank],
                            tag=msg.tag,
                            size=buf.size,
                            buffer=buf,
                        )
                    )
                    return
                self.stats["poll_iterations"] += 1
                time.sleep(self._poll_interval)

        self._spawn(run, name=f"ibis-recv-{self._rank}")
        return request

    def recv(self, buf: Buffer, src: ProcessID | int, tag: int, context: int) -> Status:
        return self.irecv(buf, src, tag, context).wait()

    # ------------------------------------------------------------------
    # probing

    def _find(self, src_rank: int, tag: int, context: int) -> Optional[_MailboxMessage]:
        assert self._fabric is not None
        mailbox = self._fabric.mailboxes[self._rank]
        with mailbox.lock:
            for msg in mailbox.messages:
                if msg.claimed or msg.context != context:
                    continue
                if tag != ANY_TAG and msg.tag != tag:
                    continue
                if src_rank != ANY_SOURCE and msg.src_rank != src_rank:
                    continue
                return msg
        return None

    def iprobe(self, src: ProcessID | int, tag: int, context: int) -> Status | None:
        self._check_live()
        src_rank = src.uid if isinstance(src, ProcessID) else int(src)
        msg = self._find(src_rank, tag, context)
        if msg is None:
            return None
        assert self._fabric is not None
        return Status(
            source=self._fabric.pids[msg.src_rank],
            tag=msg.tag,
            size=max(0, len(msg.data) - 16),
        )

    def probe(self, src: ProcessID | int, tag: int, context: int) -> Status:
        while True:
            status = self.iprobe(src, tag, context)
            if status is not None:
                return status
            time.sleep(self._poll_interval)

    # ------------------------------------------------------------------
    # progress

    def peek(self, timeout: float | None = None) -> Request:
        self._check_live()
        return self._completed.pop_latest(timeout=timeout)
