"""smdev — the shared-memory device for threads-as-ranks jobs.

The paper motivates MPJ Express with SMP clusters: "Using a thread-safe
communication library to program such clusters is an alternative to
traditional approaches like hybrid MPI and OpenMP code, or using shared
memory devices in the MPI libraries" (Section I).  smdev is exactly
that shared-memory device: ranks are threads in one process.  (The
real MPJ Express grew an ``smpdev`` along these lines in later
releases.)

smdev runs the *same* protocol engine — eager/rendezvous, four-key
matching, sharded matching locks — as niodev, so every protocol
invariant is exercised deterministically without sockets.

Inline delivery: niodev needs an input-handler thread because socket
reads are selector-driven; smdev has nothing to poll.  ``write``
decodes the frame and hands it straight to the destination rank's
``engine.handle_frame`` *on the sending thread* — the sender matches
into the receiver's shards, completes the posted receive or stages the
message as unexpected, and returns.  A rendezvous payload is gathered
straight into the posted buffer (``rendezvous_landing``).  No queue,
no handler thread, no thread handoff; a thread drives its own progress
(the *MPI×Threads* argument, PAPERS.md).

Two properties follow from the delivery being synchronous:

* the transport is **consuming** — ``write`` returns only once the
  receiver is done with the segments, so the engine hands it live
  views of the user's memory and stages nothing;
* it is **self-locking** — one thread's frames arrive in the order it
  wrote them, the only order MPI promises, so the engine takes no
  channel lock.  No lock of the sending engine or transport is held
  across a delivery: a delivery may write a reply (an RTR answering an
  RTS), and two ranks answering each other while each held its own
  channel would deadlock.

A corrupt frame costs that frame: the fault is recorded in the
*receiver's* :attr:`SMTransport.errors` and never raises in the
sender.  A frame written to a finished rank is dropped before it
touches that rank's engine; one written to a rank whose device has not
started yet is copied and handed over, in order, when it starts.
Every frame passes through one seam,
:meth:`SMFabric.deliver`, which the seeded interleaving scheduler
(:mod:`repro.testing.scheduler`) overrides.
"""

from __future__ import annotations

import threading

from repro.xdev.base import ProtocolDevice
from repro.xdev.device import DeviceConfig, register_device
from repro.xdev.endpoints import endpoint_count
from repro.xdev.exceptions import ConnectionSetupError, XDevException
from repro.xdev.frames import FrameHeader, FrameType
from repro.xdev.processid import ProcessID
from repro.xdev.protocol import ProtocolEngine, Transport


class SMFabric:
    """The shared wiring for one in-process job of *nprocs* ranks.

    Create one fabric, hand it to every rank's ``DeviceConfig`` — the
    launcher (:mod:`repro.runtime.launcher`) does this automatically.
    """

    def __init__(self, nprocs: int, endpoints: int | None = None) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        #: Matching shards per rank (the REPRO_ENDPOINTS knob).
        self.endpoints = endpoint_count(endpoints)
        self.pids = [ProcessID(address=("sm", rank)) for rank in range(nprocs)]
        self._uid_to_rank = {pid.uid: rank for rank, pid in enumerate(self.pids)}
        #: Each rank's transport, registered when its device starts.
        self.transports: list[SMTransport | None] = [None] * nprocs
        # Frames for ranks not started yet, copied (the sender's write
        # returns before they are handled), in arrival order.
        self._early: list[list[tuple[ProcessID, list[bytes]]]] = [
            [] for _ in range(nprocs)
        ]
        self._lock = threading.Lock()

    def rank_of(self, pid: ProcessID) -> int:
        try:
            return self._uid_to_rank[pid.uid]
        except KeyError:
            raise XDevException(f"{pid} is not part of this fabric") from None

    def deliver(self, src_pid: ProcessID, dest_rank: int, segments) -> None:
        """Hand one frame to *dest_rank*'s engine on the calling thread.

        The one delivery seam: every smdev frame passes here.
        """
        transport = self.transports[dest_rank]
        if transport is None:
            with self._lock:
                transport = self.transports[dest_rank]
                if transport is None:
                    copy = [bytes(segments[0]), b"".join(segments[1:])]
                    self._early[dest_rank].append((src_pid, copy))
                    return
        transport.receive(src_pid, segments)

    def attach(self, rank: int, transport: "SMTransport") -> None:
        """Register *rank*'s started transport, first handing it the
        frames that arrived early; frames arriving meanwhile join the
        backlog, so none overtakes an older one."""
        while True:
            with self._lock:
                early, self._early[rank] = self._early[rank], []
                if not early:
                    self.transports[rank] = transport
                    return
            for src_pid, segments in early:
                transport.receive(src_pid, segments)


class SMTransport(Transport):
    """Inline-delivery transport: ``write`` runs the receiver's engine."""

    self_locking = True

    def __init__(self, fabric: SMFabric, rank: int) -> None:
        self._fabric = fabric
        self._rank = rank
        self._my_pid = fabric.pids[rank]
        self._engine: ProtocolEngine | None = None
        # Guards the lifecycle: close() waits out deliveries in flight.
        self._gate = threading.Condition(threading.Lock())
        self._closed = False
        self._inflight = 0
        #: Contained per-frame errors (diagnostics).
        self.errors: list[Exception] = []

    def start(self, engine: ProtocolEngine) -> None:
        self._engine = engine
        self._fabric.attach(self._rank, self)

    def write(self, dest: ProcessID, segments) -> None:
        if self._closed:
            raise XDevException("transport closed")
        self._fabric.deliver(self._my_pid, self._fabric.rank_of(dest), segments)

    def receive(self, src_pid: ProcessID, segments) -> None:
        """Run one inbound frame through this rank's engine."""
        with self._gate:
            if self._closed:
                return  # finished rank: drop, never touch its engine
            self._inflight += 1
        try:
            self._handle(src_pid, segments)
        finally:
            with self._gate:
                self._inflight -= 1
                if self._closed and not self._inflight:
                    self._gate.notify_all()

    def _handle(self, src_pid: ProcessID, segments) -> None:
        engine = self._engine
        assert engine is not None
        try:
            header = FrameHeader.decode(segments[0])
            payload = segments[1:]
            # Actual bytes present, which a fault-injecting wrapper may
            # have truncated below header.payload_len — such frames must
            # take the validating fallback path and fail the request.
            total = sum(len(s) for s in payload)
            if header.type == FrameType.RNDZ_DATA and total == header.payload_len:
                landing = engine.rendezvous_landing(header.recv_id, total)
                if landing is not None:
                    # In-place rendezvous receive: gather the sender's
                    # live segments straight into the posted buffer.
                    offset = 0
                    for seg in payload:
                        view = memoryview(seg).cast("B")
                        landing[offset : offset + len(view)] = view
                        offset += len(view)
                    engine.copy_stats.moved(offset)
                    engine.handle_frame(src_pid, header, in_place=True)
                    return
            engine.handle_frame(src_pid, header, payload)
        except Exception as exc:  # noqa: BLE001
            # A corrupt frame costs that frame, not the sender; errors
            # are kept for diagnostics.
            self.errors.append(exc)

    def introspect(self) -> dict:
        return {
            "deliveries_in_flight": self._inflight,
            "frame_errors": len(self.errors),
        }

    def close(self) -> None:
        with self._gate:
            self._closed = True
            self._gate.wait_for(lambda: not self._inflight, timeout=5)


@register_device("smdev")
class SMDevice(ProtocolDevice):
    """Shared-memory device: the protocol engine over :class:`SMTransport`."""

    def _setup(self, args: DeviceConfig):
        fabric: SMFabric | None = args.fabric
        if fabric is None:
            if args.nprocs == 1:
                fabric = SMFabric(1)
            else:
                raise ConnectionSetupError(
                    "smdev needs a shared SMFabric in DeviceConfig.fabric"
                )
        if not (0 <= args.rank < fabric.nprocs):
            raise ConnectionSetupError(
                f"rank {args.rank} out of range for fabric of {fabric.nprocs}"
            )
        # One matching-shard count per job, so every rank's engine
        # shards streams the same way.
        options = dict(args.options or {})
        options.setdefault("endpoints", fabric.endpoints)
        args.options = options
        transport = SMTransport(fabric, args.rank)
        return fabric.pids[args.rank], list(fabric.pids), transport
