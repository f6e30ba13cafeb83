"""chaosdev — seeded, deterministic frame-level fault injection.

The protocol engine's error paths (duplicate control frames, truncated
payloads, delayed and reordered delivery) are exercised by real
networks only by luck.  chaosdev exercises them on purpose: a wrapper
:class:`~repro.xdev.device.Device` (composable over smdev/niodev, like
:class:`repro.trace.TracingDevice`) swaps the engine's transport for a
:class:`ChaosTransport` that perturbs every outbound frame according
to a seeded plan.

Determinism is the point.  Every fault decision is drawn from a PRNG
keyed on ``(seed, frame content, occurrence number)`` — *not* on call
order — so the same seed produces the same per-frame decisions no
matter how threads interleave, and a failing run can be replayed with
``REPRO_CHAOS_SEED=<seed>``.

Fault safety rules (so chaos breaks implementations, not semantics):

* only RTS/RTR control frames are duplicated — the engine must reject
  the duplicates loudly (:class:`~repro.xdev.exceptions.DuplicateControlFrameError`).
  The copy follows its original directly, and rendezvous data to that
  peer waits until it has landed: a copy arriving after its handshake
  finished would be a new message, not a duplicate;
* frames are reordered only across *different* ``(context, tag)``
  matching keys, preserving MPI's per-stream non-overtaking rule;
* payload truncation is off by default (it loses the message by
  design) and is enabled only by tests that assert the error path.

Usage::

    from repro.testing import ChaosConfig, ChaosDevice

    dev = ChaosDevice(inner_device, ChaosConfig(seed=7, duplicate_prob=0.2))
    # or via the registry, wrapping smdev:
    dev = new_instance("chaosdev")   # options: chaos_seed, chaos_inner, ...
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, replace
from typing import Optional

from repro.buffer import Buffer
from repro.mpjdev.request import Request, Status
from repro.xdev.device import Device, DeviceConfig, new_instance, register_device
from repro.xdev.exceptions import XDevException
from repro.xdev.frames import FrameHeader, FrameType
from repro.xdev.processid import ProcessID
from repro.xdev.protocol import Transport

#: Environment variable consulted for the replay seed.
SEED_ENV_VAR = "REPRO_CHAOS_SEED"


def seed_from_env(default: Optional[int] = None) -> int:
    """The chaos seed: ``$REPRO_CHAOS_SEED``, *default*, or a fresh one."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(
                f"{SEED_ENV_VAR} must be an integer seed, got {raw!r}"
            ) from None
    if default is not None:
        return default
    return random.SystemRandom().randrange(2**32)


@dataclass(frozen=True)
class ChaosConfig:
    """Fault plan for one :class:`ChaosTransport`.

    Probabilities are per-frame; each decision is drawn independently
    from the frame-keyed PRNG, so two frames with identical content
    get independent decisions via their occurrence counter.
    """

    seed: int = 0
    #: Hold the calling thread for ``delay_s`` before the write.
    delay_prob: float = 0.0
    delay_s: float = 0.002
    #: Hold a frame back and release it after the next safe write to
    #: the same destination (or after ``hold_flush_s`` at the latest).
    reorder_prob: float = 0.0
    hold_flush_s: float = 0.02
    #: Send RTS/RTR control frames twice.
    duplicate_prob: float = 0.0
    #: Cut the payload of EAGER/RNDZ_DATA frames in half (loses the
    #: message; exercises the failed-delivery path).
    truncate_prob: float = 0.0

    @classmethod
    def torture(cls, seed: int) -> "ChaosConfig":
        """The default torture mix: delays, reordering, duplicates."""
        return cls(
            seed=seed, delay_prob=0.15, reorder_prob=0.2, duplicate_prob=0.2
        )


@dataclass(frozen=True)
class ChaosEvent:
    """One injected fault, recorded for schedule comparison/replay."""

    action: str  # "delay" | "hold" | "swap" | "flush" | "duplicate" | "truncate"
    frame: str  # FrameType name
    context: int
    tag: int
    send_id: int
    recv_id: int
    occurrence: int

    def key(self) -> tuple:
        return (
            self.action,
            self.frame,
            self.context,
            self.tag,
            self.send_id,
            self.recv_id,
            self.occurrence,
        )


class _HeldFrame:
    __slots__ = (
        "dest", "segments", "match_key", "generation", "on_delivered",
        "duplicate",
    )

    def __init__(
        self, dest, segments, match_key, generation, on_delivered=None,
        duplicate=False,
    ):
        self.dest = dest
        self.segments = segments
        self.match_key = match_key
        self.generation = generation
        # The engine's delivery fence rides along with a held frame:
        # the sender's memory stays referenced until the hold ends.
        self.on_delivered = on_delivered
        # A duplicated control frame is held with its copy, which is
        # written right after it on release.
        self.duplicate = duplicate


#: Frame types whose delivery order is matching-relevant: they enter
#: the four-key matching queues, so per-(context, tag) FIFO from one
#: source is an MPI guarantee chaos must not break.
_MATCH_ORDERED = frozenset({FrameType.EAGER, FrameType.RTS})

#: Control frames safe to duplicate (the engine must reject the copy).
_DUPLICABLE = frozenset({FrameType.RTS, FrameType.RTR})

#: Frames carrying a payload that can be truncated.
_TRUNCATABLE = frozenset({FrameType.EAGER, FrameType.RNDZ_DATA})


class ChaosTransport(Transport):
    """Transport decorator injecting the :class:`ChaosConfig` plan."""

    #: Held-back and duplicated frames outlive write(), so chaos always
    #: retains segments regardless of what the inner transport does.
    retains_segments = True

    def __init__(self, inner: Transport, config: ChaosConfig) -> None:
        self.inner = inner
        self.config = config
        self._engine = None
        self._lock = threading.Lock()
        #: Per-frame-identity occurrence counters (PRNG key component).
        self._occurrences: dict[tuple, int] = {}
        #: dest uid -> held frame awaiting a reorder partner.
        self._held: dict[int, _HeldFrame] = {}
        self._generation = 0
        #: dest uid -> lock serializing inner.write on stream transports
        #: (the engine's channel lock no longer suffices once the timer
        #: flusher can also write).
        self._write_locks: dict[int, threading.Lock] = {}
        #: dest uid -> duplicated frames being written, and the
        #: RNDZ_DATA frames deferred until those writes finish.
        self._dup_writes: dict[int, int] = {}
        self._deferred: dict[int, list[tuple]] = {}
        self._events: list[ChaosEvent] = []
        self._closed = False

    # ------------------------------------------------------------------
    # recording / introspection

    def events(self) -> list[ChaosEvent]:
        with self._lock:
            return list(self._events)

    def schedule(self) -> list[tuple]:
        """The injected-fault schedule as comparable tuples."""
        return [e.key() for e in self.events()]

    def _record(self, action: str, header: FrameHeader, occ: int) -> ChaosEvent:
        event = ChaosEvent(
            action=action,
            frame=header.type.name,
            context=header.context,
            tag=header.tag,
            send_id=header.send_id,
            recv_id=header.recv_id,
            occurrence=occ,
        )
        with self._lock:
            self._events.append(event)
        return event

    # ------------------------------------------------------------------
    # deterministic per-frame decisions

    def _frame_rng(self, header: FrameHeader, occ: int) -> random.Random:
        # Seeding with a string routes through SHA-512 inside Random,
        # which is stable across processes and interpreter versions —
        # unlike hash() of a tuple, which PYTHONHASHSEED could perturb
        # if a str ever entered the key.
        #
        # The causal header fields (clock, flow_src, flow_seq — see
        # repro.xdev.causal) are deliberately EXCLUDED from this key
        # and from _next_occurrence's identity: the Lamport clock value
        # depends on thread interleaving, so keying on it would give
        # the same logical frame different fault decisions run to run
        # and break REPRO_CHAOS_SEED replay.  Flow ids ride through
        # chaos untouched; fault decisions never depend on them.
        key = (
            f"{self.config.seed}:{int(header.type)}:{header.context}:"
            f"{header.tag}:{header.send_id}:{header.recv_id}:"
            f"{header.payload_len}:{occ}"
        )
        return random.Random(key)

    def _next_occurrence(self, header: FrameHeader) -> int:
        ident = (
            int(header.type),
            header.context,
            header.tag,
            header.send_id,
            header.recv_id,
            header.payload_len,
        )
        with self._lock:
            occ = self._occurrences.get(ident, 0) + 1
            self._occurrences[ident] = occ
            return occ

    # ------------------------------------------------------------------
    # Transport API

    def start(self, engine) -> None:
        self._engine = engine
        self.inner.start(engine)

    def _write_lock(self, dest: ProcessID) -> threading.Lock:
        with self._lock:
            lock = self._write_locks.get(dest.uid)
            if lock is None:
                lock = threading.Lock()
                self._write_locks[dest.uid] = lock
            return lock

    #: Same-dest ordering comes from this transport's own per-dest
    #: ``_write_lock`` (or from the inner transport itself) — it has
    #: to, because replay/delay threads write too and the engine's
    #: channel lock cannot cover them.  Declaring it makes the engine
    #: skip its channel lock, so the inner transport's prepare_write
    #: (which may take the conn-cache lock) never runs under 'channel'.
    self_locking = True

    def prepare_write(self, dest: ProcessID) -> None:
        """No-op: delayed/replayed frames perform the actual inner
        write on chaos worker threads, so the inner transport's
        prepare/finish (which pins per-*thread* state) must bracket
        :meth:`_inner_write` on whichever thread runs it — not the
        caller's thread here."""

    def finish_write(self, dest: ProcessID) -> None:
        """No-op; see :meth:`prepare_write`."""

    def extend_peers(self, pids) -> int:
        return self.inner.extend_peers(pids)

    def _inner_write(self, dest: ProcessID, segments, on_delivered=None) -> None:
        inner = self.inner
        inner.prepare_write(dest)
        try:
            if inner.self_locking:
                # The inner transport orders its own writes, and an
                # inline one (smdev) runs the receiver's frame handling
                # inside write(): holding a lock across it would let two
                # ranks writing to each other deadlock.
                inner.write(dest, segments)
            else:
                with self._write_lock(dest):
                    inner.write(dest, segments)
        finally:
            inner.finish_write(dest)
        if on_delivered is not None:
            on_delivered()

    def _emit(
        self, dest: ProcessID, segments, on_delivered=None, duplicate=False
    ) -> None:
        """Write one frame — twice, back to back, when duplicated.

        On an inline inner transport (smdev) the original's whole
        rendezvous can run inside its write.  RNDZ_DATA to *dest* is
        deferred until the copy has landed (see :meth:`write`), so the
        copy always meets an open handshake and is rejected as a
        duplicate instead of being matched as a new message.
        """
        if not duplicate:
            self._inner_write(dest, segments, on_delivered)
            return
        with self._lock:
            self._dup_writes[dest.uid] = self._dup_writes.get(dest.uid, 0) + 1
        try:
            self._inner_write(dest, segments, on_delivered)
            self._inner_write(dest, segments)
        finally:
            with self._lock:
                left = self._dup_writes.pop(dest.uid) - 1
                if left:
                    self._dup_writes[dest.uid] = left
                    deferred = []
                else:
                    deferred = self._deferred.pop(dest.uid, [])
        for deferred_segments, fence in deferred:
            self.write(dest, deferred_segments, fence)

    def write(self, dest: ProcessID, segments, on_delivered=None) -> None:
        if self._closed:
            raise XDevException("chaos transport closed")
        header = FrameHeader.decode(segments[0])
        if header.type == FrameType.RNDZ_DATA:
            with self._lock:
                if self._dup_writes.get(dest.uid):
                    # Decided (occurrence, faults) when it is replayed.
                    self._deferred.setdefault(dest.uid, []).append(
                        (segments, on_delivered)
                    )
                    return
        occ = self._next_occurrence(header)
        rng = self._frame_rng(header, occ)
        cfg = self.config
        # Decision draw order is part of the deterministic contract:
        # duplicate, truncate, delay, hold — always in this order.
        duplicate = (
            header.type in _DUPLICABLE and rng.random() < cfg.duplicate_prob
        )
        truncate = (
            header.type in _TRUNCATABLE
            and header.payload_len > 0
            and rng.random() < cfg.truncate_prob
        )
        delay = rng.random() < cfg.delay_prob
        hold = rng.random() < cfg.reorder_prob

        if truncate:
            self._record("truncate", header, occ)
            payload = b"".join(bytes(s) for s in segments[1:])
            # Keep the header's advertised length: the receiver sees a
            # frame that claims more bytes than it carries, exactly
            # like a connection cut mid-message.
            segments = [segments[0], payload[: len(payload) // 2]]
        if delay:
            self._record("delay", header, occ)
            time.sleep(cfg.delay_s)  # reprolint: allow[no-block-in-poller] -- the injected latency IS the chaos: a bounded, configured delay that torture runs use to widen race windows on purpose

        match_key = (
            (header.context, header.tag)
            if header.type in _MATCH_ORDERED
            else None
        )

        released: Optional[_HeldFrame] = None
        swap = False
        held_entry: Optional[_HeldFrame] = None
        with self._lock:
            held = self._held.get(dest.uid)
            if held is not None:
                del self._held[dest.uid]
                released = held
                # Swapping is only safe across different matching keys;
                # identical keys must keep their original order.
                swap = (
                    held.match_key is None
                    or match_key is None
                    or held.match_key != match_key
                )
            elif hold and not self._closed:
                self._generation += 1
                held_entry = _HeldFrame(
                    dest, segments, match_key, self._generation, on_delivered,
                    duplicate,
                )
                self._held[dest.uid] = held_entry

        if held_entry is not None:
            self._record("hold", header, occ)
            timer = threading.Timer(
                cfg.hold_flush_s, self._flush_held, args=(dest, held_entry)
            )
            timer.daemon = True
            timer.start()
            # The duplicate decision still applies to a held control
            # frame: its copy is released with it.
            if duplicate:
                self._record("duplicate", header, occ)
            return

        if released is not None and swap:
            self._record("swap", header, occ)
        if duplicate:
            self._record("duplicate", header, occ)
        if released is not None and swap:
            self._emit(dest, segments, on_delivered, duplicate)
            self._release(released)
        elif released is not None:
            self._release(released)
            self._emit(dest, segments, on_delivered, duplicate)
        else:
            self._emit(dest, segments, on_delivered, duplicate)

    def _release(self, entry: _HeldFrame) -> None:
        self._emit(entry.dest, entry.segments, entry.on_delivered, entry.duplicate)

    def _flush_held(self, dest: ProcessID, entry: _HeldFrame) -> None:
        """Timer valve: a held frame with no reorder partner must still
        be delivered, or the job deadlocks on an injected fault."""
        with self._lock:
            current = self._held.get(dest.uid)
            if current is None or current.generation != entry.generation:
                return  # already released by a later write
            del self._held[dest.uid]
        self._release(entry)

    def flush(self) -> None:
        """Deliver every held frame now (tests call this at barriers)."""
        with self._lock:
            held = list(self._held.values())
            self._held.clear()
        for entry in held:
            self._release(entry)

    def close(self) -> None:
        self._closed = True
        self.flush()
        self.inner.close()


class ChaosDevice(Device):
    """A Device decorator running its inner device's engine over a
    :class:`ChaosTransport`.

    Composable exactly like :class:`repro.trace.TracingDevice`; the
    inner device must be engine-based (smdev/niodev), because the
    faults are injected below the protocol engine.
    """

    device_name = "chaosdev"

    def __init__(
        self,
        inner: Optional[Device] = None,
        config: Optional[ChaosConfig] = None,
    ) -> None:
        self.inner = inner
        self.config = config
        self.chaos: Optional[ChaosTransport] = None

    # ------------------------------------------------------------------
    # lifecycle

    def init(self, args: DeviceConfig) -> list[ProcessID]:
        options = dict(args.options or {})
        if self.inner is None:
            self.inner = new_instance(str(options.get("chaos_inner", "smdev")))
        if self.config is None:
            cfg = options.get("chaos_config")
            if cfg is None:
                cfg = ChaosConfig.torture(seed_from_env(options.get("chaos_seed")))
            elif options.get("chaos_seed") is not None:
                cfg = replace(cfg, seed=int(options["chaos_seed"]))
            self.config = cfg
        pids = self.inner.init(args)
        engine = getattr(self.inner, "engine", None)
        if engine is None:
            raise XDevException(
                f"chaosdev needs an engine-based inner device, got "
                f"{type(self.inner).__name__}"
            )
        # Swap the engine's transport: every outbound frame now passes
        # through the fault plan.  Inbound frames were perturbed by the
        # sender's own ChaosTransport, so outbound interception covers
        # the whole fabric once every rank is wrapped.
        self.chaos = ChaosTransport(engine.transport, self.config)
        engine.transport = self.chaos
        return pids

    @property
    def engine(self):
        return self.inner.engine  # type: ignore[union-attr]

    def id(self) -> ProcessID:
        return self.inner.id()

    def finish(self) -> None:
        if self.inner is not None:
            self.inner.finish()

    def get_send_overhead(self) -> int:
        return self.inner.get_send_overhead()

    def get_recv_overhead(self) -> int:
        return self.inner.get_recv_overhead()

    # ------------------------------------------------------------------
    # chaos introspection

    def events(self) -> list[ChaosEvent]:
        return self.chaos.events() if self.chaos is not None else []

    def schedule(self) -> list[tuple]:
        return self.chaos.schedule() if self.chaos is not None else []

    @property
    def seed(self) -> int:
        assert self.config is not None
        return self.config.seed

    # ------------------------------------------------------------------
    # point-to-point — pure delegation

    def isend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> Request:
        return self.inner.isend(buf, dest, tag, context)

    def send(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        self.inner.send(buf, dest, tag, context)

    def issend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> Request:
        return self.inner.issend(buf, dest, tag, context)

    def ssend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        self.inner.ssend(buf, dest, tag, context)

    def irecv(self, buf: Buffer, src: ProcessID | int, tag: int, context: int) -> Request:
        return self.inner.irecv(buf, src, tag, context)

    def recv(self, buf: Buffer, src: ProcessID | int, tag: int, context: int) -> Status:
        return self.inner.recv(buf, src, tag, context)

    def iprobe(self, src: ProcessID | int, tag: int, context: int) -> Status | None:
        return self.inner.iprobe(src, tag, context)

    def probe(self, src: ProcessID | int, tag: int, context: int) -> Status:
        return self.inner.probe(src, tag, context)

    def improbe(self, src: ProcessID | int, tag: int, context: int):
        return self.inner.improbe(src, tag, context)

    def mprobe(self, src: ProcessID | int, tag: int, context: int):
        return self.inner.mprobe(src, tag, context)

    def mrecv(self, match, buf: Buffer) -> Request:
        return self.inner.mrecv(match, buf)

    def introspect(self) -> dict:
        return self.inner.introspect()

    def peek(self, timeout: float | None = None) -> Request:
        return self.inner.peek(timeout=timeout)


register_device("chaosdev")(ChaosDevice)
