"""mxlib — a simulated Myrinet eXpress (MX) library.

The paper's ``mxdev`` is a *thin* device precisely because MX already
implements message matching and the communication protocols internally
and is itself thread-safe (Section IV-A.3).  We therefore reproduce MX
as an in-process library with the same API surface and the same
contracts, so the shim above it can stay as thin as the paper's:

* ``mx_init`` / ``mx_finalize`` — library lifecycle;
* ``mx_open_endpoint`` — one endpoint per process, listening for
  incoming connections;
* ``mx_connect`` — resolve a peer's endpoint address;
* ``mx_isend(endpoint, segments_list, dest, match_send)`` — gather-send
  of multiple contiguous segments in one call (this is what lets the
  buffering API send the static and dynamic sections together);
* ``mx_irecv(endpoint, match_recv, match_mask)`` — matched receive with
  a 64-bit match word and mask (wildcards = zeroed mask bits);
* ``mx_test`` / ``mx_wait`` / ``mx_peek`` — completion; ``mx_peek``
  blocks and returns the most recently completed request, the method
  the paper borrowed for xdev;
* ``mx_iprobe`` / ``mx_probe`` — envelope inspection.

Matching is FIFO per (sender, match word) and thread-safe: the
endpoint lock serializes matching exactly like MX's internal lock, and
both standard and synchronous send modes are provided ("The MX library
provides non-blocking versions of standard and synchronous mode of the
send operation").
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.xdev.completion import CompletionShards
from repro.xdev.exceptions import XDevException


class MXError(XDevException):
    """mx_return_t != MX_SUCCESS."""


@dataclass
class MXStatus:
    """Completion record: who sent it, its match word, its length."""

    source: int = 0  # endpoint id
    match_info: int = 0
    msg_length: int = 0


class MXRequest:
    """An in-flight MX operation (mx_request_t)."""

    __slots__ = (
        "kind",
        "_cond",
        "_status",
        "_done",
        "data",
        "context",
        "endpoint",
        "_listeners",
    )

    #: mx_peek reports every completion, waited on or not: MX requests
    #: are never handed over out of the endpoint's completed store.
    handed = False

    def __init__(self, kind: str, context=None) -> None:
        self.kind = kind
        self._cond = threading.Condition()
        self._status: Optional[MXStatus] = None
        self._done = False
        self.data: Optional[bytes] = None
        #: opaque user pointer, as in mx_isend's ``void *context``
        self.context = context
        #: owning endpoint, set by the library (drives mx_peek routing)
        self.endpoint: Optional["MXEndpoint"] = None
        self._listeners: list = []

    def add_completion_listener(self, fn) -> None:
        """Run *fn(self)* on completion (or immediately if done)."""
        run_now = False
        with self._cond:
            if self._done:
                run_now = True
            else:
                self._listeners.append(fn)
        if run_now:
            fn(self)

    def _complete(self, status: MXStatus, data: Optional[bytes] = None) -> None:
        with self._cond:
            if self._done:
                raise MXError("MX request completed twice")
            self.data = data
            self._status = status
            self._done = True
            listeners = list(self._listeners)
            self._cond.notify_all()
        for fn in listeners:
            fn(self)

    @property
    def done(self) -> bool:
        with self._cond:
            return self._done

    def test(self) -> Optional[MXStatus]:
        with self._cond:
            return self._status if self._done else None

    def wait(self, timeout: Optional[float] = None) -> MXStatus:
        with self._cond:
            if not self._cond.wait_for(lambda: self._done, timeout=timeout):
                raise TimeoutError("mx_wait timed out")
            assert self._status is not None
            return self._status


@dataclass
class _PostedRecv:
    request: MXRequest
    match_recv: int
    match_mask: int
    seq: int
    claimed: bool = False


@dataclass
class _Unexpected:
    source: int
    match_info: int
    data: bytes
    seq: int
    sync_request: Optional[MXRequest] = None  # completes on match (ssend)


class MXEndpoint:
    """One communication endpoint (mx_endpoint_t)."""

    def __init__(self, lib: "MXLibrary", endpoint_id: int) -> None:
        self._lib = lib
        self.endpoint_id = endpoint_id
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._recvs: deque[_PostedRecv] = deque()
        self._unexpected: deque[_Unexpected] = deque()
        self._seq = itertools.count(1)
        self._completed = CompletionShards()
        self._closed = False

    # ------------------------------------------------------------------
    # receive side

    def _post_recv(self, request: MXRequest, match_recv: int, match_mask: int) -> None:
        to_complete: Optional[_Unexpected] = None
        with self._lock:
            if self._closed:
                raise MXError("endpoint closed")
            for msg in self._unexpected:
                if (msg.match_info & match_mask) == (match_recv & match_mask):
                    to_complete = msg
                    self._unexpected.remove(msg)
                    break
            if to_complete is None:
                self._recvs.append(
                    _PostedRecv(request, match_recv, match_mask, next(self._seq))
                )
                return
        self._deliver(request, to_complete)

    def _deliver(self, request: MXRequest, msg: _Unexpected) -> None:
        request._complete(
            MXStatus(msg.source, msg.match_info, len(msg.data)), data=msg.data
        )
        self._lib._track(request)
        if msg.sync_request is not None:
            msg.sync_request._complete(MXStatus(self.endpoint_id, msg.match_info, len(msg.data)))
            self._lib._track(msg.sync_request)

    # ------------------------------------------------------------------
    # inbound (called by the sender's thread — MX is thread-safe)

    def _incoming(
        self,
        source: int,
        match_info: int,
        data: bytes,
        sync_request: Optional[MXRequest],
    ) -> None:
        matched: Optional[_PostedRecv] = None
        with self._lock:
            if self._closed:
                return
            for posted in self._recvs:
                if not posted.claimed and (
                    (match_info & posted.match_mask)
                    == (posted.match_recv & posted.match_mask)
                ):
                    matched = posted
                    posted.claimed = True
                    break
            while self._recvs and self._recvs[0].claimed:
                self._recvs.popleft()
            if matched is None:
                self._unexpected.append(
                    _Unexpected(source, match_info, data, next(self._seq), sync_request)
                )
                self._cond.notify_all()
                return
        self._deliver(
            matched.request,
            _Unexpected(source, match_info, data, 0, sync_request),
        )

    # ------------------------------------------------------------------
    # probing

    def _probe(
        self, match_recv: int, match_mask: int, timeout: Optional[float]
    ) -> Optional[MXStatus]:
        def find() -> Optional[_Unexpected]:
            for msg in self._unexpected:
                if (msg.match_info & match_mask) == (match_recv & match_mask):
                    return msg
            return None

        with self._cond:
            if timeout == 0:
                msg = find()
            else:
                ok = self._cond.wait_for(lambda: find() is not None, timeout=timeout)
                msg = find() if ok else None
            if msg is None:
                return None
            return MXStatus(msg.source, msg.match_info, len(msg.data))

    def _close(self) -> None:
        with self._lock:
            self._closed = True


class MXLibrary:
    """The process-wide simulated MX instance (one per job fabric)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._endpoints: dict[int, MXEndpoint] = {}
        self._ids = itertools.count(0)
        self._initialized = False

    # ------------------------------------------------------------------
    # library lifecycle

    def mx_init(self) -> None:
        with self._lock:
            self._initialized = True

    def mx_finalize(self) -> None:
        with self._lock:
            for ep in self._endpoints.values():
                ep._close()
            self._endpoints.clear()
            self._initialized = False

    def _check(self) -> None:
        if not self._initialized:
            raise MXError("MX library not initialized (call mx_init first)")

    # ------------------------------------------------------------------
    # endpoints

    def mx_open_endpoint(self) -> MXEndpoint:
        self._check()
        with self._lock:
            ep = MXEndpoint(self, next(self._ids))
            self._endpoints[ep.endpoint_id] = ep
            return ep

    def mx_connect(self, endpoint: MXEndpoint, dest_id: int) -> int:
        """Resolve *dest_id* into an endpoint address (here: itself)."""
        self._check()
        with self._lock:
            if dest_id not in self._endpoints:
                raise MXError(f"no MX endpoint {dest_id}")
        return dest_id

    def _resolve(self, dest: int) -> MXEndpoint:
        with self._lock:
            try:
                return self._endpoints[dest]
            except KeyError:
                raise MXError(f"no MX endpoint {dest}") from None

    # ------------------------------------------------------------------
    # communication

    def mx_isend(
        self,
        endpoint: MXEndpoint,
        segments_list: Sequence[bytes | memoryview],
        dest: int,
        match_send: int,
        context=None,
        synchronous: bool = False,
    ) -> MXRequest:
        """Gather-send *segments_list* to endpoint *dest*.

        Standard mode completes locally as soon as the data is handed
        to the library; synchronous mode completes when the matching
        receive is found at the destination.
        """
        self._check()
        data = b"".join(bytes(s) for s in segments_list)
        request = MXRequest("send", context=context)
        request.endpoint = endpoint
        target = self._resolve(dest)
        if synchronous:
            target._incoming(endpoint.endpoint_id, match_send, data, request)
        else:
            target._incoming(endpoint.endpoint_id, match_send, data, None)
            request._complete(MXStatus(dest, match_send, len(data)))
            self._track(request)
        return request

    def mx_issend(
        self,
        endpoint: MXEndpoint,
        segments_list: Sequence[bytes | memoryview],
        dest: int,
        match_send: int,
        context=None,
    ) -> MXRequest:
        return self.mx_isend(
            endpoint, segments_list, dest, match_send, context=context, synchronous=True
        )

    def mx_irecv(
        self,
        endpoint: MXEndpoint,
        match_recv: int,
        match_mask: int = ~0,
        context=None,
    ) -> MXRequest:
        self._check()
        request = MXRequest("recv", context=context)
        request.endpoint = endpoint
        endpoint._post_recv(request, match_recv, match_mask)
        return request

    # ------------------------------------------------------------------
    # completion

    @staticmethod
    def mx_test(request: MXRequest) -> Optional[MXStatus]:
        return request.test()

    @staticmethod
    def mx_wait(request: MXRequest, timeout: Optional[float] = None) -> MXStatus:
        return request.wait(timeout=timeout)

    def mx_peek(self, endpoint: MXEndpoint, timeout: Optional[float] = None) -> MXRequest:
        """Block until a request on *endpoint* completes; most recent first."""
        return endpoint._completed.pop_latest(timeout=timeout)

    def mx_iprobe(
        self, endpoint: MXEndpoint, match_recv: int, match_mask: int = ~0
    ) -> Optional[MXStatus]:
        return endpoint._probe(match_recv, match_mask, timeout=0)

    def mx_probe(
        self,
        endpoint: MXEndpoint,
        match_recv: int,
        match_mask: int = ~0,
        timeout: Optional[float] = None,
    ) -> MXStatus:
        status = endpoint._probe(match_recv, match_mask, timeout=timeout)
        if status is None:
            raise TimeoutError("mx_probe timed out")
        return status

    # ------------------------------------------------------------------

    def _track(self, request: MXRequest) -> None:
        """Requests become visible to mx_peek on their owning endpoint:
        a send on the sender's endpoint, a recv on the receiver's."""
        if request.endpoint is not None:
            request.endpoint._completed.push(request)
