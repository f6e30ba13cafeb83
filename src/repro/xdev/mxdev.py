"""mxdev — the thin shim over the (simulated) Myrinet eXpress library.

The paper stresses how little mxdev has to do (Section IV-A.3): "It
does not implement any communication protocols because these protocols
have been internally implemented by the MX library.  An added advantage
is that the communication functions provided by MX are thread-safe."
This file honours that: no matching, no protocol state machines — just
the mapping between xdev's ``(context, tag, src)`` addressing and MX's
64-bit match words, and between MX completion and mpjdev Requests.

Match word layout (64 bits)::

    | context : 16 | tag : 32 | source rank : 16 |

A wildcard (``ANY_TAG`` / ``ANY_SOURCE``) zeroes the corresponding
field in the receive *mask* — MX-native wildcarding.

The segment-list feature is used exactly as described: the buffer's
static and dynamic sections travel as separate segments in one
``mx_isend`` call, with no intermediate join on the send path beyond
what the simulated NIC does.
"""

from __future__ import annotations

import threading

from repro.buffer import Buffer
from repro.mpjdev.request import Request, Status
from repro.xdev.completion import CompletionShards
from repro.xdev.constants import ANY_SOURCE, ANY_TAG
from repro.xdev.device import Device, DeviceConfig, register_device
from repro.xdev.exceptions import ConnectionSetupError, DeviceFinishedError, XDevException
from repro.xdev.mxlib import MXLibrary, MXRequest, MXStatus
from repro.xdev.processid import ProcessID

_CONTEXT_SHIFT = 48
_TAG_SHIFT = 16
_TAG_MASK = 0xFFFFFFFF
_SRC_MASK = 0xFFFF
_FULL_MASK = 0xFFFFFFFFFFFFFFFF


def make_match(context: int, tag: int, src_rank: int) -> int:
    """Pack (context, tag, src) into an MX match word."""
    return (
        ((context & 0xFFFF) << _CONTEXT_SHIFT)
        | ((tag & _TAG_MASK) << _TAG_SHIFT)
        | (src_rank & _SRC_MASK)
    )


def make_mask(tag: int, src_rank: int) -> int:
    """Mask with wildcarded fields zeroed."""
    mask = _FULL_MASK
    if tag == ANY_TAG:
        mask &= ~(_TAG_MASK << _TAG_SHIFT)
    if src_rank == ANY_SOURCE:
        mask &= ~_SRC_MASK
    return mask


def split_match(match: int) -> tuple[int, int, int]:
    """Unpack a match word back into (context, tag, src)."""
    context = (match >> _CONTEXT_SHIFT) & 0xFFFF
    tag = (match >> _TAG_SHIFT) & _TAG_MASK
    src = match & _SRC_MASK
    # tags are written as unsigned 32-bit; recover the sign
    if tag >= 1 << 31:
        tag -= 1 << 32
    return context, tag, src


class MXFabric:
    """Shared wiring for an in-process mxdev job: one MX library instance."""

    def __init__(self, nprocs: int) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        self.lib = MXLibrary()
        self.lib.mx_init()
        # mx_open_endpoint() per rank, performed up front so endpoint
        # ids correspond to ranks.
        self.endpoints = [self.lib.mx_open_endpoint() for _ in range(nprocs)]
        self.pids = [
            ProcessID(uid=rank, address=("mx", self.endpoints[rank].endpoint_id))
            for rank in range(nprocs)
        ]


@register_device("mxdev")
class MXDevice(Device):
    """xdev device backed by the MX library."""

    def __init__(self) -> None:
        self._fabric: MXFabric | None = None
        self._rank = -1
        self._endpoint = None
        self._completed = CompletionShards()
        self._finished = False
        self._probe_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle

    def init(self, args: DeviceConfig) -> list[ProcessID]:
        fabric: MXFabric | None = args.fabric
        if fabric is None:
            if args.nprocs == 1:
                fabric = MXFabric(1)
            else:
                raise ConnectionSetupError(
                    "mxdev needs a shared MXFabric in DeviceConfig.fabric"
                )
        if not (0 <= args.rank < fabric.nprocs):
            raise ConnectionSetupError(
                f"rank {args.rank} out of range for fabric of {fabric.nprocs}"
            )
        self._fabric = fabric
        self._rank = args.rank
        self._endpoint = fabric.endpoints[args.rank]
        # mx_connect to every peer, as the paper describes the startup.
        for peer in range(fabric.nprocs):
            fabric.lib.mx_connect(self._endpoint, fabric.endpoints[peer].endpoint_id)
        return list(fabric.pids)

    def id(self) -> ProcessID:
        self._check_live()
        assert self._fabric is not None
        return self._fabric.pids[self._rank]

    def finish(self) -> None:
        self._finished = True

    def _check_live(self) -> None:
        if self._finished:
            raise DeviceFinishedError("mxdev has been finished")
        if self._fabric is None:
            raise DeviceFinishedError("mxdev not initialized")

    def get_send_overhead(self) -> int:
        return 0  # MX carries the envelope in the match word

    def get_recv_overhead(self) -> int:
        return 0

    # ------------------------------------------------------------------
    # helpers

    def _dest_endpoint(self, dest: ProcessID) -> int:
        assert self._fabric is not None
        return self._fabric.endpoints[dest.uid].endpoint_id

    def _pid_for_endpoint(self, endpoint_id: int) -> ProcessID:
        assert self._fabric is not None
        for rank, ep in enumerate(self._fabric.endpoints):
            if ep.endpoint_id == endpoint_id:
                return self._fabric.pids[rank]
        raise XDevException(f"unknown MX endpoint {endpoint_id}")

    def _bridge_send(self, mx_request: MXRequest, tag: int) -> Request:
        """Wrap an MX send completion into an mpjdev Request."""
        request = self._completed.track(Request(Request.SEND))
        request.tag = tag

        def on_done(mxr: MXRequest) -> None:
            status = mxr.test()
            assert status is not None
            request.complete(
                Status(source=self.id(), tag=tag, size=status.msg_length)
            )

        mx_request.add_completion_listener(on_done)
        return request

    def _bridge_recv(self, mx_request: MXRequest, buf: Buffer) -> Request:
        """Wrap an MX recv completion into an mpjdev Request."""
        request = self._completed.track(Request(Request.RECV, buffer=buf))

        def on_done(mxr: MXRequest) -> None:
            status = mxr.test()
            assert status is not None and mxr.data is not None
            buf.load_wire(mxr.data)
            _ctx, tag, _src = split_match(status.match_info)
            request.complete(
                Status(
                    source=self._pid_for_endpoint(status.source),
                    tag=tag,
                    size=buf.size,
                    buffer=buf,
                )
            )

        mx_request.add_completion_listener(on_done)
        return request

    # ------------------------------------------------------------------
    # point-to-point

    def isend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> Request:
        self._check_live()
        assert self._fabric is not None
        buf.commit()
        match = make_match(context, tag, self._rank)
        # Static and dynamic sections go as a segment list in ONE
        # mx_isend call — the feature the paper calls out.
        mx_request = self._fabric.lib.mx_isend(
            self._endpoint, buf.segments(), self._dest_endpoint(dest), match
        )
        return self._bridge_send(mx_request, tag)

    def send(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        self.isend(buf, dest, tag, context).wait()

    def issend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> Request:
        self._check_live()
        assert self._fabric is not None
        buf.commit()
        match = make_match(context, tag, self._rank)
        mx_request = self._fabric.lib.mx_issend(
            self._endpoint, buf.segments(), self._dest_endpoint(dest), match
        )
        return self._bridge_send(mx_request, tag)

    def ssend(self, buf: Buffer, dest: ProcessID, tag: int, context: int) -> None:
        self.issend(buf, dest, tag, context).wait()

    def irecv(self, buf: Buffer, src: ProcessID | int, tag: int, context: int) -> Request:
        self._check_live()
        assert self._fabric is not None
        src_rank = src.uid if isinstance(src, ProcessID) else int(src)
        match = make_match(context, 0 if tag == ANY_TAG else tag,
                           0 if src_rank == ANY_SOURCE else src_rank)
        mask = make_mask(tag, src_rank)
        mx_request = self._fabric.lib.mx_irecv(self._endpoint, match, mask)
        return self._bridge_recv(mx_request, buf)

    def recv(self, buf: Buffer, src: ProcessID | int, tag: int, context: int) -> Status:
        return self.irecv(buf, src, tag, context).wait()

    # ------------------------------------------------------------------
    # probing

    def _probe_args(self, src: ProcessID | int, tag: int, context: int) -> tuple[int, int]:
        src_rank = src.uid if isinstance(src, ProcessID) else int(src)
        match = make_match(context, 0 if tag == ANY_TAG else tag,
                           0 if src_rank == ANY_SOURCE else src_rank)
        return match, make_mask(tag, src_rank)

    def _mx_status_to_status(self, mx_status: MXStatus) -> Status:
        _ctx, tag, _src = split_match(mx_status.match_info)
        return Status(
            source=self._pid_for_endpoint(mx_status.source),
            tag=tag,
            # Subtract the 16-byte buffer wire header so probe sizes
            # agree with what recv reports.
            size=max(0, mx_status.msg_length - 16),
        )

    def iprobe(self, src: ProcessID | int, tag: int, context: int) -> Status | None:
        self._check_live()
        assert self._fabric is not None
        match, mask = self._probe_args(src, tag, context)
        mx_status = self._fabric.lib.mx_iprobe(self._endpoint, match, mask)
        return self._mx_status_to_status(mx_status) if mx_status is not None else None

    def probe(self, src: ProcessID | int, tag: int, context: int) -> Status:
        self._check_live()
        assert self._fabric is not None
        match, mask = self._probe_args(src, tag, context)
        mx_status = self._fabric.lib.mx_probe(self._endpoint, match, mask)
        return self._mx_status_to_status(mx_status)

    # ------------------------------------------------------------------
    # progress

    def peek(self, timeout: float | None = None) -> Request:
        self._check_live()
        return self._completed.pop_latest(timeout=timeout)
