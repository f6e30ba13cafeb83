"""The MPI base level: rank-addressed point-to-point communication.

Follows the guides' mpi4py conventions for the Python-facing API:

* **Uppercase** methods (``Send``, ``Recv``, ``Isend`` ...) move numpy
  array data described by ``(buf, offset, count, datatype)`` — the
  mpijava 1.2 signatures the paper implements.  Datatype may be
  omitted and is then inferred from the array dtype.
* **Lowercase** methods (``send``, ``recv``, ``isend`` ...) move
  arbitrary pickled Python objects, mpi4py style.

Every message is packed into an mpjbuf :class:`~repro.buffer.Buffer`
(primitive data → static section; objects → dynamic section) and
handed to mpjdev; receives unpack arrived buffers into the user array
on the waiting thread.  Buffers come from the environment's pool and
return to it when requests finish.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.buffer import Buffer
from repro.buffer.pool import BufferPool, DEFAULT_POOL
from repro.buffer.window import (
    ArrayRecvWindow,
    ArraySendWindow,
    SECTION_OVERHEAD,
)
from repro.mpi.attributes import AttributeMixin
from repro.mpi.datatype import (
    BasicType,
    Datatype,
    OBJECT,
    _IndexPatternType,
    datatype_for,
)
from repro.mpi.exceptions import (
    CommunicatorError,
    InvalidRankError,
    InvalidTagError,
    MPIException,
)
from repro.mpi.group import Group
from repro.mpi.request import MPIRequest
from repro.mpi.status import MPIStatus
from repro.mpjdev.comm import MPJDevComm, RankRequest
from repro.mpjdev.request import Status as DevStatus
from repro.xdev.constants import ANY_SOURCE, ANY_TAG

#: Extra bytes reserved beyond the packed payload (section headers).
_SLACK = 64

#: Reserved internal tag space for collectives (on the collective
#: context, so it can never collide with user point-to-point traffic).
TAG_BCAST = 1
TAG_REDUCE = 2
TAG_GATHER = 3
TAG_SCATTER = 4
TAG_ALLGATHER = 5
TAG_ALLTOALL = 6
TAG_BARRIER = 7
TAG_SCAN = 8
TAG_COMMCTL = 9
TAG_TOPO = 10
TAG_INTERCOMM = 11


class Comm(AttributeMixin):
    """Base communicator: identity, groups and point-to-point."""

    def __init__(
        self,
        devcomm: MPJDevComm,
        group: Group,
        contexts: tuple[int, int],
        pool: BufferPool | None = None,
        env: Any = None,
    ) -> None:
        self._devcomm = devcomm
        self._group = group
        self._context_pt2pt, self._context_coll = contexts
        self._pool = pool if pool is not None else DEFAULT_POOL
        self._env = env
        self._freed = False

    # ------------------------------------------------------------------
    # identity

    def rank(self) -> int:
        """This process's rank in the communicator."""
        return self._devcomm.rank

    def size(self) -> int:
        """Number of processes in the communicator."""
        return self._devcomm.size

    def group(self) -> Group:
        """The communicator's process group."""
        return self._group

    Rank = rank
    Size = size
    Group = group
    Get_rank = rank
    Get_size = size
    Get_group = group

    @property
    def contexts(self) -> tuple[int, int]:
        """(point-to-point, collective) context ids."""
        return (self._context_pt2pt, self._context_coll)

    def free(self) -> None:
        """Invalidate the communicator (MPI_Comm_free)."""
        self._freed = True

    def _check_live(self) -> None:
        if self._freed:
            raise CommunicatorError("communicator has been freed")

    # ------------------------------------------------------------------
    # validation

    def _check_rank(self, rank: int, *, wildcard: bool = False) -> None:
        if wildcard and rank == ANY_SOURCE:
            return
        if not (0 <= rank < self.size()):
            raise InvalidRankError(
                f"rank {rank} outside communicator of size {self.size()}"
            )

    @staticmethod
    def _check_tag(tag: int, *, wildcard: bool = False) -> None:
        if wildcard and tag == ANY_TAG:
            return
        if tag < 0:
            raise InvalidTagError(f"tag must be non-negative, got {tag}")

    # ------------------------------------------------------------------
    # observability (repro.obs)

    def _observe_collective(
        self, name: str, nbytes: int = 0, algorithm: Optional[str] = None
    ) -> None:
        """Count a collective entry in the device's metrics registry.

        When the chosen *algorithm* is known, a second counter labelled
        with it is bumped (``coll.bcast{algorithm=linear}``) so traces
        and bench cells show which path actually ran.
        """
        try:
            metrics = self._devcomm.device.metrics
        except Exception:  # noqa: BLE001 - device without metrics
            return
        if metrics is None or not metrics.enabled:
            return
        metrics.counter(f"coll.{name}").inc()
        if algorithm is not None:
            metrics.counter(f"coll.{name}", labels={"algorithm": algorithm}).inc()
        if nbytes:
            metrics.histogram("coll.bytes").observe(nbytes)

    # ------------------------------------------------------------------
    # packing helpers

    def _pack(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype]) -> tuple[Buffer, Datatype]:
        if datatype is None:
            if not isinstance(buf, np.ndarray):
                raise MPIException(
                    "datatype may be omitted only for numpy arrays"
                )
            datatype = datatype_for(buf)
        message = self._pool.acquire(datatype.packed_size(count) + _SLACK)
        try:
            datatype.pack(message, buf, offset, count)
        except BaseException:
            # A pack that rejects the user buffer (shape/dtype lie)
            # must not leak the pooled message.
            message.free()
            raise
        return message, datatype

    def _recv_finisher(
        self,
        message: Buffer,
        buf: Any,
        offset: int,
        count: int,
        datatype: Datatype,
    ):
        def finish(dev_status: DevStatus) -> MPIStatus:
            received = datatype.unpack(message, buf, offset, count)
            message.free()
            return MPIStatus(dev_status, count=received)

        return finish

    def _send_finisher(self, message: Buffer):
        def finish(dev_status: DevStatus) -> MPIStatus:
            message.free()
            return MPIStatus(dev_status)

        return finish

    def _request(self, inner: RankRequest, finisher, cleanup=None) -> MPIRequest:
        return MPIRequest(
            inner, finisher, device=self._devcomm.device, cleanup=cleanup
        )

    # ------------------------------------------------------------------
    # zero-copy array windows (collective datapath)

    def _window_route(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        *,
        writable: bool,
    ):
        """Gate for the zero-copy collective datapath.

        Returns ``(byte view, section type, base count, block count)``
        when the transfer can alias user memory directly, or None to
        use the packed path.  Windows are worth it only above the eager
        threshold (eager sends on retaining transports stage a copy
        anyway), and the gate must be *rank-consistent per message leg*:
        both ends see the same count/datatype/threshold, so sender and
        receiver agree on eligibility except for per-rank buffer quirks
        (non-contiguous array, dtype mismatch) — and a window on one
        side interoperates with a packed buffer on the other, so even
        then nothing breaks, one side just copies.
        """
        if count <= 0 or not isinstance(buf, np.ndarray):
            return None
        engine = getattr(self._devcomm.device, "engine", None)
        if engine is None:
            return None
        if datatype is None:
            datatype = datatype_for(buf)
        if datatype.base_dtype is None or datatype.extent != datatype.block_count:
            return None
        if isinstance(datatype, BasicType):
            basic = datatype
        elif isinstance(datatype, _IndexPatternType):
            # extent == block_count does not imply contiguity: an
            # Indexed pattern may permute elements within the extent.
            if not np.array_equal(
                datatype.pattern, np.arange(datatype.block_count, dtype=np.intp)
            ):
                return None
            basic = datatype.basic
        else:
            return None
        base_np = np.dtype(datatype.base_dtype)
        base_count = count * datatype.block_count
        if SECTION_OVERHEAD + base_count * base_np.itemsize <= engine.eager_threshold:
            return None
        if writable and not engine.transport.retains_segments:
            # A non-retaining transport would stage the landing through
            # scratch storage anyway; keep the packed path's pooling.
            return None
        if not buf.flags.c_contiguous:
            return None
        if writable and not buf.flags.writeable:
            return None
        flat = buf.reshape(-1)
        if flat.dtype != base_np and not (
            flat.dtype.kind in "iu"
            and base_np.kind in "iu"
            and flat.dtype.itemsize == base_np.itemsize
        ):
            return None
        if offset < 0 or offset + base_count > flat.size:
            return None  # let the packed path raise the precise error
        try:
            view = memoryview(flat[offset : offset + base_count]).cast("B")
        except (TypeError, ValueError, BufferError):
            return None
        return view, basic.section_type, base_count, datatype.block_count

    def _window_isend(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        dest: int,
        tag: int,
        *,
        context: int,
    ) -> Optional[MPIRequest]:
        """Zero-copy send of a large contiguous window, or None."""
        route = self._window_route(buf, offset, count, datatype, writable=False)
        if route is None:
            return None
        view, stype, base_count, _block = route
        window = ArraySendWindow(view, stype, base_count)
        inner = self._devcomm.isend(window, dest, tag, context)
        return self._request(inner, lambda dev_status: MPIStatus(dev_status))

    def _window_irecv(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        source: int,
        tag: int,
        *,
        context: int,
    ) -> Optional[MPIRequest]:
        """Zero-copy receive into a large contiguous window, or None."""
        route = self._window_route(buf, offset, count, datatype, writable=True)
        if route is None:
            return None
        view, stype, base_count, block = route
        window = ArrayRecvWindow(view, stype, base_count, block)
        inner = self._devcomm.irecv(window, source, tag, context)

        def finish(dev_status: DevStatus) -> MPIStatus:
            return MPIStatus(dev_status, count=window.landed_count // block)

        return self._request(inner, finish)

    # ------------------------------------------------------------------
    # uppercase point-to-point (array data, mpijava signatures)

    def Isend(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        dest: int,
        tag: int,
        *,
        context: Optional[int] = None,
        mode: str = "standard",
    ) -> MPIRequest:
        """Non-blocking standard-mode send."""
        self._check_live()
        self._check_rank(dest)
        self._check_tag(tag)
        message, datatype = self._pack(buf, offset, count, datatype)
        ctx = self._context_pt2pt if context is None else context
        try:
            inner = self._devcomm.isend(message, dest, tag, ctx, mode=mode)
        except BaseException:
            message.free()
            raise
        return self._request(
            inner, self._send_finisher(message), cleanup=message.free
        )

    def Send(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        dest: int,
        tag: int,
        *,
        context: Optional[int] = None,
    ) -> None:
        """Blocking standard-mode send."""
        self.Isend(buf, offset, count, datatype, dest, tag, context=context).wait()

    def Issend(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        dest: int,
        tag: int,
    ) -> MPIRequest:
        """Non-blocking synchronous-mode send."""
        return self.Isend(buf, offset, count, datatype, dest, tag, mode="sync")

    def Ssend(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int) -> None:
        """Blocking synchronous-mode send."""
        self.Issend(buf, offset, count, datatype, dest, tag).wait()

    def Irsend(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int) -> MPIRequest:
        """Non-blocking ready-mode send (receive must be pre-posted)."""
        return self.Isend(buf, offset, count, datatype, dest, tag, mode="ready")

    def Rsend(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int) -> None:
        self.Irsend(buf, offset, count, datatype, dest, tag).wait()

    def Ibsend(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int) -> MPIRequest:
        """Non-blocking buffered-mode send (data snapshotted on call)."""
        return self.Isend(buf, offset, count, datatype, dest, tag, mode="buffered")

    def Bsend(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int) -> None:
        self.Ibsend(buf, offset, count, datatype, dest, tag).wait()

    def Irecv(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        source: int,
        tag: int,
        *,
        context: Optional[int] = None,
    ) -> MPIRequest:
        """Non-blocking receive; *source* may be ``ANY_SOURCE``."""
        self._check_live()
        self._check_rank(source, wildcard=True)
        self._check_tag(tag, wildcard=True)
        if datatype is None:
            if not isinstance(buf, np.ndarray):
                raise MPIException("datatype may be omitted only for numpy arrays")
            datatype = datatype_for(buf)
        ctx = self._context_pt2pt if context is None else context
        message = self._pool.acquire(datatype.packed_size(count) + _SLACK)
        try:
            inner = self._devcomm.irecv(message, source, tag, ctx)
        except BaseException:
            message.free()
            raise
        return self._request(
            inner,
            self._recv_finisher(message, buf, offset, count, datatype),
            cleanup=message.free,
        )

    def Recv(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        source: int,
        tag: int,
        *,
        context: Optional[int] = None,
    ) -> MPIStatus:
        """Blocking receive."""
        return self.Irecv(
            buf, offset, count, datatype, source, tag, context=context
        ).wait()

    def Sendrecv(
        self,
        sendbuf: Any,
        sendoffset: int,
        sendcount: int,
        sendtype: Optional[Datatype],
        dest: int,
        sendtag: int,
        recvbuf: Any,
        recvoffset: int,
        recvcount: int,
        recvtype: Optional[Datatype],
        source: int,
        recvtag: int,
    ) -> MPIStatus:
        """Combined send and receive (deadlock-free by construction)."""
        rreq = self.Irecv(recvbuf, recvoffset, recvcount, recvtype, source, recvtag)
        sreq = self.Isend(sendbuf, sendoffset, sendcount, sendtype, dest, sendtag)
        status = rreq.wait()
        sreq.wait()
        return status

    def Sendrecv_replace(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        dest: int,
        sendtag: int,
        source: int,
        recvtag: int,
    ) -> MPIStatus:
        """Sendrecv using one buffer (send data snapshotted first)."""
        if datatype is None:
            datatype = datatype_for(buf)
        # Buffered-mode send snapshots the data at call time, so the
        # subsequent in-place receive cannot corrupt it.
        sreq = self.Isend(buf, offset, count, datatype, dest, sendtag, mode="buffered")
        status = self.Recv(buf, offset, count, datatype, source, recvtag)
        sreq.wait()
        return status

    # ------------------------------------------------------------------
    # persistent requests (MPI-1 Send_init family)

    def Send_init(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int):
        """Persistent standard-mode send (start with ``.start()``)."""
        from repro.mpi.persistent import Prequest

        self._check_rank(dest)
        self._check_tag(tag)
        return Prequest(self, "send", (buf, offset, count, datatype, dest, tag))

    def Ssend_init(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int):
        """Persistent synchronous-mode send."""
        from repro.mpi.persistent import Prequest

        self._check_rank(dest)
        self._check_tag(tag)
        return Prequest(self, "send", (buf, offset, count, datatype, dest, tag), mode="sync")

    def Rsend_init(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int):
        """Persistent ready-mode send."""
        from repro.mpi.persistent import Prequest

        self._check_rank(dest)
        self._check_tag(tag)
        return Prequest(self, "send", (buf, offset, count, datatype, dest, tag), mode="ready")

    def Bsend_init(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], dest: int, tag: int):
        """Persistent buffered-mode send (data snapshotted per start)."""
        from repro.mpi.persistent import Prequest

        self._check_rank(dest)
        self._check_tag(tag)
        return Prequest(self, "send", (buf, offset, count, datatype, dest, tag), mode="buffered")

    def Recv_init(self, buf: Any, offset: int, count: int, datatype: Optional[Datatype], source: int, tag: int):
        """Persistent receive."""
        from repro.mpi.persistent import Prequest

        self._check_rank(source, wildcard=True)
        self._check_tag(tag, wildcard=True)
        return Prequest(self, "recv", (buf, offset, count, datatype, source, tag))

    # ------------------------------------------------------------------
    # probing

    def Iprobe(self, source: int, tag: int) -> Optional[MPIStatus]:
        """Non-blocking probe on the point-to-point context."""
        self._check_live()
        self._check_rank(source, wildcard=True)
        self._check_tag(tag, wildcard=True)
        dev_status = self._devcomm.iprobe(source, tag, self._context_pt2pt)
        return MPIStatus(dev_status) if dev_status is not None else None

    def Probe(self, source: int, tag: int) -> MPIStatus:
        """Blocking probe."""
        self._check_live()
        self._check_rank(source, wildcard=True)
        self._check_tag(tag, wildcard=True)
        return MPIStatus(self._devcomm.probe(source, tag, self._context_pt2pt))

    # ------------------------------------------------------------------
    # lowercase point-to-point (pickled Python objects, mpi4py style)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> MPIRequest:
        """Non-blocking pickled-object send."""
        return self.Isend([obj], 0, 1, OBJECT, dest, tag)

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking pickled-object send."""
        self.isend(obj, dest, tag).wait()

    def ssend(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking synchronous pickled-object send."""
        self.Issend([obj], 0, 1, OBJECT, dest, tag).wait()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> "ObjectRecvRequest":
        """Non-blocking object receive; ``wait()`` returns the object."""
        self._check_live()
        self._check_rank(source, wildcard=True)
        self._check_tag(tag, wildcard=True)
        box: list[Any] = [None]
        message = self._pool.acquire(_SLACK)
        try:
            inner = self._devcomm.irecv(message, source, tag, self._context_pt2pt)
        except BaseException:
            message.free()
            raise
        finisher = self._recv_finisher(message, box, 0, 1, OBJECT)
        return ObjectRecvRequest(
            inner,
            finisher,
            box,
            device=self._devcomm.device,
            cleanup=message.free,
        )

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, status: Optional[list] = None) -> Any:
        """Blocking object receive; returns the object.

        If *status* is a list, the :class:`MPIStatus` is appended to it
        (Python has no out-parameters).
        """
        request = self.irecv(source, tag)
        obj = request.wait()
        if status is not None:
            status.append(request.status)
        return obj

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(rank={self.rank()}, size={self.size()})"


class ObjectRecvRequest(MPIRequest):
    """Request for a lowercase receive: ``wait()`` yields the object."""

    def __init__(
        self, inner: RankRequest, finisher, box: list, device=None, cleanup=None
    ) -> None:
        super().__init__(inner, finisher, device=device, cleanup=cleanup)
        self._box = box
        self.status: Optional[MPIStatus] = None

    def wait(self, timeout: Optional[float] = None) -> Any:
        self.status = super().wait(timeout=timeout)
        return self._box[0]

    def test(self) -> Optional[Any]:
        status = super().test()
        if status is None:
            return None
        self.status = status
        return self._box[0]

    Wait = wait
    Test = test
