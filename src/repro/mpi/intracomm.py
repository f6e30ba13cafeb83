"""Intracommunicators: collectives and communicator construction.

The high level of the paper's Fig. 1 — "The MPJ collective
Communications (High level)" — implemented in pure Python over the
base-level point-to-point, exactly as MPJ Express implements its
collectives over mpjdev.  All internal traffic runs on the
communicator's *collective context*, so user point-to-point can never
be matched by collective plumbing.

Barrier is a dissemination barrier (⌈log2 p⌉ rounds), Scan/Exscan a
linear chain, and Gatherv/Scatterv/Alltoallv linear loops that the
uniform-block Gather/Scatter/Alltoall share.  The tunable collectives
(Bcast, Reduce, Allreduce, Gather, Scatter, Allgather, Allgatherv,
Reduce_scatter) each take one path — select, observe, call: a manual
override set with :meth:`set_collective_algorithm`, else
:func:`repro.mpi.tuning.select` keyed on (collective, message bytes,
communicator size), names an entry of
:data:`repro.mpi.algorithms.REGISTRY`, where the defaults and the
alternatives live side by side.  Large contiguous transfers inside
collectives ride the zero-copy segment datapath
(:mod:`repro.buffer.window`).

The lowercase object collectives ride the buffer collectives with
:data:`~repro.mpi.datatype.OBJECT`.

Communicator construction (``dup``/``split``/``create``) agrees on new
context ids with an Allreduce(MAX) over each rank's context counter —
the standard context-agreement trick — so ranks whose histories have
diverged still converge on identical contexts.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.mpi import algorithms, tuning
from repro.mpi import op as ops
from repro.mpi.algorithms import _local_copy
from repro.mpi.comm import (
    Comm,
    TAG_ALLTOALL,
    TAG_BARRIER,
    TAG_GATHER,
    TAG_SCAN,
    TAG_SCATTER,
)
from repro.mpi.datatype import BYTE, Datatype, OBJECT, datatype_for
from repro.mpi.exceptions import CommunicatorError, MPIException
from repro.mpi.group import Group, UNDEFINED
from repro.mpi.status import MPIStatus


class ContextCounter:
    """Per-rank allocator of communicator context ids."""

    def __init__(self, start: int = 2) -> None:
        self.value = start

    def bump_to(self, floor: int) -> None:
        self.value = max(self.value, floor)


class Intracomm(Comm):
    """A communicator whose group is all of its members."""

    def __init__(
        self,
        devcomm,
        group: Group,
        contexts: tuple[int, int],
        pool=None,
        env: Any = None,
        context_counter: Optional[ContextCounter] = None,
    ) -> None:
        super().__init__(devcomm, group, contexts, pool=pool, env=env)
        self._context_counter = (
            context_counter
            if context_counter is not None
            else ContextCounter(start=contexts[1] + 1)
        )
        #: Per-communicator collective algorithm overrides
        #: (see :mod:`repro.mpi.algorithms`).
        self._algorithms: dict[str, str] = {}

    def set_collective_algorithm(self, collective: str, algorithm: str) -> None:
        """Choose the algorithm for one collective on this communicator.

        Must be called identically on every rank (like any collective
        tuning).  See :data:`repro.mpi.algorithms.REGISTRY` for choices.
        """
        algorithms.validate(collective, algorithm)
        self._algorithms[collective] = algorithm

    def _select_algorithm(self, collective: str, nbytes: int):
        """Pick the algorithm for one collective call.

        Manual override first, then :func:`repro.mpi.tuning.select`
        (the ``REPRO_COLL_TUNING`` table, else the built-in default).
        Returns ``(name, callable)``.  The key (collective, nbytes,
        size) is identical on every rank, so selection is
        rank-consistent.
        """
        name = self._algorithms.get(collective) or tuning.select(
            collective, nbytes, self.size()
        )
        return name, algorithms.REGISTRY[collective][name]

    def _collective(self, collective: str, nbytes: int, *args) -> None:
        """Select, observe, call: the one path of a tunable collective."""
        name, fn = self._select_algorithm(collective, nbytes)
        self._observe_collective(collective, nbytes, algorithm=name)
        fn(self, *args)

    # ==================================================================
    # communicator construction

    def _agree_contexts(self) -> tuple[int, int]:
        """All ranks agree on the next free (pt2pt, coll) context pair."""
        mine = np.array([self._context_counter.value], dtype=np.int64)
        agreed = np.empty(1, dtype=np.int64)
        self.Allreduce(mine, 0, agreed, 0, 1, None, ops.MAX)
        base = int(agreed[0])
        self._context_counter.bump_to(base + 2)
        return (base, base + 1)

    def dup(self) -> "Intracomm":
        """A congruent communicator with fresh contexts.

        Cached attributes propagate according to their keyvals' copy
        policies (see :mod:`repro.mpi.attributes`)."""
        self._check_live()
        contexts = self._agree_contexts()
        clone = Intracomm(
            self._devcomm.sub_comm(list(range(self.size())), self.rank()),
            self._group,
            contexts,
            pool=self._pool,
            env=self._env,
            context_counter=self._context_counter,
        )
        self._copy_attrs_to(clone)
        return clone

    def split(self, color: int, key: int) -> Optional["Intracomm"]:
        """Partition into sub-communicators by *color*, ordered by *key*.

        Returns None for ranks passing ``color == UNDEFINED``.
        """
        self._check_live()
        contexts = self._agree_contexts()
        triples = self.allgather((color, key, self.rank()))
        if color == UNDEFINED:
            return None
        members = sorted(
            (k, r) for c, k, r in triples if c == color
        )
        ranks = [r for _k, r in members]
        my_new_rank = ranks.index(self.rank())
        new_group = Group(
            [self._group.pid(r) for r in ranks],
            my_uid=self._group.pid(self.rank()).uid,
        )
        return Intracomm(
            self._devcomm.sub_comm(ranks, my_new_rank),
            new_group,
            contexts,
            pool=self._pool,
            env=self._env,
            context_counter=self._context_counter,
        )

    def create(self, group: Group) -> Optional["Intracomm"]:
        """Communicator over *group* (None on ranks outside it).

        Collective over the parent: every parent rank must call it.
        """
        self._check_live()
        contexts = self._agree_contexts()
        my_pid = self._group.pid(self.rank())
        my_new_rank = group.rank_of(my_pid)
        if my_new_rank == UNDEFINED:
            return None
        parent_ranks = [self._group.rank_of(p) for p in group.pids]
        if any(r == UNDEFINED for r in parent_ranks):
            raise CommunicatorError("create() group is not a subset of the parent")
        new_group = Group(group.pids, my_uid=my_pid.uid)
        return Intracomm(
            self._devcomm.sub_comm(parent_ranks, my_new_rank),
            new_group,
            contexts,
            pool=self._pool,
            env=self._env,
            context_counter=self._context_counter,
        )

    Dup = dup
    Split = split
    Create = create

    def create_cart(
        self,
        dims: Sequence[int],
        periods: Sequence[bool],
        reorder: bool = False,
    ):
        """Cartesian topology communicator (paper: virtual topologies)."""
        from repro.mpi.cartcomm import CartComm

        self._check_live()
        contexts = self._agree_contexts()
        return CartComm._construct(self, contexts, dims, periods, reorder)

    def create_graph(
        self, index: Sequence[int], edges: Sequence[int], reorder: bool = False
    ):
        """Graph topology communicator."""
        from repro.mpi.graphcomm import GraphComm

        self._check_live()
        contexts = self._agree_contexts()
        return GraphComm._construct(self, contexts, index, edges, reorder)

    Create_cart = create_cart
    Create_graph = create_graph

    def create_intercomm(
        self,
        local_leader: int,
        peer_comm: "Intracomm",
        remote_leader: int,
        tag: int,
    ):
        """Build an intercommunicator; see :mod:`repro.mpi.intercomm`."""
        from repro.mpi.intercomm import Intercomm

        self._check_live()
        return Intercomm._construct(self, local_leader, peer_comm, remote_leader, tag)

    Create_intercomm = create_intercomm

    # ==================================================================
    # collective plumbing

    def _coll_send(self, buf, offset, count, datatype, dest, tag) -> None:
        self._coll_isend(buf, offset, count, datatype, dest, tag).wait()

    def _coll_isend(self, buf, offset, count, datatype, dest, tag):
        req = self._window_isend(
            buf, offset, count, datatype, dest, tag, context=self._context_coll
        )
        if req is not None:
            return req
        return self.Isend(buf, offset, count, datatype, dest, tag, context=self._context_coll)

    def _coll_recv(self, buf, offset, count, datatype, src, tag) -> MPIStatus:
        return self._coll_irecv(buf, offset, count, datatype, src, tag).wait()

    def _coll_irecv(self, buf, offset, count, datatype, src, tag):
        req = self._window_irecv(
            buf, offset, count, datatype, src, tag, context=self._context_coll
        )
        if req is not None:
            return req
        return self.Irecv(buf, offset, count, datatype, src, tag, context=self._context_coll)

    @staticmethod
    def _resolve_type(buf, datatype: Optional[Datatype]) -> Datatype:
        if datatype is not None:
            return datatype
        if isinstance(buf, np.ndarray):
            return datatype_for(buf)
        raise MPIException("datatype may be omitted only for numpy arrays")

    def _check_vector_args(self, counts, displs=None) -> None:
        """Validate per-rank count/displacement vectors."""
        size = self.size()
        if len(counts) != size:
            raise MPIException(
                f"counts vector has {len(counts)} entries for {size} ranks"
            )
        if displs is not None and len(displs) != size:
            raise MPIException(
                f"displs vector has {len(displs)} entries for {size} ranks"
            )

    # ==================================================================
    # Barrier

    def Barrier(self) -> None:
        """Dissemination barrier: ⌈log2 p⌉ sendrecv rounds."""
        self._check_live()
        self._observe_collective("barrier")
        size, rank = self.size(), self.rank()
        if size == 1:
            return
        token = np.zeros(1, dtype=np.int8)
        sink = np.zeros(1, dtype=np.int8)
        mask = 1
        while mask < size:
            dest = (rank + mask) % size
            src = (rank - mask) % size
            rreq = self._coll_irecv(sink, 0, 1, BYTE, src, TAG_BARRIER)
            sreq = self._coll_isend(token, 0, 1, BYTE, dest, TAG_BARRIER)
            rreq.wait()
            sreq.wait()
            mask <<= 1

    barrier = Barrier

    # ==================================================================
    # Bcast

    def Bcast(
        self,
        buf: Any,
        offset: int,
        count: int,
        datatype: Optional[Datatype],
        root: int,
    ) -> None:
        """Broadcast from *root* (algorithm selected per call)."""
        self._check_live()
        self._check_rank(root)
        datatype = self._resolve_type(buf, datatype)
        self._collective(
            "bcast", datatype.packed_size(count), buf, offset, count, datatype, root
        )

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        """Object broadcast: returns the root's object everywhere."""
        box = [obj]
        self.Bcast(box, 0, 1, OBJECT, root)
        return box[0]

    # ==================================================================
    # Reduce family

    @staticmethod
    def _writable_flat(buf: Any) -> np.ndarray:
        """Flat view of a result array; must be a real view, not a copy."""
        if not isinstance(buf, np.ndarray):
            raise MPIException("reduction result buffers must be numpy arrays")
        if not buf.flags.c_contiguous:
            raise MPIException(
                "reduction result buffers must be C-contiguous (a flat view "
                "of a non-contiguous array would silently be a copy)"
            )
        return buf.reshape(-1)

    def _reduce_local(
        self, buf: Any, offset: int, count: int, datatype: Datatype
    ) -> np.ndarray:
        """Copy the operand window out as a flat contiguous array."""
        if datatype.base_dtype is None:
            raise MPIException("Reduce needs a primitive-based datatype")
        if datatype.extent != datatype.block_count:
            raise MPIException("Reduce needs a contiguous datatype layout")
        flat = np.asarray(buf).reshape(-1)
        n = count * datatype.block_count
        return flat[offset : offset + n].copy()

    def Reduce(
        self,
        sendbuf: Any,
        sendoffset: int,
        recvbuf: Any,
        recvoffset: int,
        count: int,
        datatype: Optional[Datatype],
        op: ops.Op,
        root: int,
    ) -> None:
        """Reduce *count* elements to *root* with *op*."""
        self._check_live()
        self._check_rank(root)
        datatype = self._resolve_type(sendbuf, datatype)
        self._collective(
            "reduce", datatype.packed_size(count),
            sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op, root,
        )

    def Allreduce(
        self,
        sendbuf: Any,
        sendoffset: int,
        recvbuf: Any,
        recvoffset: int,
        count: int,
        datatype: Optional[Datatype],
        op: ops.Op,
    ) -> None:
        """Allreduce (algorithm selected per call)."""
        self._check_live()
        datatype = self._resolve_type(sendbuf, datatype)
        self._collective(
            "allreduce", datatype.packed_size(count),
            sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op,
        )

    def Reduce_scatter(
        self,
        sendbuf: Any,
        sendoffset: int,
        recvbuf: Any,
        recvoffset: int,
        recvcounts: Sequence[int],
        datatype: Optional[Datatype],
        op: ops.Op,
    ) -> None:
        """Reduce then scatter segments of *recvcounts* elements."""
        self._check_live()
        self._check_vector_args(recvcounts)
        datatype = self._resolve_type(sendbuf, datatype)
        self._collective(
            "reduce_scatter", datatype.packed_size(int(sum(recvcounts))),
            sendbuf, sendoffset, recvbuf, recvoffset, recvcounts, datatype, op,
        )

    def Scan(
        self,
        sendbuf: Any,
        sendoffset: int,
        recvbuf: Any,
        recvoffset: int,
        count: int,
        datatype: Optional[Datatype],
        op: ops.Op,
    ) -> None:
        """Inclusive prefix reduction in rank order."""
        self._check_live()
        size, rank = self.size(), self.rank()
        datatype = self._resolve_type(sendbuf, datatype)
        acc = self._reduce_local(sendbuf, sendoffset, count, datatype)
        n = acc.size
        if rank > 0:
            prefix = np.empty_like(acc)
            self._coll_recv(prefix, 0, n, None, rank - 1, TAG_SCAN)
            acc = op.reduce_arrays(prefix, acc)
        if rank < size - 1:
            self._coll_send(acc, 0, n, None, rank + 1, TAG_SCAN)
        flat = self._writable_flat(recvbuf)
        flat[recvoffset : recvoffset + n] = acc

    def Exscan(
        self,
        sendbuf: Any,
        sendoffset: int,
        recvbuf: Any,
        recvoffset: int,
        count: int,
        datatype: Optional[Datatype],
        op: ops.Op,
    ) -> None:
        """Exclusive prefix reduction (recvbuf untouched at rank 0)."""
        self._check_live()
        size, rank = self.size(), self.rank()
        datatype = self._resolve_type(sendbuf, datatype)
        own = self._reduce_local(sendbuf, sendoffset, count, datatype)
        n = own.size
        prefix: Optional[np.ndarray] = None
        if rank > 0:
            prefix = np.empty_like(own)
            self._coll_recv(prefix, 0, n, None, rank - 1, TAG_SCAN)
        combined = own if prefix is None else op.reduce_arrays(prefix.copy(), own)
        if rank < size - 1:
            self._coll_send(combined, 0, n, None, rank + 1, TAG_SCAN)
        if prefix is not None:
            flat = self._writable_flat(recvbuf)
            flat[recvoffset : recvoffset + n] = prefix

    # ==================================================================
    # Gather family

    def Gather(
        self,
        sendbuf: Any, sendoffset: int, sendcount: int, sendtype: Optional[Datatype],
        recvbuf: Any, recvoffset: int, recvcount: int, recvtype: Optional[Datatype],
        root: int,
    ) -> None:
        """Gather to *root*, rank i landing at block i."""
        self._check_live()
        self._check_rank(root)
        sendtype = self._resolve_type(sendbuf, sendtype)
        if self.rank() == root:
            recvtype = self._resolve_type(recvbuf, recvtype)
        self._collective(
            "gather", sendtype.packed_size(sendcount) * self.size(),
            sendbuf, sendoffset, sendcount, sendtype,
            recvbuf, recvoffset, recvcount, recvtype, root,
        )

    def Gatherv(
        self,
        sendbuf: Any, sendoffset: int, sendcount: int, sendtype: Optional[Datatype],
        recvbuf: Any, recvoffset: int, recvcounts: Sequence[int],
        displs: Sequence[int], recvtype: Optional[Datatype], root: int,
    ) -> None:
        """Gather with per-rank counts and displacements (in elements)."""
        self._check_live()
        self._check_rank(root)
        size, rank = self.size(), self.rank()
        sendtype = self._resolve_type(sendbuf, sendtype)
        if rank != root:
            self._coll_send(sendbuf, sendoffset, sendcount, sendtype, root, TAG_GATHER)
            return
        if len(recvcounts) != size or len(displs) != size:
            raise MPIException("recvcounts/displs must have one entry per rank")
        recvtype = self._resolve_type(recvbuf, recvtype)
        requests = []
        for r in range(size):
            disp = recvoffset + displs[r] * recvtype.extent
            if r == rank:
                _local_copy(sendbuf, sendoffset, sendcount, sendtype,
                            recvbuf, disp, recvcounts[r], recvtype, self._pool)
            else:
                requests.append(
                    self._coll_irecv(recvbuf, disp, recvcounts[r], recvtype, r, TAG_GATHER)
                )
        for req in requests:
            req.wait()

    def Scatter(
        self,
        sendbuf: Any, sendoffset: int, sendcount: int, sendtype: Optional[Datatype],
        recvbuf: Any, recvoffset: int, recvcount: int, recvtype: Optional[Datatype],
        root: int,
    ) -> None:
        """Scatter from *root*, block i going to rank i."""
        self._check_live()
        self._check_rank(root)
        recvtype = self._resolve_type(recvbuf, recvtype)
        if self.rank() == root:
            sendtype = self._resolve_type(sendbuf, sendtype)
        self._collective(
            "scatter", recvtype.packed_size(recvcount) * self.size(),
            sendbuf, sendoffset, sendcount, sendtype,
            recvbuf, recvoffset, recvcount, recvtype, root,
        )

    def Scatterv(
        self,
        sendbuf: Any, sendoffset: int, sendcounts: Sequence[int],
        displs: Sequence[int], sendtype: Optional[Datatype],
        recvbuf: Any, recvoffset: int, recvcount: int, recvtype: Optional[Datatype],
        root: int,
    ) -> None:
        """Scatter with per-rank counts and displacements."""
        self._check_live()
        self._check_rank(root)
        size, rank = self.size(), self.rank()
        recvtype = self._resolve_type(recvbuf, recvtype)
        if rank != root:
            self._coll_recv(recvbuf, recvoffset, recvcount, recvtype, root, TAG_SCATTER)
            return
        if len(sendcounts) != size or len(displs) != size:
            raise MPIException("sendcounts/displs must have one entry per rank")
        sendtype = self._resolve_type(sendbuf, sendtype)
        requests = []
        for r in range(size):
            disp = sendoffset + displs[r] * sendtype.extent
            if r == rank:
                _local_copy(sendbuf, disp, sendcounts[r], sendtype,
                            recvbuf, recvoffset, recvcount, recvtype, self._pool)
            else:
                requests.append(
                    self._coll_isend(sendbuf, disp, sendcounts[r], sendtype, r, TAG_SCATTER)
                )
        for req in requests:
            req.wait()

    def Allgather(
        self,
        sendbuf: Any, sendoffset: int, sendcount: int, sendtype: Optional[Datatype],
        recvbuf: Any, recvoffset: int, recvcount: int, recvtype: Optional[Datatype],
    ) -> None:
        """Gather every rank's block everywhere (algorithm selected per call)."""
        self._check_live()
        sendtype = self._resolve_type(sendbuf, sendtype)
        recvtype = self._resolve_type(recvbuf, recvtype)
        self._collective(
            "allgather", sendtype.packed_size(sendcount) * self.size(),
            sendbuf, sendoffset, sendcount, sendtype,
            recvbuf, recvoffset, recvcount, recvtype,
        )

    def Allgatherv(
        self,
        sendbuf: Any, sendoffset: int, sendcount: int, sendtype: Optional[Datatype],
        recvbuf: Any, recvoffset: int, recvcounts: Sequence[int],
        displs: Sequence[int], recvtype: Optional[Datatype],
    ) -> None:
        """Allgather with per-rank counts and displacements."""
        self._check_live()
        self._check_vector_args(recvcounts, displs)
        sendtype = self._resolve_type(sendbuf, sendtype)
        recvtype = self._resolve_type(recvbuf, recvtype)
        self._collective(
            "allgatherv", recvtype.packed_size(int(sum(recvcounts))),
            sendbuf, sendoffset, sendcount, sendtype,
            recvbuf, recvoffset, recvcounts, displs, recvtype,
        )

    def Alltoall(
        self,
        sendbuf: Any, sendoffset: int, sendcount: int, sendtype: Optional[Datatype],
        recvbuf: Any, recvoffset: int, recvcount: int, recvtype: Optional[Datatype],
    ) -> None:
        """Pairwise exchange: every rank sends block j to rank j."""
        self._check_live()
        sendtype = self._resolve_type(sendbuf, sendtype)
        self._observe_collective("alltoall", sendtype.packed_size(sendcount))
        size = self.size()
        self.Alltoallv(
            sendbuf, sendoffset, [sendcount] * size,
            [r * sendcount for r in range(size)], sendtype,
            recvbuf, recvoffset, [recvcount] * size,
            [r * recvcount for r in range(size)], recvtype,
        )

    def Alltoallv(
        self,
        sendbuf: Any, sendoffset: int, sendcounts: Sequence[int],
        sdispls: Sequence[int], sendtype: Optional[Datatype],
        recvbuf: Any, recvoffset: int, recvcounts: Sequence[int],
        rdispls: Sequence[int], recvtype: Optional[Datatype],
    ) -> None:
        """Alltoall with per-peer counts and displacements."""
        self._check_live()
        size, rank = self.size(), self.rank()
        if not (len(sendcounts) == len(sdispls) == len(recvcounts) == len(rdispls) == size):
            raise MPIException("alltoallv count/displacement arrays must match size")
        sendtype = self._resolve_type(sendbuf, sendtype)
        recvtype = self._resolve_type(recvbuf, recvtype)
        requests = []
        for r in range(size):
            recv_disp = recvoffset + rdispls[r] * recvtype.extent
            send_disp = sendoffset + sdispls[r] * sendtype.extent
            if r == rank:
                _local_copy(sendbuf, send_disp, sendcounts[r], sendtype,
                            recvbuf, recv_disp, recvcounts[r], recvtype, self._pool)
                continue
            requests.append(
                self._coll_irecv(recvbuf, recv_disp, recvcounts[r], recvtype, r, TAG_ALLTOALL)
            )
            requests.append(
                self._coll_isend(sendbuf, send_disp, sendcounts[r], sendtype, r, TAG_ALLTOALL)
            )
        for req in requests:
            req.wait()

    # ==================================================================
    # lowercase object collectives (mpi4py style)

    def gather(self, obj: Any, root: int = 0) -> Optional[list]:
        """Gather objects: root receives the rank-ordered list."""
        out = [None] * self.size() if self.rank() == root else None
        self.Gather([obj], 0, 1, OBJECT, out, 0, 1, OBJECT, root)
        return out

    def scatter(self, objs: Optional[Sequence[Any]] = None, root: int = 0) -> Any:
        """Scatter a sequence of objects, one per rank."""
        size = self.size()
        if self.rank() == root and (objs is None or len(objs) != size):
            raise MPIException(f"scatter needs exactly {size} items at the root")
        box = [None]
        self.Scatter(objs, 0, 1, OBJECT, box, 0, 1, OBJECT, root)
        return box[0]

    def allgather(self, obj: Any) -> list:
        """Gather objects everywhere."""
        out = [None] * self.size()
        self.Allgather([obj], 0, 1, OBJECT, out, 0, 1, OBJECT)
        return out

    def alltoall(self, objs: Sequence[Any]) -> list:
        """Each rank sends item j to rank j; receives one from each."""
        size = self.size()
        if len(objs) != size:
            raise MPIException(f"alltoall needs exactly {size} items")
        out = [None] * size
        self.Alltoall(objs, 0, 1, OBJECT, out, 0, 1, OBJECT)
        return out

    def reduce(self, obj: Any, op=None, root: int = 0) -> Any:
        """Object reduction: fold gathered values in rank order at root."""
        values = self.gather(obj, root=root)
        if values is None:
            return None
        folder = op if op is not None else (lambda a, b: a + b)
        acc = values[0]
        for value in values[1:]:
            acc = folder(acc, value)
        return acc

    def allreduce(self, obj: Any, op=None) -> Any:
        """Object reduction everywhere."""
        return self.bcast(self.reduce(obj, op=op, root=0), root=0)

    def scan(self, obj: Any, op=None) -> Any:
        """Inclusive object prefix reduction in rank order."""
        self._check_live()
        size, rank = self.size(), self.rank()
        folder = op if op is not None else (lambda a, b: a + b)
        acc = obj
        if rank > 0:
            box = [None]
            self._coll_recv(box, 0, 1, OBJECT, rank - 1, TAG_SCAN)
            acc = folder(box[0], obj)
        if rank < size - 1:
            self._coll_send([acc], 0, 1, OBJECT, rank + 1, TAG_SCAN)
        return acc

