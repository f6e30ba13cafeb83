"""Collective algorithms: one registry per tunable collective.

The high level of MPJ Express implements its collectives in pure Java
over point-to-point; production MPI libraries ship *several* algorithms
per collective and pick by message size and process count.  Every
algorithm lives here, the built-in defaults included, so the choice can
be ablated (``benchmarks/test_ablation_collectives.py``), tuned offline
(``python -m repro.bench tune-coll``) and selected automatically per
call (:mod:`repro.mpi.tuning`):

==============  ===========================  =================================
collective      default                      alternatives
==============  ===========================  =================================
Bcast           linear                       binomial tree, scatter+ring-
                                             allgather, pipelined binomial
Reduce          linear gather-fold           binomial tree,
                                             pipelined binomial
Allreduce       Reduce + Bcast               recursive doubling, Rabenseifner
Allgather       gather + bcast               ring
Allgatherv      gather + bcast via rank 0    ring
Gather          linear                       binomial tree
Scatter         linear                       binomial tree
Reduce_scatter  Reduce + Scatterv            pairwise exchange
==============  ===========================  =================================

Select manually with ``comm.set_collective_algorithm("bcast", "binomial")``;
without an override the ``REPRO_COLL_TUNING`` decision table, if any,
picks by message size and communicator size, and :data:`DEFAULTS`
covers everything it does not.

Every function here takes the communicator first and speaks
rank-addressed ``_coll_send``/``_coll_recv`` on its collective context.
Each algorithm that needs special structure (primitive contiguous
datatypes, commutative or splittable operations, a minimum element
count) checks its preconditions up front and falls back to a simpler
algorithm — the checks only consult values that are identical on every
rank (count, op flags, communicator size, datatype shape), so all ranks
take the same path.  Composed algorithms run their sub-collectives
through :func:`_sub`, which selects like a user call but records no
metrics, so ``coll.*`` counters count user calls only.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.mpi.comm import (
    TAG_ALLGATHER,
    TAG_BCAST,
    TAG_GATHER,
    TAG_REDUCE,
    TAG_SCATTER,
)
from repro.mpi.datatype import _BY_DTYPE, Datatype
from repro.mpi.exceptions import MPIException

#: Pipeline segment size for the segmented tree algorithms, in bytes.
#: Chosen above the default eager threshold (128KB) so each segment
#: still travels the zero-copy rendezvous path.
SEGMENT_BYTES = 256 * 1024


def _primitive_contiguous(datatype: Datatype) -> bool:
    """True when elements are contiguous runs of a numpy base dtype."""
    return (
        datatype.base_dtype is not None
        and datatype.extent == datatype.block_count
    )


def _base_datatype(datatype: Datatype):
    """The BasicType matching *datatype*'s base dtype."""
    return _BY_DTYPE[np.dtype(datatype.base_dtype)]


def _local_copy(
    sendbuf, sendoffset, sendcount, sendtype,
    recvbuf, recvoffset, recvcount, recvtype, pool,
) -> None:
    """A rank's own block: pack/unpack through a buffer, no device trip.

    Going through the pack/unpack machinery (rather than a numpy slice
    copy) keeps derived-datatype semantics identical for the local and
    remote paths.
    """
    if sendcount == 0:
        return
    staging = pool.acquire(sendtype.packed_size(sendcount) + 64)
    try:
        sendtype.pack(staging, sendbuf, sendoffset, sendcount)
        staging.commit()
        recvtype.unpack(staging, recvbuf, recvoffset, recvcount)
    finally:
        staging.free()


def _sub(comm, collective: str, nbytes: int, *args) -> None:
    """Run a composed algorithm's sub-collective.

    Selected exactly like a user call of the same size, but not
    observed: the enclosing user call already counted itself.
    """
    _name, fn = comm._select_algorithm(collective, nbytes)
    fn(comm, *args)


def _binomial_tree(relrank: int, size: int) -> tuple[Optional[int], list[int]]:
    """Parent and children of *relrank* in the binomial tree rooted at 0.

    Children come in descending-subtree-size order, the send order of
    :func:`bcast_binomial`.
    """
    parent = None
    mask = 1
    while mask < size:
        if relrank & mask:
            parent = relrank - mask
            break
        mask <<= 1
    children = []
    m = mask >> 1
    while m > 0:
        if relrank + m < size:
            children.append(relrank + m)
        m >>= 1
    return parent, children


def _op_splits(op) -> bool:
    """Whether vector-splitting algorithms may partition operands."""
    return op.commute and getattr(op, "splits", True)


def _flat_or_none(buf, offset: int, n: int, datatype: Datatype):
    """A direct flat base-element view of *buf*, or None.

    None means the operand must be staged through pack/unpack: the
    datatype is derived with gaps, the buffer is not a C-contiguous
    ndarray (``reshape(-1)`` would silently copy), the dtype does not
    match the datatype's base, or the window is out of bounds.
    """
    if not _primitive_contiguous(datatype):
        return None
    if not isinstance(buf, np.ndarray) or not buf.flags.c_contiguous:
        return None
    base_np = np.dtype(datatype.base_dtype)
    flat = buf.reshape(-1)
    if flat.dtype != base_np and not (
        flat.dtype.kind in "iu"
        and base_np.kind in "iu"
        and flat.dtype.itemsize == base_np.itemsize
    ):
        return None
    if offset < 0 or offset + n > flat.size:
        return None
    return flat


def _load_vector(comm, buf, offset: int, count: int, datatype: Datatype, *, load: bool):
    """Present an operand as flat base elements: ``(arr, base0, staged)``.

    Returns a direct view when the buffer allows it (``staged`` False,
    ``base0`` = *offset*); otherwise a fresh staging array — packed
    from the user buffer when *load* — with ``base0`` 0.  Whether a
    rank stages is a local matter: both presentations send and receive
    identical wire traffic, so ranks never need to agree on it.
    """
    n = count * datatype.block_count
    flat = _flat_or_none(buf, offset, n, datatype)
    if flat is not None:
        return flat, offset, False
    stage = np.empty(n, dtype=datatype.base_dtype)
    if load and n:
        _local_copy(
            buf, offset, count, datatype,
            stage, 0, n, _base_datatype(datatype), comm._pool,
        )
    return stage, 0, True


def _store_vector(comm, arr, buf, offset: int, count: int, datatype: Datatype) -> None:
    """Unpack a staged result back into the user buffer."""
    n = count * datatype.block_count
    if n:
        _local_copy(
            arr, 0, n, _base_datatype(datatype),
            buf, offset, count, datatype, comm._pool,
        )


# ----------------------------------------------------------------------
# Bcast variants


def bcast_binomial(comm, buf: Any, offset: int, count: int, datatype: Datatype, root: int) -> None:
    """Binomial tree: ceil(log2 p) rounds, each holder forwarding once
    per round to the root of a subtree."""
    rank, size = comm.rank(), comm.size()
    if size == 1 or count == 0:
        return
    parent, children = _binomial_tree((rank - root) % size, size)
    if parent is not None:
        comm._coll_recv(buf, offset, count, datatype, (parent + root) % size, TAG_BCAST)
    for child in children:
        comm._coll_send(buf, offset, count, datatype, (child + root) % size, TAG_BCAST)


def bcast_linear(comm, buf: Any, offset: int, count: int, datatype: Datatype, root: int) -> None:
    """Root sends to everyone: p-1 serial messages (the naive tree)."""
    rank, size = comm.rank(), comm.size()
    if rank == root:
        requests = [
            comm._coll_isend(buf, offset, count, datatype, r, TAG_BCAST)
            for r in range(size)
            if r != root
        ]
        for req in requests:
            req.wait()
    else:
        comm._coll_recv(buf, offset, count, datatype, root, TAG_BCAST)


def bcast_scatter_allgather(
    comm, buf: Any, offset: int, count: int, datatype: Datatype, root: int
) -> None:
    """Van de Geijn broadcast: scatter segments, then ring allgather.

    Bandwidth-optimal for large messages (each byte crosses each link
    ~2x instead of log2(p)x).  Requires a primitive-based contiguous
    datatype; falls back to the binomial tree otherwise or when the
    message is smaller than one element per rank.
    """
    rank, size = comm.rank(), comm.size()
    base_count = (
        count * datatype.block_count if datatype.base_dtype is not None else 0
    )
    if size == 1 or base_count < size:
        bcast_binomial(comm, buf, offset, count, datatype, root)
        return

    flat, base0, staged = _load_vector(
        comm, buf, offset, count, datatype, load=(rank == root)
    )

    # Segment bounds in base elements (first ranks take the remainder).
    per = base_count // size
    rem = base_count % size
    counts = [per + (1 if r < rem else 0) for r in range(size)]
    displs = [sum(counts[:r]) for r in range(size)]

    base_dt = _base_datatype(datatype)

    # Phase 1: binomial-scatter from root (relative ranks).
    relrank = (rank - root) % size

    def abs_rank(rel: int) -> int:
        return (rel + root) % size

    # Each relative rank r is responsible for segment r (by relrank).
    # Standard binomial scatter: at each step, a holder passes the
    # upper half of its span to a partner.
    span = 1
    while span < size:
        span *= 2
    my_span_start, my_span_len = 0, size  # root's initial span
    if relrank != 0:
        # Receive my span from the parent.
        mask = 1
        while mask < size:
            if relrank & mask:
                parent_rel = relrank - mask
                my_span_start = relrank
                my_span_len = min(mask, size - relrank)
                seg_lo = displs[my_span_start]
                seg_len = sum(counts[my_span_start : my_span_start + my_span_len])
                comm._coll_recv(
                    flat, base0 + seg_lo, seg_len, base_dt,
                    abs_rank(parent_rel), TAG_BCAST,
                )
                break
            mask <<= 1
        mask >>= 1
    else:
        mask = span // 2
    # Send halves of my span downward.
    while mask > 0:
        child_rel = relrank + mask
        if child_rel < my_span_start + my_span_len and child_rel < size:
            child_len = min(mask, my_span_start + my_span_len - child_rel)
            seg_lo = displs[child_rel]
            seg_len = sum(counts[child_rel : child_rel + child_len])
            if seg_len:
                comm._coll_send(
                    flat, base0 + seg_lo, seg_len, base_dt,
                    abs_rank(child_rel), TAG_BCAST,
                )
            my_span_len = child_rel - my_span_start
        mask >>= 1

    # Phase 2: ring allgather of the segments (by relative rank).
    right = abs_rank((relrank + 1) % size)
    left = abs_rank((relrank - 1) % size)
    for step in range(size - 1):
        send_seg = (relrank - step) % size
        recv_seg = (relrank - step - 1) % size
        rreq = comm._coll_irecv(
            flat, base0 + displs[recv_seg], counts[recv_seg], base_dt,
            left, TAG_ALLGATHER,
        )
        sreq = comm._coll_isend(
            flat, base0 + displs[send_seg], counts[send_seg], base_dt,
            right, TAG_ALLGATHER,
        )
        rreq.wait()
        sreq.wait()

    if staged and rank != root:
        _store_vector(comm, flat, buf, offset, count, datatype)


def bcast_binomial_pipelined(
    comm, buf: Any, offset: int, count: int, datatype: Datatype, root: int
) -> None:
    """Segmented binomial broadcast: overlap the tree levels.

    The message is cut into :data:`SEGMENT_BYTES` segments; an interior
    node forwards segment *k* to its children while segment *k+1* is
    still arriving from its parent, so deep trees stream instead of
    store-and-forwarding whole messages.  Falls back to the plain
    binomial tree for non-primitive datatypes or single-segment
    messages.
    """
    rank, size = comm.rank(), comm.size()
    if size == 1 or count == 0:
        return
    if datatype.base_dtype is None:
        bcast_binomial(comm, buf, offset, count, datatype, root)
        return
    n = count * datatype.block_count
    seg = max(1, SEGMENT_BYTES // np.dtype(datatype.base_dtype).itemsize)
    if n <= seg:
        bcast_binomial(comm, buf, offset, count, datatype, root)
        return
    base_dt = _base_datatype(datatype)
    flat, base0, staged = _load_vector(
        comm, buf, offset, count, datatype, load=(rank == root)
    )
    segs = [(base0 + a, min(seg, n - a)) for a in range(0, n, seg)]

    relrank = (rank - root) % size
    parent_rel, children_rel = _binomial_tree(relrank, size)
    children = [(c + root) % size for c in children_rel]

    sreqs = []
    if parent_rel is None:
        for a, ln in segs:
            for child in children:
                sreqs.append(comm._coll_isend(flat, a, ln, base_dt, child, TAG_BCAST))
    else:
        parent = (parent_rel + root) % size
        # Pre-post every segment receive: arrivals match in post order,
        # and the rendezvous handshakes overlap across segments.
        rreqs = [
            comm._coll_irecv(flat, a, ln, base_dt, parent, TAG_BCAST)
            for a, ln in segs
        ]
        for i, (a, ln) in enumerate(segs):
            rreqs[i].wait()
            for child in children:
                sreqs.append(comm._coll_isend(flat, a, ln, base_dt, child, TAG_BCAST))
    for req in sreqs:
        req.wait()
    if staged and rank != root:
        _store_vector(comm, flat, buf, offset, count, datatype)


# ----------------------------------------------------------------------
# Reduce variants


def reduce_linear(
    comm, sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op, root
) -> None:
    """Everyone sends to root; root folds in rank order.

    Correct for non-commutative operations; p-1 messages into one node.
    Root keeps a small window of receives in flight and recycles their
    staging buffers as each contribution is folded: the rendezvous
    handshakes overlap each other instead of serializing behind the
    folds, while memory stays bounded at the window size rather than
    growing with p.
    """
    rank, size = comm.rank(), comm.size()
    if rank != root:
        # Senders never fold, so they need no private accumulator:
        # ship a direct view of the user's buffer when the layout
        # allows (the zero-copy window path aliases it on the wire;
        # the blocking send completes before the call returns).
        flat = None
        if datatype.base_dtype is not None:
            n = count * datatype.block_count
            flat = _flat_or_none(sendbuf, sendoffset, n, datatype)
            # The root folds in the base dtype; a reinterpreting view
            # (same-width signed/unsigned aliasing) must not reach it.
            if flat is not None and flat.dtype != np.dtype(datatype.base_dtype):
                flat = None
        if flat is not None:
            comm._coll_send(flat, sendoffset, n, None, root, TAG_REDUCE)
        else:
            acc = comm._reduce_local(sendbuf, sendoffset, count, datatype)
            comm._coll_send(acc, 0, acc.size, None, root, TAG_REDUCE)
        return
    acc = comm._reduce_local(sendbuf, sendoffset, count, datatype)
    n = acc.size
    others = [r for r in range(size) if r != rank]
    window = min(4, len(others))
    pending: dict[int, tuple[Any, np.ndarray]] = {}
    for r in others[:window]:
        tmp = np.empty_like(acc)
        pending[r] = (comm._coll_irecv(tmp, 0, n, None, r, TAG_REDUCE), tmp)
    next_post = window
    result = None
    for r in range(size):
        if r == rank:
            part = acc
        else:
            req, tmp = pending.pop(r)
            req.wait()
            part = tmp
        if result is None:
            # acc is already this rank's private copy; a foreign first
            # part takes ownership of its staging buffer — both ways
            # the accumulator is private, so folds can land in place.
            result = part
            reusable = None
        else:
            result = op.reduce_into(result, part)
            # Recycle the folded-in staging buffer — unless a custom
            # op returned something aliasing it.
            reusable = (
                None
                if part is acc or np.shares_memory(result, part)
                else part
            )
        if r != rank and next_post < len(others):
            tmp = reusable if reusable is not None else np.empty_like(acc)
            nr = others[next_post]
            pending[nr] = (comm._coll_irecv(tmp, 0, n, None, nr, TAG_REDUCE), tmp)
            next_post += 1
    flat = comm._writable_flat(recvbuf)
    flat[recvoffset : recvoffset + n] = result


def reduce_binomial(
    comm, sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op, root
) -> None:
    """Binomial combine toward the root: ceil(log2 p) rounds.

    Needs a commutative op, because subtrees fold out of rank order;
    falls back to the rank-order :func:`reduce_linear` otherwise.
    """
    rank, size = comm.rank(), comm.size()
    if size == 1 or not op.commute:
        reduce_linear(
            comm, sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op, root
        )
        return
    acc = comm._reduce_local(sendbuf, sendoffset, count, datatype)
    n = acc.size
    parent, children = _binomial_tree((rank - root) % size, size)
    tmp = np.empty_like(acc)
    for child in reversed(children):  # smallest subtree first
        comm._coll_recv(tmp, 0, n, None, (child + root) % size, TAG_REDUCE)
        acc = op.reduce_arrays(acc, tmp)
    if parent is not None:
        comm._coll_send(acc, 0, n, None, (parent + root) % size, TAG_REDUCE)
        return
    flat = comm._writable_flat(recvbuf)
    flat[recvoffset : recvoffset + n] = acc


def reduce_binomial_pipelined(
    comm, sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op, root
) -> None:
    """Segmented binomial reduce: fold and forward segment by segment.

    Mirrors :func:`bcast_binomial_pipelined` with data flowing toward
    the root: each interior node folds its children's segment *k* into
    its accumulator and ships it to its parent while segment *k+1* is
    still in flight.  Needs a commutative, splittable op and a
    primitive contiguous datatype; falls back to :func:`reduce_binomial`
    otherwise.
    """
    rank, size = comm.rank(), comm.size()
    if (
        size == 1
        or not _op_splits(op)
        or not _primitive_contiguous(datatype)
    ):
        reduce_binomial(
            comm, sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op, root
        )
        return
    acc = comm._reduce_local(sendbuf, sendoffset, count, datatype)
    n = acc.size
    seg = max(1, SEGMENT_BYTES // acc.dtype.itemsize)
    if n <= seg:
        reduce_binomial(
            comm, sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op, root
        )
        return
    segs = [(a, min(seg, n - a)) for a in range(0, n, seg)]

    relrank = (rank - root) % size
    parent_rel, children_rel = _binomial_tree(relrank, size)
    parent = None if parent_rel is None else (parent_rel + root) % size
    children = [(c + root) % size for c in children_rel]

    tmps = {c: np.empty_like(acc) for c in children}
    rreqs = {
        c: [comm._coll_irecv(tmps[c], a, ln, None, c, TAG_REDUCE) for a, ln in segs]
        for c in children
    }
    sreqs = []
    for i, (a, ln) in enumerate(segs):
        for c in children:
            rreqs[c][i].wait()
            seg = acc[a : a + ln]
            out = op.reduce_into(seg, tmps[c][a : a + ln])
            if out is not seg:
                seg[:] = out
        if parent is not None:
            sreqs.append(comm._coll_isend(acc, a, ln, None, parent, TAG_REDUCE))
    for req in sreqs:
        req.wait()
    if parent is None:
        flat = comm._writable_flat(recvbuf)
        flat[recvoffset : recvoffset + n] = acc


# ----------------------------------------------------------------------
# Allreduce variants


def allreduce_reduce_bcast(
    comm, sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op
) -> None:
    """Reduce to rank 0, then Bcast the result; each sub-collective
    picks its own algorithm for the same message size."""
    nbytes = datatype.packed_size(count)
    _sub(comm, "reduce", nbytes,
         sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op, 0)
    _sub(comm, "bcast", nbytes, recvbuf, recvoffset, count, datatype, 0)


def allreduce_recursive_doubling(
    comm, sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op
) -> None:
    """Recursive doubling: log2(p) exchange rounds, everyone finishes
    together.  Requires a commutative op (falls back otherwise)."""
    rank, size = comm.rank(), comm.size()
    if not op.commute:
        allreduce_reduce_bcast(
            comm, sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op
        )
        return
    acc = comm._reduce_local(sendbuf, sendoffset, count, datatype)
    n = acc.size
    tmp = np.empty_like(acc)

    # Fold the non-power-of-two remainder into the lower ranks.
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    if rank < 2 * rem:
        if rank % 2 == 0:
            comm._coll_send(acc, 0, n, None, rank + 1, TAG_REDUCE)
            newrank = -1
        else:
            comm._coll_recv(tmp, 0, n, None, rank - 1, TAG_REDUCE)
            acc = op.reduce_into(acc, tmp)
            newrank = rank // 2
    else:
        newrank = rank - rem

    if newrank != -1:
        mask = 1
        while mask < pof2:
            partner_new = newrank ^ mask
            partner = (
                partner_new * 2 + 1 if partner_new < rem else partner_new + rem
            )
            rreq = comm._coll_irecv(tmp, 0, n, None, partner, TAG_REDUCE)
            sreq = comm._coll_isend(acc, 0, n, None, partner, TAG_REDUCE)
            rreq.wait()
            sreq.wait()
            acc = op.reduce_into(acc, tmp)
            mask <<= 1

    # Unfold: deliver results back to the folded-away even ranks.
    if rank < 2 * rem:
        if rank % 2 == 1:
            comm._coll_send(acc, 0, n, None, rank - 1, TAG_REDUCE)
        else:
            comm._coll_recv(acc, 0, n, None, rank + 1, TAG_REDUCE)

    flat = comm._writable_flat(recvbuf)
    flat[recvoffset : recvoffset + n] = acc


def allreduce_rabenseifner(
    comm, sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op
) -> None:
    """Rabenseifner's allreduce: recursive-halving reduce-scatter, then
    recursive-doubling allgather.

    Bandwidth-optimal for large vectors: ~2·(p-1)/p·m bytes per rank
    instead of the 2·log2(p)·m of reduce+bcast trees.  Needs a
    commutative, splittable op and at least one base element per
    power-of-two rank; falls back to recursive doubling otherwise
    (which in turn handles the non-commutative case).
    """
    rank, size = comm.rank(), comm.size()
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    base_count = (
        count * datatype.block_count if datatype.base_dtype is not None else 0
    )
    if (
        size == 1
        or pof2 < 2
        or not _op_splits(op)
        or not _primitive_contiguous(datatype)
        or base_count < pof2
    ):
        allreduce_recursive_doubling(
            comm, sendbuf, sendoffset, recvbuf, recvoffset, count, datatype, op
        )
        return

    acc = comm._reduce_local(sendbuf, sendoffset, count, datatype)
    n = acc.size
    tmp = np.empty_like(acc)

    # Fold the non-power-of-two remainder into the lower ranks (whole
    # vector, same scheme as recursive doubling).
    rem = size - pof2
    if rank < 2 * rem:
        if rank % 2 == 0:
            comm._coll_send(acc, 0, n, None, rank + 1, TAG_REDUCE)
            newrank = -1
        else:
            comm._coll_recv(tmp, 0, n, None, rank - 1, TAG_REDUCE)
            acc = op.reduce_into(acc, tmp)
            newrank = rank // 2
    else:
        newrank = rank - rem

    if newrank != -1:

        def to_rank(vr: int) -> int:
            return vr * 2 + 1 if vr < rem else vr + rem

        # Block partition of the vector across the pof2 virtual ranks.
        per, extra = divmod(n, pof2)
        bounds = [0] * (pof2 + 1)
        for i in range(pof2):
            bounds[i + 1] = bounds[i] + per + (1 if i < extra else 0)

        # Phase 1: reduce-scatter by recursive vector halving.  Each
        # round exchanges half the current window with the partner and
        # folds the received half; after log2(pof2) rounds virtual rank
        # r owns the fully reduced block r.
        lo, hi = 0, pof2
        mask = pof2 // 2
        while mask:
            mid = (lo + hi) // 2
            if newrank & mask:
                keep_lo, keep_hi, send_lo, send_hi = mid, hi, lo, mid
            else:
                keep_lo, keep_hi, send_lo, send_hi = lo, mid, mid, hi
            partner = to_rank(newrank ^ mask)
            ka, kb = bounds[keep_lo], bounds[keep_hi]
            sa, sb = bounds[send_lo], bounds[send_hi]
            rreq = comm._coll_irecv(tmp, ka, kb - ka, None, partner, TAG_REDUCE)
            sreq = comm._coll_isend(acc, sa, sb - sa, None, partner, TAG_REDUCE)
            rreq.wait()
            sreq.wait()
            seg = acc[ka:kb]
            out = op.reduce_into(seg, tmp[ka:kb])
            if out is not seg:
                seg[:] = out
            lo, hi = keep_lo, keep_hi
            mask //= 2

        # Phase 2: allgather the blocks by recursive doubling over
        # growing windows (the exact mirror of phase 1).
        mask = 1
        while mask < pof2:
            partner = to_rank(newrank ^ mask)
            my_blo = (newrank // mask) * mask
            pa_blo = my_blo ^ mask
            ma, mb = bounds[my_blo], bounds[my_blo + mask]
            pa, pb = bounds[pa_blo], bounds[pa_blo + mask]
            rreq = comm._coll_irecv(acc, pa, pb - pa, None, partner, TAG_ALLGATHER)
            sreq = comm._coll_isend(acc, ma, mb - ma, None, partner, TAG_ALLGATHER)
            rreq.wait()
            sreq.wait()
            mask <<= 1

    # Unfold: deliver results back to the folded-away even ranks.
    if rank < 2 * rem:
        if rank % 2 == 1:
            comm._coll_send(acc, 0, n, None, rank - 1, TAG_REDUCE)
        else:
            comm._coll_recv(acc, 0, n, None, rank + 1, TAG_REDUCE)

    flat = comm._writable_flat(recvbuf)
    flat[recvoffset : recvoffset + n] = acc


# ----------------------------------------------------------------------
# Allgather / Allgatherv variants


def allgather_gather_bcast(
    comm, sendbuf, sendoffset, sendcount, sendtype,
    recvbuf, recvoffset, recvcount, recvtype,
) -> None:
    """Gather to rank 0, then broadcast the assembled array."""
    size = comm.size()
    _sub(comm, "gather", sendtype.packed_size(sendcount) * size,
         sendbuf, sendoffset, sendcount, sendtype,
         recvbuf, recvoffset, recvcount, recvtype, 0)
    _sub(comm, "bcast", recvtype.packed_size(size * recvcount),
         recvbuf, recvoffset, size * recvcount, recvtype, 0)


def allgather_ring(
    comm, sendbuf, sendoffset, sendcount, sendtype,
    recvbuf, recvoffset, recvcount, recvtype,
) -> None:
    """Ring allgather: p-1 steps, each forwarding one block."""
    rank, size = comm.rank(), comm.size()
    block = recvcount * recvtype.extent
    _local_copy(sendbuf, sendoffset, sendcount, sendtype,
                recvbuf, recvoffset + rank * block, recvcount, recvtype, comm._pool)
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        send_block = (rank - step) % size
        recv_block = (rank - step - 1) % size
        rreq = comm._coll_irecv(recvbuf, recvoffset + recv_block * block,
                                recvcount, recvtype, left, TAG_ALLGATHER)
        sreq = comm._coll_isend(recvbuf, recvoffset + send_block * block,
                                recvcount, recvtype, right, TAG_ALLGATHER)
        rreq.wait()
        sreq.wait()


def allgatherv_gather_bcast(
    comm, sendbuf, sendoffset, sendcount, sendtype,
    recvbuf, recvoffset, recvcounts, displs, recvtype,
) -> None:
    """Gatherv to rank 0, then Bcast of the assembled span."""
    comm.Gatherv(sendbuf, sendoffset, sendcount, sendtype,
                 recvbuf, recvoffset, recvcounts, displs, recvtype, 0)
    span = int(max((d + c for d, c in zip(displs, recvcounts)), default=0))
    _sub(comm, "bcast", recvtype.packed_size(span),
         recvbuf, recvoffset, span, recvtype, 0)


def allgatherv_ring(
    comm, sendbuf, sendoffset, sendcount, sendtype,
    recvbuf, recvoffset, recvcounts, displs, recvtype,
) -> None:
    """Ring allgatherv: pass blocks around, no rank-0 bottleneck.

    p-1 steps; every byte crosses each link once, versus the default
    gatherv-to-0 + bcast which funnels the whole result through one
    rank twice.
    """
    rank, size = comm.rank(), comm.size()
    comm._check_vector_args(recvcounts, displs)
    _local_copy(
        sendbuf, sendoffset, sendcount, sendtype,
        recvbuf, recvoffset + displs[rank] * recvtype.extent,
        recvcounts[rank], recvtype, comm._pool,
    )
    if size == 1:
        return
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        send_block = (rank - step) % size
        recv_block = (rank - step - 1) % size
        rreq = comm._coll_irecv(
            recvbuf, recvoffset + displs[recv_block] * recvtype.extent,
            recvcounts[recv_block], recvtype, left, TAG_ALLGATHER,
        )
        sreq = comm._coll_isend(
            recvbuf, recvoffset + displs[send_block] * recvtype.extent,
            recvcounts[send_block], recvtype, right, TAG_ALLGATHER,
        )
        rreq.wait()
        sreq.wait()


# ----------------------------------------------------------------------
# Gather / Scatter variants


def gather_linear(
    comm, sendbuf, sendoffset, sendcount, sendtype,
    recvbuf, recvoffset, recvcount, recvtype, root,
) -> None:
    """Linear gather: every rank sends straight to the root."""
    size = comm.size()
    comm.Gatherv(sendbuf, sendoffset, sendcount, sendtype,
                 recvbuf, recvoffset, [recvcount] * size,
                 [r * recvcount for r in range(size)], recvtype, root)


def scatter_linear(
    comm, sendbuf, sendoffset, sendcount, sendtype,
    recvbuf, recvoffset, recvcount, recvtype, root,
) -> None:
    """Linear scatter: the root sends straight to every rank."""
    size = comm.size()
    comm.Scatterv(sendbuf, sendoffset, [sendcount] * size,
                  [r * sendcount for r in range(size)], sendtype,
                  recvbuf, recvoffset, recvcount, recvtype, root)


def gather_binomial(
    comm, sendbuf, sendoffset, sendcount, sendtype,
    recvbuf, recvoffset, recvcount, recvtype, root,
) -> None:
    """Binomial-tree gather: log2(p) rounds instead of p-1 messages
    converging on the root.

    Interior nodes accumulate their subtree's blocks in a staging
    array and forward the whole span at once.  Falls back to the
    linear gather for non-primitive block types or empty blocks.
    """
    rank, size = comm.rank(), comm.size()
    own = recvtype if rank == root else sendtype
    own_count = recvcount if rank == root else sendcount
    blk = own_count * own.block_count  # base elements per rank block
    # Rank-consistent gate: blk and the base primitive are fixed by the
    # (matching) type signatures, unlike each rank's local layout.
    if size == 1 or blk == 0 or own.base_dtype is None:
        gather_linear(
            comm, sendbuf, sendoffset, sendcount, sendtype,
            recvbuf, recvoffset, recvcount, recvtype, root,
        )
        return
    base_np = np.dtype(own.base_dtype)
    base_dt = _BY_DTYPE[base_np]
    relrank = (rank - root) % size

    # Subtree span and tree links (same shape as the binomial scatter).
    if relrank == 0:
        limit = size
        span_len = size
        parent = None
    else:
        mask = 1
        while not (relrank & mask):
            mask <<= 1
        limit = mask
        span_len = min(mask, size - relrank)
        parent = ((relrank - mask) + root) % size
    children = []  # (child_rel, span length in blocks)
    m = 1
    while m < limit and relrank + m < size:
        children.append((relrank + m, min(m, size - relrank - m)))
        m <<= 1

    if parent is not None and span_len == 1:
        # Leaf: ship the block as-is; the parent lands it with base_dt.
        comm._coll_send(sendbuf, sendoffset, sendcount, sendtype, parent, TAG_GATHER)
        return

    if parent is None:
        # Root.  Land child spans straight into recvbuf when it can be
        # viewed as flat base elements in relrank order (root == 0).
        dst = None
        if (
            root == 0
            and _primitive_contiguous(recvtype)
            and isinstance(recvbuf, np.ndarray)
            and recvbuf.flags.c_contiguous
            and recvbuf.flags.writeable
        ):
            flat = recvbuf.reshape(-1)
            if flat.dtype == base_np or (
                flat.dtype.kind in "iu"
                and base_np.kind in "iu"
                and flat.dtype.itemsize == base_np.itemsize
            ):
                dst = flat
        if dst is not None:
            rreqs = [
                comm._coll_irecv(
                    dst, recvoffset + c * blk, ln * blk, base_dt,
                    (c + root) % size, TAG_GATHER,
                )
                for c, ln in children
            ]
            _local_copy(
                sendbuf, sendoffset, sendcount, sendtype,
                recvbuf, recvoffset, recvcount, recvtype, comm._pool,
            )
            for req in rreqs:
                req.wait()
        else:
            staged = np.empty(size * blk, dtype=base_np)
            rreqs = [
                comm._coll_irecv(
                    staged, c * blk, ln * blk, base_dt,
                    (c + root) % size, TAG_GATHER,
                )
                for c, ln in children
            ]
            for req in rreqs:
                req.wait()
            for rel in range(1, size):
                r_abs = (rel + root) % size
                _local_copy(
                    staged, rel * blk, blk, base_dt,
                    recvbuf, recvoffset + r_abs * recvcount * recvtype.extent,
                    recvcount, recvtype, comm._pool,
                )
            _local_copy(
                sendbuf, sendoffset, sendcount, sendtype,
                recvbuf, recvoffset + root * recvcount * recvtype.extent,
                recvcount, recvtype, comm._pool,
            )
        return

    # Interior node: stage the subtree span, then forward it upward.
    staged = np.empty(span_len * blk, dtype=base_np)
    rreqs = [
        comm._coll_irecv(
            staged, (c - relrank) * blk, ln * blk, base_dt,
            (c + root) % size, TAG_GATHER,
        )
        for c, ln in children
    ]
    _local_copy(
        sendbuf, sendoffset, sendcount, sendtype, staged, 0, blk, base_dt, comm._pool
    )
    for req in rreqs:
        req.wait()
    comm._coll_send(staged, 0, span_len * blk, base_dt, parent, TAG_GATHER)


def scatter_binomial(
    comm, sendbuf, sendoffset, sendcount, sendtype,
    recvbuf, recvoffset, recvcount, recvtype, root,
) -> None:
    """Binomial-tree scatter: the mirror image of :func:`gather_binomial`.

    The root ships half its blocks to the farthest subtree root, which
    recursively distributes them — log2(p) rounds versus p-1 serial
    sends.  Falls back to the linear scatter for non-primitive block
    types or empty blocks.
    """
    rank, size = comm.rank(), comm.size()
    own = sendtype if rank == root else recvtype
    own_count = sendcount if rank == root else recvcount
    blk = own_count * own.block_count
    # Rank-consistent gate (see gather_binomial).
    if size == 1 or blk == 0 or own.base_dtype is None:
        scatter_linear(
            comm, sendbuf, sendoffset, sendcount, sendtype,
            recvbuf, recvoffset, recvcount, recvtype, root,
        )
        return
    base_np = np.dtype(own.base_dtype)
    base_dt = _BY_DTYPE[base_np]
    relrank = (rank - root) % size

    if relrank == 0:
        # Root: view (or stage) the blocks as flat base elements in
        # relrank order, then peel off subtree spans.
        src = None
        base0 = 0
        if (
            root == 0
            and _primitive_contiguous(sendtype)
            and isinstance(sendbuf, np.ndarray)
            and sendbuf.flags.c_contiguous
        ):
            flat = sendbuf.reshape(-1)
            if flat.dtype == base_np or (
                flat.dtype.kind in "iu"
                and base_np.kind in "iu"
                and flat.dtype.itemsize == base_np.itemsize
            ):
                src = flat
                base0 = sendoffset
        if src is None:
            src = np.empty(size * blk, dtype=base_np)
            for rel in range(1, size):
                r_abs = (rel + root) % size
                _local_copy(
                    sendbuf, sendoffset + r_abs * sendcount * sendtype.extent,
                    sendcount, sendtype, src, rel * blk, blk, base_dt, comm._pool,
                )
        span = 1
        while span < size:
            span *= 2
        span_len = size
        sreqs = []
        mask = span // 2
        while mask > 0:
            if mask < span_len:
                child_len = min(mask, size - mask)
                sreqs.append(comm._coll_isend(
                    src, base0 + mask * blk, child_len * blk, base_dt,
                    (mask + root) % size, TAG_SCATTER,
                ))
                span_len = mask
            mask >>= 1
        _local_copy(
            sendbuf, sendoffset + root * sendcount * sendtype.extent,
            sendcount, sendtype, recvbuf, recvoffset, recvcount, recvtype,
            comm._pool,
        )
        for req in sreqs:
            req.wait()
        return

    mask = 1
    while not (relrank & mask):
        mask <<= 1
    parent = ((relrank - mask) + root) % size
    span_len = min(mask, size - relrank)
    if span_len == 1:
        # Leaf: the span is exactly my block; land it as recvtype.
        comm._coll_recv(recvbuf, recvoffset, recvcount, recvtype, parent, TAG_SCATTER)
        return
    staged = np.empty(span_len * blk, dtype=base_np)
    comm._coll_recv(staged, 0, span_len * blk, base_dt, parent, TAG_SCATTER)
    sreqs = []
    m = mask >> 1
    while m > 0:
        if m < span_len:
            child_len = min(m, span_len - m)
            sreqs.append(comm._coll_isend(
                staged, m * blk, child_len * blk, base_dt,
                (relrank + m + root) % size, TAG_SCATTER,
            ))
            span_len = m
        m >>= 1
    _local_copy(staged, 0, blk, base_dt, recvbuf, recvoffset, recvcount, recvtype, comm._pool)
    for req in sreqs:
        req.wait()


# ----------------------------------------------------------------------
# Reduce_scatter variants


def reduce_scatter_reduce_scatterv(
    comm, sendbuf, sendoffset, recvbuf, recvoffset, recvcounts, datatype, op
) -> None:
    """Reduce to rank 0, then Scatterv; staging buffer at the root only."""
    rank = comm.rank()
    total = int(sum(recvcounts))
    full = (
        np.empty(total * datatype.block_count, dtype=datatype.base_dtype)
        if rank == 0
        else None
    )
    _sub(comm, "reduce", datatype.packed_size(total),
         sendbuf, sendoffset, full, 0, total, datatype, op, 0)
    displs = np.concatenate(([0], np.cumsum(recvcounts)[:-1])).astype(int)
    comm.Scatterv(
        full, 0, list(recvcounts), list(displs), datatype,
        recvbuf, recvoffset, int(recvcounts[rank]), datatype, 0,
    )


def reduce_scatter_pairwise(
    comm, sendbuf, sendoffset, recvbuf, recvoffset, recvcounts, datatype, op
) -> None:
    """Pairwise-exchange reduce-scatter.

    p-1 rounds; in round *i* each rank sends block ``rank+i`` straight
    from its send buffer to its owner and folds the matching
    contribution it receives, so only its own block ever crosses the
    wire toward it — no rank-0 funnel and no full-vector temporary.
    Needs a commutative, splittable op and a primitive contiguous
    datatype; falls back to reduce+scatterv otherwise.
    """
    rank, size = comm.rank(), comm.size()
    comm._check_vector_args(recvcounts, None)
    if size == 1 or not _op_splits(op) or not _primitive_contiguous(datatype):
        reduce_scatter_reduce_scatterv(
            comm, sendbuf, sendoffset, recvbuf, recvoffset, recvcounts, datatype, op
        )
        return
    blkc = datatype.block_count
    counts_b = [int(c) * blkc for c in recvcounts]
    displs_b = [0] * size
    for i in range(1, size):
        displs_b[i] = displs_b[i - 1] + counts_b[i - 1]

    flat = np.asarray(sendbuf).reshape(-1)
    my_n = counts_b[rank]
    acc = flat[
        sendoffset + displs_b[rank] : sendoffset + displs_b[rank] + my_n
    ].copy()
    tmp = np.empty_like(acc)
    base_dt = _base_datatype(datatype)
    for i in range(1, size):
        dst = (rank + i) % size
        src = (rank - i) % size
        rreq = comm._coll_irecv(tmp, 0, my_n, None, src, TAG_REDUCE)
        sreq = comm._coll_isend(
            flat, sendoffset + displs_b[dst], counts_b[dst], base_dt,
            dst, TAG_REDUCE,
        )
        rreq.wait()
        sreq.wait()
        if my_n:
            acc = op.reduce_into(acc, tmp)
    if my_n:
        out = comm._writable_flat(recvbuf)
        out[recvoffset : recvoffset + my_n] = acc


#: Registry: collective name -> {algorithm name -> callable}.
REGISTRY: dict[str, dict[str, Any]] = {
    "bcast": {
        "binomial": bcast_binomial,
        "linear": bcast_linear,
        "scatter_allgather": bcast_scatter_allgather,
        "binomial_pipelined": bcast_binomial_pipelined,
    },
    "reduce": {
        "binomial": reduce_binomial,
        "linear": reduce_linear,
        "binomial_pipelined": reduce_binomial_pipelined,
    },
    "allreduce": {
        "reduce_bcast": allreduce_reduce_bcast,
        "recursive_doubling": allreduce_recursive_doubling,
        "rabenseifner": allreduce_rabenseifner,
    },
    "allgather": {
        "ring": allgather_ring,
        "gather_bcast": allgather_gather_bcast,
    },
    "allgatherv": {
        "gather_bcast": allgatherv_gather_bcast,
        "ring": allgatherv_ring,
    },
    "gather": {
        "linear": gather_linear,
        "binomial": gather_binomial,
    },
    "scatter": {
        "linear": scatter_linear,
        "binomial": scatter_binomial,
    },
    "reduce_scatter": {
        "reduce_scatterv": reduce_scatter_reduce_scatterv,
        "pairwise": reduce_scatter_pairwise,
    },
}

#: The algorithm each collective runs when neither a manual override
#: nor a ``REPRO_COLL_TUNING`` rule picks one.  Chosen from interleaved
#: smdev 8-rank sweeps (``python -m repro.bench tune-coll`` — see
#: BENCH_collectives.json): on shared memory, payload handoff is by
#: reference, so wire-bandwidth terms vanish and message count plus
#: root serialization dominate.  That inverts the textbook large-
#: message picture: the bandwidth-optimal algorithms (Rabenseifner,
#: recursive doubling, ring) trade one big transfer for many partial
#: ones, which is exactly the wrong trade when transfers are reference
#: handoffs — so flat linear trees and the composed reduce+bcast
#: (whose sub-collectives are selected the same way) win at every
#: measured size.  Re-tune for network fabrics via ``REPRO_COLL_TUNING``
#: — there the crossovers flip back toward the bandwidth-optimal
#: algorithms (the netsim models in repro.netsim.collectives show
#: where).
DEFAULTS: dict[str, str] = {
    "bcast": "linear",
    "reduce": "linear",
    "allreduce": "reduce_bcast",
    "allgather": "gather_bcast",
    "allgatherv": "gather_bcast",
    "gather": "linear",
    "scatter": "linear",
    "reduce_scatter": "reduce_scatterv",
}


def validate(collective: str, algorithm: str) -> None:
    if collective not in REGISTRY:
        raise MPIException(
            f"no algorithm choices for collective {collective!r}; "
            f"tunable: {sorted(REGISTRY)}"
        )
    if algorithm not in REGISTRY[collective]:
        raise MPIException(
            f"unknown {collective} algorithm {algorithm!r}; "
            f"known: {sorted(REGISTRY[collective])}"
        )
