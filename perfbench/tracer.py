"""Outside-in layer tracing: spans recorded around each layer's entry points.

The wrappers live here, in the benchmark, not in the program: each
target is a public entry point of one layer of the stack
(``repro.mpi`` -> ``repro.mpjdev`` -> the ``repro.xdev`` protocol engine
-> the transport), replaced at run time by a wrapper that records a
span and calls the original, and put back afterwards.

A span is ``(target, start_ns, end_ns, span_id, parent_id, op, rank)``.
The parent is the innermost open span on the same thread (a
thread-local stack), so a span's children are the calls it made into
the same or a lower layer.  Spans are kept in memory; the caller
summarises and writes them out when a job ends, never while it runs.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

#: Span kinds.  ``call`` spans do work; ``wait`` spans block until a
#: peer, a handoff or a wakeup completes a request, so their whole
#: duration is waiting (they call no wrapped child).
CALL, WAIT = "call", "wait"


@dataclass(frozen=True)
class Target:
    """One patched attribute: ``module.owner.attr`` (or ``module.attr``)."""

    layer: str
    name: str
    module: str
    owner: Optional[str]
    attr: str
    kind: str = CALL
    #: Which positional argument names the rank when the calling thread
    #: has none bound (device init runs before the rank program does).
    rank_arg: Optional[int] = None


#: The public entry points of each layer, outermost first.  Module-level
#: functions are patched in every module that binds the name a caller
#: resolves at call time (``mpi.waitany`` and ``repro.mpi.request``'s
#: own ``waitany``; mpjdev's waitany as ``repro.mpi.request`` imports it).
TARGETS: tuple[Target, ...] = (
    Target("mpi", "Comm.Send", "repro.mpi.comm", "Comm", "Send"),
    Target("mpi", "Comm.Recv", "repro.mpi.comm", "Comm", "Recv"),
    Target("mpi", "Comm.Isend", "repro.mpi.comm", "Comm", "Isend"),
    Target("mpi", "Comm.Irecv", "repro.mpi.comm", "Comm", "Irecv"),
    Target("mpi", "MPIRequest.wait", "repro.mpi.request", "MPIRequest", "wait"),
    Target("mpi", "mpi.waitany", "repro.mpi", None, "waitany"),
    Target("mpi", "mpi.waitany", "repro.mpi.request", None, "waitany"),
    Target("mpi", "mpi.waitall", "repro.mpi", None, "waitall"),
    Target("mpi", "mpi.waitall", "repro.mpi.request", None, "waitall"),
    Target("mpi", "Intracomm.Allreduce", "repro.mpi.intracomm", "Intracomm", "Allreduce"),
    Target("mpjdev", "MPJDevComm.isend", "repro.mpjdev.comm", "MPJDevComm", "isend"),
    Target("mpjdev", "MPJDevComm.irecv", "repro.mpjdev.comm", "MPJDevComm", "irecv"),
    Target("mpjdev", "Request.wait", "repro.mpjdev.request", "Request", "wait", WAIT),
    Target("mpjdev", "mpjdev.waitany", "repro.mpjdev.waitany", None, "waitany"),
    Target("mpjdev", "mpjdev.waitany", "repro.mpi.request", None, "dev_waitany"),
    Target("xdev", "ProtocolEngine.isend", "repro.xdev.protocol", "ProtocolEngine", "isend"),
    Target("xdev", "ProtocolEngine.irecv", "repro.xdev.protocol", "ProtocolEngine", "irecv"),
    Target("xdev", "ProtocolEngine.peek", "repro.xdev.protocol", "ProtocolEngine", "peek", WAIT),
    Target("transport", "SMTransport.write", "repro.xdev.smdev", "SMTransport", "write"),
    Target("transport", "NIOTransport.write", "repro.xdev.niodev", "NIOTransport", "write"),
    Target("transport", "ProcTransport.write", "repro.xdev.procdev", "ProcTransport", "write"),
    Target("runtime", "Device.init", "repro.xdev.base", "ProtocolDevice", "init", rank_arg=1),
)

LAYERS = ("mpi", "mpjdev", "xdev", "transport")

#: Targets whose span durations are kept individually (for medians);
#: the rest are only summed.
DURATION_NAMES = frozenset({"Intracomm.Allreduce", "mpjdev.waitany", "Device.init"})

#: Span files hold the spans of the first ops of a job (and those with
#: no op), at most so many, enough to inspect by hand without filling
#: the disk.
WRITE_OPS, WRITE_MAX_SPANS = 200, 20000

_MISSING = object()


class _ThreadState:
    __slots__ = ("rank", "op", "stack")

    def __init__(self) -> None:
        self.rank = -1
        self.op = -1
        self.stack: list[int] = []


class Tracer:
    """Installs the span-recording wrappers and holds the spans."""

    def __init__(self, targets: Iterable[Target] = TARGETS) -> None:
        self.targets = tuple(targets)
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: id(object) -> rank, for spans on threads the program starts
        #: (input handlers, pollers, rendezvous writers).
        self._owners: dict[int, int] = {}
        self._saved: list[tuple[Any, str, Any]] = []

    # -- thread context ------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            return state

    def bind_rank(self, rank: int) -> None:
        """Mark the calling thread as *rank*'s user thread."""
        self._state().rank = rank

    def set_op(self, op: int) -> None:
        """Tag the calling thread's following spans with op id *op*."""
        self._state().op = op

    def register(self, obj: Any, rank: int) -> None:
        """Attribute spans whose ``self`` is *obj* to *rank*."""
        self._owners[id(obj)] = rank

    # -- patching --------------------------------------------------------

    def _wrap(self, index: int, target: Target, fn: Callable) -> Callable:
        spans, ids, owners = self.spans, self._ids, self._owners
        local, new_state = self._local, self._state
        clock, rank_arg = time.perf_counter_ns, target.rank_arg

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            rank = state.rank
            if rank < 0 and args:
                if rank_arg is not None and len(args) > rank_arg:
                    rank = getattr(args[rank_arg], "rank", -1)
                else:
                    rank = owners.get(id(args[0]), -1)
            stack = state.stack
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((index, start, end, sid, parent, state.op, rank))

        return wrapper

    def install(self) -> None:
        """Replace every target with its wrapper (once; uninstall first to redo)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for index, target in enumerate(self.targets):
            module = importlib.import_module(target.module)
            holder = module if target.owner is None else getattr(module, target.owner)
            original = vars(holder).get(target.attr, _MISSING)
            current = getattr(holder, target.attr)
            self._saved.append((holder, target.attr, original))
            setattr(holder, target.attr, self._wrap(index, target, current))

    def uninstall(self) -> None:
        """Put back exactly what :meth:`install` replaced."""
        while self._saved:
            holder, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(holder, attr)
            else:
                setattr(holder, attr, original)

    def take(self) -> list[tuple]:
        """Remove and return the recorded spans."""
        spans, self.spans[:] = list(self.spans), []
        return spans


# ----------------------------------------------------------------------
# arithmetic over spans


def self_times(spans: list[tuple]) -> dict[int, int]:
    """span_id -> self time (ns): duration minus the time children cover.

    Children are spans whose parent is the span; their intervals are
    clipped to the parent's and merged, so overlapping or nested
    children are not subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _, start, end, _, parent, _, _ in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out: dict[int, int] = {}
    for _, start, end, sid, _, _, _ in spans:
        covered, cursor = 0, start
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, cursor), min(ce, end)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        out[sid] = (end - start) - covered
    return out


def summarize(
    spans: list[tuple], targets: tuple[Target, ...], rank: int
) -> dict[str, Any]:
    """Per-layer totals for one rank's spans (times in ns, raw counts).

    ``self_ns[layer]`` sums self time of the layer's ``call`` spans;
    ``wait_ns`` sums the duration of ``wait`` spans; ``calls[layer]``
    counts the layer's spans.  ``root_ns`` is the time the rank's user
    thread spent inside any traced call during an op (root spans with
    an op id): since self times partition a root span, it is the sum of
    the layer self times and waits of those ops.  ``op_root_ns`` is the
    same per op, in op order.
    """
    own = [s for s in spans if s[6] == rank]
    selfs = self_times(own)
    self_ns = {layer: 0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    wait_ns = root_ns = 0
    op_root_ns: dict[int, int] = {}
    durations: dict[str, list[int]] = {}
    for index, start, end, sid, parent, op, _ in own:
        target = targets[index]
        if target.name in DURATION_NAMES:
            durations.setdefault(target.name, []).append(end - start)
        if target.layer not in calls:
            continue
        calls[target.layer] += 1
        if target.kind == WAIT:
            wait_ns += selfs[sid]
        else:
            self_ns[target.layer] += selfs[sid]
        if op >= 0 and not parent:
            root_ns += end - start
            op_root_ns[op] = op_root_ns.get(op, 0) + end - start
    return {
        "self_ns": self_ns,
        "wait_ns": wait_ns,
        "root_ns": root_ns,
        "calls": calls,
        "op_root_ns": [op_root_ns[op] for op in sorted(op_root_ns)],
        "durations": durations,
    }


def merge_summaries(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum summaries of several jobs (durations are concatenated)."""
    out: dict[str, Any] = {
        "self_ns": {layer: 0 for layer in LAYERS},
        "calls": {layer: 0 for layer in LAYERS},
        "wait_ns": 0,
        "root_ns": 0,
        "op_root_ns": [],
        "durations": {},
    }
    for part in parts:
        for key in ("self_ns", "calls"):
            for layer, value in part[key].items():
                out[key][layer] += value
        for key in ("wait_ns", "root_ns"):
            out[key] += part[key]
        out["op_root_ns"].extend(part["op_root_ns"])
        for name, values in part["durations"].items():
            out["durations"].setdefault(name, []).extend(values)
    return out


def median_us(values: list[int]) -> float:
    """Median of nanosecond durations, in microseconds (0 if none)."""
    return statistics.median(values) / 1e3 if values else 0.0


def write_spans(path, spans: list[tuple], targets: tuple[Target, ...]) -> None:
    """Write the first spans of ops below :data:`WRITE_OPS` as JSON lines."""
    kept = [s for s in spans if s[5] < WRITE_OPS][:WRITE_MAX_SPANS]
    with open(path, "w", encoding="utf-8") as fh:
        for index, start, end, sid, parent, op, rank in kept:
            target = targets[index]
            fh.write(
                json.dumps(
                    {
                        "layer": target.layer,
                        "name": target.name,
                        "start_ns": start,
                        "end_ns": end,
                        "id": sid,
                        "parent": parent,
                        "op": op,
                        "rank": rank,
                    }
                )
                + "\n"
            )
