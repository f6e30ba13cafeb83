"""Owner-side pool of shared-memory spill segments.

Payloads too large for a ring slot — and every rendezvous payload,
which must land zero-copy in the receiver — travel out-of-band: the
sender acquires a segment here, gathers the user's buffer into it
(its one and only copy onto the "wire"), and ships the segment's
``(name, offset, length)`` handle through the ring.  When the receiver
has landed the bytes it pushes a RELEASE notice back and the segment
returns to this pool.

Pooling is what makes the steady state syscall-free: segments are
size-classed to powers of two, so a ping-pong loop reuses the same
physical pages every iteration instead of shm_open/mmap/unlink per
message.  The arena owns every segment it creates (attachers in peer
processes only ever map and close), so closing the arena — or the
owner's atexit cleanup registry — is sufficient to unlink everything.
"""

from __future__ import annotations

import threading

from repro.buffer.pool import size_class
from repro.shm.segment import NAME_PREFIX, ShmSegment

#: Segments below this round up to it; shm blocks are page-granular
#: anyway, so finer classes would just fragment the pool.
MIN_SEGMENT = 4096


class SegmentArena:
    """Size-classed pool of owned spill segments.

    ``acquire`` hands out an owned segment of at least the requested
    size (pool hit or fresh create); ``release`` accepts the segment's
    *name* — which is all a cross-process RELEASE notice carries — and
    returns it to its class's free list.  Segments in flight are
    tracked so close() can account for (and still unlink) anything a
    crashed peer never released.
    """

    def __init__(self, prefix: str = NAME_PREFIX, max_per_class: int = 4) -> None:
        self._prefix = prefix
        self._max_per_class = max_per_class
        self._lock = threading.Lock()
        self._free: dict[int, list[ShmSegment]] = {}
        self._inflight: dict[str, ShmSegment] = {}
        self._closed = False
        self.hits = 0
        self.misses = 0
        self.created = 0

    def acquire(self, nbytes: int) -> ShmSegment:
        """An owned segment with capacity >= *nbytes*."""
        if nbytes < 1:
            raise ValueError("segment size must be >= 1 byte")
        cls = size_class(max(nbytes, MIN_SEGMENT))
        with self._lock:
            if self._closed:
                raise RuntimeError("arena is closed")
            bucket = self._free.get(cls)
            if bucket:
                seg = bucket.pop()
                self.hits += 1
            else:
                seg = None
                self.misses += 1
        if seg is None:
            seg = ShmSegment.create(cls, prefix=self._prefix)
            with self._lock:
                self.created += 1
        with self._lock:
            self._inflight[seg.name] = seg
        return seg

    def release(self, name: str) -> bool:
        """Return an in-flight segment to the pool; True if it was ours.

        Unknown names are ignored (a RELEASE can arrive after close()
        already tore the arena down during an error unwind).
        """
        with self._lock:
            seg = self._inflight.pop(name, None)
            if seg is None:
                return False
            if self._closed:
                pass  # fall through to close below, outside the lock
            else:
                cls = size_class(max(seg.length, MIN_SEGMENT))
                bucket = self._free.setdefault(cls, [])
                if len(bucket) < self._max_per_class:
                    bucket.append(seg)
                    return True
        seg.close()
        return True

    def inflight_names(self) -> list[str]:
        with self._lock:
            return sorted(self._inflight)

    def close(self) -> dict[str, int]:
        """Unlink everything; returns pool/leak counts for diagnostics.

        In-flight segments are unlinked too — procdev first waits a
        bounded time for peers to release them, so what is left belongs
        to receivers that are gone or already mapped it (an unlinked
        block stays mapped in any process still reading it).  This
        guarantees no named leftovers.
        """
        with self._lock:
            if self._closed:
                return {"pooled": 0, "inflight": 0}
            self._closed = True
            pooled = [s for bucket in self._free.values() for s in bucket]
            inflight = list(self._inflight.values())
            self._free.clear()
            self._inflight.clear()
        for seg in pooled + inflight:
            seg.close()
        return {"pooled": len(pooled), "inflight": len(inflight)}

    def introspect(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "created": self.created,
                "pooled": sum(len(b) for b in self._free.values()),
                "inflight": len(self._inflight),
                "closed": self._closed,
            }
