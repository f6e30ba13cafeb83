"""Analytic collective-algorithm models on the simulated cluster.

The paper's testbed — StarBug, 8 dual-Xeon nodes — ran point-to-point
benchmarks only; this module extends the calibrated per-library models
to *collective* completion times, so algorithm choices (see
:mod:`repro.mpi.algorithms`) can be studied at cluster scale without
the cluster.  Every model is expressed in terms of the library's
point-to-point time ``T(m)`` over its fabric, following Hockney-style
analysis:

==========================  ===========================================
Bcast binomial              ceil(log2 p) rounds of T(m)
Bcast linear                p-1 serialized sends from the root
Bcast scatter+allgather     binomial scatter of m/p segments + ring
Bcast/Reduce pipelined      (ceil(log2 p) + nseg - 1) rounds of T(seg)
Reduce binomial             ceil(log2 p) rounds of T(m)
Reduce linear               p-1 serialized receives into the root
Allreduce reduce+bcast      2 x binomial tree of T(m)
Allreduce recursive dbl     ceil(log2 p) exchange rounds of T(m)
Allreduce Rabenseifner      2 x sum_k T(m / 2^k) halving exchanges
Gather/Scatter linear       p-1 serialized block transfers at the root
Gather/Scatter binomial     sum_k T(2^k blocks), k < ceil(log2 p)
Allgather ring              p-1 rounds of T(m_block)
Allgather gather+bcast      linear gather + binomial bcast of p*m_block
Allgatherv ring             p-1 rounds of T(m / p)
Allgatherv gather+bcast     linear gatherv + binomial bcast of m
Reduce_scatter via reduce   binomial reduce of T(m) + linear scatterv
Reduce_scatter pairwise     p-1 rounds of T(m / p)
Barrier dissemination       ceil(log2 p) rounds of T(0)
==========================  ===========================================

:func:`crosscheck` grades a :class:`repro.mpi.tuning.DecisionTable`
against these models cell by cell, flagging decision-table entries
whose predicted time is far off the model-optimal algorithm.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.netsim.libraries import LibraryModel


def _log2ceil(p: int) -> int:
    return max(1, math.ceil(math.log2(p))) if p > 1 else 0


def bcast_binomial_time(lib: LibraryModel, p: int, m: int) -> float:
    """Completion time of a binomial-tree broadcast."""
    return _log2ceil(p) * lib.one_way_time(m)


def bcast_linear_time(lib: LibraryModel, p: int, m: int) -> float:
    """Root sends p-1 serialized messages; the last arrival finishes.

    Each send occupies the root's CPU (overhead + packing) AND the
    root's network link (wire serialization) before the next can go
    out; the final message then completes end-to-end.
    """
    if p == 1:
        return 0.0
    occupancy = (
        lib.overhead_send_s
        + lib.copy_time(m) / 2
        + m / lib.fabric.effective_bandwidth_Bps
    )
    return (p - 2) * occupancy + lib.one_way_time(m)


def bcast_scatter_allgather_time(lib: LibraryModel, p: int, m: int) -> float:
    """Van de Geijn: binomial scatter of halves + ring allgather."""
    if p == 1:
        return 0.0
    seg = max(m // p, 1)
    # Scatter: log2(p) rounds, round k moves m/2^(k+1).
    scatter = 0.0
    piece = m / 2
    for _ in range(_log2ceil(p)):
        scatter += lib.one_way_time(int(max(piece, 1)))
        piece /= 2
    allgather = (p - 1) * lib.one_way_time(seg)
    return scatter + allgather


def _pipelined_tree_time(lib: LibraryModel, p: int, m: int) -> float:
    """Segmented binomial tree: the pipe fills in log2(p) rounds, then
    streams the remaining segments behind the first."""
    if p == 1:
        return 0.0
    from repro.mpi.algorithms import SEGMENT_BYTES

    nseg = max(1, math.ceil(m / SEGMENT_BYTES))
    seg = min(m, SEGMENT_BYTES)
    return (_log2ceil(p) + nseg - 1) * lib.one_way_time(int(seg))


def bcast_binomial_pipelined_time(lib: LibraryModel, p: int, m: int) -> float:
    return _pipelined_tree_time(lib, p, m)


def reduce_binomial_time(lib: LibraryModel, p: int, m: int) -> float:
    """Binomial combine toward the root (ignores fold compute)."""
    return _log2ceil(p) * lib.one_way_time(m)


def reduce_linear_time(lib: LibraryModel, p: int, m: int) -> float:
    """p-1 serialized arrivals at the root (mirror of bcast linear)."""
    return bcast_linear_time(lib, p, m)


def reduce_binomial_pipelined_time(lib: LibraryModel, p: int, m: int) -> float:
    return _pipelined_tree_time(lib, p, m)


def allreduce_reduce_bcast_time(lib: LibraryModel, p: int, m: int) -> float:
    return 2 * _log2ceil(p) * lib.one_way_time(m)


def allreduce_recursive_doubling_time(lib: LibraryModel, p: int, m: int) -> float:
    return _log2ceil(p) * lib.one_way_time(m)


def allreduce_rabenseifner_time(lib: LibraryModel, p: int, m: int) -> float:
    """Recursive-halving reduce-scatter + recursive-doubling allgather:
    each phase exchanges m/2, m/4, ... — 2(p-1)/p * m bytes total."""
    if p == 1:
        return 0.0
    halving = sum(
        lib.one_way_time(int(max(m / (1 << (k + 1)), 1)))
        for k in range(_log2ceil(p))
    )
    return 2 * halving


def gather_linear_time(lib: LibraryModel, p: int, m: int) -> float:
    """p-1 serialized block transfers bottlenecked at the root
    (*m* is the total payload; each block is m/p)."""
    if p == 1:
        return 0.0
    block = max(m // p, 1)
    occupancy = (
        lib.overhead_send_s
        + lib.copy_time(block) / 2
        + block / lib.fabric.effective_bandwidth_Bps
    )
    return (p - 2) * occupancy + lib.one_way_time(block)


def gather_binomial_time(lib: LibraryModel, p: int, m: int) -> float:
    """log2(p) rounds; round k moves spans of 2^k blocks."""
    if p == 1:
        return 0.0
    block = max(m // p, 1)
    return sum(
        lib.one_way_time(int(min((1 << k) * block, m)))
        for k in range(_log2ceil(p))
    )


scatter_linear_time = gather_linear_time
scatter_binomial_time = gather_binomial_time


def allgather_ring_time(lib: LibraryModel, p: int, m_block: int) -> float:
    return (p - 1) * lib.one_way_time(m_block)


def allgather_gather_bcast_time(lib: LibraryModel, p: int, m_block: int) -> float:
    gather = (p - 1) * lib.one_way_time(m_block)
    return gather + bcast_binomial_time(lib, p, p * m_block)


def allgatherv_gather_bcast_time(lib: LibraryModel, p: int, m: int) -> float:
    """Linear gatherv of m/p blocks into rank 0, then a bcast of m."""
    return gather_linear_time(lib, p, m) + bcast_binomial_time(lib, p, m)


def allgatherv_ring_time(lib: LibraryModel, p: int, m: int) -> float:
    if p == 1:
        return 0.0
    return (p - 1) * lib.one_way_time(max(m // p, 1))


def reduce_scatter_reduce_scatterv_time(lib: LibraryModel, p: int, m: int) -> float:
    """Binomial reduce of the whole vector + linear scatterv of blocks."""
    return reduce_binomial_time(lib, p, m) + gather_linear_time(lib, p, m)


def reduce_scatter_pairwise_time(lib: LibraryModel, p: int, m: int) -> float:
    if p == 1:
        return 0.0
    return (p - 1) * lib.one_way_time(max(m // p, 1))


def barrier_dissemination_time(lib: LibraryModel, p: int) -> float:
    return _log2ceil(p) * lib.one_way_time(0)


#: Named model registry mirroring repro.mpi.algorithms.REGISTRY.
#: For allgather, *m* is the per-rank block; everywhere else it is the
#: total vector size in bytes (the same key the decision table uses).
MODELS: dict[str, dict[str, Callable[..., float]]] = {
    "bcast": {
        "binomial": bcast_binomial_time,
        "linear": bcast_linear_time,
        "scatter_allgather": bcast_scatter_allgather_time,
        "binomial_pipelined": bcast_binomial_pipelined_time,
    },
    "reduce": {
        "binomial": reduce_binomial_time,
        "linear": reduce_linear_time,
        "binomial_pipelined": reduce_binomial_pipelined_time,
    },
    "allreduce": {
        "reduce_bcast": allreduce_reduce_bcast_time,
        "recursive_doubling": allreduce_recursive_doubling_time,
        "rabenseifner": allreduce_rabenseifner_time,
    },
    "allgather": {
        "ring": allgather_ring_time,
        "gather_bcast": allgather_gather_bcast_time,
    },
    "allgatherv": {
        "gather_bcast": allgatherv_gather_bcast_time,
        "ring": allgatherv_ring_time,
    },
    "gather": {
        "linear": gather_linear_time,
        "binomial": gather_binomial_time,
    },
    "scatter": {
        "linear": scatter_linear_time,
        "binomial": scatter_binomial_time,
    },
    "reduce_scatter": {
        "reduce_scatterv": reduce_scatter_reduce_scatterv_time,
        "pairwise": reduce_scatter_pairwise_time,
    },
}


def compare(
    lib: LibraryModel, collective: str, p: int, m: int
) -> dict[str, float]:
    """Completion times of every algorithm for one (p, m) point."""
    return {
        name: fn(lib, p, m) for name, fn in MODELS[collective].items()
    }


def model_best(lib: LibraryModel, collective: str, p: int, m: int) -> str:
    """The analytically fastest algorithm for one (p, m) point."""
    times = compare(lib, collective, p, m)
    return min(times, key=times.get)


def crosscheck(
    lib: LibraryModel,
    table,
    cells: list[tuple[str, int, int]],
    slack: float = 2.0,
) -> list[dict]:
    """Grade a decision table against the analytic models.

    *table* is a :class:`repro.mpi.tuning.DecisionTable`; *cells* are
    ``(collective, p, m)`` points.  A cell ``agrees`` when the table's
    pick is predicted to finish within *slack* x the model-best time —
    benchmarks trump models, so disagreement is a flag to re-measure,
    not an error.
    """
    rows = []
    for collective, p, m in cells:
        times = compare(lib, collective, p, m)
        best = min(times, key=times.get)
        chosen = table.choose(collective, m, p)
        predicted = times.get(chosen)
        rows.append(
            {
                "collective": collective,
                "procs": p,
                "bytes": m,
                "chosen": chosen,
                "model_best": best,
                "chosen_time_s": predicted,
                "best_time_s": times[best],
                "agrees": (
                    predicted is not None and predicted <= slack * times[best]
                ),
            }
        )
    return rows
