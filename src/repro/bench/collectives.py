"""Live collective benchmarks and the offline decision-table tuner.

Two entry points over the real device stack (not netsim):

``run_collectives_bench`` — the committed ``BENCH_collectives.json``:
for each (collective, size) cell it times the automatic selection
(:mod:`repro.mpi.tuning`) and every manual algorithm, then reports how
the auto pick compares to the best of them.  Auto runs also report the
devices' :class:`~repro.buffer.pool.CopyStats` so the zero-copy claim
for the collective datapath is checkable from the JSON alone.  (The
committed file also carries a frozen baseline column measured on the
pre-window code; this module no longer produces it.)

``tune_collectives`` — ``python -m repro.bench tune-coll``: sweeps
every algorithm across a size grid, picks the per-size winner, and
folds runs of identical winners into the threshold rules of a
``repro-coll-tuning-v1`` decision table (load it back with
``REPRO_COLL_TUNING=<file>``).

Methodology matches the ping-pong bench: per-op time is wall clock
over the iteration loop, the slowest rank's time per trial (a
collective is only done when everyone is done), best of three trials;
copy counters cover exactly the best trial's timed window, summed over
all ranks.  On top of that, every variant of a cell is timed inside
the same jobs on dup()ed communicators with interleaved trials —
variant-to-variant comparisons share thread placement, which on an
8-threads-in-one-process device matters more than anything the
algorithms do.
"""

from __future__ import annotations

import time
from typing import Any, Optional

import numpy as np

from repro.runtime.launcher import run_spmd

#: The committed bench grid: one latency-bound and one bandwidth-bound
#: cell per tunable collective family exercised by the BENCH file.
DEFAULT_SIZES = [1024, 1 << 20]
DEFAULT_COLLECTIVES = ["allreduce", "bcast", "gather", "reduce_scatter", "allgatherv"]
DEFAULT_NPROCS = 8

#: The tuner's finer size grid (crossovers live between these points).
TUNE_SIZES = [1024, 16 * 1024, 64 * 1024, 128 * 1024, 256 * 1024, 1 << 20]


def _iters_for(nbytes: int, quick: bool) -> int:
    budget = 2 << 20 if quick else 32 << 20
    iters = max(1, budget // max(nbytes, 1))
    # Small cells need long timed windows: a sub-ms op measured over a
    # few dozen iterations is thread-wake jitter, not the algorithm.
    cap = 5 if quick else (200 if nbytes <= 16384 else 50)
    return min(iters, cap)


def _make_op(comm, collective, nbytes):
    """Build the per-iteration closure for one variant's communicator."""
    from repro.mpi.op import SUM

    rank, size = comm.rank(), comm.size()
    n = max(size, nbytes // 8)
    n -= n % size  # uniform blocks for the vector collectives
    blk = n // size
    send = np.arange(n, dtype=np.float64) + rank
    recv = np.empty(n, dtype=np.float64)
    small = np.empty(blk, dtype=np.float64)
    counts = [blk] * size
    displs = [i * blk for i in range(size)]

    if collective == "allreduce":
        def op():
            comm.Allreduce(send, 0, recv, 0, n, None, SUM)
    elif collective == "bcast":
        def op():
            comm.Bcast(send, 0, n, None, 0)
    elif collective == "gather":
        def op():
            comm.Gather(send, 0, blk, None, recv, 0, blk, None, 0)
    elif collective == "reduce":
        def op():
            comm.Reduce(send, 0, recv, 0, n, None, SUM, 0)
    elif collective == "scatter":
        def op():
            comm.Scatter(send, 0, blk, None, small, 0, blk, None, 0)
    elif collective == "allgather":
        def op():
            comm.Allgather(send, 0, blk, None, recv, 0, blk, None)
    elif collective == "reduce_scatter":
        def op():
            comm.Reduce_scatter(send, 0, small, 0, counts, None, SUM)
    elif collective == "allgatherv":
        def op():
            comm.Allgatherv(send, rank * blk, blk, None, recv, 0, counts, displs, None)
    else:
        raise ValueError(f"unknown bench collective {collective!r}")
    return op


def _cell_worker(env, collective, nbytes, iters, trials, variants):
    """One rank of a timed cell; times every variant in this one job.

    *variants* is ``[(name, pins), ...]``.  Each variant gets its own
    dup()ed communicator carrying its pins, and the variants interleave
    trial-by-trial — every variant sees the same thread placement and
    the same phases of the job's lifetime, so variant-to-variant
    comparisons are tight instead of being dominated by between-job
    scheduling luck.
    """
    from repro.mpi.op import MAX

    world = env.COMM_WORLD
    ops: dict[str, Any] = {}
    for name, pins in variants:
        comm = world.dup()
        for coll, algo in (pins or {}).items():
            comm.set_collective_algorithm(coll, algo)
        ops[name] = _make_op(comm, collective, nbytes)

    for name, _pins in variants:
        ops[name]()  # warmup (protocol setup, buffer pool, caches)

    copy_stats = env.device.engine.copy_stats
    best: dict[str, float] = {}
    best_copy: dict[str, dict[str, int]] = {}
    agree = np.empty(1, dtype=np.float64)
    for trial in range(trials):
        # Rotate the variant order each trial: the first variant after a
        # barrier pays any thread-rescheduling settle cost, and with a
        # fixed order that penalty lands on one variant systematically.
        shift = trial % len(variants)
        for name, _pins in variants[shift:] + variants[:shift]:
            world.Barrier()
            copy_stats.reset()
            t0 = time.perf_counter()
            for _i in range(iters):
                ops[name]()
            elapsed = time.perf_counter() - t0
            snap = copy_stats.snapshot()
            # A collective finishes when its slowest rank does.
            world.Allreduce(np.array([elapsed]), 0, agree, 0, 1, None, MAX)
            trial_time = float(agree[0])
            if name not in best or trial_time < best[name]:
                best[name] = trial_time
                best_copy[name] = snap
    return {
        name: {"time_s": best[name] / iters, "copy_stats": best_copy[name]}
        for name, _pins in variants
    }


def measure_cell_variants(
    collective: str,
    nbytes: int,
    nprocs: int,
    variants: list[tuple[str, Optional[dict[str, str]]]],
    device: str = "smdev",
    iters: int = 20,
    trials: int = 3,
    rounds: int = 1,
) -> dict[str, dict[str, Any]]:
    """Time one cell's variants; all variants share each job.

    *trials* interleave the variants within one job; *rounds* repeats
    the whole job (fresh devices and threads).  Returns, per variant,
    the per-op time minimum over rounds, the full per-round series
    (``rounds_us``, for paired comparisons), and the copy stats of the
    best trial summed over ranks.
    """
    out: dict[str, dict[str, Any]] = {}
    for _ in range(max(1, rounds)):
        results = run_spmd(
            _cell_worker,
            nprocs,
            device=device,
            args=(collective, nbytes, iters, trials, variants),
            timeout=300.0,
        )
        for name, _pins in variants:
            time_s = max(r[name]["time_s"] for r in results)
            copy: dict[str, int] = {}
            for r in results:
                for k, v in r[name]["copy_stats"].items():
                    copy[k] = copy.get(k, 0) + v
            time_us = round(time_s * 1e6, 2)
            cell = out.setdefault(
                name, {"time_us": time_us, "copy_stats": copy, "rounds_us": []}
            )
            cell["rounds_us"].append(time_us)
            if time_us < cell["time_us"]:
                cell["time_us"] = time_us
                cell["copy_stats"] = copy
    return out


def measure_collective(
    collective: str,
    nbytes: int,
    nprocs: int,
    device: str = "smdev",
    pins: Optional[dict[str, str]] = None,
    iters: int = 20,
    trials: int = 3,
    rounds: int = 1,
) -> dict[str, Any]:
    """Time one collective configuration (single-variant convenience)."""
    cells = measure_cell_variants(
        collective,
        nbytes,
        nprocs,
        [("cell", pins)],
        device=device,
        iters=iters,
        trials=trials,
        rounds=rounds,
    )
    cell = cells["cell"]
    return {"time_us": cell["time_us"], "copy_stats": cell["copy_stats"]}


def run_collectives_bench(
    collectives: Optional[list[str]] = None,
    sizes: Optional[list[int]] = None,
    nprocs: int = DEFAULT_NPROCS,
    device: str = "smdev",
    quick: bool = False,
    progress=None,
) -> dict[str, Any]:
    """The full cell sweep, as the JSON-ready result dict.

    ``REPRO_BENCH_COLLECTIVES=allreduce,bcast`` restricts the default
    cell set (CI smoke uses this to keep the job short).
    """
    import os

    from repro.mpi import algorithms, tuning

    if collectives is None:
        env = os.environ.get("REPRO_BENCH_COLLECTIVES", "").strip()
        if env:
            collectives = [c for c in env.split(",") if c]
    collectives = collectives or list(DEFAULT_COLLECTIVES)
    sizes = sizes or list(DEFAULT_SIZES)
    out: dict[str, Any] = {
        "benchmark": "collectives",
        "generated_by": "python -m repro.bench --json --collectives",
        "methodology": (
            "per-op time = slowest rank's wall clock / iterations, best "
            "of 3 trials; all variants of a cell run inside the same "
            "jobs on dup()ed communicators, interleaved trial-by-trial "
            "(shared thread placement), over 3 rounds of fresh jobs; "
            "reported times are per-variant minima, comparison "
            "percentages are medians of round-paired ratios (pairing "
            "cancels machine-load drift between rounds).  auto = "
            "decision-table selection; manual = one algorithm "
            "pinned.  copy_stats cover the best trial's timed "
            "window, all ranks summed"
        ),
        "device": device,
        "nprocs": nprocs,
        "cells": {},
    }
    for collective in collectives:
        for nbytes in sizes:
            iters = _iters_for(nbytes, quick)
            rounds = 1 if quick else 3
            key = f"{collective}/{nbytes}"
            if progress is not None:
                progress(f"{key} ({nprocs} ranks, {device})")
            # Every variant of a cell is timed inside the same jobs on
            # dup()ed communicators, interleaved trial-by-trial (see
            # _cell_worker), so variant comparisons share thread
            # placement.
            variants: list[tuple[str, Optional[dict[str, str]]]] = [("auto", None)]
            for algo in sorted(algorithms.REGISTRY[collective]):
                variants.append((f"manual:{algo}", {collective: algo}))
            measured = measure_cell_variants(
                collective,
                nbytes,
                nprocs,
                variants,
                device=device,
                iters=iters,
                # Enough trials that the rotated order (see _cell_worker)
                # puts every variant in every position at least once.
                trials=3 if quick else max(3, len(variants)),
                rounds=rounds,
            )
            manual = {
                name.split(":", 1)[1]: cell["time_us"]
                for name, cell in measured.items()
                if name.startswith("manual:")
            }
            manual_names = [n for n, _p in variants if n.startswith("manual:")]
            # Comparison percentages are medians of ROUND-PAIRED
            # ratios: rounds are fresh jobs, and pairing within a
            # round cancels machine-load drift that min-vs-min would
            # amplify into phantom wins or losses.
            auto_rounds = measured["auto"]["rounds_us"]
            vs_best = _median(
                [
                    (auto_rounds[r] - best) / best * 100
                    for r in range(len(auto_rounds))
                    for best in [
                        min(measured[n]["rounds_us"][r] for n in manual_names)
                    ]
                ]
            )
            out["cells"][key] = {
                "auto": {
                    "algorithm": tuning.select(collective, nbytes, nprocs),
                    "time_us": measured["auto"]["time_us"],
                    "copy_stats": measured["auto"]["copy_stats"],
                },
                "manual_us": manual,
                "rounds": rounds,
                "auto_vs_best_manual_pct": round(vs_best, 1),
            }
    return out


def _median(xs: list[float]) -> float:
    s = sorted(xs)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def tune_collectives(
    collectives: Optional[list[str]] = None,
    sizes: Optional[list[int]] = None,
    nprocs: int = DEFAULT_NPROCS,
    device: str = "smdev",
    quick: bool = False,
    progress=None,
):
    """Measure every algorithm across the size grid; emit a DecisionTable.

    For each collective the per-size winners are folded into threshold
    rules: a run of sizes won by the same algorithm becomes one rule
    whose ``max_bytes`` is the geometric midpoint between the last size
    of the run and the first size of the next; the final run is
    unbounded.
    """
    from repro.mpi import algorithms
    from repro.mpi.tuning import DecisionTable, Rule

    collectives = collectives or list(DEFAULT_COLLECTIVES)
    sizes = sorted(sizes or list(TUNE_SIZES))
    tables: dict[str, list[Rule]] = {}
    measurements: dict[str, Any] = {}
    for collective in collectives:
        winners: list[tuple[int, str]] = []
        for nbytes in sizes:
            iters = _iters_for(nbytes, quick)
            if progress is not None:
                progress(f"tune {collective}/{nbytes}")
            # All candidate algorithms share each job (dup()ed comms,
            # interleaved trials) so the winner reflects the algorithm,
            # not between-job scheduling luck.
            variants = [
                (algo, {collective: algo})
                for algo in sorted(algorithms.REGISTRY[collective])
            ]
            measured = measure_cell_variants(
                collective,
                nbytes,
                nprocs,
                variants,
                device=device,
                iters=iters,
                rounds=1 if quick else 2,
            )
            times = {algo: cell["time_us"] for algo, cell in measured.items()}
            winner = min(times, key=times.get)
            winners.append((nbytes, winner))
            measurements[f"{collective}/{nbytes}"] = times
        rules: list[Rule] = []
        for i, (nbytes, winner) in enumerate(winners):
            nxt = winners[i + 1] if i + 1 < len(winners) else None
            if nxt is not None and nxt[1] == winner:
                continue  # run continues
            if nxt is None:
                rules.append(Rule(winner))
            else:
                cut = int((nbytes * nxt[0]) ** 0.5)
                rules.append(Rule(winner, max_bytes=cut))
        # Collapse a single unbounded rule naming the default: no rule
        # needed, the default already wins.
        if len(rules) == 1 and rules[0].algorithm == algorithms.DEFAULTS[collective]:
            rules = []
        tables[collective] = rules
    return DecisionTable(tables), measurements
