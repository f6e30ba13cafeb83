"""Print every regenerated figure/table: ``python -m repro.bench``.

Options::

    python -m repro.bench                 # all six figures + summaries
    python -m repro.bench FIG13           # one figure
    python -m repro.bench --summaries     # latency/throughput tables only
    python -m repro.bench --json          # LIVE ping-pong over smdev/niodev
                                          # (latency, throughput, copy stats)
    python -m repro.bench --json --collectives
                                          # LIVE collective cells: auto vs
                                          # every algorithm
    python -m repro.bench tune-coll --out tuned.json
                                          # sweep algorithms, emit a
                                          # REPRO_COLL_TUNING decision table
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.figures import FIGURES
from repro.bench.report import format_figure, format_latency_table

_SUMMARY_SIZES = [1, 1024, 64 * 1024, 1 << 20, 16 << 20]


def _tune_coll(ns) -> int:
    """``python -m repro.bench tune-coll``: measure, emit a decision table."""
    import json

    from repro.bench.collectives import tune_collectives

    table, measurements = tune_collectives(
        nprocs=ns.nprocs or 8,
        device=(ns.devices.split(",")[0] if ns.devices else "smdev"),
        quick=ns.quick,
        progress=lambda msg: print(f"# {msg}", file=sys.stderr),
    )
    if ns.out:
        table.save(ns.out)
        print(f"wrote {ns.out}  (use: REPRO_COLL_TUNING={ns.out})")
    else:
        print(json.dumps(table.to_dict(), indent=2))
    print("# measured cells (us/op):", file=sys.stderr)
    for cell, times in measurements.items():
        ranked = sorted(times.items(), key=lambda kv: kv[1])
        pretty = ", ".join(f"{a}={t:.1f}" for a, t in ranked)
        print(f"#   {cell}: {pretty}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "figures", nargs="*", metavar="FIGxx",
        help="figure ids to print (default: all)",
    )
    parser.add_argument(
        "--summaries", action="store_true",
        help="print only the per-fabric latency/throughput summaries",
    )
    parser.add_argument(
        "--csv", metavar="DIR",
        help="write each figure as DIR/<FIGxx>.csv instead of printing",
    )
    parser.add_argument(
        "--plot", action="store_true",
        help="draw ASCII charts instead of tables",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="run the LIVE ping-pong bench (real devices, not netsim) "
             "and print JSON: latency, throughput, copy counters",
    )
    parser.add_argument(
        "--out", metavar="FILE",
        help="with --json: also write the JSON to FILE",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run the live bench with fewer iterations (CI smoke "
             "mode); implies --json",
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="with --json: embed FILE as the pre-change comparison",
    )
    parser.add_argument(
        "--devices", metavar="NAMES",
        help="with --json: comma-separated device list (default smdev,niodev)",
    )
    parser.add_argument(
        "--collectives", action="store_true",
        help="with --json: run the collective cells (auto vs every "
             "manual algorithm) instead of ping-pong",
    )
    parser.add_argument(
        "--nprocs", type=int, default=None,
        help="communicator size for collective cells / tune-coll (default 8)",
    )
    parser.add_argument(
        "--threads", action="store_true",
        help="run the many-thread message-rate bench (endpoint-sharded vs "
             "single-endpoint engine) and print JSON; honors --quick/--out",
    )
    parser.add_argument(
        "--scaleout", action="store_true",
        help="run the thousand-rank niodev scale-out bench (barrier + "
             "allgatherv at 128..1024 thread-ranks; connection-count and "
             "FD columns) and print JSON; honors --quick/--out",
    )
    parser.add_argument(
        "--sizes", metavar="N,N,...",
        help="with --scaleout: comma-separated rank counts to sweep",
    )
    parser.add_argument(
        "--procdev", action="store_true",
        help="run the cross-process procdev bench (ranks as OS processes "
             "over shared-memory rings, vs the same workload on smdev "
             "threads) and print JSON; honors --quick/--out",
    )
    ns = parser.parse_args(argv)

    if ns.figures and ns.figures[0] == "tune-coll":
        return _tune_coll(ns)

    if ns.scaleout:
        import json
        from pathlib import Path

        from repro.bench.scaleout import run_scaleout_bench

        result = run_scaleout_bench(
            quick=ns.quick,
            sizes=(
                [int(s) for s in ns.sizes.split(",")] if ns.sizes else None
            ),
            progress=lambda msg: print(f"# {msg}", file=sys.stderr),
        )
        text = json.dumps(result, indent=1)
        print(text)
        if ns.out:
            Path(ns.out).write_text(text + "\n", encoding="utf-8")
        return 0

    if ns.procdev:
        import json
        from pathlib import Path

        from repro.bench.procbench import run_procdev_bench

        result = run_procdev_bench(
            quick=ns.quick,
            progress=lambda msg: print(f"# {msg}", file=sys.stderr),
        )
        text = json.dumps(result, indent=1)
        print(text)
        if ns.out:
            Path(ns.out).write_text(text + "\n", encoding="utf-8")
        return 0

    if ns.threads:
        import json
        from pathlib import Path

        from repro.bench.threads import run_threads_bench

        result = run_threads_bench(
            quick=ns.quick,
            progress=lambda msg: print(f"# {msg}", file=sys.stderr),
        )
        text = json.dumps(result, indent=1)
        print(text)
        if ns.out:
            Path(ns.out).write_text(text + "\n", encoding="utf-8")
        return 0

    if ns.json or ns.quick:
        import json
        from pathlib import Path

        from repro.bench.live import run_live_bench

        progress = lambda msg: print(f"# {msg}", file=sys.stderr)  # noqa: E731
        if ns.collectives:
            from repro.bench.collectives import run_collectives_bench

            result = run_collectives_bench(
                nprocs=ns.nprocs or 8,
                device=(ns.devices.split(",")[0] if ns.devices else "smdev"),
                quick=ns.quick,
                progress=progress,
            )
            text = json.dumps(result, indent=1)
            print(text)
            if ns.out:
                Path(ns.out).write_text(text + "\n", encoding="utf-8")
            return 0

        baseline = None
        if ns.baseline:
            baseline = json.loads(Path(ns.baseline).read_text(encoding="utf-8"))
            # Accept either a bare {device: {size: cell}} map or a full
            # prior --json result.
            if "devices" in baseline:
                baseline = baseline["devices"]
        result = run_live_bench(
            devices=ns.devices.split(",") if ns.devices else None,
            quick=ns.quick,
            baseline=baseline,
            progress=progress,
        )
        text = json.dumps(result, indent=1)
        print(text)
        if ns.out:
            Path(ns.out).write_text(text + "\n", encoding="utf-8")
        return 0

    if ns.plot:
        from repro.bench.plot import ascii_plot

        wanted = [f.upper() for f in ns.figures] or sorted(FIGURES)
        for figure_id in wanted:
            if figure_id not in FIGURES:
                print(f"unknown figure {figure_id}", file=sys.stderr)
                return 2
            fig = FIGURES[figure_id]()
            log_y = "Time" in fig.ylabel  # latency curves span decades
            print(ascii_plot(fig, log_y=log_y))
            print()
        return 0

    if ns.csv:
        from pathlib import Path

        out_dir = Path(ns.csv)
        out_dir.mkdir(parents=True, exist_ok=True)
        wanted = [f.upper() for f in ns.figures] or sorted(FIGURES)
        for figure_id in wanted:
            if figure_id not in FIGURES:
                print(f"unknown figure {figure_id}", file=sys.stderr)
                return 2
            fig = FIGURES[figure_id]()
            path = out_dir / f"{figure_id}.csv"
            path.write_text(fig.to_csv() + "\n", encoding="utf-8")
            print(f"wrote {path}")
        return 0

    if ns.summaries:
        for fabric in ("FastEthernet", "GigabitEthernet", "Myrinet2G"):
            print(format_latency_table(fabric))
            print()
        return 0

    wanted = [f.upper() for f in ns.figures] or sorted(FIGURES)
    unknown = [f for f in wanted if f not in FIGURES]
    if unknown:
        print(f"unknown figure(s): {unknown}; known: {sorted(FIGURES)}", file=sys.stderr)
        return 2
    for figure_id in wanted:
        fig = FIGURES[figure_id]()
        sizes = [s for s in _SUMMARY_SIZES if s in fig.sizes]
        print(format_figure(fig, sizes=sizes))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
