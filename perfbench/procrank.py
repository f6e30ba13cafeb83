"""Entry module of one process rank (``run_local_job`` loads this file).

The worker process brings its device up *before* it calls the entry
function, so in a traced job the wrappers go in when the worker loads
this module: the parent sets ``PERFBENCH_SPANS`` to the path the rank's
spans are written to, and device init is traced like every other call.
"""

from __future__ import annotations

import os

import tracer as tracing
import workloads

_SPANS = os.environ.get("PERFBENCH_SPANS", "")
_TRACER = tracing.Tracer() if _SPANS else None
if _TRACER is not None:
    _TRACER.install()


def main(env, spec: dict) -> dict:
    result = workloads.rank_main(env, spec, tracer=_TRACER)
    if _TRACER is not None:
        rank = result["rank"]
        # Every span in this process belongs to this rank, including
        # those on threads the device started before the rank bound.
        spans = [s[:6] + (rank,) for s in _TRACER.take()]
        result["trace"] = tracing.summarize(spans, _TRACER.targets, rank)
        if spec.get("write_spans"):
            tracing.write_spans(f"{_SPANS}.r{rank}.jsonl", spans, _TRACER.targets)
    return result
