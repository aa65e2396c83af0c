"""The offline curation program: one process, ``ProtectedPipeline`` only.

Run by ``run.py`` as a fresh process per set-up, so the process-wide
plan, operator and geometry caches start cold, exactly as in a new
curation job. It reads the generated holdout from the work directory and
times building and calibrating one pipeline. With ``--screen 1`` it then
reads the pool and schedule and screens batches for ``--seconds``. It
prints one JSON line with the timings, every verdict and its own
resource figures.

    python perfbench/curate.py --work DIR --input-size 64 --screen 1 \\
        --seconds 10 --batch 16 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from serve import peak_rss_mib
from tracing import Tracer, install


def cache_snapshot(metrics) -> dict[str, float]:
    """Hit and miss counters of the scoring caches and the analysis memo."""
    from repro.imaging.plans import geometry_cache_stats, plan_cache_stats
    from repro.imaging.scaling import operator_cache_stats

    out = {}
    for family, stats in (
        ("plan_cache", plan_cache_stats()),
        ("operator_cache", operator_cache_stats()),
        ("spectrum_geometry", geometry_cache_stats()),
    ):
        out[f"{family}.hits"] = float(stats["hits"])
        out[f"{family}.misses"] = float(stats["misses"])
    memo = metrics.counter_values("analysis.")
    out["analysis.hits"] = float(sum(v for k, v in memo.items() if k.endswith(".hit")))
    out["analysis.misses"] = float(sum(v for k, v in memo.items() if k.endswith(".miss")))
    return out


def build_pipeline(work: Path, input_size: int, tag: str):
    from repro.serving.audit import AuditLog
    from repro.serving.pipeline import ProtectedPipeline
    from repro.serving.policy import Policy

    audit = AuditLog(work / f"audit-{tag}.jsonl", quarantine_dir=work / f"quarantine-{tag}")
    return ProtectedPipeline(
        (input_size, input_size), policy=Policy.QUARANTINE, audit_log=audit
    )


def main(argv: list[str] | None = None) -> int:
    from repro.serving.pipeline import verdict_payload

    parser = argparse.ArgumentParser()
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--input-size", type=int, required=True)
    parser.add_argument("--screen", type=int, choices=(0, 1), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    holdout = list(np.load(args.work / "holdout.npy"))
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer)

    began = time.perf_counter()
    pipeline = build_pipeline(args.work, args.input_size, str(os.getpid()))
    pipeline.calibrate(holdout)
    setup = time.perf_counter() - began
    if not args.screen:
        print(json.dumps({"setup_s": setup}))
        return 0
    pool = list(np.load(args.work / "pool.npy"))
    schedule = np.load(args.work / "schedule.npy")

    def screen(batch_id: str, position: int) -> dict:
        indices = [int(i) for i in schedule[position : position + args.batch]]
        images = [pool[i] for i in indices]
        began = time.perf_counter()
        if tracer is None:
            outcomes = pipeline.submit_batch(images, prefix=batch_id)
        else:
            outcomes = tracer.call(
                "harness.batch", pipeline.submit_batch, (images,),
                {"prefix": batch_id}, request_id=batch_id, images=len(images),
            )
        return {
            "id": batch_id, "start": began, "end": time.perf_counter(),
            "indices": indices,
            "verdicts": [
                verdict_payload(o, request_id=batch_id, latency_ms=0.0) for o in outcomes
            ],
        }

    # One untimed batch first: the stacked kernels and the quarantine
    # directory are cold until the first batch has run.
    warmup = screen("warmup", 0)
    before = cache_snapshot(pipeline.metrics)
    batches = []
    cpu_start = sum(os.times()[:2])
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           and args.batch * (len(batches) + 2) <= len(schedule)):
        batches.append(screen(f"b{len(batches):04d}", args.batch * (len(batches) + 1)))
    end = time.perf_counter()
    cpu = sum(os.times()[:2]) - cpu_start
    after = cache_snapshot(pipeline.metrics)
    pipeline.audit_log.flush()
    spans_path = None
    if tracer is not None:
        spans_path = str(args.work / "spans-curate.json")
        tracer.dump(spans_path)
    print(json.dumps({
        "setup_s": setup,
        "start": start,
        "end": end,
        "warmup": warmup,
        "batches": batches,
        "cpu_s": cpu,
        "peak_rss_mib": peak_rss_mib(os.getpid()),
        "cache_before": before,
        "cache_after": after,
        "spans": spans_path,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
