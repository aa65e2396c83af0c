"""The repository benchmark: one command, three workloads, every verdict checked.

    python3 perfbench/run.py --workload upload-libpng --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures once untraced and once with every layer's public
functions wrapped in spans, and prints the per-layer metrics plus the
tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

from stats import min_samples, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Generated assets, kept across runs of one checkout (see workload_assets).
CACHE = ROOT / ".perfbench_cache"

#: Workload definitions. The scale ratio (image / input size) is 8
#: everywhere. The holdout, attack and benign images are fixed assets
#: shared by every run; the seed picks the request order.
WORKLOADS = {
    # Real uploads: libpng-filtered PNGs, decoded and scored in the server.
    "upload-libpng": {
        "kind": "upload", "image_size": 128, "input_size": 16, "holdout": 128,
        "attacks": 8, "benign": 56, "encoding": "libpng", "workers": 0,
    },
    # DetectionClient uploads (filter 0) scored by one spawned shard.
    "upload-sharded": {
        "kind": "upload", "image_size": 256, "input_size": 32, "holdout": 48,
        "attacks": 8, "benign": 56, "encoding": "repro", "workers": 1,
    },
    # Offline curation through the stacked batch kernels, quarantining
    # hits. A 512x512 image costs about 0.3 s to generate and 0.45 s to
    # score in the oracle, so the pool is small.
    "curate-batch": {
        "kind": "curate", "image_size": 512, "input_size": 64, "holdout": 16,
        "attacks": 1, "benign": 7, "batch": 16,
    },
}
#: Set-ups per untraced run, each in a fresh program process; setup_s is
#: their median.
SETUPS = 3
#: Keep-alive connections of the upload client (the host has two cores).
CONNECTIONS = 2
#: Upload windows run on until this many requests, so p95 has ten samples
#: beyond it.
MIN_REQUESTS = min_samples(95)
#: Untimed requests before each window: caches fill and the interpreter
#: specializes the hot loops before timing starts.
WARMUP_REQUESTS = 16
#: Fastest plausible request and batch rates, used to size the schedules.
MAX_RATE = 150
MAX_BATCH_RATE = 2


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded into this process, if any."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libraries = {line.split()[-1] for line in handle if "blas" in line.lower()}
    for library in sorted(libraries):
        dll = ctypes.CDLL(library)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(dll, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def host_block(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
    }


@functools.cache
def asset_key(name: str) -> str:
    """The key under which a checkout keeps workload *name*'s generated
    assets: a digest of the program's sources, the input generator and
    the workload's definition, so editing any of them rebuilds them."""
    digest = hashlib.sha256(json.dumps(WORKLOADS[name], sort_keys=True).encode())
    for path in sorted(SRC.rglob("*.py")) + [HERE / "inputs.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return f"{name}-{digest.hexdigest()[:16]}"


def workload_assets(name: str) -> dict:
    """The fixed assets of workload *name*, built by the first run of a
    checkout and only loaded by later ones."""
    from inputs import cached_assets, make_assets

    spec = WORKLOADS[name]
    return cached_assets(CACHE, asset_key(name), lambda: make_assets(
        image_size=spec["image_size"], input_size=spec["input_size"],
        holdout=spec["holdout"], attacks=spec["attacks"], benign=spec["benign"],
    ))


def accuracy(indices: list[int], verdicts: list[str | None], labels: list[bool]) -> dict:
    """Recall over the distinct attack inputs and true-negative rate over
    the distinct benign ones, against the inputs' own labels. An input
    counts as caught (or passed) only when every answer for it said so.
    Counting distinct inputs, not requests, keeps the figures independent
    of how often the window happened to send each input."""
    answers: dict[int, set] = {}
    for index, verdict in zip(indices, verdicts):
        answers.setdefault(index, set()).add(verdict)
    attacks = [seen for index, seen in answers.items() if labels[index]]
    benign = [seen for index, seen in answers.items() if not labels[index]]
    return {
        "attack_recall": sum(seen == {"attack"} for seen in attacks) / len(attacks),
        "benign_tnr": sum(seen == {"benign"} for seen in benign) / len(benign),
    }


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def hit_fracs(before: dict, after: dict) -> dict:
    """Cache hit shares over a window from two counter snapshots."""
    def delta(key):
        return after.get(key, 0.0) - before.get(key, 0.0)

    return {
        "analysis.memo_hit_frac": _ratio(delta("analysis.hits"), delta("analysis.misses")),
        "plans.plan_cache_hit_frac": _ratio(delta("plan_cache.hits"), delta("plan_cache.misses")),
        "scaling.operator_cache_hit_frac": _ratio(
            delta("operator_cache.hits"), delta("operator_cache.misses")),
        "fourier.geometry_cache_hit_frac": _ratio(
            delta("spectrum_geometry.hits"), delta("spectrum_geometry.misses")),
    }


def server_counters(metrics: dict) -> dict:
    """The service's /metrics series in the counter-snapshot form."""
    out = {}
    for family in ("plan_cache", "operator_cache", "spectrum_geometry"):
        for kind in ("hits", "misses"):
            out[f"{family}.{kind}"] = metrics.get(f"decamouflage_{family}_{kind}", 0.0)
    out["analysis.hits"] = sum(
        v for k, v in metrics.items()
        if k.startswith("decamouflage_analysis_") and k.endswith("_hit_total"))
    out["analysis.misses"] = sum(
        v for k, v in metrics.items()
        if k.startswith("decamouflage_analysis_") and k.endswith("_miss_total"))
    for name in ("shm_frames", "shm_ring_full", "workers_requeued", "workers_restarts"):
        out[name] = metrics.get(f"decamouflage_{name}_total", 0.0)
    return out


# -- upload workloads ---------------------------------------------------------


def _encode(spec: dict, inputs) -> None:
    """Encode every pool image and prove the program decodes it bit-exactly."""
    import numpy as np
    from repro.serving.wire import decode_image_payload, encode_image_payload

    from inputs import encode_png_adaptive

    if spec["encoding"] == "libpng":
        inputs.payloads = [encode_png_adaptive(image)[0] for image in inputs.pool]
    else:
        inputs.payloads = [encode_image_payload(image) for image in inputs.pool]
    for index, (payload, image) in enumerate(zip(inputs.payloads, inputs.pool)):
        if not np.array_equal(decode_image_payload(payload), image):
            raise RuntimeError(f"payload {index} does not round-trip bit-exactly")


def reference_pipeline(spec: dict, holdout, policy, audit_dir: Path | None = None):
    """The oracle's pipeline, calibrated on the workload's holdout."""
    from repro.serving.audit import AuditLog
    from repro.serving.pipeline import ProtectedPipeline

    audit = None
    if audit_dir is not None:
        audit = AuditLog(audit_dir / "audit.jsonl", quarantine_dir=audit_dir / "quarantine")
    pipeline = ProtectedPipeline(
        (spec["input_size"], spec["input_size"]), policy=policy, audit_log=audit
    )
    pipeline.calibrate(holdout)
    return pipeline


def holdout_directory(name: str, holdout) -> Path:
    """The holdout as PNG files for ``repro serve --holdout``, written once
    per checkout beside the assets."""
    from repro.imaging.png import write_png

    path = CACHE / f"{asset_key(name)}-holdout"
    if not path.is_dir():
        partial = CACHE / f"{path.name}.{os.getpid()}.tmp"
        partial.mkdir(parents=True)
        for index, image in enumerate(holdout):
            write_png(partial / f"h{index:04d}.png", image)
        os.replace(partial, path)
    return path


class UploadRun:
    """One upload workload: launches, windows and their checks."""

    def __init__(self, name: str, spec: dict, seed: int, seconds: float, work: Path):
        from repro.serving.policy import Policy

        from inputs import make_inputs
        from oracle import expected_verdicts

        self.spec, self.seconds, self.work = spec, seconds, work
        self.inputs = make_inputs(
            seed, workload_assets(name),
            length=WARMUP_REQUESTS * SETUPS + int(3 * seconds * MAX_RATE),
        )
        _encode(spec, self.inputs)
        self.holdout_dir = holdout_directory(name, self.inputs.holdout)
        self.reference = reference_pipeline(spec, self.inputs.holdout, Policy.REJECT)
        self.expected = expected_verdicts(self.reference, self.inputs.pool)
        self.launches = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def launch(self, *, traced: bool):
        from serve import ServerProcess

        self.launches += 1
        entry = [str(HERE / "traced_serve.py")] if traced else ["-m", "repro.cli"]
        argv = [
            sys.executable, *entry, "serve", "--host", "127.0.0.1", "--port", "0",
            "--input-size", str(self.spec["input_size"]), str(self.spec["input_size"]),
            "--holdout", str(self.holdout_dir), "--policy", "reject",
            "--audit-log", str(self.work / f"audit-{self.launches}.jsonl"),
            "--workers", str(self.spec["workers"]),
        ]
        env = dict(self.env)
        if traced:
            env["PERFBENCH_SPANS"] = str(self.work / "spans-server.json")
        server = ServerProcess(argv, cwd=str(ROOT), env=env,
                               log_path=str(self.work / "server.log"))
        try:
            setup = server.first_answer(self.inputs.payloads[-1])
        except BaseException:
            server.stop()
            raise
        return server, setup

    def window(self, server, prefix: str, seconds: float, min_requests: int) -> dict:
        """Warm-up requests, then one timed closed-loop window against
        *server*; every answer of both is checked against the oracle."""
        from serve import cpu_seconds, drive, peak_rss_mib

        schedule = self.inputs.schedule
        warmup, _, _ = drive(
            server.host, server.port, self.inputs.payloads, schedule[:WARMUP_REQUESTS],
            seconds=0.0, min_requests=WARMUP_REQUESTS, connections=CONNECTIONS,
            prefix=f"{prefix}w",
        )
        dispatcher, shards = server.pids()
        before = server_counters(server.metrics())
        cpu_before = [cpu_seconds(pid) for pid in (dispatcher, *shards)]
        client_before = sum(os.times()[:2])
        records, start, end = drive(
            server.host, server.port, self.inputs.payloads, schedule[WARMUP_REQUESTS:],
            seconds=seconds, min_requests=min_requests, connections=CONNECTIONS,
            prefix=prefix,
        )
        client_cpu = sum(os.times()[:2]) - client_before
        cpu = [cpu_seconds(pid) - c for pid, c in zip((dispatcher, *shards), cpu_before)]
        rss = sum(peak_rss_mib(pid) for pid in (dispatcher, *shards))
        after = server_counters(server.metrics())
        checked = [self.check(record) for record in warmup + records]
        return {
            "records": records, "start": start, "end": end, "cpu": cpu,
            "client_cpu": client_cpu, "rss": rss, "before": before, "after": after,
            "indices": [r.index for r in warmup + records],
            "verdicts": [verdict for verdict, _ in checked],
            "failures": [why for _, why in checked if why],
        }

    def check(self, record) -> tuple[str | None, str | None]:
        """``(verdict, None)`` for a correct answer, ``(None, why)`` otherwise."""
        from oracle import mismatch

        if record.status != 200:
            return None, f"{record.request_id}: HTTP {record.status}"
        got = json.loads(record.body)
        why = mismatch(self.expected[record.index], got)
        if why:
            return None, f"{record.request_id}: {why}"
        return got["verdict"], None

    def end_to_end(self, windows: list[dict], setups: list[float]) -> dict:
        """End-to-end metrics pooled over the windows of several launches,
        so one launch's luck weighs a third, not all, of the result."""
        records = [r for w in windows for r in w["records"]]
        failed = {f.split(":")[0] for w in windows for f in w["failures"]}
        ok = sum(r.request_id not in failed for r in records)
        latencies = [(r.end - r.start) * 1000.0 for r in records]
        return {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p95_ms": percentile(latencies, 95),
            "throughput_ips": ok / sum(w["end"] - w["start"] for w in windows),
            "cpu_ms_per_image": sum(sum(w["cpu"]) for w in windows) * 1000.0 / max(ok, 1),
            "peak_rss_mib": statistics.median(w["rss"] for w in windows),
            "ok_frac": 1.0 - len(failed) / sum(len(w["indices"]) for w in windows),
            **accuracy(
                [i for w in windows for i in w["indices"]],
                [v for w in windows for v in w["verdicts"]],
                self.inputs.labels,
            ),
        }

    def replay(self) -> tuple[list, dict, dict]:
        """Decode plus scoring of every distinct payload in this process,
        traced: the shard's work, which wrappers cannot reach there."""
        import repro.serving.wire as wire

        from curate import cache_snapshot
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
        pipeline = self.reference
        before = cache_snapshot(pipeline.metrics)
        durations = {}
        for index, payload in enumerate(self.inputs.payloads):
            def work(payload=payload, index=index):
                image = wire.decode_image_payload(payload, origin=f"replay{index}")
                return pipeline.submit(image, image_id=f"replay{index}")

            began = time.perf_counter()
            tracer.call("harness.replay", work, (), {}, request_id=f"replay{index}")
            durations[index] = (time.perf_counter() - began) * 1000.0
        return tracer.spans, durations, hit_fracs(before, cache_snapshot(pipeline.metrics))


def per_layer_upload(run: UploadRun, plain: dict, traced: dict, spans: list) -> dict:
    import tracing as t

    records = traced["records"]
    client = {r.request_id: (r.end - r.start) * 1000.0 for r in records}
    window_spans = [s for s in spans if s[5] in client]
    request = t.by_request(window_spans, "server.request")
    score = t.by_request(window_spans, "server.score")
    submit = t.by_request(window_spans, "workers.submit")
    sharded = run.spec["workers"] > 0
    scoring_spans, transit = window_spans, 0.0
    fracs = hit_fracs(traced["before"], traced["after"])
    if sharded:
        scoring_spans, replay_ms, fracs = run.replay()
        transit = statistics.fmean(
            submit.get(r.request_id, 0.0) - replay_ms[r.index] for r in records
        )
    delta = {k: traced["after"][k] - traced["before"][k] for k in traced["after"]}
    wall = traced["end"] - traced["start"]
    block = run.inputs.block(run.spec["encoding"])
    out = {
        "wire.decode_ms": t.per_image_ms(scoring_spans, "wire.decode"),
        "png.bytes_per_image": block["payload_bytes_mean"],
        **{f"png.filter_share.{k}": block["filter_share"][k] for k in range(5)},
        "server.request_ms": statistics.fmean(request.get(r, 0.0) for r in client),
        "eventloop.residual_ms": statistics.fmean(
            client[r] - request.get(r, 0.0) for r in client),
        "server.admission_wait_ms": statistics.fmean(
            request.get(r, 0.0) - score.get(r, 0.0) for r in client),
        "server.rejected_429": float(sum(r.status == 429 for r in records)),
        "server.rejected_503": float(sum(r.status == 503 for r in records)),
        "workers.submit_ms": t.per_call_ms(window_spans, "workers.submit")[0],
        "workers.transit_ms": transit,
        "shm.ring_hit_frac": _ratio(delta["shm_frames"], delta["shm_ring_full"]),
        "workers.requeued": delta["workers_requeued"],
        "workers.restarts": delta["workers_restarts"],
        "workers.spawn_ready_ms": t.per_call_ms(spans, "workers.spawn_ready")[0],
        "proc.cpu_wall_ratio.program": traced["cpu"][0] / wall,
        "proc.cpu_wall_ratio.shard": sum(traced["cpu"][1:]) / wall,
        "proc.cpu_wall_ratio.client": traced["client_cpu"] / wall,
        **fracs,
    }
    out.update(common_layers(spans, window_spans, scoring_spans, client))
    untraced_ips = len(plain["records"]) / (plain["end"] - plain["start"])
    traced_ips = len(records) / wall
    out["trace.overhead_frac"] = 1.0 - traced_ips / untraced_ips
    return out


def common_layers(spans, window_spans, scoring_spans, client: dict) -> dict:
    """Per-layer figures shared by every workload. *scoring_spans* hold the
    pipeline and detector spans: the window's own, or on the sharded
    workload those of the in-process replay."""
    import tracing as t

    accounted = t.account(window_spans, client)
    out = {
        f"self.{layer}_ms": accounted.get(layer, 0.0)
        for layer in ("server", "wire", "workers", "pipeline", "ensemble",
                      "detectors", "audit", "harness")
    }
    out["self.unaccounted_ms"] = accounted.get("unaccounted", 0.0)
    out["trace.client_latency_ms"] = statistics.fmean(client.values())
    out["pipeline.submit_ms"] = t.per_image_ms(scoring_spans, "pipeline.submit")
    out["pipeline.batch_ms_per_image"] = t.per_image_ms(scoring_spans, "pipeline.submit_batch")
    out["pipeline.resize_ms"] = t.per_call_ms(scoring_spans, "pipeline.resize")[0]
    for name in ("append", "quarantine"):
        mean, count = t.per_call_ms(window_spans, f"audit.{name}")
        out[f"audit.{name}_ms"] = mean
        out[f"audit.{name}_count"] = float(count)
    ensemble_images = t.images_of(scoring_spans, "ensemble.detect")
    out["ensemble.detect_ms_per_image"] = t.per_image_ms(scoring_spans, "ensemble.detect")
    out["ensemble.detectors_per_image"] = (
        t.images_of(scoring_spans, "detector.") / ensemble_images if ensemble_images else 0.0
    )
    for method in ("scaling", "filtering", "steganalysis"):
        out[f"detector.{method}_ms"] = t.per_image_ms(scoring_spans, f"detector.{method}")
    for name in ("ensemble", "scaling", "filtering", "steganalysis"):
        out[f"calibrate.{name}_ms"] = t.per_call_ms(spans, f"calibrate.{name}")[0]
    return out


def run_upload(name: str, spec: dict, seed: int, seconds: float, trace: bool,
               work: Path) -> dict:
    run = UploadRun(name, spec, seed, seconds, work)
    launches = 1 if trace else SETUPS
    setups, windows = [], []
    for index in range(launches):
        server, setup = run.launch(traced=False)
        setups.append(setup)
        try:
            windows.append(run.window(
                server, f"u{index}-", seconds / launches, -(-MIN_REQUESTS // launches)
            ))
        finally:
            server.stop()
    metrics = run.end_to_end(windows, setups)
    if trace:
        server, _ = run.launch(traced=True)
        try:
            traced = run.window(server, "t-", seconds, MIN_REQUESTS)
        finally:
            server.stop()
        with open(work / "spans-server.json", encoding="utf-8") as handle:
            spans = [tuple(span) for span in json.load(handle)]
        metrics = per_layer_upload(run, windows[0], traced, spans)
        windows.append(traced)
    return {
        "metrics": metrics,
        "attempted": sum(len(w["indices"]) for w in windows),
        "failures": [f for w in windows for f in w["failures"]],
        "inputs": run.inputs.block(spec["encoding"]),
        "setup_samples_s": setups,
        "requests_per_window": [len(w["records"]) for w in windows],
    }


# -- offline curation -----------------------------------------------------------


#: Per-layer metrics of the serving layers, 0 on the offline workload.
SERVING_ONLY = (
    "wire.decode_ms", "png.bytes_per_image",
    *(f"png.filter_share.{k}" for k in range(5)),
    "server.request_ms", "eventloop.residual_ms", "server.admission_wait_ms",
    "server.rejected_429", "server.rejected_503", "workers.submit_ms",
    "workers.transit_ms", "shm.ring_hit_frac", "workers.requeued",
    "workers.restarts", "workers.spawn_ready_ms", "proc.cpu_wall_ratio.shard",
    "proc.cpu_wall_ratio.client",
)


def run_curate(name: str, spec: dict, seed: int, seconds: float, trace: bool,
               work: Path) -> dict:
    import subprocess

    import numpy as np
    from repro.serving.policy import Policy

    from inputs import make_inputs
    from oracle import expected_verdicts, mismatch

    inputs = make_inputs(
        seed, workload_assets(name),
        length=spec["batch"] * (2 + int(seconds * MAX_BATCH_RATE)),
    )
    np.save(work / "holdout.npy", np.stack(inputs.holdout))
    np.save(work / "pool.npy", np.stack(inputs.pool))
    np.save(work / "schedule.npy", inputs.schedule)
    (work / "oracle").mkdir()
    reference = reference_pipeline(spec, inputs.holdout, Policy.QUARANTINE, work / "oracle")
    expected = expected_verdicts(reference, inputs.pool)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    def child(*, screen: bool, traced: bool) -> dict:
        argv = [
            sys.executable, str(HERE / "curate.py"), "--work", str(work),
            "--input-size", str(spec["input_size"]), "--screen", "1" if screen else "0",
            "--seconds", str(seconds), "--batch", str(spec["batch"]),
            "--trace", "1" if traced else "0",
        ]
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"curation process failed:\n{done.stderr[-2000:]}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def check(result: dict) -> tuple[list[int], list[str | None], list[str]]:
        """Indices, verdicts and failures of every screened image, the
        warm-up batch included."""
        indices, verdicts, failures = [], [], []
        for batch in [result["warmup"], *result["batches"]]:
            for n, (index, got) in enumerate(zip(batch["indices"], batch["verdicts"])):
                why = mismatch(expected[index], got)
                if why:
                    failures.append(f"{batch['id']}[{n}]: {why}")
                indices.append(index)
                verdicts.append(None if why else got["verdict"])
        return indices, verdicts, failures

    def rate(result: dict) -> float:
        """Images per second over the timed batches."""
        images = sum(len(batch["indices"]) for batch in result["batches"])
        return images / (result["end"] - result["start"])

    # One fresh process per set-up, so that every sample starts with cold
    # process-wide caches; only the last one screens.
    setups = [child(screen=False, traced=False)["setup_s"]
              for _ in range(0 if trace else SETUPS - 1)]
    plain = child(screen=True, traced=False)
    setups.append(plain["setup_s"])
    indices, verdicts, failures = check(plain)
    attempted = len(indices)
    timed = sum(len(batch["indices"]) for batch in plain["batches"])
    ok = timed - sum(not f.startswith("warmup") for f in failures)
    latencies = [
        (batch["end"] - batch["start"]) * 1000.0
        for batch in plain["batches"] for _ in batch["indices"]
    ]
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, 95),
        "throughput_ips": ok / (plain["end"] - plain["start"]),
        "cpu_ms_per_image": plain["cpu_s"] * 1000.0 / max(ok, 1),
        "peak_rss_mib": plain["peak_rss_mib"],
        "ok_frac": (attempted - len(failures)) / attempted,
        **accuracy(indices, verdicts, inputs.labels),
    }
    if trace:
        traced = child(screen=True, traced=True)
        t_indices, _, t_failures = check(traced)
        attempted += len(t_indices)
        failures += t_failures
        with open(traced["spans"], encoding="utf-8") as handle:
            spans = [tuple(span) for span in json.load(handle)]
        client = {
            b["id"]: (b["end"] - b["start"]) * 1000.0 for b in traced["batches"]
        }
        window_spans = [s for s in spans if s[5] in client]
        traced_wall = traced["end"] - traced["start"]
        metrics = {
            **dict.fromkeys(SERVING_ONLY, 0.0),
            "proc.cpu_wall_ratio.program": traced["cpu_s"] / traced_wall,
            **hit_fracs(traced["cache_before"], traced["cache_after"]),
            **common_layers(spans, window_spans, window_spans, client),
        }
        # Per image, like the other workloads: a batch's spans cover its images.
        for key in [k for k in metrics if k.startswith("self.")] + ["trace.client_latency_ms"]:
            metrics[key] /= spec["batch"]
        metrics["trace.overhead_frac"] = 1.0 - rate(traced) / rate(plain)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "inputs": inputs.block("arrays"),
        "setup_samples_s": setups,
        "timed_images": timed,
    }


# -- entry point ------------------------------------------------------------------


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = {
        m["name"]: m["unit"]
        for m in load_spec()["per_layer" if args.trace else "end_to_end"]
    }

    workload = WORKLOADS[args.workload]
    runner = run_upload if workload["kind"] == "upload" else run_curate
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = runner(args.workload, workload, args.seed, args.seconds,
                        bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    failures = result.pop("failures")
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "host": host_block(args.seed),
        **{k: v for k, v in result.items() if k != "metrics"},
        "failures": failures[:20],
    }
    print(json.dumps(report))
    for name in units:
        print(f"{name:36s} {result['metrics'][name]:14.6f} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
