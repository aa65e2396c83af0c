"""Launch `repro serve` with the benchmark's layer spans installed.

Takes the same arguments as ``decamouflage serve``. Spans are kept in
memory and written to ``$PERFBENCH_SPANS`` when the process exits after
its SIGTERM drain. Shards are spawned processes and run untraced.

    PERFBENCH_SPANS=spans.json python perfbench/traced_serve.py serve --port 0
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
import time

from tracing import Tracer, install


def _watch_spawn(tracer: Tracer) -> None:
    """Record ``workers.spawn_ready``: from ``WorkerPool.start`` until every
    shard has answered once (heartbeat or job), as ``worker_status`` says."""
    from repro.serving.workers import WorkerPool

    original = WorkerPool.start

    def start(pool) -> None:
        began = time.perf_counter()
        original(pool)

        def watch() -> None:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                status = pool.worker_status()
                if status and all(shard["ready"] for shard in status):
                    tracer.spans.append(
                        (0, None, "workers.spawn_ready", began, time.perf_counter(), None, 1)
                    )
                    return
                time.sleep(0.002)

        threading.Thread(target=watch, daemon=True).start()

    WorkerPool.start = start


def main() -> int:
    tracer = Tracer()
    install(tracer)
    _watch_spawn(tracer)
    atexit.register(tracer.dump, os.environ["PERFBENCH_SPANS"])
    from repro.cli import main as cli_main

    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
