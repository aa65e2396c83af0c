"""Drive a `repro serve` process: launch, first answer, load, teardown.

The benchmark talks to the service only over HTTP and reads process
figures from ``/proc``. A :class:`ServerProcess` is one launch; the
closed-loop client in :func:`drive` keeps a fixed number of keep-alive
connections busy, each sending its next upload only after the previous
answer arrived.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_SERVING = re.compile(r"serving on http://([^:]+):(\d+)")
_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*(?:\{[^}]*\})?) (\S+)$")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of *pid* so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # After the command name: state is field 3, utime 14 and stime 15.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mib(pid: int) -> float:
    """Peak resident set size (VmHWM) of *pid*, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus text exposition -> ``{series: value}``."""
    out = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            out[match.group(1)] = float(match.group(2))
    return out


class ServerProcess:
    """One `repro serve` launch, timed from spawn to its first answer."""

    def __init__(self, argv: list[str], *, cwd: str, env: dict, log_path: str) -> None:
        self.launched = time.perf_counter()
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        self.host, self.port = self._await_listener()

    def _await_listener(self) -> tuple[str, int]:
        for raw in self.process.stdout:
            match = _SERVING.search(raw.decode("utf-8", "replace"))
            if match:
                return match.group(1), int(match.group(2))
        self.stop()
        raise RuntimeError("server exited before listening; see its log")

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict | None = None) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request(method, path, body=body, headers=headers or {})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def first_answer(self, payload: bytes, timeout_s: float = 120.0) -> float:
        """Seconds from spawn until a detect request is answered with 200."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            status, _ = self.request("POST", "/v1/detect", payload)
            if status == 200:
                return time.perf_counter() - self.launched
            time.sleep(0.01)
        raise RuntimeError("server never answered a detect request")

    def pids(self) -> tuple[int, list[int]]:
        """``(dispatcher pid, shard pids)`` as the service reports them."""
        _, body = self.request("GET", "/healthz")
        health = json.loads(body)
        shards = health.get("workers", {}).get("pids", {})
        return int(health["pid"]), [int(pid) for pid in shards.values() if pid]

    def metrics(self) -> dict[str, float]:
        _, body = self.request("GET", "/metrics")
        return parse_metrics(body.decode("utf-8"))

    def stop(self) -> None:
        """SIGTERM (a graceful drain) and wait; kill if the drain hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        self.process.stdout.close()
        self._log.close()


@dataclass
class Request:
    request_id: str
    index: int
    start: float
    end: float
    status: int
    body: bytes


def drive(
    host: str,
    port: int,
    payloads: list[bytes],
    schedule,
    *,
    seconds: float,
    min_requests: int,
    connections: int,
    prefix: str,
) -> tuple[list[Request], float, float]:
    """Closed loop over *connections* keep-alive connections.

    Requests follow *schedule* (pool indices) in order. New requests start
    until *seconds* have passed and at least *min_requests* were sent, or
    three times *seconds* (at least a minute) have passed. Returns the
    requests and the window's start and end (the last answer).
    """
    lock = threading.Lock()
    issued = [0]
    records: list[Request] = []
    start = time.perf_counter()
    hard_stop = start + max(3 * seconds, 60.0)

    def next_index() -> int | None:
        with lock:
            now = time.perf_counter()
            if issued[0] >= len(schedule) or now >= hard_stop:
                return None
            if now >= start + seconds and issued[0] >= min_requests:
                return None
            issued[0] += 1
            return issued[0] - 1

    def client() -> None:
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            while (n := next_index()) is not None:
                index = int(schedule[n])
                request_id = f"{prefix}{n:06d}"
                began = time.perf_counter()
                try:
                    connection.request(
                        "POST", "/v1/detect", body=payloads[index],
                        headers={"X-Request-Id": request_id,
                                 "Content-Type": "application/octet-stream"},
                    )
                    response = connection.getresponse()
                    status, body = response.status, response.read()
                except (OSError, http.client.HTTPException):
                    connection.close()
                    connection = http.client.HTTPConnection(host, port, timeout=60)
                    status, body = 0, b""
                records.append(
                    Request(request_id, index, began, time.perf_counter(), status, body)
                )
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max((r.end for r in records), default=time.perf_counter())
    return records, start, end
