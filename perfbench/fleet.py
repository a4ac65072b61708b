"""The fleet: two ``repro-serve`` nodes behind one ``repro-coordinator``, and what the benchmark reads from it.

The processes are started from this checkout's ``src`` with the same
interpreter that runs the benchmark, on ports picked free on loopback, and
always stopped (SIGTERM, then SIGKILL) before the run ends.
"""

from __future__ import annotations

import contextlib
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from common import Ledger, Spans, child_env, percentile, work_dir

#: Nodes in the fleet; every document lives on both (``--replication 2``).
NODES = 2
#: Documents each node keeps resident: one, so alternating between two
#: documents makes every other read load a file.
CACHE_SIZE = 1


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Fleet:
    """Two nodes and a coordinator, each with its own store root and log file under ``work``."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.processes: list[subprocess.Popen] = []
        self.node_ports: list[int] = []
        self.port = 0
        self._logs: list = []

    def _spawn(self, name: str, args: list[str]) -> None:
        log = open(self.work / f"{name}.log", "wb")
        self._logs.append(log)
        self.processes.append(
            subprocess.Popen(
                [sys.executable, *args], stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=self.work
            )
        )

    def start(self) -> "Fleet":
        from repro.client import ReproClient

        try:
            for index in range(NODES):
                port = _free_port()
                self.node_ports.append(port)
                self._spawn(
                    f"node{index}",
                    [
                        "-m", "repro.server",
                        "--root", str(self.work / f"store{index}"),
                        "--port", str(port),
                        "--cache-size", str(CACHE_SIZE),
                        "--log-level", "warning",
                    ],
                )
            self.port = _free_port()
            self._spawn(
                "coordinator",
                [
                    "-m", "repro.coordinator",
                    *[f"--node=n{i}=127.0.0.1:{port}" for i, port in enumerate(self.node_ports)],
                    "--port", str(self.port),
                    "--replication", str(NODES),
                    "--log-level", "warning",
                ],
            )
            deadline = time.monotonic() + 60.0
            for port in (*self.node_ports, self.port):
                client = ReproClient("127.0.0.1", port, retries=0, timeout=5.0)
                while True:
                    if any(process.poll() is not None for process in self.processes):
                        raise RuntimeError(f"a fleet process exited during start; logs in {self.work}")
                    with contextlib.suppress(Exception):
                        if client.healthz().get("status") == "ok":
                            break
                    if time.monotonic() > deadline:
                        raise RuntimeError("the fleet did not become healthy within 60 s")
                    time.sleep(0.02)
                client.close()
        except BaseException:
            self.stop()
            raise
        return self

    def client(self):
        from repro.client import ReproClient

        return ReproClient("127.0.0.1", self.port, retries=0, timeout=60.0)

    def node_stats(self) -> list[dict]:
        from repro.client import ReproClient

        out = []
        for port in self.node_ports:
            with ReproClient("127.0.0.1", port, retries=0, timeout=30.0) as client:
                out.append(client.stats())
        return out

    def stop(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for process in self.processes:
            try:
                process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self.processes.clear()
        for log in self._logs:
            log.close()
        self._logs.clear()

    def __enter__(self) -> "Fleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def read_record(due: float, sent: float, ended: float, results) -> dict:
    """What one ``/v1/query/batch`` read tells about each hop; every result of a batch shares one sweep."""
    first = results[0]
    timings = first.shard_timings
    slowest = max((t.seconds for t in timings), default=0.0)
    return {
        "latency": ended - due,
        "late": sent - due,
        "client": ended - sent,
        "elapsed": first.elapsed_seconds,
        "load": sum(t.load_seconds for t in timings),
        "eval": sum(t.eval_seconds for t in timings),
        "sweep": slowest,
    }


def _cache(stats: dict) -> dict:
    return stats["store"]["cache"]


def fleet_layers(reads: list[dict], before: list[dict], after: list[dict]) -> dict[str, float]:
    """The per-layer metrics of the store, service, coordinator, client and load generator."""
    hits = sum(_cache(a)["hits"] - _cache(b)["hits"] for a, b in zip(after, before))
    misses = sum(_cache(a)["misses"] - _cache(b)["misses"] for a, b in zip(after, before))
    evictions = sum(_cache(a)["evictions"] - _cache(b)["evictions"] for a, b in zip(after, before))
    return {
        "store.hit_ratio": hits / max(1, hits + misses),
        "store.loads": float(misses),
        "store.evictions": float(evictions),
        "store.load_ms_per_read": 1e3 * sum(r["load"] for r in reads) / len(reads),
        "service.eval_ms_per_read": 1e3 * sum(r["eval"] for r in reads) / len(reads),
        "service.sweep_ms_p50": 1e3 * percentile([r["sweep"] for r in reads], 0.5),
        "coordinator.hop_ms_p50": 1e3 * percentile([r["elapsed"] - r["sweep"] for r in reads], 0.5),
        "client.overhead_ms_p50": 1e3 * percentile([r["client"] - r["elapsed"] for r in reads], 0.5),
        "loadgen.late_ms_p90": 1e3 * percentile([r["late"] for r in reads], 0.9),
    }


def fleet_probe(xml: str, subject, ledger: Ledger, spans: Spans) -> dict:
    """The fleet layers for an in-process workload: its document behind a fleet, each query once.

    The document is stored under two ids on nodes that keep one resident,
    and reads alternate between them in pairs, so half of them load a file.
    """
    reads = []
    with work_dir() as work, Fleet(work) as fleet, fleet.client() as client:
        for doc_id in ("a", "b"):
            with spans.span("client.ReproClient.put_document"):
                client.put_document(doc_id, xml)
        before = fleet.node_stats()
        due = time.perf_counter()
        for index, (name, query) in enumerate(subject.queries.items()):
            spans.operation()
            doc_id = "ab"[(index // 2) % 2]
            sent = time.perf_counter()
            try:
                with spans.span("client.ReproClient.run_many"):
                    results = client.run_many([query], doc_ids=[doc_id])
            except Exception as exc:
                ledger.fail(f"fleet {name}: {type(exc).__name__}: {exc}")
                continue
            ended = time.perf_counter()
            want = {doc_id: len(subject.expected[name])}
            if ledger.check(results[0].counts == want and not results[0].failures, f"fleet {name}: differs"):
                reads.append(read_record(due, sent, ended, results))
            due = ended  # closed loop: the next read is due when this one ends
        after = fleet.node_stats()
    if not reads:
        raise RuntimeError(f"the fleet answered no read correctly; failures: {ledger.reasons}")
    return fleet_layers(reads, before, after)
