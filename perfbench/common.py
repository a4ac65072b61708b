"""Shared pieces of the benchmark: statistics, the result line, spans, work dirs.

Nothing here imports :mod:`repro`, so the statistics helpers can be tested
without the package on the path.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import shutil
import statistics
import tempfile
import time
from pathlib import Path

#: This directory, and the checkout the benchmark runs in: its parent.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch files of one run (index files, store roots, node logs); removed at exit.
WORK_ROOT = ROOT / ".perfbench_work"
#: Span files of traced runs; kept after the run.
OUT_ROOT = ROOT / ".perfbench_out"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q`` of the samples at or below it.

    Nearest rank never interpolates between two samples, so when a workload's
    reads fall into a few latency classes the figure stays on one class
    instead of sliding between them with the noise.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def median(values) -> float:
    return float(statistics.median(values))


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


#: Walks of the gauge's 2,000-node tree per tick.
WALKS = 40


class SpeedGauge:
    """Times a fixed piece of the benchmark's own work between the program's calls.

    The machine the benchmark shares runs the same code up to 40% faster or
    slower from one minute to the next, which moves every time of a run
    together.  The gauge's work does not touch the program, so its time
    follows only the machine: :meth:`scale` is the reference time of one
    chunk over its median time in this run, and multiplying a time of the
    program by it gives the time on the machine at its reference speed.
    The chunk is a pure-Python depth-first walk over a tree of lists.  Of
    the gauges tried beside the queries over five minutes of changing
    machine speed (this walk, scalar numpy reads and searches, bulk numpy
    sorts and sums), the walk followed the query times most closely: divided
    by it, the query time of 15-second blocks spread 0.07-0.08 instead of
    0.22-0.29.
    """

    #: Median seconds of one :meth:`tick` on the reference machine (2 CPUs,
    #: Python 3.11), at the commit that added the benchmark.
    REFERENCE_S = 0.008

    def __init__(self) -> None:
        rng = random.Random(20100301)
        self._children: list[list[int]] = [[] for _ in range(2000)]
        for node in range(1, 2000):
            self._children[rng.randrange(max(0, node - 50), node)].append(node)
        self.samples: list[float] = []

    def _chunk(self) -> int:
        visited = 0
        for _ in range(WALKS):
            stack = [0]
            while stack:
                visited += 1
                stack.extend(self._children[stack.pop()])
        return visited

    def tick(self) -> None:
        started = time.perf_counter()
        self._chunk()
        self.samples.append(time.perf_counter() - started)

    def scale(self, since: int = 0) -> float:
        """The factor from this run's speed to the reference speed, over the ticks from ``since`` on."""
        return self.REFERENCE_S / median(self.samples[since:])


class Ledger:
    """Counts attempted and failed operations and keeps the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        """Record one operation as passed or failed; return ``condition``."""
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition


def result_line(ledger: Ledger, metrics: dict[str, tuple[float, str]]) -> str:
    """The JSON object the benchmark prints as its last line."""
    return json.dumps(
        {
            "correct": ledger.failed == 0,
            "attempted": max(1, ledger.attempted),
            "failed": ledger.failed,
            "metrics": {
                name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
    )


class Spans:
    """In-memory spans around the benchmark's calls into the program.

    A span has a name, start and end (``perf_counter`` seconds), its parent
    span and the id of the operation it belongs to.  When disabled,
    :meth:`span` hands out one shared no-op context, so the timed runs pay
    only a method call per operation.
    """

    _NULL = contextlib.nullcontext()

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._operation = 0

    def operation(self) -> None:
        """Start a new operation: the spans after it share a fresh operation id."""
        self._operation += 1

    def span(self, name: str):
        if not self.enabled:
            return self._NULL
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name: str):
        record = {
            "name": name,
            "op": self._operation,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.records))
        self.records.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.records):
                handle.write(json.dumps({"id": index, **record}) + "\n")


def child_env() -> dict[str, str]:
    """The environment of a child process: this one's, with the checkout's ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@contextlib.contextmanager
def work_dir():
    """A fresh scratch directory inside the checkout, removed afterwards."""
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only succeeds once no other run is using it
