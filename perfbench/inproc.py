"""The in-process workloads ``xmark`` and ``medline``, and the in-process half of every traced run.

One caller, closed loop: each query of the workload's set runs in counting
mode (``Document.count``) and in materialising mode (``Document.query``), in
a seeded shuffled order per pass, and the DOM baseline (``DomEngine.count``)
is timed on the same query right after each counting read.  Each pass also
runs every query as the first query after a fresh mapped load.  Every answer
is compared with the DOM's, computed once at set-up.
"""

from __future__ import annotations

import cProfile
import gc
import json
import math
import random
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass

from common import HERE, Ledger, SpeedGauge, Spans, child_env, geomean, median, percentile, work_dir
from fleet import fleet_probe
from layers import KernelCounter, call_count, fold_profile, primitive_probes

#: Index builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Gauge ticks on each side of a build, for the build's own speed factor.
SETUP_TICKS = 3
#: Reads per run at least, whatever ``--seconds`` says, so each (query,
#: mode) pair has at least three for its median.
MIN_READS = 100
#: Reads slower than this miss ``goodput_per_s``.  Fixed once, from the
#: per-query median latencies at the commit that added the benchmark, at the
#: geometric middle of the widest gap between two latency classes near the
#: 70th percentile, so noise does not move a query across it: on ``xmark``
#: between X07 (54 ms) and X12 (185 ms), on ``medline`` between M10
#: (103 ms) and M01 (290 ms).  They never move with later changes.
READ_LIMIT_MS = {"xmark": 100.0, "medline": 170.0}

#: The document of each workload is the same for every seed; the seed draws
#: the order of the reads in each pass and of the first queries after a load.
#: Documents generated from different seeds differ by up to 1.8x in query
#: time, which moved every latency by more than any change worth measuring.
#: Seed 7 with XMark scale 2.0 is the document the ROADMAP's observations
#: were made on (17,229 nodes, 0.28 MB of XML).
DOC_SEED = 7
#: XMark scale, and Medline citations: 150 rather than the generator's 400,
#: because at 400 one pass of M01-M11 in both modes takes about 11 s, and a
#: run must hold 100 reads within the time one run gets.
SIZES = {"xmark": 2.0, "medline": 150}


def generate(kind: str) -> str:
    """The workload's document."""
    from repro.workloads import generate_medline_xml, generate_xmark_xml

    if kind == "xmark":
        return generate_xmark_xml(scale=SIZES[kind], seed=DOC_SEED)
    return generate_medline_xml(num_citations=int(SIZES[kind]), seed=DOC_SEED)


def queries_of(kind: str) -> dict[str, str]:
    from repro.workloads import MEDLINE_QUERIES, XMARK_QUERIES

    return dict(XMARK_QUERIES if kind == "xmark" else MEDLINE_QUERIES)


def shuffled(items: list, seed: int, round_: int) -> list:
    """``items`` in the order the run with ``seed`` uses in its round ``round_``."""
    order = list(items)
    random.Random(seed * 1000 + round_).shuffle(order)
    return order


@dataclass
class Subject:
    """An indexed document, its DOM baseline, its queries and the DOM's answers."""

    doc: object
    dom: object
    queries: dict[str, str]
    expected: dict[str, list[int]]

    @classmethod
    def build(cls, doc, queries: dict[str, str]) -> "Subject":
        from repro.baseline import DomEngine

        dom = DomEngine(doc.model)
        return cls(doc, dom, queries, {name: dom.preorders(q) for name, q in queries.items()})


def _timed(call):
    started = time.perf_counter()
    value = call()
    return value, time.perf_counter() - started


def _run_read(subject: Subject, name: str, mode: str, ledger: Ledger, spans: Spans):
    """One checked SXSI read; its latency in seconds, or ``None`` when it failed."""
    query = subject.queries[name]
    try:
        if mode == "count":
            with spans.span("core.Document.count"):
                value, seconds = _timed(lambda: subject.doc.count(query))
            ok = value == len(subject.expected[name])
        else:
            with spans.span("core.Document.query"):
                value, seconds = _timed(lambda: subject.doc.query(query))
            ok = subject.doc.preorder_ids(value) == subject.expected[name]
    except Exception as exc:  # a crash is a failed operation, not a failed benchmark
        ledger.fail(f"{name} {mode}: {type(exc).__name__}: {exc}")
        return None
    return seconds if ledger.check(ok, f"{name} {mode}: answer differs from the DOM") else None


def node_rss_mb(path, subject: Subject, ledger: Ledger) -> float:
    """RSS in MB of a fresh process that loaded the index at ``path`` mapped and counted every query once.

    That is what a node holding this one document resident would hold: the
    interpreter, the program, the touched pages of the mapped file and the
    lazy structures the queries built, without the DOM and the XML the
    benchmark process keeps for its checks.
    """
    done = subprocess.run(
        [sys.executable, str(HERE / "node_probe.py"), str(path)],
        input=json.dumps(subject.queries),
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
        check=False,
    )
    try:
        report = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        ledger.fail(f"node probe exited {done.returncode}: {done.stderr.strip()[-300:]}")
        return 0.0
    want = {name: len(answer) for name, answer in subject.expected.items()}
    ledger.check(report["counts"] == want, "node probe: counts differ from the DOM")
    return report["rss_bytes"] / 1e6


def measure(kind: str, seed: int, seconds: float) -> tuple[Ledger, dict, dict]:
    """The timed run: ``(ledger, end-to-end metrics, raw samples)``.

    After each pass of reads every query runs once as the first query after
    a fresh mapped load, so both sample the same stretch of time.
    """
    from repro import Document

    xml = generate(kind)
    queries = queries_of(kind)
    ledger = Ledger()
    spans = Spans(False)
    gauge = SpeedGauge()

    builds = []
    for _ in range(SETUP_REPEATS):
        doc = None  # free the previous build before timing the next
        gc.collect()
        first_tick = len(gauge.samples)
        for _ in range(SETUP_TICKS):
            gauge.tick()
        doc, build_seconds = _timed(lambda: Document.from_string(xml))
        for _ in range(SETUP_TICKS):
            gauge.tick()
        # Build times swing within a run more than the loop's median speed
        # shows, so each build is scaled by the ticks beside it.
        builds.append(build_seconds * gauge.scale(since=first_tick))
    subject = Subject.build(doc, queries)
    for name in queries:  # warm lazy structures and plan caches; checked, not timed
        _run_read(subject, name, "count", ledger, spans)

    ops = [(name, mode) for name in queries for mode in ("count", "materialise")]
    reads: dict[tuple[str, str], list[float]] = {op: [] for op in ops}
    dom_reads: dict[str, list[float]] = {name: [] for name in queries}
    first: dict[str, list[float]] = {name: [] for name in queries}
    with work_dir() as work:
        path = work / "index.sxsi"
        doc.save(path)
        stored_bytes = path.stat().st_size

        def first_queries(round_: int) -> None:
            """Every query once, each as the first query after a fresh mapped load."""
            for name in shuffled(list(queries), seed, round_):
                loaded = Document.load(path, mapped=True)
                try:
                    count, first_seconds = _timed(lambda: loaded.count(queries[name]))
                finally:
                    loaded.close()
                if ledger.check(count == len(subject.expected[name]), f"{name}: first query after load differs"):
                    first[name].append(first_seconds)
                gauge.tick()

        min_passes = math.ceil(MIN_READS / len(ops))
        passes = 0
        started = time.perf_counter()
        while passes < min_passes or time.perf_counter() - started < seconds:
            for name, mode in shuffled(ops, seed, passes):
                latency = _run_read(subject, name, mode, ledger, spans)
                if latency is not None:
                    reads[(name, mode)].append(latency)
                if mode == "count":
                    _, dom_seconds = _timed(lambda: subject.dom.count(queries[name]))
                    dom_reads[name].append(dom_seconds)
                gauge.tick()
            first_queries(-1 - passes)
            passes += 1
        rss_mb = node_rss_mb(path, subject, ledger)

    # Every time is scaled to the machine's reference speed, the builds
    # above and the rest here.  The DOM ratios are taken within the run and
    # need no scaling.
    scale = gauge.scale()
    samples = [scale * s for values in reads.values() for s in values]
    busy = sum(samples)
    # Read percentiles are taken over the (query, mode) pairs' medians.  Over
    # all samples, the nearest rank of the median falls on the boundary
    # between two latency classes and picks the slowest read of the lower
    # one, which spread 0.23 over ten runs on ``xmark``.
    medians = [scale * median(v) for v in reads.values() if v]
    limit = READ_LIMIT_MS[kind] / 1e3
    sizes = doc.index_size_bits()
    ratios = {
        name: median(reads[(name, "count")]) / median(dom_reads[name])
        for name in queries
        if reads[(name, "count")]
    }
    metrics = {
        "setup_s": median(builds),
        "queries_per_s": len(samples) / busy,
        "goodput_per_s": sum(1 for s in samples if s <= limit) / busy,
        "read_ms_p50": 1e3 * percentile(medians, 0.5),
        "read_ms_p90": 1e3 * percentile(medians, 0.9),
        "query_ms_geomean": 1e3 * geomean(medians),
        "dom_ratio_geomean": geomean(ratios.values()),
        "first_query_ms": 1e3 * scale * geomean(median(v) for v in first.values() if v),
        "index_bits_per_node": sizes["total"] / doc.num_nodes,
        "stored_bytes_per_xml_byte": stored_bytes / len(xml.encode("utf-8")),
        "node_rss_mb": rss_mb,
    }
    raw = {"reads": reads, "dom_reads": dom_reads, "per_query_ratio": ratios, "speed_scale": scale}
    return ledger, metrics, raw


def _pass(subjects: list[Subject], ledger: Ledger, spans: Spans, profile: cProfile.Profile | None) -> int:
    """Every query of every subject once in each mode; the profiler runs only inside the reads."""
    reads = 0
    for subject in subjects:
        for name in subject.queries:
            for mode in ("count", "materialise"):
                spans.operation()
                if profile is not None:
                    profile.enable()
                _run_read(subject, name, mode, ledger, spans)
                if profile is not None:
                    profile.disable()
                reads += 1
    return reads


def layer_report(subjects: list[Subject], seed: int, ledger: Ledger, spans: Spans) -> dict[str, float]:
    """The in-process per-layer metrics over ``subjects``; probes and space use the first one."""
    from repro import Document
    from repro.xpath import XPathEngine

    _, untraced = _timed(lambda: _pass(subjects, ledger, Spans(False), None))
    profile = cProfile.Profile()
    counter = KernelCounter()
    with counter.installed():
        reads, traced = _timed(lambda: _pass(subjects, ledger, spans, profile))
    seconds = fold_profile(profile)
    total = sum(seconds.values()) or 1.0
    out = {f"{layer}.self_share": value / total for layer, value in seconds.items()}
    out["trace.overhead_ratio"] = traced / untraced
    out["tree.search_calls_per_query"] = (
        call_count(profile, "tree/balanced_parens.py", ("fwd_search", "bwd_search")) / reads
    )
    out["xpath.kernel_calls_per_query"] = counter.calls / reads
    out["xpath.kernel_batch_mean"] = counter.elements / max(1, counter.calls)

    visited = results = 0
    plan_us = []
    dom_ms = []
    for subject in subjects:
        for name, query in subject.queries.items():
            with spans.span("core.Document.evaluate"):
                result = subject.doc.evaluate(query, want_nodes=False)
            visited += result.statistics.visited_nodes
            results += result.count
            prepared = subject.doc.prepare(query)
            for _ in range(3):
                engine = XPathEngine(subject.doc)  # a fresh engine has an empty plan memo
                with spans.span("xpath.XPathEngine.plan"):
                    _, plan_seconds = _timed(lambda: engine.plan(prepared))
                plan_us.append(plan_seconds * 1e6)
            dom_samples = []
            for _ in range(3):
                with spans.span("baseline.DomEngine.count"):
                    _, dom_seconds = _timed(lambda: subject.dom.count(query))
                dom_samples.append(dom_seconds)
            dom_ms.append(1e3 * median(dom_samples))
    out["xpath.visited_per_result"] = visited / max(1, results)
    out["xpath.plan_us"] = median(plan_us)
    out["baseline.dom_query_ms_geomean"] = geomean(max(v, 1e-6) for v in dom_ms)

    main = subjects[0]
    with spans.span("probes"):
        out.update(primitive_probes(main.doc, seed))
    sizes = main.doc.index_size_bits()
    for component in ("tree", "text_index", "plain_text"):
        out[f"space.{component}_bits_per_node"] = sizes[component] / main.doc.num_nodes

    with work_dir() as work:
        path = work / "index.sxsi"
        saves, loads = [], []
        for _ in range(5):
            with spans.span("core.Document.save"):
                _, save_seconds = _timed(lambda: main.doc.save(path))
            saves.append(save_seconds)
            with spans.span("core.Document.load"):
                loaded, load_seconds = _timed(lambda: Document.load(path, mapped=True))
            loads.append(load_seconds)
            loaded.close()
        file_bytes = path.stat().st_size
        out["storage.save_ms"] = 1e3 * median(saves)
        out["storage.load_ms"] = 1e3 * median(loads)
        out["storage.file_bytes"] = float(file_bytes)
        out["storage.file_overhead_ratio"] = file_bytes / main.doc.stats()["total_bytes"]

        first_name = next(iter(main.queries))
        loaded = Document.load(path, mapped=True)
        try:
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                with spans.span("core.Document.count"):
                    count = loaded.count(main.queries[first_name])
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        finally:
            loaded.close()
        ledger.check(count == len(main.expected[first_name]), f"{first_name}: first query after load differs")
        out["core.first_query_heap_bytes"] = float(retained)
    return out


def traced(kind: str, seed: int) -> tuple[Ledger, dict, Spans]:
    """The traced run: the in-process layers plus a closed-loop pass through a fleet."""
    from repro import Document
    from repro.xmlmodel import build_model

    xml = generate(kind)
    queries = queries_of(kind)
    ledger = Ledger()
    spans = Spans(True)

    parses, builds = [], []
    for _ in range(SETUP_REPEATS):
        with spans.span("xmlmodel.build_model"):
            _, parse_seconds = _timed(lambda: build_model(xml))
        parses.append(parse_seconds)
        with spans.span("core.Document.from_string"):
            doc, build_seconds = _timed(lambda: Document.from_string(xml))
        builds.append(build_seconds)
    subject = Subject.build(doc, queries)
    _pass([subject], ledger, Spans(False), None)  # warm-up, as in the timed run

    out = layer_report([subject], seed, ledger, spans)
    out["xmlmodel.parse_s"] = median(parses)
    out["core.build_s"] = median(builds)
    out.update(fleet_probe(xml, subject, ledger, spans))
    return ledger, out, spans
