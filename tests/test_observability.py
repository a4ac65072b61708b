"""Tests for the observability layer: tracing, counters, logging, EXPLAIN.

Covers the tracer contract (nesting, ring-buffer bounds, the zero-allocation
disabled path, cross-thread and cross-process propagation), the engine
counters, the structured log formatters and the slow-query log, the EXPLAIN
surface at every level (engine, ``PreparedQuery``, HTTP), the request-id
plumbing between client and server, the extended ``ShardTiming`` wire format,
and the ``repro_engine_*`` families on ``/metrics``.
"""

from __future__ import annotations

import contextvars
import io
import json
import logging
import sys
import threading
from types import SimpleNamespace

import pytest

from repro import Document, DocumentStore, QueryService
from repro.client import ReproClient
from repro.obs import (
    NULL_SPAN,
    JsonLineFormatter,
    KeyValueFormatter,
    MetricsRegistry,
    Tracer,
    configure_logging,
    get_registry,
    get_tracer,
    set_registry,
    set_tracer,
)
from repro.server import ApiError, ReproServer
from repro.server.json_api import service_result_from_json, service_result_to_json
from repro.service.query_service import ServiceResult, ShardTiming
from repro.store.document_store import DocumentFailure
from repro.xpath.engine import ENGINE_METRICS, record_query
from repro.xpath.parser import XPathSyntaxError
from repro.xpath.plan import prepare_query

SMALL_XML = "<root><a><b>hello</b></a><a><b>world</b></a><c>tail</c></root>"


@pytest.fixture()
def tracer():
    """A fresh enabled tracer installed as the global one, restored afterwards."""
    fresh = Tracer(capacity=16, enabled=True)
    previous = set_tracer(fresh)
    yield fresh
    set_tracer(previous)


# -- tracer ----------------------------------------------------------------------------


def test_nested_spans_build_a_tree(tracer):
    with tracer.span("root", request_id="rid-1", kind="test") as root:
        assert tracer.current_span() is root
        with tracer.span("child") as child:
            child.set_attribute("n", 7)
        with tracer.span("sibling"):
            pass
    assert root.children[0] is child
    assert [c.name for c in root.children] == ["child", "sibling"]
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert child.request_id == "rid-1"  # inherited from the root
    assert root.duration_seconds >= child.duration_seconds >= 0.0
    record = root.to_dict()
    assert record["name"] == "root"
    assert record["attributes"] == {"kind": "test"}
    assert record["children"][0]["attributes"] == {"n": 7}
    assert [t["name"] for t in tracer.traces()] == ["root"]


def test_disabled_tracer_returns_the_null_span_singleton():
    tracer = Tracer(enabled=False)
    first = tracer.span("a", whatever=1)
    second = tracer.span("b")
    assert first is second is NULL_SPAN
    assert not first  # falsy: call sites can test "is tracing active"
    with first as entered:
        assert entered is NULL_SPAN
        entered.set_attribute("ignored", True)
    assert first.to_dict() == {}
    assert tracer.traces() == []


def test_force_builds_a_trace_but_does_not_record_when_disabled():
    tracer = Tracer(enabled=False)
    with tracer.span("explain", force=True) as root:
        assert root is not NULL_SPAN
        with tracer.span("stage") as child:  # ambient parent: real span despite disabled
            assert child is not NULL_SPAN
    assert [c.name for c in root.children] == ["stage"]
    assert tracer.traces() == []  # the ring buffer only fills when enabled
    assert tracer.info()["completed_traces"] == 1


def test_ring_buffer_keeps_only_the_newest_traces():
    tracer = Tracer(capacity=3, enabled=True)
    for i in range(5):
        with tracer.span(f"t{i}"):
            pass
    assert [t["name"] for t in tracer.traces()] == ["t2", "t3", "t4"]
    assert [t["name"] for t in tracer.traces(limit=2)] == ["t3", "t4"]
    info = tracer.info()
    assert info == {"enabled": True, "capacity": 3, "buffered": 3, "completed_traces": 5}
    tracer.clear()
    assert tracer.traces() == []
    assert tracer.info()["completed_traces"] == 5  # the counter survives a clear


def test_cross_thread_spans_with_an_explicit_parent(tracer):
    root = tracer.span("scatter")

    def worker(i: int) -> None:
        with tracer.span("shard", parent=root, shard=i):
            pass

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    root.finish()
    assert sorted(c.attributes["shard"] for c in root.children) == [0, 1, 2, 3]
    assert all(c.trace_id == root.trace_id for c in root.children)


def test_copied_context_carries_the_ambient_span(tracer):
    seen: list = []
    with tracer.span("root") as root:
        ctx = contextvars.copy_context()

        def in_thread():
            seen.append(ctx.run(lambda: get_tracer().current_span()))

        thread = threading.Thread(target=in_thread)
        thread.start()
        thread.join()
    assert seen == [root]


def test_grafted_process_records_serialise_with_span_children(tracer):
    with tracer.span("root") as root:
        root.add_child_record({"name": "remote", "children": []})
        with tracer.span("local"):
            pass
    record = root.to_dict()
    assert [c["name"] for c in record["children"]] == ["remote", "local"]


def test_tracer_rejects_zero_capacity():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


# -- engine counters on the registry ---------------------------------------------------


def _stats(strategy="top-down", **overrides):
    base = dict(
        strategy=strategy,
        visited_nodes=5,
        marked_nodes=2,
        result_nodes=2,
        jumps=1,
        text_queries=1,
        used_fm_index=True,
        rank_calls=3,
        select_calls=4,
        kernel_batch_calls=2,
    )
    base.update(overrides)
    return SimpleNamespace(**base)


@pytest.fixture()
def registry():
    """A fresh global registry; restores the previous one afterwards."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


def _engine_totals(registry) -> dict[str, float]:
    return {
        name[len("engine_") :]: registry.get(name).value
        for name in ENGINE_METRICS.declare(registry)
    }


def test_engine_counters_fold_and_reset(registry):
    record_query(_stats("top-down"))
    record_query(_stats("bottom-up", used_fm_index=False))
    snap = _engine_totals(registry)
    assert snap["queries_total"] == 2
    assert snap["queries_top_down_total"] == 1
    assert snap["queries_bottom_up_total"] == 1
    assert snap["visited_nodes_total"] == 10
    assert snap["fm_index_queries_total"] == 1
    assert snap["rank_calls_total"] == 6
    assert snap["select_calls_total"] == 8
    assert snap["kernel_batch_calls_total"] == 4
    # Counters never reset in place: a fresh registry starts at zero, and the
    # engine's cached children follow the swap instead of the old registry.
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        assert all(value == 0 for value in _engine_totals(fresh).values())
        record_query(_stats("top-down"))
        assert _engine_totals(fresh)["queries_total"] == 1
    finally:
        set_registry(previous)
    assert _engine_totals(registry)["queries_total"] == 2


def test_engine_counters_are_exact_when_threads_race_to_bind_a_fresh_registry(registry):
    # Every thread's first record_query resolves the children on the fresh
    # registry at once; an orphaned child would lose its increments.
    start = threading.Barrier(8)

    def work():
        start.wait(timeout=10)
        for _ in range(200):
            record_query(_stats("top-down"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    totals = _engine_totals(registry)
    assert totals["queries_total"] == 1600
    assert totals["visited_nodes_total"] == 1600 * 5


def test_engine_counters_stop_while_the_registry_is_disabled(registry):
    registry.disable()
    try:
        record_query(_stats("top-down"))
    finally:
        registry.enable()
    assert all(value == 0 for value in _engine_totals(registry).values())


def test_engine_folds_into_the_global_counters():
    document = Document.from_string(SMALL_XML)
    before = _engine_totals(get_registry())
    assert document.count("//b") == 2
    after = _engine_totals(get_registry())
    assert after["queries_total"] == before["queries_total"] + 1
    assert after["visited_nodes_total"] >= before["visited_nodes_total"]


# -- EXPLAIN ---------------------------------------------------------------------------


def _span_named(record: dict, name: str) -> dict:
    if record["name"] == name:
        return record
    for child in record["children"]:
        found = _span_named(child, name)
        if found:
            return found
    return {}


def test_document_explain_data_schema():
    document = Document.from_string(SMALL_XML)
    data = document.explain_data('//b[contains(., "hello")]')
    assert data["count"] == document.count('//b[contains(., "hello")]')
    assert data["strategy"] in ("top-down", "bottom-up")
    plan = data["plan"]
    assert plan["strategy"] == data["strategy"]
    assert isinstance(plan["seed_estimate"], int) or plan["seed_estimate"] is None
    assert plan["reasons"]
    steps = data["cardinalities"]["steps"]
    assert steps and all("step" in s and "tag_count" in s for s in steps)
    assert any(s["tag_count"] == 2 for s in steps)  # two <b> elements
    predicates = data["cardinalities"]["text_predicates"]
    assert predicates == [{"predicate": "contains('hello')", "matching_texts": 1}]
    # The span tree covers the whole evaluation: the engine.query stage
    # durations sum to ~the engine.query total, which fits inside the root.
    trace = data["trace"]
    query_span = _span_named(trace, "engine.query")
    assert query_span, "explain trace must contain the engine.query span"
    stages = [c["name"] for c in query_span["children"]]
    assert "engine.parse" in stages and "engine.plan" in stages and "engine.evaluate" in stages
    stage_sum = sum(c["duration_seconds"] for c in query_span["children"])
    assert 0.0 < stage_sum <= query_span["duration_seconds"] * 1.05
    assert query_span["duration_seconds"] <= trace["duration_seconds"] * 1.05


def test_explain_does_not_pollute_the_ring_buffer_when_disabled():
    previous = set_tracer(Tracer(enabled=False))
    try:
        document = Document.from_string(SMALL_XML)
        data = document.explain_data("//c")
        assert data["trace"]["name"] == "explain"
        assert get_tracer().traces() == []
    finally:
        set_tracer(previous)


def test_prepared_query_explain():
    document = Document.from_string(SMALL_XML)
    prepared = prepare_query("//a/b")
    data = prepared.explain(document)
    assert data["strategy"] in ("top-down", "bottom-up")
    assert data["count"] == 2
    assert _span_named(data["trace"], "engine.query")


# -- service-level tracing and shard timings -------------------------------------------


@pytest.fixture()
def small_store(tmp_path):
    store = DocumentStore(tmp_path / "store", num_shards=4, cache_size=4)
    for i in range(4):
        store.add(f"doc{i}", Document.from_string(SMALL_XML))
    return store


def test_thread_service_traces_and_shard_timings(tracer, small_store):
    service = QueryService(small_store, max_workers=2)
    result = service.run("//b", explain=True)
    assert result.total == 8
    assert result.explain and result.explain["strategy"] in ("top-down", "bottom-up")
    assert "cardinalities" in result.explain
    for timing in result.shard_timings:
        assert timing.seconds >= timing.eval_seconds >= 0.0
        assert timing.load_seconds >= 0.0
    roots = tracer.traces()
    assert roots, "an explain run must record a trace"
    sweep = roots[-1]
    assert sweep["name"] == "service.run_many"
    shard_spans = [c for c in sweep["children"] if c["name"] == "service.shard"]
    assert shard_spans
    assert any(_span_named(s, "engine.query") for s in shard_spans)


def test_process_service_grafts_worker_span_records(tracer, small_store):
    with QueryService(small_store, max_workers=2, executor="process") as service:
        result = service.run("//b", explain=True)
        assert result.total == 8
        assert result.explain and "plan" in result.explain
    sweep = tracer.traces()[-1]
    shard_spans = [c for c in sweep["children"] if c["name"] == "service.shard"]
    assert shard_spans and all(s["attributes"].get("executor") == "process" for s in shard_spans)
    assert any(_span_named(s, "engine.query") for s in shard_spans)


def test_shard_timing_round_trip_and_old_payload_compat():
    result = ServiceResult(
        query="//a",
        counts={"d": 2},
        total=2,
        nodes=None,
        failures=[DocumentFailure(doc_id="x", error="CorruptedFileError", message="bad")],
        shard_timings=[
            ShardTiming(shard=1, num_documents=3, seconds=0.5, load_seconds=0.1, eval_seconds=0.4)
        ],
        elapsed_seconds=0.6,
        explain={"strategy": "top-down"},
    )
    rebuilt = service_result_from_json(service_result_to_json(result))
    assert rebuilt == result
    # A payload from a server predating the load/eval split still parses.
    old = service_result_to_json(result)
    for timing in old["shard_timings"]:
        del timing["load_seconds"], timing["eval_seconds"]
    del old["explain"]
    compat = service_result_from_json(old)
    assert compat.shard_timings[0].load_seconds == 0.0
    assert compat.shard_timings[0].eval_seconds == 0.0
    assert compat.explain is None


# -- HTTP surface ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def http_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs-store")
    store = DocumentStore(root, num_shards=4, cache_size=4)
    for i in range(4):
        store.add_xml(f"doc-{i}", SMALL_XML)
    return root


@pytest.fixture(scope="module")
def http_server(http_corpus):
    previous = set_tracer(Tracer(capacity=32, enabled=True))
    service = QueryService(DocumentStore(http_corpus, cache_size=4), max_workers=2)
    try:
        with ReproServer(service, slow_query_ms=0.0) as server:
            yield server
    finally:
        set_tracer(previous)


@pytest.fixture()
def http_client(http_server):
    with ReproClient(*http_server.address) as client:
        yield client


def test_request_id_is_echoed_and_generated(http_client):
    http_client.run("//b", request_id="my.request-1")
    assert http_client.last_request_id == "my.request-1"
    http_client.run("//b")  # client generates one
    assert http_client.last_request_id and len(http_client.last_request_id) == 32


def test_errors_carry_the_request_id(http_client):
    with pytest.raises(XPathSyntaxError, match=r"\[request_id=oops-7\]"):
        http_client.run("///bad[[", request_id="oops-7")
    assert http_client.last_request_id == "oops-7"


def test_explain_over_http(http_client):
    result = http_client.run('//b[contains(., "hello")]', explain=True)
    explain = result.explain
    assert explain["strategy"] in ("top-down", "bottom-up")
    assert explain["plan"]["strategy"] == explain["strategy"]
    assert explain["cardinalities"]["steps"]
    trace = explain["trace"]
    assert trace["name"] == "explain"
    assert trace["request_id"] == http_client.last_request_id
    assert _span_named(trace, "engine.query")
    # Convenience wrapper returns the same payload shape.
    assert set(http_client.explain("//c")) >= {"strategy", "plan", "cardinalities", "trace"}
    # Plain queries carry no explain payload.
    assert http_client.run("//b").explain is None


def test_debug_traces_endpoint(http_client):
    http_client.run("//b")
    payload = http_client.debug_traces(limit=5)
    assert payload["enabled"] is True
    assert payload["capacity"] == 32
    assert 0 < len(payload["traces"]) <= 5
    assert all("name" in t and "children" in t for t in payload["traces"])
    with pytest.raises(ApiError):
        http_client._json("GET", "/v1/debug/traces?limit=banana")


def test_metrics_include_engine_families(http_client):
    http_client.run("//b")
    page = http_client.metrics_text()
    for family in (
        "repro_engine_queries_total",
        "repro_engine_rank_calls_total",
        "repro_engine_select_calls_total",
        "repro_engine_kernel_batch_calls_total",
    ):
        assert f"# TYPE {family} counter" in page
        assert any(line.startswith(f"{family} ") for line in page.splitlines())


def test_access_log_and_slow_query_log(http_server):
    stream = io.StringIO()
    logger = configure_logging(level="info", json_lines=True, stream=stream)
    try:
        with ReproClient(*http_server.address) as client:
            client.run("//b", request_id="logged-1")
    finally:
        for handler in list(logger.handlers):
            logger.removeHandler(handler)
    entries = [json.loads(line) for line in stream.getvalue().splitlines()]
    access = [e for e in entries if e["message"] == "request" and e.get("request_id") == "logged-1"]
    assert access, f"no access-log line in {entries!r}"
    entry = access[0]
    assert entry["route"] == "/v1/query"
    assert entry["status"] == 200
    assert entry["duration_ms"] >= 0.0
    assert entry["shards"] >= 1
    # slow_query_ms=0.0 marks every request slow.
    slow = [e for e in entries if e["message"] == "slow query" and e.get("request_id") == "logged-1"]
    assert slow and slow[0]["level"] == "WARNING"


# -- log formatters --------------------------------------------------------------------


def _record(message="hello world", fields=None):
    record = logging.LogRecord("repro.test", logging.INFO, __file__, 1, message, (), None)
    if fields is not None:
        record.fields = fields
    return record


def test_json_line_formatter():
    line = JsonLineFormatter().format(_record(fields={"request_id": "r1", "duration_ms": 1.5}))
    entry = json.loads(line)
    assert entry["message"] == "hello world"
    assert entry["level"] == "INFO"
    assert entry["logger"] == "repro.test"
    assert entry["request_id"] == "r1"
    assert entry["duration_ms"] == 1.5
    assert entry["time"].endswith("Z")


def test_key_value_formatter():
    line = KeyValueFormatter().format(_record(fields={"route": "/v1/query", "duration_ms": 1.5}))
    assert "hello world" in line
    assert "route=/v1/query" in line
    assert "duration_ms=1.500" in line
    spaced = KeyValueFormatter().format(_record(fields={"q": "a b"}))
    assert 'q="a b"' in spaced
