"""End-to-end tests of the HTTP server and client over a real socket.

Covers the ISSUE 3 acceptance bar: batch responses value-identical to the
in-process ``QueryService.run_many``, eight concurrent clients served without
event-loop starvation (healthz stays fast), the status mapping of every domain
exception, oversized-request rejection and ``/metrics`` format sanity.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro import (
    CorruptedFileError,
    DocumentNotFoundError,
    DocumentStore,
    IndexOptions,
    QueryService,
    UnsupportedQueryError,
)
from repro.client import ReproClient
from repro.server import ApiError, ReproServer
from repro.xpath.parser import XPathSyntaxError

QUERIES = ["//item", "//item/name", '//item[contains(., "gold")]', "//b"]


def _xml(i: int) -> str:
    items = "".join(
        f"<item><name>thing-{i}-{j}</name>{'gold' if (i + j) % 3 == 0 else 'plain'}</item>"
        for j in range(i % 4 + 1)
    )
    return f"<site>{items}<b>tail-{i}</b></site>"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("http-store")
    store = DocumentStore(root, num_shards=8, cache_size=4)
    for i in range(12):
        store.add_xml(f"doc-{i:02d}", _xml(i))
    return root


@pytest.fixture(scope="module")
def server(corpus):
    service = QueryService(DocumentStore(corpus, cache_size=4), max_workers=2)
    with ReproServer(service, max_body_bytes=256 * 1024) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ReproClient(*server.address) as c:
        yield c


# -- parity with the in-process service ------------------------------------------------


def test_batch_matches_in_process_run_many(server, client, corpus):
    reference = QueryService(DocumentStore(corpus, cache_size=4), max_workers=1)
    expected = reference.run_many(QUERIES, want_nodes=True)
    over_http = client.run_many(QUERIES, want_nodes=True)
    assert [r.query for r in over_http] == [r.query for r in expected]
    for remote, local in zip(over_http, expected):
        assert remote.counts == local.counts
        assert remote.total == local.total
        assert remote.nodes == local.nodes
        assert remote.failures == local.failures
        assert sorted(remote.counts) == sorted(local.counts)


def test_single_query_and_doc_ids_subset(client):
    subset = ["doc-03", "doc-07"]
    result = client.run("//item", doc_ids=subset)
    assert sorted(result.counts) == subset
    assert result.total == sum(result.counts.values())
    assert result.shard_timings  # per-shard breakdown travels over the wire


def test_count_helpers(client, corpus):
    reference = QueryService(DocumentStore(corpus, cache_size=4), max_workers=1)
    assert client.total_count("//item") == reference.total_count("//item")
    assert client.count_all("//b") == reference.count_all("//b")


# -- concurrency: 8 clients, healthz stays responsive ----------------------------------


def test_concurrent_clients_and_healthz_latency(server, corpus):
    reference = QueryService(DocumentStore(corpus, cache_size=4), max_workers=1)
    expected = {r.query: r.counts for r in reference.run_many(QUERIES)}
    errors: list[BaseException] = []
    mismatches: list[str] = []

    def hammer():
        try:
            with ReproClient(*server.address) as c:
                for _ in range(3):
                    for result in c.run_many(QUERIES):
                        if result.counts != expected[result.query]:
                            mismatches.append(result.query)
                        if result.failures:
                            mismatches.append(f"failures for {result.query}")
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    # Probe liveness while the 8 clients are hammering: the event loop must
    # never be starved by index work (it runs on the executor threads).
    probe = ReproClient(*server.address)
    latencies = []
    while any(t.is_alive() for t in threads):
        started = time.perf_counter()
        assert probe.healthz()["status"] == "ok"
        latencies.append(time.perf_counter() - started)
        time.sleep(0.01)
    for thread in threads:
        thread.join()
    probe.close()
    assert not errors, errors
    assert not mismatches, mismatches
    assert latencies, "no healthz probe overlapped the load"
    latencies.sort()
    median = latencies[len(latencies) // 2]
    assert median < 0.1, f"median healthz latency {median:.3f}s"


# -- error mapping ---------------------------------------------------------------------


def test_syntax_error_maps_to_400(client):
    with pytest.raises(XPathSyntaxError):
        client.run("item[")


def test_self_axis_query_served_over_the_wire(client):
    # '/self::a' used to map to 400 (UnsupportedQueryError); the self axis is
    # supported now and the query answers with zero matches everywhere.
    result = client.run("/self::a")
    assert result.total == 0 and not result.failures


def test_unsupported_query_maps_to_400(server, client, monkeypatch):
    # Every parseable query compiles since the self-axis work, so the
    # UnsupportedQueryError->400 mapping is driven by injecting the error at
    # the server's eager-bind validation and asserting the typed re-raise
    # travels the wire.
    sentinel = "//trigger-unsupported"
    real_get = server.service.plan_cache.get

    def fake_get(query, index_options=None):
        if query == sentinel:
            raise UnsupportedQueryError("injected: outside the fragment")
        return real_get(query, index_options)

    monkeypatch.setattr(server.service.plan_cache, "get", fake_get)
    with pytest.raises(UnsupportedQueryError, match="outside the fragment"):
        client.run(sentinel)


def test_unknown_document_maps_to_404(client):
    with pytest.raises(DocumentNotFoundError):
        client.get_document("no-such-doc")
    with pytest.raises(DocumentNotFoundError):
        client.delete_document("no-such-doc")


def test_corrupted_file_maps_to_500(server, client, corpus):
    store = server.service.store
    store.add_xml("corrupt-me", "<a><b>x</b></a>")
    path = corpus / f"shard-{store.shard_of('corrupt-me'):03d}" / "corrupt-me.sxsi"
    path.write_bytes(b"not an index at all")
    try:
        with pytest.raises(CorruptedFileError):
            client.document_stats("corrupt-me")
        # Batch queries keep answering: the bad file becomes a DocumentFailure.
        result = client.run("//b")
        assert any(f.doc_id == "corrupt-me" for f in result.failures)
        assert result.counts  # the healthy documents still answered
    finally:
        store.remove("corrupt-me")


def test_invalid_doc_id_maps_to_400(client):
    with pytest.raises(ApiError) as excinfo:
        client.get_document("..%2F..%2Fescape")
    assert excinfo.value.status == 400


def test_validation_errors(server, client):
    with pytest.raises(ApiError) as excinfo:
        client._json("POST", "/v1/query", {"not_query": 1})
    assert excinfo.value.status == 400
    with pytest.raises(ApiError) as excinfo:
        client._json("POST", "/v1/query/batch", {"queries": []})
    assert excinfo.value.status == 400
    # Options are checked strictly against EvaluationOptions; batch_kernels
    # was removed and must be rejected, not silently ignored.
    for knob in ("bogus_knob", "batch_kernels"):
        with pytest.raises(ApiError) as excinfo:
            client._json("POST", "/v1/query", {"query": "//item", "options": {knob: False}})
        assert excinfo.value.status == 400
        assert knob in str(excinfo.value)
    # Malformed JSON body.
    status, data = client._request("POST", "/v1/query", raw_body=b"{nope")
    assert status == 400
    envelope = json.loads(data)
    assert envelope["error"]["status"] == 400


def test_negative_content_length_gets_400(server):
    # A raw malformed request must get a structured 400, not a dropped socket.
    import socket as socket_module

    with socket_module.create_connection(server.address, timeout=5.0) as sock:
        sock.sendall(b"POST /v1/query HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
        response = sock.recv(65536).decode("latin-1")
    assert response.startswith("HTTP/1.1 400 ")
    assert "invalid Content-Length" in response


def test_unknown_route_and_wrong_method(client):
    status, data = client._request("GET", "/v1/nope")
    assert status == 404
    status, data = client._request("GET", "/v1/query")
    assert status == 405
    assert "POST" in json.loads(data)["error"]["message"]


# -- limits ----------------------------------------------------------------------------


def test_oversized_request_rejected_with_413(server):
    big = "x" * (300 * 1024)  # above the fixture's 256 KiB cap
    connection = http.client.HTTPConnection(*server.address)
    try:
        connection.request(
            "PUT",
            "/v1/documents/too-big",
            body=json.dumps({"xml": big}),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        assert response.status == 413
        assert payload["error"]["status"] == 413
    finally:
        connection.close()
    # The server refused before reading the body and stays healthy.
    with ReproClient(*server.address) as c:
        assert c.healthz()["status"] == "ok"


# -- ingest round-trip -----------------------------------------------------------------


def test_ingest_round_trip_with_options(client):
    xml = "<site><item><name>wire</name>gold</item></site>"
    created = client.put_document("wire-doc", xml, IndexOptions(sample_rate=16, word_index=True))
    assert created["doc_id"] == "wire-doc"
    try:
        info = client.get_document("wire-doc")
        assert info["options"]["sample_rate"] == 16
        assert info["options"]["word_index"] is True
        stats = client.document_stats("wire-doc")
        assert stats["components"]["word_index"]["bits"] > 0
        assert client.run("//item", doc_ids=["wire-doc"]).total == 1
        # PUT without overwrite on an existing id is a storage error (500 family).
        with pytest.raises(Exception) as excinfo:
            client.put_document("wire-doc", xml)
        assert "already exists" in str(excinfo.value)
        # Overwrite goes through and changes the content.
        client.put_document("wire-doc", "<site><item>solo</item></site>", overwrite=True)
        assert client.get_document("wire-doc")["num_nodes"] < info["num_nodes"]
    finally:
        client.delete_document("wire-doc")
    with pytest.raises(DocumentNotFoundError):
        client.get_document("wire-doc")


def test_raw_xml_put(server, client):
    status, data = client._request(
        "PUT", "/v1/documents/raw-doc?overwrite=true", raw_body=b"<a><b>raw</b></a>"
    )
    assert status == 201
    assert json.loads(data)["doc_id"] == "raw-doc"
    assert client.run("//b", doc_ids=["raw-doc"]).total == 1
    client.delete_document("raw-doc")


# -- stats and metrics -----------------------------------------------------------------


def test_stats_endpoint(client):
    stats = client.stats()
    assert stats["store"]["num_documents"] == 12
    assert "plan_cache" in stats["service"]
    assert "store_cache" in stats["service"]
    assert "residency" in stats["store"]["storage"]
    assert stats["process"]["page_size"] > 0


def test_metrics_format(client):
    client.run("//item")  # ensure at least one observed query request
    page = client.metrics_text()
    lines = page.splitlines()
    assert "# TYPE repro_http_requests_total counter" in lines
    assert "# TYPE repro_http_request_seconds histogram" in lines
    # The registry renderer emits label names sorted.
    assert any(
        line.startswith('repro_http_requests_total{method="POST",route="/v1/query",status="200"}')
        for line in lines
    )
    # Histogram invariants: +Inf bucket equals the count, sum present.
    inf = [line for line in lines if 'le="+Inf"' in line and 'route="/v1/query"' in line]
    count = [line for line in lines if line.startswith('repro_http_request_seconds_count{route="/v1/query"}')]
    assert inf and count
    assert inf[0].rsplit(" ", 1)[1] == count[0].rsplit(" ", 1)[1]
    assert any(line.startswith("repro_plan_cache_hit_ratio ") for line in lines)
    assert any(line.startswith("repro_store_cache_resident_documents ") for line in lines)
    # Document ids never appear as route labels.
    assert 'route="/v1/documents/{id}"' in page or "documents" not in page


def test_metrics_page_parses_strictly(client):
    client.run("//item")
    families = client.metrics()  # the strict parser raises on any format slip
    # One family from each instrumented layer rides on the shared registry.
    for family in (
        "repro_http_requests_total",
        "repro_engine_queries_total",
        "repro_store_cache_hits_total",
        "repro_storage_mapped_loads_total",
        "repro_service_sweep_seconds",
        "repro_process_open_fds",
    ):
        assert family in families, family
    assert families["repro_service_sweep_seconds"]["type"] == "histogram"
    # Exactly one header pair per family: the parser enforces it, but assert
    # the old duplicated-# TYPE rendering cannot come back silently.
    lines = client.metrics_text().splitlines()
    type_lines = [line for line in lines if line.startswith("# TYPE ")]
    assert len(type_lines) == len(set(type_lines))


def test_debug_workload_endpoint(server, client):
    from repro.obs.workload import fingerprint, get_workload

    get_workload().reset()
    client.run('//item[contains(., "gold")]', request_id="workload-req-1")
    client.run('//item[contains(., "silver")]', request_id="workload-req-2")
    client.run("//item/name")
    data = client.debug_workload()
    assert data["enabled"] is True
    assert data["total_queries"] == 3
    assert data["sweeps"]["count"] == 3
    shapes = {shape["shape"]: shape for shape in data["shapes"]}
    merged = shapes[fingerprint('//item[contains(., "gold")]')]
    assert merged["queries"] == 2
    assert merged["latency"]["count"] == 2
    assert merged["last_request_id"] == "workload-req-2"
    request_ids = {entry["request_id"] for entry in data["slow_queries"]}
    assert "workload-req-1" in request_ids
    # limit= caps both the shape list and the slow-query table.
    limited = client.debug_workload(limit=1)
    assert len(limited["shapes"]) == 1
    assert len(limited["slow_queries"]) == 1
    assert limited["num_shapes"] == 2


# -- lifecycle -------------------------------------------------------------------------


def test_graceful_shutdown_and_restartable_port(corpus):
    service = QueryService(DocumentStore(corpus, cache_size=2), max_workers=1)
    server = ReproServer(service)
    server.start()
    address = server.address
    with ReproClient(*address) as c:
        assert c.run("//item").total > 0
    server.stop()
    # The port is released and the socket refuses new connections.
    with pytest.raises(ApiError):
        ReproClient(*address, retries=0, timeout=2.0).healthz()
    # stop() is idempotent and the same instance can restart on a fresh port.
    server.stop()
    server.start()
    try:
        with ReproClient(*server.address) as c:
            assert c.healthz()["status"] == "ok"
    finally:
        server.stop()


def test_lazy_package_exports():
    import importlib
    import subprocess
    import sys

    import repro

    assert repro.ReproServer is ReproServer
    assert importlib.import_module("repro.client").ReproClient is ReproClient
    # A fresh interpreter importing repro must not pull the server/client stack.
    code = (
        "import sys, repro; "
        "assert 'repro.server' not in sys.modules and 'repro.client' not in sys.modules; "
        "repro.ReproClient; assert 'repro.client' in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
