"""The PR 8 observability layer: registry, strict parser, workload, residency.

Covers the acceptance bar: families render with exactly one HELP/TYPE header
each and survive the strict in-repo parser, counters are exact under thread
concurrency, process-pool counters match inline counts, query shapes
fingerprint stably across literal changes, and mincore residency readings sit
in ``0 < resident <= mapped``.
"""

from __future__ import annotations

import threading

import pytest

from repro import Document, DocumentStore, IndexOptions, QueryService
from repro.obs.metrics import MetricsRegistry, parse_prometheus_text, set_registry
from repro.obs.resources import (
    document_residency,
    mincore_available,
    process_resources,
)
from repro.obs.workload import WorkloadAnalytics, fingerprint, set_workload
from repro.server.metrics import ServerMetrics
from repro.storage.codec import write_format
from repro.workloads import generate_xmark_xml
from repro.xpath.engine import ENGINE_METRICS
from repro.xpath.planner import PLANNER_METRICS

SMALL_XML = "<site><item><name>gold ring</name></item><item><name>tin can</name></item></site>"


@pytest.fixture()
def registry():
    """A fresh global registry; restores the previous one afterwards."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


@pytest.fixture()
def workload():
    """A fresh global workload analytics; restores the previous one afterwards."""
    fresh = WorkloadAnalytics()
    previous = set_workload(fresh)
    try:
        yield fresh
    finally:
        set_workload(previous)


# -- registry basics -------------------------------------------------------------------


def test_counter_gauge_histogram_render_and_parse(registry):
    registry.counter("requests_total", "Requests.", labels=("route", "method")).labels(
        route="/v1/documents/{id}", method="GET"
    ).inc(3)
    registry.gauge("inflight", "In flight.").set(2)
    hist = registry.histogram("latency_seconds", "Latency.", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    page = registry.render()
    families = parse_prometheus_text(page)  # must not raise
    assert families["repro_requests_total"]["type"] == "counter"
    # Label names render sorted, and a `}` inside a label value survives.
    assert 'repro_requests_total{method="GET",route="/v1/documents/{id}"} 3' in page.splitlines()
    samples = {
        (name, tuple(sorted(labels.items()))): value
        for name, labels, value in families["repro_latency_seconds"]["samples"]
    }
    assert samples[("repro_latency_seconds_bucket", (("le", "0.1"),))] == 1
    assert samples[("repro_latency_seconds_bucket", (("le", "1"),))] == 2
    assert samples[("repro_latency_seconds_bucket", (("le", "+Inf"),))] == 3
    assert samples[("repro_latency_seconds_count", ())] == 3


def test_each_family_header_emitted_exactly_once(registry):
    fam = registry.counter("hits_total", "Hits.", labels=("kind",))
    fam.labels(kind="a").inc()
    fam.labels(kind="b").inc()
    lines = registry.render().splitlines()
    assert lines.count("# HELP repro_hits_total Hits.") == 1
    assert lines.count("# TYPE repro_hits_total counter") == 1
    # Every family has both headers (the old renderer skipped # HELP).
    types = [line.split()[2] for line in lines if line.startswith("# TYPE ")]
    helps = [line.split()[2] for line in lines if line.startswith("# HELP ")]
    assert sorted(types) == sorted(helps)


def test_registration_is_idempotent_but_type_mismatch_raises(registry):
    first = registry.counter("x_total", "X.")
    assert registry.counter("x_total", "X again.") is first
    with pytest.raises(ValueError):
        registry.gauge("x_total", "Not a counter.")
    with pytest.raises(ValueError):
        registry.counter("x_total", "Wrong labels.", labels=("a",))


def test_counter_rejects_negative_and_le_label(registry):
    with pytest.raises(ValueError):
        registry.counter("y_total", "Y.").inc(-1)
    with pytest.raises(ValueError):
        registry.histogram("z_seconds", "Z.", labels=("le",))


def test_callback_family_skips_none_and_rebinds(registry):
    holder = {"value": None}
    registry.gauge_callback("resident_bytes", "Resident.", lambda: holder["value"])
    samples = [line for line in registry.render().splitlines() if not line.startswith("#")]
    assert not any(line.startswith("repro_resident_bytes") for line in samples)
    holder["value"] = 42.0
    assert "repro_resident_bytes 42" in registry.render()
    # Newest provider wins.
    registry.gauge_callback("resident_bytes", "Resident.", lambda: 7.0)
    assert "repro_resident_bytes 7" in registry.render()


def test_disabled_registry_noops(registry):
    fam = registry.counter("w_total", "W.")
    registry.disable()
    fam.inc(5)
    registry.histogram("w_seconds", "W.").observe(1.0)
    registry.enable()
    assert fam.value == 0
    fam.inc(2)
    assert fam.value == 2


def test_concurrent_increments_from_threads_are_exact(registry):
    fam = registry.counter("threads_total", "T.")
    child = fam.labels()

    def work():
        for _ in range(1000):
            child.inc()

    threads = [threading.Thread(target=work) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert fam.value == 8000


# -- strict parser rejections ----------------------------------------------------------


@pytest.mark.parametrize(
    "page",
    [
        # Duplicate # TYPE.
        "# TYPE repro_a counter\n# TYPE repro_a counter\nrepro_a 1\n",
        # Header after samples (the old renderer's re-emitted # TYPE).
        "# TYPE repro_a counter\nrepro_a 1\n# TYPE repro_a counter\nrepro_a 2\n",
        # Sample without a declared family.
        "repro_b 1\n",
        # HELP but never a TYPE.
        "# HELP repro_c C.\n",
        # Unsorted label names.
        '# TYPE repro_d counter\nrepro_d{b="1",a="2"} 1\n',
        # Duplicate label names.
        '# TYPE repro_d counter\nrepro_d{a="1",a="2"} 1\n',
        # NaN value.
        "# TYPE repro_e gauge\nrepro_e NaN\n",
        # Non-numeric value.
        "# TYPE repro_f gauge\nrepro_f oops\n",
        # Non-cumulative histogram buckets.
        "# TYPE repro_g histogram\n"
        'repro_g_bucket{le="0.1"} 5\nrepro_g_bucket{le="1"} 3\n'
        'repro_g_bucket{le="+Inf"} 5\nrepro_g_sum 1\nrepro_g_count 5\n',
        # Missing +Inf bucket.
        '# TYPE repro_h histogram\nrepro_h_bucket{le="0.1"} 1\nrepro_h_sum 1\nrepro_h_count 1\n',
        # +Inf bucket disagrees with _count.
        "# TYPE repro_i histogram\n"
        'repro_i_bucket{le="+Inf"} 3\nrepro_i_sum 1\nrepro_i_count 4\n',
        # Unterminated label set.
        '# TYPE repro_j counter\nrepro_j{a="1" 1\n',
    ],
)
def test_parser_rejects_malformed_pages(page):
    with pytest.raises(ValueError):
        parse_prometheus_text(page)


def test_parser_handles_escapes_and_braces_in_label_values():
    page = (
        "# TYPE repro_k counter\n"
        'repro_k{note="a\\"b\\\\c\\nd",route="/v1/documents/{id}"} 1\n'
    )
    families = parse_prometheus_text(page)
    ((_, labels, value),) = families["repro_k"]["samples"]
    assert labels["route"] == "/v1/documents/{id}"
    assert labels["note"] == 'a"b\\c\nd'
    assert value == 1


# -- ServerMetrics façade --------------------------------------------------------------


def test_server_metrics_page_is_strictly_parseable(registry):
    metrics = ServerMetrics()
    metrics.observe_request("/v1/query", "POST", 200, 0.012)
    metrics.observe_rejection("oversized")
    page = metrics.render(gauges={"inflight_requests": 1, "plan_cache_hit_ratio": 0.5})
    families = parse_prometheus_text(page)
    assert families["repro_http_requests_total"]["type"] == "counter"
    assert families["repro_http_request_seconds"]["type"] == "histogram"
    # Engine and planner counters are declared at 0; process resource
    # families ride along as callbacks.
    for name in [*ENGINE_METRICS.declare(registry), *PLANNER_METRICS.declare(registry)]:
        family = families[f"repro_{name}"]
        assert family["type"] == "counter"
        assert family["help"] == registry.get(name).help
        assert [value for _, _, value in family["samples"]] == [0]
    assert "repro_process_max_rss_bytes" in families


def test_server_metrics_non_default_namespace_is_isolated(registry):
    private = ServerMetrics(namespace="other")
    assert private.registry is not registry
    private.observe_request("/x", "GET", 200, 0.001)
    assert "other_http_requests_total" in private.render()
    # Nothing leaked into the default-namespace registry.
    assert registry.get("http_requests_total") is None


# -- counters across processes ---------------------------------------------------------


def test_counter_snapshot_delta_and_merge():
    worker = MetricsRegistry()
    crc = worker.counter("storage_crc_verifications_total", "Checks, by mode.", labels=("mode",))
    crc.labels(mode="eager").inc(2)
    cost = worker.counter("planner_estimated_cost_total", "Sum of estimated plan costs.")
    worker.counter("idle_total", "Never moves.").inc(0)
    worker.counter_callback("process_minor_page_faults_total", "Faults.", lambda: 5)
    worker.gauge("queue_depth", "Depth.").set(3)
    worker.histogram("wait_seconds", "Waits.").observe(0.2)
    before = worker.counter_snapshot()
    assert "process_minor_page_faults_total" not in before
    assert before["storage_crc_verifications_total"][2] == {("eager",): 2}

    crc.labels(mode="eager").inc(3)
    crc.labels(mode="lazy").inc()
    cost.inc(2.5)
    worker.counter("worker_only_total", "Only the worker has it.").inc(4)
    worker.gauge("queue_depth", "Depth.").set(9)
    worker.histogram("wait_seconds", "Waits.").observe(0.4)
    delta = worker.counter_snapshot(since=before)
    # Unchanged children and families, callbacks, gauges and histograms stay home.
    assert set(delta) == {"storage_crc_verifications_total", "planner_estimated_cost_total", "worker_only_total"}
    assert delta["storage_crc_verifications_total"] == ("Checks, by mode.", ("mode",), {("eager",): 3, ("lazy",): 1})

    parent = MetricsRegistry()
    parent_crc = parent.counter("storage_crc_verifications_total", "Checks, by mode.", labels=("mode",))
    parent_crc.labels(mode="eager").inc(10)
    parent.merge_counters(delta)
    parent.merge_counters(delta)
    assert parent_crc.labels(mode="eager").value == 16
    assert parent_crc.labels(mode="lazy").value == 2
    assert parent.get("planner_estimated_cost_total").value == 5.0
    only = parent.get("worker_only_total")
    assert (only.kind, only.help, only.value) == ("counter", "Only the worker has it.", 8)
    for name in ("process_minor_page_faults_total", "queue_depth", "wait_seconds", "idle_total"):
        assert parent.get(name) is None
    families = parse_prometheus_text(parent.render())
    assert families["repro_storage_crc_verifications_total"]["samples"] == [
        ("repro_storage_crc_verifications_total", {"mode": "eager"}, 16.0),
        ("repro_storage_crc_verifications_total", {"mode": "lazy"}, 2.0),
    ]

    # A family merged under a conflicting schema is refused, not silently mixed.
    clash = MetricsRegistry()
    clash.gauge("worker_only_total", "A gauge here.")
    with pytest.raises(ValueError):
        clash.merge_counters(delta)


#: Registry counters a process-executor sweep must bring home from its workers.
_SWEEP_COUNTERS = (
    "store_cache_misses_total",
    "storage_mapped_loads_total",
    "engine_queries_total",
    "engine_visited_nodes_total",
    "engine_result_nodes_total",
    "planner_plans_total",
)


def test_process_executor_counters_match_inline(tmp_path, registry):
    store = DocumentStore(tmp_path / "corpus", num_shards=4, cache_size=4)
    for i in range(4):
        store.add_xml(f"doc-{i}", generate_xmark_xml(scale=0.005, seed=i), IndexOptions(sample_rate=16))
    queries = ["//item", "//item/name"]

    def totals():
        families = parse_prometheus_text(registry.render())
        return {
            name: sum(value for _, _, value in families[f"repro_{name}"]["samples"])
            if f"repro_{name}" in families
            else 0
            for name in _SWEEP_COUNTERS
        }

    def sweep(**service_options):
        # A fresh view of the store, so both sweeps load every document cold.
        before = totals()
        with QueryService(DocumentStore(tmp_path / "corpus"), **service_options) as service:
            results = service.run_many(queries)
        after = totals()
        return results, {name: after[name] - before[name] for name in _SWEEP_COUNTERS}

    inline_results, inline_counts = sweep(max_workers=1)
    process_results, process_counts = sweep(max_workers=2, executor="process")

    assert [r.counts for r in process_results] == [r.counts for r in inline_results]
    # The shipped worker deltas make the parent totals match the inline sweep.
    assert process_counts == inline_counts
    assert inline_counts["engine_queries_total"] == len(queries) * 4
    assert inline_counts["store_cache_misses_total"] == 4
    assert inline_counts["storage_mapped_loads_total"] == 4
    assert inline_counts["planner_plans_total"] == len(queries) * 4


# -- workload analytics ----------------------------------------------------------------


def test_fingerprint_stable_across_literals():
    assert fingerprint('//item[contains(., "gold")]') == fingerprint('//item[contains(., "silver")]')
    assert fingerprint("//a[position() = 3]") == fingerprint("//a[position() = 7]")
    assert fingerprint("//a  [ @id ]") == fingerprint("//a [ @id ]")
    assert fingerprint("//item/name") != fingerprint("//item/price")
    # Literal contents are bucketed, not leaked.
    assert "gold" not in fingerprint('//item[contains(., "gold")]')
    assert "$str" in fingerprint('//item[contains(., "gold")]')


def test_workload_record_and_snapshot(workload):
    workload.record('//a[text()="x"]', 0.002, result_count=5, visited=40, strategies={"top-down": 2})
    workload.record('//a[text()="y"]', 0.004, result_count=1, visited=10, strategies={"top-down": 2})
    workload.record("//b", 0.5, result_count=0, visited=900, failures=1, request_id="req-1")
    workload.record_sweep(0.01, 0.004, 0.005)
    snap = workload.snapshot()
    assert snap["total_queries"] == 3
    assert snap["total_failures"] == 1
    assert snap["num_shapes"] == 2
    assert snap["sweeps"]["count"] == 1
    shapes = {shape["shape"]: shape for shape in snap["shapes"]}
    merged = shapes[fingerprint('//a[text()="x"]')]
    assert merged["queries"] == 2
    assert merged["results"]["total"] == 6
    assert merged["visited"]["max"] == 40
    assert merged["strategies"] == {"top-down": 4}
    assert merged["latency"]["count"] == 2
    # Slowest query first, with its request id.
    assert snap["slow_queries"][0]["query"] == "//b"
    assert snap["slow_queries"][0]["request_id"] == "req-1"


def test_workload_slow_table_is_bounded():
    analytics = WorkloadAnalytics(slow_query_capacity=2)
    analytics.record("//a", 0.3)
    analytics.record("//b", 0.1)
    analytics.record("//c", 0.2)
    slow = analytics.snapshot()["slow_queries"]
    assert [entry["query"] for entry in slow] == ["//a", "//c"]  # //b (fastest) evicted


def test_workload_shape_cap_folds_into_other():
    analytics = WorkloadAnalytics(max_shapes=2)
    analytics.record("//a", 0.001)
    analytics.record("//b", 0.001)
    analytics.record("//c", 0.001)
    analytics.record("//d", 0.001)
    snap = analytics.snapshot()
    shapes = {shape["shape"] for shape in snap["shapes"]}
    assert "(other)" in shapes
    assert snap["total_queries"] == 4


def test_workload_disabled_records_nothing(workload):
    workload.disable()
    workload.record("//a", 0.001)
    workload.record_sweep(0.1, 0.0, 0.1)
    assert workload.snapshot()["total_queries"] == 0
    workload.enable()


def test_workload_estimated_cost_hook(workload):
    workload.record("//a", 0.001, estimated_cost=12.5)
    workload.record("//a", 0.002, estimated_cost=7.5)
    (shape,) = workload.snapshot()["shapes"]
    assert shape["estimated_cost"] == {
        "queries": 2,
        "total": 20.0,
        "avg": 10.0,
        "actual_visited_avg": 0.0,
        "estimated_vs_actual": None,
    }


def test_workload_estimated_vs_actual_ratio(workload):
    workload.record("//a", 0.001, visited=10, estimated_cost=12.5)
    workload.record("//a", 0.002, visited=10, estimated_cost=7.5)
    # A record without an estimate must not dilute the ratio's denominator.
    workload.record("//a", 0.003, visited=1000)
    (shape,) = workload.snapshot()["shapes"]
    assert shape["estimated_cost"]["queries"] == 2
    assert shape["estimated_cost"]["actual_visited_avg"] == 10.0
    assert shape["estimated_cost"]["estimated_vs_actual"] == 1.0


def test_service_records_workload_per_shape(tmp_path, registry, workload):
    store = DocumentStore(tmp_path / "wl", num_shards=2, cache_size=2)
    store.add_xml("d1", SMALL_XML)
    store.add_xml("d2", SMALL_XML)
    service = QueryService(store, max_workers=1)
    service.run_many(
        ['//item[contains(., "gold")]', '//item[contains(., "tin")]', "//item/name"],
        request_id="req-42",
    )
    service.close()
    snap = workload.snapshot()
    assert snap["total_queries"] == 3
    shapes = {shape["shape"]: shape for shape in snap["shapes"]}
    contains_shape = fingerprint('//item[contains(., "gold")]')
    assert shapes[contains_shape]["queries"] == 2
    assert shapes[contains_shape]["last_request_id"] == "req-42"
    assert shapes[contains_shape]["latency"]["count"] == 2
    assert snap["sweeps"]["count"] == 1
    assert snap["sweeps"]["eval_seconds"] > 0
    # The service families folded into the registry as well.
    assert registry.get("service_sweep_seconds") is not None
    page = registry.render()
    parse_prometheus_text(page)
    assert "repro_service_eval_seconds_total" in page


# -- store and storage counters --------------------------------------------------------


def test_store_counters_and_remap_on_revalidate(tmp_path, registry):
    import os

    store = DocumentStore(tmp_path / "store", num_shards=2, cache_size=1)
    path1 = store.add_xml("a", SMALL_XML)
    store.add_xml("b", SMALL_XML)  # evicts "a" (capacity 1)
    assert store.evictions >= 1
    store.get("b")
    assert store.hits >= 1
    store.get("a")  # miss: reload from disk
    assert store.misses >= 1
    os.utime(path1)  # stat revalidation now sees a different mtime
    store.get("a")
    assert store.remaps == 1
    assert store.cache_info()["remaps"] == 1
    for name in (
        "store_cache_hits_total",
        "store_cache_misses_total",
        "store_cache_evictions_total",
        "store_cache_remaps_total",
    ):
        assert registry.get(name) is not None, name
    assert registry.get("store_cache_remaps_total").value == 1


def test_storage_counters_fold_on_load(tmp_path, registry):
    doc = Document.from_string(SMALL_XML)
    path = tmp_path / "doc.sxsi"
    doc.save(path)

    eager = Document.load(path, mapped=True, verify="eager")
    assert registry.get("storage_mapped_loads_total").value == 1
    assert registry.get("storage_mapped_bytes_total").value == path.stat().st_size
    eager_checked = registry.get("storage_crc_verifications_total").labels(mode="eager").value
    assert eager_checked > 0
    eager.close()

    lazy = Document.load(path, mapped=True, verify="lazy")
    checked = lazy.verify_integrity()
    assert checked > 0
    assert registry.get("storage_crc_verifications_total").labels(mode="lazy").value == checked
    lazy.close()

    v1_path = tmp_path / "doc-v1.sxsi"
    with write_format(1):
        doc.save(v1_path)
    v1 = Document.load(v1_path)  # auto mode falls back to the copy reader
    assert registry.get("storage_v1_loads_total").value == 1
    v1.close()
    doc.close()


# -- residency and process resources ---------------------------------------------------


def test_process_resources_shape():
    resources = process_resources()
    assert set(resources) == {
        "rss_bytes",
        "max_rss_bytes",
        "minor_page_faults",
        "major_page_faults",
        "open_fds",
        "page_size",
    }
    assert resources["page_size"] > 0
    if resources["rss_bytes"] is not None:
        assert resources["rss_bytes"] > 0


@pytest.mark.skipif(not mincore_available(), reason="mincore is not available on this platform")
def test_mincore_residency_sanity(tmp_path):
    doc = Document.from_string(generate_xmark_xml(scale=0.01, seed=7))
    path = tmp_path / "resident.sxsi"
    doc.save(path)
    doc.close()
    loaded = Document.load(path, mapped=True)
    assert loaded.count("//item") > 0  # touch mapped pages
    residency = document_residency(loaded)
    assert residency is not None
    assert 0 < residency["resident_bytes"] <= residency["mapped_bytes"]
    assert residency["resident_pages"] <= residency["total_pages"]
    assert 0 < residency["resident_ratio"] <= 1.0
    assert residency["mapped_bytes"] == path.stat().st_size
    stats = loaded.stats()
    assert stats["storage"]["residency"]["resident_bytes"] > 0
    loaded.close()


@pytest.mark.skipif(not mincore_available(), reason="mincore is not available on this platform")
def test_store_mapped_residency_aggregates(tmp_path, registry):
    from repro.store.document_store import register_store_metrics

    builder = DocumentStore(tmp_path / "res", num_shards=2, cache_size=4)
    for doc_id in ("r1", "r2"):
        builder.add_xml(doc_id, generate_xmark_xml(scale=0.005, seed=3))
    builder.close()
    # add() leaves the just-built heap documents resident; a fresh store must
    # load from disk, which maps the v2 files.
    store = DocumentStore(tmp_path / "res", num_shards=2, cache_size=4, mapped=True)
    store.get("r1").count("//item")
    store.get("r2").count("//item")
    aggregate = store.mapped_residency()
    assert aggregate["available"] is True
    assert aggregate["documents"] == 2
    assert 0 < aggregate["resident_bytes"] <= aggregate["mapped_bytes"]
    assert set(aggregate["per_document"]) == {"r1", "r2"}
    register_store_metrics(store, registry)
    page = registry.render()
    parse_prometheus_text(page)
    assert "repro_store_mapped_resident_bytes" in page
    assert "repro_store_mapped_documents 2" in page


def test_heap_document_has_no_residency(tmp_path):
    doc = Document.from_string(SMALL_XML)
    path = tmp_path / "heap.sxsi"
    doc.save(path)
    loaded = Document.load(path, mapped=False)
    assert document_residency(loaded) is None
    assert "residency" not in loaded.stats()["storage"]
    loaded.close()
