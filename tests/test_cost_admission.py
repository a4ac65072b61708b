"""Cost model, pre-flight estimation and admission control (ISSUE 9).

Covers the layers bottom-up: the :mod:`repro.xpath.cost` arithmetic, the
engine's evaluation-free ``plan()`` / EXPLAIN export, the service's
corpus-scaled ``estimate_cost``, the :class:`AdmissionController` decision
logic (with an injected clock), and the HTTP surface -- the
``/v1/query/estimate`` route plus the acceptance criterion: a query exceeding
the configured cost budget gets a **429 with a cost hint** in the error
envelope, before any evaluation starts.
"""

from __future__ import annotations

import pytest

from repro import Document
from repro.client import ReproClient
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.workload import WorkloadAnalytics, set_workload
from repro.server.admission import AdmissionController
from repro.server.http import ReproServer
from repro.server.json_api import ApiError, error_payload, exception_from_payload
from repro.service.query_service import QueryService
from repro.store.document_store import DocumentStore
from repro.xpath.cost import (
    CostEstimate,
    element_candidate_bound,
    estimate_plan_costs,
)
from repro.xpath.planner import PLANNER_METRICS

XML = (
    "<site>"
    "<item><name>gold ring</name>fine</item>"
    "<item><name>tin can</name>plain</item>"
    "<item><name>gold coin</name>rare</item>"
    "</site>"
)


@pytest.fixture(scope="module")
def document():
    return Document.from_string(XML)


@pytest.fixture()
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


# -- cost arithmetic -------------------------------------------------------------------


class TestCostModel:
    def test_element_bound_excludes_specials(self, document):
        # 3 items + 3 names + site = 7 elements; texts/attrs/root excluded.
        assert element_candidate_bound(document.tree) == 7

    def test_element_bound_excludes_attribute_interiors(self):
        doc = Document.from_string('<r a="he" b="we" c="ye" d="ze" e="qe">xe</r>')
        assert element_candidate_bound(doc.tree) == 1

    def test_estimates_are_positive_and_monotone(self, document):
        narrow = document.engine.plan("//item/name")
        wide = document.engine.plan("//*")
        assert narrow.estimated_cost >= 1.0
        assert wide.estimated_cost >= narrow.estimated_cost

    def test_for_strategy_and_as_dict(self):
        estimate = CostEstimate(top_down=100.0, bottom_up=10.0, result=5, depth=3)
        assert estimate.for_strategy("bottom-up") == 10.0
        assert estimate.for_strategy("top-down") == 100.0
        data = estimate.as_dict()
        assert data["unit"] == "node-visits"
        assert data["result_estimate"] == 5
        assert data["depth_hint"] == 3

    def test_anchored_estimate_prefers_bottom_up_for_selective_seeds(self, document):
        prepared = document.engine.prepare('//item[contains(., "gold")]')
        cost = estimate_plan_costs(
            document.tree, prepared.ast, seeds=2, candidates=3, num_text_predicates=1
        )
        assert cost.bottom_up is not None
        assert cost.bottom_up >= 1.0

    def test_tiny_document_answers_exactly(self, document):
        assert document.count('//item[contains(., "gold")]') == 2


class TestEnginePlanExport:
    def test_plan_method_does_not_evaluate(self, document):
        plan = document.engine.plan("//item")
        assert plan.strategy == "top-down"
        assert plan.estimated_cost is not None
        assert plan.result_estimate == 3

    def test_plan_as_dict_carries_costs(self, document):
        data = document.engine.plan('//item[contains(., "gold")]').as_dict()
        assert data["estimated_cost"] is not None
        assert data["costs"]["unit"] == "node-visits"

    def test_explain_reports_estimated_cost(self, document):
        record = document.engine.explain_data("//item/name")
        assert record["estimated_cost"] is not None
        assert record["plan"]["estimated_cost"] == record["estimated_cost"]

    def test_planner_counters_accumulate(self, document, registry):
        PLANNER_METRICS.declare(registry)
        before = registry.counter_snapshot()
        fresh = Document.from_string(XML)  # fresh plan cache -> guaranteed misses
        fresh.engine.plan("//item")
        fresh.engine.plan('//*[contains(text(), "gold")]')
        delta = {
            name[len("planner_") :]: values[()]
            for name, (_, _, values) in registry.counter_snapshot(since=before).items()
            if name.startswith("planner_")
        }
        assert delta["plans_total"] >= 2
        assert delta["wildcard_candidate_fallbacks_total"] >= 1
        assert delta["estimated_cost_total"] > 0


# -- service-level estimation ----------------------------------------------------------


class TestServiceEstimate:
    @pytest.fixture()
    def service(self, tmp_path):
        store = DocumentStore(tmp_path / "est", num_shards=4, cache_size=2)
        for i in range(5):
            store.add_xml(f"doc-{i}", XML)
        svc = QueryService(store, max_workers=1)
        yield svc
        svc.close()
        store.close()

    def test_estimate_scales_by_corpus_size(self, service):
        report = service.estimate_cost(["//item"])
        assert report["num_documents"] == 5
        (entry,) = report["queries"]
        assert entry["total_cost"] == pytest.approx(entry["per_document_cost"] * 5)
        assert report["total_cost"] == entry["total_cost"]

    def test_estimate_respects_doc_ids(self, service):
        full = service.estimate_cost(["//item"])
        narrowed = service.estimate_cost(["//item"], doc_ids=["doc-0", "doc-1"])
        assert narrowed["num_documents"] == 2
        assert narrowed["total_cost"] < full["total_cost"]

    def test_duplicate_queries_charged_once(self, service):
        once = service.estimate_cost(["//item"])
        twice = service.estimate_cost(["//item", "//item"])
        assert twice["total_cost"] == once["total_cost"]
        assert len(twice["queries"]) == 2

    def test_estimate_on_empty_corpus_is_zero(self, tmp_path):
        store = DocumentStore(tmp_path / "empty", num_shards=2)
        service = QueryService(store)
        report = service.estimate_cost(["//item"])
        assert report["num_documents"] == 0
        assert report["total_cost"] == 0.0
        assert report["representative"] is None

    def test_malformed_query_raises_before_reporting(self, service):
        with pytest.raises(Exception):
            service.estimate_cost(["//item["])

    def test_workload_reports_estimated_vs_actual(self, service):
        fresh = WorkloadAnalytics()
        previous = set_workload(fresh)
        try:
            service.run_many(["//item", "//item/name"])
            shapes = fresh.snapshot()["shapes"]
        finally:
            set_workload(previous)
        assert shapes, "run_many should record shapes"
        for shape in shapes:
            assert "estimated_cost" in shape
            assert shape["estimated_cost"]["total"] > 0
            assert shape["estimated_cost"]["estimated_vs_actual"] is not None


# -- admission controller --------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestAdmissionController:
    def test_disabled_controller_admits_everything(self, registry):
        controller = AdmissionController(registry=registry)
        assert not controller.enabled
        release = controller.admit("anyone", 10**12)
        release()

    def test_over_budget_is_429_with_cost_hint(self, registry):
        controller = AdmissionController(cost_budget=100.0, registry=registry)
        with pytest.raises(ApiError) as excinfo:
            controller.admit("c1", 250.0)
        assert excinfo.value.status == 429
        assert excinfo.value.details == {"estimated_cost": 250.0, "cost_budget": 100.0}
        controller.admit("c1", 100.0)()  # at the budget is still admitted

    def test_quota_token_bucket_refills(self, registry):
        clock = FakeClock()
        controller = AdmissionController(
            client_cost_quota=100.0, quota_window_seconds=10.0, clock=clock, registry=registry
        )
        controller.admit("c1", 80.0)()
        with pytest.raises(ApiError) as excinfo:
            controller.admit("c1", 80.0)
        assert excinfo.value.status == 429
        details = excinfo.value.details
        assert details["retry_after_seconds"] == pytest.approx(6.0)
        assert details["remaining_quota"] == pytest.approx(20.0)
        clock.advance(6.0)  # refill rate is 10/s -> 20 + 60 = 80 tokens
        controller.admit("c1", 80.0)()
        # Other clients have independent buckets.
        controller.admit("c2", 100.0)()

    def test_inflight_ceiling_is_503_but_idle_always_admits(self, registry):
        controller = AdmissionController(max_inflight_cost=100.0, registry=registry)
        # A single over-ceiling request is admitted when nothing is inflight.
        big_release = controller.admit("c1", 500.0)
        with pytest.raises(ApiError) as excinfo:
            controller.admit("c2", 1.0)
        assert excinfo.value.status == 503
        assert excinfo.value.details["max_inflight_cost"] == 100.0
        big_release()
        assert controller.inflight_cost == 0.0
        controller.admit("c2", 1.0)()

    def test_release_is_idempotent(self, registry):
        controller = AdmissionController(max_inflight_cost=100.0, registry=registry)
        release = controller.admit("c1", 40.0)
        release()
        release()
        assert controller.inflight_cost == 0.0

    def test_bounded_client_table_evicts_stalest(self, registry):
        clock = FakeClock()
        controller = AdmissionController(
            client_cost_quota=10.0, quota_window_seconds=10.0, max_clients=2, clock=clock, registry=registry
        )
        controller.admit("a", 10.0)()
        clock.advance(0.1)
        controller.admit("b", 10.0)()
        clock.advance(0.1)
        controller.admit("c", 10.0)()  # evicts "a", the stalest bucket
        # "a" returns with a fresh bucket instead of its drained one.
        controller.admit("a", 10.0)()

    def test_describe_previews_budget(self, registry):
        controller = AdmissionController(cost_budget=100.0, registry=registry)
        assert controller.describe(cost=50.0)["would_admit"] is True
        assert controller.describe(cost=150.0)["would_admit"] is False


# -- error envelope --------------------------------------------------------------------


def test_details_round_trip_through_error_envelope():
    original = ApiError(429, "over budget", error_type="over_budget", details={"cost_budget": 10.0})
    payload = error_payload(original, request_id="r1")
    assert payload["error"]["details"] == {"cost_budget": 10.0}
    rebuilt = exception_from_payload(429, payload)
    assert isinstance(rebuilt, ApiError)
    assert rebuilt.status == 429
    assert rebuilt.details == {"cost_budget": 10.0}


# -- HTTP surface ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("admission-store")
    store = DocumentStore(root, num_shards=4, cache_size=4)
    for i in range(6):
        store.add_xml(f"doc-{i}", XML)
    store.close()
    return root


class TestHttpAdmission:
    @pytest.fixture()
    def server(self, corpus):
        service = QueryService(DocumentStore(corpus, cache_size=4), max_workers=2)
        admission = AdmissionController(cost_budget=0.5, client_cost_quota=10**9)
        with ReproServer(service, admission=admission) as srv:
            yield srv
        service.close()

    def test_over_budget_query_gets_429_with_cost_hint(self, server):
        """ISSUE 9 acceptance: early 429 + cost hint instead of a timeout."""
        client = ReproClient(*server.address)
        with pytest.raises(ApiError) as excinfo:
            client.run("//item")
        assert excinfo.value.status == 429
        details = excinfo.value.details
        assert details is not None
        assert details["cost_budget"] == 0.5
        assert details["estimated_cost"] > 0.5

    def test_batch_endpoint_is_also_guarded(self, server):
        client = ReproClient(*server.address)
        with pytest.raises(ApiError) as excinfo:
            client.run_many(["//item", "//item/name"])
        assert excinfo.value.status == 429

    def test_narrowed_request_fits_the_budget(self, server):
        # The hint is actionable: restricting doc_ids shrinks the estimate.
        client = ReproClient(*server.address)
        estimate = client.estimate_cost("//b", doc_ids=["doc-0"])
        assert estimate["num_documents"] == 1
        if estimate["total_cost"] <= 0.5:
            result = client.run("//b", doc_ids=["doc-0"])
            assert result.total == 0

    def test_estimate_endpoint_never_evaluates(self, server):
        client = ReproClient(*server.address)
        estimate = client.estimate_cost(["//item", '//item[contains(., "gold")]'])
        assert estimate["num_documents"] == 6
        assert estimate["total_cost"] > 0
        assert {q["query"] for q in estimate["queries"]} == {
            "//item",
            '//item[contains(., "gold")]',
        }
        assert estimate["admission"]["enabled"] is True
        assert estimate["admission"]["would_admit"] is False  # over the tiny budget

    def test_estimate_endpoint_validates_queries(self, server):
        client = ReproClient(*server.address)
        with pytest.raises(Exception):
            client.estimate_cost("//item[")


class TestHttpQuota:
    def test_quota_exhaustion_by_client_id(self, corpus):
        service = QueryService(DocumentStore(corpus, cache_size=4), max_workers=2)
        probe = QueryService(DocumentStore(corpus, cache_size=4), max_workers=1)
        per_request = probe.estimate_cost(["//item"])["total_cost"]
        probe.close()
        admission = AdmissionController(
            client_cost_quota=per_request * 1.5, quota_window_seconds=3600.0
        )
        with ReproServer(service, admission=admission) as server:
            limited = ReproClient(*server.address, client_id="limited")
            other = ReproClient(*server.address, client_id="other")
            assert limited.run("//item").total == 18
            with pytest.raises(ApiError) as excinfo:
                limited.run("//item")  # second request exceeds 1.5x quota
            assert excinfo.value.status == 429
            assert excinfo.value.details["retry_after_seconds"] > 0
            # A different client id has its own bucket.
            assert other.run("//item").total == 18
        service.close()

    def test_unconfigured_server_admits_everything(self, corpus):
        service = QueryService(DocumentStore(corpus, cache_size=4), max_workers=2)
        with ReproServer(service) as server:
            client = ReproClient(*server.address)
            assert client.run("//item").total == 18
            estimate = client.estimate_cost("//item")
            assert estimate["admission"]["enabled"] is False
        service.close()


def test_serve_cli_builds_admission_controller(tmp_path):
    from repro.server.__main__ import build_parser

    args = build_parser().parse_args(
        [
            "--root",
            str(tmp_path),
            "--cost-budget",
            "5000",
            "--client-cost-quota",
            "100000",
            "--quota-window",
            "30",
            "--max-inflight-cost",
            "20000",
        ]
    )
    assert args.cost_budget == 5000.0
    assert args.client_cost_quota == 100000.0
    assert args.quota_window == 30.0
    assert args.max_inflight_cost == 20000.0
