"""QueryService: cached plans + parallel scatter-gather over a DocumentStore.

This is the serving layer the ROADMAP's north star asks for: repeated and
batch querying of a sharded corpus at the speed the pipeline allows.

* **Compiled-plan cache** -- a bounded LRU (:class:`~repro.service.PlanCache`)
  keyed by ``(query text, IndexOptions)``.  The parse/compile pipeline of
  :mod:`repro.xpath` runs once per distinct query instead of once per
  (query, document); per-document work shrinks to binding the automaton to
  the document's tag table (memoised per distinct table) plus the evaluation
  itself.

* **Parallel scatter-gather** -- the documents are partitioned by store shard
  (:meth:`~repro.store.document_store.DocumentStore.iter_shards`) and each
  shard is served by one worker, preserving the one-load-per-sweep LRU
  locality of the sequential path.  Workers are threads by default; an
  opt-in ``executor="process"`` runs each shard in a separate process (each
  opens its own view of the store), which pays a fork/pickle tax but
  sidesteps the GIL for CPU-bound automaton runs.

* **Batch API** -- :meth:`QueryService.run_many` evaluates several queries in
  one sweep: every document is loaded once and serves *all* queries while
  resident, so a batch of Q queries over a corpus of N documents costs N
  loads instead of Q*N.

Failures of individual documents (corrupt shard file, concurrent removal) are
surfaced as structured :class:`~repro.store.document_store.DocumentFailure`
entries on the merged result; one bad document never voids the batch.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.errors import ReproError
from repro.core.options import EvaluationOptions
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer
from repro.obs.workload import get_workload
from repro.service.plan_cache import PlanCache
from repro.store.document_store import DocumentFailure, DocumentStore
from repro.xpath.plan import PreparedQuery

__all__ = ["QueryService", "ServiceResult", "ShardTiming"]


def _new_jstats() -> dict:
    """Fresh per-job observability accumulator (4th element of a job's out tuple)."""
    return {"eval_seconds": 0.0, "visited": 0, "failures": 0, "strategies": {}, "estimated_cost": 0.0}


@dataclass(frozen=True)
class ShardTiming:
    """Wall-clock cost of serving one shard in a scatter-gather sweep.

    ``seconds`` is the end-to-end shard time; ``load_seconds`` and
    ``eval_seconds`` split it into store loads (disk + index rebuild, zero on
    LRU hits) versus query evaluation.  The split fields default to zero so
    records serialised before the breakdown existed still round-trip.
    """

    shard: int
    num_documents: int
    seconds: float
    load_seconds: float = 0.0
    eval_seconds: float = 0.0


@dataclass
class ServiceResult:
    """The merged outcome of one query over a corpus.

    ``counts`` (and ``nodes`` when requested) cover the documents that
    answered; ``failures`` lists the ones that did not.  ``shard_timings``
    is the per-shard latency breakdown of the sweep that produced this
    result -- for a batch (:meth:`QueryService.run_many`) the sweep is shared,
    so every result of the batch carries the same timings.
    """

    query: str
    counts: dict[str, int] = field(default_factory=dict)
    total: int = 0
    nodes: dict[str, list[int]] | None = None
    failures: list[DocumentFailure] = field(default_factory=list)
    shard_timings: list[ShardTiming] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: EXPLAIN record (plan, exact cardinalities, statistics) from the first
    #: document that answered; only populated when the sweep ran with
    #: ``explain=True``.
    explain: dict | None = None

    def __len__(self) -> int:
        return self.total

    @property
    def num_documents(self) -> int:
        """Documents that answered."""
        return len(self.counts)

    @property
    def num_failures(self) -> int:
        """Documents that errored instead of answering."""
        return len(self.failures)

    @property
    def slowest_shard(self) -> ShardTiming | None:
        """The shard that dominated the sweep's critical path."""
        return max(self.shard_timings, key=lambda t: t.seconds, default=None)

    def raise_failures(self) -> None:
        """Raise a :class:`ReproError` summarising the failures, if any."""
        if self.failures:
            summary = "; ".join(str(failure) for failure in self.failures)
            raise ReproError(f"{self.num_failures} document(s) failed for {self.query!r}: {summary}")


def _serve_shard(
    store: DocumentStore,
    plans: PlanCache,
    members: Sequence[str],
    jobs: Sequence[tuple[int, str | PreparedQuery]],
    options: EvaluationOptions | None,
    want_nodes: bool,
    explain: bool = False,
) -> tuple[
    dict[int, tuple[dict[str, int], dict[str, list[int]], list[DocumentFailure], dict]], float, float, dict
]:
    """Serve every query of ``jobs`` over every document of one shard.

    The document loop is outermost so a document loaded through the store's
    LRU answers the whole batch while resident (this is what makes
    ``run_many`` cost one load per document, not one per query).

    Returns ``(results, load_seconds, eval_seconds, explains)``: the merged
    per-job results (each job's tuple ends with a ``_new_jstats`` dict of
    per-query eval time, visited nodes, failures and strategy mix -- the raw
    material of the workload analytics), the shard time split into store
    loads versus evaluation, and -- when ``explain`` is set -- one EXPLAIN
    record per job from the first document that answered it.
    """
    out: dict[int, tuple[dict[str, int], dict[str, list[int]], list[DocumentFailure], dict]] = {
        key: ({}, {}, [], _new_jstats()) for key, _ in jobs
    }
    explains: dict[int, dict] = {}
    load_seconds = 0.0
    eval_seconds = 0.0
    for doc_id in members:
        load_started = time.perf_counter()
        try:
            document = store.get(doc_id)
        except (ReproError, OSError) as exc:
            load_seconds += time.perf_counter() - load_started
            failure = DocumentFailure.from_exception(doc_id, exc)
            for key, _ in jobs:
                out[key][2].append(failure)
                out[key][3]["failures"] += 1
            continue
        load_seconds += time.perf_counter() - load_started
        eval_started = time.perf_counter()
        for key, query in jobs:
            counts, nodes, failures, jstats = out[key]
            job_started = time.perf_counter()
            try:
                plan = plans.get(query, document.options)
                result = document.evaluate(plan, options, want_nodes=want_nodes)
            except ReproError as exc:
                jstats["eval_seconds"] += time.perf_counter() - job_started
                jstats["failures"] += 1
                failures.append(DocumentFailure.from_exception(doc_id, exc))
                continue
            jstats["eval_seconds"] += time.perf_counter() - job_started
            stats = result.statistics
            if stats is not None:
                jstats["visited"] += int(getattr(stats, "visited_nodes", 0))
                strategy = getattr(stats, "strategy", None) or "top-down"
                jstats["strategies"][strategy] = jstats["strategies"].get(strategy, 0) + 1
            if result.plan is not None and result.plan.estimated_cost is not None:
                jstats["estimated_cost"] += float(result.plan.estimated_cost)
            counts[doc_id] = result.count
            if want_nodes:
                nodes[doc_id] = [int(node) for node in result.nodes or []]
            if explain and key not in explains and result.plan is not None:
                explains[key] = {
                    "doc_id": doc_id,
                    "strategy": result.plan.strategy,
                    "plan": result.plan.as_dict(),
                    "cardinalities": document.engine.exact_cardinalities(plan),
                    "statistics": result.statistics.as_dict(),
                    "elapsed_seconds": result.elapsed_seconds,
                }
        eval_seconds += time.perf_counter() - eval_started
    return out, load_seconds, eval_seconds, explains


#: Per-worker-process state: one store view and one plan cache per store root,
#: kept alive across tasks.  The pool is persistent (see
#: :attr:`QueryService._pool`), so a worker that served a shard once keeps its
#: documents resident and its plans compiled -- 4 process workers hold
#: 4 x ``cache_size`` documents in aggregate, and repeated queries skip both
#: the disk and the compiler entirely.
_WORKER_STORES: dict[tuple[str, int, bool | None, str | None], DocumentStore] = {}
_WORKER_PLANS: dict[str, PlanCache] = {}


def _serve_shards_in_process(
    root: str,
    cache_size: int,
    mapped: bool | None,
    verify: str | None,
    shard_members: Sequence[tuple[int, Sequence[str]]],
    job_texts: Sequence[tuple[int, str]],
    options: EvaluationOptions | None,
    want_nodes: bool,
    explain: bool = False,
    trace: bool = False,
):
    """Process-pool worker: serve a group of shards from this process's store view.

    When the parent sweep is being traced (``trace``), each shard runs under a
    forced local root span whose finished record is shipped back with the
    results; the parent grafts those records into its own span tree
    (:meth:`~repro.obs.tracing.Span.add_child_record`), so cross-process spans
    appear in the trace exactly like same-process ones.

    Counters work the same way: this worker's registry is a *different*
    process-global than the parent's, so the counter delta accumulated over
    the batch (:meth:`~repro.obs.metrics.MetricsRegistry.counter_snapshot`) is
    shipped back as the second return element and the parent merges it --
    ``/metrics`` in the serving process counts the worker's engine, planner,
    store and storage work exactly like inline sweeps.
    """
    registry = get_registry()
    counters_before = registry.counter_snapshot()
    store = _WORKER_STORES.get((root, cache_size, mapped, verify))
    if store is None:
        # With mapped loads (the default over v2 files) every worker's views
        # resolve to the same physical page-cache pages, so N processes cost
        # one corpus in RAM instead of N.
        store = DocumentStore(root, cache_size=cache_size, mapped=mapped, verify=verify)
        _WORKER_STORES[(root, cache_size, mapped, verify)] = store
    plans = _WORKER_PLANS.get(root)
    if plans is None:
        plans = PlanCache()
        _WORKER_PLANS[root] = plans
    tracer = get_tracer()
    results = []
    for shard, members in shard_members:
        started = time.perf_counter()
        span = tracer.span(
            "service.shard", force=True, shard=shard, num_documents=len(members), executor="process"
        ) if trace else None
        record = None
        if span is not None:
            with span:
                out, load_seconds, eval_seconds, explains = _serve_shard(
                    store, plans, members, job_texts, options, want_nodes, explain
                )
            record = span.to_dict()
        else:
            out, load_seconds, eval_seconds, explains = _serve_shard(
                store, plans, members, job_texts, options, want_nodes, explain
            )
        seconds = time.perf_counter() - started
        results.append((shard, len(members), seconds, load_seconds, eval_seconds, out, explains, record))
    return results, registry.counter_snapshot(since=counters_before)


class QueryService:
    """Serves repeated and batch XPath queries over a :class:`DocumentStore`.

    Parameters
    ----------
    store:
        The sharded corpus to serve.
    max_workers:
        Scatter-gather parallelism (1 = run shards inline, sequentially).
    executor:
        ``"thread"`` (default; workers share the store's LRU) or
        ``"process"`` (each worker opens its own store view -- higher setup
        cost, true CPU parallelism).
    plan_cache_size:
        Capacity of the compiled-plan LRU.
    default_options:
        :class:`EvaluationOptions` applied when a call does not pass its own.
    """

    def __init__(
        self,
        store: DocumentStore,
        max_workers: int = 4,
        executor: str = "thread",
        plan_cache_size: int = 128,
        default_options: EvaluationOptions | None = None,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if executor not in ("thread", "process"):
            raise ValueError(f"executor must be 'thread' or 'process', not {executor!r}")
        self._store = store
        self._max_workers = int(max_workers)
        self._executor = executor
        self._plans = PlanCache(plan_cache_size)
        self._default_options = default_options
        self._pool: list[ProcessPoolExecutor] | None = None

        # Service-layer families on the shared registry; folded once per
        # finished sweep (never inside the shard/evaluation loops).
        registry = get_registry()
        self._m_sweep_seconds = registry.histogram(
            "service_sweep_seconds",
            "End-to-end scatter-gather sweep time, by executor.",
            labels=("executor",),
        )
        self._m_shard_seconds = registry.histogram(
            "service_shard_seconds",
            "Per-shard serve time within a sweep, by executor.",
            labels=("executor",),
        )
        self._m_load_seconds = registry.counter(
            "service_load_seconds_total", "Seconds sweeps spent loading documents from the store."
        )
        self._m_eval_seconds = registry.counter(
            "service_eval_seconds_total", "Seconds sweeps spent evaluating queries."
        )
        self._m_failures = registry.counter(
            "service_document_failures_total",
            "Per-document failures surfaced by sweeps, by exception class.",
            labels=("error",),
        )

    @property
    def store(self) -> DocumentStore:
        """The underlying document store."""
        return self._store

    @property
    def plan_cache(self) -> PlanCache:
        """The compiled-plan LRU."""
        return self._plans

    # -- single-query API --------------------------------------------------------------

    def run(
        self,
        query: str | PreparedQuery,
        doc_ids: Iterable[str] | None = None,
        want_nodes: bool = False,
        options: EvaluationOptions | None = None,
        explain: bool = False,
        request_id: str | None = None,
    ) -> ServiceResult:
        """Evaluate ``query`` over the corpus (or ``doc_ids``), scatter-gather."""
        return self.run_many(
            [query],
            doc_ids=doc_ids,
            want_nodes=want_nodes,
            options=options,
            explain=explain,
            request_id=request_id,
        )[0]

    def count_all(self, query: str | PreparedQuery, doc_ids: Iterable[str] | None = None) -> dict[str, int]:
        """Per-document counts, like :meth:`DocumentStore.count_all` but parallel."""
        return self.run(query, doc_ids=doc_ids).counts

    def total_count(self, query: str | PreparedQuery, doc_ids: Iterable[str] | None = None) -> int:
        """Corpus-wide count of ``query``."""
        return self.run(query, doc_ids=doc_ids).total

    # -- batch API ---------------------------------------------------------------------

    def run_many(
        self,
        queries: Sequence[str | PreparedQuery],
        doc_ids: Iterable[str] | None = None,
        want_nodes: bool = False,
        options: EvaluationOptions | None = None,
        explain: bool = False,
        request_id: str | None = None,
    ) -> list[ServiceResult]:
        """Evaluate a batch of queries in one sweep over the corpus.

        Queries are grouped by compiled plan (duplicate texts are evaluated
        once) and every document answers the whole batch while resident, so
        the store's LRU sees one load per document regardless of batch size.
        Returns one :class:`ServiceResult` per input query, in order.

        With ``explain=True`` the sweep runs under a forced trace and every
        result carries an EXPLAIN record (plan, exact cardinalities,
        statistics) from the first document that answered its query.

        ``request_id`` (the server passes its per-request id) tags the sweep's
        entries in the workload analytics' slow-query table.
        """
        started = time.perf_counter()
        options = options if options is not None else self._default_options
        shards = self._store.iter_shards(doc_ids)
        tracer = get_tracer()

        with tracer.span(
            "service.run_many", force=explain, num_queries=len(queries), executor=self._executor
        ) as sweep_span:
            # Group by plan: one job per distinct query; remember which input
            # positions each job answers.
            jobs: list[tuple[int, str | PreparedQuery]] = []
            job_of: dict[object, int] = {}
            positions: list[int] = []
            for query in queries:
                dedup_key = query if isinstance(query, str) else id(query)
                job = job_of.get(dedup_key)
                if job is None:
                    job = len(jobs)
                    job_of[dedup_key] = job
                    jobs.append((job, query))
                    # Parse eagerly so a malformed query fails the call, not a worker.
                    self._plans.get(query)
                positions.append(job)
            sweep_span.set_attribute("num_jobs", len(jobs))
            sweep_span.set_attribute("num_shards", len(shards))

            merged: dict[
                int, tuple[dict[str, int], dict[str, list[int]], list[DocumentFailure], dict]
            ] = {key: ({}, {}, [], _new_jstats()) for key, _ in jobs}
            explains: dict[int, dict] = {}
            timings: list[ShardTiming] = []
            if jobs and shards:
                sweep = self._sweep(shards, jobs, options, want_nodes, explain, sweep_span)
                for shard, num_documents, seconds, load_s, eval_s, out, shard_explains, record in sweep:
                    timings.append(
                        ShardTiming(
                            shard=shard,
                            num_documents=num_documents,
                            seconds=seconds,
                            load_seconds=load_s,
                            eval_seconds=eval_s,
                        )
                    )
                    if record:
                        sweep_span.add_child_record(record)
                    for key, value in shard_explains.items():
                        explains.setdefault(key, value)
                    for key, (counts, nodes, failures, jstats) in out.items():
                        merged[key][0].update(counts)
                        merged[key][1].update(nodes)
                        merged[key][2].extend(failures)
                        into = merged[key][3]
                        into["eval_seconds"] += jstats["eval_seconds"]
                        into["visited"] += jstats["visited"]
                        into["failures"] += jstats["failures"]
                        into["estimated_cost"] += jstats.get("estimated_cost", 0.0)
                        for strategy, uses in jstats["strategies"].items():
                            into["strategies"][strategy] = into["strategies"].get(strategy, 0) + uses
            timings.sort(key=lambda t: t.shard)

        elapsed = time.perf_counter() - started
        self._record_observability(jobs, merged, timings, elapsed, request_id)
        results: list[ServiceResult] = []
        for query, job in zip(queries, positions):
            counts, nodes, failures, _jstats = merged[job]
            text = query if isinstance(query, str) else query.text
            results.append(
                ServiceResult(
                    query=text,
                    counts=dict(counts),
                    total=sum(counts.values()),
                    nodes=dict(nodes) if want_nodes else None,
                    failures=list(failures),
                    shard_timings=timings,
                    elapsed_seconds=elapsed,
                    explain=explains.get(job),
                )
            )
        return results

    def _record_observability(self, jobs, merged, timings, elapsed, request_id) -> None:
        """Fold one finished sweep into the shared metrics and workload analytics.

        Runs once per ``run_many`` -- after the sweep, off every hot loop.
        Per-query eval time, visited nodes, strategy mix and failures come
        from the jobs' jstats accumulators; shard/load/eval timings from the
        sweep's :class:`ShardTiming` list.  Duplicate input queries were
        deduplicated into one job and are recorded once (that is the work
        actually done).
        """
        if not jobs:
            return
        load_total = sum(timing.load_seconds for timing in timings)
        eval_total = sum(timing.eval_seconds for timing in timings)
        self._m_sweep_seconds.labels(executor=self._executor).observe(elapsed)
        for timing in timings:
            self._m_shard_seconds.labels(executor=self._executor).observe(timing.seconds)
        if load_total:
            self._m_load_seconds.inc(load_total)
        if eval_total:
            self._m_eval_seconds.inc(eval_total)
        workload = get_workload()
        workload.record_sweep(elapsed, load_total, eval_total)
        for key, query in jobs:
            counts, _nodes, failures, jstats = merged[key]
            for failure in failures:
                self._m_failures.labels(error=failure.error).inc()
            workload.record(
                query if isinstance(query, str) else query.text,
                jstats["eval_seconds"],
                result_count=sum(counts.values()),
                visited=jstats["visited"],
                strategies=jstats["strategies"],
                failures=len(failures),
                request_id=request_id,
                estimated_cost=jstats["estimated_cost"] if counts else None,
            )

    # -- cost estimation ---------------------------------------------------------------

    def estimate_cost(
        self,
        queries: Sequence[str | PreparedQuery],
        doc_ids: Iterable[str] | None = None,
        options: EvaluationOptions | None = None,
    ) -> dict:
        """Pre-flight cost estimate for a batch, without evaluating anything.

        Plans each distinct query against one *representative* document (a
        resident one when the LRU has any, else the first of the first shard)
        and scales the per-document estimate by the number of documents the
        sweep would touch.  Planning only reads the succinct cardinality
        directories and the FM-index, so the estimate is cheap enough to run
        on every request -- this is what the server's admission control calls
        before committing a thread to the sweep.

        Returns ``{"num_documents", "representative", "total_cost",
        "unit", "queries": [{"query", "strategy", "per_document_cost",
        "total_cost", "result_estimate"}, ...]}``.  Malformed queries raise
        exactly as :meth:`run_many` would (the plan cache parses eagerly).
        """
        options = options if options is not None else self._default_options
        shards = self._store.iter_shards(doc_ids)
        num_documents = sum(len(members) for _, members in shards)
        report: dict = {
            "num_documents": num_documents,
            "representative": None,
            "total_cost": 0.0,
            "unit": "node-visits",
            "queries": [],
        }
        for query in queries:  # parse eagerly even over an empty corpus
            self._plans.get(query)
        if num_documents == 0:
            report["queries"] = [
                {
                    "query": query if isinstance(query, str) else query.text,
                    "strategy": None,
                    "per_document_cost": 0.0,
                    "total_cost": 0.0,
                    "result_estimate": 0,
                }
                for query in queries
            ]
            return report
        resident = set(self._store.resident_ids())
        representative = next(
            (doc_id for _, members in shards for doc_id in members if doc_id in resident),
            shards[0][1][0],
        )
        document = self._store.get(representative)
        report["representative"] = representative
        entries: list[dict] = []
        per_query: dict[str, dict] = {}
        total = 0.0
        for query in queries:
            text = query if isinstance(query, str) else query.text
            entry = per_query.get(text)
            if entry is None:
                prepared = self._plans.get(query, document.options)
                plan = document.engine.plan(prepared, options)
                per_document = float(plan.estimated_cost or 0.0)
                entry = {
                    "query": text,
                    "strategy": plan.strategy,
                    "per_document_cost": round(per_document, 3),
                    "total_cost": round(per_document * num_documents, 3),
                    "result_estimate": plan.result_estimate,
                }
                per_query[text] = entry
                # Duplicates are deduplicated by run_many, so the batch total
                # charges each distinct query once.
                total += entry["total_cost"]
            entries.append(dict(entry))
        report["queries"] = entries
        report["total_cost"] = round(total, 3)
        return report

    # -- execution ---------------------------------------------------------------------

    def _sweep(self, shards, jobs, options, want_nodes, explain, sweep_span):
        """Yield one extended timing/result tuple per shard.

        Each item is ``(shard, num_documents, seconds, load_seconds,
        eval_seconds, results, explains, span_record)``; ``span_record`` is a
        serialised cross-process span tree (processes only, ``None``
        otherwise -- in-process shard spans attach to the ambient trace
        directly).
        """
        if self._executor == "process":
            yield from self._sweep_processes(shards, jobs, options, want_nodes, explain, sweep_span)
        elif self._max_workers == 1 or len(shards) == 1:
            tracer = get_tracer()
            for shard, members in shards:
                shard_started = time.perf_counter()
                with tracer.span("service.shard", shard=shard, num_documents=len(members)):
                    out, load_s, eval_s, explains = _serve_shard(
                        self._store, self._plans, members, jobs, options, want_nodes, explain
                    )
                seconds = time.perf_counter() - shard_started
                yield shard, len(members), seconds, load_s, eval_s, out, explains, None
        else:
            yield from self._sweep_threads(shards, jobs, options, want_nodes, explain, sweep_span)

    def _sweep_threads(self, shards, jobs, options, want_nodes, explain, sweep_span):
        tracer = get_tracer()
        # Pool threads do not inherit this task's contextvars, so the sweep
        # span is handed to each worker as the explicit span parent.
        parent = sweep_span if sweep_span else None

        def worker(shard, members):
            shard_started = time.perf_counter()
            with tracer.span(
                "service.shard", parent=parent, shard=shard, num_documents=len(members)
            ):
                served = _serve_shard(self._store, self._plans, members, jobs, options, want_nodes, explain)
            return time.perf_counter() - shard_started, served

        workers = min(self._max_workers, len(shards))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [(shard, members, pool.submit(worker, shard, members)) for shard, members in shards]
            for shard, members, future in futures:
                seconds, (out, load_s, eval_s, explains) = future.result()
                yield shard, len(members), seconds, load_s, eval_s, out, explains, None

    def _sweep_processes(self, shards, jobs, options, want_nodes, explain, sweep_span):
        job_texts = [(key, query if isinstance(query, str) else query.text) for key, query in jobs]
        root = str(self._store.root)
        cache_size = self._store.cache_size
        trace = bool(sweep_span)
        if self._pool is None:
            # One single-worker pool per slot: shard groups are routed to a
            # *fixed* worker (``shard % max_workers``), so each process keeps
            # its share of the corpus resident across calls -- a warm service
            # holds max_workers x cache_size documents in aggregate and
            # answers repeated queries without touching disk or the compiler.
            self._pool = [ProcessPoolExecutor(max_workers=1) for _ in range(self._max_workers)]
        groups: dict[int, list[tuple[int, Sequence[str]]]] = {}
        for shard, members in shards:
            groups.setdefault(shard % self._max_workers, []).append((shard, members))
        futures = [
            self._pool[slot].submit(
                _serve_shards_in_process,
                root,
                cache_size,
                self._store.mapped,
                self._store.verify,
                group,
                job_texts,
                options,
                want_nodes,
                explain,
                trace,
            )
            for slot, group in sorted(groups.items())
        ]
        for future in futures:
            results, counter_delta = future.result()
            # Work done in the pool counted into *that* process's registry;
            # merge the shipped delta so this process's /metrics is complete.
            get_registry().merge_counters(counter_delta)
            yield from results

    def close(self) -> None:
        """Shut down the worker pools (no-op for the thread executor)."""
        if self._pool is not None:
            for pool in self._pool:
                pool.shutdown()
            self._pool = None

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- statistics --------------------------------------------------------------------

    def cache_info(self) -> dict:
        """Plan-cache and store-cache counters, for sizing the two LRUs."""
        return {"plan_cache": self._plans.info(), "store_cache": self._store.cache_info()}

    def __repr__(self) -> str:
        return (
            f"QueryService(store={str(self._store.root)!r}, max_workers={self._max_workers}, "
            f"executor={self._executor!r}, plans={len(self._plans)})"
        )
