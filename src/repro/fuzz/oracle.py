"""The differential oracle: one sample, five layers, one answer.

For a (document, query, :class:`IndexOptions`, :class:`EvaluationOptions`)
sample the oracle computes the node set selected by the pointer-DOM baseline
(preorder identifiers) and then demands the *same* answer from:

1. ``engine``   -- the succinct automaton engine, across the whole
   evaluation-options matrix (default, all optimisations off, top-down only,
   eager materialisation), in both materialise and counting mode;
2. ``saveload`` -- the same document after a ``Document.save``/``load``
   round-trip (no XML reparse: the indexes answer alone);
3. ``store``    -- a sharded :class:`~repro.store.document_store.DocumentStore`
   serving the saved index from disk, via ``query`` and ``scatter_gather``;
4. ``service``  -- a :class:`~repro.service.QueryService` scatter-gather sweep
   (``run`` and ``run_many``), compiled-plan cache included;
5. ``http``     -- opt-in: a live ``repro-serve`` process queried through
   :class:`~repro.client.ReproClient` over a real socket.

A query outside the supported fragment must be *rejected identically* by
every layer (same exception class); a query raising anything other than the
documented rejection classes is a crash and always a disagreement.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace

from repro.baseline.dom_engine import DomEngine
from repro.core.document import Document
from repro.core.errors import ReproError, UnsupportedQueryError
from repro.core.options import EvaluationOptions, IndexOptions
from repro.service.query_service import QueryService
from repro.store.document_store import DocumentStore
from repro.xmlmodel.model import build_model
from repro.xpath.parser import XPathSyntaxError

__all__ = [
    "EVAL_MATRIX",
    "INDEX_MATRIX",
    "Disagreement",
    "DocumentOracle",
    "FuzzCase",
    "LiveServer",
    "check_case",
]

#: Evaluation-options configurations every supported query is checked under.
EVAL_MATRIX: dict[str, EvaluationOptions] = {
    "default": EvaluationOptions(),
    "naive": EvaluationOptions.naive(),
    "top-down": EvaluationOptions(allow_bottom_up=False),
    "eager": EvaluationOptions(lazy_result_sets=False, early_evaluation=False),
}

#: Index-options configurations the fuzz loop samples documents from.
INDEX_MATRIX: dict[str, IndexOptions] = {
    "default": IndexOptions(),
    "dense-sampling": IndexOptions(sample_rate=4),
    "no-plain-text": IndexOptions(keep_plain_text=False),
    "tree-only": IndexOptions(text_index="none"),
    "rlcsa": IndexOptions(text_index="rlcsa"),
    "keep-whitespace": IndexOptions(keep_whitespace=True),
    "plain-scan-contains": IndexOptions(contains_cutoff=0),
}

#: Exception classes that count as a *rejection* (expected for queries
#: outside the fragment); anything else raised by a layer is a crash.
_REJECTIONS = (XPathSyntaxError, UnsupportedQueryError)


@dataclass(frozen=True)
class FuzzCase:
    """One replayable sample: a document, a query and the index options."""

    xml: str
    query: str
    index_options: IndexOptions = IndexOptions()
    #: ``"supported"`` (answers must agree) or ``"unsupported"`` (every layer
    #: must reject with the same exception class).
    mode: str = "supported"
    note: str = ""

    def replace(self, **changes) -> "FuzzCase":
        return replace(self, **changes)


@dataclass
class Disagreement:
    """A layer that answered differently from the DOM baseline."""

    layer: str
    query: str
    expected: object
    actual: object
    note: str = ""

    def __str__(self) -> str:
        where = f" ({self.note})" if self.note else ""
        return (
            f"[{self.layer}]{where} query {self.query!r}: "
            f"expected {self.expected!r}, got {self.actual!r}"
        )


def _outcome(fn):
    """Run ``fn`` and normalise the result to an outcome triple.

    ``("ok", nodes)`` for an answer, ``("reject", class_name)`` for a
    documented rejection, ``("crash", class: message)`` for anything else.
    """
    try:
        return ("ok", tuple(fn()))
    except _REJECTIONS as exc:
        return ("reject", type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 - crashes must become findings, not aborts
        return ("crash", f"{type(exc).__name__}: {exc}")


class LiveServer:
    """A ``repro-serve`` subprocess over a scratch store (for the http layer)."""

    def __init__(self, port: int | None = None, timeout: float = 30.0):
        from repro.client import ReproClient

        self._tempdir = tempfile.TemporaryDirectory(prefix="repro-fuzz-http-")
        self.port = port or _free_port()
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.server",
                "--root",
                os.path.join(self._tempdir.name, "store"),
                "--port",
                str(self.port),
                "--shards",
                "4",
                "--cache-size",
                "4",
            ],
            env=env,
        )
        self.client = ReproClient("127.0.0.1", self.port, retries=0, timeout=timeout)
        deadline = time.monotonic() + timeout
        while True:
            try:
                if self.client.healthz()["status"] == "ok":
                    break
            except Exception:
                pass
            if time.monotonic() > deadline:
                self.close()
                raise RuntimeError("repro-serve did not become healthy in time")
            time.sleep(0.1)

    def close(self) -> None:
        try:
            self.client.close()
        except Exception:
            pass
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._tempdir.cleanup()

    def __enter__(self) -> "LiveServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@dataclass
class OracleStats:
    """Counters of what one oracle (or a whole fuzz run) exercised."""

    queries: int = 0
    rejected: int = 0
    layers: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "OracleStats") -> None:
        self.queries += other.queries
        self.rejected += other.rejected
        for layer, count in other.layers.items():
            self.layers[layer] = self.layers.get(layer, 0) + count


class DocumentOracle:
    """All differential layers for one generated document.

    Build once per document, then :meth:`check` many queries against it: the
    expensive work (index construction, save/load, store setup, HTTP ingest)
    happens in the constructor.
    """

    LAYERS = ("engine", "saveload", "store", "service", "http")
    DOC_ID = "fuzz-doc"

    def __init__(
        self,
        xml: str,
        index_options: IndexOptions | None = None,
        layers: tuple[str, ...] = ("engine", "saveload", "store", "service"),
        server: LiveServer | None = None,
        http_doc_id: str | None = None,
    ):
        unknown = set(layers) - set(self.LAYERS)
        if unknown:
            raise ValueError(f"unknown oracle layers: {sorted(unknown)}")
        if "http" in layers and server is None:
            raise ValueError("the http layer needs a LiveServer instance")
        self.xml = xml
        self.options = index_options or IndexOptions()
        self.layers = tuple(layers)
        self.stats = OracleStats()

        model = build_model(xml, keep_whitespace=self.options.keep_whitespace)
        self.document = Document.from_model(model, self.options)
        self.dom = DomEngine(model)

        self._tempdir: tempfile.TemporaryDirectory | None = None
        self.reloaded: Document | None = None
        self.reloaded_heap: Document | None = None
        self.store: DocumentStore | None = None
        self.service: QueryService | None = None
        self.server = server
        self.http_doc_id = http_doc_id or self.DOC_ID
        if {"saveload", "store", "service"} & set(layers):
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-fuzz-")
            path = os.path.join(self._tempdir.name, "doc.sxsi")
            self.document.save(path)
            # Auto-detection maps the (v2) file; the heap twin forces eager
            # copies so mapped and copied reads cross-check each other.
            self.reloaded = Document.load(path)
            self.reloaded_heap = Document.load(path, mapped=False)
            if {"store", "service"} & set(layers):
                self.store = DocumentStore(
                    os.path.join(self._tempdir.name, "store"), num_shards=4, cache_size=2
                )
                self.store.add(self.DOC_ID, self.document)
                if "service" in layers:
                    self.service = QueryService(self.store, max_workers=2)
        if "http" in layers:
            server.client.put_document(self.http_doc_id, xml, self.options, overwrite=True)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        if self.server is not None:
            try:
                self.server.client.delete_document(self.http_doc_id)
            except Exception:
                pass
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def __enter__(self) -> "DocumentOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- per-layer outcomes ------------------------------------------------------------

    def _preorders(self, document: Document, query: str, options: EvaluationOptions | None = None):
        return [document.tree.preorder(node) for node in document.query(query, options)]

    def _service_result_nodes(self, result, doc_id: str):
        """Normalise a ServiceResult-shaped answer (service + http layers).

        Per-document failures are re-surfaced as the exception they carry so
        outcome comparison treats in-process raises and collected failures
        identically; the node list must be consistent with the counts.
        """
        if result.failures:
            failure = result.failures[0]
            if failure.error == "UnsupportedQueryError":
                raise UnsupportedQueryError(failure.message)
            raise ReproError(f"{failure.error}: {failure.message}")
        nodes = (result.nodes or {}).get(doc_id, [])
        if sum(result.counts.values()) != len(nodes):
            raise AssertionError(f"count {sum(result.counts.values())} != nodes {len(nodes)}")
        return [self.document.tree.preorder(int(node)) for node in nodes]

    def _layer_outcomes(self, query: str):
        """Yield ``(layer, label, outcome)`` for every enabled layer."""
        if "engine" in self.layers:
            for label, options in EVAL_MATRIX.items():
                yield "engine", label, _outcome(lambda o=options: self._preorders(self.document, query, o))

            def count_as_nodes():
                count = self.document.count(query)
                nodes = self._preorders(self.document, query)
                if count != len(nodes):
                    raise AssertionError(f"count() = {count} but materialise = {len(nodes)} nodes")
                return nodes

            yield "engine", "counting", _outcome(count_as_nodes)
        if "saveload" in self.layers:
            yield "saveload", "mapped", _outcome(lambda: self._preorders(self.reloaded, query))
            yield "saveload", "heap", _outcome(lambda: self._preorders(self.reloaded_heap, query))
        if "store" in self.layers:
            yield (
                "store",
                "query",
                _outcome(
                    lambda: [self.document.tree.preorder(n) for n in self.store.query(self.DOC_ID, query)]
                ),
            )

            def scatter():
                results = self.store.scatter_gather(lambda _, doc: self._preorders(doc, query))
                return results[self.DOC_ID]

            yield "store", "scatter_gather", _outcome(scatter)
        if "service" in self.layers:
            yield (
                "service",
                "run",
                _outcome(
                    lambda: self._service_result_nodes(
                        self.service.run(query, want_nodes=True), self.DOC_ID
                    )
                ),
            )

            def run_many():
                results = self.service.run_many([query, query], want_nodes=True)
                first = self._service_result_nodes(results[0], self.DOC_ID)
                second = self._service_result_nodes(results[1], self.DOC_ID)
                if first != second:
                    raise AssertionError("run_many gave different answers for duplicate queries")
                return first

            yield "service", "run_many", _outcome(run_many)
        if "http" in self.layers:
            yield (
                "http",
                "run",
                _outcome(
                    lambda: self._service_result_nodes(
                        self.server.client.run(query, doc_ids=[self.http_doc_id], want_nodes=True),
                        self.http_doc_id,
                    )
                ),
            )

    # -- the check ---------------------------------------------------------------------

    def check(self, query: str, mode: str = "supported") -> Disagreement | None:
        """Compare every enabled layer against the DOM baseline for ``query``.

        Returns ``None`` on full agreement, otherwise the first
        :class:`Disagreement`.  In ``"unsupported"`` mode the expectation is
        an identical rejection everywhere instead of an answer.
        """
        self.stats.queries += 1
        expected = _outcome(lambda: self.dom.preorders(query))
        if expected[0] == "crash":
            return Disagreement("baseline", query, "an answer or a rejection", expected, note="dom crash")
        if mode == "unsupported" and expected[0] != "reject":
            return Disagreement(
                "baseline", query, "a rejection (unsupported-mode query)", expected, note="dom accepted"
            )
        if expected[0] == "reject":
            self.stats.rejected += 1
        for layer, label, outcome in self._layer_outcomes(query):
            self.stats.layers[layer] = self.stats.layers.get(layer, 0) + 1
            if outcome != expected:
                return Disagreement(layer, query, expected, outcome, note=label)
        return None


def check_case(
    case: FuzzCase,
    layers: tuple[str, ...] = ("engine", "saveload", "store", "service"),
    server: LiveServer | None = None,
) -> Disagreement | None:
    """Build a one-shot oracle for ``case`` and check it (used by replay/shrink)."""
    try:
        oracle = DocumentOracle(case.xml, case.index_options, layers=layers, server=server)
    except Exception as exc:  # noqa: BLE001 - a document that stops indexing is a finding
        return Disagreement("build", case.query, "an indexable document", f"{type(exc).__name__}: {exc}")
    with oracle:
        return oracle.check(case.query, case.mode)
