"""Process-wide metrics registry: labeled counters, gauges and histograms.

The dependency-free counterpart of ``prometheus_client`` every layer of the
stack reports into.  A :class:`MetricsRegistry` holds *families* -- a metric
name plus a fixed label schema -- and each family holds one child per label
combination.  The store, the query service and the storage codec register
their instruments here at import time, without knowing about the HTTP server;
``ServerMetrics`` (:mod:`repro.server.metrics`) is a thin façade that renders
the same registry as the ``/metrics`` page.

Design rules:

* **Updates are cheap and thread-safe** (one small lock per family), but they
  belong at query/load *completion*, never inside rank/select hot loops: the
  engine folds each finished query's statistics into its ``engine_*``
  counters once, through children resolved once per registry
  (:class:`CounterGroup`).
* **Scrape-time values go through callbacks**: a family registered with
  :meth:`MetricsRegistry.gauge_callback` / :meth:`~MetricsRegistry.counter_callback`
  computes its value when the page renders (RSS, page faults, mapped-page
  residency), so nothing polls in the background.
* **Counters cross process boundaries as deltas**: a process-pool worker takes
  :meth:`MetricsRegistry.counter_snapshot` before its shards and ships the
  ``since=`` delta home with the results, where the serving process folds it
  in with :meth:`MetricsRegistry.merge_counters`.
* **Rendering emits each family header exactly once** (``# HELP`` then
  ``# TYPE``), with label names sorted -- the strict in-repo parser
  (:func:`parse_prometheus_text`) and the e2e smoke both enforce this.
* **The registry can be disabled** (:meth:`MetricsRegistry.disable`): every
  ``inc``/``set``/``observe`` becomes a no-op, which is what the
  ``metrics_overhead_ratio`` benchmark sweep measures against.

A process-global registry (:func:`get_registry`) mirrors the global tracer:
library layers attach to it by default and tests may swap it out with
:func:`set_registry`.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Iterable, Mapping

__all__ = [
    "MetricsRegistry",
    "MetricFamily",
    "CounterGroup",
    "DEFAULT_BUCKETS",
    "get_registry",
    "set_registry",
    "parse_prometheus_text",
]

#: Default histogram upper bounds in seconds, chosen around the paper's query
#: costs: sub-millisecond cached counts up to multi-second cold corpus sweeps.
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    # Prometheus accepts integers and floats; keep integers exact.
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(value)


def _labels_text(pairs: Mapping[str, str]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(pairs[name]))}"' for name in sorted(pairs)
    )
    return "{" + inner + "}"


class _Counter:
    """A monotonically increasing child; negative increments are rejected."""

    __slots__ = ("_family", "value")

    def __init__(self, family: "MetricFamily"):
        self._family = family
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        if not self._family._registry._enabled:
            return
        with self._family._lock:
            self.value += amount


class _Gauge:
    """A settable child (current value semantics)."""

    __slots__ = ("_family", "value")

    def __init__(self, family: "MetricFamily"):
        self._family = family
        self.value = 0.0

    def set(self, value: float) -> None:
        if not self._family._registry._enabled:
            return
        with self._family._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        if not self._family._registry._enabled:
            return
        with self._family._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)


class _Histogram:
    """Cumulative-bucket histogram child."""

    __slots__ = ("_family", "counts", "inf", "total", "sum")

    def __init__(self, family: "MetricFamily"):
        self._family = family
        self.counts = [0] * len(family.buckets)
        self.inf = 0
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        if not self._family._registry._enabled:
            return
        with self._family._lock:
            self.total += 1
            self.sum += value
            for i, bound in enumerate(self._family.buckets):
                if value <= bound:
                    self.counts[i] += 1
                    return
            self.inf += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` rows; the +Inf row is implicit
        (it always equals :attr:`total`)."""
        running = 0
        rows: list[tuple[float, int]] = []
        for bound, count in zip(self._family.buckets, self.counts):
            running += count
            rows.append((bound, running))
        return rows


_KINDS = ("counter", "gauge", "histogram")


class MetricFamily:
    """One metric name + label schema; holds a child per label combination."""

    __slots__ = ("name", "help", "kind", "labelnames", "buckets", "callback", "_registry", "_lock", "_children")

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        kind: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
        callback: Callable[[], float | None] | None = None,
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label) or label == "le":
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        if callback is not None and labelnames:
            raise ValueError(f"callback metric {name!r} cannot take labels")
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(sorted(buckets)) if buckets is not None else None
        self.callback = callback
        self._registry = registry
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def _new_child(self):
        if self.kind == "counter":
            return _Counter(self)
        if self.kind == "gauge":
            return _Gauge(self)
        return _Histogram(self)

    def labels(self, **labels: str):
        """The child for one label combination (created on first use)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._new_child())
        return child

    def _default_child(self):
        if self.labelnames:
            raise ValueError(f"metric {self.name!r} is labeled; use .labels(...)")
        return self.labels()

    # Label-less convenience: family.inc() / .set() / .observe() hit the
    # single implicit child.
    def inc(self, amount: float = 1) -> None:
        self._default_child().inc(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def value(self) -> float:
        """Current value of the label-less child (0 before any update)."""
        child = self._default_child()
        return child.value if not isinstance(child, _Histogram) else child.total

    def _samples(self) -> list[tuple[str, dict[str, str], float]]:
        """``(sample_name, labels, value)`` rows in stable (sorted) order."""
        if self.callback is not None:
            value = self.callback()
            return [] if value is None else [(self.name, {}, value)]
        rows: list[tuple[str, dict[str, str], float]] = []
        with self._lock:
            children = sorted(self._children.items())
        for key, child in children:
            labels = dict(zip(self.labelnames, key))
            if isinstance(child, _Histogram):
                with self._lock:
                    cumulative = child.cumulative()
                    total, amount = child.total, child.sum
                for bound, count in cumulative:
                    rows.append((self.name + "_bucket", {**labels, "le": _format_value(bound)}, count))
                rows.append((self.name + "_bucket", {**labels, "le": "+Inf"}, total))
                rows.append((self.name + "_sum", labels, amount))
                rows.append((self.name + "_count", labels, total))
            else:
                rows.append((self.name, labels, child.value))
        return rows


class MetricsRegistry:
    """Thread-safe collection of metric families with Prometheus rendering.

    Re-registering a family with the same name, kind and label schema returns
    the existing family (so modules can declare their instruments at import
    time idempotently); a mismatched re-registration raises ``ValueError``.
    """

    def __init__(self, namespace: str = "repro"):
        if not _NAME_RE.match(namespace):
            raise ValueError(f"invalid metrics namespace {namespace!r}")
        self.namespace = namespace
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}
        self._enabled = True

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        """Resume recording (the default state)."""
        self._enabled = True

    def disable(self) -> None:
        """Make every ``inc``/``set``/``observe`` a no-op (overhead benchmarking)."""
        self._enabled = False

    # -- registration ------------------------------------------------------------------

    def _register(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] | None = None,
        callback: Callable[[], float | None] | None = None,
    ) -> MetricFamily:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} is already registered as a {existing.kind} "
                        f"with labels {existing.labelnames}"
                    )
                if callback is not None:
                    # Callback families are rebindable: the newest provider
                    # wins (e.g. the most recently started server's store).
                    existing.callback = callback
                return existing
            family = MetricFamily(
                self,
                name,
                help_text,
                kind,
                labelnames,
                buckets=tuple(buckets) if buckets is not None else None,
                callback=callback,
            )
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str, labels: Iterable[str] = ()) -> MetricFamily:
        """Register (or look up) a counter family."""
        return self._register(name, help_text, "counter", labels)

    def gauge(self, name: str, help_text: str, labels: Iterable[str] = ()) -> MetricFamily:
        """Register (or look up) a gauge family."""
        return self._register(name, help_text, "gauge", labels)

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Register (or look up) a histogram family."""
        return self._register(name, help_text, "histogram", labels, buckets=buckets)

    def counter_callback(self, name: str, help_text: str, fn: Callable[[], float | None]) -> MetricFamily:
        """A label-less counter whose value is computed at render time."""
        return self._register(name, help_text, "counter", callback=fn)

    def gauge_callback(self, name: str, help_text: str, fn: Callable[[], float | None]) -> MetricFamily:
        """A label-less gauge whose value is computed at render time."""
        return self._register(name, help_text, "gauge", callback=fn)

    def get(self, name: str) -> MetricFamily | None:
        """The registered family under ``name`` (without namespace), if any."""
        with self._lock:
            return self._families.get(name)

    # -- cross-process counter deltas --------------------------------------------------

    def counter_snapshot(self, since: Mapping | None = None) -> dict:
        """Every non-callback counter child: ``{name: (help, labelnames, {label_values: value})}``.

        With ``since`` (an earlier snapshot of this registry) the values are
        the increments since then, and unchanged children and families are
        left out.  That delta is what :meth:`merge_counters` folds into another
        registry; it carries each family's help text and label names, so the
        receiver can register a family only the sender has.  Callback families,
        gauges and histograms are not included.
        """
        with self._lock:
            families = [f for f in self._families.values() if f.kind == "counter" and f.callback is None]
        snapshot: dict[str, tuple] = {}
        for family in families:
            with family._lock:
                values = {key: child.value for key, child in family._children.items()}
            if since is not None:
                earlier = since[family.name][2] if family.name in since else {}
                values = {
                    key: value - earlier.get(key, 0)
                    for key, value in values.items()
                    if value != earlier.get(key, 0)
                }
                if not values:
                    continue
            snapshot[family.name] = (family.help, family.labelnames, values)
        return snapshot

    def merge_counters(self, delta: Mapping) -> None:
        """Add a :meth:`counter_snapshot` delta taken in another registry (or process)."""
        for name, (help_text, labelnames, values) in delta.items():
            family = self.counter(name, help_text, labelnames)
            for key, amount in values.items():
                family.labels(**dict(zip(labelnames, key))).inc(amount)

    # -- rendering ---------------------------------------------------------------------

    def render(self) -> str:
        """The full Prometheus text page: one HELP+TYPE header per family,
        samples with sorted label names, families in name order."""
        ns = self.namespace
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        lines: list[str] = []
        for family in families:
            full = f"{ns}_{family.name}"
            lines.append(f"# HELP {full} {family.help}")
            lines.append(f"# TYPE {full} {family.kind}")
            for sample_name, labels, value in family._samples():
                lines.append(f"{ns}_{sample_name}{_labels_text(labels)} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """A JSON-friendly snapshot of every family and sample."""
        ns = self.namespace
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        out: dict[str, dict] = {}
        for family in families:
            out[f"{ns}_{family.name}"] = {
                "type": family.kind,
                "help": family.help,
                "labels": list(family.labelnames),
                "samples": [
                    {"name": f"{ns}_{name}", "labels": labels, "value": value}
                    for name, labels, value in family._samples()
                ],
            }
        return out


# -- the process-global registry ---------------------------------------------------------

_REGISTRY = MetricsRegistry()
_REGISTRY_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-global registry every library layer reports into."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (tests); returns the previous one."""
    global _REGISTRY
    with _REGISTRY_LOCK:
        previous, _REGISTRY = _REGISTRY, registry
    return previous


class CounterGroup:
    """The label-less counter families one layer records into the global registry.

    :meth:`declare` registers the families on a registry (idempotently, so a
    fresh ``/metrics`` page lists them at 0) and returns their children by
    name.  :meth:`children` does that once per global registry and keeps the
    result, so a per-query fold is a few ``child.inc`` calls rather than name
    lookups -- and it follows :func:`set_registry` swaps.
    """

    __slots__ = ("_help", "_bound")

    def __init__(self, help_texts: Mapping[str, str]):
        self._help = dict(help_texts)
        self._bound: tuple[MetricsRegistry | None, dict[str, _Counter]] = (None, {})

    def declare(self, registry: MetricsRegistry) -> dict[str, _Counter]:
        """Register every family on ``registry``."""
        return {name: registry.counter(name, text).labels() for name, text in self._help.items()}

    def children(self) -> dict[str, _Counter]:
        """The families' children on the current global registry."""
        registry, children = self._bound
        if registry is not _REGISTRY:
            # Threads racing here bind the same children: registration and
            # ``labels()`` are idempotent under the registry's locks.
            registry = _REGISTRY
            children = self.declare(registry)
            self._bound = (registry, children)
        return children


# -- strict text-format parser -----------------------------------------------------------

_SAMPLE_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_PAIR_RE = re.compile(r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|\Z)')


def _split_sample(line: str) -> tuple[str, str, str]:
    """Split a sample line into ``(name, labels_blob, value_token)``.

    The label blob is scanned with quote/escape awareness so label *values*
    may contain ``}`` (route patterns like ``/v1/documents/{id}`` do).
    """
    match = _SAMPLE_NAME_RE.match(line)
    if match is None:
        raise ValueError(f"malformed sample line {line!r}")
    name, rest = match.group(0), line[match.end() :]
    blob = ""
    if rest.startswith("{"):
        i, in_string, escaped = 1, False, False
        while i < len(rest):
            char = rest[i]
            if in_string:
                if escaped:
                    escaped = False
                elif char == "\\":
                    escaped = True
                elif char == '"':
                    in_string = False
            elif char == '"':
                in_string = True
            elif char == "}":
                break
            i += 1
        else:
            raise ValueError(f"unterminated label set in {line!r}")
        blob, rest = rest[1:i], rest[i + 1 :]
    tokens = rest.split()
    if len(tokens) != 1:
        raise ValueError(f"expected exactly one value on sample line {line!r}")
    return name, blob, tokens[0]


def _unescape_label(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


def _parse_labels(blob: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(blob):
        match = _LABEL_PAIR_RE.match(blob, pos)
        if match is None:
            raise ValueError(f"malformed label blob {blob!r}")
        name = match.group("name")
        if name in labels:
            raise ValueError(f"duplicate label {name!r} in {blob!r}")
        labels[name] = _unescape_label(match.group("value"))
        pos = match.end()
    names = list(labels)
    if names != sorted(names):
        raise ValueError(f"label names are not sorted in {blob!r}")
    return labels


def _base_family(name: str, families: Mapping[str, dict]) -> str | None:
    if name in families:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if base in families and families[base]["type"] == "histogram":
                return base
    return None


def parse_prometheus_text(text: str) -> dict[str, dict]:
    """Parse (and validate) a Prometheus text-format page strictly.

    Returns ``{family_name: {"type", "help", "samples": [(name, labels, value)]}}``.
    Raises ``ValueError`` on the failure modes the old renderer exhibited and a
    scraper would reject or silently mis-read: duplicate or late ``# HELP`` /
    ``# TYPE`` headers, samples without a declared family, unsorted or
    duplicated label names, NaN values, malformed lines, and histogram bucket
    rows that are non-cumulative or disagree with ``_count``.
    """
    families: dict[str, dict] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                parts = line.split(None, 3)
                if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                    raise ValueError(f"unexpected comment {line!r}")
                keyword, name = parts[1], parts[2]
                rest = parts[3] if len(parts) > 3 else ""
                family = families.setdefault(
                    name, {"type": None, "help": None, "samples": [], "_sealed": False}
                )
                if family["_sealed"]:
                    raise ValueError(f"# {keyword} for {name} after its samples")
                slot = keyword.lower()
                if family[slot] is not None:
                    raise ValueError(f"duplicate # {keyword} for {name}")
                if keyword == "TYPE":
                    if rest not in _KINDS:
                        raise ValueError(f"unknown metric type {rest!r} for {name}")
                    family["type"] = rest
                else:
                    family["help"] = rest
                continue
            name, blob, token = _split_sample(line)
            base = _base_family(name, families)
            if base is None or families[base]["type"] is None:
                raise ValueError(f"sample {name!r} has no preceding # TYPE header")
            try:
                value = float(token)
            except ValueError:
                raise ValueError(f"sample {name!r} carries a non-numeric value {token!r}")
            if math.isnan(value):
                raise ValueError(f"sample {name!r} carries a NaN value")
            labels = _parse_labels(blob)
            families[base]["_sealed"] = True
            families[base]["samples"].append((name, labels, value))
        except ValueError as exc:
            raise ValueError(f"/metrics line {lineno}: {exc}") from None
    for name, family in families.items():
        if family["type"] is None:
            raise ValueError(f"family {name} has # HELP but no # TYPE")
        family.pop("_sealed")
        if family["type"] == "histogram":
            _check_histogram(name, family["samples"])
    return families


def _check_histogram(name: str, samples: list[tuple[str, dict, float]]) -> None:
    series: dict[tuple, dict] = {}
    for sample_name, labels, value in samples:
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        entry = series.setdefault(key, {"buckets": [], "count": None})
        if sample_name == f"{name}_bucket":
            le = labels.get("le")
            if le is None:
                raise ValueError(f"histogram {name} bucket row without an le label")
            entry["buckets"].append((math.inf if le == "+Inf" else float(le), value))
        elif sample_name == f"{name}_count":
            entry["count"] = value
    for key, entry in series.items():
        buckets = sorted(entry["buckets"])
        counts = [count for _, count in buckets]
        if counts != sorted(counts):
            raise ValueError(f"histogram {name}{dict(key)} buckets are not cumulative")
        if not buckets or buckets[-1][0] != math.inf:
            raise ValueError(f"histogram {name}{dict(key)} is missing its +Inf bucket")
        if entry["count"] is not None and buckets[-1][1] != entry["count"]:
            raise ValueError(f"histogram {name}{dict(key)} +Inf bucket disagrees with _count")
