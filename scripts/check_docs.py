"""Hold ``docs/`` to the code: diff documented tables against live definitions.

Run by the CI ``docs-check`` job (and runnable locally)::

    PYTHONPATH=src python scripts/check_docs.py

Two kinds of tables are machine-checked:

* **Route tables** in ``docs/http-api.md``, marked
  ``<!-- route-table: repro-serve -->`` / ``<!-- route-table:
  repro-coordinator -->``.  The script instantiates both servers (never
  started -- no sockets) and compares each documented ``(METHOD, path)``
  pair against the server's ``route_table`` registry.
* **Flag tables** in ``docs/operations.md``, marked
  ``<!-- flag-table: repro-serve -->`` / ``<!-- flag-table:
  repro-coordinator -->``.  Every ``--flag`` token in a table's first
  column is compared against the ``argparse`` option strings of the
  matching CLI's ``build_parser()``.
* **The metrics table** in ``docs/operations.md``, marked
  ``<!-- metric-table: repro-serve -->``.  The script starts a
  ``ReproServer`` on a loopback port over a one-document store, answers one
  query through a 2-worker process ``QueryService``, scrapes ``/metrics`` and
  reads the live registry.  Every live family must appear (by its full name,
  in backticks, in the first column) with the documented type, which reads
  ``<kind> (callback)`` for families computed at scrape time by a callback.

A route or flag present in the code but missing from the docs fails, and so
does a documented one the code no longer has -- renames must land in both
places in the same commit.  A metric family the run did not touch (such as
``storage_v1_loads_total``) may be documented without being live.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FLAG_RE = re.compile(r"--[\w][\w-]*")
CODE_RE = re.compile(r"`([^`]*)`")
FAMILY_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


def extract_table(markdown: str, marker: str, path: Path) -> list[list[str]]:
    """The body rows (header and separator dropped) of the table after *marker*."""
    index = markdown.find(marker)
    if index < 0:
        raise SystemExit(f"{path}: marker {marker!r} not found")
    rows = []
    for line in markdown[index + len(marker) :].splitlines():
        stripped = line.strip()
        if stripped.startswith("|"):
            rows.append([cell.strip() for cell in stripped.strip("|").split("|")])
        elif rows:
            break
    if len(rows) < 3:
        raise SystemExit(f"{path}: no table follows marker {marker!r}")
    return rows[2:]


def documented_routes(markdown: str, name: str, path: Path) -> set[tuple[str, str]]:
    rows = extract_table(markdown, f"<!-- route-table: {name} -->", path)
    return {(row[0].upper(), row[1].strip("`")) for row in rows}


def documented_flags(markdown: str, name: str, path: Path) -> set[str]:
    rows = extract_table(markdown, f"<!-- flag-table: {name} -->", path)
    flags: set[str] = set()
    for row in rows:
        found = FLAG_RE.findall(row[0])
        if not found:
            raise SystemExit(f"{path}: flag-table {name!r} row has no --flag: {row[0]!r}")
        flags.update(found)
    return flags


def documented_metrics(markdown: str, name: str, path: Path) -> dict[str, str]:
    """``{family: type}`` from the metric table; every name must be spelled out in full."""
    rows = extract_table(markdown, f"<!-- metric-table: {name} -->", path)
    types: dict[str, str] = {}
    for row in rows:
        families = CODE_RE.findall(row[0])
        if not families:
            raise SystemExit(f"{path}: metric-table {name!r} row names no `family`: {row[0]!r}")
        for family in families:
            if not FAMILY_RE.match(family):
                raise SystemExit(f"{path}: metric-table {name!r} names {family!r}, not a full family name")
            types[family] = row[1]
    return types


def live_route_tables() -> dict[str, set[tuple[str, str]]]:
    from repro import DocumentStore, QueryService
    from repro.coordinator import CoordinatorServer
    from repro.server import ReproServer

    with tempfile.TemporaryDirectory() as root:
        server = ReproServer(QueryService(DocumentStore(root)))
        serve_routes = set(server.route_table)
    coordinator = CoordinatorServer(["n0=127.0.0.1:1"])
    return {
        "repro-serve": serve_routes,
        "repro-coordinator": set(coordinator.route_table),
    }


def live_flag_tables() -> dict[str, set[str]]:
    from repro.coordinator.__main__ import build_parser as coordinator_parser
    from repro.server.__main__ import build_parser as serve_parser

    tables = {}
    for name, parser in (
        ("repro-serve", serve_parser()),
        ("repro-coordinator", coordinator_parser()),
    ):
        tables[name] = {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
    return tables


def live_metric_table() -> dict[str, str]:
    """``{family: type}`` of the registry behind ``repro-serve`` after one answered query."""
    from repro import DocumentStore, QueryService
    from repro.client import ReproClient
    from repro.obs.metrics import MetricsRegistry, set_registry
    from repro.server import ReproServer

    # A private registry: the route check above already built a coordinator,
    # whose families belong to the other server's table.
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        with tempfile.TemporaryDirectory() as root:
            store = DocumentStore(root)
            store.add_xml("doc", "<site><item><name>gold ring</name></item><item><name>tin</name></item></site>")
            with QueryService(DocumentStore(root), max_workers=2, executor="process") as service:
                with ReproServer(service, port=0) as server, ReproClient(*server.address) as client:
                    if client.run('//item[contains(name, "gold")]').total != 1:
                        raise SystemExit("check_docs: the metrics probe query returned a wrong count")
                    client.metrics()
    finally:
        set_registry(previous)
    live = {}
    for full_name in registry.snapshot():
        family = registry.get(full_name[len(registry.namespace) + 1 :])
        live[family.name] = family.kind + (" (callback)" if family.callback is not None else "")
    return live


def diff(kind: str, name: str, documented: set, live: set) -> list[str]:
    problems = []
    for item in sorted(live - documented):
        problems.append(f"{name}: {kind} {item} exists in the code but is not documented")
    for item in sorted(documented - live):
        problems.append(f"{name}: documented {kind} {item} does not exist in the code")
    return problems


def main() -> int:
    api_doc = REPO / "docs" / "http-api.md"
    ops_doc = REPO / "docs" / "operations.md"
    api_text = api_doc.read_text(encoding="utf-8")
    ops_text = ops_doc.read_text(encoding="utf-8")

    problems: list[str] = []
    for name, live in live_route_tables().items():
        documented = documented_routes(api_text, name, api_doc)
        problems += diff("route", name, documented, live)
        print(f"{name}: {len(live)} routes, {len(documented)} documented")
    for name, live in live_flag_tables().items():
        documented = documented_flags(ops_text, name, ops_doc)
        problems += diff("flag", name, documented, live)
        print(f"{name}: {len(live)} flags, {len(documented)} documented")

    live_metrics = live_metric_table()
    documented_types = documented_metrics(ops_text, "repro-serve", ops_doc)
    for family, kind in sorted(live_metrics.items()):
        if family not in documented_types:
            problems.append(f"repro-serve: metric {family} ({kind}) exists in the code but is not documented")
        elif documented_types[family] != kind:
            problems.append(
                f"repro-serve: metric {family} is a {kind} but documented as {documented_types[family]!r}"
            )
    print(f"repro-serve: {len(live_metrics)} live metric families, {len(documented_types)} documented")

    if problems:
        print()
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        print(f"\n{len(problems)} doc/code mismatch(es)", file=sys.stderr)
        return 1
    print("docs match the code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
