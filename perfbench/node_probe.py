"""The memory of a process that serves one index: the child behind ``node_rss_mb``.

    python3 perfbench/node_probe.py INDEX_FILE < queries.json

Loads ``INDEX_FILE`` mapped, as a ``repro-serve`` node does, counts every
query of the JSON object ``{name: query}`` on standard input once, and prints
``{"rss_bytes": ..., "counts": {name: count}}``.  The benchmark starts it
with ``src/`` on ``PYTHONPATH`` and checks the counts against the DOM's.
"""

from __future__ import annotations

import gc
import json
import sys


def main() -> int:
    from repro import Document
    from repro.obs.resources import process_resources

    queries = json.load(sys.stdin)
    document = Document.load(sys.argv[1], mapped=True)
    try:
        counts = {name: document.count(query) for name, query in queries.items()}
        gc.collect()
        rss = process_resources()["rss_bytes"]
    finally:
        document.close()
    print(json.dumps({"rss_bytes": rss, "counts": counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
