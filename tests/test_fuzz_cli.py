"""In-process tests of the fuzz runner and its CLI entry point.

The CI fuzz jobs run ``python -m repro.fuzz`` as a subprocess; these tests
drive the same ``main()`` and :class:`~repro.fuzz.runner.FuzzRunner` in
process, so the loop (document rotation, layer checks, corpus writing,
replay) is exercised by the plain test suite (and counted by coverage).
"""

from __future__ import annotations

import json

from repro.fuzz.__main__ import main
from repro.fuzz.runner import FuzzRunner


def test_runner_clean_sweep_reports_stats():
    report = FuzzRunner(seed=5, layers=("engine",), queries_per_document=4).run(iterations=12)
    assert report.ok
    assert report.iterations == 12
    assert report.documents >= 3
    # One engine check per EVAL_MATRIX entry + counting.
    assert report.stats.layers.get("engine", 0) == 12 * 5
    assert "12 iterations" in report.summary()


def test_cli_fuzz_and_replay_round_trip(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["--iterations", "8", "--seed", "3", "--layers", "engine", "--quiet",
                 "--corpus-dir", str(corpus)]) == 0
    capsys.readouterr()

    # Pin one synthetic seed and replay it through the CLI replay mode.
    corpus.mkdir(exist_ok=True)
    (corpus / "seed-000.json").write_text(
        json.dumps({"xml": "<a><b>x</b></a>", "query": "//b", "mode": "supported"}),
        encoding="utf-8",
    )
    assert main(["--replay", str(corpus), "--layers", "engine", "--quiet"]) == 0

    # An empty corpus directory is an error, not a silent pass.
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["--replay", str(empty), "--quiet"]) == 1
