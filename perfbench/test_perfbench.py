"""Tests of the benchmark itself, at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the checkout root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import inproc
import run
from common import ROOT, Ledger, percentile

NAME = re.compile(r"\A[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so a run takes a few seconds."""
    monkeypatch.setitem(inproc.SIZES, "xmark", 0.1)
    monkeypatch.setitem(inproc.SIZES, "medline", 10)
    monkeypatch.setattr(inproc, "MIN_READS", 10)
    monkeypatch.setattr(inproc, "SETUP_REPEATS", 1)


def _declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize(
    "workload, trace",
    [("xmark", False), ("medline", False), ("xmark", True)],
)
def test_every_declared_metric_is_emitted_with_its_unit(tiny, workload, trace):
    ledger, metrics, _ = run.run_workload(workload, seed=3, seconds=0.5, trace=trace)
    declared = _declared("per_layer" if trace else "end_to_end")
    assert ledger.failed == 0, ledger.reasons
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    for name, (value, _) in metrics.items():
        assert NAME.match(name), name
        assert isinstance(value, float) and value == value, name
    if trace:
        shares = [value for name, (value, _) in metrics.items() if name.endswith(".self_share")]
        assert abs(sum(shares) - 1.0) <= 0.01
    else:
        assert all(value > 0 for value, _ in metrics.values())


def test_another_seed_changes_inputs_but_not_metric_names(tiny):
    ops = list(inproc.queries_of("medline"))
    assert inproc.shuffled(ops, 1, 0) != inproc.shuffled(ops, 2, 0)
    assert inproc.shuffled(ops, 1, 0) == inproc.shuffled(ops, 1, 0)
    first = run.run_workload("medline", seed=1, seconds=0.1, trace=False)[1]
    second = run.run_workload("medline", seed=2, seconds=0.1, trace=False)[1]
    assert list(first) == list(second)


def test_a_wrong_answer_is_counted_as_failed_not_timed(tiny, monkeypatch):
    from repro import Document

    wrong = inproc.queries_of("xmark")["X02"]
    honest = Document.count
    monkeypatch.setattr(Document, "count", lambda self, q, o=None: honest(self, q, o) + (q == wrong))
    ledger, _, raw = inproc.measure("xmark", seed=3, seconds=0.1)
    assert ledger.failed > 0
    assert raw["reads"][("X02", "count")] == []
    assert raw["reads"][("X02", "materialise")]
    assert ledger.attempted - ledger.failed >= sum(len(v) for v in raw["reads"].values())
    assert run.main(["--workload", "xmark", "--seed", "3", "--seconds", "0.1"]) == 1


def test_the_result_line_has_the_contract_keys():
    ledger = Ledger()
    ledger.check(True, "")
    ledger.check(False, "wrong")
    line = json.loads(run.result_line(ledger, {"read_ms_p50": (1.5, "ms")}))
    assert line == {
        "correct": False,
        "attempted": 2,
        "failed": 1,
        "metrics": {"read_ms_p50": {"value": 1.5, "unit": "ms"}},
    }


def test_nearest_rank_percentile_stays_on_a_sample():
    assert percentile([1, 2, 3, 4], 0.5) == 2
    assert percentile([5, 1, 4, 2, 3, 10, 9, 8, 7, 6], 0.9) == 9
    assert percentile([7], 0.9) == 7


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "xmark", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
