"""Batch (vectorised) kernels versus the scalar succinct primitives.

Raw rank/select throughput of the ``*_many`` kernels against a Python loop
over the scalar methods, on a large random bitmap and a wavelet tree (the
work-horse operations behind every query of the paper).  End-to-end engine
speed is measured by the repository benchmark (``perfbench/``), which times
the paper's XMark and Medline queries against the DOM baseline.

Runs standalone for CI (``python benchmarks/bench_batch_kernels.py --quick
--out BENCH_pr5.json``) or under pytest like the other modules.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.bits.bitvector import BitVector
from repro.sequence.wavelet_tree import WaveletTree

from _bench_utils import print_table


def _best_of(callable_, repeats: int) -> float:
    """Best wall-clock seconds over ``repeats`` runs (noise-resistant)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def micro_benchmarks(num_bits: int, num_queries: int, repeats: int) -> dict:
    """Raw batched rank/select throughput against a scalar loop."""
    rng = np.random.default_rng(42)
    bits = rng.random(num_bits) < 0.5
    bv = BitVector(bits)
    positions = rng.integers(0, num_bits, size=num_queries)
    ranks = rng.integers(1, bv.count_ones + 1, size=num_queries)
    # A smaller sample keeps the scalar loops affordable; per-op cost is flat.
    scalar_sample = max(1, num_queries // 10)

    batch_rank = _best_of(lambda: bv.rank1_many(positions), repeats)
    scalar_rank = _best_of(lambda: [bv.rank1(int(i)) for i in positions[:scalar_sample]], repeats)
    batch_select = _best_of(lambda: bv.select1_many(ranks), repeats)
    scalar_select = _best_of(lambda: [bv.select1(int(j)) for j in ranks[:scalar_sample]], repeats)

    symbols = rng.integers(0, 64, size=max(1, num_bits // 8))
    wavelet = WaveletTree(symbols)
    wt_positions = rng.integers(0, symbols.size, size=num_queries)
    probe = int(symbols[0])
    batch_wt = _best_of(lambda: wavelet.rank_many(probe, wt_positions), repeats)
    scalar_wt = _best_of(lambda: [wavelet.rank(probe, int(i)) for i in wt_positions[:scalar_sample]], repeats)

    per_op = lambda seconds, n: seconds / n  # noqa: E731 - local shorthand
    return {
        "bitvector_batch_rank_speedup": per_op(scalar_rank, scalar_sample) / per_op(batch_rank, num_queries),
        "bitvector_batch_select_speedup": per_op(scalar_select, scalar_sample)
        / per_op(batch_select, num_queries),
        "wavelet_batch_rank_speedup": per_op(scalar_wt, scalar_sample) / per_op(batch_wt, num_queries),
        "batched_rank_mops": num_queries / batch_rank / 1e6,
        "batched_select_mops": num_queries / batch_select / 1e6,
    }


def run_benchmark(num_bits: int = 2_000_000, num_queries: int = 200_000, repeats: int = 3) -> dict:
    micro = micro_benchmarks(num_bits, num_queries, repeats)
    return {
        "meta": {
            "num_bits": num_bits,
            "num_queries": num_queries,
            "repeats": repeats,
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "metrics": {name: round(value, 3) for name, value in micro.items()},
    }


def _report(results: dict) -> None:
    metrics = results["metrics"]
    print_table(
        "Batch kernels: rank/select throughput (batch vs scalar loop)",
        ["kernel", "speedup", "batch Mops/s"],
        [
            ["BitVector.rank1_many", f"{metrics['bitvector_batch_rank_speedup']:.1f}x", f"{metrics['batched_rank_mops']:.1f}"],
            ["BitVector.select1_many", f"{metrics['bitvector_batch_select_speedup']:.1f}x", f"{metrics['batched_select_mops']:.1f}"],
            ["WaveletTree.rank_many", f"{metrics['wavelet_batch_rank_speedup']:.1f}x", "-"],
        ],
    )


# -- pytest entry points ---------------------------------------------------------------


def test_batch_kernels_beat_scalar(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    results = run_benchmark(num_bits=500_000, num_queries=50_000, repeats=2)
    _report(results)
    metrics = results["metrics"]
    assert metrics["bitvector_batch_rank_speedup"] > 3.0
    assert metrics["bitvector_batch_select_speedup"] > 3.0


# -- CLI entry point (the CI bench-smoke and nightly-bench jobs) -----------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke settings (smaller inputs)")
    parser.add_argument("--out", type=Path, default=None, help="write the results JSON here")
    args = parser.parse_args(argv)

    if args.quick:
        results = run_benchmark(num_bits=500_000, num_queries=50_000, repeats=2)
    else:
        results = run_benchmark()
    _report(results)
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
