"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload xmark --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program under test is imported from
``src/`` next to this directory.  ``--trace 0`` prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` runs the traced run instead and
prints every per-layer metric, and writes its spans to
``.perfbench_out/spans-<workload>-<seed>.jsonl``.  Each metric is printed on
its own line with its unit, and the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when any operation returned a wrong answer or failed, and 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import OUT_ROOT, ROOT, result_line

WORKLOADS = ("xmark", "medline")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """``(ledger, {name: (value, unit)}, spans or None)`` for one run."""
    import inproc

    spans = None
    if trace:
        ledger, values, spans = inproc.traced(workload, seed)
    else:
        ledger, values, raw = inproc.measure(workload, seed, seconds)
        for name, ratio in raw["per_query_ratio"].items():
            print(f"{name} SXSI/DOM median count time {ratio:.3g}", file=sys.stderr)
        print(f"times scaled to the reference speed by {raw['speed_scale']:.4g}", file=sys.stderr)
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    return ledger, {name: (values[name], unit) for name, unit in units.items()}, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {source}: {exc}", file=sys.stderr)
        return 2
    if source not in Path(repro.__file__).resolve().parents:
        print(f"repro was imported from {repro.__file__}, not from {source}", file=sys.stderr)
        return 2

    ledger, metrics, spans = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        spans.write(OUT_ROOT / f"spans-{args.workload}-{args.seed}.jsonl")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    for reason in ledger.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(result_line(ledger, metrics))
    return 1 if ledger.failed else 0


if __name__ == "__main__":
    sys.exit(main())
