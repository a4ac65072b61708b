"""Per-layer instruments of the traced run: the cProfile fold, kernel counters and primitive probes.

Everything here measures the program from outside: it times calls to public
functions of ``repro.bits``, ``repro.sequence``, ``repro.tree`` and
``repro.text``, folds a cProfile of the benchmark's own calls into
``repro.<module>`` layers, and counts calls to the ``SuccinctTree.*_many``
kernels by wrapping them for the length of the traced pass.
"""

from __future__ import annotations

import contextlib
import cProfile
import pstats
import random
import time
from pathlib import PurePath

import numpy as np

from common import median

#: Layers that get their own ``<layer>.self_share``; every other module,
#: ``repro`` or not, goes to ``other.self_share``.
SHARE_LAYERS = ("bits", "sequence", "tree", "text", "xpath", "core")

#: FM-index patterns with more occurrences than this are counted but not
#: located: locating the space character of a large collection takes minutes.
LOCATE_CAP = 20_000


def _layer_of(filename: str) -> str | None:
    parts = PurePath(filename).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro" and index + 1 < len(parts):
            module = parts[index + 1]
            return "core" if module.endswith(".py") else module
    return None


def fold_profile(profile: cProfile.Profile) -> dict[str, float]:
    """Self seconds per ``repro.<module>``, with builtin and numpy time charged to the caller.

    A function outside ``repro`` hands its self time to its callers in
    proportion to the time each caller spent in it, walking up until a
    ``repro`` frame is reached.  Time with no ``repro`` frame above it, and
    every ``repro`` module outside :data:`SHARE_LAYERS`, is ``other``.
    """
    stats = pstats.Stats(profile).stats
    memo: dict[tuple, dict[str, float]] = {}

    def owners(key: tuple) -> dict[str, float]:
        if key in memo:
            return memo[key]
        layer = _layer_of(key[0])
        if layer is not None:
            share = {layer if layer in SHARE_LAYERS else "other": 1.0}
            memo[key] = share
            return share
        memo[key] = {"other": 1.0}  # breaks recursion cycles among non-repro frames
        callers = stats[key][4] if key in stats else {}
        weights = {caller: timing[2] for caller, timing in callers.items() if caller in stats}
        total = sum(weights.values())
        if total <= 0:
            return memo[key]
        share: dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, fraction in owners(caller).items():
                share[layer] = share.get(layer, 0.0) + fraction * weight / total
        memo[key] = share
        return share

    seconds = {layer: 0.0 for layer in (*SHARE_LAYERS, "other")}
    for key, (_, _, self_time, _, _) in stats.items():
        for layer, fraction in owners(key).items():
            seconds[layer] += self_time * fraction
    return seconds


def call_count(profile: cProfile.Profile, module_suffix: str, names: tuple[str, ...]) -> int:
    """Total calls of the functions ``names`` defined in a file ending with ``module_suffix``."""
    total = 0
    for (filename, _, function), (_, calls, _, _, _) in pstats.Stats(profile).stats.items():
        if function in names and filename.replace("\\", "/").endswith(module_suffix):
            total += calls
    return total


class KernelCounter:
    """Counts calls to ``SuccinctTree.*_many`` and the length of each call's array argument."""

    def __init__(self) -> None:
        self.calls = 0
        self.elements = 0

    @contextlib.contextmanager
    def installed(self):
        from repro.tree.succinct_tree import SuccinctTree

        originals = {
            name: getattr(SuccinctTree, name)
            for name in dir(SuccinctTree)
            if name.endswith("_many") and callable(getattr(SuccinctTree, name))
        }

        def wrap(function):
            def counted(tree, *args, **kwargs):
                self.calls += 1
                for arg in args:
                    if not isinstance(arg, (int, np.integer)):
                        self.elements += int(np.size(arg))
                        break
                return function(tree, *args, **kwargs)

            return counted

        try:
            for name, function in originals.items():
                setattr(SuccinctTree, name, wrap(function))
            yield self
        finally:
            for name, function in originals.items():
                setattr(SuccinctTree, name, function)


def _per_call_us(call, arguments, repeats: int = 3) -> float:
    """Median over ``repeats`` passes of the mean microseconds per call."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        for args in arguments:
            call(*args)
        samples.append((time.perf_counter() - started) * 1e6 / len(arguments))
    return median(samples)


def primitive_probes(document, seed: int, samples: int = 2000) -> dict[str, float]:
    """µs per call of the succinct primitives, on ``document``'s own structures.

    Every probe calls a public method of a structure the document holds, so a
    change to the bitvector, the sequence or the tree the index uses shows
    here: ``bits.*`` goes through the tree's parentheses
    (``rank_open``/``select_open`` are one ``BitVector.rank1``/``select1``),
    and ``sequence.*`` through the FM-index: ``backward_step`` is two ranks
    on its BWT sequence, and ``lf`` one access and one rank, so
    ``sequence.access_us`` is an ``lf`` call less one rank.  Random positions
    come from ``seed``.  ``tree.find_close_far_us`` uses the worst case for a
    block-scanning search: opens at depth ≤ 3, whose matching close lies far
    away.  The FM-index rows run the published ``FM_PATTERNS``, ordered from
    rare to frequent.
    """
    from repro.workloads import FM_PATTERNS

    rng = random.Random(seed)
    tree = document.tree
    parens = tree.parentheses
    bits = parens.to_numpy()
    opens = np.flatnonzero(bits)
    depth = np.cumsum(np.where(bits, 1, -1))[opens]

    out = {
        "bits.rank1_us": _per_call_us(
            parens.rank_open, [(rng.randrange(len(parens) + 1),) for _ in range(samples)]
        ),
        "bits.select1_us": _per_call_us(
            parens.select_open, [(rng.randrange(1, opens.size + 1),) for _ in range(samples)]
        ),
    }

    fm = document.text_collection.fm_index
    rows = len(fm)
    symbols = b"".join(text for text in document.model.texts if text) or b" "
    steps = [
        (symbols[rng.randrange(len(symbols))], *sorted((rng.randrange(rows + 1), rng.randrange(rows + 1))))
        for _ in range(samples)
    ]
    rank_us = _per_call_us(fm.backward_step, steps) / 2
    lf_rows = []
    while len(lf_rows) < samples:
        row = rng.randrange(rows)
        try:
            fm.lf(row)
        except ValueError:  # a terminator row: LF is undefined there
            continue
        lf_rows.append((row,))
    out["sequence.rank_us"] = rank_us
    out["sequence.access_us"] = _per_call_us(fm.lf, lf_rows) - rank_us

    random_opens = [(int(opens[rng.randrange(opens.size)]),) for _ in range(samples)]
    near_root = opens[depth <= 3]
    far = [(int(near_root[rng.randrange(near_root.size)]),) for _ in range(min(samples, 200))]
    inner = opens[1:] if opens.size > 1 else opens
    out["tree.find_close_us"] = _per_call_us(parens.find_close, random_opens)
    out["tree.find_close_far_us"] = _per_call_us(parens.find_close, far)
    out["tree.enclose_us"] = _per_call_us(
        parens.enclose, [(int(inner[rng.randrange(inner.size)]),) for _ in range(samples)]
    )
    node_args = []
    for _ in range(samples):
        node = int(opens[rng.randrange(opens.size)])
        node_args.append((node, tree.tag(int(opens[rng.randrange(opens.size)]))))
    out["tree.tagged_desc_us"] = _per_call_us(tree.tagged_desc, node_args)
    out["tree.tagged_foll_us"] = _per_call_us(tree.tagged_foll, node_args)

    patterns = [(pattern.encode("utf-8"),) for pattern in FM_PATTERNS]
    out["text.fm_count_us"] = _per_call_us(fm.count, patterns)
    located = [args for args in patterns if 0 < fm.count(args[0]) <= LOCATE_CAP]
    occurrences = sum(fm.count(args[0]) for args in located)
    if occurrences:
        out["text.fm_locate_us_per_occ"] = (
            _per_call_us(fm.locate, located, repeats=1) * len(located) / occurrences
        )
    else:
        out["text.fm_locate_us_per_occ"] = 0.0
    return out
