"""Compare traced runs layer by layer.

Usage::

    python3 sessionbench/tracediff.py BASE NEW

``BASE`` and ``NEW`` are result files written by ``run.py --trace 1
--out FILE``, or directories of them.  Runs are grouped by workload; a
directory's runs of one workload are combined by their median.  For each
workload in both, every traced layer gets a row: self µs per statement
(base, new, new/base) and calls per statement (base, new), so a change
can show in which layer its saving sits.  Layers present on one side
only show ``-`` on the other.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List


def load(path: str) -> Dict[str, List[dict]]:
    """Traced results under ``path``, by workload."""
    if os.path.isdir(path):
        files = sorted(os.path.join(path, name) for name in os.listdir(path)
                       if name.endswith(".json"))
    else:
        files = [path]
    runs: Dict[str, List[dict]] = {}
    for name in files:
        with open(name) as handle:
            result = json.load(handle)
        if "layers" not in result:
            raise SystemExit(f"{name}: not a traced run (use --trace 1 --out)")
        runs.setdefault(result["config"]["workload"], []).append(result)
    return runs


def combine(runs: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per-layer medians over runs (a layer missing from a run counts 0)."""
    layers = sorted({layer for run in runs for layer in run["layers"]})
    zero = {"self_us_per_stmt": 0.0, "calls_per_stmt": 0.0}
    return {layer: {field: statistics.median(
                run["layers"].get(layer, zero)[field] for run in runs)
                    for field in zero}
            for layer in layers}


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.3f}"


def diff(base: Dict[str, Dict[str, float]],
         new: Dict[str, Dict[str, float]]) -> List[str]:
    """The table rows for one workload."""
    rows = [f"{'layer':26s} {'base us':>11s} {'new us':>11s} "
            f"{'new/base':>9s} {'base calls':>11s} {'new calls':>11s}"]
    for layer in sorted(set(base) | set(new)):
        b, n = base.get(layer, {}), new.get(layer, {})
        b_us, n_us = b.get("self_us_per_stmt"), n.get("self_us_per_stmt")
        ratio = (n_us / b_us) if b_us and n_us is not None else None
        rows.append(f"{layer:26s} {_fmt(b_us):>11s} {_fmt(n_us):>11s} "
                    f"{_fmt(ratio):>9s} "
                    f"{_fmt(b.get('calls_per_stmt')):>11s} "
                    f"{_fmt(n.get('calls_per_stmt')):>11s}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    shared = sorted(set(base) & set(new))
    if not shared:
        print("no workload traced on both sides", file=sys.stderr)
        return 1
    for workload in shared:
        print(f"== {workload} (base: {len(base[workload])} run(s), "
              f"new: {len(new[workload])} run(s)); self time per statement")
        print("\n".join(diff(combine(base[workload]),
                             combine(new[workload]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
