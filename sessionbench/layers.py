"""Per-layer metrics from outside-in spans and the system's counters.

Times are self times per statement, at the reference machine speed like
the end-to-end metrics (divided by the traced rounds' median slowdown,
see ``harness.py``); ``*_per_stmt`` are counts per statement; ratios
have their base in the name (``hit_ratio`` is hits over lookups).
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, Tuple

from tracing import LayerTrace

#: layer groups that make up a statement's time (``share.*`` metrics)
SHARES = {
    "front_end": ("surface.parse", "surface.desugar", "plan_cache.key",
                  "plan_cache.lookup"),
    "planning": ("env.resolve", "typecheck.check", "optimizer.optimize",
                 "optimizer.normalize", "optimizer.bounds",
                 "optimizer.cleanup", "optimizer.motion",
                 "optimizer.cost.estimate", "compile.codegen",
                 "plan_cache.insert"),
    "execution": ("eval.run", "compile.run", "kernels.execute",
                  "setops.join", "setops.sorted_group", "parallel.dispatch",
                  "io.readval", "io.writeval"),
}

#: per-layer metric -> unit, in report order (BENCHMARK.json lists them)
UNITS = {
    "surface.parse_us": "us",
    "surface.parse_calls_per_stmt": "count",
    "surface.desugar_us": "us",
    "plan_cache.key_us": "us",
    "plan_cache.lookup_us": "us",
    "plan_cache.insert_us": "us",
    "plan_cache.hit_ratio": "ratio",
    "plan_cache.evictions_per_stmt": "count",
    "plan_cache.invalidations_per_write": "count",
    "env.resolve_us": "us",
    "typecheck.check_us": "us",
    "optimizer.optimize_us": "us",
    "optimizer.normalize_us": "us",
    "optimizer.bounds_us": "us",
    "optimizer.cleanup_us": "us",
    "optimizer.motion_us": "us",
    "optimizer.rule_firings_per_stmt": "count",
    "optimizer.phase_skips_per_stmt": "count",
    "optimizer.cost.estimate_us": "us",
    "optimizer.cost.q_error_p50": "ratio",
    "compile.codegen_us": "us",
    "compile.run_self_ms": "ms",
    "eval.run_self_ms": "ms",
    "kernels.execute_ms": "ms",
    "kernels.cells_per_s": "1/s",
    "kernels.taken_ratio": "ratio",
    "setops.join_ms": "ms",
    "setops.join_taken_ratio": "ratio",
    "setops.sorted_group_ms": "ms",
    "parallel.dispatch_ms": "ms",
    "parallel.taken_ratio": "ratio",
    "parallel.calls_per_stmt": "count",
    "dense.materializations_per_stmt": "count",
    "dense.blocks_probed_per_stmt": "count",
    "dense.probe_rejects_per_stmt": "count",
    "io.readval_ms": "ms",
    "io.writeval_ms": "ms",
    "share.front_end": "ratio",
    "share.planning": "ratio",
    "share.execution": "ratio",
    "session.other_us": "us",
    "trace.overhead_ratio": "ratio",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def counters(session: Any) -> Dict[str, int]:
    from repro.objects import dense

    out = {f"plan_cache.{key}": value
           for key, value in session.plan_cache.stats.to_dict().items()}
    out.update({f"dense.{key}": value
                for key, value in dense.COUNTERS.snapshot().items()})
    cost = session.env.cost
    if cost is not None:
        out.update(cost.counters)
    return out


def layer_metrics(trace: LayerTrace, counts: Dict[str, int],
                  statements: int, writes: int, busy: float,
                  readval: Tuple[float, int], slowdown: float
                  ) -> Dict[str, float]:
    """Every :data:`UNITS` metric except ``trace.overhead_ratio``."""
    calls, events = trace.calls, trace.events
    seconds = defaultdict(float, {layer: spent / slowdown
                                  for layer, spent in trace.seconds.items()})
    busy /= slowdown

    def per_stmt(layer: str, scale: float) -> float:
        return seconds[layer] / statements * scale

    lookups = counts["plan_cache.hits"] + counts["plan_cache.misses"]
    kernel_taken = events["kernels.taken"] + events["kernels.taken_sharded"]
    values = {
        "surface.parse_us": per_stmt("surface.parse", 1e6),
        "surface.parse_calls_per_stmt": calls["surface.parse"] / statements,
        "surface.desugar_us": per_stmt("surface.desugar", 1e6),
        "plan_cache.key_us": per_stmt("plan_cache.key", 1e6),
        "plan_cache.lookup_us": per_stmt("plan_cache.lookup", 1e6),
        "plan_cache.insert_us": per_stmt("plan_cache.insert", 1e6),
        "plan_cache.hit_ratio": _ratio(counts["plan_cache.hits"], lookups),
        "plan_cache.evictions_per_stmt":
            counts["plan_cache.evictions"] / statements,
        "plan_cache.invalidations_per_write":
            _ratio(counts["plan_cache.invalidations"], writes),
        "env.resolve_us": per_stmt("env.resolve", 1e6),
        "typecheck.check_us": per_stmt("typecheck.check", 1e6),
        "optimizer.optimize_us": per_stmt("optimizer.optimize", 1e6),
        "optimizer.rule_firings_per_stmt":
            events["optimizer.firings"] / statements,
        "optimizer.phase_skips_per_stmt":
            counts.get("cost_phase_skips", 0) / statements,
        "optimizer.cost.estimate_us":
            per_stmt("optimizer.cost.estimate", 1e6),
        "optimizer.cost.q_error_p50":
            statistics.median(trace.q_errors) if trace.q_errors else 0.0,
        "compile.codegen_us": per_stmt("compile.codegen", 1e6),
        "compile.run_self_ms": per_stmt("compile.run", 1e3),
        "eval.run_self_ms": per_stmt("eval.run", 1e3),
        "kernels.execute_ms": per_stmt("kernels.execute", 1e3),
        "kernels.cells_per_s": _ratio(events["kernels.cells"],
                                      seconds["kernels.execute"]),
        "kernels.taken_ratio": _ratio(kernel_taken,
                                      events["kernels.attempts"]),
        "setops.join_ms": per_stmt("setops.join", 1e3),
        "setops.join_taken_ratio": _ratio(events["setops.join_taken"],
                                          calls["setops.join"]),
        "setops.sorted_group_ms": per_stmt("setops.sorted_group", 1e3),
        "parallel.dispatch_ms": per_stmt("parallel.dispatch", 1e3),
        "parallel.taken_ratio": _ratio(events["parallel.taken"],
                                       calls["parallel.dispatch"]),
        "parallel.calls_per_stmt": calls["parallel.dispatch"] / statements,
        "dense.materializations_per_stmt":
            counts["dense.materializations"] / statements,
        "dense.blocks_probed_per_stmt":
            counts["dense.blocks_probed"] / statements,
        "dense.probe_rejects_per_stmt":
            counts["dense.probe_rejects"] / statements,
        "io.readval_ms": _ratio(readval[0] / slowdown, readval[1]) * 1e3,
        "io.writeval_ms": _ratio(seconds["io.writeval"],
                                 calls["io.writeval"]) * 1e3,
        "session.other_us":
            (busy - sum(seconds.values())) / statements * 1e6,
    }
    for phase in ("normalize", "bounds", "cleanup", "motion"):
        values[f"optimizer.{phase}_us"] = per_stmt(f"optimizer.{phase}", 1e6)
    for share, group in SHARES.items():
        values[f"share.{share}"] = _ratio(
            sum(seconds[layer] for layer in group), busy)
    return values


def layer_table(trace: LayerTrace, statements: int,
                slowdown: float) -> Dict[str, Dict]:
    """Self µs (at the reference speed) and calls per statement for every
    traced layer (the input of ``tracediff.py``)."""
    return {layer: {"self_us_per_stmt":
                    seconds / slowdown / statements * 1e6,
                    "calls_per_stmt": trace.calls[layer] / statements}
            for layer, seconds in sorted(trace.seconds.items())}
