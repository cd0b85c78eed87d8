"""One benchmark run inside a fresh process: set up, replay, check, report.

Started by ``run.py`` with the workload spec it wrote (see
:mod:`workloads`); prints one JSON object as its last stdout line.  The
process is a single closed-loop client of one AQL ``Session``: each
statement is issued after the previous one returned, and the harness
starts no threads of its own (a sharded session's worker processes
belong to the system under test).

Timing rules, chosen for steadiness on a small shared machine:

* every round replays the same statement sequence, so each round has
  the same template mix; timing metrics are medians over rounds, so a
  slow spell of the machine moves one round, not the metric;
* garbage is collected before every round, outside the clock;
* each result is checked after its statement, outside the clock;
* ``setup_s`` is the median of several complete set-ups;
* timings are normalized to a reference machine speed: a fixed
  pure-Python routine (:func:`calibrate`) is timed right before and
  after each round and each set-up, and that round's or set-up's times
  are scaled by :data:`CALIBRATION_REFERENCE_S` over the routine's time.
  The shared machine this was sized on changes speed by up to 2x for
  tens of seconds at a time, which raw medians cannot average away; the
  raw medians are reported beside the metrics;
* ``peak_rss_mb`` is the session process's peak resident set from the
  start of the last set-up through the first :data:`PEAK_ROUNDS`
  measured rounds: a fixed amount of work, so the figure does not grow
  with the number of rounds a fast machine fits into the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import statistics
import sys
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Dict, List, Tuple

from check import BOTTOM, WRITE_OK, mismatch
from layers import UNITS, counters, layer_metrics, layer_table
from tracing import LayerTrace, install
from workloads import EXTERNALS, ROUND_TOKEN, Spec, Stmt

#: complete set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: the fewest query latencies a run may carry (so p99 has ten beyond it)
MIN_QUERY_SAMPLES = 1000
#: the fewest measured rounds a run may carry
MIN_ROUNDS = 5
#: measured rounds covered by ``peak_rss_mb``
PEAK_ROUNDS = 5
#: a run stops measuring at this multiple of ``--seconds`` regardless
HARD_STOP = 3.0
#: failure details printed to stderr at most
MAX_REPORTED = 10
#: seconds :func:`calibrate` takes at the reference speed (its median
#: on the 2-vCPU machine the benchmark was sized on)
CALIBRATION_REFERENCE_S = 0.007


def _signature(name: str) -> Any:
    from repro.types.types import TArray, TArrow, TNat, TProduct, TReal

    if name == "heat":
        return TArrow(TArray(TProduct((TReal(), TReal(), TReal())), 1),
                      TReal())
    return TArrow(TProduct((TReal(), TReal(), TNat())), TNat())


def write_files(spec: Spec) -> None:
    """Write the spec's NetCDF operand files into the working directory."""
    from repro.io.netcdf import write_netcdf

    for filename, dims, variables in spec.files:
        write_netcdf(filename, dims, variables)


def prepared_values(spec: Spec) -> Dict[str, Any]:
    """The spec's bindable values as engine values (arrays built here)."""
    from repro.objects.array import Array

    out = {}
    for key, value in spec.values.items():
        if isinstance(value, tuple) and value and value[0] == "array":
            out[key] = Array(value[1], value[2])
        else:
            out[key] = value
    return out


class Client:
    """Issues a spec's statements to one session and checks outcomes."""

    def __init__(self, spec: Spec, values: Dict[str, Any]):
        from repro.errors import BottomError
        from repro.surface.desugar import Desugarer
        from repro.surface.parser import parse_program

        self.spec = spec
        self.values = values
        self.bottom_error = BottomError
        self.parse_program = parse_program
        self.desugarer = Desugarer()
        self.attempted = 0
        self.failed = 0

    # -- set-up ---------------------------------------------------------------

    def new_session(self) -> Any:
        from repro import Session

        session = Session(**self.spec.session)
        for name in self.spec.externals:
            session.register_co(name, EXTERNALS[name], _signature(name))
        return session

    def bind(self, session: Any) -> None:
        for bind in self.spec.binds:
            if bind[0] == "set":
                session.env.set_val(bind[1], self.values[bind[2]])
            else:
                session.run(bind[1])

    # -- statements ---------------------------------------------------------

    def issue(self, session: Any, stmt: Stmt, text: str) -> Any:
        """Run one statement; its value, ``BOTTOM``, ``WRITE_OK`` or the
        unexpected exception."""
        try:
            if stmt.via == "run":
                last = session.run(text)[-1]
                return last.value if last.has_value else WRITE_OK
            if stmt.via == "query_value":
                return session.query_value(text)
            if stmt.via == "set_val":
                session.env.set_val(text, self.values[stmt.value_key])
                return WRITE_OK
            # "macro": a redefinition through the library interface
            decl = self.parse_program(text)[0]
            session.env.register_macro(
                decl.name, self.desugarer.desugar(decl.expr), replace=True)
            return WRITE_OK
        except self.bottom_error:
            return BOTTOM
        except Exception as exc:  # a failed statement, counted below
            return exc

    def judge(self, stmt: Stmt, text: str, got: Any) -> None:
        self.attempted += 1
        expected = stmt.expected
        if isinstance(got, Exception):
            reason = f"raised {type(got).__name__}: {got}"
        elif expected is BOTTOM or expected is WRITE_OK \
                or got is BOTTOM or got is WRITE_OK:
            reason = (None if got is expected
                      else f"{repr(got)[:120]} != {expected!r}")
        else:
            reason = mismatch(expected, got)
        if reason is not None:
            self.failed += 1
            if self.failed <= MAX_REPORTED:
                print(f"FAILED [{stmt.template}] {text[:100]}: {reason}",
                      file=sys.stderr)

    def texts(self, tag: str) -> List[str]:
        return [stmt.text.replace(ROUND_TOKEN, tag)
                for stmt in self.spec.round]

    def play(self, session: Any, tag: str) -> List[float]:
        """Replay one round, timing each statement and checking its
        outcome after the clock stops (the client then drops it)."""
        issue, judge = self.issue, self.judge
        texts = self.texts(tag)
        latencies = []
        for stmt, text in zip(self.spec.round, texts):
            started = perf_counter()
            got = issue(session, stmt, text)
            latencies.append(perf_counter() - started)
            judge(stmt, text, got)
        return latencies

    def setup(self, tag: str) -> Tuple[Any, float]:
        """One complete set-up: session, bindings, pool start, and a
        warm-up round over every distinct statement."""
        started = perf_counter()
        session = self.new_session()
        self.bind(session)
        self.play(session, tag)
        return session, perf_counter() - started


def _shutdown() -> None:
    from repro.core import parallel

    parallel.shutdown_pools()


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count for this process (Linux)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """This process's peak resident set since the last reset, in MB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def calibrate() -> float:
    """Seconds a fixed pure-Python routine takes now (machine speed).

    It uses no code of the system under test, so a change to the system
    cannot move it.
    """
    started = perf_counter()
    table: Dict[tuple, int] = {}
    total = 0
    for i in range(12000):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return perf_counter() - started


def _p99(values: List[float]) -> float:
    """The 99th percentile (inclusive linear interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


class Rounds:
    """Per-round summaries of replayed rounds, as measured (seconds)."""

    def __init__(self, spec: Spec):
        self.is_query = [stmt.kind == "query" for stmt in spec.round]
        self.ops: List[float] = []
        self.p50: List[float] = []
        self.p99: List[float] = []
        self.write_p50: List[float] = []
        #: each round's calibration time over the reference: a round's
        #: times divided by it are times at the reference speed
        self.slowdown: List[float] = []
        #: peak RSS once :data:`PEAK_ROUNDS` rounds have been added
        self.peak_mb = 0.0
        self.query_samples = 0
        self.statements = 0
        self.writes = 0
        self.busy = 0.0

    def add(self, latencies: List[float], slowdown: float) -> None:
        queries = [t for t, q in zip(latencies, self.is_query) if q]
        writes = [t for t, q in zip(latencies, self.is_query) if not q]
        self.ops.append(len(latencies) / sum(latencies))
        self.p50.append(statistics.median(queries))
        self.p99.append(_p99(queries))
        self.write_p50.append(statistics.median(writes))
        self.slowdown.append(slowdown)
        self.query_samples += len(queries)
        self.statements += len(latencies)
        self.writes += len(writes)
        self.busy += sum(latencies)

    def summary(self, normalized: bool) -> Dict[str, float]:
        """Medians over rounds, raw or at the reference speed."""
        slow = self.slowdown if normalized else [1.0] * len(self.ops)

        def median_time(values: List[float]) -> float:
            return statistics.median(v / f for v, f in zip(values, slow))

        return {
            "ops_per_s": statistics.median(
                v * f for v, f in zip(self.ops, slow)),
            "latency_p50_ms": median_time(self.p50) * 1e3,
            "latency_p99_ms": median_time(self.p99) * 1e3,
            "write_latency_p50_ms": median_time(self.write_p50) * 1e3,
        }


@dataclass(frozen=True)
class Budget:
    """How much one run measures (tests shrink it)."""

    seconds: float
    setups: int = SETUPS
    min_rounds: int = MIN_ROUNDS
    min_samples: int = MIN_QUERY_SAMPLES


def measure(client: Client, session: Any, budget: Budget,
            rounds: Rounds, first_tag: int) -> int:
    """Replay whole rounds for the budget's seconds, and on until its
    round and sample floors are met; returns the next round tag."""
    started = perf_counter()
    tag = first_tag
    while True:
        gc.collect()
        before = calibrate()
        latencies = client.play(session, f"r{tag}")
        rounds.add(latencies, (before + calibrate())
                   / (2 * CALIBRATION_REFERENCE_S))
        if len(rounds.ops) == PEAK_ROUNDS:
            rounds.peak_mb = peak_rss_mb()
        tag += 1
        elapsed = perf_counter() - started
        if elapsed >= HARD_STOP * budget.seconds > 0:
            break
        if (elapsed >= budget.seconds
                and len(rounds.ops) >= budget.min_rounds
                and rounds.query_samples >= budget.min_samples):
            break
    if not rounds.peak_mb:      # a run shorter than PEAK_ROUNDS rounds
        rounds.peak_mb = peak_rss_mb()
    return tag


def traced_run(client: Client, session: Any, budget: Budget,
               untraced: Rounds) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Half the time untraced, half traced; ``(metrics, layer table)``.

    Both halves run in this process, so ``trace.overhead_ratio`` compares
    like with like.  ``io.readval_ms`` comes from one more, traced,
    set-up, because operands are read only while setting up.
    """
    half = replace(budget, seconds=budget.seconds / 2)
    tag = measure(client, session, half, untraced, 1)
    traced = Rounds(client.spec)
    trace = LayerTrace()
    before = counters(session)
    install(session, trace)
    try:
        measure(client, session, half, traced, tag)
    finally:
        trace.remove()
    after = counters(session)
    counts = {key: after[key] - before.get(key, 0) for key in after}

    setup_trace = LayerTrace()
    extra = client.new_session()
    install(extra, setup_trace)
    try:
        client.bind(extra)
    finally:
        setup_trace.remove()
    readval = (setup_trace.seconds["io.readval"],
               setup_trace.calls["io.readval"])

    slowdown = statistics.median(traced.slowdown)
    values = layer_metrics(trace, counts, traced.statements, traced.writes,
                           traced.busy, readval, slowdown)
    values["trace.overhead_ratio"] = (
        traced.summary(True)["ops_per_s"]
        / untraced.summary(True)["ops_per_s"])
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in UNITS.items()}
    return metrics, layer_table(trace, traced.statements, slowdown)


def _config(spec: Spec, session: Any, budget: Budget,
            rounds: Rounds) -> Dict[str, Any]:
    import numpy

    env = session.env
    return {
        "workload": spec.workload,
        "seed": spec.seed,
        "session_kwargs": spec.session,
        "engine": env.backend,
        "workers": env.parallel.workers,
        "parallel_backend": env.parallel.backend,
        "min_cells": env.parallel.min_cells,
        "kernel_min_cells": env.parallel.kernel_min_cells,
        "cost_mode": env.cost.mode if env.cost is not None else "disabled",
        "plan_cache_capacity": session.plan_cache.capacity,
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "round_statements": len(spec.round),
        "rounds": len(rounds.ops),
        "query_samples": rounds.query_samples,
        "setups": budget.setups,
        "calibration_reference_ms": CALIBRATION_REFERENCE_S * 1e3,
        "median_slowdown": statistics.median(rounds.slowdown),
    }


#: end-to-end metric -> unit
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s",
                    "latency_p50_ms": "ms", "latency_p99_ms": "ms",
                    "write_latency_p50_ms": "ms", "peak_rss_mb": "MB"}


def end_to_end(rounds: Rounds, setups: List[Tuple[float, float]],
               normalized: bool) -> Dict[str, float]:
    """The end-to-end figures; ``setups`` holds (seconds, slowdown)."""
    values = rounds.summary(normalized)
    values["setup_s"] = statistics.median(
        seconds / (slowdown if normalized else 1.0)
        for seconds, slowdown in setups)
    values["peak_rss_mb"] = rounds.peak_mb
    return values


def run(spec: Spec, budget: Budget, traced: bool) -> Dict[str, Any]:
    """Set up, measure and check one run in the current directory."""
    values = prepared_values(spec)
    write_files(spec)
    client = Client(spec, values)
    setups = []
    session = None
    for attempt in range(budget.setups):
        if session is not None:
            _shutdown()
            session = None
        gc.collect()
        if attempt == budget.setups - 1:
            reset_peak_rss()
        before = calibrate()
        session, elapsed = client.setup(f"w{attempt}")
        setups.append((elapsed, (before + calibrate())
                       / (2 * CALIBRATION_REFERENCE_S)))
    rounds = Rounds(spec)
    result: Dict[str, Any] = {}
    if not traced:
        measure(client, session, budget, rounds, 1)
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end(rounds, setups, True).items()}
        result["raw"] = end_to_end(rounds, setups, False)
    else:
        metrics, layers = traced_run(client, session, budget, rounds)
        result["layers"] = layers
    result["config"] = _config(spec, session, budget, rounds)
    _shutdown()
    from repro.core import parallel

    leaked = parallel.shm_live_segments()
    if leaked:
        print(f"{leaked} shared-memory segment(s) still live",
              file=sys.stderr)
    result.update(correct=client.failed == 0 and not leaked,
                  attempted=client.attempted, failed=client.failed,
                  metrics=metrics)
    return result


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(args.spec, "rb") as handle:
        spec = pickle.load(handle)
    result = run(spec, Budget(args.seconds), bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
