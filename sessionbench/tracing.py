"""Outside-in per-layer tracing of an AQL session.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each layer's public entry points *where their callers look them up* —
a module attribute (``kernels.execute``), an attribute of the session's
own objects (``session.plan_cache.lookup``), or the object a factory
hands out (``env.typechecker()``) — with a wrapper that records a span.
A span's self time is its duration minus the time of the spans it
encloses, so nested layers are not counted twice.  A layer re-entered
while already open (the desugarer recursing through ``self.desugar``)
runs unwrapped inside the outer span.

Counters the system keeps anyway (``PlanCache.stats``,
``dense.COUNTERS``, ``CostModel.counters``) are read as deltas by
``layers.py``, not here.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

_PARALLEL_ENTRIES = ("tabulate_interp", "tabulate_kernel_interp",
                     "sum_interp", "tabulate_compiled",
                     "tabulate_kernel_compiled", "sum_compiled")


class LayerTrace:
    """Self time and call counts per layer, plus a few event counts."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: ``kernels.attempts``, ``kernels.taken``, ``kernels.cells``,
        #: ``kernels.taken_sharded``, ``setops.join_taken``,
        #: ``parallel.taken``, ``optimizer.firings``
        self.events: Counter = Counter()
        self.q_errors: List[float] = []
        self._stack: List[float] = [0.0]
        self._open: set = set()
        self._undo: List[tuple] = []

    # -- spans ----------------------------------------------------------------

    def timed(self, layer: str, fn: Callable,
              after: Optional[Callable[[Any], None]] = None) -> Callable:
        """``fn`` wrapped in a ``layer`` span; ``after(result)`` runs
        outside the span."""
        trace = self

        def span(*args: Any, **kwargs: Any) -> Any:
            if layer in trace._open:
                return fn(*args, **kwargs)
            trace._open.add(layer)
            stack = trace._stack
            stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                enclosed = stack.pop()
                stack[-1] += elapsed
                trace.seconds[layer] += elapsed - enclosed
                trace.calls[layer] += 1
                trace._open.discard(layer)
            if after is not None:
                after(result)
            return result

        return span

    def counted(self, event: str, fn: Callable) -> Callable:
        """``fn`` counting its calls under ``event`` (no span)."""
        events = self.events

        def count(*args: Any, **kwargs: Any) -> Any:
            events[event] += 1
            return fn(*args, **kwargs)

        return count

    # -- patching -----------------------------------------------------------

    def patch(self, owner: Any, name: str, wrap: Callable[[Callable], Callable]
              ) -> None:
        """Replace ``owner.name`` by ``wrap(owner.name)`` (see
        :meth:`remove`)."""
        shadowed = name in vars(owner)
        original = getattr(owner, name)
        self._undo.append((owner, name, shadowed, vars(owner).get(name)))
        setattr(owner, name, wrap(original))

    def remove(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._undo:
            owner, name, shadowed, original = self._undo.pop()
            if shadowed:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _factory(self, wrap_product: Callable[[Any], Any]
                 ) -> Callable[[Callable], Callable]:
        """Wrap a factory so every object it hands out is instrumented."""
        def wrap(factory: Callable) -> Callable:
            def make(*args: Any, **kwargs: Any) -> Any:
                product = factory(*args, **kwargs)
                if product is not None:
                    wrap_product(product)
                return product
            return make
        return wrap


def _taken(trace: LayerTrace, event: str) -> Callable[[Any], None]:
    def note(result: Any) -> None:
        if result is not None:
            trace.events[event] += 1
    return note


def install(session: Any, trace: LayerTrace) -> None:
    """Instrument ``session`` and the modules its pipeline calls into."""
    import repro.system.session as session_module
    from repro.core import kernels, parallel, setops

    env = session.env
    timed = trace.timed

    def span(layer: str, after: Optional[Callable] = None):
        return lambda fn: timed(layer, fn, after)

    # surface: the session module's own binding of the parser, and the
    # session's desugarer
    trace.patch(session_module, "parse_program", span("surface.parse"))
    trace.patch(session._desugarer, "desugar", span("surface.desugar"))

    cache = session.plan_cache
    trace.patch(cache, "key_for", span("plan_cache.key"))
    trace.patch(cache, "lookup", span("plan_cache.lookup"))
    trace.patch(cache, "insert", span("plan_cache.insert"))

    trace.patch(env, "resolve", span("env.resolve"))

    def checker(tc: Any) -> None:
        tc.check = timed("typecheck.check", tc.check)
        tc.check_scheme = timed("typecheck.check", tc.check_scheme)
    trace.patch(env, "typechecker", trace._factory(checker))

    optimizer = env.optimizer

    def firings(_result: Any) -> None:
        trace.events["optimizer.firings"] += sum(
            phase.stats.applications for phase in optimizer.phases)
    trace.patch(optimizer, "optimize", span("optimizer.optimize", firings))
    for phase in optimizer.phases:
        trace.patch(phase, "run", span(f"optimizer.{phase.name}"))

    cost = env.cost
    if cost is not None:
        trace.patch(cost, "estimate", span("optimizer.cost.estimate"))

        def record_run(fn: Callable) -> Callable:
            def observe(units: Any, seconds: float) -> bool:
                replan = fn(units, seconds)
                if (cost.enabled and units and units > 0 and seconds > 0
                        and cost.last_error):
                    error = cost.last_error
                    trace.q_errors.append(max(error, 1.0 / error))
                return replan
            return observe
        trace.patch(cost, "record_run", record_run)

    def compiled_engine(evaluator: Any) -> None:
        evaluator.prepare = timed("compile.codegen", evaluator.prepare)
        evaluator.run = timed("compile.run", evaluator.run)
    trace.patch(env, "plan_evaluator", trace._factory(compiled_engine))

    def engine(evaluator: Any) -> None:
        if hasattr(evaluator, "prepare"):
            compiled_engine(evaluator)
        else:
            evaluator.run = timed("eval.run", evaluator.run)
    trace.patch(env, "evaluator", trace._factory(engine))

    def kernel_done(result: Any) -> None:
        if result is not None:
            trace.events["kernels.taken"] += 1
            trace.events["kernels.cells"] += result.size
    trace.patch(kernels, "available",
                lambda fn: trace.counted("kernels.attempts", fn))
    trace.patch(kernels, "execute", span("kernels.execute", kernel_done))

    for name in ("join_interp", "join_compiled"):
        trace.patch(setops, name,
                    span("setops.join", _taken(trace, "setops.join_taken")))
    trace.patch(setops, "sorted_from_items", span("setops.sorted_group"))

    for name in _PARALLEL_ENTRIES:
        def taken(result: Any, kernel: bool = "kernel" in name) -> None:
            if result is not None:
                trace.events["parallel.taken"] += 1
                if kernel:
                    trace.events["kernels.taken_sharded"] += 1
        trace.patch(parallel, name, span("parallel.dispatch", taken))

    def io(layer: str) -> Callable[[Callable], Callable]:
        def wrap(lookup: Callable) -> Callable:
            return lambda name: timed(layer, lookup(name))
        return wrap
    trace.patch(env.drivers, "reader", io("io.readval"))
    trace.patch(env.drivers, "writer", io("io.writeval"))
