"""The calibrated, feedback-driven cost model.

The paper's optimizer architecture registers "rules/cost functions"
into the environment (Section 4.1).  This module grew from a unit-cost
heuristic into the three layers a real cost-based optimizer needs:

:class:`CardinalityEstimator`
    Static size analysis over core expressions: constant tabulation
    bounds, literal set/bag sizes, ``Array.dims`` of resolved ``val``
    constants (the resolver splices values in as :class:`~repro.core.ast.Const`
    nodes, so the estimator sees the *actual* bound data), ``gen``/
    ``dim_k`` of known extents, and simple propagation through
    union/ext/if.  ``None`` means "unknown" — the caller falls back to
    :data:`ASSUMED_CARDINALITY`.  Arithmetic is deliberately *not*
    folded: the estimator mirrors what the rewrite rules can prove
    (``rules_arith`` folds literal-literal operations only), so an
    extent hidden behind ``(n*7)/7`` stays unknown — which is precisely
    the mis-estimate the adaptive re-planner exists to catch.

:class:`CostEstimator`
    The unit-cost walk (loops multiply their body by the estimated
    source cardinality), memoized per AST node within one walk —
    shared-DAG subexpressions are costed once instead of exponentially.

:class:`CostModel`
    The session-wide model: per-operator coefficients calibrated online
    (an EMA over observed seconds-per-unit from real runs, plus the
    cells-per-second rates :meth:`~repro.core.fastpath.DispatchConfig.observe`
    already collects), cost-gated physical choices (join build/decline,
    sorted-vs-dict grouping, serial/kernel/shard dispatch, rewrite-phase
    skipping), and the adaptive re-plan trigger (observed cost diverging
    from predicted by ``replan_factor``).

Modes: ``"off"`` (pure static thresholds, bit-identical to the
pre-cost-model system), ``"observe"`` (the default: estimates and
calibration are recorded and surfaced in ``:profile``/EXPLAIN, but
every dispatch decision stays static), ``"active"`` (estimates gate the
physical choices and divergence triggers re-planning).  The
``REPRO_NO_COST=1`` kill switch makes :meth:`CostModel.from_env` return
``None`` — no model is constructed at all.  See ``docs/COST_MODEL.md``.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core import ast
from repro.objects.array import Array
from repro.objects.bag import Bag

#: assumed cardinality of sets/arrays whose size is unknown statically
ASSUMED_CARDINALITY = 16

#: the three model modes (see the module docstring)
COST_MODES = ("off", "observe", "active")

#: bootstrap seconds-per-unit for the scalar evaluator before any run
#: has calibrated it (the order of magnitude of one interpreted node
#: evaluation on current hardware; refined by EMA from real runs)
DEFAULT_SCALAR_SECONDS = 2e-7

#: fixed cost of a shard dispatch (pool hand-off + partition + stitch);
#: mirrors :data:`repro.core.fastpath.ADAPTIVE_MIN_SECONDS`
DEFAULT_SHARD_OVERHEAD = 0.005

#: units charged per hash build/probe operation, relative to one scalar
#: evaluation unit (a HashKey wrap + dict operation costs a few node
#: evaluations' worth of work)
DEFAULT_HASH_OP_UNITS = 4.0

#: units charged per sort comparison in the sorted-grouping model
DEFAULT_SORT_COMPARE_UNITS = 1.0

#: observed/predicted divergence factor beyond which an active model
#: re-plans the query (and refuses to calibrate from the measurement)
DEFAULT_REPLAN_FACTOR = 8.0

#: observed seconds below which a divergent run never re-plans: a
#: sub-millisecond query is dominated by fixed interpreter overhead the
#: unit model does not charge, and re-planning it cannot pay for the
#: recompile anyway
DEFAULT_MIN_REPLAN_SECONDS = 1e-3

#: loop constructs whose body cost is multiplied by the source size
_LOOPS = (ast.Ext, ast.Sum, ast.BagExt, ast.ExtRank, ast.BagExtRank)


class CardinalityEstimator:
    """Static cardinality/extent analysis over core expressions.

    Every method returns a non-negative ``int`` when the quantity is
    statically known, else ``None``.  The analysis is conservative and
    purely syntactic; it never evaluates user code.
    """

    def value_of(self, expr: ast.Expr) -> Optional[int]:
        """The natural-number value of ``expr``, when statically known.

        Literals, resolved ``val`` constants, and ``dim_1`` of an array
        whose dims are known (:meth:`dims_of`).  No arithmetic folding —
        see the module docstring for why that is a feature.
        """
        if isinstance(expr, ast.NatLit):
            return expr.value
        if isinstance(expr, ast.Const):
            value = expr.value
            if isinstance(value, int) and not isinstance(value, bool) \
                    and value >= 0:
                return value
            return None
        if isinstance(expr, ast.Dim) and expr.rank == 1:
            dims = self.dims_of(expr.expr)
            if dims:
                return dims[0]
        return None

    def dims_of(self, expr: ast.Expr) -> Optional[Tuple[int, ...]]:
        """The dimension tuple of an array-valued ``expr``, when known:
        a ``Const`` holding an :class:`~repro.objects.array.Array`, a
        tabulation with known bounds, or a ``MkArray`` literal."""
        if isinstance(expr, ast.Const) and isinstance(expr.value, Array):
            return tuple(expr.value.dims)
        if isinstance(expr, ast.Tabulate):
            bounds = [self.value_of(bound) for bound in expr.bounds]
            if all(bound is not None for bound in bounds):
                return tuple(bounds)  # type: ignore[arg-type]
            return None
        if isinstance(expr, ast.MkArray):
            dims = [self.value_of(dim) for dim in expr.dims]
            if all(dim is not None for dim in dims):
                return tuple(dims)  # type: ignore[arg-type]
        return None

    def cardinality(self, expr: ast.Expr) -> Optional[int]:
        """The element count of a set/bag-valued ``expr``, when known.

        Union cardinalities are *upper bounds* (duplicates may
        collapse), which is the right direction for a cost estimate.
        """
        if isinstance(expr, ast.Const):
            value = expr.value
            if isinstance(value, (frozenset, Bag)):
                return len(value)
            return None
        if isinstance(expr, (ast.EmptySet, ast.EmptyBag)):
            return 0
        if isinstance(expr, (ast.Singleton, ast.SingletonBag)):
            return 1
        if isinstance(expr, (ast.Union, ast.BagUnion)):
            left = self.cardinality(expr.left)
            right = self.cardinality(expr.right)
            if left is not None and right is not None:
                return left + right
            return None
        if isinstance(expr, ast.Gen):
            return self.value_of(expr.expr)
        if isinstance(expr, (ast.Ext, ast.BagExt)):
            outer = self.cardinality(expr.source)
            inner = self.cardinality(expr.body)
            if outer is not None and inner is not None:
                return outer * inner
            return None
        if isinstance(expr, ast.If):
            then = self.cardinality(expr.then)
            orelse = self.cardinality(expr.orelse)
            if then is not None and orelse is not None:
                return max(then, orelse)
        return None


class CostEstimator:
    """The memoized unit-cost walk.

    Loop bodies are charged the estimated source cardinality (or
    ``assumed`` when unknown).  This deliberately over-counts
    tabulations, which is exactly the β^p/η^p intuition: materialization
    is expensive.  Within one :meth:`cost` walk results are memoized by
    node identity, so shared-DAG subexpressions (the ``e + e`` tower
    blow-up family) are costed once.  The memo dies with the walk:
    a session-long model must not keep the nodes of dropped plans — nor
    the ``Const`` values of rebound vals they wrap — alive.
    """

    def __init__(self, assumed: int = ASSUMED_CARDINALITY):
        self.assumed = assumed
        self.cards = CardinalityEstimator()

    def cost(self, expr: ast.Expr) -> int:
        """The unit-cost estimate of evaluating ``expr`` once."""
        memo: Dict[int, int] = {}

        def walk(node: ast.Expr) -> int:
            units = memo.get(id(node))
            if units is None:
                units = memo[id(node)] = self._cost(node, walk)
            return units

        return walk(expr)

    def _cost(self, expr: ast.Expr, walk: Callable[[ast.Expr], int]) -> int:
        assumed = self.assumed
        if isinstance(expr, _LOOPS):
            size = self.cards.cardinality(expr.source)
            if size is None:
                size = assumed
            return 1 + walk(expr.source) + size * walk(expr.body)
        if isinstance(expr, ast.Tabulate):
            iterations = 1
            bounds_cost = 0
            for bound in expr.bounds:
                bounds_cost += walk(bound)
                extent = self.cards.value_of(bound)
                iterations *= max(extent, 1) if extent is not None \
                    else assumed
            return 1 + bounds_cost + iterations * walk(expr.body)
        if isinstance(expr, ast.IndexSet):
            size = self.cards.cardinality(expr.expr)
            if size is None:
                size = assumed
            return 1 + size + walk(expr.expr)
        if isinstance(expr, ast.Gen):
            extent = self.cards.value_of(expr.expr)
            if extent is None:
                extent = assumed
            return 1 + extent + walk(expr.expr)
        return 1 + sum(walk(child) for child in expr.children())


def estimate_cost(expr: ast.Expr, assumed: int = ASSUMED_CARDINALITY) -> int:
    """A unit-cost estimate of evaluating ``expr`` once.

    The historical entry point, kept API-compatible; shared-DAG
    subexpressions are costed once per call instead of once per path
    (the pre-memo walk was exponential on duplication-heavy trees).
    """
    return CostEstimator(assumed=assumed).cost(expr)


class CostModel:
    """The session-wide calibrated cost model (see module docstring).

    One instance is owned by each :class:`~repro.env.environment.TopEnv`
    and shared by reference with the env's
    :class:`~repro.core.fastpath.DispatchConfig` (dispatch decisions,
    rate feedback) and :class:`~repro.optimizer.engine.Optimizer`
    (phase skipping), so tuning it mid-session retunes everything at
    once — the same by-reference discipline ``DispatchConfig`` uses.
    """

    #: phases the cost floor may skip.  Only code motion: normalize/
    #: bounds/cleanup firings can *shrink* evaluation work on any input,
    #: while hoisting only pays off when the loop actually spins — so it
    #: is the one phase a provably-cheap query can safely not buy.
    floor_phases: Tuple[str, ...] = ("motion",)

    def __init__(self, mode: str = "observe",
                 assumed: int = ASSUMED_CARDINALITY,
                 floor_units: float = 0.0,
                 replan_factor: float = DEFAULT_REPLAN_FACTOR):
        if mode not in COST_MODES:
            raise ValueError(f"unknown cost mode {mode!r} "
                             f"(expected one of {', '.join(COST_MODES)})")
        self.mode = mode
        self.estimator = CostEstimator(assumed=assumed)
        #: unit-cost floor below which an active model skips the
        #: ``floor_phases``; 0 disables floor skipping
        self.floor_units = floor_units
        #: observed/predicted divergence factor that triggers a re-plan
        self.replan_factor = replan_factor
        #: floor (observed seconds) under which divergence never
        #: re-plans — overhead-dominated micro-queries are not worth a
        #: recompile and would otherwise re-plan constantly
        self.min_replan_seconds = DEFAULT_MIN_REPLAN_SECONDS
        # -- per-operator coefficients (calibrated online) --
        #: EMA'd seconds per estimated unit of scalar evaluation
        self.scalar_seconds = DEFAULT_SCALAR_SECONDS
        #: seconds per cell of the numpy kernel (from observed rates)
        self.kernel_cell_seconds: Optional[float] = None
        #: fixed shard-dispatch cost in seconds
        self.shard_overhead_seconds = DEFAULT_SHARD_OVERHEAD
        #: hash build/probe cost in scalar units
        self.hash_op_units = DEFAULT_HASH_OP_UNITS
        #: sort comparison cost in scalar units
        self.sort_compare_units = DEFAULT_SORT_COMPARE_UNITS
        #: measured cells-per-second by mode, fed by
        #: :meth:`~repro.core.fastpath.DispatchConfig.observe`
        self.rates: Dict[str, float] = {}
        #: set by :meth:`full_pipeline` while a re-plan compiles, so the
        #: second plan runs every phase the floor skipped the first time
        self.force_full = False
        #: ``cost_*`` counters surfaced in ``:profile``/EXPLAIN
        self.counters: Dict[str, int] = {
            "cost_estimates": 0,
            "cost_calibrations": 0,
            "cost_divergences": 0,
            "cost_replans": 0,
            "cost_phase_skips": 0,
            "cost_join_decisions": 0,
            "cost_group_decisions": 0,
            "cost_dispatch_decisions": 0,
        }
        # -- the most recent estimate-vs-actual record --
        self.last_units: Optional[float] = None
        self.last_predicted: Optional[float] = None
        self.last_observed: Optional[float] = None
        self.last_error: Optional[float] = None

    # -- switches ---------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether the model records anything at all."""
        return self.mode != "off"

    @property
    def active(self) -> bool:
        """Whether estimates gate physical choices and trigger re-plans."""
        return self.mode == "active"

    @classmethod
    def from_env(cls) -> Optional["CostModel"]:
        """The process-environment construction used by ``TopEnv``.

        ``REPRO_NO_COST=1`` (the kill switch) returns ``None`` — no
        model exists and every dispatch site sees exactly the static
        pre-cost-model thresholds.  ``REPRO_COST`` picks the mode
        (default ``observe``), ``REPRO_COST_FLOOR`` the unit floor,
        ``REPRO_COST_REPLAN`` the divergence factor.
        """
        if os.environ.get("REPRO_NO_COST", "") == "1":
            return None
        mode = os.environ.get("REPRO_COST", "observe")
        if mode not in COST_MODES:
            mode = "observe"
        model = cls(mode=mode)
        for name, attribute, minimum in (
                ("REPRO_COST_FLOOR", "floor_units", 0.0),
                ("REPRO_COST_REPLAN", "replan_factor", 1.0)):
            raw = os.environ.get(name, "")
            if raw:
                try:
                    value = float(raw)
                    if value >= minimum:
                        setattr(model, attribute, value)
                except ValueError:
                    pass
        return model

    # -- estimation and calibration ---------------------------------------

    def estimate(self, expr: ast.Expr) -> Optional[int]:
        """The memoized unit-cost estimate, or ``None`` when the model
        is off or the expression out-nests the host stack."""
        if not self.enabled:
            return None
        try:
            units = self.estimator.cost(expr)
        except RecursionError:
            return None
        self.counters["cost_estimates"] += 1
        return units

    def predict_seconds(self, units: float) -> float:
        """Projected wall-clock seconds for ``units`` of scalar work."""
        return units * self.scalar_seconds

    def record_run(self, units: Optional[float], seconds: float) -> bool:
        """Fold one observed run into the calibration; True ⇒ re-plan.

        Agreeing runs (within ``replan_factor`` of the prediction) EMA
        the scalar coefficient toward the observed seconds-per-unit.
        Diverging runs are *not* calibrated from — a wildly
        mis-estimated query would poison the coefficient for every
        other query — they are counted as divergences instead, and (in
        active mode, when the observed cost exceeds the prediction by
        the factor) they request a re-plan.
        """
        if not self.enabled or units is None or units <= 0 \
                or seconds <= 0.0:
            return False
        predicted = self.predict_seconds(units)
        self.last_units = units
        self.last_predicted = predicted
        self.last_observed = seconds
        if predicted <= 0.0:
            return False
        error = seconds / predicted
        self.last_error = error
        factor = self.replan_factor
        if 1.0 / factor <= error <= factor:
            if seconds >= 1e-5:  # sub-resolution timings stay out
                self.scalar_seconds = (0.5 * self.scalar_seconds
                                       + 0.5 * seconds / units)
                self.counters["cost_calibrations"] += 1
            return False
        self.counters["cost_divergences"] += 1
        return (self.active and error > factor
                and seconds >= self.min_replan_seconds)

    def observe_rate(self, mode: str, cells: int, seconds: float) -> None:
        """Rate feedback forwarded from ``DispatchConfig.observe``."""
        if cells <= 0 or seconds <= 0.0:
            return
        rate = cells / seconds
        old = self.rates.get(mode)
        self.rates[mode] = rate if old is None else 0.5 * old + 0.5 * rate
        if mode == "kernel":
            self.kernel_cell_seconds = 1.0 / self.rates["kernel"]

    # -- cost-gated physical choices --------------------------------------

    def join_decision(self, outer_n: int, inner_n: int,
                      inner_source: ast.Expr) -> Optional[bool]:
        """Should the hash-join fast path serve this shape?

        ``None`` defers to the static gate (non-active modes).  The
        comparison the static gate cannot make: the naive loop
        re-evaluates the inner *source expression* once per outer
        element, so its cost is ``|S| * (units(T) + |T|)`` — an
        expensive inner source makes hashing win even when the static
        ``|T| < 2`` rule would decline.  The hash plan pays the source
        once plus a build/probe per element.  A 2x margin keeps
        borderline shapes on the naive loop (recognition isn't free).
        """
        if not self.active:
            return None
        source_units = self.estimate(inner_source)
        if source_units is None:
            return None
        self.counters["cost_join_decisions"] += 1
        naive = outer_n * (source_units + max(inner_n, 1))
        hashed = (source_units
                  + self.hash_op_units * (outer_n + inner_n)
                  + min(outer_n, inner_n))
        return naive > 2.0 * hashed

    def group_decision(self, items: int,
                       cells: int) -> Optional[bool]:
        """Sorted (True) or dict (False) ``index_k`` grouping; ``None``
        defers to the static sparsity gate.

        Sorted pays ``n log n`` comparisons plus a cheap shared-hole
        cell fill; dict pays a hash op per pair plus a per-cell
        materialization.  Holes dominating ⇒ sorted wins, matching the
        measured ``SPARSITY_FACTOR`` behaviour it replaces.
        """
        if not self.active or items <= 0:
            return None
        self.counters["cost_group_decisions"] += 1
        sorted_cost = (self.sort_compare_units * items
                       * max(1.0, math.log2(items))
                       + 0.05 * cells + items)
        dict_cost = self.hash_op_units * items + float(cells)
        return sorted_cost < dict_cost

    def shards_decision(self, cells: int,
                        backend: str) -> Optional[bool]:
        """Shard (True), stay serial (False), or defer (``None``).

        Projects the serial time from the measured serial rate; below
        the shard overhead the dispatch cannot win.  An unmeasured
        backend defers to the static/adaptive gate rather than forcing
        a trial dispatch.
        """
        if not self.active:
            return None
        serial_rate = self.rates.get("serial")
        if not serial_rate:
            return None
        self.counters["cost_dispatch_decisions"] += 1
        if cells / serial_rate < self.shard_overhead_seconds:
            return False
        shard_rate = self.rates.get(backend)
        if shard_rate is None:
            return None
        return shard_rate > serial_rate * 1.05

    def kernel_shards_decision(self, cells: int) -> Optional[bool]:
        """Shard a kernel-shaped construct?  Projected from the measured
        kernel rate: only a serial-kernel run long enough to amortize
        pool hand-off and slab stitching (an order of magnitude over the
        per-dispatch overhead) is worth splitting."""
        if not self.active:
            return None
        kernel_rate = self.rates.get("kernel")
        if not kernel_rate:
            return None
        self.counters["cost_dispatch_decisions"] += 1
        return cells / kernel_rate >= 10.0 * self.shard_overhead_seconds

    def on_phase_skip(self, phase: str, reason: str) -> None:
        """Count a rewrite phase skipped by the engine (absence proof
        or cost floor); the reason lands in ``PhaseStats.skipped``."""
        self.counters["cost_phase_skips"] += 1

    @contextmanager
    def full_pipeline(self):
        """Disable floor skipping while a re-plan compiles, so the
        second plan gets every phase the first one skipped."""
        saved = self.force_full
        self.force_full = True
        try:
            yield
        finally:
            self.force_full = saved

    # -- reporting --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe state for EXPLAIN/``:profile`` (``cost_model`` key)."""
        snap: Dict[str, Any] = {
            "mode": self.mode,
            "floor_units": self.floor_units,
            "replan_factor": self.replan_factor,
            "coefficients": {
                "scalar_seconds_per_unit": self.scalar_seconds,
                "kernel_seconds_per_cell": self.kernel_cell_seconds,
                "hash_op_units": self.hash_op_units,
                "sort_compare_units": self.sort_compare_units,
                "shard_overhead_seconds": self.shard_overhead_seconds,
            },
            "rates_cells_per_s": {mode: round(rate, 3)
                                  for mode, rate in sorted(self.rates.items())},
        }
        snap.update(self.counters)
        if self.last_units is not None:
            snap["last_estimate"] = {
                "units": self.last_units,
                "predicted_seconds": round(self.last_predicted or 0.0, 9),
                "observed_seconds": round(self.last_observed or 0.0, 9),
                "error_factor": round(self.last_error, 3)
                if self.last_error is not None else None,
            }
        return snap

    def render(self) -> str:
        """The human-readable ``:cost`` text."""
        counters = self.counters
        lines = [
            (f"cost model: mode={self.mode} "
             f"floor_units={self.floor_units:g} "
             f"replan_factor={self.replan_factor:g}"),
            (f"coefficients: scalar={self.scalar_seconds:.3g} s/unit  "
             f"kernel={self.kernel_cell_seconds:.3g} s/cell  "
             if self.kernel_cell_seconds is not None else
             f"coefficients: scalar={self.scalar_seconds:.3g} s/unit  ")
            + (f"hash={self.hash_op_units:g}u  "
               f"sort={self.sort_compare_units:g}u  "
               f"shard_overhead={self.shard_overhead_seconds:g} s"),
            (f"estimates {counters['cost_estimates']}  "
             f"calibrations {counters['cost_calibrations']}  "
             f"divergences {counters['cost_divergences']}  "
             f"replans {counters['cost_replans']}"),
            (f"phase_skips {counters['cost_phase_skips']}  "
             f"join_decisions {counters['cost_join_decisions']}  "
             f"group_decisions {counters['cost_group_decisions']}  "
             f"dispatch_decisions {counters['cost_dispatch_decisions']}"),
        ]
        if self.rates:
            shown = " ".join(f"{mode}={rate:.0f}"
                             for mode, rate in sorted(self.rates.items()))
            lines.append(f"rates[cells/s]: {shown}")
        if self.last_units is not None and self.last_error is not None:
            lines.append(
                f"last query: {self.last_units:g} units, predicted "
                f"{(self.last_predicted or 0.0) * 1e3:.3f} ms, observed "
                f"{(self.last_observed or 0.0) * 1e3:.3f} ms "
                f"(x{self.last_error:.2f})")
        return "\n".join(lines)


__all__ = [
    "ASSUMED_CARDINALITY", "COST_MODES", "DEFAULT_REPLAN_FACTOR",
    "CardinalityEstimator", "CostEstimator", "CostModel", "estimate_cost",
]
