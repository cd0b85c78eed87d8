"""Tests for the heuristic cost model."""

import gc
import time
import weakref

from repro.core import ast
from repro.core.builders import map_array, transpose, zip2
from repro.objects.array import Array
from repro.objects.bag import Bag
from repro.optimizer.cost import (ASSUMED_CARDINALITY, CardinalityEstimator,
                                  estimate_cost)
from repro.optimizer.engine import default_optimizer
from repro.system.session import Session

N = ast.NatLit
V = ast.Var


class TestEstimates:
    def test_leaf_cost_positive(self):
        assert estimate_cost(V("x")) >= 1

    def test_loop_multiplies_body(self):
        flat = ast.Singleton(V("x"))
        loop = ast.Ext("x", flat, V("S"))
        assert estimate_cost(loop) > estimate_cost(flat) * 2

    def test_constant_bounds_used(self):
        small = ast.Tabulate(("i",), (N(2),), V("i"))
        large = ast.Tabulate(("i",), (N(1000),), V("i"))
        assert estimate_cost(large) > estimate_cost(small)

    def test_nested_loops_compound(self):
        inner = ast.Tabulate(("j",), (V("n"),), V("j"))
        outer = ast.Tabulate(("i",), (V("n"),), inner)
        assert estimate_cost(outer) > 10 * estimate_cost(inner)

    def test_assumed_cardinality_parameter(self):
        loop = ast.Ext("x", ast.Singleton(V("x")), V("S"))
        assert estimate_cost(loop, assumed=100) > \
            estimate_cost(loop, assumed=2)


class TestCardinalityEstimator:
    """The static size analysis behind the calibrated cost model."""

    def test_literal_and_const_values(self):
        cards = CardinalityEstimator()
        assert cards.value_of(N(7)) == 7
        assert cards.value_of(ast.Const(12)) == 12
        assert cards.value_of(ast.Const(True)) is None
        assert cards.value_of(V("n")) is None

    def test_no_arithmetic_folding(self):
        # deliberate: the estimator mirrors what rules_arith can prove,
        # so an extent hidden behind (n*7)/7 stays unknown
        cards = CardinalityEstimator()
        hidden = ast.Arith("/", ast.Arith("*", ast.Const(6), N(7)), N(7))
        assert cards.value_of(hidden) is None

    def test_dims_of_const_array_and_tabulate(self):
        cards = CardinalityEstimator()
        stored = ast.Const(Array((3, 4), range(12)))
        assert cards.dims_of(stored) == (3, 4)
        tab = ast.Tabulate(("i", "j"), (N(5), N(6)), V("i"))
        assert cards.dims_of(tab) == (5, 6)
        unknown = ast.Tabulate(("i",), (V("n"),), V("i"))
        assert cards.dims_of(unknown) is None

    def test_dim_of_known_array(self):
        cards = CardinalityEstimator()
        tab = ast.Tabulate(("i",), (N(9),), V("i"))
        assert cards.value_of(ast.Dim(tab, 1)) == 9

    def test_set_and_bag_cardinalities(self):
        cards = CardinalityEstimator()
        assert cards.cardinality(ast.Const(frozenset({1, 2, 3}))) == 3
        assert cards.cardinality(ast.Const(Bag([1, 1, 2]))) == 3
        assert cards.cardinality(ast.EmptySet()) == 0
        assert cards.cardinality(ast.Singleton(V("x"))) == 1
        assert cards.cardinality(
            ast.Union(ast.Singleton(N(1)), ast.Const(frozenset({2, 3})))
        ) == 3
        assert cards.cardinality(ast.Gen(N(8))) == 8
        assert cards.cardinality(V("S")) is None


class TestKnownExtents:
    """Known constant extents replace ASSUMED_CARDINALITY (satellite b)."""

    def test_gen_uses_known_extent(self):
        assert estimate_cost(ast.Gen(N(1000))) \
            > 10 * estimate_cost(ast.Gen(V("n")))
        assert estimate_cost(ast.Gen(N(2))) < estimate_cost(ast.Gen(V("n")))

    def test_index_set_uses_known_size(self):
        big = ast.IndexSet(ast.Const(frozenset(range(500))), 1)
        small = ast.IndexSet(ast.Const(frozenset(range(2))), 1)
        unknown = ast.IndexSet(V("S"), 1)
        assert estimate_cost(big) > 10 * estimate_cost(unknown)
        assert estimate_cost(small) < estimate_cost(unknown)

    def test_loop_over_known_source(self):
        body = ast.Singleton(ast.Arith("*", V("x"), V("x")))
        known = ast.Ext("x", body, ast.Const(frozenset(range(100))))
        unknown = ast.Ext("x", body, V("S"))
        # the unknown source is charged ASSUMED_CARDINALITY iterations
        assert estimate_cost(known) > (100 // ASSUMED_CARDINALITY) // 2 \
            * estimate_cost(unknown)

    def test_tabulate_over_dim_of_known_array(self):
        stored = ast.Const(Array((256,), range(256)))
        known = ast.Tabulate(("i",), (ast.Dim(stored, 1),), V("i"))
        generic = ast.Tabulate(("i",), (ast.Dim(V("A"), 1),), V("i"))
        assert estimate_cost(known) > 10 * estimate_cost(generic)


class TestSharedDagMemo:
    """Shared-DAG subexpressions are costed once, not once per path
    (satellite a: the pre-memo walk was exponential on these trees)."""

    def test_deep_duplication_completes_fast(self):
        expr = V("x")
        for _ in range(64):
            expr = ast.Arith("+", expr, expr)
        started = time.perf_counter()
        units = estimate_cost(expr)
        elapsed = time.perf_counter() - started
        # 2**64 leaf paths: only memoization by node id makes this finite
        assert units > 2 ** 64
        assert elapsed < 1.0

    def test_shared_loops_memoized(self):
        loop = ast.Ext("x", ast.Singleton(V("x")), V("S"))
        expr = loop
        for _ in range(48):
            expr = ast.Union(expr, expr)
        started = time.perf_counter()
        assert estimate_cost(expr) > 0
        assert time.perf_counter() - started < 1.0


class _TrackedArray(Array):
    """An Array that can be weakly referenced (Array itself has slots)."""

    __slots__ = ("__weakref__",)


class TestEstimateMemoLifetime:
    def test_rebound_array_is_collectable(self):
        """The estimate memo must not pin the ``Const`` nodes of plans
        the session dropped: once ``v`` is rebound (invalidating every
        plan over it), its old array is garbage."""
        session = Session()
        old = _TrackedArray((3,), [1, 2, 3])
        session.env.set_val("v", old)
        assert session.query_value("v[1] + 1") == 3
        assert session.query_value("summap(fn \\i => v[i])!(gen!3)") == 6
        collected = weakref.ref(old)
        del old
        session.env.set_val("v", Array((3,), [4, 5, 6]))
        assert len(session.plan_cache) == 0
        assert session.query_value("1 + 1") == 2  # EXPLAIN state moves on
        gc.collect()
        assert collected() is None


class TestOptimizationReducesCost:
    def test_beta_p_cheaper(self):
        opt = default_optimizer()
        e = ast.Subscript(
            ast.Tabulate(("i",), (N(1000),), ast.Arith("*", V("i"), N(2))),
            (N(5),),
        )
        assert estimate_cost(opt.optimize(e)) < estimate_cost(e)

    def test_eta_p_cheaper(self):
        opt = default_optimizer()
        e = map_array(lambda x: x, V("A"))
        assert estimate_cost(opt.optimize(e)) < estimate_cost(e)

    def test_transpose_rule_cheaper(self):
        opt = default_optimizer()
        e = transpose(ast.Tabulate(("i", "j"), (V("m"), V("n")), V("i")))
        assert estimate_cost(opt.optimize(e)) < estimate_cost(e)

    def test_map_fusion_cheaper(self):
        opt = default_optimizer()
        e = map_array(lambda x: ast.Arith("+", x, N(1)),
                      map_array(lambda x: ast.Arith("*", x, N(2)), V("A")))
        assert estimate_cost(opt.optimize(e)) < estimate_cost(e)
