"""The plan cache's front memo: source text → parsed statements.

A repeated text skips lex, parse, desugar and fingerprinting, but every
statement still probes the plan cache, whose generation checks decide
whether the plan is valid.  These tests pin down that a memo hit really
skips the front end, that every environment mutation path still yields
the new result, and that the memo's bound, kill switch (capacity 0) and
error behaviour hold.
"""

import pytest

from repro.core import ast
from repro.errors import ParseError
from repro.system import session as session_module
from repro.system.session import Session
from repro.types.types import TArrow, TNat


class _Counts:
    """Counts calls of the session's parser and desugarer."""

    def __init__(self, session, monkeypatch):
        self.parses = 0
        self.desugars = 0
        parse, desugar = (session_module.parse_program,
                          session._desugarer.desugar)

        def counted_parse(*args, **kwargs):
            self.parses += 1
            return parse(*args, **kwargs)

        def counted_desugar(*args, **kwargs):
            self.desugars += 1
            return desugar(*args, **kwargs)

        monkeypatch.setattr(session_module, "parse_program", counted_parse)
        monkeypatch.setattr(session._desugarer, "desugar", counted_desugar)


@pytest.fixture
def counts(session, monkeypatch):
    return _Counts(session, monkeypatch)


def _values(outputs):
    return [output.value for output in outputs]


class TestHitSkipsFrontEnd:
    def test_run_hit_neither_parses_nor_desugars(self, session, counts):
        assert _values(session.run("summap(fn \\x => x)!(gen!4);")) == [6]
        parses, desugars = counts.parses, counts.desugars
        assert parses == 1 and desugars >= 1
        assert _values(session.run("summap(fn \\x => x)!(gen!4);")) == [6]
        assert (counts.parses, counts.desugars) == (parses, desugars)
        stats = session.plan_cache.stats
        assert stats.front_hits == 1
        assert (stats.hits, stats.misses) == (1, 1)  # the plan probe ran

    def test_query_value_parses_once_and_then_not_at_all(self, session,
                                                         counts):
        assert session.query_value("1 + 2") == 3
        assert counts.parses == 1  # the missing ';' costs no second parse
        assert session.query_value("1 + 2") == 3
        assert counts.parses == 1
        assert session.plan_cache.stats.front_hits == 1

    def test_run_does_not_accept_a_query_value_text(self, session):
        assert session.query_value("1 + 2") == 3
        with pytest.raises(ParseError):
            session.run("1 + 2")


class TestMutationsStillApply:
    def test_set_val(self, session):
        session.env.set_val("x", 1)
        assert session.query_value("x + 1") == 2
        session.env.set_val("x", 41)
        assert session.query_value("x + 1") == 42

    def test_val_statement(self, session):
        session.run("val \\x = 1;")
        assert session.query_value("x * 3") == 3
        session.run("val \\x = 5;")
        assert session.query_value("x * 3") == 15

    def test_register_macro_replace(self, session):
        session.env.register_macro("m", ast.NatLit(1))
        assert session.query_value("m + 1") == 2
        session.env.register_macro("m", ast.NatLit(5), replace=True)
        assert session.query_value("m + 1") == 6

    def test_register_co(self, session):
        session.register_co("f", lambda x: x * 2, TArrow(TNat(), TNat()))
        assert session.query_value("f!2") == 4
        session.register_co("f", lambda x: x * 3, TArrow(TNat(), TNat()),
                            replace=True)
        assert session.query_value("f!2") == 6

    def test_multi_statement_text_replays_after_rebinding(self, session):
        source = "val \\x = 1; x + 1;"
        assert _values(session.run(source)) == [1, 2]
        session.env.set_val("x", 10)
        assert session.query_value("x + 1") == 11
        assert _values(session.run(source)) == [1, 2]
        assert session.query_value("x + 1") == 2
        assert session.plan_cache.stats.front_hits >= 1


class TestKeyingAndBounds:
    def test_optimize_flag_keys_plans_separately(self, session):
        session.query_value("1 + 1")
        session.optimize = False
        session.query_value("1 + 1")
        assert session.plan_cache.stats.hits == 0
        assert len(session.plan_cache) == 2
        assert session.plan_cache.stats.front_hits == 1
        session.optimize = True
        session.query_value("1 + 1")
        assert session.plan_cache.stats.hits == 1

    def test_capacity_zero_disables_the_memo(self, monkeypatch):
        session = Session(plan_cache_capacity=0)
        counts = _Counts(session, monkeypatch)
        for _ in range(3):
            assert session.query_value("1 + 1") == 2
        assert counts.parses == 3
        assert session.plan_cache.stats.front_hits == 0
        assert session.plan_cache.snapshot()["texts"] == 0

    def test_lru_bound_holds(self, monkeypatch):
        session = Session(plan_cache_capacity=2)
        counts = _Counts(session, monkeypatch)
        for source in ("1;", "2;", "3;"):
            session.run(source)
        assert session.plan_cache.snapshot()["texts"] == 2
        session.run("3;")  # still memoized
        assert counts.parses == 3
        session.run("1;")  # the least recently used text was dropped
        assert counts.parses == 4
        assert session.plan_cache.snapshot()["texts"] == 2

    def test_cache_clear_empties_the_memo(self, session):
        session.query_value("1 + 1")
        session.plan_cache.clear()
        assert session.plan_cache.snapshot()["texts"] == 0


class TestErrors:
    @pytest.mark.parametrize("call, source", [
        ("run", "1 +;"), ("query_value", "(1"), ("query_value", "1 +")])
    def test_failing_text_raises_the_same_error_every_call(self, session,
                                                          counts, call,
                                                          source):
        messages = []
        for _ in range(3):
            with pytest.raises(ParseError) as err:
                getattr(session, call)(source)
            messages.append(str(err.value))
        assert len(set(messages)) == 1
        assert counts.parses == 3  # never memoized
        assert session.plan_cache.snapshot()["texts"] == 0


class TestObservability:
    def test_profile_of_memoized_text_reports_parse_span(self, session):
        session.run("summap(fn \\x => x * x)!(gen!6);")
        report = session.explain("summap(fn \\x => x * x)!(gen!6);")
        assert report.value == 55
        parse = report.span("parse")
        assert parse is not None and parse.meta["front_hit"] is True
        assert report.span("desugar") is None
        assert report.to_dict()["plan_cache"]["front_hits"] == 1
        assert "front_hits 1" in report.render()

    def test_miss_parse_span_is_not_marked(self, session):
        report = session.explain("2 + 2;")
        assert "front_hit" not in report.span("parse").meta

    def test_cache_render_shows_front_hits(self, session):
        session.query_value("1 + 1")
        session.query_value("1 + 1")
        text = session.plan_cache.render()
        assert "1 texts" in text and "front_hits 1" in text
