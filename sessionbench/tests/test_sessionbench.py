"""Tests of the benchmark itself: generation, checking, and short runs."""

import json
import os
from collections import Counter

import pytest

import harness
import tracediff
from check import BOTTOM, DenseExpect, RArray, expect, mismatch
from layers import UNITS
from workloads import WORKLOADS, build

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _expected(stmt):
    if isinstance(stmt.expected, DenseExpect):
        exp = stmt.expected
        return exp.dims, exp.kind, exp.data.tobytes()
    return stmt.expected


def _stream(spec):
    return [(s.template, s.kind, s.via, s.text, s.value_key, _expected(s))
            for s in spec.round]


def _mix(spec):
    return Counter((s.template, s.kind, s.via) for s in spec.round)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_stream(workload):
    assert _stream(build(workload, 7)) == _stream(build(workload, 7))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_keeps_mix_changes_constants(workload):
    first, second = build(workload, 7), build(workload, 8)
    assert _mix(first) == _mix(second)
    texts_first = Counter(s.text for s in first.round)
    texts_second = Counter(s.text for s in second.round)
    assert texts_first != texts_second


def test_hot_round_restores_its_bindings_and_mixes_paths():
    spec = build("hot", 3)
    writes = [s for s in spec.round if s.kind == "write"]
    assert len(writes) * 100 == len(spec.round)
    rebinds = Counter(s.value_key for s in writes if s.via == "set_val")
    assert rebinds["v1"] == rebinds["v0"] and rebinds["s1"] == rebinds["s0"]
    texts = {s.text for s in spec.round if s.kind == "query"}
    assert len(texts) == 50
    unterminated = {t for t in texts if not t.endswith(";")}
    assert len(unterminated) == 25


def test_adhoc_texts_are_fresh():
    spec = build("adhoc", 3)
    texts = [s.text for s in spec.round]
    assert len(texts) == len(set(texts))


def test_checker_compares_kind_first():
    assert mismatch(expect(1), 1) is None
    assert mismatch(expect(1), 1.0) is not None
    assert mismatch(expect(1), True) is not None
    assert mismatch(expect(True), 1) is not None
    assert mismatch(expect(frozenset({1, 2})), frozenset({1.0, 2})) is not None
    assert mismatch(expect((1, "a")), (1, "a")) is None
    assert mismatch(expect((1, "a")), (True, "a")) is not None
    assert mismatch(expect(2.5), 2.5 * (1 + 1e-15)) is None


def test_checker_compares_array_kinds():
    from repro.objects.array import Array

    import numpy as np

    small = expect(RArray((2,), [1, 2]))
    assert mismatch(small, Array((2,), [1, 2])) is None
    assert mismatch(small, Array((2,), [1.0, 2.0])) is not None
    assert mismatch(small, Array((1, 2), [1, 2])) is not None
    big = expect(RArray((2048,), list(range(2048))))
    dense = Array((2048,), np.arange(2048, dtype=np.int64))
    assert dense.block is not None
    assert mismatch(big, dense) is None
    assert mismatch(big, Array((2048,), [float(i) for i in range(2048)])) \
        is not None
    assert mismatch(big, Array((2048,), np.arange(2048, dtype=np.float64))) \
        is not None
    boxed = Array((2048,), [True] * 2048)
    assert mismatch(big, boxed) is not None


def test_judge_requires_bottom_exactly():
    client = harness.Client(build("hot", 1), {})
    stmt = next(s for s in client.spec.round if s.expected is BOTTOM)
    client.judge(stmt, stmt.text, BOTTOM)
    client.judge(stmt, stmt.text, 0)
    client.judge(stmt, stmt.text, RuntimeError("boom"))
    ok = next(s for s in client.spec.round
              if s.kind == "query" and s.expected is not BOTTOM)
    client.judge(ok, ok.text, BOTTOM)
    assert (client.attempted, client.failed) == (4, 3)


def _short_run(workload, traced, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    budget = harness.Budget(seconds=0, setups=1, min_rounds=1, min_samples=0)
    return harness.run(build(workload, 5), budget, traced)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_passes_and_reports_end_to_end(workload, tmp_path,
                                                 monkeypatch):
    result = _short_run(workload, False, tmp_path, monkeypatch)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] == 2 * len(build(workload, 5).round)
    names = [metric["name"] for metric in _benchmark_json()["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_traced_run_reports_every_layer(workload, tmp_path,
                                              monkeypatch):
    result = _short_run(workload, True, tmp_path, monkeypatch)
    assert result["failed"] == 0 and result["correct"]
    names = [metric["name"] for metric in _benchmark_json()["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names) == sorted(UNITS)
    shares = result["metrics"]
    assert shares["share.front_end"]["value"] \
        + shares["share.planning"]["value"] \
        + shares["share.execution"]["value"] <= 1.0
    assert result["layers"]["surface.parse"]["calls_per_stmt"] >= 1


def test_tracing_is_removed_after_a_traced_run(tmp_path, monkeypatch):
    import repro.system.session as session_module
    from repro.core import kernels

    parse, execute = session_module.parse_program, kernels.execute
    _short_run("adhoc", True, tmp_path, monkeypatch)
    assert session_module.parse_program is parse
    assert kernels.execute is execute


def test_tracediff_reports_each_layer(tmp_path, capsys):
    def result(us, calls):
        return {"config": {"workload": "hot"},
                "layers": {"surface.parse": {"self_us_per_stmt": us,
                                             "calls_per_stmt": calls}}}
    base, new = tmp_path / "base.json", tmp_path / "new"
    base.write_text(json.dumps(result(100.0, 2.0)))
    new.mkdir()
    (new / "a.json").write_text(json.dumps(result(40.0, 1.0)))
    (new / "b.json").write_text(json.dumps(result(60.0, 1.0)))
    assert tracediff.main([str(base), str(new)]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("surface.parse"))
    assert row.split() == ["surface.parse", "100.000", "50.000", "0.500",
                           "2.000", "1.000"]


def _design():
    with open(os.path.join(os.path.dirname(harness.__file__),
                           "design.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_design_record_matches_generator(workload):
    record = _design()["workloads"][workload]
    if record["query_templates"] == "as bulk":
        record = dict(_design()["workloads"]["bulk"],
                      session=record["session"])
    spec = build(workload, 11)
    assert spec.session == record["session"]
    assert len(spec.round) == record["round_statements"]
    writes = sum(s.kind == "write" for s in spec.round)
    assert round(writes / len(spec.round), 4) == record["write_share"]
    kinds = {kind: sorted({s.template for s in spec.round if s.kind == kind})
             for kind in ("query", "write")}
    assert kinds["query"] == sorted(record["query_templates"])
    assert kinds["write"] == sorted(record["write_templates"])


def test_design_maps_every_layer_metric():
    layers = _design()["layers"]
    mapped = [name for layer in layers for name in layer["metrics"]]
    names = [metric["name"] for metric in _benchmark_json()["per_layer"]]
    assert sorted(mapped) == sorted(names)
    end_to_end = {metric["name"] for metric in _benchmark_json()["end_to_end"]}
    workloads = {w["name"] for w in _benchmark_json()["workloads"]}
    for layer in layers:
        for metric, workload in layer["moves"]:
            assert metric in end_to_end and workload in workloads


def test_normalizing_divides_times_by_the_slowdown():
    spec = build("bulk", 1)
    rounds = harness.Rounds(spec)
    rounds.add([0.004] * len(spec.round), 2.0)
    raw, normalized = rounds.summary(False), rounds.summary(True)
    assert raw["latency_p50_ms"] == pytest.approx(4.0)
    assert normalized["latency_p50_ms"] == pytest.approx(2.0)
    assert normalized["write_latency_p50_ms"] == pytest.approx(2.0)
    assert normalized["ops_per_s"] == pytest.approx(2 * raw["ops_per_s"])
    assert harness.calibrate() > 0
