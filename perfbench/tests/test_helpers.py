"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
import types

import pytest

import inputs
from batch import sweep_rows
from common import FLOW_FLOATS, percentile, tail
from serving import healthz_delta
from tracing import Tracer, instrument


# -- generated inputs ----------------------------------------------------------

def test_same_seed_gives_identical_inputs():
    assert inputs.serve_inputs(7, 20) == inputs.serve_inputs(7, 20)
    assert inputs.table1_inputs(7) == inputs.table1_inputs(7)
    assert inputs.sweep_inputs(7) == inputs.sweep_inputs(7)
    assert inputs.serve_inputs(7, 20) != inputs.serve_inputs(8, 20)


def test_serve_schedule_mix_and_keys():
    generated = inputs.serve_inputs(3, 20)
    schedule = generated["schedule"]
    times = [request["t"] for request in schedule]
    assert times == sorted(times) and 0 <= times[0] and times[-1] < 20
    kinds = {request["kind"] for request in schedule}
    assert kinds == {"hot", "reprice", "batch", "cold"}
    cold = [request["body"] for request in schedule
            if request["kind"] == "cold"]
    assert len(cold) == 4 and ("C7552", "cmos") in {
        (q["circuit"], q["library"]) for q in cold}
    keys = {(q["circuit"], q["library"], q["config"]["vdd"]) for q in cold}
    assert len(keys) == len(cold)
    warm_circuits = {q["circuit"] for q in generated["warm"]}
    assert not warm_circuits & {q["circuit"] for q in cold}
    hot = [request["body"] for request in schedule
           if request["kind"] == "hot"]
    assert all(body in generated["warm"] for body in hot)
    assert len(hot) > 0.8 * len(schedule)


def test_pattern_seed_cycles_through_recorded_seeds():
    seeds = {inputs.pattern_seed(seed) for seed in range(50)}
    assert seeds == set(inputs.PATTERN_SEEDS)
    assert inputs.pattern_seed(0) == 2010


def test_sweep_rows_are_ordered_by_inputs_not_keys():
    def record(vdd, frequency):
        result = {"circuit": "C17", "library": "cmos", "gate_count": 6}
        result.update({name: vdd * frequency for name in FLOW_FLOATS})
        return {"vdd": vdd, "frequency": frequency, "result": result,
                "task_key": f"key-{frequency}"}

    records = [record(0.9, 1.5e9), record(0.8, 1.5e9), record(0.9, 9e8)]
    rows = sweep_rows({"records": records})
    assert rows == sweep_rows({"records": records[::-1]})
    # Numeric order: 9e8 Hz sorts before 1.5e9 Hz, whose hex string is
    # smaller.
    assert [(float.fromhex(row[-2]), float.fromhex(row[-1]))
            for row in rows] == [(0.8, 1.5e9), (0.9, 9e8), (0.9, 1.5e9)]
    assert not any("key-" in str(cell) for row in rows for cell in row)


# -- percentiles -----------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 90.0),
    (100, 90.0), (99, 50.0), (20, 50.0), (19, None)])
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    out = tail([float(value) for value in range(n)])
    assert out["percentile"] == expected
    assert out["n"] == n
    if expected is not None:
        beyond = sum(1 for value in range(n) if value > out["value"])
        assert beyond >= 10


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile(list(map(float, range(1000))), 99) == pytest.approx(
        989.01)
    assert percentile([5.0], 99) == 5.0


# -- spans -----------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.begin("outer")          # 0 .. 10
    clock.now = 1.0
    first = tracer.begin("a")              # 1 .. 3
    clock.now = 3.0
    tracer.end(first)
    clock.now = 4.0
    second = tracer.begin("b")             # 4 .. 8
    clock.now = 5.0
    inner = tracer.begin("a")              # 5 .. 6, inside b
    clock.now = 6.0
    tracer.end(inner)
    clock.now = 8.0
    tracer.end(second)
    clock.now = 10.0
    tracer.end(outer)
    self_s = tracer.layer_self_s()
    assert self_s == {"outer": 4.0, "a": 3.0, "b": 3.0}
    # Self times partition the root span.
    assert sum(self_s.values()) == 10.0
    assert tracer.layer_calls() == {"outer": 1, "a": 2, "b": 1}


def test_span_closed_out_of_order_is_an_error():
    tracer = Tracer(FakeClock())
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_instrument_rebinds_every_imported_copy(monkeypatch):
    def work(x):
        return [x] * x

    class Model:
        @classmethod
        def build(cls, x):
            return cls()

    source = types.ModuleType("repro._perfbench_source")
    source.work, source.Model = work, Model
    user = types.ModuleType("repro._perfbench_user")
    user.work = work
    monkeypatch.setitem(sys.modules, source.__name__, source)
    monkeypatch.setitem(sys.modules, user.__name__, user)

    tracer = Tracer()
    instrument(tracer, "repro._perfbench_source:work", "layer",
               lambda t, result: t.count("items", len(result)))
    instrument(tracer, "repro._perfbench_source:Model.build", "model")
    assert source.work is user.work and source.work is not work
    assert user.work(3) == [3, 3, 3]
    assert isinstance(source.Model.build(1), Model)
    assert tracer.layer_calls() == {"layer": 1, "model": 1}
    assert tracer.counts["items"] == 3


# -- /v1/healthz deltas ----------------------------------------------------------

def test_healthz_delta():
    before = {"uptime_s": 5.0, "ready": True, "version": "1",
              "caches": {"results": {"hits": 4, "misses": 2}},
              "counters": {"results.hot": 4}}
    after = {"uptime_s": 9.5, "ready": True, "version": "1",
             "caches": {"results": {"hits": 10, "misses": 2},
                        "disk": {"verified": 3}},
             "counters": {"results.hot": 10, "http.shed": 1}}
    assert healthz_delta(before, after) == {
        "uptime_s": 4.5,
        "caches.results.hits": 6,
        "caches.results.misses": 0,
        "caches.disk.verified": 3,
        "counters.results.hot": 6,
        "counters.http.shed": 1,
    }
