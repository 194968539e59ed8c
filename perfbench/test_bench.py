"""Tests of the benchmark's own machinery (not of symphonic).

    python3 -m pytest perfbench/test_bench.py -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Checked  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


@pytest.fixture
def fakepkg():
    """A package whose module b did ``from fakepkg.a import inner``."""
    clock = FakeClock()
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    pkg = types.ModuleType("fakepkg")

    def inner():
        clock.tick(1.0)
        return "inner"

    def outer():
        clock.tick(2.0)
        a.inner()            # looked up on module a
        clock.tick(0.5)
        a.inner()
        return "outer"

    def caller():
        clock.tick(4.0)
        return b.inner()     # b's own from-import binding

    def make_energy():
        def energy(t):
            clock.tick(t)
            if t < 0:
                raise ValueError("step too large")
            return t
        return energy

    a.inner, a.outer, a.make_energy = inner, outer, make_energy
    b.inner, b.caller = inner, caller
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    saved = {k: sys.modules.get(k) for k in mods}
    sys.modules.update(mods)
    yield clock, a, b
    for k, v in saved.items():
        if v is None:
            sys.modules.pop(k, None)
        else:
            sys.modules[k] = v


def test_self_time_on_nested_spans(fakepkg):
    clock, a, b = fakepkg
    tracer = Tracer("fakepkg", clock=clock)
    tracer.wrap(a, "inner", "a.inner")
    tracer.wrap(a, "outer", "a.outer")
    tracer.wrap(b, "caller", "b.caller")
    assert a.outer() == "outer"
    assert b.caller() == "inner"
    # outer spans 4.5 s, of which its two inner children cover 2 s
    assert tracer.self_times() == {"a.inner": 3.0, "a.outer": 2.5,
                                   "b.caller": 4.0}
    assert tracer.total_times() == {"a.inner": 3.0, "a.outer": 4.5,
                                    "b.caller": 5.0}
    assert dict(tracer.calls) == {"a.inner": 3, "a.outer": 1, "b.caller": 1}
    # parent links: each inner span points at the span that caused it
    names = tracer.names
    assert [names[p] if p >= 0 else None for p in tracer.parents] == [
        None, "a.outer", "a.outer", None, "b.caller"]


def test_from_import_binding_is_wrapped_and_restored(fakepkg):
    clock, a, b = fakepkg
    original = a.inner
    tracer = Tracer("fakepkg", clock=clock)
    tracer.wrap(a, "inner", "a.inner")
    assert b.inner is a.inner and b.inner is not original
    b.caller()
    assert tracer.calls["a.inner"] == 1
    tracer.restore()
    assert a.inner is original and b.inner is original
    b.caller()
    assert tracer.calls["a.inner"] == 1


def test_count_and_result_modes(fakepkg):
    clock, a, b = fakepkg
    tracer = Tracer("fakepkg", clock=clock)
    tracer.wrap(a, "inner", "a.inner", mode="count")
    tracer.wrap(a, "make_energy", "energy_evals", mode="result")
    energy = a.make_energy()
    assert energy(2.0) == 2.0
    with pytest.raises(ValueError):
        energy(-1.0)
    a.inner()
    assert tracer.calls["a.inner"] == 1
    assert tracer.calls["energy_evals"] == 2
    assert tracer.raised[("energy_evals", "ValueError")] == 1
    assert tracer.self_times() == {"energy_evals": 1.0}  # 2.0 - 1.0
    assert "a.inner" not in tracer.self_times()          # no span


def test_tail_percentile_and_sample_count():
    assert stats.tail_level(10) is None
    assert stats.tail_level(20) == 50.0
    assert stats.tail_level(100) == 90.0
    assert stats.tail_level(200) == 95.0
    assert stats.tail_level(1000) == 99.0
    assert stats.tail_level(10000) == 99.9
    values = list(range(1, 101))
    low = stats.summarize(values, "lower")
    assert low["n"] == 100 and low["median"] == 50.5
    assert low["tail_label"] == "p90"
    assert low["tail"] == pytest.approx(90.1)
    high = stats.summarize(values, "higher")
    assert high["tail_label"] == "p10"
    assert high["tail"] == pytest.approx(10.9)
    few = stats.summarize([3.0, 1.0, 2.0])
    assert few == {"median": 2.0, "tail": None, "tail_label": "-", "n": 3}


def test_failed_frac_counts_failed_operations():
    tally = Checked(attempted=0)
    tally.add(Checked(attempted=2))                 # e.g. a generation check
    tally.add(Checked(attempted=2, failed=1, failures=["identity rel"]))
    tally.add(Checked(attempted=1, failed=1, failures=["report differs",
                                                       "exit 1"]))
    assert (tally.attempted, tally.failed) == (5, 2)
    assert tally.failures == ["identity rel", "report differs", "exit 1"]
    assert stats.failed_frac(tally.attempted, tally.failed) == 0.4
    assert stats.failed_frac(0, 0) == 1.0


def test_flow_ratios_from_traced_units():
    zero = {name: 0 for name, _, _ in layers.PER_LAYER}
    zero["flow.gradient_field.calls"] = 0
    unit = dict(zero, **{"flow.accepted_steps": 100,
                         "flow.flow_energy.calls": 125,
                         "flow.gradient_field.calls": 201})
    setup = dict(zero, **{"flow.flow_energy.calls": 1})
    out = layers.layer_metrics(setup, [unit, unit, unit], overhead_s=0.5)
    assert out["flow.flow_energy.calls"] == 126
    assert out["flow.accepted_per_energy_eval"] == 0.8
    assert out["flow.gradients_per_step"] == 2.01
    assert out["trace.overhead_s"] == 0.5
    assert list(out) == [name for name, _, _ in layers.PER_LAYER]


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
