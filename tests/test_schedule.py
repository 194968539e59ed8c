"""The level schedule of pointwise jet evaluation against the tape loop.

eval_jet at one base point runs the tape level by level, each level's
nodes of one operation in one call of the jet arithmetic.  It must give
the tape loop's coefficients bit for bit, and raise its errors.
"""

import gc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symphonic import expr as ex
from symphonic import specfile
from symphonic.jet import Jet, _quiet
from test_expr import _jet_of, _value_of

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _env(coords, x, order):
    return {name: Jet.variable(k, x[k], len(coords), order)
            for k, name in enumerate(coords)}


def _tape_eval_jet(tree, coords, x, order):
    """eval_jet at one point by the tape loop alone."""
    with _quiet():
        result = ex._evaluate(tree, _env(coords, x, order))
    if not isinstance(result, Jet):
        result = Jet.constant(result, len(coords), order)
    ex._require_finite(result.coeffs, tree)
    return result


@pytest.fixture
def always_schedule(monkeypatch):
    """eval_jet schedules every expression, however few its operations
    per group."""
    monkeypatch.setattr(ex, "_MIN_OPS_PER_GROUP", 0)


def _outcome(run, *args):
    try:
        return "jet", run(*args).coeffs.tobytes()
    except ex.EvalDomainError as err:
        return "error", str(err), id(err.node)


_CONSTS = [0.5, 2.0, -1.5, 3.25, 0.0, -0.0, 1e-3]
_EXPONENTS = [2.0, 3.0, 4.0, 5.0, 6.0, 0.0, -0.0, -1.0, -2.0, -3.0, 0.5,
              1 / 3, 4 / 3, -1.5]


@st.composite
def _dags(draw):
    """(coords, root): a DAG over one to three variables, built from a
    pool in which every node may be picked again by later nodes, with
    left-deep +/- chains whose inner nodes join the pool too."""
    coords = ["x", "y", "z"][:draw(st.integers(1, 3))]
    pool = [ex.Var(name) for name in coords]
    pool += [ex.Const(c) for c in draw(st.lists(st.sampled_from(_CONSTS),
                                                 min_size=1, max_size=3))]
    for _ in range(draw(st.integers(1, 25))):
        pick = st.sampled_from(pool)
        kind = draw(st.sampled_from(["neg", "bin", "bin", "bin", "chain",
                                     "pow", "call"]))
        if kind == "neg":
            pool.append(ex.Neg(draw(pick)))
        elif kind == "bin":
            pool.append(ex.BinOp(draw(st.sampled_from("+-*/")), draw(pick),
                                 draw(pick)))
        elif kind == "chain":
            node = draw(pick)
            for _ in range(draw(st.integers(1, 6))):
                node = ex.BinOp(draw(st.sampled_from("+-")), node,
                                draw(pick))
                if draw(st.booleans()):
                    pool.append(node)
            pool.append(node)
        elif kind == "pow":
            pool.append(ex.PowC(draw(pick), draw(st.sampled_from(_EXPONENTS))))
        else:
            pool.append(ex.Call(draw(st.sampled_from(["sin", "cos", "exp",
                                                      "log", "sqrt"])),
                                draw(pick)))
    return coords, pool[-1]


@given(_dags(), st.lists(st.floats(-1.0, 2.5), min_size=3, max_size=3),
       st.integers(1, 4))
@settings(max_examples=400, deadline=None)
def test_schedule_matches_the_tape_loop_bit_for_bit(dag, point, order):
    coords, tree = dag
    x = np.array(point[:len(coords)])
    env = _env(coords, x, order)
    with _quiet():
        try:
            tape = ex._evaluate(tree, env)
        except ex.EvalDomainError:
            tape = None
        # the schedule itself, also where eval_jet keeps the tape loop
        schedule = ex._build_schedule(ex.program([tree]))
        scheduled = ex._run_schedule(schedule, env) if schedule else None
    if isinstance(tape, Jet):
        # the schedule runs wherever the tape loop succeeds on a jet
        assert scheduled is not None
        assert scheduled.tobytes() == tape.coeffs.tobytes()
    else:
        assert scheduled is None
    assert (_outcome(_jet_of, tree, coords, x, order)
            == _outcome(_tape_eval_jet, tree, coords, x, order))


@pytest.mark.parametrize("text", [
    "-x - 2", "-1.5*x - 2 + y", "-x + 0.0 - 3 - (1 + 2)", "0.0 - x - y",
    "-x*y - 0.0", "(-x - 1) * (2 - y) - (-x - y - 1.5)",
])
def test_chain_sums_keep_signed_zeros(text, always_schedule):
    # -x has -0.0 beyond its linear terms: adding or subtracting a
    # constant must leave them -0.0, as the tape loop's float path does
    tree = ex.parse(text, ["x", "y"])
    x = np.array([0.75, -0.5])
    for order in (2, 4):
        assert (_jet_of(tree, ["x", "y"], x, order).coeffs.tobytes()
                == _tape_eval_jet(tree, ["x", "y"], x, order).coeffs.tobytes())


def test_a_later_failure_does_not_hide_the_first_one(always_schedule):
    # the schedule reaches 1/(x - x) (level 2) before log(log(log(x)))
    # (level 3); the error names the node the tape loop fails at first
    tree = ex.parse("log(log(log(x))) + 1/(x - x)", ["x"])
    with pytest.raises(ex.EvalDomainError) as err:
        _jet_of(tree, ["x"], [1.5], 2)
    assert err.value.node is tree.left
    assert str(err.value).startswith("log of non-positive value")
    with pytest.raises(ex.EvalDomainError) as tape_err:
        _tape_eval_jet(tree, ["x"], np.array([1.5]), 2)
    assert str(err.value) == str(tape_err.value)


def test_a_long_sum_is_one_group():
    terms = 2000
    tree = ex.parse(" + ".join(f"x^{k % 5} - {k}*y" for k in range(terms)),
                    ["x", "y"])
    groups = ex._schedule(ex.program([tree])).groups
    chains = [g for g in groups if g[0] == ex._CHAIN]
    assert len(chains) == 1 and chains[0][3].shape == (2 * terms, 1)
    # x^0, x^1, x*x and the constant multiples at level 1, x^3 = x*(x*x)
    # and x^4 = (x*x)*(x*x) at 2, the sum at 3
    assert len(groups) == 6
    x = np.array([0.7, -1.3])
    assert (_jet_of(tree, ["x", "y"], x, 4).coeffs.tobytes()
            == _tape_eval_jet(tree, ["x", "y"], x, 4).coeffs.tobytes())


def _codes(tree):
    return [group[0] for group in ex._schedule(ex.program([tree])).groups]


def test_whole_powers_are_their_shared_products(always_schedule):
    tree = ex.parse("pow(sin(x), 2)*y + pow(sin(x), 3) - pow(sin(x), 4)"
                    " + pow(y, 5)", ["x", "y"])
    schedule = ex._schedule(ex.program([tree]))
    assert ex._POW not in _codes(tree)
    # s*s, s*(s*s), (s*s)*(s*s), y*y, (y*y)*(y*y) and y*(y^4)
    products = [g for g in schedule.groups if g[0] == ex._MUL
                and g[1] == (True, True)]
    assert sum(g[2].stop - g[2].start for g in products) == 6 + 1
    assert sorted(e for e, _ in schedule.powers) == [2.0, 3.0, 4.0, 5.0]
    for x in ([0.7, -1.3], [2.5, 0.25]):
        for order in (1, 2, 4):
            assert (_jet_of(tree, ["x", "y"], x, order).coeffs.tobytes()
                    == _tape_eval_jet(tree, ["x", "y"], x, order)
                    .coeffs.tobytes())


@pytest.mark.parametrize("text,x", [
    ("0*pow(x, 3) + y", [1e103, 1.0]),     # NaN at the root
    ("1 + y*0*pow(x, 4)", [1e80, 2.0]),
    ("pow(x, 2)*y + x", [1e200, 0.5]),
])
def test_an_overflowing_power_is_the_tape_loops_error(text, x,
                                                      always_schedule):
    # the products overflow, and the power's checks after the groups
    # hand the point to the tape loop, which names the power
    tree = ex.parse(text, ["x", "y"])
    env = _env(["x", "y"], np.array(x), 2)
    with _quiet():
        assert ex._run_schedule(ex._schedule(ex.program([tree])), env) is None
    outcome = _outcome(_jet_of, tree, ["x", "y"], np.array(x), 2)
    assert outcome == _outcome(_tape_eval_jet, tree, ["x", "y"],
                               np.array(x), 2)
    assert "overflows in subexpression 'pow(x, " in outcome[1]


def test_sines_and_cosines_of_a_level_are_one_group(always_schedule):
    tree = ex.parse("sin(x)*cos(y) + cos(x)*sin(y) - cos(x*y)", ["x", "y"])
    assert _codes(tree).count(ex._TRIG) == 2  # levels 1 and 2
    for order in (1, 2, 3, 4):
        x = np.array([0.3, -1.1])
        assert (_jet_of(tree, ["x", "y"], x, order).coeffs.tobytes()
                == _tape_eval_jet(tree, ["x", "y"], x, order).coeffs.tobytes())


def test_a_shared_denominator_has_one_reciprocal(always_schedule):
    tree = ex.parse("x/(1 + y) + sin(x)/(1 + y) - 2/(1 + y) + y/x",
                    ["x", "y"])
    schedule = ex._schedule(ex.program([tree]))
    reciprocals = [g for g in schedule.groups if g[0] == ex._RECIP]
    assert sum(g[2].stop - g[2].start for g in reciprocals) == 2
    for order in (1, 2, 4):
        x = np.array([0.6, 0.9])
        assert (_jet_of(tree, ["x", "y"], x, order).coeffs.tobytes()
                == _tape_eval_jet(tree, ["x", "y"], x, order).coeffs.tobytes())
    # a zero denominator fails as the tape loop's first division does
    x = np.array([0.6, -1.0])
    assert (_outcome(_jet_of, tree, ["x", "y"], x, 2)
            == _outcome(_tape_eval_jet, tree, ["x", "y"], x, 2))


def test_the_schedule_is_cached_and_keeps_no_node(always_schedule):
    tree = ex.parse("sin(x) * y + 1 / (x + 2)", ["x", "y"])
    prog = ex.program([tree])
    ex.eval_jet(prog, ["x", "y"], np.ones((2, 3)), 2)  # a batch: no schedule
    assert prog._schedule is None
    ex.eval_jet(prog, ["x", "y"], [0.5, 0.25], 2)
    schedule = prog._schedule
    assert schedule
    ex.eval_jet(prog, ["x", "y"], [0.1, 0.2], 3)
    assert prog._schedule is schedule
    # no reference cycle through the program or its schedule: the root
    # lives as long as its program, and is freed at once with it
    ref = weakref.ref(tree)
    gc.disable()
    try:
        del tree, schedule
        assert ref() is not None
        del prog
        assert ref() is None
    finally:
        gc.enable()


def test_few_operations_per_group_keep_the_tape_loop():
    small = ex.program([ex.parse("0.3*sin(x) + 0.2*cos(y) + 0.4*x",
                                 ["x", "y"])])
    ex.eval_jet(small, ["x", "y"], [0.5, 0.25], 4)
    assert small._schedule is False
    big = ex.program([ex.parse(
        " + ".join(f"{k}*sin(x)*cos(y)*x" for k in range(1, 30)), ["x", "y"])])
    ex.eval_jet(big, ["x", "y"], [0.5, 0.25], 4)
    schedule = big._schedule
    assert schedule.ops >= ex._MIN_OPS_PER_GROUP * len(schedule.groups)


_GENERATED = {}  # kind -> the spec's bytes, generated once per test run


def _benchmark_spec(kind, tmp_path, monkeypatch):
    """The benchmark's seed-1 curved-target spec: the cached file when
    the benchmark has written it, else the same bytes generated here
    (sympy, about 15 s for both) on the first call for that kind."""
    path = BENCH / "cache" / f"curved-{kind}-seed1.json"
    if not path.exists():
        if kind not in _GENERATED:
            monkeypatch.syspath_prepend(str(BENCH))
            import gen_fields
            _GENERATED[kind] = gen_fields.spec_bytes(1, kind)
        path = tmp_path / path.name
        path.write_bytes(_GENERATED[kind])
    return specfile.load_spec(str(path))


@pytest.mark.parametrize("kind", ["torus", "annulus"])
def test_schedule_matches_the_tape_loop_on_the_benchmark_fields(
        kind, tmp_path, monkeypatch):
    spec, fields = _benchmark_spec(kind, tmp_path, monkeypatch)
    coords = spec.source.coords
    points = spec.source.sample_points(8, np.random.default_rng(18))
    for tree in fields["tau_s"].components:
        assert ex._schedule(ex.program([tree])) is not None
        for x in points:
            got = _jet_of(tree, coords, x, 4)
            ref = _tape_eval_jet(tree, coords, x, 4)
            assert got.coeffs.tobytes() == ref.coeffs.tobytes()


def test_evaluation_raises_without_numpy_warnings():
    cases = [("cos(x*1e300*1e300)", [1.0]), ("log(x)", [-1.0]),
             ("1/(x - x)", [2.0]), ("exp(x)^3", [300.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text, point in cases:
            tree = ex.parse(text, ["x"])
            with pytest.raises(ex.EvalDomainError):
                _jet_of(tree, ["x"], point, 2)
            with pytest.raises(ex.EvalDomainError):
                _jet_of(tree, ["x"], np.array([point]), 2)
            with pytest.raises(ex.EvalDomainError):
                _value_of(tree, ["x"], point)
            with pytest.raises(ex.EvalDomainError):
                _value_of(tree, ["x"], np.array([point] * 2).T)
