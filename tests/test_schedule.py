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

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _env(coords, x, order):
    return {name: Jet.variable(k, x[k], len(coords), order)
            for k, name in enumerate(coords)}


def _tape_eval_jet(tree, coords, x, order):
    """eval_jet at one point by the tape loop alone."""
    with _quiet():
        result = ex.evaluate(tree, _env(coords, x, order))
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
_EXPONENTS = [2.0, 3.0, 0.0, -0.0, -1.0, -2.0, -3.0, 0.5, 1 / 3, 4 / 3,
              -1.5]


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
            tape = ex.evaluate(tree, env)
        except ex.EvalDomainError:
            tape = None
        # the schedule itself, also where eval_jet keeps the tape loop
        schedule = ex._build_schedule(ex._tape(tree), tree)
        scheduled = ex._run_schedule(schedule, env) if schedule else None
    if isinstance(tape, Jet):
        # the schedule runs wherever the tape loop succeeds on a jet
        assert scheduled is not None
        assert scheduled.coeffs.tobytes() == tape.coeffs.tobytes()
    else:
        assert scheduled is None
    assert (_outcome(ex.eval_jet, tree, coords, x, order)
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
        assert (ex.eval_jet(tree, ["x", "y"], x, order).coeffs.tobytes()
                == _tape_eval_jet(tree, ["x", "y"], x, order).coeffs.tobytes())


def test_a_later_failure_does_not_hide_the_first_one(always_schedule):
    # the schedule reaches 1/(x - x) (level 2) before log(log(log(x)))
    # (level 3); the error names the node the tape loop fails at first
    tree = ex.parse("log(log(log(x))) + 1/(x - x)", ["x"])
    with pytest.raises(ex.EvalDomainError) as err:
        ex.eval_jet(tree, ["x"], [1.5], 2)
    assert err.value.node is tree.left
    assert str(err.value).startswith("log of non-positive value")
    with pytest.raises(ex.EvalDomainError) as tape_err:
        _tape_eval_jet(tree, ["x"], np.array([1.5]), 2)
    assert str(err.value) == str(tape_err.value)


def test_a_long_sum_is_one_group():
    terms = 2000
    tree = ex.parse(" + ".join(f"x^{k % 5} - {k}*y" for k in range(terms)),
                    ["x", "y"])
    groups = ex._schedule(tree).groups
    chains = [g for g in groups if g[0] == ex._CHAIN]
    assert len(chains) == 1 and chains[0][3].shape == (2 * terms, 1)
    # five powers and the constant multiples at level 1, the sum at 2
    assert len(groups) == 7
    x = np.array([0.7, -1.3])
    assert (ex.eval_jet(tree, ["x", "y"], x, 4).coeffs.tobytes()
            == _tape_eval_jet(tree, ["x", "y"], x, 4).coeffs.tobytes())


def test_the_schedule_is_cached_and_keeps_no_node(always_schedule):
    tree = ex.parse("sin(x) * y + 1 / (x + 2)", ["x", "y"])
    ex.eval_jet(tree, ["x", "y"], np.ones((2, 3)), 2)  # a batch: no schedule
    assert tree._schedule is None
    ex.eval_jet(tree, ["x", "y"], [0.5, 0.25], 2)
    schedule = tree._schedule
    assert schedule
    ex.eval_jet(tree, ["x", "y"], [0.1, 0.2], 3)
    assert tree._schedule is schedule
    # no reference cycle through the schedule: freed at once
    ref = weakref.ref(tree)
    gc.disable()
    try:
        del tree, schedule
        assert ref() is None
    finally:
        gc.enable()


def test_few_operations_per_group_keep_the_tape_loop():
    small = ex.parse("0.3*sin(x) + 0.2*cos(y) + 0.4*x", ["x", "y"])
    ex.eval_jet(small, ["x", "y"], [0.5, 0.25], 4)
    assert small._schedule is False
    big = ex.parse(" + ".join(f"{k}*sin(x)*cos(y)*x" for k in range(1, 30)),
                   ["x", "y"])
    ex.eval_jet(big, ["x", "y"], [0.5, 0.25], 4)
    assert big._schedule.ops >= ex._MIN_OPS_PER_GROUP * len(
        big._schedule.groups)


def _benchmark_spec(kind, tmp_path, monkeypatch):
    """The benchmark's seed-1 curved-target spec: the cached file when
    the benchmark has written it, else the same bytes generated here
    (sympy, about 15 s for both)."""
    path = BENCH / "cache" / f"curved-{kind}-seed1.json"
    if not path.exists():
        monkeypatch.syspath_prepend(str(BENCH))
        import gen_fields
        path = tmp_path / path.name
        path.write_bytes(gen_fields.spec_bytes(1, kind))
    return specfile.load_spec(str(path))


@pytest.mark.parametrize("kind", ["torus", "annulus"])
def test_schedule_matches_the_tape_loop_on_the_benchmark_fields(
        kind, tmp_path, monkeypatch):
    spec, fields = _benchmark_spec(kind, tmp_path, monkeypatch)
    coords = spec.source.coords
    points = spec.source.sample_points(8, np.random.default_rng(18))
    for tree in fields["tau_s"].components:
        assert ex._schedule(tree) is not None
        for x in points:
            got = ex.eval_jet(tree, coords, x, 4)
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
                ex.eval_jet(tree, ["x"], point, 2)
            with pytest.raises(ex.EvalDomainError):
                ex.eval_jet(tree, ["x"], np.array([point]), 2)
            with pytest.raises(ex.EvalDomainError):
                ex.eval_value(tree, ["x"], point)
            with pytest.raises(ex.EvalDomainError):
                ex.eval_value(tree, ["x"], np.array([point] * 2).T)
