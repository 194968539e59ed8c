"""Programs: a list of expressions evaluated as one shared tape.

eval_jet and eval_value of a program must give, bit for bit, what
evaluating its roots one by one gives, and raise what that raises first:
the same root, point and message.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symphonic import charts
from symphonic import expr as ex
from symphonic.jet import Jet, _quiet
from test_expr import _reference
from test_schedule import _benchmark_spec, _dags

_COORDS = ["x", "y", "z"]


def _per_expression_jets(roots, coords, x, order):
    """The (size, k, ...) coefficients of the roots evaluated one by one
    (a recursive walk each), a constant's jet by Jet.constant, each
    root's finiteness checked before the next root runs."""
    x = np.asarray(x, dtype=float)
    env = {name: Jet.variable(k, x[k], len(coords), order)
           for k, name in enumerate(coords)}
    out = []
    with _quiet():
        for root in roots:
            result = _reference(root, env)
            if not isinstance(result, Jet):
                result = Jet.constant(result, len(coords), order, x.shape[1:])
            ex._require_finite(result.coeffs, root)
            out.append(result.coeffs)
    return np.stack(out, axis=1)


def _per_expression_values(roots, coords, x):
    """The values (k, ...) of the roots evaluated one by one."""
    x = np.asarray(x, dtype=float)
    batch = x.shape[1:]
    env = dict(zip(coords, x if batch else x.tolist()))
    out = []
    with _quiet():
        for root in roots:
            value = _reference(root, env)
            if batch:
                value = np.broadcast_to(value, batch)
                ex._require_finite(value[None], root)
            else:
                value = float(value)
                if not math.isfinite(value):
                    raise ex.EvalDomainError(f"non-finite result {value!r}",
                                             root)
            out.append(value)
    return np.array(out, dtype=float)


def _outcome(run, *args):
    try:
        return "ok", run(*args).tobytes()
    except ex.EvalDomainError as err:
        return "error", str(err)


def _program_jets(roots, coords, x, order):
    jets = ex.eval_jet(ex.program(roots), coords, x, order)
    assert jets.coeffs.shape[1] == len(roots)
    return jets.coeffs


def _program_values(roots, coords, x):
    return ex.eval_value(ex.program(roots), coords, x)


def _assert_program_is_per_expression(roots, coords, point, batch):
    for x in (point, batch):
        assert (_outcome(_program_values, roots, coords, x)
                == _outcome(_per_expression_values, roots, coords, x))
        for order in (1, 2, 3, 4):
            assert (_outcome(_program_jets, roots, coords, x, order)
                    == _outcome(_per_expression_jets, roots, coords, x,
                                order))


_TEXTS = ["0", "1", "0.0", "-0.0", "x", "y", "x*0.0", "x*-0.0", "x + 0.0",
          "x - -0.0", "-x - 0.0", "sin(x)*y", "sin(x)*y + 1",
          "(sin(x)*y + 1)^2", "x - y - 2", "-x - 2 + y", "exp(x)/(y + 3)",
          "sqrt(x + 2)*sin(x)*y", "log(x) - 0.0", "pow(x + 2, 1/3)*cos(y)",
          "1/(x - y)", "x*1e300*1e300", "log(y)", "sin(x)*y*(x - y - 2)",
          "x^0.0 + y^-0.0", "(x - y - 2) - (sin(x)*y + 1)"]
_POINT = st.lists(st.floats(-1.0, 2.5), min_size=3, max_size=3)


@given(st.lists(st.integers(0, len(_TEXTS) - 1), min_size=1, max_size=6),
       st.booleans(), st.booleans(), _POINT,
       st.lists(_POINT, min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_a_program_of_parsed_roots_is_its_roots_one_by_one(
        picks, repeat, always, point, batch):
    # each root parsed on its own, so roots share subexpressions only
    # by structure; the same root object may come twice
    roots = [ex.parse(_TEXTS[k], _COORDS) for k in picks]
    if repeat:
        roots.append(roots[0])
    with pytest.MonkeyPatch.context() as patch:
        if always:  # the level schedule, however few its operations
            patch.setattr(ex, "_MIN_OPS_PER_GROUP", 0)
        _assert_program_is_per_expression(roots, _COORDS, np.array(point),
                                          np.array(batch).T)


@given(st.lists(_dags(), min_size=1, max_size=4), st.booleans(), _POINT)
@settings(max_examples=150, deadline=None)
def test_a_program_of_dags_is_its_roots_one_by_one(dags, always, point):
    roots = [tree for _, tree in dags]
    # a subexpression of the first root as a root of its own
    first = roots[0]
    roots += [getattr(first, f) for f in ("left", "right", "arg", "base")
              if isinstance(getattr(first, f, None), ex.Expr)][:1]
    batch = np.array([point, [p * 0.5 for p in point], [1.25, -0.5, 2.0]]).T
    with pytest.MonkeyPatch.context() as patch:
        if always:
            patch.setattr(ex, "_MIN_OPS_PER_GROUP", 0)
        _assert_program_is_per_expression(roots, _COORDS, np.array(point),
                                          batch)


def test_the_tape_holds_each_distinct_node_once_in_root_order():
    roots = [ex.parse(text, ["x"])
             for text in ("sin(x)*0.0", "sin(x)*-0.0", "sin(x)*0.0", "1")]
    prog = ex.program(roots)
    # root 0's four nodes, then the new nodes of roots 1 and 3; 0.0 and
    # -0.0 stay apart, and root 2 is root 0's last step
    assert [step[0] for step in prog.steps] == [
        ex._VAR, ex._CALL, ex._CONST, ex._MUL, ex._CONST, ex._MUL,
        ex._CONST]
    assert prog.roots == (3, 5, 3, 6)
    # each step holds its own node: a root's step holds the root, and
    # root 2's is root 0's
    named = [prog.steps[r][1] for r in prog.roots]
    assert all(a is b for a, b in zip(named, [roots[0], roots[1], roots[0],
                                              roots[3]]))
    # each call compiles anew: the caller holds the program
    assert ex.program(roots[:1]) is not ex.program(roots[:1])
    assert ex.program(roots[:1]).steps[-1][1] is roots[0]


@pytest.mark.parametrize("texts,point,message", [
    # the first root to fail names its subexpression
    (["sin(x)", "log(x - 5)", "1/(x - x)"], [1.0],
     "log of non-positive value -4.0 in subexpression 'log(x - 5.0)'"),
    # a non-finite root comes before a later root's domain error
    (["sin(x)", "x*1e300*1e300", "log(x - 5)"], [1.0],
     "non-finite result inf in subexpression 'x * 1e+300 * 1e+300'"),
    (["log(x - 5)", "x*1e300*1e300"], [1.0],
     "log of non-positive value -4.0 in subexpression 'log(x - 5.0)'"),
])
def test_the_first_failing_root_raises(texts, point, message):
    roots = [ex.parse(text, ["x"]) for text in texts]
    prog = ex.program(roots)
    failing = next(k for k, root in enumerate(roots)
                   if _outcome(_per_expression_values, [root], ["x"],
                               point)[0] == "error")
    for run in (lambda: ex.eval_value(prog, ["x"], point),
                lambda: ex.eval_jet(prog, ["x"], point, 2)):
        with pytest.raises(ex.EvalDomainError) as err:
            run()
        assert str(err.value) == message
        assert ex.to_source(err.value.node) == ex.to_source(roots[failing])


def test_a_program_of_one_names_its_root_after_the_root_is_gone():
    prog = ex.program([ex.parse("log(x - 2)", ["x"])])  # only prog is kept
    for run in (lambda: ex.eval_value(prog, ["x"], [1.0]),
                lambda: ex.eval_jet(prog, ["x"], [1.0], 2)):
        with pytest.raises(ex.EvalDomainError) as err:
            run()
        assert str(err.value) == ("log of non-positive value -1.0 in "
                                  "subexpression 'log(x - 2.0)'")


def test_evaluating_and_comparing_leave_each_node_as_parsed(monkeypatch):
    """Expressions hold no program: evaluating (a batch, a pointwise jet
    by the schedule, a failing point), hashing, comparing and
    free_variables leave every node's attributes as the parser built
    them."""
    monkeypatch.setattr(ex, "_MIN_OPS_PER_GROUP", 0)  # always schedule
    text = "sin(x) * y + 1 / (x + 2) + log(y - 0.1) * x^3"
    root = ex.parse(text, ["x", "y"])
    nodes = ex._post_order(root)
    before = [dict(vars(node)) for node in nodes]
    prog = ex.program([root])
    ex.eval_value(prog, ["x", "y"], [0.5, 0.25])
    ex.eval_value(prog, ["x", "y"], np.ones((2, 3)))
    ex.eval_jet(prog, ["x", "y"], [0.5, 0.25], 3)
    ex.eval_jet(prog, ["x", "y"], np.ones((2, 3)), 2)
    with pytest.raises(ex.EvalDomainError):
        ex.eval_jet(prog, ["x", "y"], [0.5, 0.05], 2)
    hash(root)
    assert root == ex.parse(text, ["x", "y"])
    assert ex.free_variables(root) == {"x", "y"}
    assert prog._schedule  # the pointwise jets ran the schedule
    assert [vars(node) for node in nodes] == before
    assert "_program" not in vars(ex.Expr)


def test_the_first_failing_point_of_a_batch_raises():
    roots = [ex.parse(text, ["x"]) for text in ("sqrt(x)", "log(x - 1)")]
    x = np.array([[2.0, 0.5, -1.0]])
    # per root: sqrt fails at the third point, before log at the second
    with pytest.raises(ex.EvalDomainError) as err:
        ex.eval_jet(ex.program(roots), ["x"], x, 2)
    with pytest.raises(ex.EvalDomainError) as ref:
        _per_expression_jets(roots, ["x"], x, 2)
    assert str(err.value) == str(ref.value)
    assert err.value.node is roots[0]


def test_the_sphere_embedding_runs_each_distinct_operation_once():
    spec = charts.sphere_inclusion(4)
    steps = spec.program.steps
    jet_ops = [s for s in steps if s[0] not in (ex._CONST, ex._VAR)]
    alone = sum(len([s for s in ex.program([c]).steps
                     if s[0] not in (ex._CONST, ex._VAR)])
                for c in spec.components)
    assert (len(jet_ops), alone) == (14, 23)
    metric = spec.source.metric_program
    assert len(metric.roots) == 10  # the entries i <= j of a 4x4 metric


def test_the_curved_field_program_schedules_in_fewer_groups(tmp_path,
                                                            monkeypatch):
    spec, fields = _benchmark_spec("torus", tmp_path, monkeypatch)
    field = fields["tau_s"]
    alone = [ex._schedule(ex.program([c])) for c in field.components]
    joint = ex._schedule(field.program)
    assert len(joint.groups) < sum(len(s.groups) for s in alone)
    assert len(field.program.steps) < sum(
        len(ex.program([c]).steps) for c in field.components)
    coords = spec.source.coords
    for x in spec.source.sample_points(3, np.random.default_rng(25)):
        got = ex.eval_jet(field.program, coords, x, 4).coeffs
        ref = np.stack([ex.eval_jet(ex.program([c]), coords, x, 4).coeffs[:, 0]
                        for c in field.components], axis=1)
        assert got.tobytes() == ref.tobytes()
