import gc
import hashlib
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symphonic import expr as ex
from symphonic.jet import (Jet, JetDomainError, divide, s_cos, s_exp, s_log,
                           s_pow, s_sin, s_sqrt)


def _jet_of(tree, coords, x, order):
    """The jet of one expression: eval_jet of its program of one, whose
    (1,) jet array holds that jet."""
    jets = ex.eval_jet(ex.program([tree]), coords, x, order)
    return Jet(jets.space, jets.coeffs[:, 0])


def _value_of(tree, coords, x):
    """The value of one expression: eval_value of its program of one."""
    return ex.eval_value(ex.program([tree]), coords, x)[0]


def test_basic_tree():
    tree = ex.parse("x^2 + y^2", ["x", "y"])
    assert tree == ex.BinOp("+", ex.PowC(ex.Var("x"), 2.0),
                            ex.PowC(ex.Var("y"), 2.0))


def test_pow_call_with_fraction():
    tree = ex.parse("pow(x^2 + y^2, 1/3)", ["x", "y"])
    assert isinstance(tree, ex.PowC)
    assert tree.exponent == pytest.approx(1 / 3)


def test_syntax_error_position():
    with pytest.raises(ex.SyntaxErrorAt) as err:
        ex.parse("sin(t", ["t"])
    assert "column 6" in str(err.value)


def test_undeclared_variable():
    with pytest.raises(ex.UndeclaredVariable) as err:
        ex.parse("x + q", ["x"])
    assert err.value.name == "q"


def test_unary_minus_binds_below_power():
    tree = ex.parse("-x^2", ["x"])
    assert tree == ex.Neg(ex.PowC(ex.Var("x"), 2.0))
    assert _value_of(tree, ["x"], [3.0]) == pytest.approx(-9.0)
    explicit = ex.parse("(-x)^2", ["x"])
    assert _value_of(explicit, ["x"], [3.0]) == pytest.approx(9.0)


def test_left_associativity():
    tree = ex.parse("10 - 4 - 3", [])
    assert _value_of(tree, [], []) == pytest.approx(3.0)
    tree = ex.parse("24 / 4 / 3", [])
    assert _value_of(tree, [], []) == pytest.approx(2.0)


def test_exponent_fraction_binds_to_power():
    tree = ex.parse("x^2/3", ["x"])
    assert isinstance(tree, ex.PowC)
    assert tree.exponent == pytest.approx(2 / 3)
    # a decimal denominator stays a division
    tree = ex.parse("x^2 / 3.0", ["x"])
    assert isinstance(tree, ex.BinOp)
    assert _value_of(tree, ["x"], [3.0]) == pytest.approx(3.0)


def test_negative_exponent():
    tree = ex.parse("x^-2", ["x"])
    assert _value_of(tree, ["x"], [2.0]) == pytest.approx(0.25)


def test_chained_power_rejected():
    with pytest.raises(ex.SyntaxErrorAt):
        ex.parse("x^2^3", ["x"])


def test_nonconstant_pow_exponent_rejected():
    with pytest.raises(ex.SyntaxErrorAt):
        ex.parse("pow(x, y)", ["x", "y"])


def test_scientific_notation():
    tree = ex.parse("1.5e-3 * x", ["x"])
    assert _value_of(tree, ["x"], [2.0]) == pytest.approx(3e-3)


def test_eval_jet_polynomial():
    tree = ex.parse("t^2", ["t"])
    jet = _jet_of(tree, ["t"], [3.0], 2)
    assert jet.coefficient((0,)) == pytest.approx(9.0)
    assert jet.coefficient((1,)) == pytest.approx(6.0)
    assert jet.coefficient((2,)) == pytest.approx(1.0)


def test_eval_jet_fractional_power():
    tree = ex.parse("pow(t, 4/3)", ["t"])
    jet = _jet_of(tree, ["t"], [1.0], 4)
    expected = [4 / 3, 4 / 9, -8 / 27, 40 / 81]
    for k, e in enumerate(expected, start=1):
        assert jet.derivative((k,)) == pytest.approx(e, rel=1e-12)


def test_eval_jet_product():
    tree = ex.parse("sin(x)*y", ["x", "y"])
    jet = _jet_of(tree, ["x", "y"], [0.0, 2.0], 2)
    assert jet.derivative((1, 0)) == pytest.approx(2.0)
    assert jet.derivative((0, 1)) == pytest.approx(0.0)
    assert jet.derivative((1, 1)) == pytest.approx(1.0)
    assert jet.derivative((2, 0)) == pytest.approx(0.0)


def test_domain_error_names_subexpression():
    tree = ex.parse("log(x - 5)", ["x"])
    with pytest.raises(ex.EvalDomainError) as err:
        _value_of(tree, ["x"], [1.0])
    assert "log" in str(err.value)
    assert err.value.node is tree
    tree = ex.parse("1 + log(x - 5)", ["x"])
    with pytest.raises(ex.EvalDomainError) as err:
        _jet_of(tree, ["x"], [1.0], 2)
    assert err.value.node is tree.right


def test_evaluated_expression_is_freed_without_the_cycle_collector():
    tree = ex.parse("sin(x) * x + 1", ["x"])
    _value_of(tree, ["x"], [0.5])  # compiles and runs a program of one
    ref = weakref.ref(tree)
    gc.disable()
    try:
        del tree
        assert ref() is None
    finally:
        gc.enable()


def test_constant_expression_evaluates_without_env():
    tree = ex.parse("2 * (3 + 4)", [])
    assert _value_of(tree, [], []) == pytest.approx(14.0)


# round-trip property ------------------------------------------------------

_COORDS = ["x", "y"]


def _expr_trees(depth):
    leaf = st.one_of(
        st.floats(-9.0, 9.0).map(lambda v: ex.Const(round(v, 3))),
        st.sampled_from([0.0, -0.0, -1.5]).map(ex.Const),
        st.sampled_from(_COORDS).map(ex.Var),
    )
    if depth == 0:
        return leaf
    sub = _expr_trees(depth - 1)
    return st.one_of(
        leaf,
        sub.map(ex.Neg),
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(
            lambda t: ex.BinOp(*t)),
        st.tuples(sub, st.sampled_from([2.0, 3.0, 0.5, -1.0])).map(
            lambda t: ex.PowC(*t)),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), sub).map(
            lambda t: ex.Call(*t)),
    )


@given(_expr_trees(3))
@settings(max_examples=200, deadline=None)
def test_print_parse_round_trip(tree):
    text = ex.to_source(tree)
    parsed = ex.parse(text, _COORDS)
    assert parsed == tree
    # equality takes 0.0 == -0.0; the text tells the signs apart
    assert ex.to_source(parsed) == text


@pytest.mark.parametrize("text,value", [
    ("-2^2", -4.0),
    ("-2^2 + 1", -3.0),
    ("3 - -2", 5.0),
    ("2 * -1.5", -3.0),
])
def test_unary_minus_precedence(text, value):
    assert _value_of(ex.parse(text, []), [], []) == value


def test_negative_literals_parse_as_constants():
    assert ex.parse("-1.5", []) == ex.Const(-1.5)
    zero = ex.parse("-0.0", [])
    assert isinstance(zero, ex.Const) and repr(zero.value) == "-0.0"
    # a minus before a power negates the power
    assert isinstance(ex.parse("-2^2", []), ex.Neg)
    # and a negated constant prints so that it parses back as a negation
    neg = ex.Neg(ex.Const(1.5))
    assert ex.to_source(neg) == "-(1.5)"
    assert ex.parse(ex.to_source(neg), []) == neg
    assert isinstance(ex.parse(ex.to_source(neg), []), ex.Neg)


# interning and the tape ---------------------------------------------------


def test_parse_shares_equal_subexpressions():
    tree = ex.parse("sin(x)*sin(x)", ["x"])
    assert tree.left is tree.right
    # floats are interned by repr, so 0.0 and -0.0 exponents stay apart
    tree = ex.parse("x^0 + x^-0", ["x"])
    assert tree.left is not tree.right
    assert repr(tree.right.exponent) == "-0.0"


def _reference(node, env):
    """Recursive evaluator, one call per tree node: the semantics the
    tape must reproduce bit for bit."""
    if isinstance(node, ex.Const):
        return node.value
    if isinstance(node, ex.Var):
        try:
            return env[node.name]
        except KeyError:
            raise ex.EvalDomainError(f"unbound variable '{node.name}'",
                                     node) from None
    if isinstance(node, ex.Neg):
        return -_reference(node.arg, env)
    if isinstance(node, ex.BinOp):
        a = _reference(node.left, env)
        b = _reference(node.right, env)
        try:
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            return divide(a, b)
        except JetDomainError as err:
            raise ex.EvalDomainError(str(err), node) from None
    if isinstance(node, ex.PowC):
        base = _reference(node.base, env)
        try:
            return s_pow(base, node.exponent)
        except JetDomainError as err:
            raise ex.EvalDomainError(str(err), node) from None
    arg = _reference(node.arg, env)
    fn = {"sin": s_sin, "cos": s_cos, "exp": s_exp, "log": s_log,
          "sqrt": s_sqrt}[node.func]
    try:
        return fn(arg)
    except JetDomainError as err:
        raise ex.EvalDomainError(str(err), node) from None


def _outcome(evaluator, tree, env):
    """A comparable record of a result or of the error raised."""
    try:
        with np.errstate(all="ignore"):
            value = evaluator(tree, env)
    except (ArithmeticError, ValueError) as err:
        return type(err).__name__, str(err)
    if isinstance(value, Jet):
        return "jet", value.order, value.coeffs.tobytes()
    return "float", struct.pack("<d", value)


_LEAVES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, -1.5, 3.25]).map(ex.Const),
    # z is left out of every environment: an unbound variable
    st.sampled_from(["x", "y", "x", "y", "z"]).map(ex.Var),
)


@st.composite
def _shared_trees(draw):
    """Trees built bottom-up from a pool, each node picking its children
    from the pool, so one subtree object often sits under many parents."""
    pool = draw(st.lists(_LEAVES, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 14))):
        pick = st.sampled_from(pool)
        kind = draw(st.sampled_from(["neg", "bin", "bin", "pow", "call"]))
        if kind == "neg":
            node = ex.Neg(draw(pick))
        elif kind == "bin":
            node = ex.BinOp(draw(st.sampled_from("+-*/")), draw(pick),
                            draw(pick))
        elif kind == "pow":
            node = ex.PowC(draw(pick),
                           draw(st.sampled_from([2.0, 3.0, -1.0, -2.0, 0.5,
                                                 1 / 3, 0.0, -0.0])))
        else:
            node = ex.Call(draw(st.sampled_from(["sin", "cos", "exp", "log",
                                                 "sqrt"])), draw(pick))
        pool.append(node)
    return pool[-1]


def _distinct_nodes(tree):
    """Every node object under tree, once by identity."""
    seen, out, stack = set(), [], [tree]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack.extend(getattr(node, f) for f in ("arg", "left", "right",
                                                    "base")
                         if hasattr(node, f))
    return out


@given(_shared_trees(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=300, deadline=None)
def test_tape_matches_recursive_reference(tree, x, y):
    # one tape step per structurally distinct node (as parse interns
    # them): shared and repeated subtrees run once
    parsed = ex.parse(ex.to_source(tree), ["x", "y", "z"])
    assert len(ex.program([tree]).steps) == len(_distinct_nodes(parsed))
    envs = [{"x": x, "y": y}]
    for order in (2, 4):
        envs.append({"x": Jet.variable(0, x, 2, order),
                     "y": Jet.variable(1, y, 2, order)})
    for env in envs:
        assert (_outcome(ex._evaluate, tree, env)
                == _outcome(_reference, tree, env))
    # a printed tree parses back to an equal tree, interned no wider
    assert parsed == tree
    assert len(_distinct_nodes(parsed)) <= len(_distinct_nodes(tree))


def test_deep_expressions_need_no_recursion():
    terms = 3000
    tree = ex.parse(" + ".join(["x"] * terms), ["x"])
    assert ex.free_variables(tree) == {"x"}
    assert _value_of(tree, ["x"], [0.5]) == terms * 0.5
    assert _jet_of(tree, ["x"], [0.5], 2).coefficient((1,)) == terms
    text = ex.to_source(tree)
    assert ex.to_source(ex.parse(text, ["x"])) == text
    with pytest.raises(ex.EvalDomainError):
        _value_of(ex.parse(text + " + log(x - 1)", ["x"]), ["x"], [0.5])


def test_deep_expressions_compare_without_recursion():
    text = " + ".join(["x^2"] * 3000)
    a, b = ex.parse(text, ["x"]), ex.parse(text, ["x"])
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert a != ex.parse(text + " + 1", ["x"])


def test_deep_expressions_print_without_recursion():
    small = ex.parse("-x + 2*sin(y)^3 - pow(x, 1.5)/y", ["x", "y"])
    assert repr(small) == (
        "BinOp(op='-', left=BinOp(op='+', left=Neg(arg=Var(name='x')), "
        "right=BinOp(op='*', left=Const(value=2.0), right=PowC("
        "base=Call(func='sin', arg=Var(name='y')), exponent=3.0))), "
        "right=BinOp(op='/', left=PowC(base=Var(name='x'), exponent=1.5), "
        "right=Var(name='y')))")
    deep = repr(ex.parse(" + ".join(["x"] * 3000), ["x"]))
    assert deep.startswith("BinOp(op='+', left=BinOp(op='+', left=")
    assert deep.count("Var(name='x')") == 3000
    assert deep.count("(") == deep.count(")") == 2999 + 3000


def _field_values(node):
    return [getattr(node, f) for f in node.__dataclass_fields__]


def _recursive_eq(a, b):
    """Structural equality by recursion over the dataclass fields."""
    if type(a) is not type(b):
        return False
    for u, w in zip(_field_values(a), _field_values(b)):
        same = _recursive_eq(u, w) if isinstance(u, ex.Expr) else u == w
        if not same:
            return False
    return True


def _unshared_copy(node):
    """The same tree rebuilt with no node object shared."""
    return type(node)(*[_unshared_copy(v) if isinstance(v, ex.Expr) else v
                        for v in _field_values(node)])


@given(_shared_trees(), _shared_trees())
@settings(max_examples=300, deadline=None)
def test_equality_and_hash_follow_structure(a, b):
    assert (a == b) == _recursive_eq(a, b)
    if a == b:
        assert hash(a) == hash(b)
    copy = _unshared_copy(a)
    assert copy == a and hash(copy) == hash(a)


def test_over_nested_parentheses_is_a_syntax_error():
    depth = 5000
    with pytest.raises(ex.SyntaxErrorAt):
        ex.parse("(" * depth + "x" + ")" * depth, ["x"])
    with pytest.raises(ex.SyntaxErrorAt):
        ex.parse("sin(" * depth + "x" + ")" * depth, ["x"])


def _parse_error_at_stack_depth(extra_frames, source):
    """The message of parse(source) called extra_frames frames deeper."""
    if extra_frames:
        return _parse_error_at_stack_depth(extra_frames - 1, source)
    with pytest.raises(ex.ExprError) as err:
        ex.parse(source, ["x"])
    return str(err.value)


@pytest.mark.parametrize("source,column", [
    pytest.param("(" * 5000 + "x" + ")" * 5000, 101, id="parens-5000"),
    pytest.param("-" * 3000 + "x", 101, id="minus-3000"),
    pytest.param("sin(" * 5000 + "x" + ")" * 5000, 401, id="calls-5000"),
    pytest.param("(-" * 3000 + "x" + ")" * 3000, 101, id="mixed-3000"),
])
def test_over_nesting_says_so(source, column):
    """The opener one level past MAX_NESTING is the error's column,
    wherever the caller is on the stack."""
    expected = f"expression nested too deeply (line 1, column {column})"
    assert _parse_error_at_stack_depth(0, source) == expected
    assert _parse_error_at_stack_depth(300, source) == expected


@pytest.mark.parametrize("opener,closer", [("(", ")"), ("-", ""),
                                           ("sqrt(", ")")])
def test_nesting_up_to_the_limit_parses(opener, closer):
    depth = ex.MAX_NESTING
    ex.parse(opener * depth + "x" + closer * depth, ["x"])
    with pytest.raises(ex.SyntaxErrorAt, match="nested too deeply"):
        ex.parse(opener * (depth + 1) + "x" + closer * (depth + 1), ["x"])


def test_tiny_base_surfaces_as_eval_domain_error():
    with pytest.raises(ex.EvalDomainError) as err:
        _jet_of(ex.parse("log(x)", ["x"]), ["x"], [1e-320], 4)
    assert "log(x)" in str(err.value)


# batched evaluation -------------------------------------------------------


def test_batched_evaluation_matches_pointwise(rng):
    tree = ex.parse("0.7*sin(x)*cos(y) + exp(x*y)/(2 + y^2) - pow(x + 3, 1/3)",
                    ["x", "y"])
    pts = rng.uniform(-1.0, 1.0, size=(2, 3, 4))   # a 3x4 batch of points
    values = _value_of(tree, ["x", "y"], pts)
    jets = _jet_of(tree, ["x", "y"], pts, 4)
    assert values.shape == (3, 4) and jets.batch == (3, 4)
    for i in range(3):
        for j in range(4):
            p = pts[:, i, j]
            assert values[i, j] == pytest.approx(
                _value_of(tree, ["x", "y"], p), rel=1e-15)
            ref = _jet_of(tree, ["x", "y"], p, 4).coeffs
            assert np.allclose(jets.coeffs[:, i, j], ref, rtol=1e-14,
                               atol=1e-14 * np.abs(ref).max())
    # a constant expression fills the batch
    assert _value_of(ex.parse("2", ["x"]), ["x"], np.zeros((1, 5))).shape \
        == (5,)


@pytest.mark.parametrize("text,order,points", [
    ("log(x)", None, [1.0, 2.0, -0.5, 3.0, 0.0]),
    ("log(x)", 2, [1.0, 2.0, -0.5, 3.0, 0.0]),
    ("sqrt(x)", 4, [1.0, 2.0, -0.5, 3.0, 0.0]),
    ("1/x", None, [1.0, 2.0, 0.0, 3.0, 1e-301]),
    ("x*1e300*1e300 - x*1e300*1e300", None, [0.0, 0.0, 1.0, 0.0, 2.0]),
])
def test_batched_error_names_first_failing_point(text, order, points):
    # points 2 and 4 fail; the batch raises what point 2 alone raises
    tree = ex.parse(text, ["x"])
    pts = np.array([points])

    def run(p):
        if order is None:
            return _value_of(tree, ["x"], p)
        return _jet_of(tree, ["x"], p, order)

    with pytest.raises(ex.EvalDomainError) as batch_err:
        run(pts)
    with pytest.raises(ex.EvalDomainError) as point_err:
        run(pts[:, 2])
    assert str(batch_err.value) == str(point_err.value)
    run(pts[:, :2])  # the points before it pass


# parser errors --------------------------------------------------------------


@pytest.mark.parametrize("source,error,message", [
    ("x +\n  (y * $)", ex.SyntaxErrorAt,
     "unexpected character '$' (line 2, column 8)"),
    ("x\n\t+ @", ex.SyntaxErrorAt,
     "unexpected character '@' (line 2, column 4)"),
    ("x +\r\n  * y", ex.SyntaxErrorAt,
     "unexpected token '*' (line 2, column 3)"),
    ("x +\n\n   q", ex.UndeclaredVariable,
     "undeclared variable 'q' (line 3, column 4)"),
    ("1.5.2", ex.SyntaxErrorAt,
     "unexpected trailing input '.2' (line 1, column 4)"),
    ("x.y", ex.SyntaxErrorAt, "unexpected character '.' (line 1, column 2)"),
    ("x@1", ex.SyntaxErrorAt, "unexpected character '@' (line 1, column 2)"),
    ("x\f+ 1", ex.SyntaxErrorAt,
     "unexpected character '\\x0c' (line 1, column 2)"),
    # a stray character is reported before an earlier syntax error
    ("+ + $", ex.SyntaxErrorAt, "unexpected character '$' (line 1, column 5)"),
    ("x^2^3", ex.SyntaxErrorAt,
     "chained '^' is not allowed, use pow() (line 1, column 4)"),
    ("x^y", ex.SyntaxErrorAt,
     "exponent must be a numeric constant (line 1, column 3)"),
    ("pow(x, y)", ex.SyntaxErrorAt,
     "pow() exponent must be a constant expression (line 1, column 1)"),
    # an exponent that overflows, or folds to NaN, at the exponent
    ("x^1e400", ex.SyntaxErrorAt,
     "exponent must be finite (line 1, column 3)"),
    ("x^-1e400", ex.SyntaxErrorAt,
     "exponent must be finite (line 1, column 3)"),
    # pow's exponent is an expression: its overflowing literal fails first
    ("pow(x, 1e400)", ex.SyntaxErrorAt,
     "number must be finite (line 1, column 8)"),
    ("pow(x, 1e400-1e400)", ex.SyntaxErrorAt,
     "number must be finite (line 1, column 8)"),
    # a number literal that overflows, at the literal
    ("x*1e400", ex.SyntaxErrorAt,
     "number must be finite (line 1, column 3)"),
    ("x + 1e400", ex.SyntaxErrorAt,
     "number must be finite (line 1, column 5)"),
    ("x*(1e400-1e400)", ex.SyntaxErrorAt,
     "number must be finite (line 1, column 4)"),
    ("sin(x,)", ex.SyntaxErrorAt,
     "expected 'rparen', found ',' (line 1, column 6)"),
    ("pow(x 2)", ex.SyntaxErrorAt,
     "expected 'comma', found '2' (line 1, column 7)"),
    ("(x + 1", ex.SyntaxErrorAt,
     "expected 'rparen', found 'end of input' (line 1, column 7)"),
    ("tan(x)", ex.SyntaxErrorAt, "unknown function 'tan' (line 1, column 1)"),
    ("cos x", ex.UndeclaredVariable,
     "undeclared variable 'cos' (line 1, column 1)"),
    ("1 2", ex.SyntaxErrorAt,
     "unexpected trailing input '2' (line 1, column 3)"),
    ("", ex.SyntaxErrorAt,
     "unexpected token 'end of input' (line 1, column 1)"),
])
def test_parse_error_text(source, error, message):
    with pytest.raises(ex.ExprError) as err:
        ex.parse(source, ["x", "y"])
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize("source,column", [
    ("-", 2), ("(-", 3), ("t*-", 4), ("t +\n-", 2),
])
def test_unary_minus_at_end_of_input_is_a_syntax_error(source, column):
    with pytest.raises(ex.SyntaxErrorAt) as err:
        ex.parse(source, ["t"])
    line = source.count("\n") + 1
    assert str(err.value) == (f"unexpected token 'end of input' "
                              f"(line {line}, column {column})")


def test_zero_denominator_in_an_exponent_fraction_is_a_syntax_error():
    for source in ("x^1/0", "x^-0/00"):
        with pytest.raises(ex.SyntaxErrorAt) as err:
            ex.parse(source, ["x"])
        column = source.index("/") + 2
        assert str(err.value) == ("exponent fraction has a zero denominator "
                                  f"(line 1, column {column})")
    # a decimal denominator is a division, evaluated later
    assert isinstance(ex.parse("x^1/0.0", ["x"]), ex.BinOp)


def test_numbers_take_decimal_digits_only():
    # '²' is a digit but not a decimal one: a name, not a number
    with pytest.raises(ex.UndeclaredVariable) as err:
        ex.parse("t*²", ["t"])
    assert str(err.value) == "undeclared variable '²' (line 1, column 3)"
    # an Arabic-Indic three is a decimal digit, and a Greek letter a name
    assert ex.parse("٣*θ", ["θ"]) == ex.BinOp("*", ex.Const(3.0),
                                                ex.Var("θ"))
    assert ex.parse("θ٣", ["θ٣"]) == ex.Var("θ٣")


_DSL_TEXT = st.text(
    alphabet=list("xyt0123456789.eE+-*/^(), sincoexplgqrtw_")
    + ["$", "²", "٣", "θ", "\f", "\n", "\t"],
    max_size=24)


@given(_DSL_TEXT)
@settings(max_examples=1000, deadline=None)
def test_parse_returns_an_expression_or_an_expr_error(source):
    try:
        tree = ex.parse(source, ["x", "y", "t"])
    except ex.ExprError:
        return
    assert isinstance(tree, ex.Expr)


def _repeating_source(terms):
    """A deterministic sum whose terms repeat subexpressions."""
    parts = []
    for k in range(terms):
        a, b, c = k % 7, k % 11, k % 5
        parts.append(f"sin(x*{a} + y)^2*pow(x + {b}, 1/3)"
                     f" - cos(y/{c + 1})*-{a}.5 + (x - y)^{c}")
    return " + ".join(parts)


def test_parse_interns_a_large_repetitive_expression():
    root = ex.parse(_repeating_source(2000), ["x", "y"])
    assert len(ex._post_order(root)) == 6197
    text = ex.to_source(root)
    assert len(text) == 212178
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4d1b1e7c1b971ca989a4ed73fe28abd3f536690ccade7329e03a158b8f9a136e")


@pytest.mark.parametrize("text,point", [
    pytest.param("1/x", 0.0, id="reciprocal-at-zero"),
    pytest.param("x^-1", 0.0, id="negative-power-at-zero"),
    pytest.param("pow(x, -2)", 0.0, id="pow-negative-at-zero"),
    pytest.param("cos(x*1e300*1e300)", 1.0, id="cos-of-inf"),
    pytest.param("x^65", -1.0, id="integer-power-65-of-negative"),
])
@pytest.mark.parametrize("order", [1, 2, 4])
def test_values_and_jets_fail_alike(text, point, order):
    # each elementary function is one definition: its domain checks run
    # on the value, so both evaluators raise one message or both return
    tree = ex.parse(text, ["x"])
    outcomes = []
    for evaluate in (lambda: _value_of(tree, ["x"], [point]),
                     lambda: _jet_of(tree, ["x"], [point], order).value):
        try:
            with np.errstate(all="ignore"):
                outcomes.append(("value", evaluate()))
        except ex.EvalDomainError as err:
            outcomes.append(("error", str(err)))
    assert outcomes[0] == outcomes[1]
    if text == "x^65":
        assert outcomes[0] == ("value", -1.0)


def test_integer_powers_take_any_base_as_repeated_products():
    tree = ex.parse("x^65 + pow(x, -70)", ["x"])
    jet = _jet_of(tree, ["x"], [-1.5], 3)
    assert jet.value == pytest.approx(_value_of(tree, ["x"], [-1.5]),
                                      rel=1e-14)
    for k, expected in enumerate([
            (-1.5) ** 65 + (-1.5) ** -70,
            65 * (-1.5) ** 64 - 70 * (-1.5) ** -71,
            65 * 64 * (-1.5) ** 63 + 70 * 71 * (-1.5) ** -72]):
        assert jet.derivative((k,)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("text,tiny,outside", [
    ("log(x)", 1e-320, -1.0), ("sqrt(x)", 1e-320, -1.0),
    ("pow(x, 1.5)", 1e-320, -1.0), ("1/x", 1e-299, 0.0),
    ("x^-2", 1e-100, 0.0)])
def test_jet_batch_names_its_first_point_whichever_check_fails(text, tiny,
                                                               outside):
    # point 0 fails only a derivative's float range, point 1 the domain
    tree = ex.parse(text, ["x"])
    errors = []
    for points in ([[tiny, outside]], [tiny], [outside]):
        with pytest.raises(ex.EvalDomainError) as err:
            _jet_of(tree, ["x"], np.array(points), 4)
        errors.append(str(err.value))
    assert errors[0] == errors[1] != errors[2]
    assert "derivatives" in errors[0]


# pointwise jets and values, bit for bit ----------------------------------


@pytest.mark.parametrize("text", ["1/x", "log(x)", "sqrt(x)", "x^-3",
                                  "pow(x, 4/3)", "sin(x)/(x + 1)"])
def test_pointwise_jet_is_its_batch_column_bit_for_bit(text):
    tree = ex.parse(text, ["x"])
    pts = np.linspace(0.2, 3.0, 400)[None]
    batch = _jet_of(tree, ["x"], pts, 4).coeffs
    for k in range(pts.shape[1]):
        point = _jet_of(tree, ["x"], pts[:, k], 4).coeffs
        assert point.tobytes() == batch[:, k].tobytes(), pts[0, k]


@pytest.mark.parametrize("text", ["sin(x)/(x + 1)", "2/x", "x/(x^2 + 3)"])
def test_quotient_jet_value_is_the_quotient(text):
    tree = ex.parse(text, ["x"])
    pts = np.linspace(0.1, 3.0, 200)[None]
    values = _value_of(tree, ["x"], pts)
    assert _jet_of(tree, ["x"], pts, 2).value.tobytes() == values.tobytes()
    for k in range(pts.shape[1]):
        assert _jet_of(tree, ["x"], pts[:, k], 1).value == values[k]
    a = Jet.variable(0, 0.7, 1, 3)
    b = s_sin(a) + 1.0
    assert divide(a, b).value == 0.7 / b.value
    assert divide(2.0, b).value == 2.0 / b.value


@pytest.mark.parametrize("source,message", [
    ("pow(x, 1/0)", "pow() exponent: division by near-zero value 0.0 in "
                    "subexpression '1.0 / 0.0' (line 1, column 8)"),
    ("pow(x, log(0-1))", "pow() exponent: log of non-positive value -1.0 in "
                         "subexpression 'log(0.0 - 1.0)' (line 1, column 8)"),
    ("pow(x, sqrt(-1))", "pow() exponent: sqrt of non-positive value -1.0 "
                         "in subexpression 'sqrt((-1.0))' (line 1, column 8)"),
    ("pow(x, exp(1000))", "pow() exponent: exp overflows at 1000.0 in "
                          "subexpression 'exp(1000.0)' (line 1, column 8)"),
    ("pow(x,\n  1/0)", "pow() exponent: division by near-zero value 0.0 in "
                       "subexpression '1.0 / 0.0' (line 2, column 3)"),
    # an exponent with a free variable is not constant, whatever else fails
    ("pow(x, 1/0 + y)",
     "pow() exponent must be a constant expression (line 1, column 1)"),
])
def test_a_constant_pow_exponent_that_fails_names_its_failure(source,
                                                              message):
    with pytest.raises(ex.SyntaxErrorAt) as err:
        ex.parse(source, ["x", "y"])
    assert str(err.value) == message
