"""The parser's group memo against parses that cannot use it.

parse reads a parenthesized group or a call whose exact text it has
parsed before as the node it built then.  A copy of the source in which
blanks make every group's text distinct parses without one hit, so the
two parses must agree in every respect: the DAG, its sharing, its
printing and the bits of its evaluation; and errors after hits must be
the errors of a parse without them.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symphonic import expr as ex
from test_schedule import _benchmark_spec

_COORDS = ["x", "y"]


def _unshared_text(source):
    """source with k blanks after its k-th '(': every group's text is
    then distinct, and the parse is the same."""
    count = itertools.count(1)
    return "".join(c + " " * next(count) if c == "(" else c for c in source)


_LEAVES = st.sampled_from(["x", "y", "1", "2.5", "0.25", "3e-2", "-1",
                           "-0.5", "(-2)", "(-1.5^2)", "(- 3)"])
_EXPONENTS = st.sampled_from(["2", "-1", "3", "1/2", "3/4", "-2/3", "0"])


def _grow(inner):
    return st.one_of(
        st.builds("({})".format, inner),
        st.builds("{}({})".format,
                  st.sampled_from(["sin", "cos", "exp"]), inner),
        st.builds("pow({}, {})".format, inner,
                  st.sampled_from(["2", "1/3", "-1", "(-1)", "2 - 0.5",
                                   "(1 + 1)^2"])),
        st.builds("({})^{}".format, inner, _EXPONENTS),
        st.builds("{}({})^{}".format,
                  st.sampled_from(["sin", "cos"]), inner, _EXPONENTS),
        st.builds("{} {} {}".format, inner,
                  st.sampled_from(["+", "-", "*", "/"]), inner),
        # the same group twice, directly and inside functions
        st.builds(lambda a, op: f"({a}) {op} ({a})", inner,
                  st.sampled_from(["+", "-", "*"])),
        st.builds(lambda a: f"sin({a})*sin({a})^2 - pow({a}, 2)", inner),
        st.builds(lambda a: f"-({a})*(-({a}))", inner),
    )


_GROUPED = st.recursive(_LEAVES, _grow, max_leaves=8)


@st.composite
def _repetitive_sources(draw):
    """A sum of products of a few grouped subexpressions, each used
    several times."""
    pieces = draw(st.lists(_GROUPED, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pieces) - 1),
                          min_size=2, max_size=6))
    ops = draw(st.lists(st.sampled_from(["+", "-", "*"]),
                        min_size=len(picks) - 1, max_size=len(picks) - 1))
    text = f"({pieces[picks[0]]})"
    for op, k in zip(ops, picks[1:]):
        text += f" {op} ({pieces[k]})"
    return text


def _jet_bits(tree, point):
    try:
        return ex.eval_jet(tree, _COORDS, point, 2).coeffs.tobytes()
    except ex.EvalDomainError as err:
        return str(err)


@given(_repetitive_sources())
@settings(max_examples=300, deadline=None)
def test_a_parse_with_group_hits_equals_one_without(source):
    tree = ex.parse(source, _COORDS)
    reference = ex.parse(_unshared_text(source), _COORDS)
    assert tree == reference
    assert len(ex._tape(tree)) == len(ex._tape(reference))
    assert ex.to_source(tree) == ex.to_source(reference)
    for point in ([0.3, 0.7], [1.25, -0.5]):
        assert _jet_bits(tree, point) == _jet_bits(reference, point)
        assert _jet_bits(tree, np.array([point, point]).T) \
            == _jet_bits(reference, np.array([point, point]).T)


@pytest.mark.parametrize("source,error,message", [
    ("sin(x)*sin(x) $", ex.SyntaxErrorAt,
     "unexpected character '$' (line 1, column 15)"),
    ("(x+1)*(x+1))", ex.SyntaxErrorAt,
     "unexpected trailing input ')' (line 1, column 12)"),
    ("pow(x, 2)*pow(x, 2) +", ex.SyntaxErrorAt,
     "unexpected token 'end of input' (line 1, column 22)"),
    ("((x)", ex.SyntaxErrorAt,
     "expected 'rparen', found 'end of input' (line 1, column 5)"),
    (")(", ex.SyntaxErrorAt, "unexpected token ')' (line 1, column 1)"),
    ("(x + 1)*(x + 1)^2^3", ex.SyntaxErrorAt,
     "chained '^' is not allowed, use pow() (line 1, column 18)"),
    ("sin(x)*sin(x)*sin(q)", ex.UndeclaredVariable,
     "undeclared variable 'q' (line 1, column 19)"),
    ("(x)*(x)\n  * (x) @", ex.SyntaxErrorAt,
     "unexpected character '@' (line 2, column 9)"),
])
def test_errors_after_group_hits_are_the_errors_without_them(source, error,
                                                             message):
    # each message and column as the parser gave it before the memo
    with pytest.raises(ex.ExprError) as err:
        ex.parse(source, _COORDS)
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize("kind,lengths", [
    ("torus", (3264, 3568)), ("annulus", (1998, 2164)),
])
def test_benchmark_fields_keep_their_tapes(kind, lengths, tmp_path,
                                           monkeypatch):
    _, fields = _benchmark_spec(kind, tmp_path, monkeypatch)
    components = fields["tau_s"].components
    assert tuple(len(ex._tape(tree)) for tree in components) == lengths
