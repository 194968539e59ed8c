"""Arithmetic expression DSL: parsing, printing, and jet evaluation.

Grammar (EBNF):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' number)?
    atom   := number | ident | func '(' expr (',' expr)? ')' | '(' expr ')'
    func   := sin | cos | exp | log | sqrt | pow
    number := decimal digits with at most one point, optionally
              scientific; in exponent position an integer fraction
              'a/b' (b not zero) is also accepted

Number literals and exponents are finite: a literal that overflows,
such as 1e400, is a syntax error at its column.  ``pow(base, e)``
accepts any constant subexpression as e (it is folded at parse time),
which is how the fractional powers such as pow(t, 4/3) are written.
A minus sign directly before a number that takes no '^' is part of the
number: "-1.5" is the constant -1.5, while "-2^2" is -(2^2) = -4.  The
printer writes a negated constant as "-(c)", so
parse(to_source(e)) == e holds for negative constants and -0.0 too.

The tokenizer is one pass of a compiled regular expression, and tokens
are plain strings: a name (a word character that is not a decimal
digit, then word characters), a number or one operator or punctuation
mark.  Numbers take decimal digits only (``str.isdecimal``: '٣' is a
digit, while '²' is a name character).  Blanks are ' ', tab, '\r' and
'\n'; any other character that no token takes is reported before
anything else.  Lines and columns (only '\n' ends a line, and every
character is one column) exist only in error messages: they are worked
out when an error is raised, by scanning the source up to the failing
token, so a parse that succeeds never computes one.

The parser hash-conses: within one parse every node is built once per
class and fields, with children keyed by identity and floats by
``repr`` (so 0.0 and -0.0 stay distinct), and a repeated subexpression
comes back as one shared object.  ``parse`` therefore returns a DAG,
which matters for machine-generated input: a sympy-derived field of
131k tree nodes has under 7k distinct ones.

Evaluation runs on a tape.  The first evaluation of a root compiles it
by an iterative post-order walk that lists each distinct node once,
children first and left before right, and caches the list on the root.
Each evaluation is then one loop over the tape that does the same float
or jet operations, in the same order, as a recursive walk of the tree,
so results are bit-identical to it.  Printing and free-variable lookup
walk iteratively too, so a parsed expression of any depth can be
evaluated and printed.

Points carry trailing batch axes: ``eval_value`` and ``eval_jet`` take
points of shape (m, ...) (coordinate first), and one pass over the tape
gives the values or jets at every point (see ``jet``).  A single point,
shape (m,), is the batch of one through the same code and gives a float
or a pointwise jet.  A domain error names the first failing point's
value with the text a pointwise evaluation at that point raises, and
the failing subexpression.  A result that is not finite at some point
(an overflow, or inf - inf) raises EvalDomainError too.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .jet import (Jet, JetDomainError, divide, first_failure, s_cos, s_exp,
                  s_log, s_pow, s_sin, s_sqrt)

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "pow")


class ExprError(ValueError):
    """Base class for parsing and evaluation failures."""


class SyntaxErrorAt(ExprError):
    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UndeclaredVariable(ExprError):
    def __init__(self, name, line, column):
        super().__init__(
            f"undeclared variable '{name}' (line {line}, column {column})"
        )
        self.name = name


class EvalDomainError(ExprError):
    def __init__(self, message, node):
        super().__init__(f"{message} in subexpression '{to_source(node)}'")
        self.node = node


# expression nodes -------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base of the expression nodes.  Equality is structural, hashing
    agrees with it, and both run over the tape, so at any depth; repr
    is iterative too."""

    # the compiled tape of this node as a root, set on first evaluation;
    # not a dataclass field, so equality, hashing and repr ignore it
    _tape = None

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        if self is other:
            return True
        ids = {}

        def number(key):
            return ids.setdefault(key, len(ids))

        return _fold(self, number) == _fold(other, number)

    def __hash__(self):
        return _fold(self, hash)

    def __repr__(self):
        """The dataclass repr, written out by an explicit stack of
        pending text and nodes, so at any depth."""
        parts = []
        stack = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            parts.append(f"{type(item).__qualname__}(")
            pending = []
            for k, name in enumerate(item.__dataclass_fields__):
                value = getattr(item, name)
                pending.append(f"{', ' if k else ''}{name}=")
                pending.append(value if isinstance(value, Expr)
                               else repr(value))
            pending.append(")")
            stack.extend(reversed(pending))
        return "".join(parts)


@dataclass(frozen=True, eq=False, repr=False)
class Const(Expr):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class PowC(Expr):
    base: Expr
    exponent: float


@dataclass(frozen=True, eq=False, repr=False)
class Call(Expr):
    func: str  # sin cos exp log sqrt
    arg: Expr


def _children(node):
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, PowC):
        return (node.base,)
    return ()


def _post_order(root) -> list:
    """Every node under root once by identity, children before parents
    and left before right: a recursive walk with repeats dropped."""
    seen = set()
    out = []
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            out.append(node)
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(_children(node)))
    return out


# tokenizer ---------------------------------------------------------------

# one match per token: a name, a number, or an operator or punctuation
# mark; blanks and stray characters match nothing
_TOKEN = re.compile(r"[^\W\d]\w*|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[-+*/^(),]")
_BLANKS = " \t\r\n"


def _tokenize(source: str) -> list[str]:
    """The tokens of source as strings, in order."""
    tokens = _TOKEN.findall(source)
    # the tokens and blanks cover the source unless a character is stray
    if (sum(map(len, tokens)) + sum(map(source.count, _BLANKS))
            != len(source)):
        rest = _TOKEN.sub(lambda m: " " * len(m[0]), source)
        at = len(rest) - len(rest.lstrip(_BLANKS))
        raise SyntaxErrorAt(f"unexpected character {source[at]!r}",
                            *_line_column(source, at))
    return tokens


def _line_column(source, offset):
    """1-based line and column of source[offset]; only '\\n' ends a line."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


def _is_number(token):
    first = token[:1]
    return first.isdecimal() or first == "."


# parser ------------------------------------------------------------------

_EXPECTED = {")": "rparen", ",": "comma"}


class _Parser:
    """Recursive descent over the token strings, which end with "" for
    the end of input."""

    def __init__(self, source, coords):
        self.source = source
        self.tokens = _tokenize(source)
        self.tokens.append("")
        self.pos = 0
        self.coords = set(coords)
        self.nodes = {}  # intern table: key -> the one node with that key

    def node(self, key, cls, *fields):
        """The interned node for key, built from fields on first use.

        Keys hold children by id(), which stays valid because the table
        keeps every node alive, and floats by repr(), because
        Const(0.0) == Const(-0.0) and the two hash alike.
        """
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = cls(*fields)
        return node

    def binop(self, op, left, right):
        return self.node((BinOp, op, id(left), id(right)), BinOp, op, left, right)

    def const(self, value):
        """The constant of the number token just read; a literal that
        overflows to infinity is a syntax error there."""
        if not math.isfinite(value):
            raise self.error("number must be finite", self.pos - 1)
        return self.node((Const, repr(value)), Const, value)

    def powc(self, base, exponent):
        return self.node((PowC, id(base), repr(exponent)), PowC, base, exponent)

    def where(self, index):
        """Line and column of token index, or of the end of input, found
        by scanning the source up to it: only an error message needs
        them."""
        if index >= len(self.tokens) - 1:
            offset = len(self.source)
        else:
            match = next(itertools.islice(_TOKEN.finditer(self.source),
                                          index, None))
            offset = match.start()
        return _line_column(self.source, offset)

    def error(self, message, index=None):
        """SyntaxErrorAt token index, by default the current one."""
        return SyntaxErrorAt(message,
                             *self.where(self.pos if index is None else index))

    def expect(self, token):
        found = self.tokens[self.pos]
        if found != token:
            raise self.error(f"expected {_EXPECTED[token]!r}, "
                             f"found {found or 'end of input'!r}")
        self.pos += 1

    def parse(self):
        e = self.expr()
        tok = self.tokens[self.pos]
        if tok:
            raise self.error(f"unexpected trailing input {tok!r}")
        return e

    def expr(self):
        tokens = self.tokens
        left = self.term()
        while tokens[self.pos] in ("+", "-"):
            op = tokens[self.pos]
            self.pos += 1
            left = self.binop(op, left, self.term())
        return left

    def term(self):
        tokens = self.tokens
        left = self.factor()
        while tokens[self.pos] in ("*", "/"):
            op = tokens[self.pos]
            self.pos += 1
            left = self.binop(op, left, self.factor())
        return left

    def factor(self):
        tokens = self.tokens
        if tokens[self.pos] == "-":
            self.pos += 1
            num = tokens[self.pos]
            if _is_number(num) and tokens[self.pos + 1] != "^":
                # a negative literal: one constant, not Neg(Const)
                self.pos += 1
                return self.const(-float(num))
            arg = self.factor()
            return self.node((Neg, id(arg)), Neg, arg)
        base = self.atom()
        if tokens[self.pos] == "^":
            self.pos += 1
            base = self.powc(base, self.exponent_number())
            if tokens[self.pos] == "^":
                raise self.error("chained '^' is not allowed, use pow()")
        return base

    def exponent_number(self):
        tokens = self.tokens
        at = self.pos  # the exponent's first token
        sign = 1.0
        tok = tokens[self.pos]
        if tok in ("+", "-"):
            self.pos += 1
            if tok == "-":
                sign = -1.0
            tok = tokens[self.pos]
        if not _is_number(tok):
            raise self.error("exponent must be a numeric constant")
        self.pos += 1
        value = float(tok)
        # integer fraction exponent: a/b binds to the exponent
        if (tokens[self.pos] == "/" and tok.isdecimal()
                and tokens[self.pos + 1].isdecimal()):
            den = float(tokens[self.pos + 1])
            if den == 0.0:
                raise self.error("exponent fraction has a zero denominator",
                                 self.pos + 1)
            self.pos += 2
            value = value / den
        if not math.isfinite(value):
            raise self.error("exponent must be finite", at)
        return sign * value

    def atom(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok == "(":
            e = self.expr()
            self.expect(")")
            return e
        if _is_number(tok):
            return self.const(float(tok))
        if tok[:1].isalnum() or tok[:1] == "_":
            if self.tokens[self.pos] == "(":
                return self.call(tok)
            if tok not in self.coords:
                raise UndeclaredVariable(tok, *self.where(self.pos - 1))
            return self.node((Var, tok), Var, tok)
        raise self.error(f"unexpected token {tok or 'end of input'!r}",
                         self.pos - 1)

    def call(self, name):
        at = self.pos - 1  # the name's token
        if name not in FUNCTIONS:
            raise self.error(f"unknown function '{name}'", at)
        self.pos += 1  # its '('
        first = self.expr()
        if name == "pow":
            self.expect(",")
            at_exponent = self.pos
            second = self.expr()
            self.expect(")")
            try:
                exponent = float(evaluate(second, {}))
            except ExprError:
                raise self.error("pow() exponent must be a constant "
                                 "expression", at) from None
            if not math.isfinite(exponent):
                raise self.error("exponent must be finite", at_exponent)
            return self.powc(first, exponent)
        self.expect(")")
        return self.node((Call, name, id(first)), Call, name, first)


def parse(source: str, coords) -> Expr:
    """Parse a DSL string against a list of coordinate names.

    The result is a DAG: equal subexpressions are one shared node.
    """
    parser = _Parser(source, coords)
    try:
        return parser.parse()
    except RecursionError:
        raise parser.error("expression nested too deeply") from None


# printer -----------------------------------------------------------------


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_NEVER = 4  # above every parent precedence: never parenthesized


def to_source(node: Expr) -> str:
    """Render a tree back to source text; parse(to_source(e)) == e."""
    # per node: its text and the least parent precedence that must
    # parenthesize it
    done = {}

    def wrap(child, parent_prec):
        text, wrap_at = done[id(child)]
        return f"({text})" if parent_prec >= wrap_at else text

    for n in _post_order(node):
        if isinstance(n, Const):
            negative = math.copysign(1.0, n.value) < 0
            done[id(n)] = (repr(n.value), 0 if negative else _NEVER)
        elif isinstance(n, Var):
            done[id(n)] = (n.name, _NEVER)
        elif isinstance(n, Neg) and isinstance(n.arg, Const):
            # "-1.5" would parse back as the constant -1.5
            done[id(n)] = (f"-({repr(n.arg.value)})", 3)
        elif isinstance(n, Neg):
            done[id(n)] = (f"-{wrap(n.arg, 3)}", 3)
        elif isinstance(n, BinOp):
            prec = _PREC[n.op]
            # left associativity: right subtree needs strictly higher precedence
            done[id(n)] = (f"{wrap(n.left, prec - 1)} {n.op} {wrap(n.right, prec)}",
                           prec)
        elif isinstance(n, PowC):
            done[id(n)] = (f"pow({wrap(n.base, 0)}, {repr(n.exponent)})", _NEVER)
        elif isinstance(n, Call):
            done[id(n)] = (f"{n.func}({wrap(n.arg, 0)})", _NEVER)
        else:
            raise TypeError(f"not an expression node: {n!r}")
    return wrap(node, 0)


def free_variables(node: Expr) -> set[str]:
    return {name for code, _, name, _ in _tape(node) if code == _VAR}


# evaluation ---------------------------------------------------------------

# A tape is a tuple of steps (code, node, i, j), one per distinct node in
# post-order; step k leaves its value in slot k.  i and j are the slots
# of the operands, except: _CONST keeps the value in i, _VAR the name in
# i, _POW the exponent in j, and _CALL the scalar function in j.  The
# root's own step holds None for its node: the root caches its tape, so
# the root there would make a reference cycle, and a dropped expression
# would wait for the cycle collector instead of being freed at once.
_CONST, _VAR, _NEG, _ADD, _SUB, _MUL, _DIV, _POW, _CALL = range(9)
_BINARY = {"+": _ADD, "-": _SUB, "*": _MUL, "/": _DIV}
_SCALAR = {"sin": s_sin, "cos": s_cos, "exp": s_exp, "log": s_log,
           "sqrt": s_sqrt}


def _compile(root) -> tuple:
    slot = {}
    steps = []
    for node in _post_order(root):
        slot[id(node)] = len(steps)
        at = None if node is root else node
        if isinstance(node, BinOp):
            step = (_BINARY[node.op], at,
                    slot[id(node.left)], slot[id(node.right)])
        elif isinstance(node, Const):
            step = (_CONST, at, node.value, None)
        elif isinstance(node, Var):
            step = (_VAR, at, node.name, None)
        elif isinstance(node, Neg):
            step = (_NEG, at, slot[id(node.arg)], None)
        elif isinstance(node, PowC):
            step = (_POW, at, slot[id(node.base)], node.exponent)
        elif isinstance(node, Call):
            step = (_CALL, at, slot[id(node.arg)], _SCALAR[node.func])
        else:
            raise TypeError(f"not an expression node: {node!r}")
        steps.append(step)
    return tuple(steps)


def _tape(root) -> tuple:
    """The tape of root, compiled on first use and cached on the root."""
    tape = getattr(root, "_tape", None)
    if tape is None:
        tape = _compile(root)
        object.__setattr__(root, "_tape", tape)
    return tape


def _fold(root, combine):
    """combine(key) of root, a node's key being its tape code and fields
    with each child replaced by combine(child's key): with hash, a
    structural hash; with a numbering of keys, ids that are equal
    exactly when the subtrees are (floats by value: 0.0 == -0.0)."""
    out = []
    for code, _, i, j in _tape(root):
        if code in (_CONST, _VAR):
            key = (code, i)
        elif code in (_NEG, _POW, _CALL):
            key = (code, out[i], j)
        else:
            key = (code, out[i], out[j])
        out.append(combine(key))
    return out[-1]


def evaluate(node: Expr, env: dict):
    """Evaluate an expression in an environment mapping names to floats,
    arrays of floats over batch axes, or Jets, by one pass over its
    tape."""
    vals = []
    push = vals.append
    for code, at, i, j in _tape(node):
        if code == _VAR:
            try:
                push(env[i])
            except KeyError:
                raise EvalDomainError(f"unbound variable '{i}'",
                                      node if at is None else at) from None
            continue
        try:
            if code == _MUL:
                push(vals[i] * vals[j])
            elif code == _ADD:
                push(vals[i] + vals[j])
            elif code == _SUB:
                push(vals[i] - vals[j])
            elif code == _CONST:
                push(i)
            elif code == _NEG:
                push(-vals[i])
            elif code == _POW:
                push(s_pow(vals[i], j))
            elif code == _CALL:
                push(j(vals[i]))
            else:
                push(divide(vals[i], vals[j]))
        except JetDomainError as err:
            raise EvalDomainError(str(err),
                                  node if at is None else at) from None
    return vals[-1]


def _require_finite(values, node):
    """EvalDomainError at the first point whose entries values[:, point]
    (values of shape (k, ...)) are not all finite, naming the first
    non-finite entry there."""
    if np.isfinite(values).all():
        return
    flat = values.reshape(len(values), -1)
    bad = ~np.isfinite(flat)
    point = first_failure(bad.any(0))
    entry = float(flat[first_failure(bad[:, point]), point])
    raise EvalDomainError(f"non-finite result {entry!r}", node)


def eval_jet(node: Expr, coords, base, order: int) -> Jet:
    """Jets of the expression at base points (m, ...), truncated at
    order; one base point (m,) gives a pointwise jet."""
    base = np.asarray(base, dtype=float)
    nvars = len(coords)
    env = {name: Jet.variable(k, base[k], nvars, order)
           for k, name in enumerate(coords)}
    result = evaluate(node, env)
    if not isinstance(result, Jet):
        result = Jet.constant(result, nvars, order, base.shape[1:])
    _require_finite(result.coeffs, node)
    return result


def eval_value(node: Expr, coords, point):
    """Values at points (m, ...): a float for one point (m,), else an
    array over the trailing axes."""
    point = np.asarray(point, dtype=float)
    batch = point.shape[1:]
    # floats for one point (the fastest scalars), arrays for a batch
    env = dict(zip(coords, point if batch else point.tolist()))
    result = evaluate(node, env)
    if not batch:
        result = float(result)
        if not math.isfinite(result):
            raise EvalDomainError(f"non-finite result {result!r}", node)
        return result
    result = np.broadcast_to(result, batch)  # a constant expression
    _require_finite(result[None], node)
    return np.array(result, dtype=float)


def is_constant(node: Expr) -> bool:
    return not free_variables(node)
