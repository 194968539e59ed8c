"""Arithmetic expression DSL: parsing, printing, and jet evaluation.

Grammar (EBNF):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' number)?
    atom   := number | ident | func '(' expr (',' expr)? ')' | '(' expr ')'
    func   := sin | cos | exp | log | sqrt | pow
    number := decimal, optionally scientific; in exponent position an
              integer fraction 'a/b' is also accepted

Exponents are real constants.  ``pow(base, e)`` accepts any constant
subexpression as e (it is folded at parse time), which is how the
fractional powers such as pow(t, 4/3) are written.  A minus sign
directly before a number that takes no '^' is part of the number: "-1.5"
is the constant -1.5, while "-2^2" is -(2^2) = -4.  The printer writes
a negated constant as "-(c)", so parse(to_source(e)) == e holds for
negative constants and -0.0 too.

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

import math
from dataclasses import dataclass

import numpy as np

from .jet import (Jet, JetDomainError, first_failure, s_cos, s_exp, s_log,
                  s_pow, s_sin, s_sqrt)

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


@dataclass(frozen=True)
class _Token:
    kind: str  # num ident op lparen rparen comma end
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    while k < n and source[k].isdigit():
                        k += 1
                    j = k
            tokens.append(_Token("num", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, line, start_col))
        elif ch == "(":
            tokens.append(_Token("lparen", ch, line, start_col))
        elif ch == ")":
            tokens.append(_Token("rparen", ch, line, start_col))
        elif ch == ",":
            tokens.append(_Token("comma", ch, line, start_col))
        else:
            raise SyntaxErrorAt(f"unexpected character {ch!r}", line, start_col)
        i += 1
        col += 1
    tokens.append(_Token("end", "", line, col))
    return tokens


# parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens, coords):
        self.tokens = tokens
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
        return self.node((Const, repr(value)), Const, value)

    def powc(self, base, exponent):
        return self.node((PowC, id(base), repr(exponent)), PowC, base, exponent)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, text=None):
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise SyntaxErrorAt(f"expected {want!r}, found {tok.text or 'end of input'!r}",
                                tok.line, tok.column)
        return self.advance()

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise SyntaxErrorAt(f"unexpected trailing input {tok.text!r}",
                                tok.line, tok.column)
        return e

    def expr(self):
        left = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            left = self.binop(op, left, self.term())
        return left

    def term(self):
        left = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            left = self.binop(op, left, self.factor())
        return left

    def factor(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            num, after = self.peek(), self.tokens[self.pos + 1]
            if num.kind == "num" and not (after.kind == "op"
                                          and after.text == "^"):
                # a negative literal: one constant, not Neg(Const)
                self.advance()
                return self.const(-float(num.text))
            arg = self.factor()
            return self.node((Neg, id(arg)), Neg, arg)
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            exponent = self.exponent_number()
            base = self.powc(base, exponent)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "^":
                raise SyntaxErrorAt("chained '^' is not allowed, use pow()",
                                    nxt.line, nxt.column)
        return base

    def exponent_number(self):
        sign = 1.0
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            if tok.text == "-":
                sign = -1.0
            tok = self.peek()
        if tok.kind != "num":
            raise SyntaxErrorAt("exponent must be a numeric constant",
                                tok.line, tok.column)
        self.advance()
        value = float(tok.text)
        # integer fraction exponent: a/b binds to the exponent
        nxt = self.peek()
        if (nxt.kind == "op" and nxt.text == "/"
                and self.tokens[self.pos + 1].kind == "num"
                and "." not in tok.text and "e" not in tok.text.lower()):
            den_tok = self.tokens[self.pos + 1]
            if "." not in den_tok.text and "e" not in den_tok.text.lower():
                self.advance()
                self.advance()
                value = value / float(den_tok.text)
        return sign * value

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return self.const(float(tok.text))
        if tok.kind == "lparen":
            e = self.expr()
            self.expect("rparen")
            return e
        if tok.kind == "ident":
            if self.peek().kind == "lparen":
                return self.call(tok)
            if tok.text not in self.coords:
                raise UndeclaredVariable(tok.text, tok.line, tok.column)
            return self.node((Var, tok.text), Var, tok.text)
        raise SyntaxErrorAt(f"unexpected token {tok.text or 'end of input'!r}",
                            tok.line, tok.column)

    def call(self, name_tok):
        name = name_tok.text
        if name not in FUNCTIONS:
            raise SyntaxErrorAt(f"unknown function '{name}'",
                                name_tok.line, name_tok.column)
        self.expect("lparen")
        first = self.expr()
        if name == "pow":
            self.expect("comma")
            second = self.expr()
            self.expect("rparen")
            exponent = _fold_constant(second, name_tok)
            return self.powc(first, exponent)
        self.expect("rparen")
        return self.node((Call, name, id(first)), Call, name, first)


def _fold_constant(node, tok):
    try:
        value = evaluate(node, {})
    except ExprError:
        raise SyntaxErrorAt("pow() exponent must be a constant expression",
                            tok.line, tok.column) from None
    return float(value)


def parse(source: str, coords) -> Expr:
    """Parse a DSL string against a list of coordinate names.

    The result is a DAG: equal subexpressions are one shared node.
    """
    parser = _Parser(_tokenize(source), coords)
    try:
        return parser.parse()
    except RecursionError:
        tok = parser.tokens[min(parser.pos, len(parser.tokens) - 1)]
        raise SyntaxErrorAt("expression nested too deeply",
                            tok.line, tok.column) from None


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


def _divide(a, b):
    if isinstance(b, Jet):
        return a * (1.0 / b) if not isinstance(a, Jet) else a / b
    if np.any(abs(b) < 1e-300):
        raise JetDomainError("division by zero")
    return a / b


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
                push(_divide(vals[i], vals[j]))
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
