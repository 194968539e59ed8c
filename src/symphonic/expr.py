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
which is how the fractional powers such as pow(t, 4/3) are written; a
constant e whose evaluation fails, such as 1/0, is a syntax error that
names the failure at e's column.
A minus sign directly before a number that takes no '^' is part of the
number: "-1.5" is the constant -1.5, while "-2^2" is -(2^2) = -4.  The
printer writes a negated constant as "-(c)", so
parse(to_source(e)) == e holds for negative constants and -0.0 too.

Tokens are scanned on demand: one compiled regular expression skips
the blanks at an offset and matches the token after them, a name (a
word character that is not a decimal digit, then word characters), a
number or one operator or punctuation mark.  Numbers take decimal
digits only (``str.isdecimal``: '٣' is a digit, while '²' is a name
character).  Blanks are ' ', tab, '\r' and '\n'.  A character that no
token takes is reported before any other error: a parse that succeeds
has scanned every character (a repeated group's in its first reading),
so only a parse that fails looks for one, over the whole source.  Each token keeps its offset, and lines and
columns (only '\n' ends a line, and every character is one column) are
worked out from it when an error is raised, so a parse that succeeds
never computes one.

The parser hash-conses: within one parse every node is built once per
class and fields, with children keyed by identity and floats by
``repr`` (so 0.0 and -0.0 stay distinct), and a repeated subexpression
comes back as one shared object.  ``parse`` therefore returns a DAG,
which matters for machine-generated input: a sympy-derived field of
131k tree nodes has under 7k distinct ones.  It also reads each
distinct group, a parenthesized expression or a call with its
function name, once per parse: a group whose exact text it has parsed
before is its node then, and the scan resumes after its ')'.  The text
alone decides a group's parse, since no lookahead reaches past its
')', so the DAG is the one a full reading gives.  On the benchmark's
two curved-target specs (315k tokens) this scans 28k tokens.

Nesting is limited to MAX_NESTING levels, counting each parenthesized
group, call and unary minus that encloses a token: the opener one
level too deep is a syntax error "expression nested too deeply" at its
own column, so the column does not depend on the caller's stack depth.
The limit keeps the parser's recursion (at most five frames per level)
well inside Python's default limit of 1000; should a caller leave less
room than that, Python's RecursionError is reported with the same
message at the current token.

Evaluation runs programs.  ``program`` compiles a list of expressions
(the components of a map or a field, a chart's metric entries) into one
tape by an iterative post-order walk of each root in turn: root 0's
nodes, children first and left before right, then each later root's new
nodes.  The tape holds each structurally distinct node once across all
roots, keyed as the parser interns nodes (children by slot, floats by
repr, so 0.0 and -0.0 stay apart), so a subexpression that several
roots share, also across separate parses, is evaluated once.  A single
expression is the program of one.  A program is a plain value that its
caller holds: ``program`` compiles on every call, an expression holds
no program, and an owner that evaluates the same expressions
repeatedly (a map, a field, a chart's metric) keeps its own.
``eval_jet`` and ``eval_value`` take a program and give the (k,) jet
array or the values (k, ...) of its k roots from one loop over the
tape, doing the same float or jet operations, in the same order, as
a recursive walk of each tree, so results are bit-identical to
evaluating the roots one by one.  The loop finishes each root, with its
finiteness check, before it runs the next root's new nodes, so a
failure is the one that evaluating the roots one by one raises first.
Printing and free-variable lookup walk iteratively too, so a parsed
expression of any depth can be evaluated and printed.

A pointwise jet (``eval_jet`` at one base point) is evaluated by a
level schedule of the program's tape instead, built on the first such
evaluation and cached on the program: one schedule spans all roots.  A
node's level is one more than its operands' highest; the nodes of one
level that share an operation (and the kinds of their operands, the
exponent or the function) are one group, evaluated by one call of the
jet arithmetic with the nodes on the jet's batch axis.  A left-deep
chain of + and - is one node whose terms are summed by ``np.cumsum``, a
sequential left fold like the chain's own adds; a chain that is a root
stays one node, and a later chain that continues it adds to its sum,
the same fold.  Three more rewrites do the tape loop's operations in
fewer groups: a jet to a whole power is the products that ``s_pow``
multiplies, which join the level's products (x*x shared by x^2, x^3 and
x^4), with ``s_pow``'s checks after the last group; the sines and the
cosines of a level are one group; and each jet denominator's
reciprocal, which ``divide`` multiplies by, is taken once.  Constant
subexpressions are evaluated once and stay floats, so every operation
takes the float or jet path the tape loop takes, and the coefficients
are bit-identical to it.  The two components of a sympy-derived field
(3,264 and 3,568 nodes, depth 474) make one tape of 6,262 steps that
runs as 30 groups, where each component alone takes 30 (41 and 42
without these three rewrites).  When a domain check fails, the tape
loop runs instead, so the error names the subexpression it reaches
first, whatever level fails.

The tape loop stays where the schedule cannot pay: for points in a
batch and for plain values, where each step is already one numpy call
for every point and gathering the nodes would only add copies, and for
a program with fewer than four jet operations per group (a small one),
where a group's gather and scatter cost more than the operations it
saves.

Points carry trailing batch axes: ``eval_value`` and ``eval_jet`` take
points of shape (m, ...) (coordinate first), and one pass over the tape
gives the values or jets at every point (see ``jet``).  A single point,
shape (m,), is the batch of one through the same code and gives values
(k,) or pointwise jets.  A domain error names the first failing point's
value with the text a pointwise evaluation at that point raises, and
the failing subexpression.  A result that is not finite at some point
(an overflow, or inf - inf) raises EvalDomainError too.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .jet import (Jet, JetDomainError, _quiet, _sin_cos, _space, divide,
                  first_failure, quotient, reciprocal, s_cos, s_exp, s_log,
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


def _post_order(root, seen=None) -> list:
    """Every node under root once by identity, children before parents
    and left before right: a recursive walk with repeats dropped, and
    with the nodes whose ids are in the set seen (which the walk adds
    to)."""
    seen = set() if seen is None else seen
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

# one match per token: an operator or punctuation mark, a name or a
# number; blanks and stray characters match nothing
_TOKEN = re.compile(r"[-+*/^(),]|[^\W\d]\w*|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
# the blanks at an offset and the token after them, or "" there at the
# end of input and at a stray character
_NEXT = re.compile(r"[ \t\r\n]*(" + _TOKEN.pattern + "|)")
_BLANKS = " \t\r\n"


def _stray(source):
    """The offset of the first character of source that no token takes,
    or None."""
    rest = _TOKEN.sub(lambda m: " " * len(m[0]), source)
    at = len(rest) - len(rest.lstrip(_BLANKS))
    return at if at < len(source) else None


def _line_column(source, offset):
    """1-based line and column of source[offset]; only '\\n' ends a line."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


def _is_number(token):
    first = token[:1]
    return first.isdecimal() or first == "."


# parser ------------------------------------------------------------------

MAX_NESTING = 100  # levels of parenthesized groups, calls and unary minus

_EXPECTED = {")": "rparen", ",": "comma"}


class _Parser:
    """Recursive descent over tokens scanned on demand.  tok is the
    current token and m its match: m.start(1) is the token's offset and
    m.end() the offset after it.  tok is "" at the end of input, and at a
    stray character, which the first error reports instead of itself."""

    def __init__(self, source, coords):
        self.source = source
        self.scan = _NEXT.match
        self.read(0)
        self.coords = set(coords)
        self.nodes = {}   # intern table: key -> the one node with that key
        self.groups = {}  # group memo: key -> [(start, end, node)]
        self.depth = 0    # open nesting levels; see MAX_NESTING

    def read(self, offset):
        """Make the token after offset the current one."""
        m = self.m = self.scan(self.source, offset)
        self.tok = m[1]

    def advance(self):
        m = self.m = self.scan(self.source, self.m.end())
        self.tok = m[1]

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

    def const(self, value, m):
        """The constant of the number token of match m; a literal that
        overflows to infinity is a syntax error there."""
        if not math.isfinite(value):
            raise self.error("number must be finite", m.start(1))
        return self.node((Const, repr(value)), Const, value)

    def powc(self, base, exponent):
        return self.node((PowC, id(base), repr(exponent)), PowC, base, exponent)

    def recall(self, start):
        """(key, node) for the group (a parenthesized expression or a
        call) at offset start: key is the hash of its text up to its
        first ')', and node is its parse when the same text was parsed
        before, with the token after the group made current, else None.

        A group's text is balanced, so wherever it starts the source, it
        is the whole group there; and the text alone decides its parse,
        since no lookahead reaches past its ')'.
        """
        source = self.source
        key = hash(source[start:source.find(")", start) + 1])
        for first, end, node in self.groups.get(key, ()):
            if source.startswith(source[first:end], start):
                self.read(start + end - first)
                return key, node
        return key, None

    def remember(self, key, start, end, node):
        """Store node as the parse of the group source[start:end], under
        the key recall gave; by offsets, so the memo holds no text."""
        self.groups.setdefault(key, []).append((start, end, node))
        return node

    def where(self, at):
        """Line and column of offset at, for an error raised there.  Only
        an error needs them, and a stray character anywhere in the
        source is the error to report first: it raises that instead."""
        stray = _stray(self.source)
        if stray is not None:
            raise SyntaxErrorAt(f"unexpected character {self.source[stray]!r}",
                                *_line_column(self.source, stray)) from None
        return _line_column(self.source, at)

    def error(self, message, at=None):
        """SyntaxErrorAt offset at, by default the current token's."""
        return SyntaxErrorAt(message,
                             *self.where(self.m.start(1) if at is None else at))

    def expect(self, token):
        """Read token; returns the offset after it."""
        if self.tok != token:
            raise self.error(f"expected {_EXPECTED[token]!r}, "
                             f"found {self.tok or 'end of input'!r}")
        end = self.m.end()
        self.advance()
        return end

    def parse(self):
        e = self.expr()
        # "" short of the end is a stray character, which error() reports
        if self.tok or self.m.end() < len(self.source):
            raise self.error(f"unexpected trailing input {self.tok!r}")
        return e

    def deeper(self, at):
        """Open one more nesting level at offset at."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("expression nested too deeply", at)

    def expr(self):
        left = self.term()
        while self.tok in ("+", "-"):
            op = self.tok
            self.advance()
            left = self.binop(op, left, self.term())
        return left

    def term(self):
        left = self.factor()
        while self.tok in ("*", "/"):
            op = self.tok
            self.advance()
            left = self.binop(op, left, self.factor())
        return left

    def factor(self):
        if self.tok == "-":
            at = self.m.start(1)
            self.advance()
            m = self.m
            if _is_number(m[1]):
                after = self.scan(self.source, m.end())
                if after[1] != "^":
                    # a negative literal: one constant, not Neg(Const)
                    self.m, self.tok = after, after[1]
                    return self.const(-float(m[1]), m)
            self.deeper(at)
            arg = self.factor()
            self.depth -= 1
            return self.node((Neg, id(arg)), Neg, arg)
        base = self.atom()
        if self.tok == "^":
            self.advance()
            base = self.powc(base, self.exponent_number())
            if self.tok == "^":
                raise self.error("chained '^' is not allowed, use pow()")
        return base

    def exponent_number(self):
        at = self.m.start(1)  # the exponent's first token
        sign = 1.0
        tok = self.tok
        if tok in ("+", "-"):
            self.advance()
            if tok == "-":
                sign = -1.0
            tok = self.tok
        if not _is_number(tok):
            raise self.error("exponent must be a numeric constant")
        self.advance()
        value = float(tok)
        # integer fraction exponent: a/b binds to the exponent
        if self.tok == "/" and tok.isdecimal():
            den = self.scan(self.source, self.m.end())
            if den[1].isdecimal():
                if float(den[1]) == 0.0:
                    raise self.error("exponent fraction has a zero denominator",
                                     den.start(1))
                self.read(den.end())
                value = value / float(den[1])
        if not math.isfinite(value):
            raise self.error("exponent must be finite", at)
        return sign * value

    def atom(self):
        tok, m = self.tok, self.m
        if tok == "(":
            at = m.start(1)
            key, node = self.recall(at)
            if node is None:
                self.deeper(at)
                self.advance()
                node = self.expr()
                self.remember(key, at, self.expect(")"), node)
                self.depth -= 1
            return node
        self.advance()
        if _is_number(tok):
            return self.const(float(tok), m)
        if tok[:1].isalnum() or tok[:1] == "_":
            if self.tok == "(":
                return self.call(tok, m.start(1))
            if tok not in self.coords:
                raise UndeclaredVariable(tok, *self.where(m.start(1)))
            return self.node((Var, tok), Var, tok)
        raise self.error(f"unexpected token {tok or 'end of input'!r}",
                         m.start(1))

    def call(self, name, at):
        """The call of name, whose token is at offset at; the current
        token is its '('."""
        key, node = self.recall(at)
        if node is not None:
            return node
        if name not in FUNCTIONS:
            raise self.error(f"unknown function '{name}'", at)
        self.deeper(at)
        self.advance()  # its '('
        first = self.expr()
        if name != "pow":
            end = self.expect(")")
            node = self.node((Call, name, id(first)), Call, name, first)
        else:
            self.expect(",")
            at_exponent = self.m.start(1)
            second = self.expr()
            end = self.expect(")")
            try:
                exponent = float(_evaluate(second, {}))
            except EvalDomainError as err:
                if free_variables(second):
                    raise self.error("pow() exponent must be a constant "
                                     "expression", at) from None
                # a constant exponent that fails names its failure
                raise self.error(f"pow() exponent: {err}",
                                 at_exponent) from None
            if not math.isfinite(exponent):
                raise self.error("exponent must be finite", at_exponent)
            node = self.powc(first, exponent)
        self.depth -= 1
        return self.remember(key, at, end, node)


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
    return {name for code, _, name, _ in program([node]).steps
            if code == _VAR}


# evaluation ---------------------------------------------------------------

# A program's tape is a tuple of steps (code, node, i, j), one per
# structurally distinct node of its roots, in post-order: root 0's
# nodes, then each later root's new ones.  Step k leaves its value in
# slot k.  i and j are the slots of the operands, except: _CONST keeps
# the value in i, _VAR the name in i, _POW the exponent in j, and _CALL
# the scalar function in j.  node is the step's own node, which an
# error names; a node holds no program, so a program keeps its roots
# alive exactly as long as it lives itself.
_CONST, _VAR, _NEG, _ADD, _SUB, _MUL, _DIV, _POW, _CALL = range(9)
_BINARY = {"+": _ADD, "-": _SUB, "*": _MUL, "/": _DIV}
_SCALAR = {"sin": s_sin, "cos": s_cos, "exp": s_exp, "log": s_log,
           "sqrt": s_sqrt}


class Program:
    """A list of expressions compiled to one tape (see ``program``): its
    steps, the roots' slots in order, and its level schedule, built on
    the first pointwise jet evaluation."""

    __slots__ = ("steps", "roots", "_schedule")

    def __init__(self, steps, roots):
        self.steps = steps
        self.roots = roots
        self._schedule = None    # None until built, False for none


def program(roots) -> Program:
    """The program of a list of expressions, compiled anew on each call.
    Each structurally distinct node is one step across all roots, keyed
    as the parser interns nodes: children by slot and floats by repr, so
    0.0 and -0.0 stay apart."""
    seen, slot, interned, steps = set(), {}, {}, []
    for root in roots:
        for node in _post_order(root, seen):
            if isinstance(node, BinOp):
                code = _BINARY[node.op]
                i, j = slot[id(node.left)], slot[id(node.right)]
                key = (code, i, j)
            elif isinstance(node, Const):
                code, i, j = _CONST, node.value, None
                key = (code, repr(i))
            elif isinstance(node, Var):
                code, i, j = _VAR, node.name, None
                key = (code, i)
            elif isinstance(node, Neg):
                code, i, j = _NEG, slot[id(node.arg)], None
                key = (code, i)
            elif isinstance(node, PowC):
                code, i, j = _POW, slot[id(node.base)], node.exponent
                key = (code, i, repr(j))
            elif isinstance(node, Call):
                code, i, j = _CALL, slot[id(node.arg)], _SCALAR[node.func]
                key = (code, i, node.func)
            else:
                raise TypeError(f"not an expression node: {node!r}")
            k = slot[id(node)] = interned.setdefault(key, len(steps))
            if k == len(steps):
                steps.append((code, node, i, j))
    return Program(tuple(steps), tuple(slot[id(root)] for root in roots))


def _fold(root, combine):
    """combine(key) of root, a node's key being its tape code and fields
    with each child replaced by combine(child's key): with hash, a
    structural hash; with a numbering of keys, ids that are equal
    exactly when the subtrees are (floats by value: 0.0 == -0.0)."""
    out = []
    for code, _, i, j in program([root]).steps:
        if code in (_CONST, _VAR):
            key = (code, i)
        elif code in (_NEG, _POW, _CALL):
            key = (code, out[i], j)
        else:
            key = (code, out[i], out[j])
        out.append(combine(key))
    return out[-1]


def _run(steps, env, vals):
    """Append the value of each of steps to vals, the values of the
    steps before them; a failure names the step's node."""
    push = vals.append
    for code, node, i, j in steps:
        if code == _VAR:
            try:
                push(env[i])
            except KeyError:
                raise EvalDomainError(f"unbound variable '{i}'",
                                      node) from None
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
            raise EvalDomainError(str(err), node) from None
    return vals


def _evaluate(root, env):
    """The value of root in env (names bound to floats, arrays over
    batch axes or jets) by the tape loop, with no check that it is
    finite: how the parser folds a constant exponent."""
    return _run(program([root]).steps, env, [])[-1]


def _tape_loop(prog, env, finish):
    """finish(value, node) of each root of prog in env, in order, by the
    tape loop.  A root's new steps run just before it is finished, so a
    failure, a non-finite result included, is the one that evaluating
    the roots one by one raises first."""
    vals = []
    out = []
    for r in prog.roots:
        _run(prog.steps[len(vals):r + 1], env, vals)
        out.append(finish(vals[r], prog.steps[r][1]))
    return out


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


def eval_jet(prog: Program, coords, base, order: int) -> Jet:
    """The (k,) jet array of the k roots of prog at base points (m, ...),
    truncated at order; at one base point (m,) by the level schedule
    when the program has one."""
    base = np.asarray(base, dtype=float)
    batch = base.shape[1:]
    nvars = len(coords)
    env = {name: Jet.variable(k, base[k], nvars, order)
           for k, name in enumerate(coords)}

    def finish(result, node):
        if not isinstance(result, Jet):  # a constant root
            result = Jet.constant(result, nvars, order, batch)
        _require_finite(result.coeffs, node)
        return result.coeffs

    with _quiet():
        schedule = None if batch else _schedule(prog)
        coeffs = _run_schedule(schedule, env) if schedule else None
        if coeffs is None:
            coeffs = np.stack(_tape_loop(prog, env, finish), axis=1)
        elif not np.isfinite(coeffs).all():
            for k, r in enumerate(prog.roots):
                _require_finite(coeffs[:, k], prog.steps[r][1])
    return Jet(_space(nvars, order), coeffs)


def eval_value(prog: Program, coords, point) -> np.ndarray:
    """The values (k, ...) of the k roots of prog at points (m, ...),
    shape (k,) at one point (m,)."""
    point = np.asarray(point, dtype=float)
    batch = point.shape[1:]
    # floats for one point (the fastest scalars), arrays for a batch
    env = dict(zip(coords, point if batch else point.tolist()))

    def finish(result, node):
        if not batch:
            result = float(result)
            if not math.isfinite(result):
                raise EvalDomainError(f"non-finite result {result!r}", node)
            return result
        result = np.broadcast_to(result, batch)  # a constant root
        _require_finite(result[None], node)
        return result

    with _quiet():
        values = _tape_loop(prog, env, finish)
    return np.array(values, dtype=float)


# the level schedule --------------------------------------------------------
#
# A schedule runs on one coefficient array (size, columns): a column per
# value that a group or the roots read, and a last, padding column.  The
# column of a constant subexpression holds (value, -0.0, ...), and the
# padding column is all -0.0, so that adding either to a jet changes its
# constant term alone (x + -0.0 == x, bit for bit, also for x = 0.0 and
# -0.0).
#
# A group (code, arg, out, i, j) evaluates the nodes of the slice out
# of columns, whose operands are in columns i and j, by one call of the
# jet arithmetic with the nodes on the batch axis.  arg is the exponent
# (_POW), the scalar function (_CALL) or, for _MUL and _DIV, whether
# each operand is a jet; a constant operand is read as a float array of
# its values, so it takes the float path the tape loop takes.  A _CHAIN
# group sums left-deep +/- chains: i are their terms (length, chains),
# padded with the padding column, j the terms' signs, and arg the flat
# positions in i of negated constants, whose -0.0 entries the sign must
# not flip.  A _TRIG group takes the sines and the cosines of a level,
# j marking the cosines.  A _RECIP group takes the reciprocals of jet
# denominators, each once, and a _DIV group by a jet reads, as j, the
# denominators' columns and their reciprocals'; jet.divide multiplies
# by the same reciprocal.  A jet to a whole power is the products that
# s_pow multiplies, which join the _MUL groups; s_pow's checks on the
# bases run after the groups.
_CHAIN = 9
_TRIG = 10
_RECIP = 11

# The highest whole exponent whose power the schedule expands into its
# products (a few levels); a higher one stays a _POW group.
_MAX_EXPANDED = 64

# A group costs a gather, an operation and a scatter on the batch of its
# nodes, about what three to four of the tape loop's operations cost on
# one node (2-variable order-4 jets: break-even near 3 operations per
# group); with fewer operations per group the tape loop is faster.
_MIN_OPS_PER_GROUP = 4


class _Schedule(NamedTuple):
    columns: int
    values: np.ndarray     # the constant subexpressions' values
    variables: tuple       # (name, column) pairs
    groups: tuple          # in order of level
    powers: tuple          # (exponent, the bases' columns) to check
    roots: np.ndarray      # the roots' columns
    constant: np.ndarray   # the positions in roots of constant roots
    ops: int               # the tape loop's jet operations


def _schedule(prog):
    """The level schedule of prog, built on first use and cached on it;
    None when the tape loop evaluates prog: no root depends on a
    variable, a constant subexpression fails, or there are too few
    operations per group."""
    schedule = prog._schedule
    if schedule is None:
        schedule = _build_schedule(prog)
        if (schedule and schedule.ops
                < _MIN_OPS_PER_GROUP * len(schedule.groups)):
            schedule = False
        prog._schedule = schedule
    return schedule or None


def _build_schedule(prog):
    """The schedule of a program, or False when there is none."""
    tape = prog.steps
    n = len(tape)
    jet = [False] * n   # does the step depend on a variable?
    uses = [0] * n
    for r in prog.roots:
        uses[r] += 1    # a root's own column is read: no chain absorbs it
    consts, sub, variables = [], [], []
    for k, (code, at, i, j) in enumerate(tape):
        if code == _VAR:
            jet[k] = True
            variables.append((i, k))
            continue
        if code in (_NEG, _POW, _CALL):
            jet[k] = jet[i]
            uses[i] += 1
        elif code != _CONST:
            jet[k] = jet[i] or jet[j]
            uses[i] += 1
            uses[j] += 1
        if not jet[k]:
            consts.append(k)
            sub.append((code, at, i, j))
    if not any(jet[r] for r in prog.roots):
        return False
    # the constant subexpressions, evaluated once: they make a tape of
    # their own, and one that fails fails at every evaluation
    renumber = {k: m for m, k in enumerate(consts)}
    for m, (code, at, i, j) in enumerate(sub):
        if code in (_NEG, _POW, _CALL):
            sub[m] = (code, at, renumber[i], j)
        elif code != _CONST:
            sub[m] = (code, at, renumber[i], renumber[j])
    try:
        values = _run(sub, {}, [])
    except EvalDomainError:
        return False
    # A node's level is one more than its operands' highest (variables
    # and constants are level 0), and the nodes of one level and
    # operation (with their kinds of operand, exponent or function) make
    # a group.  A jet +/- node whose left operand is a jet +/- node used
    # nowhere else takes over that node's chain of terms.  Nodes are
    # numbered as on the tape, the padding column n, then the products
    # of powers and the reciprocals, each added once.
    level = [0] * (n + 1)
    jet.append(False)
    expanded = {}   # a power's step -> the product that is its value
    products = {}   # (left, right) -> node
    inverses = {}   # a jet denominator -> the node of its reciprocal
    powers = {}     # exponent -> the bases of its expanded powers
    chains = {}
    groups = {}

    def add(key, arg, k, i, j):
        group = groups.get(key)
        if group is None:
            group = groups[key] = (arg, [], [], [])
        group[1].append(k)
        group[2].append(i)
        group[3].append(j)

    def product(i, j):
        if (i, j) not in products:
            k = products[i, j] = len(level)
            level.append(1 + max(level[i], level[j]))
            jet.append(True)
            add((level[k], _MUL, (True, True)), (True, True), k, i, j)
        return products[i, j]

    def inverse(j):
        if j not in inverses:
            k = inverses[j] = len(level)
            level.append(1 + level[j])
            jet.append(True)
            add((level[k], _RECIP, None), None, k, j, None)
        return inverses[j]

    for k, (code, _, i, j) in enumerate(tape):
        if not jet[k] or code == _VAR:
            continue
        i = expanded.get(i, i)
        if code in (_ADD, _SUB, _MUL, _DIV):
            j = expanded.get(j, j)
        if code == _ADD or code == _SUB:
            if i in chains and uses[i] == 1:
                terms, signs = chains.pop(i)
                level[k] = max(level[i], 1 + level[j])
            else:
                terms, signs = [i], [1.0]
                level[k] = 1 + max(level[i], level[j])
            terms.append(j)
            signs.append(1.0 if code == _ADD else -1.0)
            chains[k] = (terms, signs)
            continue
        if code == _POW and 2 <= j <= _MAX_EXPANDED and j.is_integer():
            out, acc, e = None, i, int(j)
            while e:  # s_pow's order of products
                if e & 1:
                    out = acc if out is None else product(out, acc)
                e >>= 1
                if e:
                    acc = product(acc, acc)
            expanded[k] = out
            powers.setdefault(j, []).append(i)
            continue
        if code == _CALL and j in (s_sin, s_cos):  # one group for both
            level[k] = 1 + level[i]
            add((level[k], _TRIG, None), None, k, i, j is s_cos)
            continue
        if code == _MUL or code == _DIV:
            level[k] = 1 + max(level[i], level[j])
            if code == _MUL and not jet[i]:
                i, j = j, i  # c * jet is jet * c, bit for bit
            arg = (jet[i], jet[j])
            if code == _DIV and jet[j]:
                j = (j, inverse(j))
            key = (level[k], code, arg)
        else:
            level[k] = 1 + level[i]
            arg, j = j, 0
            # repr keeps the exponents 0.0 and -0.0 apart
            key = (level[k], code, repr(arg) if code == _POW else arg)
        add(key, arg, k, i, j)
    for k, (terms, signs) in chains.items():
        add((level[k], _CHAIN, None), None, k, terms, signs)
    # The groups by level, a level's reciprocals first.  Columns: the
    # constants, then the variables, then each group's nodes in order,
    # so that a group writes one slice; a chain's absorbed nodes and an
    # expanded power's step get none, and the padding column comes last.
    keys = sorted(groups, key=lambda key: (key[0], key[1] != _RECIP))
    order = consts + [k for _, k in variables]
    for key in keys:
        order += groups[key][1]
    col = np.full(len(level), len(order), dtype=np.intp)
    col[order] = np.arange(len(order))
    constant = np.zeros(len(order) + 1, dtype=bool)
    constant[:len(consts)] = True
    steps = []
    start = len(consts) + len(variables)
    for key in keys:
        code = key[1]
        arg, out, i, j = groups[key]
        if code == _CHAIN:  # terms (length, chains), padded
            length = max(map(len, i))
            i = col[np.array([t + [n] * (length - len(t)) for t in i],
                             dtype=np.intp).T]
            j = np.array([sign + [1.0] * (length - len(sign))
                          for sign in j]).T
            negated = np.flatnonzero(constant[i] & (j < 0))
            arg = negated if negated.size else None
        elif code == _TRIG:
            i, j = col[i], np.array(j)
        elif code == _DIV and arg[1]:  # (denominators, their reciprocals)
            i, j = col[i], tuple(col[list(dens)] for dens in zip(*j))
        else:
            i, j = col[i], col[j] if code != _RECIP else None
        steps.append((code, arg, slice(start, start + len(out)), i, j))
        start += len(out)
    roots = col[[expanded.get(r, r) for r in prog.roots]]
    return _Schedule(len(order) + 1, np.array(values, dtype=float),
                     tuple((name, col[k]) for name, k in variables),
                     tuple(steps),
                     tuple((e, col[b]) for e, b in powers.items()),
                     roots, np.flatnonzero(constant[roots]),
                     n - len(consts) - len(variables))


def _run_schedule(schedule, env):
    """The coefficients (size, k) of the k roots' pointwise jets by a
    schedule in env (variables bound to pointwise jets of one space), or
    None when the tape loop must evaluate it: it reads a variable env
    does not bind, or a domain check fails (the tape loop then raises
    the failure it reaches first, as it does without a schedule)."""
    columns, values, variables, groups, powers, roots, constant, _ = schedule
    if any(name not in env for name, _ in variables):
        return None
    space = env[variables[0][0]].space
    c = np.full((space.size, columns), -0.0)
    c[0, :len(values)] = values
    for name, k in variables:
        c[:, k] = env[name].coeffs
    try:
        for code, arg, out, i, j in groups:
            if code == _CHAIN:
                # np.cumsum is a sequential left fold: the chain's adds
                terms = c.take(i, axis=1) * j
                if arg is not None:
                    terms[1:].reshape(space.size - 1, -1)[:, arg] = -0.0
                c[:, out] = np.cumsum(terms, axis=1)[:, -1]
                continue
            if code == _RECIP:
                result = reciprocal(Jet(space, c.take(i, axis=1)))
            elif code in (_MUL, _DIV):
                x = Jet(space, c.take(i, axis=1)) if arg[0] else c[0, i]
                if code == _DIV and arg[1]:
                    den, inverse = j
                    result = quotient(x, c[0, den],
                                      Jet(space, c.take(inverse, axis=1)))
                else:
                    y = Jet(space, c.take(j, axis=1)) if arg[1] else c[0, j]
                    result = x * y if code == _MUL else divide(x, y)
            elif code == _NEG:
                result = -Jet(space, c.take(i, axis=1))
            elif code == _TRIG:
                result = _sin_cos(Jet(space, c.take(i, axis=1)), j)
            elif code == _POW:
                result = s_pow(Jet(space, c.take(i, axis=1)), arg)
            else:
                result = arg(Jet(space, c.take(i, axis=1)))
            c[:, out] = result.coeffs
        for e, bases in powers:  # s_pow's checks
            s_pow(c[0, bases], e)
    except JetDomainError:
        return None
    out = c[:, roots]
    out[1:, constant] = 0.0  # a constant root's jet, as Jet.constant's
    return out
