"""Truncated multivariate Taylor-jet arithmetic, batched over points.

A jet stores the Taylor coefficients (partial derivative / alpha!) of a
scalar function at a base point, for every multi-index alpha with
|alpha| <= order.  Arithmetic on jets propagates these coefficients
exactly (up to rounding), so evaluating an expression in jet arithmetic
yields all partial derivatives up to the truncation order in one pass.

The coefficients are an array of shape (size, ...): the leading axis
runs over the multi-indices and any trailing axes are batch axes, one
jet per base point (the nodes of a mesh, a set of sample points).  One
operation then advances the jets at every point at once: the same
Taylor-mode algebra, batched over points.  A pointwise jet is the batch
of one with no trailing axes, shape (size,), and runs through the same
code.  Accessors return floats for a pointwise jet and arrays over the
batch axes otherwise.

A jet array is a jet of a tensor: its coefficients are
(size, *tensor_axes, *batch), the tensor axes before the batch axes.
The jets of a map or a field are one (n,) jet array, and compose
substitutes such an array for the n variables of an outer jet (array).
No other class is needed: +, -, value, gradient, hessian and partials
act entrywise, * by a float or by a plain array (broadcast against the
trailing axes) scales every coefficient, and einsum(subscripts,
*operands) is np.einsum over jet arrays and plain arrays alike: a
product of two jet arrays contracts their tensor axes with np.einsum
coefficient by coefficient, through the space's product table
(Taylor-mode arithmetic on whole tensors).  A kernel written once with
einsum thus runs on floats, where einsum is np.einsum, and on jets.

The elementary functions (s_sin, s_cos, s_exp, s_log, s_sqrt, s_pow
and divide) are written once for floats, arrays of floats over batch
axes and jets.  Each checks its domain (log of a non-positive value,
overflow, a NaN or infinite argument, division by a near-zero value,
...) on the value, a jet's constant term, and then returns the value or
the jet's series.  Values and jets thus fail at the same inputs with
the same message; a jet fails besides where a derivative leaves the
float range.  An integer exponent takes any finite base on both.  The
checks look at every point of the batch, and the JetDomainError names
the first point, in C order of the batch axes, at which a check fails,
with the text that point's own pointwise evaluation raises.

Orders up to 4 are supported, which is what the fourth-order operators
downstream require.  Jets of different orders combine at the minimum of
the two orders (truncation is exact for the common coefficients).
"""

from __future__ import annotations

import math
import string
from functools import lru_cache

import numpy as np

MAX_ORDER = 4


class JetDomainError(ValueError):
    """Raised when a jet operation leaves the real domain (log of a
    non-positive value, division by a vanishing constant term, ...)."""


def monomials(nvars: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All exponent multi-indices with |alpha| <= order.

    Sorted by total degree then lexicographically, so the enumeration
    for order k is a prefix of the enumeration for any order > k.
    """
    return _monomials_cached(nvars, order)


@lru_cache(maxsize=None)
def _monomials_cached(nvars, order):
    out = []
    for deg in range(order + 1):
        out.extend(_fixed_degree(nvars, deg))
    return tuple(out)


def _fixed_degree(nvars, deg):
    if nvars == 1:
        return [(deg,)]
    out = []
    for first in range(deg + 1):
        for rest in _fixed_degree(nvars - 1, deg - first):
            out.append((first,) + rest)
    return out


@lru_cache(maxsize=None)
def _space(nvars, order):
    return JetSpace(nvars, order)


def _unit(var, nvars):
    return tuple(1 if k == var else 0 for k in range(nvars))


class JetSpace:
    """Shared tables for all jets with a given (nvars, order)."""

    def __init__(self, nvars: int, order: int):
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        if nvars < 1:
            raise ValueError("jet needs at least one variable")
        self.nvars = nvars
        self.order = order
        self.monomials = monomials(nvars, order)
        self.size = len(self.monomials)
        self.index = {m: k for k, m in enumerate(self.monomials)}
        # the product table: a[i] * b[j] lands on coefficient k.  By
        # left factor i, the right factors are the first n monomials
        # (those of low enough degree), and their products land on
        # distinct k; sorted by k, the pairs of each k are one segment.
        self._by_left = []
        for a in self.monomials:
            k = [self.index[tuple(x + y for x, y in zip(a, b))]
                 for b in self.monomials if sum(a) + sum(b) <= order]
            self._by_left.append((len(k), np.asarray(k, dtype=np.intp)))
        counts = [n for n, _ in self._by_left]
        kk = np.concatenate([k for _, k in self._by_left])
        by_k = np.argsort(kk, kind="stable")
        self._mul_i = np.repeat(np.arange(self.size), counts)[by_k]
        self._mul_j = np.concatenate([np.arange(n) for n in counts])[by_k]
        self._mul_starts = np.searchsorted(kk[by_k], np.arange(self.size))
        # partial-derivative extraction tables, one per variable
        self._deriv = []
        if order >= 1:
            lower = monomials(nvars, order - 1)
            for v in range(nvars):
                src, dst, fac = [], [], []
                for d, beta in enumerate(lower):
                    alpha = tuple(b + (1 if t == v else 0) for t, b in enumerate(beta))
                    src.append(self.index[alpha])
                    dst.append(d)
                    fac.append(beta[v] + 1)
                self._deriv.append((np.asarray(src, dtype=np.intp),
                                    np.asarray(dst, dtype=np.intp),
                                    np.asarray(fac, dtype=np.float64)))
            self._grad = np.asarray([self.index[_unit(v, nvars)]
                                     for v in range(nvars)], dtype=np.intp)
        self._factorials = np.array(
            [math.prod(math.factorial(a) for a in m) for m in self.monomials]
        )
        # second-partial extraction: the index of e_i + e_j
        if order >= 2:
            units = [_unit(v, nvars) for v in range(nvars)]
            self._hess = np.array([[self.index[tuple(map(sum, zip(u, w)))]
                                    for w in units] for u in units])

    def contract(self, subscripts: str, a: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
        """Truncated product of the jet arrays with coefficients a and b,
        contracted by np.einsum(subscripts) (one coefficient of a against
        the coefficient axis of b) per left factor of the product table:
        no pair is gathered, so temporaries stay the size of the result."""
        out = None
        for i, (n, k) in enumerate(self._by_left):
            prod = np.einsum(subscripts, a[i], b[:n])
            if out is None:  # the constant term pairs with every monomial
                out = prod
            else:
                out[k] += prod
        return out

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Truncated product of two coefficient arrays (size, ...) with
        broadcastable batch axes: one gather of the pairs and one sum
        per coefficient for the whole batch."""
        return np.add.reduceat(a[self._mul_i] * b[self._mul_j],
                               self._mul_starts, axis=0)


def _scalar(v):
    """A float for a pointwise (0-d) value, else the batch array."""
    return float(v) if v.ndim == 0 else v


def first_failure(bad):
    """Flat index (C order) of the first True entry of a mask over
    batch axes, None when every entry is False."""
    bad = np.asarray(bad)
    if not bad.any():
        return None
    return int(np.flatnonzero(bad)[0])


def _not_finite(values):
    """Mask of non-finite entries (a bool for one value)."""
    if isinstance(values, float):  # numpy's float64 scalars included
        return not math.isfinite(values)
    return ~np.isfinite(values)


def _is_inf(values):
    if isinstance(values, float):
        return math.isinf(values)
    return np.isinf(values)


def _reject(values, *checks):
    """Raise JetDomainError at the first point where one of the checks
    fails.

    Each check is (bad mask over the batch, message); the message of the
    first check that fails at that point is raised, formatted with the
    point's entry of values (a message without '{!r}' ignores it)."""
    bad = checks[0][0]
    for mask, _ in checks[1:]:
        bad = bad | mask
    if not (bad.any() if isinstance(bad, np.ndarray) else bad):
        return
    k = first_failure(bad)
    value = float(np.ravel(values)[k])
    for mask, message in checks:
        if np.ravel(mask)[k]:
            raise JetDomainError(message.format(value))


def _quiet():
    """Silence numpy's floating-point warnings: overflow, division by
    zero and invalid values are detected and raised explicitly."""
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")


class Jet:
    """Truncated Taylor expansions of a scalar at one base point, or at
    every point of a batch (coefficients (size, ...))."""

    __slots__ = ("space", "coeffs")
    # numpy scalars and arrays defer arithmetic with a jet to the jet
    __array_ufunc__ = None

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    # constructors -----------------------------------------------------

    @staticmethod
    def constant(value, nvars: int, order: int, batch=()) -> "Jet":
        """The jet of a constant; value may be an array over batch."""
        sp = _space(nvars, order)
        c = np.zeros((sp.size,) + tuple(batch))
        c[0] = value
        return Jet(sp, c)

    @staticmethod
    def variable(var: int, base, nvars: int, order: int) -> "Jet":
        """The jet of coordinate var at base, a float or an array of
        base values over the batch axes."""
        if order < 1:
            raise ValueError("a variable jet needs order >= 1")
        sp = _space(nvars, order)
        base = np.asarray(base, dtype=float)
        c = np.zeros((sp.size,) + base.shape)
        c[0] = base
        c[sp.index[_unit(var, nvars)]] = 1.0
        return Jet(sp, c)

    # accessors --------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.space.nvars

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def batch(self) -> tuple:
        """Shape of the axes after the coefficient axis: the batch axes,
        () for a pointwise jet, and the tensor axes of a jet array."""
        return self.coeffs.shape[1:]

    @property
    def value(self):
        return _scalar(self.coeffs[0])

    def coefficient(self, alpha):
        """Taylor coefficient for the multi-index alpha."""
        return _scalar(self.coeffs[self.space.index[tuple(alpha)]])

    def derivative(self, alpha):
        """Partial derivative value: coefficient times alpha factorial."""
        k = self.space.index[tuple(alpha)]
        return _scalar(self.coeffs[k] * self.space._factorials[k])

    def truncate(self, order: int) -> "Jet":
        if order == self.order:
            return self
        if order > self.order:
            raise ValueError("cannot extend a jet to a higher order")
        sp = _space(self.nvars, order)
        return Jet(sp, self.coeffs[: sp.size].copy())

    def partial(self, var: int) -> "Jet":
        """Jet of the partial derivative with respect to variable var.

        The result has order one less than this jet.
        """
        d = self.partials()
        return Jet(d.space, d.coeffs[:, var])

    def partials(self) -> "Jet":
        """Jet array of the first partials, one order lower, with a new
        leading tensor axis over the variables: (nvars, ...)."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        sp = _space(self.nvars, self.order - 1)
        c = np.zeros((sp.size, self.nvars) + self.batch)
        lift = (-1,) + (1,) * len(self.batch)
        for v, (src, dst, fac) in enumerate(self.space._deriv):
            c[dst, v] = self.coeffs[src] * fac.reshape(lift)
        return Jet(sp, c)

    def gradient(self) -> np.ndarray:
        """First partials, shape (nvars, ...)."""
        if self.order < 1:
            raise ValueError("an order-0 jet has no gradient")
        return self.coeffs[self.space._grad]

    def hessian(self) -> np.ndarray:
        """Second partials, shape (nvars, nvars, ...)."""
        if self.order < 2:
            raise ValueError("a jet of order below 2 has no hessian")
        k = self.space._hess
        lift = k.shape + (1,) * len(self.batch)
        return self.coeffs[k] * self.space._factorials[k].reshape(lift)

    def __repr__(self):
        return f"Jet(order={self.order}, batch={self.batch}, value={self.value!r})"

    # arithmetic -------------------------------------------------------

    def _coerce(self, other):
        """(space, a, b): the coefficients of self and of the jet other
        at their common order, batch axes made broadcastable."""
        if other.space is self.space and other.coeffs.ndim == self.coeffs.ndim:
            return self.space, self.coeffs, other.coeffs
        if other.nvars != self.nvars:
            raise ValueError("jets over different variable counts")
        order = min(self.order, other.order)
        a = self.truncate(order).coeffs
        b = other.truncate(order).coeffs
        if a.ndim != b.ndim:  # a pointwise jet against a batch
            a = a.reshape(a.shape + (1,) * (b.ndim - a.ndim))
            b = b.reshape(b.shape + (1,) * (a.ndim - b.ndim))
        return _space(self.nvars, order), a, b

    def __add__(self, other):
        if isinstance(other, Jet):
            sp, a, b = self._coerce(other)
            return Jet(sp, a + b)
        if isinstance(other, (int, float, np.floating)):
            c = self.coeffs.copy()
            c[0] += other
            return Jet(self.space, c)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Jet):
            sp, a, b = self._coerce(other)
            return Jet(sp, a - b)
        if isinstance(other, (int, float, np.floating)):
            c = self.coeffs.copy()
            c[0] -= other
            return Jet(self.space, c)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            sp, a, b = self._coerce(other)
            return Jet(sp, sp.mul(a, b))
        if isinstance(other, (int, float, np.floating, np.ndarray)):
            return Jet(self.space, self.coeffs * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (Jet, int, float, np.floating)):
            return divide(self, other)
        return NotImplemented

    def __rtruediv__(self, other):
        return divide(other, self)

    def __pow__(self, exponent):
        return s_pow(self, exponent)


# elementary functions, one definition each for values and jets ---------
#
# A jet's derivative checks join its value checks in one _reject, so that
# a batch names its first failing point whichever check fails there.


def _series(jet: Jet, derivs: list) -> Jet:
    """Evaluate f(jet) from the derivatives of f at jet.value (floats,
    or arrays over the batch).

    Uses f(c + N) = sum_k f^(k)(c)/k! N^k with N the nilpotent part.
    """
    sp = jet.space
    nil = jet.coeffs.copy()
    nil[0] = 0.0
    out = np.zeros_like(nil)
    out[0] = derivs[0]
    power = None
    fact = 1.0
    for k in range(1, sp.order + 1):
        fact *= k
        power = nil if power is None else sp.mul(power, nil)
        out += (derivs[k] / fact) * power
    return Jet(sp, out)


def _value(x):
    """The value of x: a jet's constant term, else x itself."""
    return x.coeffs[0] if isinstance(x, Jet) else x


def _reciprocal(jet: Jet, checks) -> Jet:
    """The jet 1/jet, once the checks on its value (a caller's) and on
    the float range of the derivatives pass."""
    c = jet.coeffs[0]
    # np.power, not **: on a float64 scalar ** is C pow, which rounds
    # unlike numpy's loop, and a pointwise jet must be its batch column
    with _quiet():
        derivs = [(-1.0) ** k * math.factorial(k) / np.power(c, k + 1)
                  for k in range(jet.order + 1)]
        # the highest power is the first to overflow or underflow
        top = np.power(c, jet.order + 1)
    _reject(c, *checks,
            (_is_inf(top), "reciprocal derivatives out of float range at {!r}"),
            (_not_finite(derivs[-1]),
             "reciprocal derivatives overflow at tiny value {!r}"))
    return _series(jet, derivs)


def _division_checks(c):
    return ((_not_finite(c), "division by non-finite value {!r}"),
            (abs(c) < 1e-300, "division by near-zero value {!r}"))


def reciprocal(b: Jet) -> Jet:
    """The jet 1/b that divide multiplies by, after divide's checks."""
    return _reciprocal(b, _division_checks(b.coeffs[0]))


def quotient(a, b_value, b_inverse: Jet) -> Jet:
    """a / b for a float, array or jet a and a jet b, from b's value and
    b_inverse = reciprocal(b): a * b_inverse with the value a / b as its
    constant term, so that it agrees with the value."""
    out = a * b_inverse
    out.coeffs[0] = _value(a) / b_value
    return out


def divide(a, b):
    """a / b for floats, arrays and jets; b must be finite and at least
    1e-300 in magnitude.  A jet quotient is a * (1/b), with the value
    a / b as its constant term."""
    if isinstance(b, Jet):
        return quotient(a, b.coeffs[0], reciprocal(b))
    c = _value(b)
    checks = _division_checks(c)
    _reject(c, *checks)
    if isinstance(a, Jet):
        return Jet(a.space, a.coeffs / b)
    return a / b


def _cycle(f, df, order):
    """The derivatives f, f', -f, -f', f, ... up to order (sin, cos)."""
    table = [f, df, -f, -df]
    return [table[k % 4] for k in range(order + 1)]


def s_sin(x):
    c = _value(x)
    _reject(c, (_not_finite(c), "sin of non-finite value {!r}"))
    if not isinstance(x, Jet):
        return np.sin(c)
    return _series(x, _cycle(np.sin(c), np.cos(c), x.order))


def s_cos(x):
    c = _value(x)
    _reject(c, (_not_finite(c), "cos of non-finite value {!r}"))
    if not isinstance(x, Jet):
        return np.cos(c)
    return _series(x, _cycle(np.cos(c), -np.sin(c), x.order))


def _sin_cos(x: Jet, cos) -> Jet:
    """The jet sin(x) in the columns of the batch where the mask cos is
    False and cos(x) where it is True, each as s_sin or s_cos gives it,
    by one series for both."""
    c = x.coeffs[0]
    _reject(c, (_not_finite(c), "sin or cos of non-finite value {!r}"))
    sin, cos_c = np.sin(c), np.cos(c)
    return _series(x, _cycle(np.where(cos, cos_c, sin),
                             np.where(cos, -sin, cos_c), x.order))


def s_exp(x):
    c = _value(x)
    with _quiet():
        e = np.exp(c)
    _reject(c, (_not_finite(c), "exp of non-finite value {!r}"),
            (_is_inf(e), "exp overflows at {!r}"))
    return _series(x, [e] * (x.order + 1)) if isinstance(x, Jet) else e


def _log(jet: Jet, checks) -> Jet:
    """The jet log(jet), once the checks on its value (a caller's) and
    on the float range of the derivatives pass."""
    c = jet.coeffs[0]
    with _quiet():
        derivs = [np.log(c)]
        derivs += [(-1.0) ** (k - 1) * math.factorial(k - 1)
                   / np.power(c, k) for k in range(1, jet.order + 1)]
        # the highest power is the first to overflow or underflow
        top = np.power(c, jet.order)
    _reject(c, *checks,
            (_is_inf(top), "log derivatives out of float range at {!r}"),
            (_not_finite(derivs[-1]),
             "log derivatives overflow at tiny value {!r}"))
    return _series(jet, derivs)


def s_log(x):
    c = _value(x)
    checks = ((_not_finite(c), "log of non-finite value {!r}"),
              (c <= 0.0, "log of non-positive value {!r}"))
    if isinstance(x, Jet):
        return _log(x, checks)
    _reject(c, *checks)
    return np.log(c)


def s_sqrt(x):
    c = _value(x)
    checks = ((_not_finite(c), "sqrt of non-finite value {!r}"),
              (c <= 0.0, "sqrt of non-positive value {!r}"))
    if isinstance(x, Jet):
        return s_exp(_log(x, checks) * 0.5)
    _reject(c, *checks)
    return np.sqrt(c)


def s_pow(x, exponent):
    """x ** exponent with a constant real exponent.

    An integer exponent takes any finite base, of magnitude at least
    1e-300 when the exponent is negative; on a jet it is repeated
    multiplication of x, or of 1/x, exact for polynomials.  A
    fractional exponent needs a positive base, and on a jet goes
    through exp(exponent * log(x)).  The value must not overflow.
    """
    if isinstance(exponent, Jet):
        raise JetDomainError("exponent must be a real constant")
    e = float(exponent)
    c = _value(x)
    with _quiet():
        power = np.power(c, e)
    checks = [(_not_finite(c), "power of non-finite base {!r}")]
    if not e.is_integer():
        checks.append((c <= 0.0, "fractional power of non-positive base {!r}"))
    elif e < 0:
        checks.append((abs(c) < 1e-300,
                       "negative power of near-zero base {!r}"))
    checks.append((_is_inf(power),
                   "{!r} to the power " + repr(e) + " overflows"))
    if not isinstance(x, Jet):
        _reject(c, *checks)
        return power
    if not e.is_integer():
        return s_exp(_log(x, checks) * e)
    if e < 0:
        acc = _reciprocal(x, checks)
    else:
        _reject(c, *checks)
        acc = x
    n = abs(int(e))
    if n == 0:
        return Jet.constant(1.0, x.nvars, x.order, x.batch)
    out = None
    while n:
        if n & 1:
            out = acc if out is None else out * acc
        n >>= 1
        if n:
            acc = acc * acc
    return out


def compose(outer: Jet, inner: Jet) -> Jet:
    """Substitute the entries of an inner jet array for the variables
    of an outer jet.

    outer is a jet in n variables, or a jet array of them; inner is an
    (n,) jet array with the batch after its one tensor axis.  outer
    carries that batch after its tensor axes, or is a scalar jet
    without one.  The result is the jet (array) of the composite
    function in the inner variables, truncated at min(outer.order,
    inner.order).
    """
    if inner.coeffs.ndim < 2 or inner.coeffs.shape[1] != outer.nvars:
        raise ValueError("composition needs one inner jet per outer variable")
    batch = inner.coeffs.shape[2:]
    order = min(outer.order, inner.order)
    sp_out = _space(inner.nvars, order)
    # displacement jets (zero constant term), with power caches
    d = inner.truncate(order).coeffs.copy()
    d[0] = 0.0
    powers = []
    for a in range(outer.nvars):
        cache = [None, d[:, a]]
        for k in range(2, order + 1):
            cache.append(sp_out.mul(cache[-1], d[:, a]))
        powers.append(cache)
    tensor = outer.coeffs.shape[1:max(outer.coeffs.ndim - len(batch), 1)]
    lift = (slice(None),) + (None,) * len(tensor)  # room for the tensor axes
    out = np.zeros((sp_out.size,) + tensor + batch)
    for idx, beta in enumerate(monomials(outer.nvars, outer.order)):
        if sum(beta) > order:
            continue
        c = outer.coeffs[idx]
        if not np.any(c):
            continue
        term = None
        for a, exp_a in enumerate(beta):
            if exp_a == 0:
                continue
            p = powers[a][exp_a]
            term = p if term is None else sp_out.mul(term, p)
        if term is None:
            out[0] += c
        else:
            out += c * term[lift]
    return Jet(sp_out, out)


# contraction of jet arrays --------------------------------------------------


def einsum(subscripts: str, *operands):
    """np.einsum(subscripts, *operands) over jet arrays and plain arrays.

    subscripts name the tensor and batch axes, with an explicit output;
    a jet's coefficient axis is implicit.  The operands are contracted
    pairwise in the order np.einsum_path (greedy) picks for their tensor
    shapes: two jets at their common order through the product table
    (JetSpace.contract), a jet and a plain array linearly.  Without a
    jet operand this is exactly np.einsum.
    """
    for op in operands:  # the float path allocates nothing more
        if isinstance(op, Jet):
            break
    else:
        return np.einsum(subscripts, *operands)
    jets = tuple(isinstance(op, Jet) for op in operands)
    shapes = tuple(op.coeffs.shape[1:] if jet else np.shape(op)
                   for op, jet in zip(operands, jets))
    ops = list(operands)
    for picked, spec, kind in _einsum_plan(subscripts, shapes, jets):
        args = [ops.pop(k) for k in picked]
        if kind == "product":
            a, b = args
            if a.nvars != b.nvars:
                raise ValueError("jets over different variable counts")
            sp = a.space if a.order <= b.order else b.space
            # the lower order's table indexes a prefix of either jet
            ops.append(Jet(sp, sp.contract(spec, a.coeffs, b.coeffs)))
        elif kind == "linear":
            space = next(a.space for a in args if isinstance(a, Jet))
            ops.append(Jet(space, np.einsum(
                spec, *(a.coeffs if isinstance(a, Jet) else a for a in args))))
        else:
            ops.append(np.einsum(spec, *args))
    return ops[0]


@lru_cache(maxsize=1024)
def _einsum_plan(subscripts, shapes, jets):
    """Steps (operand positions to pop, np.einsum subscripts, kind) of
    einsum, with kind "product" (two jets), "linear" (one jet) or
    "plain"; memoized on the subscripts and the operand shapes."""
    inputs, output = subscripts.replace(" ", "").split("->")
    terms = inputs.split(",")
    # the batch axes are broadcast, so the tensor axes alone set the order
    dummies = [np.broadcast_to(0.0, shape[:len(term.replace("...", ""))])
               for term, shape in zip(terms, shapes)]
    path = np.einsum_path(subscripts, *dummies, optimize="greedy")[0][1:]
    if any(len(step) > 2 for step in path):  # nothing summed: any pairs
        path = [(0, 1)] * (len(terms) - 1)
    coeff = next(c for c in string.ascii_letters if c not in subscripts)
    jets = list(jets)
    steps = []
    for step in path:
        picked = tuple(sorted(step, reverse=True))
        ins = [terms.pop(k) for k in picked]
        kinds = [jets.pop(k) for k in picked]
        out = output
        if terms:  # keep what a later operand or the output needs
            keep = set("".join(terms) + output)
            letters = "".join(ins).replace("...", "")
            out = "".join(dict.fromkeys(c for c in letters if c in keep))
            out += "..." if any("..." in t for t in ins) else ""
        terms.append(out)
        jets.append(any(kinds))
        kind = ("plain", "linear", "product")[sum(kinds)]
        if kind == "product":  # one coefficient of the first factor
            kinds[0] = False
        if kind != "plain":
            ins = [coeff + t if j else t for t, j in zip(ins, kinds)]
            out = coeff + out
        steps.append((picked, ",".join(ins) + "->" + out, kind))
    return tuple(steps)
