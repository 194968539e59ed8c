"""Truncated multivariate Taylor-jet arithmetic.

A jet stores the Taylor coefficients (partial derivative / alpha!) of a
scalar function at a base point, for every multi-index alpha with
|alpha| <= order.  Arithmetic on jets propagates these coefficients
exactly (up to rounding), so evaluating an expression in jet arithmetic
yields all partial derivatives up to the truncation order in one pass.

Orders up to 4 are supported, which is what the fourth-order operators
downstream require.  Jets of different orders combine at the minimum of
the two orders (truncation is exact for the common coefficients).
"""

from __future__ import annotations

import math
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
        # sparse multiplication table: coeffs[k] += a[i] * b[j]
        ii, jj, kk = [], [], []
        for i, a in enumerate(self.monomials):
            for j, b in enumerate(self.monomials):
                if sum(a) + sum(b) <= order:
                    ii.append(i)
                    jj.append(j)
                    kk.append(self.index[tuple(x + y for x, y in zip(a, b))])
        self._mul_i = np.asarray(ii, dtype=np.intp)
        self._mul_j = np.asarray(jj, dtype=np.intp)
        self._mul_k = np.asarray(kk, dtype=np.intp)
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
        self._factorials = np.array(
            [math.prod(math.factorial(a) for a in m) for m in self.monomials]
        )

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.zeros(self.size)
        np.add.at(out, self._mul_k, a[self._mul_i] * b[self._mul_j])
        return out


class Jet:
    """Truncated Taylor expansion of a scalar at a base point."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    # constructors -----------------------------------------------------

    @staticmethod
    def constant(value: float, nvars: int, order: int) -> "Jet":
        sp = _space(nvars, order)
        c = np.zeros(sp.size)
        c[0] = value
        return Jet(sp, c)

    @staticmethod
    def variable(var: int, base: float, nvars: int, order: int) -> "Jet":
        if order < 1:
            raise ValueError("a variable jet needs order >= 1")
        sp = _space(nvars, order)
        c = np.zeros(sp.size)
        c[0] = base
        unit = tuple(1 if k == var else 0 for k in range(nvars))
        c[sp.index[unit]] = 1.0
        return Jet(sp, c)

    # accessors --------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.space.nvars

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def coefficient(self, alpha) -> float:
        """Taylor coefficient for the multi-index alpha."""
        return float(self.coeffs[self.space.index[tuple(alpha)]])

    def derivative(self, alpha) -> float:
        """Partial derivative value: coefficient times alpha factorial."""
        k = self.space.index[tuple(alpha)]
        return float(self.coeffs[k] * self.space._factorials[k])

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
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        src, dst, fac = self.space._deriv[var]
        sp = _space(self.nvars, self.order - 1)
        c = np.zeros(sp.size)
        c[dst] = self.coeffs[src] * fac
        return Jet(sp, c)

    def gradient(self) -> list[float]:
        sp = self.space
        out = []
        for v in range(self.nvars):
            unit = tuple(1 if k == v else 0 for k in range(self.nvars))
            out.append(float(self.coeffs[sp.index[unit]]))
        return out

    def __repr__(self):
        return f"Jet(order={self.order}, value={self.value!r})"

    # arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.nvars != self.nvars:
                raise ValueError("jets over different variable counts")
            order = min(self.order, other.order)
            return self.truncate(order), other.truncate(order)
        if isinstance(other, (int, float, np.floating)):
            return self, Jet.constant(float(other), self.nvars, self.order)
        return self, NotImplemented

    def __add__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return Jet(a.space, a.coeffs + b.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __sub__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return Jet(a.space, a.coeffs - b.coeffs)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating)):
            return Jet(self.space, self.coeffs * float(other))
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return Jet(a.space, a.space.mul(a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating)):
            return Jet(self.space, self.coeffs / float(other))
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a * _reciprocal(b)

    def __rtruediv__(self, other):
        return _reciprocal(self) * other

    def __pow__(self, exponent):
        return jet_pow(self, exponent)


# analytic functions ----------------------------------------------------


def _series(jet: Jet, derivs: list[float]) -> Jet:
    """Evaluate f(jet) from the derivatives of f at jet.value.

    Uses f(c + N) = sum_k f^(k)(c)/k! N^k with N the nilpotent part.
    """
    sp = jet.space
    nil = jet.coeffs.copy()
    nil[0] = 0.0
    out = np.zeros(sp.size)
    out[0] = derivs[0]
    power = None
    fact = 1.0
    for k in range(1, sp.order + 1):
        fact *= k
        power = nil if power is None else sp.mul(power, nil)
        out += (derivs[k] / fact) * power
    return Jet(sp, out)


def _finite(derivs: list[float], message: str) -> list[float]:
    if not all(map(math.isfinite, derivs)):
        raise JetDomainError(message)
    return derivs


def _reciprocal(jet: Jet) -> Jet:
    c = jet.value
    message = "division by a quantity vanishing at the base point"
    if abs(c) < 1e-300:
        raise JetDomainError(message)
    try:
        derivs = [(-1.0) ** k * math.factorial(k) / c ** (k + 1)
                  for k in range(jet.order + 1)]
    except ZeroDivisionError:  # c ** (k + 1) underflowed to zero
        raise JetDomainError(message) from None
    except OverflowError:
        raise JetDomainError(
            f"reciprocal derivatives out of float range at {c!r}") from None
    return _series(jet, _finite(derivs, message))


def _trig_domain_error(name: str, c: float) -> JetDomainError:
    # math.sin and math.cos raise ValueError only at an infinite argument
    return JetDomainError(f"{name} of non-finite value {c!r}")


def _sin_cos(c: float):
    try:
        return math.sin(c), math.cos(c)
    except ValueError:
        raise _trig_domain_error("sin and cos", c) from None


def jet_sin(jet: Jet) -> Jet:
    s, c = _sin_cos(jet.value)
    table = [s, c, -s, -c]
    return _series(jet, [table[k % 4] for k in range(jet.order + 1)])


def jet_cos(jet: Jet) -> Jet:
    s, c = _sin_cos(jet.value)
    table = [c, -s, -c, s]
    return _series(jet, [table[k % 4] for k in range(jet.order + 1)])


def _exp(c: float) -> float:
    try:
        return math.exp(c)
    except OverflowError:
        raise JetDomainError(f"exp overflows at {c!r}") from None


def jet_exp(jet: Jet) -> Jet:
    e = _exp(jet.value)
    return _series(jet, [e] * (jet.order + 1))


def jet_log(jet: Jet) -> Jet:
    c = jet.value
    if c <= 0.0:
        raise JetDomainError(f"log of non-positive value {c!r}")
    message = f"log derivatives overflow at tiny value {c!r}"
    derivs = [math.log(c)]
    try:
        for k in range(1, jet.order + 1):
            derivs.append((-1.0) ** (k - 1) * math.factorial(k - 1) / c ** k)
    except ZeroDivisionError:  # c ** k underflowed to zero
        raise JetDomainError(message) from None
    except OverflowError:
        raise JetDomainError(
            f"log derivatives out of float range at {c!r}") from None
    return _series(jet, _finite(derivs, message))


def jet_sqrt(jet: Jet) -> Jet:
    if jet.value <= 0.0:
        raise JetDomainError(f"sqrt of non-positive value {jet.value!r}")
    return jet_pow(jet, 0.5)


def jet_pow(jet: Jet, exponent: float) -> Jet:
    """jet ** exponent with a constant real exponent.

    Integer exponents use repeated multiplication (exact for
    polynomials); fractional exponents require a positive base and go
    through exp(e * log(u)).
    """
    if isinstance(exponent, Jet):
        raise JetDomainError("exponent must be a real constant")
    e = float(exponent)
    if float(e).is_integer() and abs(e) <= 64:
        n = int(e)
        if n == 0:
            return Jet.constant(1.0, jet.nvars, jet.order)
        base = jet if n > 0 else _reciprocal(jet)
        n = abs(n)
        out = None
        acc = base
        while n:
            if n & 1:
                out = acc if out is None else out * acc
            n >>= 1
            if n:
                acc = acc * acc
        return out
    if jet.value <= 0.0:
        raise JetDomainError(
            f"fractional power of non-positive base {jet.value!r}"
        )
    return jet_exp(jet_log(jet) * e)


def compose(outer: Jet, inner: list[Jet]) -> Jet:
    """Substitute inner jets for the variables of an outer jet.

    outer is a jet in len(inner) variables; each inner jet shares one
    common space.  The result is the jet of the composite function in
    the inner variables, truncated at min(outer.order, inner order).
    """
    if len(inner) != outer.nvars:
        raise ValueError("composition needs one inner jet per outer variable")
    sp_in = inner[0].space
    order = min(outer.order, sp_in.order)
    sp_out = _space(sp_in.nvars, order)
    # displacement jets (zero constant term), with power caches
    powers = []
    for j in inner:
        d = j.truncate(order).coeffs.copy()
        d[0] = 0.0
        cache = [None, d]
        for k in range(2, order + 1):
            cache.append(sp_out.mul(cache[-1], d))
        powers.append(cache)
    out = np.zeros(sp_out.size)
    for idx, beta in enumerate(monomials(outer.nvars, outer.order)):
        if sum(beta) > order:
            continue
        c = outer.coeffs[idx]
        if c == 0.0:
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
            out += c * term
    return Jet(sp_out, out)


# scalar dispatch helpers (accept floats or jets) ------------------------


def s_sin(x):
    if isinstance(x, Jet):
        return jet_sin(x)
    try:
        return math.sin(x)
    except ValueError:
        raise _trig_domain_error("sin", x) from None


def s_cos(x):
    if isinstance(x, Jet):
        return jet_cos(x)
    try:
        return math.cos(x)
    except ValueError:
        raise _trig_domain_error("cos", x) from None


def s_exp(x):
    return jet_exp(x) if isinstance(x, Jet) else _exp(x)


def s_log(x):
    if isinstance(x, Jet):
        return jet_log(x)
    if x <= 0.0:
        raise JetDomainError(f"log of non-positive value {x!r}")
    return math.log(x)


def s_sqrt(x):
    if isinstance(x, Jet):
        return jet_sqrt(x)
    if x <= 0.0:
        raise JetDomainError(f"sqrt of non-positive value {x!r}")
    return math.sqrt(x)


def s_pow(x, e):
    if isinstance(x, Jet):
        return jet_pow(x, e)
    e = float(e)
    if float(e).is_integer():
        if x == 0.0 and e < 0:
            raise JetDomainError("zero raised to a negative power")
    elif x <= 0.0:
        raise JetDomainError(f"fractional power of non-positive base {x!r}")
    try:
        return x ** e
    except OverflowError:
        raise JetDomainError(f"{x!r} to the power {e!r} overflows") from None


def s_value(x) -> float:
    return x.value if isinstance(x, Jet) else float(x)
