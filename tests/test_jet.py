import itertools
import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from symphonic.jet import (Jet, JetDomainError, _space, compose, einsum,
                           monomials, s_cos, s_exp, s_log, s_pow, s_sin,
                           s_sqrt, stack)


def jet_of(fn_sym, var_values, order, syms=None):
    """Evaluate a sympy expression in jet arithmetic."""
    if syms is None:
        syms = sorted(fn_sym.free_symbols, key=lambda s: s.name)
    n = len(var_values)
    env = {}
    for k, s in enumerate(syms):
        env[s] = Jet.variable(k, var_values[k], n, order)
    fns = {sp.sin: s_sin, sp.cos: s_cos, sp.exp: s_exp, sp.log: s_log}

    def rec(e):
        if e.is_Number:
            return float(e)
        if e.is_Symbol:
            return env[e]
        if e.is_Add:
            out = rec(e.args[0])
            for a in e.args[1:]:
                out = out + rec(a)
            return out
        if e.is_Mul:
            out = rec(e.args[0])
            for a in e.args[1:]:
                out = out * rec(a)
            return out
        if e.is_Pow:
            return s_pow(rec(e.base), float(e.exp))
        return fns[e.func](rec(e.args[0]))

    return rec(fn_sym)


def test_polynomial_exactness_single_var():
    t = sp.Symbol("t")
    poly = 3 * t**4 - 2 * t**3 + t - 7
    jet = jet_of(poly, [1.7], 4)
    for k in range(5):
        expected = float(sp.diff(poly, t, k).subs(t, 1.7))
        assert jet.derivative((k,)) == pytest.approx(expected, rel=1e-12)


@given(st.lists(st.integers(-5, 5), min_size=15, max_size=15),
       st.floats(-2.0, 2.0))
@settings(max_examples=25, deadline=None)
def test_polynomial_exactness_two_vars(coeffs, base_x):
    x, y = sp.symbols("x y")
    monos = [m for m in monomials(2, 4) if sum(m) <= 4][:15]
    poly = sum(c * x**a * y**b for c, (a, b) in zip(coeffs, monos))
    if poly == 0 or not poly.free_symbols:
        return
    pt = [base_x, 0.6]
    jet = jet_of(poly, pt, 4, syms=[x, y])
    for alpha in monomials(2, 4):
        expected = float(sp.diff(poly, x, alpha[0], y, alpha[1])
                         .subs({x: pt[0], y: pt[1]}))
        scale = max(abs(expected), 1.0)
        assert abs(jet.derivative(alpha) - expected) <= 1e-10 * scale


@pytest.mark.parametrize("order_low,order_high", [(1, 4), (2, 4), (3, 4), (2, 3)])
def test_truncation_consistency(order_low, order_high):
    x, y = sp.symbols("x y")
    f = sp.sin(x) * sp.exp(y / 3) + x**2 * y
    lo = jet_of(f, [0.4, 1.1], order_low)
    hi = jet_of(f, [0.4, 1.1], order_high)
    assert np.allclose(lo.coeffs, hi.coeffs[: lo.coeffs.size], rtol=1e-13)


def test_transcendental_derivatives():
    f = s_sin(Jet.variable(0, 0.3, 1, 4))
    for k, expected in enumerate([math.sin(0.3), math.cos(0.3),
                                  -math.sin(0.3), -math.cos(0.3),
                                  math.sin(0.3)]):
        assert f.derivative((k,)) == pytest.approx(expected, rel=1e-12)
    g = s_log(Jet.variable(0, 2.0, 1, 3))
    assert g.derivative((1,)) == pytest.approx(0.5)
    assert g.derivative((2,)) == pytest.approx(-0.25)
    assert g.derivative((3,)) == pytest.approx(0.25)


def test_fractional_power():
    jet = s_pow(Jet.variable(0, 1.0, 1, 4), 4.0 / 3.0)
    expected = [1.0, 4 / 3, 4 / 9, -8 / 27, 40 / 81]
    for k, e in enumerate(expected):
        assert jet.derivative((k,)) == pytest.approx(e, rel=1e-12)


def test_sqrt_and_division():
    u = Jet.variable(0, 4.0, 1, 3)
    s = s_sqrt(u)
    assert s.value == pytest.approx(2.0)
    assert s.derivative((1,)) == pytest.approx(0.25)
    q = 1.0 / u
    assert q.derivative((1,)) == pytest.approx(-1 / 16)
    r = u / u
    assert r.derivative((1,)) == pytest.approx(0.0, abs=1e-15)


def test_domain_errors():
    zero = Jet.constant(0.0, 1, 2)
    with pytest.raises(JetDomainError):
        _ = Jet.constant(1.0, 1, 2) / zero
    with pytest.raises(JetDomainError):
        s_log(Jet.constant(-1.0, 1, 2))
    with pytest.raises(JetDomainError):
        s_pow(Jet.constant(-2.0, 1, 2), 0.5)
    with pytest.raises(JetDomainError):
        s_sqrt(Jet.constant(-1.0, 1, 2))


@pytest.mark.parametrize("fn,base", [
    pytest.param(s_log, 1e-320, id="log"),
    pytest.param(lambda u: s_pow(u, 0.5), 1e-320, id="pow-1/2"),
    pytest.param(lambda u: s_pow(u, 4.0 / 3.0), 1e-320, id="pow-4/3"),
    pytest.param(lambda u: 1.0 / u, 1e-299, id="reciprocal"),
    pytest.param(lambda u: s_pow(u, -2), 1e-299, id="pow-neg2"),
    # derivatives and values beyond the float range
    pytest.param(lambda u: 1.0 / u, 1e200, id="reciprocal-huge"),
    pytest.param(s_exp, 1000.0, id="exp-overflow"),
    pytest.param(lambda u: s_pow(u, 1.5), 1e300, id="pow-3/2-overflow"),
    pytest.param(lambda u: s_exp(u.value), 1000.0, id="s_exp-overflow"),
    pytest.param(lambda u: s_pow(u.value, 2.0), 1e200,
                 id="s_pow-int-overflow"),
    pytest.param(lambda u: s_pow(u.value, 1.5), 1e300,
                 id="s_pow-frac-overflow"),
    # sin and cos of an infinite argument
    pytest.param(s_sin, math.inf, id="sin-inf"),
    pytest.param(s_cos, -math.inf, id="cos-inf"),
    pytest.param(lambda u: s_sin(u.value), math.inf, id="s_sin-inf"),
    pytest.param(lambda u: s_cos(u.value), -math.inf, id="s_cos-inf"),
    # and every analytic function of a NaN argument
    pytest.param(s_sin, math.nan, id="sin-nan"),
    pytest.param(s_exp, math.nan, id="exp-nan"),
    pytest.param(s_log, math.nan, id="log-nan"),
    pytest.param(s_sqrt, math.nan, id="sqrt-nan"),
    pytest.param(lambda u: 1.0 / u, math.nan, id="reciprocal-nan"),
    pytest.param(lambda u: s_pow(u, 1.5), math.nan, id="pow-3/2-nan"),
    pytest.param(lambda u: s_pow(u.value, 1.5), math.nan, id="s_pow-frac-nan"),
    pytest.param(lambda u: s_exp(u.value), math.nan, id="s_exp-nan"),
])
@pytest.mark.parametrize("order", [1, 2, 4])
def test_tiny_base_is_a_domain_error(fn, base, order):
    # a derivative that underflows a division or overflows is a domain
    # error, not a ZeroDivisionError, an OverflowError or an infinite
    # coefficient
    with pytest.raises(JetDomainError):
        fn(Jet.variable(0, base, 1, order))


def test_integer_power_of_negative_base():
    u = Jet.variable(0, -2.0, 1, 2)
    p = s_pow(u, 3)
    assert p.value == pytest.approx(-8.0)
    assert p.derivative((1,)) == pytest.approx(12.0)


def test_partial_extraction_lowers_order():
    x, y = sp.symbols("x y")
    f = jet_of(x**3 * y + sp.cos(y), [0.7, 0.2], 4)
    fx = f.partial(0)
    assert fx.order == 3
    assert fx.value == pytest.approx(3 * 0.7**2 * 0.2)
    assert fx.derivative((1, 1)) == pytest.approx(6 * 0.7)


def test_compose_against_sympy():
    t = sp.Symbol("t")
    x, y = sp.symbols("x y")
    outer_sym = sp.sin(x) + x * y**2
    inner1 = t**2 + 1
    inner2 = sp.cos(t)
    composite = outer_sym.subs({x: inner1, y: inner2})
    t0 = 0.8
    outer = jet_of(outer_sym, [float(inner1.subs(t, t0)),
                               float(inner2.subs(t, t0))], 3)
    inner_jets = [jet_of(inner1, [t0], 3), jet_of(inner2, [t0], 3)]
    got = compose(outer, stack(inner_jets))
    for k in range(4):
        expected = float(sp.diff(composite, t, k).subs(t, t0))
        assert got.derivative((k,)) == pytest.approx(expected, rel=1e-11)


def test_monomial_enumeration_is_prefix_stable():
    low = monomials(3, 2)
    high = monomials(3, 4)
    assert high[: len(low)] == low
    assert len(monomials(2, 4)) == 15
    assert len(monomials(4, 4)) == 70


# jet arrays and einsum --------------------------------------------------------


def random_jet_array(rng, nvars, order, shape):
    sp = _space(nvars, order)
    return Jet(sp, rng.uniform(-1.0, 1.0, (sp.size,) + shape))


def entry(a, idx):
    """The scalar jet (or float) at tensor index idx of an operand."""
    if isinstance(a, Jet):
        return Jet(a.space, a.coeffs[(slice(None),) + idx])
    return a[idx]


def einsum_by_loops(subscripts, tensor_ranks, *operands):
    """Reference einsum over the named tensor axes with explicit Jet
    mul/add: every index assignment, one scalar product each."""
    inputs, output = subscripts.split("->")
    terms = [t.replace("...", "") for t in inputs.split(",")]
    dims = {}
    for term, op, rank in zip(terms, operands, tensor_ranks):
        shape = op.coeffs.shape[1:] if isinstance(op, Jet) else op.shape
        dims.update(zip(term, shape[:rank]))
    letters = sorted(dims)
    out = {}
    for values in itertools.product(*(range(dims[c]) for c in letters)):
        at = dict(zip(letters, values))
        prod = None
        for term, op in zip(terms, operands):
            e = entry(op, tuple(at[c] for c in term))
            prod = e if prod is None else prod * e
        key = tuple(at[c] for c in output.replace("...", ""))
        out[key] = prod if key not in out else out[key] + prod
    return out


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("subscripts,shapes,orders", [
    ("ij...,jk...->ik...", [(3, 2), (2, 4)], [2, 2]),
    ("pq...,rs...,pqr...,sa...->a...", [(2, 2), (2, 2), (2, 2, 2), (2, 3)],
     [2, 2, 2, 2]),
    ("pqa...,ab...,rb...->pqr...", [(2, 2, 3), (3, 3), (2, 3)], [3, 3, 3]),
])
def test_einsum_matches_explicit_jet_loops(seed, subscripts, shapes, orders):
    rng = np.random.default_rng(seed)
    batch = (4,)
    ops = [random_jet_array(rng, 2, order, shape + batch)
           for shape, order in zip(shapes, orders)]
    got = einsum(subscripts, *ops)
    ref = einsum_by_loops(subscripts, [len(s) for s in shapes], *ops)
    for key, jet in ref.items():
        scale = np.abs(jet.coeffs).max()
        assert np.abs(got.coeffs[(slice(None),) + key]
                      - jet.coeffs).max() <= 1e-15 * max(scale, 1.0)


def test_einsum_mixed_orders_truncate_to_the_minimum():
    rng = np.random.default_rng(5)
    a = random_jet_array(rng, 3, 4, (2, 3))
    b = random_jet_array(rng, 3, 2, (3, 2))
    got = einsum("ij...,jk...->ik...", a, b)
    assert got.order == 2
    want = einsum("ij...,jk...->ik...", a.truncate(2), b)
    assert np.array_equal(got.coeffs, want.coeffs)


def test_einsum_pointwise_jet_broadcasts_against_a_batch():
    rng = np.random.default_rng(6)
    point = random_jet_array(rng, 2, 2, (3, 3))          # no batch axes
    batched = random_jet_array(rng, 2, 2, (3, 2, 5))
    got = einsum("ij...,jk...->ik...", point, batched)
    assert got.coeffs.shape == (6, 3, 2, 5)
    for k in range(5):
        one = einsum("ij...,jk...->ik...", point,
                     Jet(batched.space, batched.coeffs[..., k]))
        assert np.allclose(got.coeffs[..., k], one.coeffs, rtol=0,
                           atol=1e-15)


def test_einsum_with_a_plain_array_is_linear_in_the_coefficients():
    rng = np.random.default_rng(7)
    matrix = rng.uniform(-1, 1, (4, 3, 5))
    jets = random_jet_array(rng, 2, 3, (3, 2, 5))
    got = einsum("ij...,jk...->ik...", matrix, jets)
    assert got.order == 3
    for c in range(jets.space.size):
        assert np.allclose(got.coeffs[c], np.einsum(
            "ij...,jk...->ik...", matrix, jets.coeffs[c]), rtol=0,
            atol=1e-15)


def test_einsum_of_plain_arrays_is_numpy_einsum():
    rng = np.random.default_rng(8)
    ops = [rng.normal(size=s) for s in [(3, 3, 4), (3, 2, 4), (2, 4)]]
    got = einsum("pq...,qr...,r...->p...", *ops)
    assert type(got) is np.ndarray
    assert np.array_equal(got, np.einsum("pq...,qr...,r...->p...", *ops))


def test_outer_product_of_three_jets():
    rng = np.random.default_rng(9)
    ops = [random_jet_array(rng, 2, 2, (n,)) for n in (2, 3, 2)]
    got = einsum("i,j,k->ijk", *ops)
    ref = einsum_by_loops("i,j,k->ijk", [1, 1, 1], *ops)
    for key, jet in ref.items():
        assert np.allclose(got.coeffs[(slice(None),) + key], jet.coeffs,
                           rtol=0, atol=1e-15)


def test_partials_hessian_and_stack():
    rng = np.random.default_rng(10)
    jets = [random_jet_array(rng, 3, 3, (4,)) for _ in range(2)]
    arr = stack(jets)
    assert arr.coeffs.shape == (20, 2, 4)
    d = arr.partials()
    hess = arr.hessian()
    assert d.coeffs.shape == (10, 3, 2, 4) and hess.shape == (3, 3, 2, 4)
    for a, jet in enumerate(jets):
        for i in range(3):
            assert np.array_equal(d.coeffs[:, i, a], jet.partial(i).coeffs)
            for j in range(3):
                beta = tuple(int(i == k) + int(j == k) for k in range(3))
                assert np.array_equal(hess[i, j, a], jet.derivative(beta))


def test_compose_of_a_jet_array_is_entrywise():
    rng = np.random.default_rng(11)
    inner = stack([random_jet_array(rng, 2, 3, (4,)) for _ in range(3)])
    outer = random_jet_array(rng, 3, 2, (2, 2, 4))
    got = compose(outer, inner)
    assert got.order == 2 and got.coeffs.shape == (6, 2, 2, 4)
    for i, j in itertools.product(range(2), repeat=2):
        one = compose(Jet(outer.space, outer.coeffs[:, i, j]), inner)
        assert np.allclose(got.coeffs[:, i, j], one.coeffs, rtol=0,
                           atol=1e-15)
