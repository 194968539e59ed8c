import numpy as np
import pytest

from symphonic import charts, geometry as geo, maps as mp
from symphonic import expr as ex
from test_expr import _jet_of


def euclid_map(dim, sources, bounds=5.0):
    coords = [f"x{k + 1}" for k in range(dim)]
    src = geo.euclidean_space(dim, coord_names=coords,
                              bounds=[(-bounds, bounds)] * dim)
    tgt = geo.euclidean_space(len(sources))
    return mp.MapSpec(src, tgt, [ex.parse(s, coords) for s in sources])


@pytest.fixture
def sphere_inc():
    return charts.sphere_inclusion(2)


def test_differential_identity():
    spec = euclid_map(2, ["x1", "x2"])
    assert np.allclose(mp.differential(spec, [0.3, 0.4]), np.eye(2))


def test_differential_power_curve():
    curve = charts.power_curve(4.0 / 3.0)
    assert mp.differential(curve, [1.0])[0, 0] == pytest.approx(4 / 3)


def test_differential_constant_map():
    spec = euclid_map(2, ["1.5", "-2"])
    assert np.allclose(mp.differential(spec, [0.1, 0.2]), 0.0)


def test_pullback_identity_metric():
    spec = euclid_map(2, ["x1", "x2"])
    assert np.allclose(mp.pullback_metric(spec, [1.0, 2.0]), np.eye(2))


def test_pullback_scaling():
    spec = euclid_map(3, ["2*x1", "2*x2", "2*x3"])
    pb = mp.pullback_metric(spec, [0.5, 0.5, 0.5])
    assert np.allclose(pb, 4.0 * np.eye(3), atol=1e-12)


def test_pullback_sphere_embedding(sphere_inc, rng):
    for _ in range(5):
        x = [rng.uniform(0.3, np.pi - 0.3), rng.uniform(0, 2 * np.pi)]
        pb = mp.pullback_metric(sphere_inc, x)
        expected = np.diag([1.0, np.sin(x[0]) ** 2])
        assert np.allclose(pb, expected, atol=1e-12)


@pytest.mark.parametrize("c,dim", [(1.0, 2), (2.0, 3)])
def test_energy_density_scaling(c, dim):
    coords = [f"x{k + 1}" for k in range(dim)]
    spec = euclid_map(dim, [f"{c}*{name}" for name in coords])
    dens = mp.symphonic_energy_density(spec, [0.2] * dim)
    assert dens == pytest.approx(c ** 4 * dim, rel=1e-12)


def test_energy_density_sphere(sphere_inc):
    dens = mp.symphonic_energy_density(sphere_inc, [0.9, 2.0])
    assert dens == pytest.approx(2.0, rel=1e-12)


def test_sff_linear_map_zero():
    spec = euclid_map(2, ["3*x1 - x2", "x1 + 2*x2"])
    out = mp.second_fundamental_form(spec, [0.7, 0.1], [1.0, 2.0], [3.0, -1.0])
    assert np.allclose(out, 0.0, atol=1e-14)


def test_sff_sphere(sphere_inc, rng):
    x = [1.1, 0.6]
    frame = geo.frame_at(sphere_inc.source, x)
    a, b = rng.normal(size=(2, 2))
    X, Y = a @ frame, b @ frame
    pos = sphere_inc.value(x)
    sff = mp.second_fundamental_form(sphere_inc, x, X, Y)
    assert np.allclose(sff, -float(a @ b) * pos, atol=1e-12)


def test_sff_scalar_curve():
    curve = charts.power_curve(2.0)
    out = mp.second_fundamental_form(curve, [1.3], [1.0], [1.0])
    assert out[0] == pytest.approx(2.0, rel=1e-12)


def test_sff_symmetry(annulus, curved_target, rng):
    coords = annulus.coords
    spec = mp.MapSpec(annulus, curved_target,
                      [ex.parse("0.5*r^2 + 0.3*sin(th)", coords),
                       ex.parse("r*cos(th)", coords)])
    for _ in range(5):
        x = [rng.uniform(0.6, 1.9), rng.uniform(0, 2 * np.pi)]
        X, Y = rng.normal(size=(2, 2))
        a = mp.second_fundamental_form(spec, x, X, Y)
        b = mp.second_fundamental_form(spec, x, Y, X)
        assert np.allclose(a, b, atol=1e-10)


def test_tension_identity_zero():
    spec = euclid_map(2, ["x1", "x2"])
    assert np.allclose(mp.tension_field(spec, [0.3, 0.8]), 0.0)


@pytest.mark.parametrize("m", [2, 3])
def test_tension_sphere(m):
    inc = charts.sphere_inclusion(m)
    x = [0.8] * (m - 1) + [1.5]
    pos = inc.value(x)
    assert np.allclose(mp.tension_field(inc, x), -m * pos, atol=1e-10)


def test_cube_root_field_not_harmonic(rng):
    plane = charts.punctured_plane_chart()
    f = ex.parse("pow(x1^2 + x2^2, 1/3)", plane.coords)
    spec = mp.MapSpec(plane, geo.euclidean_space(1), [f])
    for _ in range(10):
        r = rng.uniform(0.3, 2.9)
        th = rng.uniform(0, 2 * np.pi)
        x = [r * np.cos(th), r * np.sin(th)]
        assert abs(mp.tension_field(spec, x)[0]) > 1e-3


def test_stress_identity_and_scaling():
    spec = euclid_map(2, ["x1", "x2"])
    X = np.array([0.4, -1.2])
    assert np.allclose(mp.symphonic_stress(spec, [0.1, 0.1], X), X,
                       atol=1e-12)
    # sigma carries three dphi factors, so x -> cx scales it by c^3
    spec = euclid_map(2, ["3*x1", "3*x2"])
    assert np.allclose(mp.symphonic_stress(spec, [0.1, 0.1], X),
                       27.0 * X, atol=1e-9)


def test_stress_constant_map_zero():
    spec = euclid_map(2, ["1", "2"])
    assert np.allclose(mp.symphonic_stress(spec, [0.1, 0.1], [1.0, 1.0]), 0.0)


def test_stress_linearity(sphere_inc, rng):
    x = [0.9, 1.1]
    X, Y = rng.normal(size=(2, 2))
    a, b = 1.3, -0.6
    lhs = mp.symphonic_stress(sphere_inc, x, a * X + b * Y)
    rhs = (a * mp.symphonic_stress(sphere_inc, x, X)
           + b * mp.symphonic_stress(sphere_inc, x, Y))
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_pullback_and_stress_are_the_tables_formulas(curved_target, rng):
    """pullback_metric and symphonic_stress read an order-1 context and
    give, bit for bit, their formulas on map_tables (an order-2 context,
    which also builds Christoffel symbols), at one point and over a
    batch."""
    tor = charts.torus_chart(2)
    specs = [charts.sphere_inclusion(m) for m in (2, 3, 4)] + [
        charts.power_curve(4.0 / 3.0), charts.torus_test_map(),
        mp.MapSpec(tor, curved_target, [
            ex.parse("x1 + 0.3*sin(x2)", tor.coords),
            ex.parse("x2 - 0.2*cos(x1)", tor.coords)])]
    for spec in specs:
        pts = np.array(spec.source.sample_points(5, rng)).T
        vectors = rng.normal(size=pts.shape)
        for x, X in ((pts, vectors), (pts[:, 0], vectors[:, 0])):
            t = mp.map_tables(spec, x)
            pullback = np.einsum("ia...,ab...,jb...->ij...", t.d1, t.h, t.d1)
            df = np.einsum("ip...,pa...->ia...", t.frame, t.d1)
            dX = np.einsum("p...,pa...->a...", X, t.d1)
            stress = np.einsum("a...,ab...,jb...,jc...->c...", dX, t.h,
                               df, df)
            assert (mp.pullback_metric(spec, x).tobytes()
                    == pullback.tobytes())
            assert (mp.symphonic_stress(spec, x, X).tobytes()
                    == stress.tobytes())


def test_tau_linear_map_zero():
    spec = euclid_map(2, ["2*x1 + x2", "x1 - x2"])
    assert np.allclose(mp.symphonic_tension(spec, [1.0, 2.0]), 0.0,
                       atol=1e-12)


def test_tau_coupled_curve():
    """For a curve the tension is |g'|^2 g'' + 2 <g', g''> g'; at
    (t^2, t^3), t=1 that is 13*(2,6) + 44*(2,3) = (114, 210)."""
    interval = charts.interval_chart(0.5, 4.0)
    curve = mp.MapSpec(interval, geo.euclidean_space(2),
                       [ex.parse("t^2", ["t"]), ex.parse("t^3", ["t"])])
    tau = mp.symphonic_tension(curve, [1.0])
    assert np.allclose(tau, [114.0, 210.0], rtol=1e-12)
    # closed form at a second point
    t = 1.7
    g1 = np.array([2 * t, 3 * t * t])
    g2 = np.array([2.0, 6 * t])
    expected = float(g1 @ g1) * g2 + 2 * float(g1 @ g2) * g1
    assert np.allclose(mp.symphonic_tension(curve, [t]), expected, rtol=1e-12)


def test_tau_single_power_curve():
    curve = charts.power_curve(4.0 / 3.0)
    tau = mp.symphonic_tension(curve, [1.0])
    assert tau[0] == pytest.approx(64 / 27, rel=1e-12)
    for t in (0.7, 2.3):
        a = 4.0 / 3.0
        expected = 3 * (a * t ** (a - 1)) ** 2 * a * (a - 1) * t ** (a - 2)
        assert mp.symphonic_tension(curve, [t])[0] == pytest.approx(
            expected, rel=1e-12)


@pytest.mark.parametrize("m", [2, 3])
def test_tau_sphere(m):
    inc = charts.sphere_inclusion(m)
    x = [1.0] * (m - 1) + [2.2]
    pos = inc.value(x)
    assert np.allclose(mp.symphonic_tension(inc, x), -m * pos, atol=1e-10)


def test_scalar_residual_affine_zero():
    e2 = geo.euclidean_space(2, coord_names=["x1", "x2"],
                             bounds=[(-5, 5)] * 2)
    f = ex.parse("3*x1 - 2*x2 + 1", ["x1", "x2"])
    assert mp.scalar_symphonic_residual(e2, f, [0.3, 0.4]) == pytest.approx(
        0.0, abs=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_scalar_residual_squared_norm(dim, rng):
    coords = [f"x{k + 1}" for k in range(dim)]
    e = geo.euclidean_space(dim, coord_names=coords, bounds=[(-5, 5)] * dim)
    f = ex.parse(" + ".join(f"{c}^2" for c in coords), coords)
    for _ in range(5):
        x = rng.uniform(-2, 2, dim)
        expected = 8 * (dim + 2) * float(x @ x)
        assert mp.scalar_symphonic_residual(e, f, x) == pytest.approx(
            expected, rel=1e-12)


def test_scalar_residual_cube_root(rng):
    plane = charts.punctured_plane_chart()
    f = ex.parse("pow(x1^2 + x2^2, 1/3)", plane.coords)
    for p in _annulus(rng, 50):
        assert abs(mp.scalar_symphonic_residual(plane, f, p)) <= 1e-9


def _annulus(rng, count):
    r = rng.uniform(0.2, 3.0, count)
    th = rng.uniform(0, 2 * np.pi, count)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


def test_scalar_residual_matches_map_tension(rng):
    coords = ["x1", "x2"]
    e2 = geo.euclidean_space(2, coord_names=coords, bounds=[(-5, 5)] * 2)
    sources = ["sin(x1)*cos(x2) + 0.2*x1^2",
               "exp(0.3*x1) + x2^3",
               "x1*x2 + cos(x1 + x2)"]
    for src in sources:
        f = ex.parse(src, coords)
        spec = mp.MapSpec(e2, geo.euclidean_space(1), [f])
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, 2)
            res = mp.scalar_symphonic_residual(e2, f, x)
            tau = mp.symphonic_tension(spec, x)[0]
            assert res == pytest.approx(tau, rel=1e-9, abs=1e-12)


def test_flat_double_sum_expansion(rng):
    """On a Euclidean source/target the scalar tension expands to
    sum_ij [d2_ii f (d_j f)^2 + 2 d_i f d_j f d2_ij f]."""
    coords = ["x1", "x2"]
    e2 = geo.euclidean_space(2, coord_names=coords, bounds=[(-5, 5)] * 2)
    f = ex.parse("sin(x1)*x2 + 0.1*x1^3 + cos(x2)", coords)
    spec = mp.MapSpec(e2, geo.euclidean_space(1), [f])
    for _ in range(10):
        x = rng.uniform(-2, 2, 2)
        jet = _jet_of(f, coords, x, 2)
        d = np.array(jet.gradient())
        dd = np.array([[jet.derivative(_unit2(i, j)) for j in range(2)]
                       for i in range(2)])
        double_sum = sum(dd[i, i] * d[j] ** 2 + 2 * d[i] * d[j] * dd[i, j]
                         for i in range(2) for j in range(2))
        assert mp.symphonic_tension(spec, x)[0] == pytest.approx(
            double_sum, rel=1e-9, abs=1e-12)


def _unit2(i, j):
    alpha = [0, 0]
    alpha[i] += 1
    alpha[j] += 1
    return tuple(alpha)


def test_frame_independence(sphere_inc, annulus, curved_target, rng):
    specs = [sphere_inc,
             mp.MapSpec(annulus, curved_target,
                        [ex.parse("0.5*r^2 + 0.3*sin(th)", annulus.coords),
                         ex.parse("r*cos(th)", annulus.coords)])]
    for spec in specs:
        for _ in range(10):
            x = spec.source.sample_points(1, rng)[0]
            frame = geo.frame_at(spec.source, x)
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            rot = q @ frame
            for fn in (mp.symphonic_tension, mp.tension_field):
                base = fn(spec, x)
                alt = fn(spec, x, frame=rot)
                scale = max(np.max(np.abs(base)), 1e-12)
                assert np.max(np.abs(base - alt)) / scale <= 1e-9
            d0 = mp.symphonic_energy_density(spec, x)
            d1 = mp.symphonic_energy_density(spec, x, frame=rot)
            assert d1 == pytest.approx(d0, rel=1e-9)


def test_tangent_field_bump_support():
    field = mp.TangentField([ex.parse("1", ["t"]), ex.parse("t", ["t"])],
                            bump_center=[1.0], bump_radius=0.5)
    inside = field.values(["t"], [1.1])
    assert inside[0] > 0
    outside = field.values(["t"], [1.9])
    assert np.allclose(outside, 0.0)
    jets = field.jets(["t"], [1.9], 2)
    assert jets.coeffs.shape == (3, 2) and np.allclose(jets.coeffs, 0.0)
    # window value is (1 - (r/R)^2)^5
    r_rel = (0.1 / 0.5) ** 2
    assert inside[0] == pytest.approx((1 - r_rel) ** 5, rel=1e-12)


def test_map_component_validation(torus2):
    with pytest.raises(geo.GeometryError):
        mp.MapSpec(torus2, geo.euclidean_space(2),
                   [ex.parse("x1", ["x1", "x2"])])


def test_image_outside_target_domain():
    interval = charts.interval_chart(0.5, 4.0)
    tight = geo.euclidean_space(1, bounds=[(0.0, 2.0)])
    spec = mp.MapSpec(interval, tight, [ex.parse("t^2", ["t"])])
    with pytest.raises(geo.DomainError):
        mp.pullback_metric(spec, [1.9])


def test_batched_tangent_field_matches_pointwise():
    field = mp.TangentField([ex.parse("1 + t", ["t"]), ex.parse("t^2", ["t"])],
                            bump_center=[1.0], bump_radius=0.5)
    pts = np.array([[0.4, 0.9, 1.1, 1.45, 1.9]])   # two outside the window
    values = field.values(["t"], pts)
    jets = field.jets(["t"], pts, 3)
    for k in range(pts.shape[1]):
        assert np.allclose(values[:, k], field.values(["t"], pts[:, k]),
                           rtol=1e-15, atol=0.0)
        one = field.jets(["t"], pts[:, k], 3)
        for a in range(2):
            assert np.allclose(jets.coeffs[:, a, k], one.coeffs[:, a],
                               rtol=1e-14, atol=1e-300)
    assert np.all(values[:, [0, 4]] == 0.0)


def test_constant_charts_contexts_hold_their_shared_metrics(curved_target):
    """A context on a chart with a constant metric holds the chart's one
    shared MetricAtPoint, on the source side as on the target side, so
    no such metric is evaluated per point, and its Christoffel symbols
    are None on the float path and the jet path alike."""
    x = np.array([[0.3, 1.2, 2.5], [0.7, 0.1, 4.0]])
    spec = charts.torus_test_map()
    for order in (1, 2, 3, 4):
        ctx = mp.along_map(spec, x, order)
        assert ctx.source is geo.constant_metric(spec.source)
        assert ctx.target is geo.constant_metric(spec.target)
        assert ctx.source.christoffel_values is None
        assert ctx.target.christoffel_values is None
        assert ctx.gammaN_along is None
    tor = charts.torus_chart(2)
    curved = mp.MapSpec(tor, curved_target,
                        [ex.parse("x1 + 0.3*sin(x2)", tor.coords),
                         ex.parse("x2 - 0.2*cos(x1)", tor.coords)])
    ctx = mp.along_map(curved, x, 3)
    assert ctx.source is geo.constant_metric(tor)
    assert ctx.target.christoffel_values.shape == (2, 2, 2, 3)


def test_batched_tables_match_pointwise(annulus, curved_target, rng):
    """The tables' fields, the context's map values, second partials,
    target Christoffel symbols and target curvature, and the pullback
    metric, tension field and symphonic stress over a batch against one
    call per point; the source metric, its inverse and Christoffel
    symbols are checked so in
    test_batched_metric_and_frame_match_pointwise."""
    spec = mp.MapSpec(annulus, curved_target,
                      [ex.parse("r*cos(th) + 0.1*sin(2*th)", annulus.coords),
                       ex.parse("r*sin(th)", annulus.coords)])
    pts = np.array(annulus.sample_points(4, rng, shrink=0.05)).T
    vectors = rng.normal(size=pts.shape)
    batch = mp.map_tables(spec, pts)
    tau = mp.tau_s_from_tables(batch)

    def context_values(x):
        # order 3 gives target metric jets of order 2, as R^N needs
        ctx = mp.along_map(spec, x, 3)
        return {"phi": ctx.jets.value, "d2": ctx.jets.hessian(),
                "gammaN": ctx.target.christoffel_values,
                "riemN": ctx.target.riemann}

    def operators(x, X):
        return {"pullback": mp.pullback_metric(spec, x),
                "tension_field": mp.tension_field(spec, x),
                "stress": mp.symphonic_stress(spec, x, X)}

    def close(got, ref, name):
        assert np.allclose(got, ref, rtol=1e-13,
                           atol=1e-13 * np.abs(ref).max()), name

    batch_values = context_values(pts)
    assert np.abs(batch_values["riemN"]).max() > 1e-3  # the target is curved
    batch_ops = operators(pts, vectors)
    for k in range(pts.shape[1]):
        one = mp.map_tables(spec, pts[:, k])
        for name in ("d1", "h", "sff", "frame"):
            close(getattr(batch, name)[..., k], getattr(one, name), name)
        for name, ref in context_values(pts[:, k]).items():
            close(batch_values[name][..., k], ref, name)
        for name, ref in operators(pts[:, k], vectors[:, k]).items():
            close(batch_ops[name][..., k], ref, name)
        ref = mp.tau_s_from_tables(one)
        assert np.allclose(tau[:, k], ref, rtol=1e-13,
                           atol=1e-13 * np.abs(ref).max())
