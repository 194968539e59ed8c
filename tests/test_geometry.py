import numpy as np
import pytest

from symphonic import charts, geometry as geo
from symphonic import expr as ex
from symphonic.jet import einsum


def chart(name, coords, rows, intervals, periodic=None):
    metric = [[ex.parse(s, coords) for s in row] for row in rows]
    return geo.ManifoldModel(name, coords, metric, intervals, periodic)


@pytest.fixture
def exp_line():
    return chart("expline", ["x"], [["exp(2*x)"]], [(-1.0, 1.0)])


def test_metric_euclidean():
    e2 = geo.euclidean_space(2, bounds=[(-5, 5), (-5, 5)])
    met = geo.metric_at(e2, [0.3, -0.7])
    assert np.allclose(met.values, np.eye(2))
    assert met.sqrt_det == pytest.approx(1.0)


def test_metric_sphere_equator_and_density(sphere2):
    met = geo.metric_at(sphere2, [np.pi / 2, 1.0])
    assert np.allclose(met.values, np.eye(2), atol=1e-12)
    met = geo.metric_at(sphere2, [np.pi / 4, 1.0])
    assert met.sqrt_det == pytest.approx(np.sin(np.pi / 4), rel=1e-14)
    assert np.allclose(met.values @ met.inverse, np.eye(2), atol=1e-10)


def test_metric_outside_domain(sphere2):
    with pytest.raises(geo.DomainError):
        geo.metric_at(sphere2, [0.01, 1.0])


def test_metric_not_spd():
    bad = chart("bad", ["x", "y"], [["x", "1"], ["1", "x"]],
                [(0.0, 2.0), (0.0, 2.0)])
    with pytest.raises(geo.NonSPDError):
        geo.metric_at(bad, [0.5, 1.0])


@pytest.mark.parametrize("rows,lowest", [
    ([["1", "0"], ["0", "-1"]], "-1.000e+00"),
    ([["1", "2"], ["2", "1"]], "-1.000e+00"),
    ([["0"]], "0.000e+00"),
], ids=["diagonal", "off-diagonal", "zero"])
def test_constant_metric_not_spd_rejected_at_construction(rows, lowest):
    coords = ["x", "y"][:len(rows)]
    with pytest.raises(geo.NonSPDError) as err:
        chart("flat", coords, rows, [(0.0, 1.0)] * len(rows))
    assert str(err.value) == (f"metric of chart 'flat' is not positive "
                              f"definite (min eigenvalue {lowest})")


def test_asymmetric_metric_rejected():
    with pytest.raises(geo.GeometryError):
        chart("asym", ["x", "y"], [["1", "x"], ["0", "1"]],
              [(0.1, 1.0), (0.1, 1.0)])


def test_christoffel_flat_zero(rng):
    # a constant metric's vanishing Christoffel symbols are None
    e3 = geo.euclidean_space(3, bounds=[(-5, 5)] * 3)
    for _ in range(100):
        x = rng.uniform(-4, 4, 3)
        assert geo.metric_at(e3, x, 1).christoffel_values is None


def test_christoffel_sphere_value(sphere2):
    gamma = geo.metric_at(sphere2, [np.pi / 3, 0.2], 1).christoffel_values
    expected = -np.sin(np.pi / 3) * np.cos(np.pi / 3)
    assert gamma[0, 1, 1] == pytest.approx(expected, rel=1e-12)
    assert np.allclose(gamma, np.swapaxes(gamma, 1, 2), atol=1e-14)


def test_christoffel_exponential_line(exp_line):
    gamma = geo.metric_at(exp_line, [0.37], 1).christoffel_values
    assert gamma[0, 0, 0] == pytest.approx(1.0, rel=1e-12)


def test_metric_compatibility_via_jets(sphere2, rng):
    # d_k g_ij = Gamma^l_{ki} g_lj + Gamma^l_{kj} g_il
    for _ in range(10):
        x = [rng.uniform(0.3, np.pi - 0.3), rng.uniform(0, 2 * np.pi)]
        met = geo.metric_at(sphere2, x, order=1)
        gamma = met.christoffel_values
        g = met.values
        for k in range(2):
            dg = met.jets.gradient()[k]
            recon = np.einsum("li,lj->ij", gamma[:, k, :], g) \
                + np.einsum("lj,il->ij", gamma[:, k, :], g)
            assert np.allclose(dg, recon, atol=1e-8)


def test_riemann_flat_zero(rng):
    # a constant metric's vanishing curvature is None
    e2 = geo.euclidean_space(2, bounds=[(-5, 5)] * 2)
    x = rng.uniform(-4, 4, 2)
    assert geo.metric_at(e2, x, 2).riemann is None


def test_riemann_sphere_sectional_curvature(sphere2):
    x = [np.pi / 3, 0.7]
    frame = geo.frame_at(sphere2, x)
    met = geo.metric_at(sphere2, x, 2)
    # R(e_0, e_1) e_1
    r = np.einsum("lkij,i,j,k->l", met.riemann, frame[0], frame[1], frame[1])
    assert float(frame[0] @ met.values @ r) == pytest.approx(1.0, rel=1e-10)


def test_riemann_symmetries_on_sphere(sphere2, rng):
    for _ in range(5):
        x = [rng.uniform(0.3, np.pi - 0.3), rng.uniform(0, 2 * np.pi)]
        met = geo.metric_at(sphere2, x, 2)
        g, riem = met.values, met.riemann
        X, Y, Z, W = rng.normal(size=(4, 2))
        rxyz = np.einsum("lkij,i,j,k->l", riem, X, Y, Z)
        ryxz = np.einsum("lkij,i,j,k->l", riem, Y, X, Z)
        assert np.allclose(rxyz, -ryxz, atol=1e-8)
        rxyw = np.einsum("lkij,i,j,k->l", riem, X, Y, W)
        assert float(rxyz @ g @ W + rxyw @ g @ Z) == pytest.approx(0.0, abs=1e-8)
        # first Bianchi identity
        bianchi = (np.einsum("lkij,i,j,k->l", riem, X, Y, Z)
                   + np.einsum("lkij,i,j,k->l", riem, Y, Z, X)
                   + np.einsum("lkij,i,j,k->l", riem, Z, X, Y))
        assert np.allclose(bianchi, 0.0, atol=1e-8)


def test_frame_euclidean_is_coordinate_basis():
    e2 = geo.euclidean_space(2, bounds=[(-5, 5)] * 2)
    assert np.allclose(geo.frame_at(e2, [0.1, 0.2]), np.eye(2))


def test_frame_sphere_normalization(sphere2):
    frame = geo.frame_at(sphere2, [np.pi / 6, 0.0])
    assert np.allclose(frame[0], [1.0, 0.0])
    assert np.allclose(frame[1], [0.0, 1.0 / np.sin(np.pi / 6)])


def test_frame_gram_identity(annulus, rng):
    for _ in range(20):
        x = [rng.uniform(0.6, 1.9), rng.uniform(0, 2 * np.pi)]
        frame = geo.frame_at(annulus, x)
        g = geo.metric_at(annulus, x).values
        assert np.allclose(frame @ g @ frame.T, np.eye(2), atol=1e-10)


def test_scalar_field_operators():
    e2 = geo.euclidean_space(2, coord_names=["x1", "x2"],
                             bounds=[(-5, 5)] * 2)
    f = ex.parse("x1", ["x1", "x2"])
    x = [0.4, 1.2]
    assert np.allclose(geo.gradient(e2, f, x), [1.0, 0.0])
    assert np.allclose(geo.hessian(e2, f, x), 0.0)
    assert geo.laplacian(e2, f, x) == pytest.approx(0.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_laplacian_of_squared_norm(dim):
    coords = [f"x{k + 1}" for k in range(dim)]
    e = geo.euclidean_space(dim, coord_names=coords, bounds=[(-5, 5)] * dim)
    f = ex.parse(" + ".join(f"{c}^2" for c in coords), coords)
    x = [0.3] * dim
    assert geo.laplacian(e, f, x) == pytest.approx(2 * dim, rel=1e-12)


def test_scalar_symphonic_identity_at_unit_point():
    e2 = geo.euclidean_space(2, coord_names=["x1", "x2"],
                             bounds=[(-5, 5)] * 2)
    f = ex.parse("pow(x1^2 + x2^2, 1/3)", ["x1", "x2"])
    x = [1.0, 0.0]
    grad = geo.gradient(e2, f, x)
    hess = geo.hessian(e2, f, x)
    lap = geo.laplacian(e2, f, x)
    residual = lap * float(grad @ grad) + 2 * float(grad @ hess @ grad)
    assert abs(residual) <= 1e-10


def test_wrap_and_contains(torus2):
    assert torus2.contains([10.0, -3.0])
    wrapped = torus2.wrap([2 * np.pi + 0.5, -0.5])
    assert wrapped[0] == pytest.approx(0.5)
    assert wrapped[1] == pytest.approx(2 * np.pi - 0.5)


def test_exclusion_ball():
    plane = charts.punctured_plane_chart(radius=3.0, hole=0.2)
    assert not plane.contains([0.05, 0.05])
    assert plane.contains([1.0, 1.0])
    with pytest.raises(geo.DomainError):
        plane.require_inside([0.0, 0.0])


def test_sample_points_deterministic(sphere2):
    a = sphere2.sample_points(10, np.random.default_rng(5))
    b = sphere2.sample_points(10, np.random.default_rng(5))
    assert a == b
    for p in a:
        assert sphere2.contains(p)


def test_sample_points_gives_up_when_exclusions_cover_the_box():
    # the hole's radius exceeds the box's half-diagonal
    covered = charts.punctured_plane_chart(radius=1.0, hole=1.5)
    with pytest.raises(geo.GeometryError, match="excluded balls cover"):
        covered.sample_points(3, np.random.default_rng(0))


def test_batched_metric_and_frame_match_pointwise(sphere2, rng):
    pts = np.array(sphere2.sample_points(5, rng, shrink=0.05)).T  # (2, 5)
    met = geo.metric_at(sphere2, pts, order=1)
    frames = geo.frame_at(sphere2, pts)
    assert met.values.shape == (2, 2, 5) and frames.shape == (2, 2, 5)
    for k in range(5):
        one = geo.metric_at(sphere2, pts[:, k], order=1)
        assert np.allclose(met.values[..., k], one.values, rtol=1e-15)
        assert np.allclose(met.inverse[..., k], one.inverse, rtol=1e-14)
        assert met.sqrt_det[k] == pytest.approx(one.sqrt_det, rel=1e-15)
        assert np.allclose(frames[..., k],
                           geo.frame_at(sphere2, pts[:, k]),
                           rtol=1e-14)
        gamma = geo.christoffel_jets(met.jets).value
        assert np.allclose(gamma[..., k], one.christoffel_values,
                           rtol=1e-14, atol=1e-15)


def test_batched_scalar_field_operators_match_pointwise(sphere2, rng):
    f = ex.parse("sin(t1) * cos(t2) + t1^2", sphere2.coords)
    pts = np.array(sphere2.sample_points(6, rng, shrink=0.05)).T  # (2, 6)
    grad = geo.gradient(sphere2, f, pts)
    hess = geo.hessian(sphere2, f, pts)
    lap = geo.laplacian(sphere2, f, pts)
    assert grad.shape == (2, 6) and hess.shape == (2, 2, 6)
    assert lap.shape == (6,)
    for k in range(6):
        x = pts[:, k]
        one_grad = geo.gradient(sphere2, f, x)
        one_hess = geo.hessian(sphere2, f, x)
        one_lap = geo.laplacian(sphere2, f, x)
        assert one_grad.shape == (2,) and one_hess.shape == (2, 2)
        assert isinstance(one_lap, float)
        scale = np.abs(one_hess).max()
        assert np.abs(grad[:, k] - one_grad).max() <= 1e-14 * np.abs(
            one_grad).max()
        assert np.abs(hess[..., k] - one_hess).max() <= 1e-14 * scale
        assert abs(lap[k] - one_lap) <= 1e-13 * scale


def test_batched_checks_name_the_first_failing_point(sphere2):
    # points 1 and 3 fail; the batch raises what point 1 alone raises
    pts = np.array([[1.0, 0.01, 1.5, 3.1], [0.5, 1.0, 2.0, 0.5]])
    with pytest.raises(geo.DomainError) as batch_err:
        sphere2.require_inside(pts)
    with pytest.raises(geo.DomainError) as point_err:
        sphere2.require_inside(pts[:, 1])
    assert str(batch_err.value) == str(point_err.value)
    assert batch_err.value.index == 1
    assert list(sphere2.contains(pts)) == [True, False, True, False]

    bad = chart("bad", ["x", "y"], [["x", "1"], ["1", "x"]],
                [(0.0, 2.0), (0.0, 2.0)])
    pts = np.array([[1.5, 0.5, 1.8, 0.2], [1.0, 1.0, 1.0, 1.0]])
    with pytest.raises(geo.NonSPDError) as batch_err:
        geo.metric_at(bad, pts)
    with pytest.raises(geo.NonSPDError) as point_err:
        geo.metric_at(bad, pts[:, 1])
    assert str(batch_err.value) == str(point_err.value)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_metric_at_on_a_constant_chart_is_its_shared_metric(torus2, order):
    shared = geo.constant_metric(torus2)
    pts = np.array([[0.3, 1.2, 2.5], [0.7, 0.1, 4.0]])
    for x in (pts[:, 0], pts):
        met = geo.metric_at(torus2, x, order)
        assert met is shared
        assert met.jets is None and met.christoffel_values is None
    assert geo.frame_at(torus2, pts) is shared.frame
    for arr in (shared.values, shared.inverse, shared.frame):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 2.0


@pytest.mark.parametrize("which,pts", [
    # points 1 and 3 lie in the hole around the origin
    ("punctured-plane", [[1.0, 0.05, 2.0, 0.0], [1.0, -0.1, -1.0, 0.1]]),
    # points 1 and 3 lie beyond either end of [0.5, 4]
    ("interval", [[1.0, 4.5, 2.0, 0.1]]),
])
def test_constant_charts_check_the_domain_first(which, pts):
    """metric_at checks the domain before it gives a constant chart's
    shared metric, and names the first failing point of a batch."""
    model = (charts.punctured_plane_chart() if which == "punctured-plane"
             else charts.interval_chart(0.5, 4.0))
    assert geo.constant_metric(model) is not None
    pts = np.array(pts)
    for order in (0, 1):
        with pytest.raises(geo.DomainError) as batch_err:
            geo.metric_at(model, pts, order)
        assert batch_err.value.index == 1
        with pytest.raises(geo.DomainError) as point_err:
            geo.metric_at(model, pts[:, 1], order)
        assert str(batch_err.value) == str(point_err.value)


@pytest.mark.parametrize("intervals,periodic", [
    ([(None, None)], [True]),      # a periodic side needs both bounds
    ([(2.0, 1.0)], [False]),       # an empty interval
])
def test_degenerate_domains_rejected(intervals, periodic):
    with pytest.raises(geo.GeometryError):
        geo.ManifoldModel("c", ["t"], [[ex.Const(1.0)]], intervals, periodic)


def test_half_bounded_chart_checks_symmetry():
    # the symmetry check samples a non-empty box beyond a lone bound
    c = chart("half", ["x", "y"], [["1", "0.1*x"], ["0.1*x", "1"]],
              [(2.0, None), (None, -3.0)])
    assert c.dim == 2


@pytest.mark.parametrize("which", ["curved-plane", "S^3"])
def test_jet_inverse_and_christoffels_on_a_batch(which, curved_target, rng):
    if which == "S^3":
        model = charts.sphere_chart(3)
        pts = np.array(model.sample_points(6, rng, shrink=0.1)).T
    else:
        model = curved_target
        pts = rng.uniform(-3.0, 3.0, (2, 6))
    # order 2, as in the jet tension's inverse metric and Christoffels
    met = geo.metric_at(model, pts, order=2)
    product = einsum("ij...,jk...->ik...", met.jets,
                     geo.inverse_jets(met.jets)).coeffs
    product[0] -= np.eye(model.dim)[..., None]
    assert np.abs(product).max() <= 1e-13

    # d_s Gamma^k_ij from the metric's first and second partials:
    # Gamma^k_ij = 1/2 g^kl P_lij, P_lij = d_i g_jl + d_j g_il - d_l g_ij
    g_inv, dg, ddg = met.inverse, met.jets.gradient(), met.jets.hessian()
    p = (np.einsum("ijl...->lij...", dg) + np.einsum("jil...->lij...", dg)
         - dg)
    dp = (np.einsum("sijl...->slij...", ddg)
          + np.einsum("sjil...->slij...", ddg) - ddg)
    dginv = -np.einsum("ka...,sab...,bl...->skl...", g_inv, dg, g_inv)
    dgamma = 0.5 * (np.einsum("skl...,lij...->skij...", dginv, p)
                    + np.einsum("kl...,slij...->skij...", g_inv, dp))
    got = geo.christoffel_jets(met.jets).gradient()
    scale = np.abs(dgamma).max()
    assert np.abs(got - dgamma).max() <= 1e-13 * scale
    for k in range(pts.shape[1]):
        one = geo.metric_at(model, pts[:, k], 2).christoffel.gradient()
        assert np.abs(got[..., k] - one).max() <= 1e-13 * scale


def test_jet_tension_names_the_first_non_spd_source_point():
    from symphonic import maps as mp, variational as va
    source = chart("tilted", ["x", "y"], [["1", "0"], ["0", "x"]],
                   [(-1.0, 1.0), (-1.0, 1.0)])
    spec = mp.MapSpec(source, geo.euclidean_space(2),
                      [ex.parse("x*y", source.coords),
                       ex.parse("y", source.coords)])
    pts = np.array([[0.5, -0.5, -0.2], [0.1, 0.2, 0.3]])
    with pytest.raises(geo.NonSPDError, match=r"\[-0\.5, 0\.2\]"):
        va.tau_s_jets(mp.along_map(spec, pts, 4))
    with pytest.raises(geo.NonSPDError, match=r"\[-0\.5, 0\.2\]"):
        va.bi_tension(spec, pts)


@pytest.mark.parametrize("name", ["gradient", "hessian", "laplacian"])
def test_scalar_calculus_evaluates_the_metric_once(monkeypatch, sphere2,
                                                   name):
    calls = []
    inner = geo.metric_at

    def counted(*args, **kwargs):
        calls.append(args[2:] + tuple(kwargs.values()))
        return inner(*args, **kwargs)
    monkeypatch.setattr(geo, "metric_at", counted)
    f = ex.parse("sin(t1)*cos(t2)", sphere2.coords)
    pts = np.array([[1.1, 0.7, 2.0], [0.3, 0.9, 1.4]])
    getattr(geo, name)(sphere2, f, pts)
    assert calls == [(1,)]
