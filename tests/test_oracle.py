import math

import numpy as np
import pytest

from symphonic import charts, geometry as geo, maps as mp, oracle as orc
from symphonic import expr as ex
from symphonic import variational as va
from symphonic.mesh import build_mesh


@pytest.fixture
def torus_fields(torus2):
    coords = torus2.coords
    v = mp.TangentField([ex.parse("0.7*sin(x1)*cos(x2)", coords),
                         ex.parse("0.4*cos(x1 + x2)", coords)])
    w = mp.TangentField([ex.parse("0.5*sin(x1)*cos(x2) + 0.2*sin(x2)", coords),
                         ex.parse("0.3*cos(x1 + x2)", coords)])
    return v, w


def test_deformation_velocity_is_exactly_the_field(torus2, torus_fields):
    """Coordinate-additive rule: d/dt of the deformed coordinates at
    t = 0 equals the field values with no truncation error."""
    spec = charts.torus_test_map()
    v, _ = torus_fields
    x = [1.2, 0.7]
    t = 1e-3
    base = spec.component_jets(x, 1)
    vj = v.jets(torus2.coords, x, 1)
    plus = base + t * vj
    velocity = (plus.value - base.value) / t
    assert np.allclose(velocity, v.values(torus2.coords, x), rtol=1e-12)


def test_fd_first_variation_zero_at_symphonic(torus_fields):
    lin = charts.linear_torus_map()
    mesh = build_mesh(lin.source, 16)
    v, _ = torus_fields
    assert abs(orc.fd_first_variation(lin, v, mesh, 1e-3)) <= 1e-8


def test_fd_first_variation_matches_pairing(torus_fields):
    spec = charts.torus_test_map()
    mesh = build_mesh(spec.source, 20)
    v, _ = torus_fields
    fd = orc.fd_first_variation(spec, v, mesh, 1e-3)
    an = va.first_variation_pairing(spec, v, mesh)
    assert abs(fd - an) / abs(an) <= 1e-4


def test_fd_first_variation_curved_target(curved_target, torus2,
                                          torus_fields):
    coords = torus2.coords
    spec = mp.MapSpec(torus2, curved_target,
                      [ex.parse("0.5 + 0.4*sin(x1) + 0.2*cos(x2)", coords),
                       ex.parse("0.3*cos(x1 + x2) + 0.3*sin(x2)", coords)])
    mesh = build_mesh(torus2, 20)
    v, _ = torus_fields
    fd = orc.fd_first_variation(spec, v, mesh, 1e-3)
    an = va.first_variation_pairing(spec, v, mesh)
    assert abs(fd - an) / abs(an) <= 1e-6


def test_fd_second_variation_bilinear_zero(torus_fields):
    lin = charts.linear_torus_map()
    mesh = build_mesh(lin.source, 12)
    v, _ = torus_fields
    zero = mp.TangentField([ex.parse("0", lin.source.coords),
                            ex.parse("0", lin.source.coords)])
    assert orc.fd_second_variation(lin, v, zero, mesh, 1e-2) == pytest.approx(
        0.0, abs=1e-12)
    assert orc.fd_second_variation(lin, zero, v, mesh, 1e-2) == pytest.approx(
        0.0, abs=1e-12)


def test_fd_second_variation_symmetry(torus_fields):
    lin = charts.linear_torus_map()
    mesh = build_mesh(lin.source, 12)
    v, w = torus_fields
    a = orc.fd_second_variation(lin, v, w, mesh, 1e-2)
    b = orc.fd_second_variation(lin, w, v, mesh, 1e-2)
    assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


def test_fd_second_variation_matches_index_form(torus_fields):
    lin = charts.linear_torus_map()
    mesh = build_mesh(lin.source, 20)
    v, w = torus_fields
    fd = orc.fd_second_variation(lin, v, w, mesh, 1e-2)
    an = va.index_form_pairing(lin, v, w, mesh, variant=va.FULL)
    assert abs(fd - an) / abs(fd) <= 1e-3


def test_bi_energy_stationary_at_four_thirds_curve():
    """t^(4/3) annihilates both operator variants, so the true first
    variation of the bi-energy vanishes there too.  The window is only
    C^4, so the quadrature needs a fine 1-d rule to reach 1e-6."""
    curve = charts.power_curve(4.0 / 3.0, lo=0.5, hi=4.0)
    mesh = build_mesh(curve.source, 400)
    v = mp.TangentField([ex.parse("1 + 0.3*sin(t)", ["t"])],
                        bump_center=[2.2], bump_radius=1.5)
    fd = orc.fd_first_variation(curve, v, mesh, 1e-3,
                                energy=orc.ENERGY_BISYM)
    assert abs(fd) <= 1e-6


def test_step_too_large_error():
    interval = charts.interval_chart(0.5, 1.4)
    tight = geo.euclidean_space(1, bounds=[(0.0, 2.05)])
    spec = mp.MapSpec(interval, tight, [ex.parse("t^2", ["t"])])
    mesh = build_mesh(interval, 16)
    v = mp.TangentField([ex.parse("1", ["t"])])
    with pytest.raises(orc.StepTooLargeError):
        orc.fd_first_variation(spec, v, mesh, 0.2)


def test_sym_step_into_non_spd_target_region_raises(torus2):
    """The sym energy of a deformed map checks the target metric at the
    image points as every other path does: a step to y1 < 0 under the
    metric diag(y1, 1) is a NonSPDError, not an energy value."""
    cc = ["y1", "y2"]
    target = geo.ManifoldModel(
        "degenerate", cc,
        [[ex.parse("y1", cc), ex.parse("0", cc)],
         [ex.parse("0", cc), ex.parse("1", cc)]],
        [(None, None), (None, None)])
    coords = torus2.coords
    spec = mp.MapSpec(torus2, target, [ex.parse("0.05 + 0.01*sin(x1)", coords),
                                       ex.parse("x2", coords)])
    v = mp.TangentField([ex.parse("-1", coords), ex.parse("0", coords)])
    mesh = build_mesh(torus2, 8)
    with pytest.raises(geo.NonSPDError):
        orc.fd_first_variation(spec, v, mesh, 0.1)


def test_richardson_order_on_smooth_function():
    # 4-point first-derivative stencil on exp at 0
    def stencil(h):
        return (-math.exp(2 * h) + 8 * math.exp(h)
                - 8 * math.exp(-h) + math.exp(-2 * h)) / (12 * h)

    vals = [stencil(0.4 / 2 ** k) for k in range(3)]
    order = orc.richardson_order(*vals)
    assert order == pytest.approx(4.0, abs=0.3)


def test_richardson_order_mixed_stencil(torus_fields):
    lin = charts.linear_torus_map()
    mesh = build_mesh(lin.source, 12)
    v, w = torus_fields
    vals = [orc.fd_second_variation(lin, v, w, mesh, 0.4 / 2 ** k)
            for k in range(3)]
    order = orc.richardson_order(*vals)
    assert order == pytest.approx(2.0, abs=0.3)


def test_richardson_order_degenerate():
    assert orc.richardson_order(1.0, 1.0, 1.0) is None


def test_step_halving_monotonicity(curved_target, torus2, torus_fields):
    coords = torus2.coords
    spec = mp.MapSpec(torus2, curved_target,
                      [ex.parse("0.5 + 0.4*sin(x1) + 0.2*cos(x2)", coords),
                       ex.parse("0.3*cos(x1 + x2) + 0.3*sin(x2)", coords)])
    mesh = build_mesh(torus2, 16)
    v, _ = torus_fields
    exact = va.first_variation_pairing(spec, v, mesh)
    errs = [abs(orc.fd_first_variation(spec, v, mesh, 0.4 / 2 ** k) - exact)
            for k in range(4)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("energy,expected", [(orc.ENERGY_SYM, 0),
                                             (orc.ENERGY_BISYM, 1)])
def test_energy_fn_builds_source_christoffels_once_if_read(
        monkeypatch, annulus, torus_fields, energy, expected):
    """The sym energy reads only the frame and the component jets, so it
    builds no Christoffel jets; the bi-energy's stencil values share the
    source's one set on a varying source (an annulus into the flat
    plane), and build none on the torus test map, whose flat source and
    target contexts hold their charts' shared constant metrics."""
    coords = annulus.coords
    annulus_map = mp.MapSpec(annulus, geo.euclidean_space(2),
                             [ex.parse("r*cos(th)", coords),
                              ex.parse("r*sin(th) + 0.1*r^2", coords)])
    annulus_fields = (mp.TangentField([ex.parse("0.3*sin(th)", coords),
                                       ex.parse("0.2*r*cos(th)", coords)]),
                      mp.TangentField([ex.parse("0.1*r", coords),
                                       ex.parse("0.2*sin(2*th)", coords)]))
    calls = []
    inner = geo.christoffel_jets
    monkeypatch.setattr(geo, "christoffel_jets",
                        lambda jets: calls.append(1) or inner(jets))
    for spec, (v, w), want in ((charts.torus_test_map(), torus_fields, 0),
                               (annulus_map, annulus_fields, expected)):
        mesh = build_mesh(spec.source, 6)
        calls.clear()
        fn = orc.Deformation(spec, v, w).energy_fn(mesh, energy)
        for s, t in ((0.0, 0.0), (1e-3, 0.0), (0.0, -1e-3), (1e-3, 1e-3)):
            fn(s, t)
        assert len(calls) == want, spec.source.name
