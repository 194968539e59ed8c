import numpy as np
import pytest

from symbolic_oracle import tau_s_dsl_sources
from symphonic import charts, geometry as geo, maps as mp, oracle as orc
from symphonic import variational as va
from symphonic import expr as ex
from symphonic.mesh import build_mesh


@pytest.fixture
def torus_mesh(torus2):
    return build_mesh(torus2, 20)


def test_energy_identity_on_unit_torus():
    chart = charts.torus_chart(2, length=1.0)
    spec = mp.MapSpec(chart, geo.euclidean_space(2),
                      [ex.parse("x1", chart.coords),
                       ex.parse("x2", chart.coords)])
    mesh = build_mesh(chart, 8)
    assert va.symphonic_energy(spec, mesh) == pytest.approx(2.0, rel=1e-12)


def test_energy_constant_map(torus2, torus_mesh):
    spec = mp.MapSpec(torus2, geo.euclidean_space(2),
                      [ex.parse("1", torus2.coords),
                       ex.parse("2", torus2.coords)])
    assert va.symphonic_energy(spec, torus_mesh) == pytest.approx(0.0,
                                                                  abs=1e-14)


def test_energy_sphere_inclusion():
    inc = charts.sphere_inclusion(2)
    mesh = build_mesh(inc.source, 24)
    area = 4 * np.pi * np.cos(charts.POLE_MARGIN)
    assert va.symphonic_energy(inc, mesh) == pytest.approx(2 * area,
                                                           rel=1e-10)


def test_bi_energy_linear_map_zero(torus_mesh):
    lin = charts.linear_torus_map()
    assert va.bi_energy(lin, torus_mesh) == pytest.approx(0.0, abs=1e-20)


def test_bi_energy_power_curve():
    curve = charts.power_curve(4.0 / 3.0, lo=1.0, hi=2.0)
    mesh = build_mesh(curve.source, 32)
    # tau^s of t^(4/3) is the constant 64/27, so the integral over
    # [1, 2] is (64/27)^2 = 4096/729
    assert va.bi_energy(curve, mesh) == pytest.approx(4096 / 729, rel=1e-10)


@pytest.mark.parametrize("m", [2, 3])
def test_bi_energy_sphere(m):
    inc = charts.sphere_inclusion(m)
    mesh = build_mesh(inc.source, 16)
    vol = mesh.integrate(np.ones(len(mesh)))
    assert va.bi_energy(inc, mesh) == pytest.approx(m * m * vol, rel=1e-9)


def test_first_variation_zero_at_symphonic_map(torus_mesh):
    lin = charts.linear_torus_map()
    v = mp.TangentField([ex.parse("sin(x1)", lin.source.coords),
                         ex.parse("cos(x2)", lin.source.coords)])
    assert va.first_variation_pairing(lin, v, torus_mesh) == pytest.approx(
        0.0, abs=1e-12)


def test_first_variation_descent_identity():
    """Choosing the tension itself as the variation field pairs to
    -4 times the bi-energy."""
    curve = charts.power_curve(2.0, lo=0.5, hi=2.0)
    tau_field = mp.TangentField([ex.parse("24*t^2", ["t"])])  # 3 a^3 (a-1) t^2
    mesh = build_mesh(curve.source, 48)
    pairing = va.first_variation_pairing(curve, tau_field, mesh)
    assert pairing == pytest.approx(-4.0 * va.bi_energy(curve, mesh),
                                    rel=1e-10)


def test_jacobi_constant_map_zero(torus2):
    spec = mp.MapSpec(torus2, geo.euclidean_space(2),
                      [ex.parse("1", torus2.coords),
                       ex.parse("0.5", torus2.coords)])
    v = mp.TangentField([ex.parse("sin(x1)", torus2.coords),
                         ex.parse("cos(x2)", torus2.coords)])
    for variant in (va.REDUCED, va.FULL):
        out = va.jacobi_operator(spec, [1.0, 2.0], v, variant=variant)
        assert np.allclose(out, 0.0, atol=1e-14)


def test_jacobi_linearity(rng):
    inc = charts.sphere_inclusion(2)
    coords = inc.source.coords
    v = mp.TangentField([ex.parse("sin(t1)*cos(t2)", coords),
                         ex.parse("t1^2", coords),
                         ex.parse("cos(t2)", coords)])
    w = mp.TangentField([ex.parse("t1*t2", coords),
                         ex.parse("sin(t2)", coords),
                         ex.parse("1", coords)])
    a, b = 1.7, -0.4
    combo = mp.TangentField([
        ex.parse(f"{a!r}*(sin(t1)*cos(t2)) + {b!r}*(t1*t2)", coords),
        ex.parse(f"{a!r}*t1^2 + {b!r}*sin(t2)", coords),
        ex.parse(f"{a!r}*cos(t2) + {b!r}", coords)])
    for variant in (va.REDUCED, va.FULL):
        for x in inc.source.sample_points(5, rng):
            lhs = va.jacobi_operator(inc, x, combo, variant=variant)
            rhs = (a * va.jacobi_operator(inc, x, v, variant=variant)
                   + b * va.jacobi_operator(inc, x, w, variant=variant))
            scale = max(np.max(np.abs(lhs)), 1.0)
            assert np.max(np.abs(lhs - rhs)) / scale <= 1e-9


def test_operator_identity_against_symbolic_tension(rng, annulus,
                                                    curved_target):
    """bi_tension equals the operator applied to an independently
    derived (sympy) tension field, both variants."""
    configs = [
        (annulus, geo.euclidean_space(2),
         [["1", "0"], ["0", "r^2"]], [["1", "0"], ["0", "1"]],
         ["0.5*r^2 + 0.3*sin(th)", "r*cos(th) + 0.2*r"]),
        (charts.torus_chart(2), curved_target,
         [["1", "0"], ["0", "1"]],
         [["1 + 0.3*sin(y1)*cos(y2)", "0.1*sin(y1 + y2)"],
          ["0.1*sin(y1 + y2)", "1 + 0.2*cos(y2)"]],
         ["0.5 + 0.4*sin(x1)", "0.3*cos(x1 + x2)"]),
    ]
    for source, target, g_src, h_src, phi_src in configs:
        coords = source.coords
        tau_sources = tau_s_dsl_sources(coords, target.coords,
                                        g_src, h_src, phi_src)
        spec = mp.MapSpec(source, target,
                          [ex.parse(s, coords) for s in phi_src])
        field = mp.TangentField([ex.parse(s, coords) for s in tau_sources])
        for x in source.sample_points(10, rng):
            ref = field.values(coords, x)
            mine = mp.symphonic_tension(spec, x)
            scale = max(np.max(np.abs(ref)), 1e-12)
            assert np.max(np.abs(mine - ref)) / scale <= 1e-10
            for variant in (va.REDUCED, va.FULL):
                bt = va.bi_tension(spec, x, variant=variant)
                jv = va.jacobi_operator(spec, x, field, variant=variant)
                scale = max(np.max(np.abs(bt)), 1e-12)
                assert np.max(np.abs(bt - jv)) / scale <= 1e-8


def test_power_curve_operator_values():
    curve = charts.power_curve(2.0)
    assert va.bi_tension(curve, [1.0], variant=va.REDUCED)[0] == pytest.approx(
        1344.0, rel=1e-12)
    assert va.bi_tension(curve, [1.0], variant=va.FULL)[0] == pytest.approx(
        1728.0, rel=1e-12)


def test_full_variant_roots_differ():
    """The full operator vanishes on t^(7/5) but not on t^(15/11);
    the reduced operator does the opposite."""
    t = 1.4
    red_15_11 = va.bi_tension(charts.power_curve(15 / 11), [t],
                              variant=va.REDUCED)[0]
    full_15_11 = va.bi_tension(charts.power_curve(15 / 11), [t],
                               variant=va.FULL)[0]
    red_7_5 = va.bi_tension(charts.power_curve(7 / 5), [t],
                            variant=va.REDUCED)[0]
    full_7_5 = va.bi_tension(charts.power_curve(7 / 5), [t],
                             variant=va.FULL)[0]
    assert abs(red_15_11) <= 1e-10
    assert abs(full_15_11) > 1e-3
    assert abs(full_7_5) <= 1e-10
    assert abs(red_7_5) > 1e-3


@pytest.mark.parametrize("m,coeffs", [(2, (8.0, 0.0, 0.0, 4.0)),
                                      (3, (18.0, 0.0, 0.0, 9.0))])
def test_sphere_term_breakdown(m, coeffs):
    groups = va.sphere_term_breakdown(m)
    for (got, _), expected in zip(groups, coeffs):
        assert got == pytest.approx(expected, abs=1e-9)
    # additivity: the four groups sum to the reduced bi-tension
    inc = charts.sphere_inclusion(m)
    x = [0.5 * (lo + hi) for lo, hi in inc.source.intervals]
    x[-1] = 1.0
    total = sum(vec for _, vec in groups)
    assert np.allclose(total, va.bi_tension(inc, x, variant=va.REDUCED),
                       atol=1e-9)
    assert np.allclose(total, 3 * m * m * inc.value(x), atol=1e-9)


def test_index_form_symmetry_at_linear_map(torus_mesh):
    lin = charts.linear_torus_map()
    coords = lin.source.coords
    v = mp.TangentField([ex.parse("0.7*sin(x1)*cos(x2)", coords),
                         ex.parse("0.4*cos(x1 + x2)", coords)])
    w = mp.TangentField([ex.parse("0.5*sin(x1)*cos(x2) + 0.2*sin(x2)", coords),
                         ex.parse("0.3*cos(x1 + x2)", coords)])
    s_vw = va.index_form_pairing(lin, v, w, torus_mesh, variant=va.FULL)
    s_wv = va.index_form_pairing(lin, w, v, torus_mesh, variant=va.FULL)
    assert abs(s_vw - s_wv) / max(abs(s_vw), 1e-300) <= 1e-6


def test_bad_variant_rejected(torus2):
    lin = charts.linear_torus_map()
    with pytest.raises(ValueError):
        va.bi_tension(lin, [1.0, 1.0], variant="bogus")


def test_kernels_accept_trailing_batch_axes(annulus, curved_target, rng):
    """tau_s, energy_density and jacobi_groups on points stacked along a
    trailing axis give the per-point results."""
    spec = mp.MapSpec(annulus, curved_target,
                      [ex.parse("0.5*r^2 + 0.3*sin(th)", annulus.coords),
                       ex.parse("r*cos(th)", annulus.coords)])
    field = mp.TangentField([ex.parse("sin(r)*cos(th)", annulus.coords),
                             ex.parse("r^2 + sin(th)", annulus.coords)])
    per_point = []
    for x in annulus.sample_points(6, rng):
        t = mp.map_tables(spec, x)
        ctx = mp.along_map(spec, x, 3)  # target jets of order 2
        v, dv, ddv = va.field_covariant_data(
            ctx, field.jets(annulus.coords, x, 2))
        gi = t.frame.T @ t.frame
        per_point.append(((gi, t.h, t.d1, t.sff, v, dv, ddv,
                           ctx.target.riemann), t.frame))
    assert np.abs(per_point[0][0][7]).max() > 1e-3  # the target is curved
    args = [np.stack(arrays, axis=-1) for arrays in zip(*[a for a, _ in per_point])]
    frames = np.stack([f for _, f in per_point], axis=-1)

    def close(batched, single):
        scale = max(np.abs(single).max(), 1e-300)
        assert np.abs(batched - single).max() <= 1e-14 * scale

    tau = mp.tau_s(*args[:4])
    dens = mp.energy_density(frames, args[1], args[2])
    groups = va.jacobi_groups(*args)
    assert tau.shape == (2, 6) and dens.shape == (6,)
    for k, (a, frame) in enumerate(per_point):
        close(tau[..., k], mp.tau_s(*a[:4]))
        close(dens[k], mp.energy_density(frame, a[1], a[2]))
        single = va.jacobi_groups(*a)
        largest = max(np.abs(g).max() for g in single.values())
        for name, g in single.items():
            assert np.abs(groups[name][..., k] - g).max() <= 1e-14 * largest


def test_group_d_curvature_term_against_loops(rng):
    """The curvature part of group D is
    sum_ij h(dphi e_i, dphi e_j) R^N(v, dphi e_j) dphi e_i, with
    R(X, Y)Z = R^a_{bcd} Z^b X^c Y^d as in geometry.riemann; checked
    frame sum by frame sum on a random tensor."""
    m, n = 2, 3
    a = rng.normal(size=(m, m))
    E = geo.gram_schmidt(a @ a.T + m * np.eye(m))
    b = rng.normal(size=(n, n))
    h = b @ b.T + n * np.eye(n)
    d1 = rng.normal(size=(m, n))
    sff = rng.normal(size=(m, m, n))
    sff = sff + sff.transpose(1, 0, 2)
    v = rng.normal(size=n)
    dv = rng.normal(size=(m, n))
    ddv = rng.normal(size=(m, m, n))
    riem = rng.normal(size=(n, n, n, n))
    args = (E.T @ E, h, d1, sff, v, dv, ddv)
    got = va.jacobi_groups(*args, riem)["D"] - va.jacobi_groups(*args)["D"]

    dphi = E @ d1                                   # rows dphi(e_i)
    ref = np.zeros(n)
    for i in range(m):
        for j in range(m):
            hij = dphi[i] @ h @ dphi[j]
            for a_ in range(n):
                for b_ in range(n):
                    for c in range(n):
                        for d in range(n):
                            ref[a_] += (hij * riem[a_, b_, c, d] * dphi[i, b_]
                                        * v[c] * dphi[j, d])
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_bi_energy_constant_on_curved_target_matches_flat(curved_target, rng):
    """FD(E2) / int h(v, tau2_full) is one constant for every map: on the
    curved target it matches the flat-target value to 1e-6 (a
    mis-contracted curvature term moves it by about 1e-4)."""
    chart = charts.torus_chart(2)
    coords = chart.coords
    mesh = build_mesh(chart, 16)
    flat = geo.euclidean_space(2, coord_names=["y1", "y2"])

    def constant(target, c):
        spec = mp.MapSpec(chart, target, [
            ex.parse(f"{c[0]} + {c[1]}*sin(x1) + {c[2]}*cos(x2)", coords),
            ex.parse(f"{c[3]}*cos(x1 + x2) + {c[4]}*sin(x2)", coords)])
        v = mp.TangentField([
            ex.parse(f"{c[5]}*sin(x1)*cos(x2)", coords),
            ex.parse(f"{c[6]}*cos(x1 + x2) + {c[7]}*sin(x1)", coords)])
        fd = orc.fd_first_variation(spec, v, mesh, 1e-3,
                                    energy=orc.ENERGY_BISYM)
        pairing = mesh.integrate([
            float(v.values(coords, p) @ mp.map_tables(spec, p).h
                  @ va.bi_tension(spec, p, variant=va.FULL))
            for p in mesh.points])
        return fd / pairing

    coeffs = [[round(x, 3) for x in rng.uniform(0.15, 0.45, 8)]
              for _ in range(3)]
    reference = constant(flat, coeffs[0])
    for c in coeffs:
        assert constant(curved_target, c) == pytest.approx(reference,
                                                           rel=1e-6)


@pytest.mark.parametrize("curved", [False, True],
                         ids=["flat-target", "curved-target"])
def test_mesh_integrals_equal_sums_of_pointwise_values(curved,
                                                       curved_target):
    """Each mesh integral is one batched call over all nodes; it equals
    the pairwise sum of the pointwise values at the nodes."""
    chart = charts.torus_chart(2)
    coords = chart.coords
    target = (curved_target if curved
              else geo.euclidean_space(2, coord_names=["y1", "y2"]))
    spec = mp.MapSpec(chart, target, [
        ex.parse("x1 + 0.3*x2 + 0.2*sin(x1)", coords),
        ex.parse("-0.2*x1 + 1.1*x2 + 0.2*cos(x2)", coords)])
    v = mp.TangentField([ex.parse("0.7*sin(x1)*cos(x2)", coords),
                         ex.parse("0.4*cos(x1 + x2)", coords)])
    w = mp.TangentField([ex.parse("0.5*sin(x1)*cos(x2) + 0.2*sin(x2)",
                                  coords),
                         ex.parse("0.3*cos(x1 + x2)", coords)])
    mesh = build_mesh(chart, 6)
    nodes = {key: [] for key in ("energy", "bi-energy", "first", "bi",
                                 "index")}
    for p in mesh.points:
        h = mp.map_tables(spec, p).h
        tau = mp.symphonic_tension(spec, p)
        nodes["energy"].append(mp.symphonic_energy_density(spec, p))
        nodes["bi-energy"].append(tau @ h @ tau)
        nodes["first"].append(tau @ h @ v.values(coords, p))
        nodes["bi"].append(v.values(coords, p) @ h
                           @ va.bi_tension(spec, p, variant=va.FULL))
        nodes["index"].append(va.jacobi_operator(spec, p, v, variant=va.FULL)
                              @ h @ w.values(coords, p))
    scale = {"energy": 1.0, "bi-energy": 1.0, "first": -4.0, "bi": -1.0,
             "index": -4.0}
    got = {"energy": va.symphonic_energy(spec, mesh),
           "bi-energy": va.bi_energy(spec, mesh),
           "first": va.first_variation_pairing(spec, v, mesh),
           "bi": va.bi_variation_pairing(spec, v, mesh, variant=va.FULL),
           "index": va.index_form_pairing(spec, v, w, mesh,
                                          variant=va.FULL)}
    for key, values in nodes.items():
        expected = scale[key] * mesh.integrate(values)
        assert abs(got[key] - expected) <= 1e-13 * abs(expected), key


def test_batched_operators_match_pointwise(rng):
    """bi_tension and jacobi_operator over a batch of points (here with
    a rotated frame at each point) equal the pointwise calls."""
    inc = charts.sphere_inclusion(3)
    field = mp.TangentField([ex.parse("sin(t1)*cos(t3)", inc.source.coords)]
                            + list(inc.components[1:]))
    pts = np.array(inc.source.sample_points(4, rng, shrink=0.05)).T
    frames = []
    for k in range(pts.shape[1]):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        frames.append(q @ geo.frame_at(inc.source, pts[:, k]))
    frames = np.stack(frames, axis=-1)
    for variant in (va.REDUCED, va.FULL):
        bi = va.bi_tension(inc, pts, variant=variant, frame=frames)
        jac = va.jacobi_operator(inc, pts, field, variant=variant,
                                 frame=frames)
        for k in range(pts.shape[1]):
            for got, ref in (
                    (bi[:, k], va.bi_tension(inc, pts[:, k], variant=variant,
                                             frame=frames[..., k])),
                    (jac[:, k], va.jacobi_operator(inc, pts[:, k], field,
                                                   variant=variant,
                                                   frame=frames[..., k]))):
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("which,op,expected", [
    ("torus-curved", "bi_tension",
     {"metric": 1, "christoffel_jets": 1, "compose": 2}),
    ("torus-curved", "jacobi_operator",
     {"metric": 1, "christoffel_jets": 1, "compose": 1}),
    ("S^2", "bi_tension",
     {"metric": 1, "christoffel_jets": 1, "compose": 0}),
    ("torus-curved", "bi_variation_pairing",
     {"metric": 1, "christoffel_jets": 1, "compose": 2}),
    ("torus-curved", "index_form_pairing",
     {"metric": 1, "christoffel_jets": 1, "compose": 1}),
    ("S^2", "bi_variation_pairing",
     {"metric": 1, "christoffel_jets": 1, "compose": 0}),
    ("S^2", "index_form_pairing",
     {"metric": 1, "christoffel_jets": 1, "compose": 0}),
    ("torus-curved", "scalar_symphonic_residual",
     {"metric": 0, "christoffel_jets": 0, "compose": 0}),
    ("S^2", "scalar_symphonic_residual",
     {"metric": 1, "christoffel_jets": 1, "compose": 0}),
    ("torus-curved", "symphonic_energy",
     {"metric": 1, "christoffel_jets": 0, "compose": 0}),
    ("torus-curved", "bi_energy",
     {"metric": 1, "christoffel_jets": 1, "compose": 0}),
    ("S^2", "symphonic_energy",
     {"metric": 1, "christoffel_jets": 0, "compose": 0}),
    ("S^2", "bi_energy",
     {"metric": 1, "christoffel_jets": 1, "compose": 0}),
    ("torus-curved", "symphonic_energy_density",
     {"metric": 1, "christoffel_jets": 0, "compose": 0}),
    ("S^2", "symphonic_energy_density",
     {"metric": 1, "christoffel_jets": 0, "compose": 0}),
])
def test_each_metric_is_evaluated_once_per_call(monkeypatch, curved_target,
                                                which, op, expected):
    """One operator call, at one point or over a 6x6 mesh, evaluates the
    source metric once at x and the target metric once at phi(x), and
    composes each target jet array with the map at most once; a pairing
    reads h from its operator's evaluation, and the symphonic energy and
    its pointwise density compute no Christoffel symbols.  The flat
    torus source is never evaluated (neither metric_jets nor
    metric_values runs for it): metric_at gives the chart's shared
    constant metric, so the scalar residual on the torus evaluates no
    metric at all."""
    if which == "S^2":
        spec = charts.sphere_inclusion(2)
        x = [1.1, 0.7]
    else:
        tor = charts.torus_chart(2)
        spec = mp.MapSpec(tor, curved_target, [
            ex.parse("x1 + 0.3*sin(x2)", tor.coords),
            ex.parse("x2 - 0.2*cos(x1)", tor.coords)])
        x = [0.4, 1.3]
    coords = spec.source.coords
    field = mp.TangentField(
        [ex.parse(f"sin({coords[0]})", coords)]
        + [ex.parse(f"cos({coords[1]})", coords)] * (spec.target.dim - 1))
    mesh = build_mesh(spec.source, 6)
    counts = dict.fromkeys(expected, 0)

    def counted(owner, name, key=None):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key or name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    # a metric evaluation is metric_jets or metric_values; metric_at
    # makes neither on a chart with a constant metric
    counted(geo, "metric_jets", "metric")
    counted(geo, "metric_values", "metric")
    counted(geo, "christoffel_jets")
    counted(mp, "compose")  # the binding the context calls
    if op == "bi_tension":
        va.bi_tension(spec, x)
    elif op == "jacobi_operator":
        va.jacobi_operator(spec, x, field)
    elif op == "bi_variation_pairing":
        va.bi_variation_pairing(spec, field, mesh)
    elif op == "index_form_pairing":
        va.index_form_pairing(spec, field, field, mesh)
    elif op == "symphonic_energy":
        va.symphonic_energy(spec, mesh)
    elif op == "bi_energy":
        va.bi_energy(spec, mesh)
    elif op == "symphonic_energy_density":
        mp.symphonic_energy_density(spec, x)
    else:
        mp.scalar_symphonic_residual(
            spec.source, ex.parse(f"sin({coords[0]})*{coords[1]}", coords), x)
    assert counts == expected


def _identity_inputs(rng, curved_target):
    """(spec, points, field): the four maps of the catalog's operator
    identity with their closed-form tension fields, and a torus into
    the curved plane with a trigonometric field."""
    out = []
    for a in (2.0, 1.7):
        coeff = 3 * a ** 3 * (a - 1)
        out.append((charts.power_curve(a), rng.uniform(0.6, 3.5, (1, 6)),
                    mp.TangentField([ex.parse(
                        f"{coeff!r} * pow(t, {3 * a - 4!r})", ["t"])])))
    for m in (2, 3):
        inc = charts.sphere_inclusion(m)
        out.append((inc, np.array(inc.source.sample_points(6, rng)).T,
                    mp.TangentField([
                        ex.parse(f"-{m} * ({s})", inc.source.coords)
                        for s in charts.sphere_embedding_sources(m)])))
    tor = charts.torus_chart(2)
    out.append((mp.MapSpec(tor, curved_target, [
        ex.parse("x1 + 0.3*sin(x2)", tor.coords),
        ex.parse("x2 - 0.2*cos(x1)", tor.coords)]),
        rng.uniform(0.0, 2 * np.pi, (2, 6)),
        mp.TangentField([ex.parse("0.7*sin(x1)*cos(x2)", tor.coords),
                         ex.parse("0.4*cos(x1 + x2)", tor.coords)])))
    return out


def test_bi_tension_context_serves_the_jacobi_operator(rng, curved_target):
    """The Jacobi groups of a field on a bi-tension context (component
    jets of order 4) equal those on the operator's own order-3 context
    bit for bit, and so do both variants and the tension."""
    for spec, x, field in _identity_inputs(rng, curved_target):
        ctx, _ = va.bi_tension_at(spec, x)
        shared = va.field_groups(
            ctx, field.jets(spec.source.coords, ctx.x, 2))
        _, own = va.jacobi_at(spec, x, field)
        assert shared.keys() == own.keys()
        for name in own:
            assert np.array_equal(shared[name], own[name]), name
        for variant in (va.REDUCED, va.FULL):
            assert np.array_equal(
                va.assemble(shared, variant),
                va.jacobi_operator(spec, x, field, variant=variant))
        assert np.array_equal(
            mp.tau_s_from_tables(mp.tables_from_jets(ctx)),
            mp.tau_s_from_tables(mp.map_tables(spec, x)))


def test_constant_source_matches_its_per_point_evaluation():
    """The torus test map on a chart whose metric text 1 + 0*x1 is not
    constant, so that its context evaluates the metric per point with
    vanishing Christoffel jets, gives the shared-metric path's tension,
    bi-tension and Jacobi operator (both variants) and both energies to
    within 1e-15 of the largest entry."""
    flat = charts.torus_test_map()
    coords = flat.source.coords
    per_point = geo.ManifoldModel(
        "torus2-per-point", coords,
        [[ex.parse("1 + 0*x1", coords), ex.parse("0", coords)],
         [ex.parse("0", coords), ex.parse("1", coords)]],
        flat.source.intervals, periodic=flat.source.periodic)
    assert geo.constant_metric(flat.source) is not None
    assert geo.constant_metric(per_point) is None
    spec = mp.MapSpec(per_point, flat.target, flat.components)
    field = charts.torus_test_fields()["v"]
    x = np.random.default_rng(5).uniform(0.0, 2 * np.pi, (2, 8))

    def close(got, ref):
        scale = np.abs(ref).max()
        assert scale > 0.0
        assert np.abs(got - ref).max() <= 1e-15 * scale

    close(mp.symphonic_tension(spec, x), mp.symphonic_tension(flat, x))
    for variant in (va.REDUCED, va.FULL):
        close(va.bi_tension(spec, x, variant=variant),
              va.bi_tension(flat, x, variant=variant))
        close(va.jacobi_operator(spec, x, field, variant=variant),
              va.jacobi_operator(flat, x, field, variant=variant))
    mesh = build_mesh(flat.source, 8)
    close(va.symphonic_energy(spec, mesh), va.symphonic_energy(flat, mesh))
    close(va.bi_energy(spec, mesh), va.bi_energy(flat, mesh))
