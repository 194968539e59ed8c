import numpy as np
import pytest

from symphonic import cases, charts, geometry as geo
from symphonic import expr as ex
from symphonic import maps as mp
from symphonic import variational as va
from symphonic.mesh import build_mesh

# The batched cases against a point-by-point reference loop, at each
# case's own sample points: the draws below repeat the cases' draws for
# this seed, in the same order.
SEED = 1


@pytest.mark.parametrize("name", ["scalar-symphonic", "power-curves",
                                  "sphere-inclusion-2", "sphere-inclusion-3"])
def test_case_passes(name):
    result = cases.run_case(name)
    failed = [c.name for c in result.checks if not c.passed]
    assert result.passed, f"failed checks: {failed}"


def test_sphere_4_passes():
    result = cases.run_case("sphere-inclusion-4")
    assert result.passed


def test_variation_case_passes_and_reports_constant():
    result = cases.run_case("variation-formulas")
    assert result.passed
    constant = result.extra["bi_variation_measured_constant"]
    assert constant == pytest.approx(-2.0, rel=1e-3)


def test_case_deterministic_for_fixed_seed():
    a = cases.run_case("scalar-symphonic", seed=123)
    b = cases.run_case("scalar-symphonic", seed=123)
    assert a.to_dict() == b.to_dict()


def test_case_seed_changes_samples():
    a = cases.run_case("scalar-symphonic", seed=1)
    b = cases.run_case("scalar-symphonic", seed=2)
    measured_a = [c.measured for c in a.checks]
    measured_b = [c.measured for c in b.checks]
    assert measured_a != measured_b
    assert a.passed and b.passed


def test_each_case_has_negative_control():
    for name in cases.CASES:
        result = cases.run_case(name)
        controls = [c for c in result.checks
                    if "negative-control" in c.name]
        assert controls, f"case {name} lacks a negative control"
        assert all(c.kind == "lower" or c.kind == "eq" for c in controls)


def test_overall_pass_iff_all_checks():
    result = cases.run_case("power-curves")
    assert result.passed == all(c.passed for c in result.checks)
    result.checks[0] = cases.check_upper("forced", 1.0, 1e-9)
    assert not result.passed


def test_tolerance_scaling():
    result = cases.run_case("scalar-symphonic")
    # shrinking tolerances hard makes the near-zero residual checks fail
    assert not result.passed_at(1e-20)
    assert result.passed_at(1.0)


def test_unknown_case_rejected():
    with pytest.raises(KeyError):
        cases.run_case("nope")


def test_power_curve_closed_form_roots():
    for a in (4.0 / 3.0, 15.0 / 11.0):
        assert cases.power_curve_closed_form(a, 1.7) == pytest.approx(
            0.0, abs=1e-12)
    assert cases.power_curve_closed_form(2.0, 1.0) == pytest.approx(448.0)
    assert cases.power_curve_ode_residual(2.0, 1.0) == pytest.approx(448.0)


def assert_matches_loop(batched, pointwise, scales, rtol):
    """batched (..., k) against the pointwise values, point k to within
    rtol times scales[k]."""
    for k, (ref, scale) in enumerate(zip(pointwise, scales)):
        err = float(np.abs(np.asarray(batched)[..., k] - ref).max())
        assert err <= rtol * scale, f"point {k}: {err:.3e} > {rtol} * {scale:.3e}"


def assert_groups_match_loop(spec, x, pts, floor=0.0):
    """bi_tension_groups over the batch x against one call per point, to
    1e-10 relative to the point's largest group (at least floor)."""
    batched = va.bi_tension_groups(spec, x)
    for k, p in enumerate(pts):
        ref = va.bi_tension_groups(spec, p)
        scale = max([floor] + [float(np.linalg.norm(g)) for g in ref.values()])
        for name, g in ref.items():
            err = float(np.abs(batched[name][:, k] - g).max())
            assert err <= 1e-10 * scale, f"group {name} at point {k}"


def norms(vectors):
    return [float(np.linalg.norm(v)) for v in vectors]


def test_scalar_symphonic_batch_matches_pointwise_loop():
    plane = charts.punctured_plane_chart(radius=3.5, hole=0.1)
    f = ex.parse("pow(x1^2 + x2^2, 1/3)", plane.coords)
    f_wrong = ex.parse("pow(x1^2 + x2^2, 0.34)", plane.coords)
    f_map = mp.MapSpec(plane, geo.euclidean_space(1), [f])
    pts = cases._annulus_points(50, np.random.default_rng(SEED))
    x = pts.T
    lap, res, res_wrong, tau, terms = [], [], [], [], []
    for p in pts:
        grad = geo.gradient(plane, f, p)
        hess = geo.hessian(plane, f, p)
        lap.append(geo.laplacian(plane, f, p))
        g = geo.metric_at(plane, p).values
        # the residual and the tension vanish: their terms set the scale
        terms.append(abs(lap[-1]) * float(grad @ g @ grad)
                     + 2.0 * abs(float(grad @ hess @ grad)))
        res.append(mp.scalar_symphonic_residual(plane, f, p))
        res_wrong.append(mp.scalar_symphonic_residual(plane, f_wrong, p))
        tau.append(mp.symphonic_tension(f_map, p))
    assert_matches_loop(geo.laplacian(plane, f, x), lap, np.abs(lap), 1e-12)
    assert_matches_loop(mp.scalar_symphonic_residual(plane, f, x), res,
                        terms, 1e-12)
    assert_matches_loop(mp.scalar_symphonic_residual(plane, f_wrong, x),
                        res_wrong, np.abs(res_wrong), 1e-12)
    assert_matches_loop(mp.symphonic_tension(f_map, x), tau, terms, 1e-12)
    # the case reduces the same values over the same points
    result = {c.name: c.measured
              for c in cases.run_case("scalar-symphonic", seed=SEED).checks}
    assert result["laplacian-min (non-harmonic)"] == pytest.approx(
        min(np.abs(lap)), rel=1e-12)
    assert result["negative-control exponent 0.34"] == pytest.approx(
        min(np.abs(res_wrong)), rel=1e-12)


def test_power_curves_batch_matches_pointwise_loop():
    rng = np.random.default_rng(SEED)
    ts = rng.uniform(0.5, 4.0, 50)
    ctrl_ts = rng.uniform(0.5, 4.0, 10)
    result = {c.name: c.measured
              for c in cases.run_case("power-curves", seed=SEED).checks}
    for a, t, label in ((4.0 / 3.0, ts, "4/3"), (15.0 / 11.0, ts, "15/11"),
                        (1.2, ctrl_ts, None), (2.0, ctrl_ts, None),
                        (3.0, ctrl_ts, None)):
        curve = charts.power_curve(a)
        pts = [[s] for s in t]
        tau = [mp.symphonic_tension(curve, p) for p in pts]
        assert_matches_loop(mp.symphonic_tension(curve, [t]), tau,
                            norms(tau), 1e-12)
        # tau^s of t^(4/3) is constant, so each of its groups vanishes
        # and only rounding is left to compare: take unit scale there
        assert_groups_match_loop(curve, [t], pts,
                                 floor=1.0 if a == 4.0 / 3.0 else 0.0)
        if label is not None:
            # the case reduces the same values over the same points
            assert result[f"tension-min a={label} (non-symphonic)"] == \
                pytest.approx(min(norms(tau)), rel=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sphere_inclusion_batch_matches_pointwise_loop(m):
    rng = np.random.default_rng(SEED)
    inc = charts.sphere_inclusion(m)
    pts = inc.source.sample_points(50, rng)
    draws = rng.normal(size=(50, 2, m))
    x = np.array(pts).T
    t = mp.map_tables(inc, x)
    X = np.einsum("ki,ijk->jk", draws[:, 0], t.frame)
    Y = np.einsum("ki,ijk->jk", draws[:, 1], t.frame)
    tau, sff, sff_scale = [], [], []
    for p, (a, b) in zip(pts, draws):
        frame = geo.frame_at(inc.source, p)
        tau.append(mp.symphonic_tension(inc, p))
        sff.append(mp.second_fundamental_form(inc, p, a @ frame, b @ frame))
        # |(nabla dphi)(X, Y)| <= |X| |Y| on the unit sphere
        sff_scale.append(float(np.linalg.norm(a) * np.linalg.norm(b)))
    assert_matches_loop(mp.tau_s_from_tables(t), tau, norms(tau), 1e-12)
    assert_matches_loop(np.einsum("i...,j...,ija...->a...", X, Y, t.sff), sff,
                        sff_scale, 1e-12)
    assert_groups_match_loop(inc, x, pts)


def test_operator_identity_batch_matches_pointwise_loop():
    # operator_identity_max_rel makes the first draws of variation-formulas
    rng = np.random.default_rng(SEED)
    inputs = []
    for a in (2.0, 1.7):
        coeff = 3 * a ** 3 * (a - 1)
        field = mp.TangentField(
            [ex.parse(f"{coeff!r} * pow(t, {3 * a - 4!r})", ["t"])])
        inputs.append((charts.power_curve(a),
                       rng.uniform(0.6, 3.5, 10)[None, :], field))
    for m in (2, 3):
        inc = charts.sphere_inclusion(m)
        field = mp.TangentField(
            [ex.parse(f"-{m} * ({s})", inc.source.coords)
             for s in charts.sphere_embedding_sources(m)])
        inputs.append((inc, np.array(inc.source.sample_points(10, rng)).T,
                       field))
    for spec, x, field in inputs:
        pts = list(x.T)
        assert_groups_match_loop(spec, x, pts)
        for variant in (va.REDUCED, va.FULL):
            jv = [va.jacobi_operator(spec, p, field, variant=variant)
                  for p in pts]
            assert_matches_loop(
                va.jacobi_operator(spec, x, field, variant=variant), jv,
                norms(jv), 1e-10)


def test_verify_builds_one_context_per_map_and_point_set(monkeypatch):
    """The operator identity builds one context per map for both
    operators and both variants; the variation case adds one for the
    torus map's pairings, one for the linear map's index form and one
    per FD oracle call."""
    calls = []
    inner = mp.along_map

    def counted(*args):
        calls.append(args[0])
        return inner(*args)
    monkeypatch.setattr(mp, "along_map", counted)
    cases.operator_identity_max_rel(np.random.default_rng(SEED))
    assert len(calls) == 4
    del calls[:]
    cases.case_variation_formulas(SEED)
    assert len(calls) == 4 + 2 + 3


def test_variation_case_pairings_equal_the_public_pairings(monkeypatch):
    """Each pairing the variation case evaluates on a shared context
    equals the public pairing's own evaluation exactly."""
    seen = []
    inner = va.mesh_pairing

    def recorded(*args):
        seen.append(inner(*args))
        return seen[-1]
    monkeypatch.setattr(va, "mesh_pairing", recorded)
    cases.case_variation_formulas(SEED)
    monkeypatch.undo()
    # the case's map, mesh and fields
    spec, lin = charts.torus_test_map(), charts.linear_torus_map()
    coords = spec.source.coords
    mesh = build_mesh(spec.source, 24)
    v = mp.TangentField([ex.parse("0.7*sin(x1)*cos(x2)", coords),
                         ex.parse("0.4*cos(x1 + x2)", coords)])
    w = mp.TangentField([ex.parse("0.5*sin(x1)*cos(x2) + 0.2*sin(x2)", coords),
                         ex.parse("0.3*cos(x1 + x2)", coords)])
    zero = mp.TangentField([ex.parse("0", coords), ex.parse("0", coords)])
    assert seen == [
        va.first_variation_pairing(spec, v, mesh),
        va.bi_variation_pairing(spec, v, mesh, variant=va.FULL),
        va.bi_variation_pairing(spec, v, mesh, variant=va.REDUCED),
        va.index_form_pairing(lin, v, w, mesh, variant=va.FULL),
        va.index_form_pairing(lin, v, w, mesh, variant=va.REDUCED),
        va.first_variation_pairing(spec, zero, mesh),
    ]
