"""Executable catalog of the worked examples, with negative controls.

Every case reports a list of named checks (measured value, expected
value, tolerance, pass flag) and is deterministic for a fixed seed.
Negative controls assert that a deliberately perturbed configuration
exceeds its tolerance, guarding the positive checks against vacuity.

Each case stacks its sample points into one batch (m, k) and evaluates
each map once per point set (see ``geometry``, ``maps`` and
``variational``): one context (maps.AlongMap) serves every operator
read there, and the two operator variants are assembled from one set
of term groups.  The operator identity evaluates the bi-tension and the
operator on the closed-form tension field on one order-4 context per
map; the variation case pairs on the torus map's order-4 context (the
first-variation and both bi-energy pairings) and on one Jacobi context
of the linear map (both index forms), through variational.mesh_pairing,
the function the public pairings call.  A check then reduces the
per-point values over the batch axis, with any per-point scale kept
per point.
Random draws keep the order of a point-by-point loop, so a seed's
sample points and frame vectors do not depend on the batching: for
example rng.normal(size=(k, 2, m)) yields the same values, and leaves
the generator in the same state, as k pairs of rng.normal(size=m)
draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import charts
from . import expr as ex
from . import geometry as geo
from . import maps as mp
from . import oracle as orc
from . import variational as va
from .jet import Jet
from .mesh import build_mesh

DEFAULT_SEED = 0x5EED

# The classical curve condition for bi-symphonic curves is
# 14 g1^2 g2^3 + 17 g1^3 g2 g3 + 2 g1^4 g4 (g_k the k-th derivative);
# the reduced-variant operator applied to tau^s = 3 g1^2 g2 is exactly
# three times that combination, since the operator is linear and its
# curve form is 5 g1 g2 v' + 2 g1^2 v''.
CURVE_OPERATOR_FACTOR = 3.0


@dataclass
class Check:
    """One named comparison; kind 'eq' compares |measured - expected|
    against the tolerance, 'upper' requires measured <= tolerance,
    'lower' requires measured > tolerance (negative controls)."""

    name: str
    measured: float
    expected: float
    tolerance: float
    kind: str = "eq"

    @property
    def passed(self):
        return self.evaluate(1.0)

    def evaluate(self, tol_scale: float) -> bool:
        if self.kind == "upper":
            return self.measured <= self.tolerance * tol_scale
        if self.kind == "lower":
            return self.measured > self.tolerance / tol_scale
        return abs(self.measured - self.expected) <= self.tolerance * tol_scale

    def to_dict(self, tol_scale: float = 1.0):
        return {"name": self.name, "measured": self.measured,
                "expected": self.expected, "tolerance": self.tolerance,
                "kind": self.kind, "pass": bool(self.evaluate(tol_scale))}


def check_upper(name, measured, tolerance):
    """measured <= tolerance."""
    return Check(name, float(measured), 0.0, float(tolerance), "upper")


def check_lower(name, measured, threshold):
    """measured > threshold (negative controls and non-degeneracy)."""
    return Check(name, float(measured), float(threshold), float(threshold),
                 "lower")


@dataclass
class CaseResult:
    case_id: str
    description: str
    seed: int
    checks: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def passed_at(self, tol_scale: float) -> bool:
        return all(c.evaluate(tol_scale) for c in self.checks)

    def to_dict(self, tol_scale: float = 1.0):
        return {"id": self.case_id, "description": self.description,
                "seed": self.seed,
                "checks": [c.to_dict(tol_scale) for c in self.checks],
                "extra": self.extra, "pass": bool(self.passed_at(tol_scale))}


def _annulus_points(count, rng, r_lo=0.2, r_hi=3.0):
    r = rng.uniform(r_lo, r_hi, count)
    th = rng.uniform(0.0, 2 * np.pi, count)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


def case_scalar_symphonic(seed: int = DEFAULT_SEED) -> CaseResult:
    """The scalar field (x1^2 + x2^2)^(1/3) on the punctured plane:
    zero symphonic residual, nonzero Laplacian."""
    rng = np.random.default_rng(seed)
    plane = charts.punctured_plane_chart(radius=3.5, hole=0.1)
    coords = plane.coords
    f = ex.parse("pow(x1^2 + x2^2, 1/3)", coords)
    f_map = mp.MapSpec(plane, geo.euclidean_space(1), [f])
    f_wrong = ex.parse("pow(x1^2 + x2^2, 0.34)", coords)
    x = _annulus_points(50, rng).T

    res = mp.scalar_symphonic_residual(plane, f, x)
    res_max = float(np.abs(res).max())
    lap_min = float(np.abs(geo.laplacian(plane, f, x)).min())
    tau = mp.symphonic_tension(f_map, x)[0]
    cross_max = float(np.abs(res - tau).max())
    wrong_min = float(np.abs(
        mp.scalar_symphonic_residual(plane, f_wrong, x)).min())

    out = CaseResult("scalar-symphonic",
                     "cube-root-of-r-squared field: symphonic, non-harmonic",
                     seed)
    out.checks.append(check_upper("residual-max", res_max, 1e-9))
    out.checks.append(check_lower("laplacian-min (non-harmonic)", lap_min, 1e-3))
    out.checks.append(check_upper("residual-vs-map-tension", cross_max, 1e-12))
    out.checks.append(check_lower("negative-control exponent 0.34",
                                  wrong_min, 1e-3))
    return out


def power_curve_ode_residual(exponent: float, t):
    """The classical fourth-order curve condition evaluated from jet
    derivatives of t^a (independent of the operator pipeline), at a
    float t or at every entry of an array of them."""
    curve = charts.power_curve(exponent)
    jets = curve.component_jets([t], 4)
    jet = Jet(jets.space, jets.coeffs[:, 0])
    g1, g2, g3, g4 = (jet.derivative((k,)) for k in (1, 2, 3, 4))
    return 14 * g1 ** 2 * g2 ** 3 + 17 * g1 ** 3 * g2 * g3 + 2 * g1 ** 4 * g4


def power_curve_closed_form(exponent: float, t):
    """Hand expansion of the curve condition at t^a:
    a^5 (a-1) (33 a^2 - 89 a + 60) t^(5a-8)."""
    a = exponent
    return a ** 5 * (a - 1) * (33 * a ** 2 - 89 * a + 60) * t ** (5 * a - 8)


def case_power_curves(seed: int = DEFAULT_SEED) -> CaseResult:
    """Power curves t^a: bi-symphonic at a = 4/3 and 15/11, with the
    closed-form residual polynomial at control exponents."""
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.5, 4.0, 50)
    out = CaseResult("power-curves",
                     "bi-symphonic power curves and control exponents", seed)

    for a, label in ((4.0 / 3.0, "4/3"), (15.0 / 11.0, "15/11")):
        curve = charts.power_curve(a)
        bt = va.bi_tension(curve, [ts], variant=va.REDUCED)
        bt_max = float(np.abs(bt).max())
        ts_min = float(np.abs(mp.symphonic_tension(curve, [ts]))
                       .max(axis=0).min())
        out.checks.append(check_upper(f"bi-tension-max a={label}", bt_max, 1e-8))
        out.checks.append(check_lower(f"tension-min a={label} (non-symphonic)",
                                      ts_min, 1e-3))

    # straight line: symphonic, hence bi-symphonic
    line = charts.power_curve(1.0)
    out.checks.append(check_upper(
        "line tension", float(np.abs(mp.symphonic_tension(line, [1.7])).max()),
        1e-12))
    out.checks.append(check_upper(
        "line bi-tension",
        float(np.abs(va.bi_tension(line, [1.7], variant=va.REDUCED)).max()),
        1e-12))

    # control exponents against the hand-expanded polynomial
    ctrl_ts = rng.uniform(0.5, 4.0, 10)
    for a in (1.2, 2.0, 3.0):
        curve = charts.power_curve(a)
        expected = power_curve_closed_form(a, ctrl_ts)
        ode = power_curve_ode_residual(a, ctrl_ts)
        op = va.bi_tension(curve, [ctrl_ts], variant=va.REDUCED)[0]
        ode_rel = float((np.abs(ode - expected) / np.abs(expected)).max())
        op_rel = float((np.abs(op - CURVE_OPERATOR_FACTOR * expected)
                        / np.abs(CURVE_OPERATOR_FACTOR * expected)).max())
        out.checks.append(check_upper(f"ode-residual-rel a={a}", ode_rel, 1e-8))
        out.checks.append(check_upper(f"operator-3x-residual-rel a={a}",
                                      op_rel, 1e-8))

    # negative control: a = 2 is not bi-symphonic, value 1344 = 3*448 at t=1
    c2 = charts.power_curve(2.0)
    bt1 = float(va.bi_tension(c2, [1.0], variant=va.REDUCED)[0])
    out.checks.append(Check("negative-control a=2 at t=1", bt1,
                            CURVE_OPERATOR_FACTOR * 448.0, 1e-8))
    out.extra["curve_operator_factor"] = CURVE_OPERATOR_FACTOR
    out.extra["ode_residual_a2_t1"] = power_curve_ode_residual(2.0, 1.0)
    return out


def case_sphere_inclusion(m: int, seed: int = DEFAULT_SEED) -> CaseResult:
    """Canonical inclusion of S^m into Euclidean space: tension -mP,
    bi-tension 3 m^2 P, term groups (2m^2, 0, 0, m^2)."""
    if not 2 <= m <= 4:
        raise ValueError("sphere case supports m in 2..4")
    rng = np.random.default_rng(seed)
    inc = charts.sphere_inclusion(m)
    pts = inc.source.sample_points(50, rng)
    x = np.array(pts).T
    # per point, the frame coefficients of X, then those of Y
    a, b = np.moveaxis(rng.normal(size=(len(pts), 2, m)), 0, -1)

    def max_norm(vectors):
        """Largest Euclidean norm over the batch of vectors (n, k)."""
        return float(np.linalg.norm(vectors, axis=0).max())

    P = inc.value(x)
    ctx, groups = va.bi_tension_at(inc, x)
    t = mp.tables_from_jets(ctx)
    reduced = va.assemble(groups, va.REDUCED)
    full = va.assemble(groups, va.FULL)
    expected_groups = np.array([2.0 * m * m, 0.0, 0.0, m * m])
    coeffs = np.array([np.einsum("a...,a...->...", groups[k], P)
                       for k in "ABCD"])
    group_err = np.abs(coeffs - expected_groups[:, None]).max(axis=1)
    extra_group_err = float((np.linalg.norm(groups["E"], axis=0)
                             + np.linalg.norm(groups["F"], axis=0)).max())
    X = np.einsum("i...,ij...->j...", a, t.frame)
    Y = np.einsum("i...,ij...->j...", b, t.frame)
    sff = np.einsum("i...,j...,ija...->a...", X, Y, t.sff)
    inner = np.einsum("i...,i...->...", a, b)  # <X, Y> in the round metric
    tau_err = max_norm(mp.tau_s_from_tables(t) + m * P)
    bt_err = max_norm(reduced - 3 * m * m * P)
    bt_err_full = max_norm(full - 3 * m * m * P)
    sff_err = max_norm(sff + inner * P)
    p_norm_err = float(np.abs(np.linalg.norm(P, axis=0) - 1.0).max())

    out = CaseResult(f"sphere-inclusion-{m}",
                     f"canonical inclusion of S^{m} into R^{m + 1}", seed)
    out.checks.append(check_upper("tension-plus-mP", tau_err, 1e-6))
    out.checks.append(check_upper("bi-tension-minus-3m2P", bt_err, 1e-5))
    out.checks.append(check_upper("bi-tension-minus-3m2P (full variant)",
                                  bt_err_full, 1e-5))
    for k, name in enumerate("ABCD"):
        out.checks.append(check_upper(
            f"group-{name}-coefficient-error", group_err[k], 1e-6))
    out.checks.append(check_upper("extra-groups-vanish", extra_group_err, 1e-6))
    out.checks.append(check_upper("sff-plus-inner-P", sff_err, 1e-8))
    out.checks.append(check_upper("unit-position", p_norm_err, 1e-12))

    # negative control: radius-1.05 sphere is not minimal in that sense
    scaled = mp.MapSpec(inc.source, inc.target,
                        [ex.parse(f"1.05 * ({charts.sphere_embedding_sources(m)[k]})",
                                  inc.source.coords)
                         for k in range(m + 1)])
    tau_scaled = mp.symphonic_tension(scaled, pts[0])
    out.checks.append(check_lower(
        "negative-control scaled embedding",
        float(np.linalg.norm(tau_scaled + m * P[:, 0])), 1e-3))
    out.extra["expected_groups"] = [float(v) for v in expected_groups]
    return out


def case_variation_formulas(seed: int = DEFAULT_SEED,
                            resolution: int = 24) -> CaseResult:
    """First and second variation formulas on the torus test map,
    checked against the finite-difference oracle."""
    rng = np.random.default_rng(seed)
    spec = charts.torus_test_map()
    coords = spec.source.coords
    mesh = build_mesh(spec.source, resolution)
    fields = charts.torus_test_fields()
    v, w = fields["v"], fields["w"]

    out = CaseResult("variation-formulas",
                     "variation formulas against the FD oracle", seed)

    # the torus map's bi-tension context serves all of its pairings: (a)
    # reads its tension, (b) assembles both variants from one group set
    ctx, groups = va.bi_tension_at(spec, mesh.points.T)
    tau = mp.tau_s_from_tables(mp.tables_from_jets(ctx))
    vx = v.values(coords, ctx.x)

    # (a) first variation of the symphonic energy, constant -4
    fd1 = orc.fd_first_variation(spec, v, mesh, 1e-3)
    an1 = va.mesh_pairing(ctx, mesh, tau, vx, -4.0)
    rel1 = abs(fd1 - an1) / max(abs(fd1), 1e-300)
    out.checks.append(check_upper("first-variation-rel", rel1, 1e-4))

    # (b) first variation of the bi-energy; the measured constant is
    # reported (the classical normalization carries -1)
    fdb = orc.fd_first_variation(spec, v, mesh, 1e-3, energy=orc.ENERGY_BISYM)
    pairing = va.mesh_pairing(ctx, mesh, vx, va.assemble(groups, va.FULL),
                              -1.0)
    measured_constant = fdb / pairing
    relb = abs(fdb - (-2.0) * pairing) / max(abs(fdb), 1e-300)
    out.checks.append(check_upper("bi-variation-rel (constant -2)",
                                  relb, 1e-3))
    out.extra["bi_variation_measured_constant"] = measured_constant
    pairing_reduced = va.mesh_pairing(ctx, mesh, vx,
                                      va.assemble(groups, va.REDUCED), -1.0)
    out.extra["bi_variation_constant_reduced_variant"] = fdb / pairing_reduced

    # (c) mixed second variation at a symphonic (linear) map, both
    # variants from one group set
    lin = charts.linear_torus_map()
    fd2 = orc.fd_second_variation(lin, v, w, mesh, 1e-2)
    lin_ctx, lin_groups = va.jacobi_at(lin, mesh.points.T, v)
    wx = w.values(coords, lin_ctx.x)
    an2 = va.mesh_pairing(lin_ctx, mesh, va.assemble(lin_groups, va.FULL),
                          wx, -4.0)
    rel2 = abs(fd2 - an2) / max(abs(fd2), 1e-300)
    out.checks.append(check_upper("second-variation-rel (full)", rel2, 1e-3))
    an2_red = va.mesh_pairing(lin_ctx, mesh,
                              va.assemble(lin_groups, va.REDUCED), wx, -4.0)
    rel2_red = abs(fd2 - an2_red) / max(abs(fd2), 1e-300)
    out.checks.append(check_lower(
        "negative-control second-variation (reduced misses couplings)",
        rel2_red, 1e-2))
    out.extra["second_variation_reduced_rel"] = rel2_red

    # (d) operator identity on closed-form tension fields
    ident_rel = operator_identity_max_rel(rng)
    out.checks.append(check_upper("bi-tension-equals-operator-of-tension",
                                  ident_rel, 1e-8))

    # degenerate inputs pair to zero
    zero = mp.TangentField([ex.parse("0", coords), ex.parse("0", coords)])
    out.checks.append(check_upper(
        "zero-field-pairing",
        abs(va.mesh_pairing(ctx, mesh, tau, zero.values(coords, ctx.x),
                            -4.0)),
        1e-12))
    return out


def operator_identity_max_rel(rng) -> float:
    """Worst relative deviation of the bi-tension from the operator
    applied to a closed-form tension field (curve and sphere), each
    point's deviation taken relative to that point's bi-tension."""

    def worst_at(spec, x, tau_field):
        # one context per map: the field's groups on the bi-tension's
        ctx, bt_groups = va.bi_tension_at(spec, x)
        jv_groups = va.field_groups(
            ctx, tau_field.jets(spec.source.coords, ctx.x, 2))
        worst = 0.0
        for variant in (va.REDUCED, va.FULL):
            bt = va.assemble(bt_groups, variant)
            jv = va.assemble(jv_groups, variant)
            scale = np.maximum(np.abs(bt).max(axis=0), 1e-300)
            worst = max(worst, float((np.abs(bt - jv).max(axis=0)
                                      / scale).max()))
        return worst

    worst = 0.0
    # power curve: tau^s = 3 a^3 (a - 1) t^(3a - 4)
    for a in (2.0, 1.7):
        curve = charts.power_curve(a)
        coeff = 3 * a ** 3 * (a - 1)
        tau_field = mp.TangentField(
            [ex.parse(f"{coeff!r} * pow(t, {3 * a - 4!r})", ["t"])])
        worst = max(worst, worst_at(curve, [rng.uniform(0.6, 3.5, 10)],
                                    tau_field))
    # sphere: tau^s = -m P
    for m in (2, 3):
        inc = charts.sphere_inclusion(m)
        tau_field = mp.TangentField(
            [ex.parse(f"-{m} * ({s})", inc.source.coords)
             for s in charts.sphere_embedding_sources(m)])
        x = np.array(inc.source.sample_points(10, rng)).T
        worst = max(worst, worst_at(inc, x, tau_field))
    return worst


CASES = {
    "scalar-symphonic": case_scalar_symphonic,
    "power-curves": case_power_curves,
    "sphere-inclusion-2": lambda seed=DEFAULT_SEED: case_sphere_inclusion(2, seed),
    "sphere-inclusion-3": lambda seed=DEFAULT_SEED: case_sphere_inclusion(3, seed),
    "sphere-inclusion-4": lambda seed=DEFAULT_SEED: case_sphere_inclusion(4, seed),
    "variation-formulas": case_variation_formulas,
}


def run_case(name: str, seed: int = DEFAULT_SEED) -> CaseResult:
    if name not in CASES:
        raise KeyError(f"unknown case '{name}'")
    return CASES[name](seed=seed)


def run_all(seed: int = DEFAULT_SEED):
    return [CASES[name](seed=seed) for name in CASES]
