"""Energy functionals, variation pairings, Jacobi-type operators.

The symphonic-Jacobi operator is assembled from six term groups:

    A = 2 h(nab_i v, dphi_j) S_ij
    B = [ h(tr nab^2 v, dphi_j) + h(nab_j v, tr S) ] dphi_j
    C = [ h(S_ij, dphi_j) + h(dphi_i, tr S) ] nab_i v
    D = h(dphi_i, dphi_j) [ nab^2 v (e_j, e_i) + R^N(v, dphi_j) dphi_i ]
    E = h(nab_i v, S_ij) dphi_j
    F = h(nab^2 v (e_j, e_i), dphi_j) dphi_i

(frame indices i, j summed, S the second fundamental form, nab the
pullback connection).  Two variants are exposed:

  * "reduced": A + B + C + D, the classical four-group form whose
    closed-form catalog values (power curves, sphere inclusion) hold;
  * "full": all six groups.  The two extra coupling terms are required
    for the pairing -4 int h(J v, w) to reproduce finite-difference
    second variations of the energy; the reduced form fails that check
    by exactly the E and F contributions.

The bi-tension is this operator applied to the symphonic tension of
the map itself, evaluated through jet-valued fields.

jacobi_groups is the one float implementation of the six groups.  It
works in coordinate form: each frame sum over i becomes a contraction
with gi = sum_i e_i e_i^T, which equals g^{-1} for an orthonormal
frame.  Every array may carry trailing batch axes.  The pointwise
paths pass gi = E^T E for their frame E (rows e_i), so a rotated frame
is still a real input.  The grid flow passes its whole grid at once.

The jet-valued side is batched the same way.  tau_s_jets,
_composed_target_jets, field_covariant_data, bi_tension and
jacobi_operator take points x of shape (m, ...) and run their jet
algebra once over all of them (see ``jet``); a single point (m,) is the
batch of one through the same code.  The mesh integrals
(symphonic_energy, bi_energy and the three pairings) therefore make one
call over all quadrature nodes and reduce the node values with
mesh.pairwise_sum in node order, so they equal the sum of pointwise
node values up to rounding.  A domain error names the first failing
node with the text the pointwise call there raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import maps as mp
from .jet import Jet, compose
from .mesh import Mesh

REDUCED = "reduced"
FULL = "full"
_VARIANTS = (REDUCED, FULL)


def _check_variant(variant):
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")


# target data composed along the map ---------------------------------------


def _composed_target_jets(target, comp_jets, gamma_order):
    """h  and Gamma^N along the map, as jets in the source variables
    with the batch axes of comp_jets.

    gamma_order is the requested order of the composed Christoffel
    jets; the metric jets come out one order higher.
    """
    n = target.dim
    h_const = geo.constant_metric(target)
    if h_const is not None:
        gam_phi = [[[0.0] * n for _ in range(n)] for _ in range(n)]
        return h_const.tolist(), gam_phi
    y0 = np.array([j.value for j in comp_jets])
    target.require_inside(y0)
    g_yjets = geo.metric_jets(target, y0, gamma_order + 1)
    gam_yjets = geo.christoffel_jets(g_yjets)
    h_phi = [[compose(g_yjets[a][b], comp_jets) for b in range(n)]
             for a in range(n)]
    gam_phi = [[[compose(_as_jet(gam_yjets[a][b][c], n, gamma_order,
                                 y0.shape[1:]), comp_jets)
                 for c in range(n)] for b in range(n)] for a in range(n)]
    return h_phi, gam_phi


def _as_jet(v, nvars, order, batch):
    if isinstance(v, Jet):
        return v
    return Jet.constant(float(v), nvars, order, batch)


def _hdot(h, u, w):
    """h-inner product for lists of scalars (floats or jets)."""
    n = len(u)
    acc = 0.0
    for a in range(n):
        for b in range(n):
            hab = h[a][b]
            if geo._is_zero_scalar(hab):
                continue
            if isinstance(hab, float) and hab == 1.0:
                acc = acc + u[a] * w[b]
            else:
                acc = acc + hab * u[a] * w[b]
    return acc


# jet-valued symphonic tension ----------------------------------------------


def tau_s_jets(spec: mp.MapSpec, x, comp_jets=None, order: int = 4):
    """Symphonic tension components as source-variable jets at points
    x (m, ...).

    With component jets of order p the result has order p - 2, which
    feeds the bi-tension assembly (p = 4 gives the required order 2).
    """
    x = np.asarray(x, dtype=float)
    if comp_jets is None:
        comp_jets = spec.component_jets(x, order)
    p = comp_jets[0].order
    if p < 3:
        raise ValueError("tau_s_jets needs component jets of order >= 3")
    m, n = spec.source.dim, spec.target.dim
    d1 = [[comp_jets[a].partial(i) for a in range(n)] for i in range(m)]
    g_jets = geo.metric_jets(spec.source, x, p - 1)
    gammaM = geo.christoffel_jets(g_jets)
    ginv = geo.mat_inv(g_jets)
    h_phi, gam_phi = _composed_target_jets(spec.target, comp_jets, p - 2)
    # covariant second fundamental form, jet entries of order p - 2
    zero = geo._is_zero_scalar
    sff = [[[None] * n for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            for a in range(n):
                acc = d1[i][a].partial(j)
                for k in range(m):
                    if not zero(gammaM[k][i][j]):
                        acc = acc - gammaM[k][i][j] * d1[k][a]
                for b in range(n):
                    for c in range(n):
                        gj = gam_phi[a][b][c]
                        if zero(gj):
                            continue
                        acc = acc + gj * d1[i][b] * d1[j][c]
                sff[i][j][a] = acc
            sff[j][i] = sff[i][j]
    # raised objects (skip vanishing inverse-metric entries)
    draise = [[None] * n for _ in range(m)]
    for q in range(m):
        for a in range(n):
            acc = 0.0
            for pp in range(m):
                if not zero(ginv[pp][q]):
                    acc = acc + ginv[pp][q] * d1[pp][a]
            draise[q][a] = acc
    tension = [None] * n
    for a in range(n):
        acc = 0.0
        for pp in range(m):
            for q in range(m):
                if not zero(ginv[pp][q]):
                    acc = acc + ginv[pp][q] * sff[pp][q][a]
        tension[a] = acc
    # term 1: sum_s h(tension, draise_s) d1_s
    t_r = [_hdot(h_phi, tension, d1[r]) for r in range(m)]
    # term 2 coefficients: c_r = sum_q h(draise_q, sff_qr)
    c_r = []
    for r in range(m):
        acc = 0.0
        for q in range(m):
            acc = acc + _hdot(h_phi, draise[q], sff[q][r])
        c_r.append(acc)
    out = []
    for a in range(n):
        acc = 0.0
        for r in range(m):
            tc = t_r[r] + c_r[r]
            for s in range(m):
                if not zero(ginv[r][s]):
                    acc = acc + ginv[r][s] * tc * d1[s][a]
        # term 3: sum_{q,s} h(draise_q, draise_s) sff_qs
        for q in range(m):
            for s in range(m):
                acc = acc + _hdot(h_phi, draise[q], draise[s]) * sff[q][s][a]
        out.append(acc if isinstance(acc, Jet)
                   else Jet.constant(float(acc), comp_jets[0].nvars, p - 2,
                                     x.shape[1:]))
    return out


# covariant derivatives of a field along the map -----------------------------


def field_covariant_data(spec: mp.MapSpec, x, v_jets, comp_jets=None,
                         tables: mp.MapTables = None):
    """Values of v, nabla v, nabla^2 v at points x (m, ...) for a field
    given by jets there.

    v_jets must have order >= 2.  Returns (v (n,), Dv (m,n),
    DDv (m,m,n)), each with the batch axes, where DDv[i,j] is the second
    covariant derivative with outer direction i, using the source
    connection on the form index and the pullback connection on the
    bundle index.
    """
    m, n = spec.source.dim, spec.target.dim
    if comp_jets is None:
        comp_jets = spec.component_jets(x, 2)
    if tables is None:
        tables = mp.tables_from_jets(spec, x, comp_jets, curvature=True)
    _, gam_phi = _composed_target_jets(spec.target, comp_jets, 1)
    d1_jets = [[comp_jets[a].partial(i) for a in range(n)] for i in range(m)]
    v = np.array([j.value for j in v_jets])
    # first covariant derivative as jets (order >= 1)
    dv_jets = [[None] * n for _ in range(m)]
    for i in range(m):
        for a in range(n):
            acc = v_jets[a].partial(i)
            for b in range(n):
                for c in range(n):
                    gj = gam_phi[a][b][c]
                    if geo._is_zero_scalar(gj):
                        continue
                    acc = acc + gj * d1_jets[i][b] * v_jets[c]
            dv_jets[i][a] = acc
    dv = np.array([[jet.value for jet in row] for row in dv_jets])
    d_dv = np.array([[jet.gradient() for jet in row] for row in dv_jets])
    ddv = (np.moveaxis(d_dv, 2, 0)                        # d_i (nab_j v)^a
           + np.einsum("abc...,ib...,jc...->ija...", tables.gammaN,
                       tables.d1, dv)
           - np.einsum("kij...,ka...->ija...", tables.gammaM, dv))
    return v, dv, ddv


# the operator assembly ------------------------------------------------------


def jacobi_groups(gi, h, d1, sff, v, dv, ddv, riem=None) -> dict:
    """The six term groups A-F of the Jacobi-type operator applied to
    the field v, as vectors.

    Coordinate form of the frame sums in the module docstring, over
    trailing batch axes as in maps.tau_s: gi (m, m, ...) is
    sum_i e_i e_i^T, h (n, n, ...), d1 (m, n, ...), sff (m, m, n, ...),
    v (n, ...), dv (m, n, ...) and ddv (m, m, n, ...) the second
    covariant derivative with its outer direction first.
    riem (n, n, n, n, ...) is R^a_{bcd} of the target along the map,
    None for a flat target; it enters group D only.
    """
    ddv_D = ddv
    if riem is not None:
        ddv_D = ddv + np.einsum("abcd...,c...,sd...,qb...->sqa...",
                                riem, v, d1, d1)
    tr_ddv = np.einsum("pq...,pqa...->a...", gi, ddv)
    tr_s = np.einsum("pq...,pqa...->a...", gi, sff)
    dv_d = np.einsum("pa...,ab...,rb...->pr...", dv, h, d1)      # h(Dv_p, D_r)
    d_d = np.einsum("pa...,ab...,rb...->pr...", d1, h, d1)
    dv_s = np.einsum("pa...,ab...,qrb...->pqr...", dv, h, sff)   # h(Dv_p, S_qr)
    s_d = np.einsum("pqa...,ab...,rb...->pqr...", sff, h, d1)    # h(S_pq, D_r)
    ddv_d = np.einsum("pqa...,ab...,rb...->pqr...", ddv, h, d1)  # h(DDv_pq, D_r)
    hb = (np.einsum("ra...,ab...,b...->r...", d1, h, tr_ddv)     # h(trDDv, D_r)
          + np.einsum("ra...,ab...,b...->r...", dv, h, tr_s))    # h(Dv_r, trS)
    hc = (np.einsum("rs...,prs...->p...", gi, s_d)               # h(S_pj, D_j)
          + np.einsum("pa...,ab...,b...->p...", d1, h, tr_s))    # h(D_p, trS)
    return {
        "A": 2.0 * np.einsum("pq...,rs...,pr...,qsa...->a...",
                             gi, gi, dv_d, sff),
        "B": np.einsum("rs...,r...,sa...->a...", gi, hb, d1),
        "C": np.einsum("pq...,p...,qa...->a...", gi, hc, dv),
        "D": np.einsum("pq...,rs...,pr...,sqa...->a...", gi, gi, d_d, ddv_D),
        "E": np.einsum("pq...,rs...,pqr...,sa...->a...", gi, gi, dv_s, d1),
        "F": np.einsum("pq...,rs...,rps...,qa...->a...", gi, gi, ddv_d, d1),
    }


def assemble(groups: dict, variant: str) -> np.ndarray:
    """The operator of a variant from its term groups."""
    out = groups["A"] + groups["B"] + groups["C"] + groups["D"]
    if variant == FULL:
        out = out + groups["E"] + groups["F"]
    return out


def _groups_at(tables: mp.MapTables, v, dv, ddv) -> dict:
    """jacobi_groups at the tables' points, traced over their frame."""
    return jacobi_groups(mp.frame_metric(tables.frame), tables.h, tables.d1,
                         tables.sff, v, dv, ddv, tables.riemN)


def jacobi_operator(spec: mp.MapSpec, x, field, variant: str = REDUCED,
                    frame=None) -> np.ndarray:
    """Apply the Jacobi-type operator to a tangent field at points x
    (m, ...); the result is (n, ...).

    field is a TangentField or an already-evaluated list of component
    jets of order >= 2 at those points.
    """
    _check_variant(variant)
    spec.source.require_inside(x)
    comp_jets = spec.component_jets(x, 2)
    tables = mp.tables_from_jets(spec, x, comp_jets, curvature=True,
                                 frame=frame)
    v_jets = (field.jets(spec.source.coords, x, 2)
              if isinstance(field, mp.TangentField) else field)
    v, dv, ddv = field_covariant_data(spec, x, v_jets, comp_jets, tables)
    return assemble(_groups_at(tables, v, dv, ddv), variant)


def bi_tension(spec: mp.MapSpec, x, variant: str = REDUCED,
               frame=None) -> np.ndarray:
    """The Jacobi-type operator applied to the symphonic tension, at
    points x (m, ...)."""
    _check_variant(variant)
    return assemble(bi_tension_groups(spec, x, frame=frame), variant)


def bi_tension_groups(spec: mp.MapSpec, x, frame=None) -> dict:
    """Term-by-term breakdown of the bi-tension at points x (m, ...)."""
    spec.source.require_inside(x)
    comp_jets = spec.component_jets(x, 4)
    tau_jets = tau_s_jets(spec, x, comp_jets)
    tables = mp.tables_from_jets(spec, x, comp_jets, curvature=True,
                                 frame=frame)
    v, dv, ddv = field_covariant_data(spec, x, tau_jets, comp_jets, tables)
    return _groups_at(tables, v, dv, ddv)


def sphere_term_breakdown(m: int, x=None):
    """The four primary bi-tension term groups for the inclusion of S^m,
    as (coefficient along the position vector, group vector) pairs.

    Expected coefficients: (2 m^2, 0, 0, m^2).
    """
    from . import charts
    if m < 2:
        raise ValueError("sphere breakdown needs m >= 2")
    inc = charts.sphere_inclusion(m)
    if x is None:
        x = [0.5 * (lo + hi) for lo, hi in inc.source.intervals]
        x[-1] = 1.0
    pos = inc.value(x)
    groups = bi_tension_groups(inc, x)
    return [(float(groups[k] @ pos), groups[k]) for k in "ABCD"]


# integrals and pairings -----------------------------------------------------


def symphonic_energy(spec: mp.MapSpec, mesh: Mesh) -> float:
    """Integral of |phi^* h|^2 against dv_g."""
    t = mp.map_tables(spec, mesh.points.T)
    return mesh.integrate(mp.energy_density(t.frame, t.h, t.d1))


def bi_energy(spec: mp.MapSpec, mesh: Mesh) -> float:
    """Integral of |tau^s|^2 against dv_g."""
    t = mp.map_tables(spec, mesh.points.T)
    tau = mp.tau_s_from_tables(t)
    return mesh.integrate(mp.h_inner(tau, t.h, tau))


def first_variation_pairing(spec: mp.MapSpec, field: mp.TangentField,
                            mesh: Mesh) -> float:
    """-4 int h(tau^s, v) dv_g, the closed-form first variation."""
    x = mesh.points.T
    t = mp.map_tables(spec, x)
    v = field.values(spec.source.coords, x)
    return -4.0 * mesh.integrate(mp.h_inner(mp.tau_s_from_tables(t), t.h, v))


def bi_variation_pairing(spec: mp.MapSpec, field: mp.TangentField,
                         mesh: Mesh, variant: str = FULL) -> float:
    """-1 int h(v, tau^s_2) dv_g, the classically normalized
    bi-energy pairing."""
    _check_variant(variant)
    x = mesh.points.T
    tau2 = bi_tension(spec, x, variant=variant)
    t = mp.map_tables(spec, x)
    v = field.values(spec.source.coords, x)
    return -1.0 * mesh.integrate(mp.h_inner(v, t.h, tau2))


def index_form_pairing(spec: mp.MapSpec, vfield: mp.TangentField,
                       wfield: mp.TangentField, mesh: Mesh,
                       variant: str = FULL) -> float:
    """-4 int h(J v, w) dv_g, the closed-form second variation."""
    _check_variant(variant)
    x = mesh.points.T
    jv = jacobi_operator(spec, x, vfield, variant=variant)
    t = mp.map_tables(spec, x)
    w = wfield.values(spec.source.coords, x)
    return -4.0 * mesh.integrate(mp.h_inner(jv, t.h, w))


@dataclass
class VariationReport:
    """Side-by-side record of a closed-form pairing and its
    finite-difference oracle value."""

    analytic: float
    oracle: float
    mesh_description: str
    fd_step: float

    @property
    def abs_discrepancy(self) -> float:
        return abs(self.analytic - self.oracle)

    @property
    def rel_discrepancy(self) -> float:
        scale = max(abs(self.analytic), abs(self.oracle), 1e-300)
        return self.abs_discrepancy / scale
