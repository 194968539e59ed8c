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
the map itself, evaluated through jet-valued fields: tau_s_jets is the
kernel maps.tau_s run on jet arrays (see ``jet``), so the tension has
one formula for floats and jets.  Each operator builds one
maps.AlongMap at its points (bi_tension_at: component jets of order 4;
jacobi_at: order 3), and the building blocks (the tables, tau_s_jets,
field_covariant_data, field_groups) read only that context, R^N
included, and skip the Christoffel terms of a constant metric (None).
field_groups, the one Jacobi function on a context, takes a field as
its (n,) jet array: a TangentField's jets (jacobi_at) or the jet
tension (bi_tension_at).  A context of order p serves every operator
of order <= p, with the same values bit for bit: field_groups on a
bi-tension context equals the Jacobi operator's own, and the tables
(so the tension) of any context of order >= 2 equal map_tables'.  So a
caller that needs several operators at one point set builds the
highest-order context once.  The variant is chosen at assembly: the
six groups do not depend on it, and assemble sums four or six of them,
so both variants come from one group evaluation.  mesh_pairing is the
one pairing on a context; the three public pairings each build their
operator's context and call it, reading h from that context.  Each
energy has one density on a context, which the mesh integrals and the
FD oracle both integrate.

jacobi_groups is the one implementation of the six groups.  It works
in coordinate form: each frame sum over i becomes a contraction with
gi = sum_i e_i e_i^T, which equals g^{-1} for an orthonormal frame.
The frame indices are raised once (gi dphi, h gi dphi, gi nab v, ...),
after which each group is two or three contractions of two operands
each.  Every array may carry trailing batch axes.  The pointwise paths
pass gi = E^T E for their frame E (rows e_i), so a rotated frame is
still a real input.  The grid flow passes its whole grid at once.

The jet-valued side is batched the same way.  The context, and so
bi_tension and jacobi_operator, take points x of shape (m, ...), and
the jet algebra runs once over all of them, on jet
arrays whose tensor axes come before the batch axes; a single point
(m,) is the batch of one through the same code.  The mesh integrals
(symphonic_energy, bi_energy and the three pairings) therefore make one
call over all quadrature nodes and reduce the node values with
mesh.pairwise_sum in node order, so they equal the sum of pointwise
node values up to rounding.  A domain error names the first failing
node with the text the pointwise call there raises.
"""

from __future__ import annotations

import numpy as np

from . import geometry as geo
from . import maps as mp
from .jet import einsum
from .mesh import Mesh

REDUCED = "reduced"
FULL = "full"
_VARIANTS = (REDUCED, FULL)

ENERGY_SYM = "sym"
ENERGY_BISYM = "bisym"


# jet-valued symphonic tension ----------------------------------------------


def tau_s_jets(ctx: mp.AlongMap):
    """Symphonic tension as an (n,) jet array in the source variables
    at the context's points: maps.tau_s on jet arrays.

    With component jets of order p the result has order p - 2, which
    feeds the bi-tension assembly (p = 4 gives the required order 2).
    """
    p = ctx.jets.order
    if p < 3:
        raise ValueError("tau_s_jets needs component jets of order >= 3")
    tgt, gammaN = ctx.target, ctx.gammaN_along
    h = tgt.values if tgt.constant else ctx.along(tgt.jets)
    met = ctx.source
    gi, gammaM = met.inverse, None
    if not met.constant:
        gi = geo.inverse_jets(met.jets.truncate(p - 2))
        gammaM = met.christoffel.truncate(p - 2)
    d1 = ctx.jets.partials()                     # [i, a], order p - 1
    d2 = d1.partials()                           # [j, i, a], order p - 2
    d1 = d1.truncate(p - 2)
    sff = mp.nabla_dphi(d2, gammaM, d1, gammaN)
    del d2, gammaM  # free these whole-batch arrays before the kernel runs
    return mp.tau_s(gi, h, d1, sff)


# covariant derivatives of a field along the map -----------------------------


def field_covariant_data(ctx: mp.AlongMap, v_jets):
    """Values of v, nabla v, nabla^2 v at the context's points for a
    field given by jets there.

    The context needs component jets of order >= 3 (so target metric
    jets of order >= 2).  v_jets, the field's (n,) jet array, must have
    order >= 2.
    Returns (v (n,), Dv (m,n), DDv (m,m,n)), each with the batch axes,
    where DDv[i,j] is the second covariant derivative with outer
    direction i, using the source connection on the form index and the
    pullback connection on the bundle index; the Christoffel term of a
    constant metric is skipped.
    """
    # first covariant derivative as a jet array [i, a] of order >= 1
    dv_jets = v_jets.partials()
    if ctx.gammaN_along is not None:
        dv_jets = dv_jets + einsum("abc...,ib...,c...->ia...",
                                   ctx.gammaN_along.truncate(1),
                                   ctx.jets.partials(), v_jets)
    v, dv = v_jets.value, dv_jets.value
    ddv = dv_jets.gradient()                             # d_i (nab_j v)^a
    gammaN = ctx.target.christoffel_values
    if gammaN is not None:
        ddv = ddv + np.einsum("abc...,ib...,jc...->ija...", gammaN,
                              ctx.jets.gradient(), dv)
    gammaM = ctx.source.christoffel_values
    if gammaM is not None:
        ddv = ddv - np.einsum("kij...,ka...->ija...", gammaM, dv)
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

    Raised-index form, every contraction over two operands: the frame
    sums are raised once, up^p = gi^pq D_q, hup^p = h up^p,
    dvu^p = gi^pq Dv_q, hdvu^p = h dvu^p, trS = gi^pq S_pq and
    htrS = h trS, and then

        A = 2 (dvu^q . hup^s) S_qs
        B = (hup^s . trDDv + dvu^s . htrS) D_s
        C = (S_pr . hup^r + D_p . htrS) dvu^p
        D = (up^q . hup^s) DDv_sq        (+ the curvature term)
        E = (hdvu^q . S_qr) up^r
        F = (DDv_rp . hup^r) up^p
    """
    ddv_D = ddv
    if riem is not None:
        ddv_D = ddv + einsum("abcd...,c...,sd...,qb...->sqa...",
                             riem, v, d1, d1)
    up = einsum("pq...,qa...->pa...", gi, d1)
    hup = einsum("ab...,pb...->pa...", h, up)
    dvu = einsum("pq...,qa...->pa...", gi, dv)
    hdvu = einsum("ab...,pb...->pa...", h, dvu)
    tr_s = einsum("pq...,pqa...->a...", gi, sff)
    htr_s = einsum("ab...,b...->a...", h, tr_s)
    tr_ddv = einsum("pq...,pqa...->a...", gi, ddv)
    hb = (einsum("sa...,a...->s...", hup, tr_ddv)
          + einsum("sa...,a...->s...", dvu, htr_s))
    hc = (einsum("pra...,ra...->p...", sff, hup)
          + einsum("pa...,a...->p...", d1, htr_s))
    return {
        "A": 2.0 * einsum("qs...,qsa...->a...",
                          einsum("qa...,sa...->qs...", dvu, hup), sff),
        "B": einsum("s...,sa...->a...", hb, d1),
        "C": einsum("p...,pa...->a...", hc, dvu),
        "D": einsum("qs...,sqa...->a...",
                    einsum("qa...,sa...->qs...", up, hup), ddv_D),
        "E": einsum("r...,ra...->a...",
                    einsum("qa...,qra...->r...", hdvu, sff), up),
        "F": einsum("p...,pa...->a...",
                    einsum("rpa...,ra...->p...", ddv, hup), up),
    }


def assemble(groups: dict, variant: str) -> np.ndarray:
    """The operator of a variant from its term groups."""
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    out = groups["A"] + groups["B"] + groups["C"] + groups["D"]
    if variant == FULL:
        out = out + groups["E"] + groups["F"]
    return out


def field_groups(ctx: mp.AlongMap, v_jets, frame=None) -> dict:
    """Term groups of the Jacobi operator on the field given by its
    (n,) jet array v_jets (order >= 2) at the context's points (component
    jets of order >= 3), traced over the frame (default: the source's).
    A bi-tension context (order 4) gives a field the same groups as the
    operator's own order-3 context, bit for bit."""
    t = mp.tables_from_jets(ctx, frame)
    v, dv, ddv = field_covariant_data(ctx, v_jets)
    return jacobi_groups(mp.frame_metric(t.frame), t.h, t.d1, t.sff,
                         v, dv, ddv, ctx.target.riemann)


def jacobi_at(spec: mp.MapSpec, x, field: mp.TangentField, frame=None):
    """(context, term groups) of the Jacobi operator on the field at
    points x (m, ...)."""
    ctx = mp.along_map(spec, x, 3)
    return ctx, field_groups(ctx, field.jets(spec.source.coords, ctx.x, 2),
                             frame)


def bi_tension_at(spec: mp.MapSpec, x, frame=None):
    """(context, term groups) of the bi-tension at points x (m, ...)."""
    ctx = mp.along_map(spec, x, 4)
    return ctx, field_groups(ctx, tau_s_jets(ctx), frame)


def jacobi_operator(spec: mp.MapSpec, x, field: mp.TangentField,
                    variant: str = REDUCED, frame=None) -> np.ndarray:
    """Apply the Jacobi-type operator to a tangent field at points x
    (m, ...); the result is (n, ...)."""
    return assemble(jacobi_at(spec, x, field, frame)[1], variant)


def bi_tension(spec: mp.MapSpec, x, variant: str = REDUCED,
               frame=None) -> np.ndarray:
    """The Jacobi-type operator applied to the symphonic tension, at
    points x (m, ...)."""
    return assemble(bi_tension_groups(spec, x, frame=frame), variant)


def bi_tension_groups(spec: mp.MapSpec, x, frame=None) -> dict:
    """Term-by-term breakdown of the bi-tension at points x (m, ...)."""
    return bi_tension_at(spec, x, frame)[1]


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


def symphonic_density(ctx: mp.AlongMap) -> np.ndarray:
    """|phi^* h|^2 at the context's points (component jets of order >= 1)."""
    return mp.energy_density(ctx.source.frame, ctx.target.values,
                             ctx.jets.gradient())


def bi_density(ctx: mp.AlongMap) -> np.ndarray:
    """|tau^s|^2_h at the context's points (component jets of order >= 2)."""
    t = mp.tables_from_jets(ctx)
    tau = mp.tau_s_from_tables(t)
    return mp.h_inner(tau, t.h, tau)


# the density of each energy and the component jet order it reads
DENSITIES = {ENERGY_SYM: (symphonic_density, 1),
             ENERGY_BISYM: (bi_density, 2)}


def symphonic_energy(spec: mp.MapSpec, mesh: Mesh) -> float:
    """Integral of |phi^* h|^2 against dv_g."""
    return mesh.integrate(symphonic_density(
        mp.along_map(spec, mesh.points.T, 1)))


def bi_energy(spec: mp.MapSpec, mesh: Mesh) -> float:
    """Integral of |tau^s|^2 against dv_g."""
    return mesh.integrate(bi_density(mp.along_map(spec, mesh.points.T, 2)))


def mesh_pairing(ctx: mp.AlongMap, mesh: Mesh, u, w,
                 scale: float) -> float:
    """scale * int h(u, w) dv_g for fields u, w (n, nodes) at the
    context's points, which are the mesh nodes: every pairing below is
    this on its operator's context."""
    return scale * mesh.integrate(mp.h_inner(u, ctx.target.values, w))


def first_variation_pairing(spec: mp.MapSpec, field: mp.TangentField,
                            mesh: Mesh) -> float:
    """-4 int h(tau^s, v) dv_g, the closed-form first variation."""
    ctx = mp.along_map(spec, mesh.points.T, 2)
    return mesh_pairing(ctx, mesh,
                        mp.tau_s_from_tables(mp.tables_from_jets(ctx)),
                        field.values(spec.source.coords, ctx.x), -4.0)


def bi_variation_pairing(spec: mp.MapSpec, field: mp.TangentField,
                         mesh: Mesh, variant: str = FULL) -> float:
    """-1 int h(v, tau^s_2) dv_g, the classically normalized
    bi-energy pairing."""
    ctx, groups = bi_tension_at(spec, mesh.points.T)
    return mesh_pairing(ctx, mesh, field.values(spec.source.coords, ctx.x),
                        assemble(groups, variant), -1.0)


def index_form_pairing(spec: mp.MapSpec, vfield: mp.TangentField,
                       wfield: mp.TangentField, mesh: Mesh,
                       variant: str = FULL) -> float:
    """-4 int h(J v, w) dv_g, the closed-form second variation."""
    ctx, groups = jacobi_at(spec, mesh.points.T, vfield)
    return mesh_pairing(ctx, mesh, assemble(groups, variant),
                        wfield.values(spec.source.coords, ctx.x), -4.0)
