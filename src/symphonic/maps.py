"""First- and second-order data of a smooth map between charts.

The central objects are pointwise coefficient tables (values of the map
partials, both metrics, both Christoffel families) from which the
differential, pullback metric, second fundamental form, tension field,
symphonic stress and symphonic tension are assembled.

Index conventions for tables at a point x:

    d1[i, a]      = d phi^a / d x^i
    d2[i, j, a]   = second partials
    sff[i, j, a]  = covariant second fundamental form nabla dphi
    gammaM[k,i,j] = source Christoffel symbols
    gammaN[a,b,c] = target Christoffel symbols at phi(x)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import geometry as geo
from .jet import Jet

__all__ = [
    "MapSpec", "TangentField", "MapTables",
    "differential", "pullback_metric", "symphonic_energy_density",
    "second_fundamental_form", "tension_field", "symphonic_stress",
    "symphonic_tension", "scalar_symphonic_residual",
    "map_tables", "tables_from_jets", "tau_s_from_tables",
]


@dataclass
class MapSpec:
    """A smooth map given by target-coordinate expressions of the
    source coordinates."""

    source: geo.ManifoldModel
    target: geo.ManifoldModel
    components: list  # n Exprs in source coordinates

    def __post_init__(self):
        if len(self.components) != self.target.dim:
            raise geo.GeometryError(
                f"map needs {self.target.dim} components, "
                f"got {len(self.components)}")
        allowed = set(self.source.coords)
        for k, comp in enumerate(self.components):
            extra = ex.free_variables(comp) - allowed
            if extra:
                raise geo.GeometryError(
                    f"map component {k} references non-source "
                    f"variables {sorted(extra)}")

    def value(self, x):
        return np.array([ex.eval_value(c, self.source.coords, x)
                         for c in self.components])

    def component_jets(self, x, order):
        return [ex.eval_jet(c, self.source.coords, x, order)
                for c in self.components]


@dataclass
class TangentField:
    """Section of the pulled-back tangent bundle, given by expressions
    of the source coordinates, optionally windowed to compact support.

    The window multiplies every component by max(0, 1 - (r/R)^2)^5
    around the given center, which is C^4 at the support boundary.
    """

    components: list  # n Exprs in source coordinates
    bump_center: list = None
    bump_radius: float = None

    def _bump(self, scalars, x):
        if self.bump_center is None:
            return None
        u = 1.0
        r2 = 0.0
        for xs, c in zip(scalars, self.bump_center):
            r2 = r2 + (xs - c) * (xs - c)
        u = 1.0 - r2 / (self.bump_radius ** 2)
        uval = u.value if isinstance(u, Jet) else u
        if uval <= 0.0:
            return 0.0
        return u * u * u * u * u

    def jets(self, coords, x, order):
        out = [ex.eval_jet(c, coords, x, order) for c in self.components]
        if self.bump_center is not None:
            nvars = len(coords)
            var_jets = [Jet.variable(k, float(x[k]), nvars, order)
                        for k in range(nvars)]
            w = self._bump(var_jets, x)
            if isinstance(w, float):
                return [Jet.constant(0.0, nvars, order) for _ in out]
            out = [j * w for j in out]
        return out

    def values(self, coords, x):
        vals = np.array([ex.eval_value(c, coords, x) for c in self.components])
        if self.bump_center is not None:
            w = self._bump([float(v) for v in x], x)
            vals = vals * (w if isinstance(w, float) else float(w))
        return vals


@dataclass
class MapTables:
    """Pointwise float data of a map, enough for all first-order
    operators and, with curvature=True, for the Jacobi-type ones."""

    spec: MapSpec
    x: list
    phi: np.ndarray            # (n,)
    d1: np.ndarray             # (m, n)
    d2: np.ndarray             # (m, m, n)
    g: np.ndarray              # (m, m)
    ginv: np.ndarray
    sqrtg: float
    gammaM: np.ndarray         # (m, m, m) [k, i, j]
    h: np.ndarray              # (n, n)
    gammaN: np.ndarray         # (n, n, n) [a, b, c]
    sff: np.ndarray            # (m, m, n)
    frame: np.ndarray          # (m, m) rows are frame vectors
    riemN: np.ndarray = None   # (n, n, n, n) R^a_{bcd} at phi(x)
    dgammaN: np.ndarray = None  # (n, n, n, n) [d, a, b, c]


def _constant_target(target):
    """h values for a constant-coefficient target metric, else None.

    Memoized on the model instance (metric expressions are immutable
    after construction)."""
    try:
        return target._constant_metric_memo
    except AttributeError:
        pass
    n = target.dim
    if all(ex.is_constant(target.metric[a][b])
           for a in range(n) for b in range(n)):
        h = np.array([[ex.eval_value(target.metric[a][b], target.coords,
                                     [0.0] * n)
                       for b in range(n)] for a in range(n)])
    else:
        h = None
    target._constant_metric_memo = h
    return h


def _target_data(target, y, order):
    """Target metric values, Christoffels and optionally curvature at y.

    order 1 gives gammaN values; order >= 2 adds d gammaN and the
    curvature tensor R^a_{bcd}.
    """
    target.require_inside(y)
    n = target.dim
    h_const = _constant_target(target)
    if h_const is not None:
        zeros3 = np.zeros((n, n, n))
        zeros4 = np.zeros((n, n, n, n)) if order >= 2 else None
        return h_const, zeros3, zeros4, zeros4
    g_jets = geo.metric_jets(target, y, order)
    h = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            h[a, b] = g_jets[a][b].value
    eigs = np.linalg.eigvalsh(h)
    if eigs.min() <= geo.SPD_EIGENVALUE_FLOOR:
        raise geo.NonSPDError(
            f"target metric not positive definite at {list(map(float, y))}")
    gam_jets = geo.christoffel_jets(g_jets)
    gammaN = np.empty((n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                gammaN[a, b, c] = (gam_jets[a][b][c].value
                                   if isinstance(gam_jets[a][b][c], Jet)
                                   else float(gam_jets[a][b][c]))
    dgammaN = None
    riemN = None
    if order >= 2:
        dgammaN = np.zeros((n, n, n, n))
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    jet = gam_jets[a][b][c]
                    if isinstance(jet, Jet):
                        dgammaN[:, a, b, c] = jet.gradient()
        riemN = np.empty((n, n, n, n))
        for l in range(n):
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        val = dgammaN[i, l, j, k] - dgammaN[j, l, i, k]
                        for p in range(n):
                            val += gammaN[l, i, p] * gammaN[p, j, k]
                            val -= gammaN[l, j, p] * gammaN[p, i, k]
                        riemN[l, k, i, j] = val
    return h, gammaN, dgammaN, riemN


def source_point_data(source: geo.ManifoldModel, x):
    """Source-side tables at x: metric data, Christoffel values, frame.

    Cacheable across repeated evaluations at the same point (the
    finite-difference oracle reuses it for every stencil value)."""
    met = geo.metric_at(source, x, order=1)
    gam_jets = geo.christoffel_jets(met.jets)
    m = source.dim
    gammaM = np.empty((m, m, m))
    for k in range(m):
        for i in range(m):
            for j in range(m):
                v = gam_jets[k][i][j]
                gammaM[k, i, j] = v.value if isinstance(v, Jet) else float(v)
    frame = geo.frame_at(source, x).vectors
    return met, gammaM, frame


def tables_from_jets(spec: MapSpec, x, comp_jets, curvature: bool = False,
                     frame: np.ndarray = None, source_data=None) -> MapTables:
    """Assemble pointwise tables from already-evaluated component jets
    of order >= 2 (the oracle feeds deformed jets through here)."""
    m, n = spec.source.dim, spec.target.dim
    phi = np.array([j.value for j in comp_jets])
    d1 = np.empty((m, n))
    d2 = np.empty((m, m, n))
    for a, jet in enumerate(comp_jets):
        for i in range(m):
            alpha = [0] * m
            alpha[i] = 1
            d1[i, a] = jet.derivative(tuple(alpha))
            for j in range(m):
                beta = [0] * m
                beta[i] += 1
                beta[j] += 1
                d2[i, j, a] = jet.derivative(tuple(beta))
    if source_data is None:
        source_data = source_point_data(spec.source, x)
    met, gammaM, default_frame = source_data
    h, gammaN, dgammaN, riemN = _target_data(
        spec.target, phi, 2 if curvature else 1)
    sff = (d2
           - np.einsum("kij,ka->ija", gammaM, d1)
           + np.einsum("abc,ib,jc->ija", gammaN, d1, d1))
    if frame is None:
        frame = default_frame
    return MapTables(spec, list(map(float, x)), phi, d1, d2,
                     met.values, met.inverse, met.sqrt_det, gammaM,
                     h, gammaN, sff, frame, riemN, dgammaN)


def map_tables(spec: MapSpec, x, curvature: bool = False,
               frame: np.ndarray = None) -> MapTables:
    spec.source.require_inside(x)
    return tables_from_jets(spec, x, spec.component_jets(x, 2),
                            curvature=curvature, frame=frame)


# pointwise operators -------------------------------------------------------


def differential(spec: MapSpec, x) -> np.ndarray:
    """d phi_x as an (n x m) matrix in coordinate bases."""
    spec.source.require_inside(x)
    jets = spec.component_jets(x, 1)
    return np.array([jet.gradient() for jet in jets])


def pullback_metric(spec: MapSpec, x) -> np.ndarray:
    """(phi^* h)_{ij} = h_{ab} d_i phi^a d_j phi^b."""
    t = map_tables(spec, x)
    return np.einsum("ia,ab,jb->ij", t.d1, t.h, t.d1)


def symphonic_energy_density(spec_or_tables, x=None, frame=None) -> float:
    """Squared norm of the pullback metric in an orthonormal frame."""
    t = _as_tables(spec_or_tables, x, frame=frame)
    df = t.frame @ t.d1                      # (m, n) rows dphi(e_i)
    gram = df @ t.h @ df.T
    return float(np.sum(gram * gram))


def second_fundamental_form(spec: MapSpec, x, X, Y) -> np.ndarray:
    t = map_tables(spec, x)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return np.einsum("i,j,ija->a", X, Y, t.sff)


def tension_field(spec_or_tables, x=None, frame=None) -> np.ndarray:
    """Trace of the second fundamental form (harmonic tension)."""
    t = _as_tables(spec_or_tables, x, frame=frame)
    sf = np.einsum("ip,jq,pqa->ija", t.frame, t.frame, t.sff)
    return np.einsum("iia->a", sf)


def symphonic_stress(spec: MapSpec, x, X, frame=None) -> np.ndarray:
    """sigma_phi(X) = sum_j h(dphi X, dphi e_j) dphi e_j."""
    t = map_tables(spec, x, frame=frame)
    df = t.frame @ t.d1
    dX = np.asarray(X, dtype=float) @ t.d1
    return np.einsum("a,ab,jb,jc->c", dX, t.h, df, df)


def tau_s_from_tables(t: MapTables, frame: np.ndarray = None) -> np.ndarray:
    """Symphonic tension from pointwise tables.

    tau^s = sum_{ij} h(S(e_i,e_i), dphi e_j) dphi e_j
          + h(dphi e_i, S(e_i,e_j)) dphi e_j
          + h(dphi e_i, dphi e_j) S(e_i,e_j)
    with S the second fundamental form.
    """
    E = t.frame if frame is None else frame
    df = E @ t.d1                                     # (m, n)
    sf = np.einsum("ip,jq,pqa->ija", E, E, t.sff)     # (m, m, n)
    trace_s = np.einsum("iia->a", sf)
    term1 = np.einsum("a,ab,jb,jc->c", trace_s, t.h, df, df)
    term2 = np.einsum("ia,ab,ijb,jc->c", df, t.h, sf, df)
    term3 = np.einsum("ia,ab,jb,ijc->c", df, t.h, df, sf)
    return term1 + term2 + term3


def symphonic_tension(spec_or_tables, x=None, frame=None) -> np.ndarray:
    t = _as_tables(spec_or_tables, x, frame=frame)
    return tau_s_from_tables(t)


def scalar_symphonic_residual(model: geo.ManifoldModel, f: ex.Expr, x) -> float:
    """(Delta f) |grad f|^2 + 2 Hess_f(grad f, grad f)."""
    grad = geo.gradient(model, f, x)
    hess = geo.hessian(model, f, x)
    lap = geo.laplacian(model, f, x)
    g = geo.metric_at(model, x).values
    grad_norm2 = float(grad @ g @ grad)
    return lap * grad_norm2 + 2.0 * float(grad @ hess @ grad)


def _as_tables(spec_or_tables, x, frame=None) -> MapTables:
    if isinstance(spec_or_tables, MapTables):
        t = spec_or_tables
        if frame is not None:
            t = MapTables(**{**t.__dict__, "frame": frame})
        return t
    return map_tables(spec_or_tables, x, frame=frame)
