"""First- and second-order data of a smooth map between charts.

The central objects are the data along the map (AlongMap) and the
float tables read from it (map partials, target metric, second
fundamental form, frame), from which the differential, pullback
metric, second fundamental form, tension field, symphonic stress and
symphonic tension are assembled.  The second
fundamental form, the symphonic tension and the energy density are
written once, as the kernels nabla_dphi, tau_s and energy_density over
trailing batch axes; the pointwise functions, the mesh integrals and
the grid flow all call them.  nabla_dphi and tau_s contract with
jet.einsum, so they run on jet arrays too: the jet-valued tension that
feeds the bi-tension is tau_s on jets (see ``variational``).  tau_s
raises its frame indices once and then contracts two operands at a
time, which keeps every einsum call cheap on grids and on jets.

An operator call builds one AlongMap (along_map) at its points, which
holds each thing in one form: the component jets of the order it needs
as one (n,) jet array, and the source metric at x (source_point_data)
and target metric at phi(x) as MetricAtPoint objects, which give their
frame, Christoffel jets and curvature on first read.  Each side is one
geometry.metric_at call, which makes the domain check and gives a
constant metric as its chart's one shared MetricAtPoint, with None for
its Christoffel symbols on the float and the jet path alike;
nabla_dphi skips a None term.  The tables, the jet tension, the energy
densities and the covariant derivatives of a field (``variational``)
all read from the context, so each metric is evaluated at most once
per call.  The finite-difference oracle swaps deformed component jets
into one context (AlongMap.deformed) and keeps its source side.

The components of a map or a field are one program (``expr.program``,
compiled on first use and cached on the MapSpec or TangentField), so
component_jets and value, and TangentField.jets and .values, are one
evaluation of it each: a subexpression that several components share
runs once, and a pointwise jet runs one level schedule for all
components.

Tables are batched: points x have shape (m, ...), coordinate first,
and every table carries the same trailing batch axes after its index
axes (a constant metric carries none and broadcasts).  component_jets,
TangentField.jets (each an (n,) jet array) and .values, along_map and
tables_from_jets each take one pass over all points, so a whole
quadrature mesh is one call; a single point (m,) is the batch of one.
The pointwise operators take batches of points the same way,
so a catalog case evaluates its sample points in one call each.

Index conventions at a point x:

    d1[i, a]      = d phi^a / d x^i
    d2[i, j, a]   = second partials
    sff[i, j, a]  = covariant second fundamental form nabla dphi
    gammaM[k,i,j] = source Christoffel symbols
    gammaN[a,b,c] = target Christoffel symbols at phi(x)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import expr as ex
from . import geometry as geo
from .jet import Jet, compose, einsum

__all__ = [
    "MapSpec", "TangentField", "MapTables",
    "differential", "pullback_metric", "symphonic_energy_density",
    "second_fundamental_form", "tension_field", "symphonic_stress",
    "symphonic_tension", "scalar_symphonic_residual",
    "AlongMap", "along_map", "map_tables", "tables_from_jets",
    "tau_s_from_tables",
    "nabla_dphi", "tau_s", "energy_density", "frame_metric", "h_inner",
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

    @cached_property
    def program(self) -> ex.Program:
        """The components as one program, compiled on first use."""
        return ex.program(self.components)

    def value(self, x):
        """Map values (n, ...) at points x (m, ...)."""
        return ex.eval_value(self.program, self.source.coords, x)

    def component_jets(self, x, order) -> Jet:
        """The (n,) jet array of the components at points x (m, ...)."""
        return ex.eval_jet(self.program, self.source.coords, x, order)


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

    def _bump(self, scalars):
        """The window at points given by their coordinates (jets or
        arrays over the batch), zero where it has no support."""
        r2 = 0.0
        for xs, c in zip(scalars, self.bump_center):
            r2 = r2 + (xs - c) * (xs - c)
        u = 1.0 - r2 / (self.bump_radius ** 2)
        w = u * u * u * u * u
        if isinstance(u, Jet):
            return Jet(w.space, np.where(u.coeffs[0] > 0.0, w.coeffs, 0.0))
        return np.where(u > 0.0, w, 0.0)

    @cached_property
    def program(self) -> ex.Program:
        """The components as one program, compiled on first use."""
        return ex.program(self.components)

    def jets(self, coords, x, order) -> Jet:
        """The (n,) jet array of the components at points x (m, ...)."""
        x = np.asarray(x, dtype=float)
        out = ex.eval_jet(self.program, coords, x, order)
        if self.bump_center is not None:
            nvars = len(coords)
            w = self._bump([Jet.variable(k, x[k], nvars, order)
                            for k in range(nvars)])
            out = out * Jet(w.space, w.coeffs[:, None])  # w per component
        return out

    def values(self, coords, x):
        """Component values (n, ...) at points x (m, ...)."""
        x = np.asarray(x, dtype=float)
        vals = ex.eval_value(self.program, coords, x)
        if self.bump_center is not None:
            vals = vals * self._bump(list(x))
        return vals


@dataclass
class MapTables:
    """Float data of a map at a point or at a batch of points (shapes
    below, plus the trailing batch axes), enough for all first-order
    operators."""

    d1: np.ndarray             # (m, n)
    h: np.ndarray              # (n, n)
    sff: np.ndarray            # (m, m, n)
    frame: np.ndarray          # (m, m) rows are frame vectors


def source_point_data(source: geo.ManifoldModel, x, order: int):
    """The source MetricAtPoint at points x (m, ...) with jets of the
    given order (geometry.metric_at, so the chart's shared one if its
    metric is constant)."""
    return geo.metric_at(source, x, order)


@dataclass(frozen=True, eq=False)
class AlongMap:
    """What the operators read about a map at points x (m, ...), as
    jets in the source variables: built once per call by along_map.

    jets is the (n,) component jet array of order p, source the source
    metric at x and target the target metric at phi(x), each with jets
    of order max(p - 1, 1), or the chart's shared MetricAtPoint if its
    metric is constant.  target, and gammaN_along, its Christoffel jets
    composed with the map, are evaluated on first use.
    """

    spec: MapSpec
    x: np.ndarray
    jets: Jet
    source: geo.MetricAtPoint

    @cached_property
    def target(self) -> geo.MetricAtPoint:
        return geo.metric_at(self.spec.target, self.jets.value,
                             max(self.jets.order - 1, 1))

    def along(self, target_jets):
        """A jet array of target truncated to the Christoffel order and
        composed with the map; None passes through."""
        if target_jets is None:
            return None
        return compose(target_jets.truncate(self.target.christoffel.order),
                       self.jets)

    @cached_property
    def gammaN_along(self):
        return self.along(self.target.christoffel)

    def deformed(self, jets) -> "AlongMap":
        """The context of a map with other component jets (an (n,) jet
        array of the same order) at the same points: the source side is
        kept, the target side is evaluated anew."""
        return replace(self, jets=jets)


def along_map(spec: MapSpec, x, order: int) -> AlongMap:
    """The AlongMap of spec at points x (m, ...) with component jets of
    the given order; the source metric, with its domain check, comes
    first."""
    x = np.asarray(x, dtype=float)
    source = source_point_data(spec.source, x, max(order - 1, 1))
    return AlongMap(spec, x, spec.component_jets(x, order), source)


def tables_from_jets(ctx: AlongMap, frame: np.ndarray = None) -> MapTables:
    """Assemble tables from a context whose component jets have order
    >= 2, traced over the given frame (default: the source's
    Gram-Schmidt frame)."""
    d1, d2 = ctx.jets.gradient(), ctx.jets.hessian()
    sff = nabla_dphi(d2, ctx.source.christoffel_values, d1,
                     ctx.target.christoffel_values)
    return MapTables(d1, ctx.target.values, sff,
                     ctx.source.frame if frame is None else frame)


def map_tables(spec: MapSpec, x) -> MapTables:
    return tables_from_jets(along_map(spec, x, 2))


# operator kernels ----------------------------------------------------------
#
# Coordinate form over trailing batch axes: every array may carry the
# same extra axes ... after its index axes (grid nodes, sample points),
# and arrays without them broadcast.  gi stands for sum_i e_i e_i^T over
# an orthonormal frame, which is the inverse source metric.  Kernels
# that contract with jet.einsum take jet arrays as well.


def nabla_dphi(d2, gammaM, d1, gammaN):
    """Covariant second fundamental form

        (nabla dphi)_ij^a = d_i d_j phi^a - Gamma^k_{ij} d_k phi^a
                          + Gamma^a_{bc}(phi) d_i phi^b d_j phi^c

    from d2 (m, m, n, ...), gammaM (m, m, m, ...), d1 (m, n, ...) and
    gammaN (n, n, n, ...) along the map; a Christoffel term is None
    for a constant metric, and then skipped.
    """
    out = d2
    if gammaM is not None:
        out = out - einsum("kij...,ka...->ija...", gammaM, d1)
    if gammaN is None:
        return out
    return out + einsum("abc...,ib...,jc...->ija...", gammaN, d1, d1)


def tau_s(gi, h, d1, sff):
    """Symphonic tension

        tau^s = sum_{ij} h(S(e_i,e_i), dphi e_j) dphi e_j
              + h(dphi e_i, S(e_i,e_j)) dphi e_j
              + h(dphi e_i, dphi e_j) S(e_i,e_j)

    with S the second fundamental form; gi (m, m, ...), h (n, n, ...),
    d1 (m, n, ...), sff (m, m, n, ...).

    Raised-index form, every contraction over two operands: with
    hd_r = h d_r (target index lowered), up^p = gi^pq d_q,
    hup^p = gi^pq hd_q and tau = gi^pq S_pq,

        w_r   = tau . hd_r + S_qr . hup^q
        tau^s = w_r up^r + (hup^q . up^s) S_qs.
    """
    hd = einsum("ab...,rb...->ra...", h, d1)
    up = einsum("pq...,qa...->pa...", gi, d1)
    hup = einsum("pq...,qa...->pa...", gi, hd)
    tau = einsum("pq...,pqa...->a...", gi, sff)
    w = (einsum("a...,ra...->r...", tau, hd)
         + einsum("qra...,qa...->r...", sff, hup))
    return (einsum("r...,ra...->a...", w, up)
            + einsum("qs...,qsa...->a...",
                     einsum("qb...,sb...->qs...", hup, up), sff))


def h_inner(u, h, w):
    """h(u, w) at every point: u, w (n, ...), h (n, n, ...)."""
    return einsum("a...,ab...,b...->...", u, h, w)


def frame_metric(frame):
    """gi = sum_i e_i e_i^T (m, m, ...) from frame rows e_i (m, m, ...):
    the inverse source metric for an orthonormal frame."""
    return np.einsum("pi...,pj...->ij...", frame, frame)


def energy_density(frame, h, d1):
    """Symphonic energy density |phi^* h|^2, the squared norm of the
    pullback metric in the orthonormal frame whose rows are e_i;
    frame (m, m, ...), h (n, n, ...), d1 (m, n, ...)."""
    df = np.einsum("ip...,pa...->ia...", frame, d1)          # dphi(e_i)
    hd = np.einsum("ab...,jb...->ja...", h, df)
    gram = np.einsum("ia...,ja...->ij...", df, hd)
    return np.einsum("ij...,ij...->...", gram, gram)


# pointwise operators -------------------------------------------------------


def differential(spec: MapSpec, x) -> np.ndarray:
    """d phi_x as an (n x m) matrix in coordinate bases."""
    spec.source.require_inside(x)
    return np.swapaxes(spec.component_jets(x, 1).gradient(), 0, 1)


def pullback_metric(spec: MapSpec, x) -> np.ndarray:
    """(phi^* h)_{ij} = h_{ab} d_i phi^a d_j phi^b."""
    ctx = along_map(spec, x, 1)  # no Christoffel symbols are read
    d1 = ctx.jets.gradient()
    return np.einsum("ia...,ab...,jb...->ij...", d1, ctx.target.values, d1)


def symphonic_energy_density(spec: MapSpec, x, frame=None):
    """Squared norm of the pullback metric in an orthonormal frame
    (default: the source's): a float at one point, an array over a
    batch."""
    ctx = along_map(spec, x, 1)  # no Christoffel symbols are read
    density = energy_density(ctx.source.frame if frame is None else frame,
                             ctx.target.values, ctx.jets.gradient())
    return float(density) if density.ndim == 0 else density


def second_fundamental_form(spec: MapSpec, x, X, Y) -> np.ndarray:
    """(nabla dphi)(X, Y), (n, ...) at points x (m, ...) for tangent
    vectors X, Y (m, ...) in coordinate components."""
    t = map_tables(spec, x)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return np.einsum("i...,j...,ija...->a...", X, Y, t.sff)


def tension_field(spec: MapSpec, x, frame=None) -> np.ndarray:
    """Trace of the second fundamental form (harmonic tension) over an
    orthonormal frame (default: the source's)."""
    t = tables_from_jets(along_map(spec, x, 2), frame)
    sf = np.einsum("ip...,jq...,pqa...->ija...", t.frame, t.frame, t.sff)
    return np.einsum("iia...->a...", sf)


def symphonic_stress(spec: MapSpec, x, X) -> np.ndarray:
    """sigma_phi(X) = sum_j h(dphi X, dphi e_j) dphi e_j."""
    ctx = along_map(spec, x, 1)  # no Christoffel symbols are read
    d1 = ctx.jets.gradient()
    df = np.einsum("ip...,pa...->ia...", ctx.source.frame, d1)
    dX = np.einsum("p...,pa...->a...", np.asarray(X, dtype=float), d1)
    return np.einsum("a...,ab...,jb...,jc...->c...", dX, ctx.target.values,
                     df, df)


def tau_s_from_tables(t: MapTables) -> np.ndarray:
    """Symphonic tension from tables, traced over their frame."""
    return tau_s(frame_metric(t.frame), t.h, t.d1, t.sff)


def symphonic_tension(spec: MapSpec, x, frame=None) -> np.ndarray:
    """Symphonic tension (n, ...) at points x (m, ...), traced over an
    orthonormal frame (default: the source's)."""
    return tau_s_from_tables(tables_from_jets(along_map(spec, x, 2), frame))


def scalar_symphonic_residual(model: geo.ManifoldModel, f: ex.Expr, x):
    """(Delta f) |grad f|^2 + 2 Hess_f(grad f, grad f) at points x
    (m, ...): a float at one point, an array over a batch."""
    f_data = geo.scalar_field_data(model, f, x)
    grad, hess = f_data.gradient, f_data.hessian
    grad_norm2 = np.einsum("i...,ij...,j...->...", grad,
                           f_data.metric.values, grad)
    res = f_data.laplacian * grad_norm2 + 2.0 * np.einsum(
        "i...,ij...,j...->...", grad, hess, grad)
    return float(res) if res.ndim == 0 else res
