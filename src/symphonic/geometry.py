"""Chart-level Riemannian geometry.

A manifold here is a single coordinate chart: named coordinates, metric
coefficient expressions, a rectangular domain with optional periodic
directions, and optional excluded balls around singular loci.  All
curvature quantities are produced from jets of the metric coefficients.

Curvature sign convention: R(X, Y)Z = nab_X nab_Y Z - nab_Y nab_X Z
- nab_[X,Y] Z, with coordinate components
R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
          + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}.

The metric's distinct entries, i <= j in row-major order, are one
program (``expr.program``, compiled on first use and cached on the
chart as metric_program), so metric_jets and metric_values evaluate
the metric once each and pick its (m, m) entries from the result.

Points x have shape (m, ...): coordinate first, then any batch axes.
Metric values, inverses, Christoffel arrays, frames and the gradient,
Hessian and Laplacian of a scalar field carry the same trailing batch
axes after their index axes.  Metric jets, their inverse and the
Christoffel jets are jet arrays (see ``jet``): coefficients
(size, m, m, ...) and (size, m, m, m, ...), and the Christoffels are
one jet.einsum contraction.  A single point (m,) is the batch of one
and gives unbatched arrays and floats.  Domain and
positive-definiteness checks run over the whole batch and name the
first failing point, with the text the pointwise call at that point
raises.

metric_at is the one entry point for a chart's metric: the frame, the
scalar calculus, meshes and the operator contexts of ``maps`` all go
through it.  It checks the domain first; a chart whose metric is
constant then gives its one shared MetricAtPoint (constant_metric),
whose arrays carry no batch axes (the ``...`` contractions broadcast
them) and whose Christoffel symbols and curvature are None.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr as ex
from .jet import Jet, einsum, first_failure

SPD_EIGENVALUE_FLOOR = 1e-10
# uniform draws ManifoldModel.sample_points spends on one point
SAMPLE_DRAWS_PER_POINT = 1000


class GeometryError(ValueError):
    pass


class DomainError(GeometryError):
    """A point lies outside the chart domain or inside an excluded ball.

    index is the flat batch index of that point in a batched check."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NonSPDError(GeometryError):
    """The metric matrix failed the positive-definiteness check."""


@dataclass
class ManifoldModel:
    """A chart with metric expressions and a rectangular domain.

    intervals entries may use None for an unbounded side (Euclidean
    targets).  periodic coordinates identify lo with hi.  exclusions
    are (center, radius) balls removed from the domain.
    """

    name: str
    coords: list
    metric: list  # m x m nested list of Expr
    intervals: list  # [(lo, hi)] per coordinate, entries may be None
    periodic: list = None
    exclusions: list = field(default_factory=list)

    def __post_init__(self):
        m = len(self.coords)
        if self.periodic is None:
            self.periodic = [False] * m
        if len(self.metric) != m or any(len(row) != m for row in self.metric):
            raise GeometryError(f"metric of chart '{self.name}' is not {m}x{m}")
        if len(self.intervals) != m:
            raise GeometryError("one interval per coordinate is required")
        for k, ((lo, hi), per) in enumerate(zip(self.intervals, self.periodic)):
            if per and (lo is None or hi is None):
                raise GeometryError(
                    f"periodic coordinate '{self.coords[k]}' of chart "
                    f"'{self.name}' needs a bounded interval")
            if lo is not None and hi is not None and not lo < hi:
                raise GeometryError(
                    f"interval of coordinate '{self.coords[k]}' of chart "
                    f"'{self.name}' is empty: [{lo}, {hi}]")
        # the box that contains() tests, with its 1e-12 slack; periodic
        # and unbounded sides never reject
        self._lower = np.array([-np.inf if per or lo is None else lo - 1e-12
                                for (lo, _), per in zip(self.intervals,
                                                        self.periodic)])
        self._upper = np.array([np.inf if per or hi is None else hi + 1e-12
                                for (_, hi), per in zip(self.intervals,
                                                        self.periodic)])
        # whether contains() can reject a point at all: a chart without
        # a bounded non-periodic side or an excluded ball cannot
        self.restricted = bool(self.exclusions
                               or np.isfinite(self._lower).any()
                               or np.isfinite(self._upper).any())
        self._check_symmetry()
        constant_metric(self)

    @property
    def dim(self):
        return len(self.coords)

    @cached_property
    def metric_program(self) -> ex.Program:
        """The distinct metric entries, i <= j in row-major order, as one
        program, compiled on first use."""
        m = self.dim
        return ex.program([self.metric[i][j]
                           for i in range(m) for j in range(i, m)])

    @cached_property
    def metric_entries(self) -> np.ndarray:
        """(m, m) positions in metric_program of the entries (i, j)."""
        m = self.dim
        upper = np.zeros((m, m), dtype=np.intp)
        upper[np.triu_indices(m)] = np.arange(m * (m + 1) // 2)
        return np.maximum(upper, upper.T)

    def _check_symmetry(self):
        m = self.dim
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)
                 if self.metric[i][j] != self.metric[j][i]]
        if not pairs:
            return
        rng = np.random.default_rng(0)
        x = np.array([[rng.uniform(*self._sample_bounds(k)) for k in range(m)]
                      for _ in range(100)]).T
        # the entries (i, j) and (j, i) of every pair, as one program
        prog = ex.program([e for i, j in pairs
                           for e in (self.metric[i][j], self.metric[j][i])])
        values = ex.eval_value(prog, self.coords, x)
        a, b = values[0::2], values[1::2]
        bad = abs(a - b) > 1e-12 * (1.0 + abs(a))
        point = first_failure(bad.any(0))
        if point is not None:
            i, j = pairs[first_failure(bad[:, point])]
            raise GeometryError(
                f"metric of chart '{self.name}' is not symmetric "
                f"at entry ({i},{j})")

    def _sample_bounds(self, k):
        lo, hi = self.intervals[k]
        # the box [-1, 1] on unbounded sides, moved to stay non-empty
        if lo is None:
            lo = -1.0 if hi is None or hi > -1.0 else hi - 2.0
        if hi is None:
            hi = 1.0 if lo < 1.0 else lo + 2.0
        return lo, hi

    # domain ------------------------------------------------------------

    def wrap(self, x) -> np.ndarray:
        """Fold periodic coordinates of points (m, ...) back into their
        fundamental interval."""
        out = np.array(x, dtype=float)
        for k, per in enumerate(self.periodic):
            if per:
                lo, hi = self.intervals[k]
                span = hi - lo
                out[k] = lo + (out[k] - lo) % span
        return out

    def contains(self, x):
        """Whether each point of x (m, ...) lies in the domain: a bool
        for one point, else a mask over the batch axes."""
        return ~self._outside(x)

    def _outside(self, x):
        x = self.wrap(x)
        axes = (len(x),) + (1,) * (x.ndim - 1)
        outside = ((x < self._lower.reshape(axes))
                   | (x > self._upper.reshape(axes))).any(axis=0)
        for center, radius in self.exclusions:
            d = np.sqrt(sum((x[k] - c) ** 2 for k, c in enumerate(center)))
            outside |= d < radius
        return outside

    def require_inside(self, x):
        """DomainError naming the first point of x (m, ...) outside the
        domain; its index is the point's flat batch index."""
        x = np.asarray(x, dtype=float)
        k = first_failure(self._outside(x))
        if k is not None:
            raise DomainError(
                f"point {list(map(float, _batch_point(x, k)))} is outside "
                f"the domain of chart '{self.name}'", index=k)

    def sample_points(self, count, rng, shrink=0.0):
        """Uniform points in the domain box, rejecting excluded balls.

        shrink pulls non-periodic bounds inward by that amount; both
        bounds must be finite.  Each point gets SAMPLE_DRAWS_PER_POINT
        draws before the sampler gives up with a GeometryError.
        """
        lows, highs = [], []
        for k, (bounds, per) in enumerate(zip(self.intervals, self.periodic)):
            lo, hi = bounds
            if lo is None or hi is None:
                raise GeometryError("cannot sample an unbounded chart")
            if not per:
                lo, hi = lo + shrink, hi - shrink
            lows.append(lo)
            highs.append(hi)
        # Each round draws a candidate for every point still wanted, but
        # no more than the first of them has draws left.  One draw of
        # size (r, m) is r single draws in order, so the points, the rng
        # state and the error are those of one draw at a time.
        out = []
        draws = 0  # the draws spent on the first point still wanted
        while len(out) < count:
            r = min(count - len(out), SAMPLE_DRAWS_PER_POINT - draws)
            xs = rng.uniform(lows, highs, size=(r, len(lows)))
            for x, inside in zip(xs.tolist(), self.contains(xs.T)):
                draws += 1
                if inside:
                    out.append(x)
                    draws = 0
            if draws == SAMPLE_DRAWS_PER_POINT:
                raise GeometryError(
                    f"no point of chart '{self.name}' found in "
                    f"{SAMPLE_DRAWS_PER_POINT} uniform draws: its excluded "
                    f"balls cover (nearly) all of the domain box")
        return out


def _batch_point(x, k) -> np.ndarray:
    """The point at flat batch index k of points x (m, ...)."""
    x = np.asarray(x)
    return x.reshape(len(x), -1)[:, k]


@dataclass(frozen=True, eq=False)
class MetricAtPoint:
    """A metric at a point or at a batch of points: values and inverse
    (m, m, ...), volume density (a float or an array over the batch),
    coefficient jets when requested, and on first read its Gram-Schmidt
    frame, Christoffel jets and Riemann tensor.  A chart's constant
    metric (constant_metric) has no batch axes, no jets, and None for
    its vanishing Christoffel symbols and curvature."""

    values: np.ndarray
    inverse: np.ndarray
    sqrt_det: float
    jets: Jet = None  # (m, m) jet array when requested
    constant: bool = False

    @cached_property
    def frame(self) -> np.ndarray:
        """Rows orthonormal in the metric (m, m, ...), by gram_schmidt;
        read-only for a chart's shared constant metric."""
        frame = gram_schmidt(self.values)
        if self.constant:  # shared by every point of the chart
            frame.flags.writeable = False
        return frame

    @cached_property
    def christoffel(self):
        """Christoffel jets [k, i, j] one order below the metric jets."""
        return None if self.constant else christoffel_jets(self.jets)

    @property
    def christoffel_values(self):
        """Christoffel symbols as floats, None for a constant metric."""
        return None if self.constant else self.christoffel.value

    @cached_property
    def riemann(self):
        """R^l_{kij} (m, m, m, m, ...) from metric jets of order >= 2."""
        gam = self.christoffel
        return None if gam is None else riemann_from_christoffel(
            gam.value, gam.gradient())


# metric evaluation --------------------------------------------------------


def metric_jets(model: ManifoldModel, x, order: int) -> Jet:
    """Jets of the metric coefficients at x, as an (m, m) jet array."""
    jets = ex.eval_jet(model.metric_program, model.coords, x, order)
    return Jet(jets.space, jets.coeffs[:, model.metric_entries])


def metric_values(model: ManifoldModel, x) -> np.ndarray:
    """Metric coefficient values (m, m, ...) at points x (m, ...), with
    no domain or SPD check."""
    values = ex.eval_value(model.metric_program, model.coords, x)
    return values[model.metric_entries]


def constant_metric(model: ManifoldModel):
    """The MetricAtPoint of a chart whose coefficients are all
    constant, else None; metric_at gives it at every point of the
    domain.  Memoized on the model, and read-only because it is
    shared.  A constant matrix that is not positive definite is a
    NonSPDError on the first call, which ManifoldModel makes."""
    if "_constant_metric" not in vars(model):
        met = None
        if not any(ex.free_variables(e) for row in model.metric for e in row):
            values = metric_values(model, [0.0] * model.dim)
            lowest = np.linalg.eigvalsh(values).min()
            if not lowest > SPD_EIGENVALUE_FLOOR:
                raise NonSPDError(
                    f"metric of chart '{model.name}' is not positive "
                    f"definite (min eigenvalue {lowest:.3e})")
            met = MetricAtPoint(values, np.linalg.inv(values),
                                float(np.sqrt(np.linalg.det(values))),
                                constant=True)
            for arr in (met.values, met.inverse):
                arr.flags.writeable = False
        model._constant_metric = met
    return model._constant_metric


def _matrices(a):
    """(m, m, ...) -> (..., m, m) for numpy.linalg, and back."""
    return a.transpose(tuple(range(2, a.ndim)) + (0, 1))


def _from_matrices(a):
    return a.transpose((a.ndim - 2, a.ndim - 1) + tuple(range(a.ndim - 2)))


def metric_at(model: ManifoldModel, x, order: int = 0) -> MetricAtPoint:
    """Metric matrix, inverse, and volume density at points x (m, ...).

    order >= 1 additionally attaches coefficient jets of that order.  The
    domain check runs first; then a chart whose metric is constant gives
    its one shared MetricAtPoint (constant_metric) at any order, with no
    batch axes and no jets.
    """
    x = np.asarray(x, dtype=float)
    model.require_inside(x)
    met = constant_metric(model)
    if met is not None:
        return met
    jets = None
    if order >= 1:
        jets = metric_jets(model, x, order)
        values = jets.value
    else:
        values = metric_values(model, x)
    mats = _matrices(values)
    lowest = np.linalg.eigvalsh(mats).min(axis=-1)
    k = first_failure(lowest <= SPD_EIGENVALUE_FLOOR)
    if k is not None:
        raise NonSPDError(
            f"metric of chart '{model.name}' is not positive definite at "
            f"{list(map(float, _batch_point(x, k)))} "
            f"(min eigenvalue {np.ravel(lowest)[k]:.3e})")
    inverse = _from_matrices(np.linalg.inv(mats))
    sqrt_det = np.sqrt(np.linalg.det(mats))
    if sqrt_det.ndim == 0:
        sqrt_det = float(sqrt_det)
    return MetricAtPoint(values, inverse, sqrt_det, jets)


def inverse_jets(g_jets: Jet) -> Jet:
    """Inverse of an (m, m) jet array of SPD matrices: np.linalg.inv of
    the value G0, then G^-1 = sum_k (-G0^-1 N)^k G0^-1 over the
    nilpotent part N, a finite sum at the jet's order."""
    ginv0 = _from_matrices(np.linalg.inv(_matrices(g_jets.value)))
    step = -einsum("ij...,jk...->ik...", ginv0, g_jets)
    step.coeffs[0] = 0.0  # -G0^-1 N
    out = Jet.constant(ginv0, g_jets.nvars, g_jets.order, ginv0.shape)
    term = ginv0
    for _ in range(g_jets.order):
        term = einsum("ij...,jk...->ik...", step, term)
        out = out + term
    return out


def christoffel_jets(g_jets: Jet) -> Jet:
    """Christoffel symbol jets [k, i, j] from an (m, m) metric jet array,

        Gamma^k_{ij} = 1/2 g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij});

    the result order is one below the metric jet order.
    """
    half_ginv = 0.5 * inverse_jets(g_jets.truncate(g_jets.order - 1))
    dg = g_jets.partials()  # [l, i, j] = d_l g_ij
    paren = einsum("ijl...->lij...", dg) + einsum("jil...->lij...", dg) - dg
    return einsum("kl...,lij...->kij...", half_ginv, paren)


def riemann_from_christoffel(gamma, dgamma) -> np.ndarray:
    """R^l_{kij} from gamma[k, i, j] and dgamma[l, k, i, j], with any
    trailing batch axes (see the module docstring for the convention)."""
    d = np.einsum("iljk...->lkij...", dgamma)           # d_i Gamma^l_{jk}
    q = np.einsum("lip...,pjk...->lkij...", gamma, gamma)  # Gamma^l_{ip} Gamma^p_{jk}
    return d - np.swapaxes(d, 2, 3) + q - np.swapaxes(q, 2, 3)


def gram_schmidt(g) -> np.ndarray:
    """Rows orthonormal in the metric g (m, m, ...), by Gram-Schmidt on
    the coordinate basis taken in ascending order (deterministic); the
    result (m, m, ...) has the batch axes of g."""
    g = np.asarray(g, dtype=float)
    m = g.shape[0]
    vectors = np.zeros(g.shape)

    def inner(u, w):
        return np.einsum("a...,ab...,b...->...", u, g, w)

    for i in range(m):
        v = np.zeros(g.shape[1:])
        v[i] = 1.0
        for p in range(i):
            v = v - inner(vectors[p], v) * vectors[p]
        norm = np.sqrt(inner(v, v))
        if not np.all(norm > 0.0) or not np.all(np.isfinite(norm)):
            raise NonSPDError("Gram-Schmidt failed, metric not SPD")
        vectors[i] = v / norm
    return vectors


def frame_at(model: ManifoldModel, x) -> np.ndarray:
    """Orthonormal frame rows (m, m, ...) at points x (m, ...), by
    Gram-Schmidt; on a constant chart its shared frame (m, m)."""
    return metric_at(model, x).frame


# scalar fields -------------------------------------------------------------


@dataclass
class ScalarFieldData:
    """A scalar field f at points x (m, ...): the metric there (with
    order-1 jets, or the chart's shared constant one), the
    contravariant gradient g^{ij} d_j f (m, ...), the covariant Hessian
    d_i d_j f - Gamma^k_{ij} d_k f (m, m, ...) and the Laplacian
    g^{ij} Hess_f(e_i, e_j) (an array over the batch)."""

    metric: MetricAtPoint
    gradient: np.ndarray
    hessian: np.ndarray
    laplacian: np.ndarray


def scalar_field_data(model: ManifoldModel, f: ex.Expr, x) -> ScalarFieldData:
    """Gradient, Hessian and Laplacian of f at points x (m, ...), from
    one evaluation of the metric at order 1 and of f's order-2 jets."""
    met = metric_at(model, x, 1)
    jet = ex.eval_jet(ex.program([f]), model.coords, x, 2)  # a (1,) array
    df = jet.gradient()[:, 0]
    grad = np.einsum("ij...,j...->i...", met.inverse, df)
    hess = jet.hessian()[:, :, 0]
    if met.christoffel_values is not None:
        hess = hess - np.einsum(
            "kij...,k...->ij...", met.christoffel_values, df)
    lap = np.einsum("ij...,ij...->...", met.inverse, hess)
    return ScalarFieldData(met, grad, hess, lap)


def gradient(model: ManifoldModel, f: ex.Expr, x) -> np.ndarray:
    """Contravariant gradient components g^{ij} d_j f, (m, ...) at
    points x (m, ...)."""
    return scalar_field_data(model, f, x).gradient


def hessian(model: ManifoldModel, f: ex.Expr, x) -> np.ndarray:
    """Covariant Hessian components d_i d_j f - Gamma^k_{ij} d_k f,
    (m, m, ...) at points x (m, ...)."""
    return scalar_field_data(model, f, x).hessian


def laplacian(model: ManifoldModel, f: ex.Expr, x):
    """g^{ij} Hess_f(e_i, e_j) at points x (m, ...): a float at one
    point, an array over a batch."""
    lap = scalar_field_data(model, f, x).laplacian
    return float(lap) if lap.ndim == 0 else lap


def euclidean_space(dim: int, name: str = "euclidean", coord_names=None,
                    bounds=None) -> ManifoldModel:
    """Flat R^dim chart; bounds default to unbounded."""
    coords = coord_names or [f"y{k + 1}" for k in range(dim)]
    metric = [[ex.Const(1.0 if i == j else 0.0) for j in range(dim)]
              for i in range(dim)]
    intervals = bounds or [(None, None)] * dim
    return ManifoldModel(name, coords, metric, intervals)
