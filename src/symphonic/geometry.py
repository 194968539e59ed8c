"""Chart-level Riemannian geometry.

A manifold here is a single coordinate chart: named coordinates, metric
coefficient expressions, a rectangular domain with optional periodic
directions, and optional excluded balls around singular loci.  All
curvature quantities are produced from jets of the metric coefficients.

Curvature sign convention: R(X, Y)Z = nab_X nab_Y Z - nab_Y nab_X Z
- nab_[X,Y] Z, with coordinate components
R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
          + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .jet import Jet, s_value

SPD_EIGENVALUE_FLOOR = 1e-10
# uniform draws ManifoldModel.sample_points spends on one point
SAMPLE_DRAWS_PER_POINT = 1000


class GeometryError(ValueError):
    pass


class DomainError(GeometryError):
    """A point lies outside the chart domain or inside an excluded ball."""


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
        self._check_symmetry()

    @property
    def dim(self):
        return len(self.coords)

    def _check_symmetry(self):
        m = self.dim
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)
                 if self.metric[i][j] != self.metric[j][i]]
        if not pairs:
            return
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = [rng.uniform(*self._sample_bounds(k)) for k in range(m)]
            for i, j in pairs:
                a = ex.eval_value(self.metric[i][j], self.coords, x)
                b = ex.eval_value(self.metric[j][i], self.coords, x)
                if abs(a - b) > 1e-12 * (1.0 + abs(a)):
                    raise GeometryError(
                        f"metric of chart '{self.name}' is not symmetric "
                        f"at entry ({i},{j})")

    def _sample_bounds(self, k):
        lo, hi = self.intervals[k]
        lo = -1.0 if lo is None else lo
        hi = 1.0 if hi is None else hi
        return lo, hi

    # domain ------------------------------------------------------------

    def wrap(self, x):
        """Fold periodic coordinates back into their fundamental interval."""
        out = list(map(float, x))
        for k, per in enumerate(self.periodic):
            if per:
                lo, hi = self.intervals[k]
                span = hi - lo
                out[k] = lo + (out[k] - lo) % span
        return out

    def contains(self, x):
        x = self.wrap(x)
        for k, (bounds, per) in enumerate(zip(self.intervals, self.periodic)):
            if per:
                continue
            lo, hi = bounds
            if lo is not None and x[k] < lo - 1e-12:
                return False
            if hi is not None and x[k] > hi + 1e-12:
                return False
        for center, radius in self.exclusions:
            d = np.linalg.norm(np.asarray(x) - np.asarray(center))
            if d < radius:
                return False
        return True

    def require_inside(self, x):
        if not self.contains(x):
            raise DomainError(
                f"point {list(map(float, x))} is outside the domain of "
                f"chart '{self.name}'")

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
        out = []
        for _ in range(count):
            for _ in range(SAMPLE_DRAWS_PER_POINT):
                x = rng.uniform(lows, highs)
                if self.contains(x):
                    out.append([float(v) for v in x])
                    break
            else:
                raise GeometryError(
                    f"no point of chart '{self.name}' found in "
                    f"{SAMPLE_DRAWS_PER_POINT} uniform draws: its excluded "
                    f"balls cover (nearly) all of the domain box")
        return out


@dataclass
class MetricAtPoint:
    """Metric data at one point: values, inverse, volume density."""

    values: np.ndarray
    inverse: np.ndarray
    sqrt_det: float
    jets: list = None  # m x m nested list of Jet when requested


@dataclass
class Christoffel:
    """Levi-Civita coefficients Gamma^k_{ij}, optionally with first
    partials d_l Gamma^k_{ij}."""

    gamma: np.ndarray  # [k, i, j]
    dgamma: np.ndarray = None  # [l, k, i, j]


@dataclass
class Frame:
    """Orthonormal tangent vectors at a point, rows in coordinate
    components."""

    vectors: np.ndarray  # [i, component]


# generic small linear algebra (floats or jets) ---------------------------


def _is_zero_scalar(v):
    if isinstance(v, Jet):
        return not v.coeffs.any()
    return v == 0.0


def mat_inv(rows):
    """Invert a small matrix of scalars (floats or jets) by
    Gauss-Jordan elimination, pivoting on constant-term magnitude.

    Diagonal matrices short-circuit to entrywise reciprocals."""
    m = len(rows)
    if all(_is_zero_scalar(rows[i][j])
           for i in range(m) for j in range(m) if i != j):
        out = [[0.0] * m for _ in range(m)]
        for i in range(m):
            out[i][i] = 1.0 / rows[i][i]
        return out
    a = [list(r) for r in rows]
    inv = [[1.0 if i == j else 0.0 for j in range(m)] for i in range(m)]
    for col in range(m):
        pivot = max(range(col, m), key=lambda r: abs(s_value(a[r][col])))
        if abs(s_value(a[pivot][col])) < 1e-300:
            raise NonSPDError("metric matrix is numerically singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = a[col][col]
        a[col] = [v / scale for v in a[col]]
        inv[col] = [v / scale for v in inv[col]]
        for r in range(m):
            if r == col:
                continue
            f = a[r][col]
            if isinstance(f, float) and f == 0.0:
                continue
            a[r] = [v - f * w for v, w in zip(a[r], a[col])]
            inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    return inv


# metric evaluation --------------------------------------------------------


def metric_jets(model: ManifoldModel, x, order: int):
    """Jets of every metric coefficient at x."""
    m = model.dim
    out = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            jet = ex.eval_jet(model.metric[i][j], model.coords, x, order)
            out[i][j] = jet
            out[j][i] = jet
    return out


def metric_values(model: ManifoldModel, x) -> np.ndarray:
    """Metric coefficient values at x, with no domain or SPD check."""
    m = model.dim
    values = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            v = ex.eval_value(model.metric[i][j], model.coords, x)
            values[i, j] = values[j, i] = v
    return values


def constant_metric(model: ManifoldModel):
    """The metric matrix of a chart whose coefficients are all
    constant, else None.  Memoized on the model, and read-only because
    it is shared."""
    if "_constant_metric" not in vars(model):
        values = None
        if all(ex.is_constant(e) for row in model.metric for e in row):
            values = metric_values(model, [0.0] * model.dim)
            values.flags.writeable = False
        model._constant_metric = values
    return model._constant_metric


def metric_at(model: ManifoldModel, x, order: int = 0) -> MetricAtPoint:
    """Metric matrix, inverse, and volume density at a point.

    order >= 1 additionally attaches coefficient jets of that order.
    """
    model.require_inside(x)
    jets = None
    if order >= 1:
        jets = metric_jets(model, x, order)
        values = np.array([[jet.value for jet in row] for row in jets])
    else:
        values = metric_values(model, x)
    eigs = np.linalg.eigvalsh(values)
    if eigs.min() <= SPD_EIGENVALUE_FLOOR:
        raise NonSPDError(
            f"metric of chart '{model.name}' is not positive definite at "
            f"{list(map(float, x))} (min eigenvalue {eigs.min():.3e})")
    inverse = np.linalg.inv(values)
    sqrt_det = float(np.sqrt(np.linalg.det(values)))
    return MetricAtPoint(values, inverse, sqrt_det, jets)


def christoffel_jets(g_jets):
    """Christoffel symbol jets from metric coefficient jets.

    Gamma^k_{ij} = 1/2 g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij});
    the result order is one below the metric jet order.
    """
    m = len(g_jets)
    ginv = mat_inv(g_jets)
    dg = [[[g_jets[i][j].partial(l) for j in range(m)] for i in range(m)]
          for l in range(m)]
    gamma = [[[None] * m for _ in range(m)] for _ in range(m)]
    for k in range(m):
        for i in range(m):
            for j in range(i, m):
                acc = 0.0
                for l in range(m):
                    if _is_zero_scalar(ginv[k][l]):
                        continue
                    paren = dg[i][j][l] + dg[j][i][l] - dg[l][i][j]
                    if _is_zero_scalar(paren):
                        continue
                    acc = acc + ginv[k][l] * paren
                val = 0.5 * acc
                gamma[k][i][j] = val
                gamma[k][j][i] = val
    return gamma


def christoffel_arrays(gam_jets, derivs: bool = False):
    """(gamma[k, i, j], dgamma[l, k, i, j]) from Christoffel jets.

    Entries of gam_jets are jets or, where they vanish identically,
    floats.  dgamma holds the first partials d_l Gamma^k_{ij} and needs
    jets of order >= 1; it is None unless derivs."""
    m = len(gam_jets)
    gamma = np.empty((m, m, m))
    dgamma = np.zeros((m, m, m, m)) if derivs else None
    for k, i, j in itertools.product(range(m), repeat=3):
        c = gam_jets[k][i][j]
        gamma[k, i, j] = s_value(c)
        if derivs and isinstance(c, Jet):
            dgamma[:, k, i, j] = c.gradient()
    return gamma, dgamma


def christoffel(model: ManifoldModel, x, derivs: bool = False) -> Christoffel:
    """Levi-Civita coefficients at a point; derivs adds d_l Gamma."""
    g_jets = metric_at(model, x, order=2 if derivs else 1).jets
    return Christoffel(*christoffel_arrays(christoffel_jets(g_jets), derivs))


def riemann_from_christoffel(gamma, dgamma) -> np.ndarray:
    """R^l_{kij} from gamma[k, i, j] and dgamma[l, k, i, j] (see the
    module docstring for the convention)."""
    d = np.einsum("iljk->lkij", dgamma)              # d_i Gamma^l_{jk}
    q = np.einsum("lip,pjk->lkij", gamma, gamma)     # Gamma^l_{ip} Gamma^p_{jk}
    return d - d.transpose(0, 1, 3, 2) + q - q.transpose(0, 1, 3, 2)


def riemann_tensor(model: ManifoldModel, x) -> np.ndarray:
    """Coordinate components R^l_{kij} at a point."""
    ch = christoffel(model, x, derivs=True)
    return riemann_from_christoffel(ch.gamma, ch.dgamma)


def riemann(model: ManifoldModel, x, X, Y, Z) -> np.ndarray:
    """R(X, Y)Z in coordinate components."""
    riem = riemann_tensor(model, x)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    return np.einsum("lkij,i,j,k->l", riem, X, Y, Z)


def gram_schmidt(g) -> np.ndarray:
    """Rows orthonormal in the metric g, by Gram-Schmidt on the
    coordinate basis taken in ascending order (deterministic)."""
    m = g.shape[0]
    vectors = np.zeros((m, m))
    for i in range(m):
        v = np.zeros(m)
        v[i] = 1.0
        for p in range(i):
            v = v - (vectors[p] @ g @ v) * vectors[p]
        norm = float(np.sqrt(v @ g @ v))
        if norm <= 0.0 or not np.isfinite(norm):
            raise NonSPDError("Gram-Schmidt failed, metric not SPD")
        vectors[i] = v / norm
    return vectors


def frame_at(model: ManifoldModel, x) -> Frame:
    """Orthonormal frame at a point, by Gram-Schmidt."""
    return Frame(gram_schmidt(metric_at(model, x).values))


# scalar fields -------------------------------------------------------------


def gradient(model: ManifoldModel, f: ex.Expr, x) -> np.ndarray:
    """Contravariant gradient components g^{ij} d_j f."""
    met = metric_at(model, x)
    jet = ex.eval_jet(f, model.coords, x, 1)
    df = np.asarray(jet.gradient())
    return met.inverse @ df


def hessian(model: ManifoldModel, f: ex.Expr, x) -> np.ndarray:
    """Covariant Hessian components d_i d_j f - Gamma^k_{ij} d_k f."""
    m = model.dim
    jet = ex.eval_jet(f, model.coords, x, 2)
    df = np.asarray(jet.gradient())
    gamma = christoffel(model, x).gamma
    hess = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            alpha = [0] * m
            alpha[i] += 1
            alpha[j] += 1
            hess[i, j] = jet.derivative(tuple(alpha)) - gamma[:, i, j] @ df
    return hess


def laplacian(model: ManifoldModel, f: ex.Expr, x) -> float:
    met = metric_at(model, x)
    return float(np.tensordot(met.inverse, hessian(model, f, x), axes=2))


def euclidean_space(dim: int, name: str = "euclidean", coord_names=None,
                    bounds=None) -> ManifoldModel:
    """Flat R^dim chart; bounds default to unbounded."""
    coords = coord_names or [f"y{k + 1}" for k in range(dim)]
    metric = [[ex.Const(1.0 if i == j else 0.0) for j in range(dim)]
              for i in range(dim)]
    intervals = bounds or [(None, None)] * dim
    return ManifoldModel(name, coords, metric, intervals)
