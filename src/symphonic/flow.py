"""Gradient flow of sampled maps on fully periodic flat sources.

The map is carried as grid samples over a flat torus chart; all
derivatives use order-4 central differences, so the grid tension agrees
with the jet-computed tension to O(dx^4).  Steps follow explicit Euler
on d phi/dt = tau^s with energy-monotone acceptance: a candidate step
is kept only if the energy does not increase, otherwise the step size
is halved.  One step tries at most MAX_HALVINGS + 1 = 21 candidates;
when all of them are rejected the run ends as stalled, with the step
size halved 21 times.

The bi-energy descent (d phi/dt = -tau^s_2, full variant) is wired
behind the same interface but is experimental; its operator is degree
seven in derivative data and needs looser tolerances.

The operators are not written here.  The grid feeds the one float
kernel of each operator (maps.tau_s, maps.energy_density and
variational.jacobi_groups), which work in coordinate form over trailing
batch axes: the grid axes are the batch, gi is the constant inverse
source metric, which equals sum_i e_i e_i^T for any orthonormal frame,
and the partials come from one stencil routine that serves both the map
and its tension field.  Per grid size N it builds two integer circulant
matrices once (cached, read-only) holding the periodic stencil weights,
so each partial is one matmul on a reshape of the field, no axis moved,
followed by one division by 12 h (or 12 h h).  That is O(N) work per
node where slicing shifted copies is O(1), but one BLAS call replaces
some sixty small numpy calls: with BLAS on one thread the matrices
are still the faster of the two at N = 256, the largest size measured
(6.2 ms against 7.3 ms for the map's partials on a 256x256 grid).

Each quantity is computed at most once per grid state.  FlowState
holds a single-slot memo keyed on the identity of one remainder array
(and holding a reference to it): its stencil partials, its tension and
its descent direction.  The energy of a candidate step fills the slot
for the candidate; flow_step accepts it by rebinding state.rem to that
same array, so the gradient at the new state, max_gradient_norm and the
next step's direction all come from the partials the energy evaluation
computed.  Every remainder the flow creates is read-only, and so is
every memoized array: an in-place write raises instead of leaving the
memo stale.  A caller who assigns state.rem itself must not write into
that array afterwards.

The grid image stays in the target's domain, excluded balls included:
flow_init raises geometry's DomainError when a node's image lies
outside, and a step whose candidate image leaves the domain ends the run
as aborted, with the first node outside, its image point and the chart
in state.reason.  A target that rejects no point (no bounded side, no
excluded ball) is not tested.

Restrictions in this version: the source chart must be fully periodic
with a constant metric, and the target metric must be constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import expr as ex
from . import geometry as geo
from . import maps as mp
from . import variational as va
from .mesh import pairwise_sum

MIN_RESOLUTION = 8
MAX_HALVINGS = 20

ENERGY_SYM = "sym"
ENERGY_BISYM = "bisym"

STATUS_RUNNING = "running"
STATUS_CONVERGED = "converged-symphonic"
STATUS_CONVERGED_BISYM = "converged-bisymphonic"
STATUS_STALLED = "stalled"
STATUS_BUDGET = "budget-exhausted"
STATUS_ABORTED = "aborted-domain"


class FlowSetupError(ValueError):
    pass


@dataclass
class FlowState:
    """Grid data of the evolving map plus step-control state.

    The map is split as phi = linear . x + remainder with a periodic
    remainder, so derivative stencils never cross a winding seam; the
    descent direction is itself periodic, hence only the remainder
    evolves.
    """

    source: geo.ManifoldModel
    target: geo.ManifoldModel
    linear: np.ndarray           # (n, m) winding part, constant in time
    rem: np.ndarray              # (n, N1, ..., Nm) periodic remainder
    coord_grids: np.ndarray      # (m, N1, ..., Nm) node coordinates
    spacings: list
    g: np.ndarray                # constant source metric
    ginv: np.ndarray
    sqrtg: float
    frame: np.ndarray            # constant orthonormal frame, rows e_i
    h: np.ndarray                # constant target metric
    epsilon: float
    epsilon0: float
    energy: str = ENERGY_SYM
    iteration: int = 0
    status: str = STATUS_RUNNING
    # why an aborted run stopped: the grid node, its image point and the
    # target chart, worded as flow_init's DomainError
    reason: str = ""
    energy_history: list = field(default_factory=list)
    # the single memo slot, see _at
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def phi(self):
        """Map values on the grid, linear part included."""
        return _image(self, self.rem)


def _image(state: FlowState, rem) -> np.ndarray:
    """Map values on the grid of the remainder rem."""
    return rem + np.einsum("ak,k...->a...", state.linear, state.coord_grids)


def _winding_matrix(spec: mp.MapSpec) -> np.ndarray:
    """Linear part of a torus map from winding increments.

    A[a, i] = (phi^a(x0 + L_i e_i) - phi^a(x0)) / L_i, exact whenever
    the map is linear plus periodic.
    """
    source = spec.source
    m, n = source.dim, spec.target.dim
    x0 = [0.5 * (lo + hi) for lo, hi in source.intervals]
    base = spec.value(x0)
    a = np.empty((n, m))
    for i in range(m):
        lo, hi = source.intervals[i]
        shifted = list(x0)
        shifted[i] += hi - lo
        a[:, i] = (np.array([ex.eval_value(c, source.coords, shifted)
                             for c in spec.components]) - base) / (hi - lo)
    return a


def flow_init(spec: mp.MapSpec, resolution: int, epsilon: float = 1e-2,
              energy: str = ENERGY_SYM) -> FlowState:
    """Sample a map spec onto a periodic grid and seed the history."""
    source, target = spec.source, spec.target
    m = source.dim
    if not all(source.periodic):
        raise FlowSetupError("flow requires a fully periodic source chart")
    if isinstance(resolution, int):
        resolution = [resolution] * m
    if any(r < MIN_RESOLUTION for r in resolution):
        raise FlowSetupError(
            f"grid resolution below {MIN_RESOLUTION} per axis is too coarse")
    g = geo.constant_metric(source)
    if g is None:
        raise FlowSetupError("flow requires a constant source metric")
    h = geo.constant_metric(target)
    if h is None:
        raise FlowSetupError("flow requires a constant target metric")
    if energy not in (ENERGY_SYM, ENERGY_BISYM):
        raise FlowSetupError(f"unknown flow energy {energy!r}")
    axes, spacings = [], []
    for k in range(m):
        lo, hi = source.intervals[k]
        axes.append(lo + (hi - lo) / resolution[k] * np.arange(resolution[k]))
        spacings.append((hi - lo) / resolution[k])
    grids = np.meshgrid(*axes, indexing="ij")
    coord_grids = np.stack(grids)
    phi = spec.value(coord_grids)
    target.require_inside(phi)
    linear = _winding_matrix(spec)
    rem = phi - np.einsum("ak,k...->a...", linear, coord_grids)
    rem.flags.writeable = False
    ginv = np.linalg.inv(g)
    sqrtg = float(np.sqrt(np.linalg.det(g)))
    frame = geo.gram_schmidt(g)
    state = FlowState(source, target, linear, rem, coord_grids, spacings,
                      g, ginv, sqrtg, frame, h, float(epsilon),
                      float(epsilon), energy)
    state.energy_history.append(flow_energy(state))
    return state


# order-4 periodic stencils --------------------------------------------------


@lru_cache(maxsize=None)
def _circulants(n):
    """The periodic difference matrices (C1, C2) on n nodes: row k holds
    the weights (1, -8, 0, 8, -1) and (-1, 16, -30, 16, -1) at columns
    k-2, ..., k+2, wrapped.  Integer entries, read-only, shared by every
    caller."""
    c1 = np.zeros((n, n))
    c2 = np.zeros((n, n))
    rows = np.arange(n)
    for offset, w1, w2 in zip(range(-2, 3), (1, -8, 0, 8, -1),
                              (-1, 16, -30, 16, -1)):
        cols = (rows + offset) % n
        c1[rows, cols] += w1
        c2[rows, cols] += w2
    c1.flags.writeable = False
    c2.flags.writeable = False
    return c1, c2


def _partial(c, f, axis, denom, out):
    """out = (c applied along one axis of f) / denom: one matmul on a
    reshape of f (no axis is moved), then one in-place division."""
    n = f.shape[axis]
    if axis == f.ndim - 1:
        np.matmul(f.reshape(-1, n), c.T, out=out.reshape(-1, n))
    else:
        pre = math.prod(f.shape[:axis])
        np.matmul(c, f.reshape(pre, n, -1), out=out.reshape(pre, n, -1))
    out /= denom


def _stencil_derivatives(f, spacings):
    """First and second partials, order 4, of a periodic grid field f
    whose leading axis holds components: d1 (m, ...), d2 (m, m, ...).

    Each partial is an integer stencil sum divided once, by 12 h for a
    first partial and by 12 h h for a second one."""
    m = len(spacings)
    d1 = np.empty((m,) + f.shape)
    d2 = np.empty((m, m) + f.shape)
    for i, h in enumerate(spacings):
        c1, c2 = _circulants(f.shape[1 + i])
        _partial(c1, f, 1 + i, 12 * h, d1[i])
        _partial(c2, f, 1 + i, 12 * h * h, d2[i, i])
    for i in range(m):
        for j in range(i + 1, m):
            c1, _ = _circulants(f.shape[1 + j])
            _partial(c1, d1[i], 1 + j, 12 * spacings[j], d2[i, j])
            d2[j, i] = d2[i, j]
    return d1, d2


def _grid_derivatives(state: FlowState, rem):
    """Partials of the sampled map.  Stencils act on the periodic
    remainder; the winding part enters the first derivatives as a
    constant."""
    d1, d2 = _stencil_derivatives(rem, state.spacings)
    d1 += state.linear.T[(...,) + (np.newaxis,) * (rem.ndim - 1)]
    return d1, d2


def _at(state: FlowState, rem, key: str, compute):
    """compute(state, rem), memoized under key in state's one slot.

    The slot belongs to one remainder array at a time, compared by
    identity; it keeps a reference to that array, so the id cannot be
    reused while the slot lives.  A lookup for another array empties
    the slot.  Memoized arrays are made read-only, since every caller
    gets the same object.
    """
    if rem is None:
        rem = state.rem
    memo = state._memo
    if memo.get("rem") is not rem:
        memo.clear()
        memo["rem"] = rem
    if key not in memo:
        value = compute(state, rem)
        for arr in value if isinstance(value, tuple) else (value,):
            arr.flags.writeable = False
        memo[key] = value
    return memo[key]


def flow_energy(state: FlowState, rem=None) -> float:
    """Grid quadrature of the flow's own energy density."""
    if state.energy == ENERGY_BISYM:
        tau = _at(state, rem, "tau", grid_tau_s)
        dens = np.einsum("a...,ab,b...->...", tau, state.h, tau)
    else:
        d1, _ = _at(state, rem, "partials", _grid_derivatives)
        dens = mp.energy_density(state.frame, state.h, d1)
    cell = np.prod(state.spacings) * state.sqrtg
    return pairwise_sum(dens.ravel()) * cell


def grid_tau_s(state: FlowState, rem=None) -> np.ndarray:
    """Symphonic tension field of the sampled map (flat source and
    constant target metric, so the second fundamental form is the bare
    second derivative)."""
    d1, d2 = _at(state, rem, "partials", _grid_derivatives)
    return mp.tau_s(state.ginv, state.h, d1, d2)


def grid_bi_tension(state: FlowState, rem=None) -> np.ndarray:
    """Full-variant bi-tension field on the grid (flat source and
    target, curvature term absent)."""
    d1, d2 = _at(state, rem, "partials", _grid_derivatives)
    v = _at(state, rem, "tau", grid_tau_s)
    dv, ddv = _stencil_derivatives(v, state.spacings)
    groups = va.jacobi_groups(state.ginv, state.h, d1, d2, v, dv, ddv)
    return va.assemble(groups, va.FULL)


def _descent(state: FlowState, rem) -> np.ndarray:
    if state.energy == ENERGY_BISYM:
        return -grid_bi_tension(state, rem)
    return _at(state, rem, "tau", grid_tau_s)


def gradient_field(state: FlowState, rem=None) -> np.ndarray:
    """Steepest-descent direction for the flow's energy (read-only)."""
    return _at(state, rem, "grad", _descent)


def max_gradient_norm(state: FlowState, rem=None) -> float:
    grad = _at(state, rem, "grad", _descent)
    norms = np.einsum("a...,ab,b...->...", grad, state.h, grad)
    return float(np.sqrt(norms.max()))


def flow_step(state: FlowState) -> FlowState:
    """One energy-monotone explicit Euler step (in place)."""
    if state.status not in (STATUS_RUNNING,):
        return state
    e_old = state.energy_history[-1]
    direction = gradient_field(state)
    for _ in range(MAX_HALVINGS + 1):
        candidate = state.rem + state.epsilon * direction
        candidate.flags.writeable = False
        if state.target.restricted:
            try:
                state.target.require_inside(_image(state, candidate))
            except geo.DomainError as err:
                node = np.unravel_index(err.index, candidate.shape[1:])
                state.status = STATUS_ABORTED
                state.reason = f"grid node {tuple(map(int, node))}: {err}"
                return state
        e_new = flow_energy(state, candidate)
        if e_new <= e_old:
            state.rem = candidate
            state.energy_history.append(e_new)
            state.iteration += 1
            state.epsilon = min(state.epsilon * 1.2, state.epsilon0)
            return state
        state.epsilon *= 0.5
    state.status = STATUS_STALLED
    return state


def flow_run(state: FlowState, max_steps: int, grad_tol: float,
             on_step=None) -> FlowState:
    """Iterate flow_step until convergence, stall, or budget.

    on_step(state, grad_norm) is called after every accepted step (and
    once at entry) for trace emission.
    """
    converged = (STATUS_CONVERGED_BISYM if state.energy == ENERGY_BISYM
                 else STATUS_CONVERGED)
    gnorm = max_gradient_norm(state)
    if on_step is not None:
        on_step(state, gnorm)
    if gnorm <= grad_tol:
        state.status = converged
        return state
    for _ in range(max_steps):
        flow_step(state)
        if state.status != STATUS_RUNNING:
            return state
        gnorm = max_gradient_norm(state)
        if on_step is not None:
            on_step(state, gnorm)
        if gnorm <= grad_tol:
            state.status = converged
            return state
    state.status = STATUS_BUDGET
    return state
