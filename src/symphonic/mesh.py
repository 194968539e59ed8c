"""Quadrature meshes over a chart and deterministic summation.

Periodic directions get a uniform grid (the trapezoid rule, spectrally
accurate for smooth periodic integrands); bounded directions get
tensor-product Gauss-Legendre nodes.  Every mesh caches the volume
density sqrt(det g) at its nodes from one geometry.metric_at call,
which also checks that every node lies in the domain; on a chart whose
metric is constant the density is one float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo


def pairwise_sum(values) -> float:
    """Sum by a fixed halving tree, independent of any chunking.

    Used for every quadrature reduction so results are bit-stable no
    matter how the evaluation work was partitioned.
    """
    a = np.asarray(values, dtype=np.float64).ravel().copy()
    if a.size == 0:
        return 0.0
    while a.size > 1:
        if a.size % 2:
            a = np.append(a, 0.0)
        a = a[0::2] + a[1::2]
    return float(a[0])


@dataclass
class Mesh:
    """Quadrature nodes and weights over a source chart."""

    points: np.ndarray    # (N, m)
    weights: np.ndarray   # (N,)
    sqrtg: np.ndarray     # (N,) volume density at the nodes, or a float
    description: str

    def __len__(self):
        return len(self.points)

    def integrate(self, density_values) -> float:
        """Integral of a sampled density against dv_g."""
        vals = np.asarray(density_values, dtype=np.float64)
        return pairwise_sum(self.weights * self.sqrtg * vals)


def _axis_nodes(lo, hi, per, count):
    if lo is None or hi is None:
        raise geo.GeometryError("cannot mesh an unbounded coordinate")
    if per:
        h = (hi - lo) / count
        nodes = lo + h * np.arange(count)
        weights = np.full(count, h)
    else:
        nodes, weights = np.polynomial.legendre.leggauss(count)
        nodes = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        weights = 0.5 * (hi - lo) * weights
    return nodes, weights


def build_mesh(model: geo.ManifoldModel, resolution) -> Mesh:
    """Tensor-product mesh with `resolution` nodes per axis.

    resolution may be an int or a per-axis sequence.
    """
    m = model.dim
    if isinstance(resolution, int):
        resolution = [resolution] * m
    if len(resolution) != m:
        raise geo.GeometryError("one resolution entry per coordinate")
    axes = [_axis_nodes(*model.intervals[k], model.periodic[k], resolution[k])
            for k in range(m)]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    weights = np.ones(points.shape[0])
    for w in wgrids:
        weights = weights * w.ravel()
    sqrtg = geo.metric_at(model, points.T).sqrt_det
    res_txt = "x".join(str(r) for r in resolution)
    return Mesh(points, weights, sqrtg,
                f"{model.name} tensor mesh {res_txt}")
