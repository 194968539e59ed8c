"""Ready-made charts and maps used by the example catalog and the CLI.

Pole and origin margins default to 0.1 so quadrature and sample points
stay away from chart singularities.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from . import geometry as geo
from . import maps as mp

POLE_MARGIN = 0.1


def _parse_rows(coords, rows):
    return [[ex.parse(s, coords) for s in row] for row in rows]


def interval_chart(lo: float, hi: float, coord: str = "t") -> geo.ManifoldModel:
    """A 1-d chart with the metric dt^2."""
    return geo.ManifoldModel("interval", [coord],
                             _parse_rows([coord], [["1"]]), [(lo, hi)])


def torus_chart(dim: int = 2, length: float = 2.0 * np.pi) -> geo.ManifoldModel:
    """Flat torus with a [0, length)^dim fundamental domain."""
    coords = [f"x{k + 1}" for k in range(dim)]
    rows = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    return geo.ManifoldModel(f"torus{dim}", coords, _parse_rows(coords, rows),
                             [(0.0, length)] * dim, periodic=[True] * dim)


def annulus_chart(r_lo: float = 0.5, r_hi: float = 2.0) -> geo.ManifoldModel:
    """Polar chart of the punctured plane, angular direction periodic."""
    coords = ["r", "th"]
    rows = [["1", "0"], ["0", "r^2"]]
    return geo.ManifoldModel("annulus", coords, _parse_rows(coords, rows),
                             [(r_lo, r_hi), (0.0, 2.0 * np.pi)],
                             periodic=[False, True])


def punctured_plane_chart(radius: float = 3.0,
                          hole: float = 0.2) -> geo.ManifoldModel:
    """Cartesian chart of R^2 minus a ball around the origin."""
    coords = ["x1", "x2"]
    rows = [["1", "0"], ["0", "1"]]
    return geo.ManifoldModel("plane-minus-origin", coords,
                             _parse_rows(coords, rows),
                             [(-radius, radius), (-radius, radius)],
                             exclusions=[((0.0, 0.0), hole)])


def sphere_chart(m: int, margin: float = POLE_MARGIN) -> geo.ManifoldModel:
    """Round unit sphere S^m in hyperspherical coordinates.

    g = diag(1, sin^2 t1, sin^2 t1 sin^2 t2, ...); the final angle is
    periodic, the others keep the pole margin.
    """
    coords = [f"t{k + 1}" for k in range(m)]
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            if i != j:
                row.append("0")
            elif i == 0:
                row.append("1")
            else:
                row.append(" * ".join(f"sin({coords[l]})^2" for l in range(i)))
        rows.append(row)
    intervals = [(margin, np.pi - margin)] * (m - 1) + [(0.0, 2.0 * np.pi)]
    periodic = [False] * (m - 1) + [True]
    return geo.ManifoldModel(f"sphere{m}", coords,
                             _parse_rows(coords, rows), intervals, periodic)


def sphere_embedding_sources(m: int):
    """Component strings of the standard embedding S^m -> R^{m+1}."""
    coords = [f"t{k + 1}" for k in range(m)]
    comps = []
    for k in range(m):
        factors = [f"sin({coords[l]})" for l in range(k)] + [f"cos({coords[k]})"]
        comps.append(" * ".join(factors))
    comps.append(" * ".join(f"sin({coords[l]})" for l in range(m)))
    return comps


def sphere_inclusion(m: int, margin: float = POLE_MARGIN) -> mp.MapSpec:
    """Canonical inclusion of the round S^m into Euclidean R^{m+1}."""
    chart = sphere_chart(m, margin)
    target = geo.euclidean_space(m + 1)
    comps = [ex.parse(s, chart.coords) for s in sphere_embedding_sources(m)]
    return mp.MapSpec(chart, target, comps)


def position_field(spec: mp.MapSpec) -> mp.TangentField:
    """The position vector field of the ambient space along the map."""
    return mp.TangentField(list(spec.components))


def power_curve(exponent: float, lo: float = 0.5, hi: float = 4.0) -> mp.MapSpec:
    """The curve t -> t^a from (lo, hi) into the Euclidean line."""
    chart = interval_chart(lo, hi)
    target = geo.euclidean_space(1)
    if float(exponent).is_integer():
        src = f"t^{int(exponent)}"
    else:
        src = f"pow(t, {exponent!r})"
    return mp.MapSpec(chart, target, [ex.parse(src, ["t"])])


TORUS_TEST_MATRIX = ((1.0, 0.3), (-0.2, 1.1))


def torus_test_map(amplitude: float = 0.2) -> mp.MapSpec:
    """Linear torus map plus a trigonometric perturbation, the standard
    configuration for the variation-formula checks."""
    chart = torus_chart(2)
    target = geo.euclidean_space(2)
    a = TORUS_TEST_MATRIX
    comps = [
        ex.parse(f"{a[0][0]!r}*x1 + {a[0][1]!r}*x2 + {amplitude!r}*sin(x1)",
                 chart.coords),
        ex.parse(f"{a[1][0]!r}*x1 + {a[1][1]!r}*x2 + {amplitude!r}*cos(x2)",
                 chart.coords),
    ]
    return mp.MapSpec(chart, target, comps)


def torus_test_fields() -> dict:
    """The tangent fields 'v' and 'w' of the variation-formula checks,
    along torus_test_map and linear_torus_map."""
    v, w = _parse_rows(["x1", "x2"], [  # torus_chart(2).coords
        ["0.7*sin(x1)*cos(x2)", "0.4*cos(x1 + x2)"],
        ["0.5*sin(x1)*cos(x2) + 0.2*sin(x2)", "0.3*cos(x1 + x2)"]])
    return {"v": mp.TangentField(v), "w": mp.TangentField(w)}


def linear_torus_map(matrix=TORUS_TEST_MATRIX) -> mp.MapSpec:
    chart = torus_chart(2)
    target = geo.euclidean_space(2)
    comps = [
        ex.parse(f"{matrix[0][0]!r}*x1 + {matrix[0][1]!r}*x2", chart.coords),
        ex.parse(f"{matrix[1][0]!r}*x1 + {matrix[1][1]!r}*x2", chart.coords),
    ]
    return mp.MapSpec(chart, target, comps)
