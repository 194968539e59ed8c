"""Finite-difference ground truth for the variation formulas.

Deformations are coordinate-additive: the deformed map has target
coordinates phi^a + t v^a + s w^a, so its variation vector field at
t = 0 is exactly v.  First derivatives use the 4-point central stencil
(design order 4), mixed second derivatives the 2x2 cross stencil
(design order 2).  Everything reduces with deterministic pairwise
summation.

An energy evaluation is one batched pass over all mesh nodes: the jets
of the map and the fields at every node are built once per deformation
(see ``jet``), and each stencil value adds them, evaluates the energy's
density (variational.symphonic_density or bi_density) on the deformed
context over the whole batch, and integrates it with mesh.integrate in
node order.  The deformed image goes through the same target checks as
any map: one that leaves the target chart raises StepTooLargeError
naming the first such mesh node, and a target metric that is not
positive definite there raises geometry.NonSPDError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geometry as geo
from . import maps as mp
from . import variational as va
from .mesh import Mesh
from .variational import ENERGY_BISYM, ENERGY_SYM  # noqa: F401 (re-export)

DEFAULT_FIRST_STEP = 1e-3
DEFAULT_SECOND_STEP = 1e-2


class StepTooLargeError(RuntimeError):
    """A deformed image left the target chart at the requested step."""


@dataclass
class Deformation:
    """Coordinate-additive deformation of a map along one or two
    tangent fields."""

    spec: mp.MapSpec
    v: mp.TangentField
    w: mp.TangentField = None

    def energy_fn(self, mesh: Mesh, energy: str = ENERGY_SYM):
        """E(s, t) over the mesh, with per-point data precomputed.

        The returned callable evaluates the chosen energy of the
        deformed map; pass s=0 for one-parameter families.
        """
        if energy not in va.DENSITIES:
            raise ValueError(f"unknown energy {energy!r}")
        density, order = va.DENSITIES[energy]
        coords = self.spec.source.coords
        x = mesh.points.T
        ctx = mp.along_map(self.spec, x, order)
        vj = self.v.jets(coords, x, order)
        wj = None if self.w is None else self.w.jets(coords, x, order)

        def energy_at(s: float, t: float) -> float:
            jets = ctx.jets + t * vj
            if wj is not None and s != 0.0:
                jets = jets + s * wj
            try:
                return mesh.integrate(density(ctx.deformed(jets)))
            except geo.DomainError as err:
                p = mesh.points[err.index]
                raise StepTooLargeError(
                    f"deformation step left the target domain at "
                    f"source point {list(map(float, p))}: {err}") from err

        return energy_at


def fd_first_variation(spec: mp.MapSpec, v: mp.TangentField, mesh: Mesh,
                       step: float = DEFAULT_FIRST_STEP,
                       energy: str = ENERGY_SYM) -> float:
    """d/dt E(phi + t v) at t = 0 by the 4-point central stencil."""
    fn = Deformation(spec, v).energy_fn(mesh, energy)
    h = float(step)
    return (-fn(0.0, 2 * h) + 8 * fn(0.0, h)
            - 8 * fn(0.0, -h) + fn(0.0, -2 * h)) / (12 * h)


def fd_second_variation(spec: mp.MapSpec, v: mp.TangentField,
                        w: mp.TangentField, mesh: Mesh,
                        step: float = DEFAULT_SECOND_STEP,
                        energy: str = ENERGY_SYM) -> float:
    """Mixed d^2/(ds dt) E(phi + t v + s w) at 0 by the cross stencil."""
    fn = Deformation(spec, v, w).energy_fn(mesh, energy)
    h = float(step)
    return (fn(h, h) - fn(h, -h) - fn(-h, h) + fn(-h, -h)) / (4 * h * h)


def richardson_order(value_h, value_h2, value_h4):
    """Observed convergence order from values at steps h, h/2, h/4.

    Returns None when successive differences are too small to resolve
    an order (converged or degenerate stencil).
    """
    d1 = value_h - value_h2
    d2 = value_h2 - value_h4
    scale = max(abs(value_h), abs(value_h2), abs(value_h4), 1.0)
    if abs(d2) < 1e-14 * scale or abs(d1) < 1e-14 * scale:
        return None
    ratio = d1 / d2
    if ratio <= 0:
        return None
    return math.log2(ratio)
