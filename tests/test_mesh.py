import math

import numpy as np
import pytest

from symphonic import charts, geometry as geo
from symphonic.mesh import Mesh, _axis_nodes, build_mesh, pairwise_sum


def test_pairwise_sum_matches_fsum(rng):
    values = rng.normal(size=1003) * 10.0 ** rng.integers(-3, 4, size=1003)
    assert pairwise_sum(values) == pytest.approx(math.fsum(values),
                                                 rel=1e-14)


def test_pairwise_sum_edge_cases():
    assert pairwise_sum([]) == 0.0
    assert pairwise_sum([3.5]) == 3.5
    assert pairwise_sum([1.0, 2.0, 3.0]) == pytest.approx(6.0)


def test_pairwise_sum_deterministic(rng):
    values = rng.normal(size=777)
    assert pairwise_sum(values) == pairwise_sum(values.copy())


def test_periodic_mesh_weights(torus2):
    mesh = build_mesh(torus2, 16)
    assert len(mesh) == 256
    assert mesh.weights.sum() == pytest.approx((2 * np.pi) ** 2)
    assert np.allclose(mesh.sqrtg, 1.0)


def test_gauss_legendre_exactness():
    interval = charts.interval_chart(0.0, 2.0)
    mesh = build_mesh(interval, 6)
    # degree-9 polynomial integrated exactly by 6-node Gauss-Legendre
    vals = mesh.points[:, 0] ** 9
    assert mesh.integrate(vals) == pytest.approx(2.0 ** 10 / 10, rel=1e-13)


def test_mesh_carries_volume_density(sphere2):
    mesh = build_mesh(sphere2, 12)
    expected = np.sin(mesh.points[:, 0])
    assert np.allclose(mesh.sqrtg, expected, rtol=1e-12)
    area = mesh.integrate(np.ones(len(mesh)))
    assert area == pytest.approx(4 * np.pi * np.cos(0.1), rel=1e-10)


def test_mesh_rejects_unbounded():
    with pytest.raises(geo.GeometryError):
        build_mesh(geo.euclidean_space(2), 8)


def test_mesh_on_a_constant_chart_has_one_density(torus2):
    mesh = build_mesh(torus2, 8)
    assert mesh.sqrtg is geo.constant_metric(torus2).sqrt_det == 1.0


def test_mesh_names_the_node_in_an_excluded_ball():
    # 3 Gauss-Legendre nodes per axis: the middle node (0, 0), flat
    # index 4, is the one node in the hole
    plane = charts.punctured_plane_chart(radius=3.0, hole=0.2)
    with pytest.raises(geo.DomainError) as err:
        build_mesh(plane, 3)
    assert err.value.index == 4
    nodes = _axis_nodes(-3.0, 3.0, False, 3)[0]
    with pytest.raises(geo.DomainError) as point_err:
        plane.require_inside([nodes[1], nodes[1]])
    assert str(err.value) == str(point_err.value)
    assert "is outside the domain of chart 'plane-minus-origin'" in str(
        err.value)


def test_mesh_per_axis_resolution(annulus):
    mesh = build_mesh(annulus, [6, 10])
    assert len(mesh) == 60


def test_mesh_description(torus2):
    mesh = build_mesh(torus2, 8)
    assert "torus2" in mesh.description
