"""The two-operand kernels against the many-operand forms they replace.

maps.tau_s and variational.jacobi_groups contract over two operands at
a time.  The references below are the earlier bodies, which wrote each
frame sum as one four-operand contraction with gi twice; both forms
must agree to rounding on arbitrary SPD metrics, with and without
curvature, on floats and on jet arrays.  maps.energy_density likewise
splits the three-operand pullback metric into two contractions.
"""

import numpy as np
import pytest

from symphonic import charts, maps as mp, variational as va
from symphonic import expr as ex
from symphonic.jet import einsum

RTOL = 1e-13
BATCH = 7


def reference_tau_s(gi, h, d1, sff):
    hs_d = einsum("pqa...,ab...,rb...->pqr...", sff, h, d1)
    hd_d = einsum("pa...,ab...,rb...->pr...", d1, h, d1)
    term1 = einsum("pq...,rs...,pqr...,sa...->a...", gi, gi, hs_d, d1)
    term2 = einsum("pq...,rs...,qrp...,sa...->a...", gi, gi, hs_d, d1)
    term3 = einsum("pq...,rs...,pr...,qsa...->a...", gi, gi, hd_d, sff)
    return term1 + term2 + term3


def reference_jacobi_groups(gi, h, d1, sff, v, dv, ddv, riem=None):
    ddv_D = ddv
    if riem is not None:
        ddv_D = ddv + einsum("abcd...,c...,sd...,qb...->sqa...",
                             riem, v, d1, d1)
    tr_ddv = einsum("pq...,pqa...->a...", gi, ddv)
    tr_s = einsum("pq...,pqa...->a...", gi, sff)
    dv_d = einsum("pa...,ab...,rb...->pr...", dv, h, d1)
    d_d = einsum("pa...,ab...,rb...->pr...", d1, h, d1)
    dv_s = einsum("pa...,ab...,qrb...->pqr...", dv, h, sff)
    s_d = einsum("pqa...,ab...,rb...->pqr...", sff, h, d1)
    ddv_d = einsum("pqa...,ab...,rb...->pqr...", ddv, h, d1)
    hb = (einsum("ra...,ab...,b...->r...", d1, h, tr_ddv)
          + einsum("ra...,ab...,b...->r...", dv, h, tr_s))
    hc = (einsum("rs...,prs...->p...", gi, s_d)
          + einsum("pa...,ab...,b...->p...", d1, h, tr_s))
    return {
        "A": 2.0 * einsum("pq...,rs...,pr...,qsa...->a...",
                          gi, gi, dv_d, sff),
        "B": einsum("rs...,r...,sa...->a...", gi, hb, d1),
        "C": einsum("pq...,p...,qa...->a...", gi, hc, dv),
        "D": einsum("pq...,rs...,pr...,sqa...->a...", gi, gi, d_d, ddv_D),
        "E": einsum("pq...,rs...,pqr...,sa...->a...", gi, gi, dv_s, d1),
        "F": einsum("pq...,rs...,rps...,qa...->a...", gi, gi, ddv_d, d1),
    }


def reference_energy_density(frame, h, d1):
    df = np.einsum("ip...,pa...->ia...", frame, d1)
    gram = np.einsum("ia...,ab...,jb...->ij...", df, h, df)
    return np.einsum("ij...,ij...->...", gram, gram)


def assert_close(got, ref):
    scale = np.max(np.abs(ref))
    assert scale > 0
    assert np.max(np.abs(got - ref)) <= RTOL * scale


def random_spd(rng, k):
    a = rng.normal(size=(BATCH, k, k))
    spd = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(k)
    return np.moveaxis(spd, 0, -1)


def random_inputs(rng, m=3, n=4):
    return dict(gi=random_spd(rng, m), h=random_spd(rng, n),
                d1=rng.normal(size=(m, n, BATCH)),
                sff=rng.normal(size=(m, m, n, BATCH)))


def test_tau_s_matches_four_operand_form(rng):
    args = random_inputs(rng)
    assert_close(mp.tau_s(**args), reference_tau_s(**args))


@pytest.mark.parametrize("curved", [False, True])
def test_jacobi_groups_match_four_operand_form(rng, curved):
    m, n = 3, 4
    args = random_inputs(rng, m, n)
    args.update(v=rng.normal(size=(n, BATCH)),
                dv=rng.normal(size=(m, n, BATCH)),
                ddv=rng.normal(size=(m, m, n, BATCH)),
                riem=(rng.normal(size=(n, n, n, n, BATCH)) if curved
                      else None))
    got = va.jacobi_groups(**args)
    ref = reference_jacobi_groups(**args)
    assert sorted(got) == sorted(ref)
    for key in ref:
        assert_close(got[key], ref[key])


@pytest.mark.parametrize("batched", [False, True])
def test_energy_density_matches_three_operand_form(rng, batched):
    """Constant frame and h over a batch, as on the flow grid, or one
    per point, as on a mesh."""
    m, n = 3, 4
    frame, h = rng.normal(size=(m, m, BATCH)), random_spd(rng, n)
    if not batched:
        frame, h = frame[..., 0], h[..., 0]
    args = dict(frame=frame, h=h, d1=rng.normal(size=(m, n, BATCH)))
    assert_close(mp.energy_density(**args), reference_energy_density(**args))


def curved_torus_map(curved_target):
    chart = charts.torus_chart(2)
    return mp.MapSpec(chart, curved_target, [
        ex.parse("x1 + 0.3*sin(x2)", chart.coords),
        ex.parse("x2 - 0.2*cos(x1)", chart.coords),
    ])


@pytest.mark.parametrize("which", ["sphere-3", "curved-target"])
def test_tau_s_jets_match_four_operand_form(rng, monkeypatch, which,
                                            curved_target):
    spec = (charts.sphere_inclusion(3) if which == "sphere-3"
            else curved_torus_map(curved_target))
    x = np.array(spec.source.sample_points(5, rng)).T
    got = va.tau_s_jets(mp.along_map(spec, x, 4))
    monkeypatch.setattr(mp, "tau_s", reference_tau_s)
    ref = va.tau_s_jets(mp.along_map(spec, x, 4))
    assert got.order == ref.order == 2
    assert_close(got.value, ref.value)
    assert_close(got.gradient(), ref.gradient())
