import numpy as np
import pytest

from symphonic import charts, flow, geometry as geo, maps as mp
from symphonic import expr as ex
from symphonic.specfile import load_spec


def perturbed_map(amplitude=0.1):
    chart = charts.torus_chart(2)
    coords = chart.coords
    return mp.MapSpec(chart, geo.euclidean_space(2), [
        ex.parse(f"1.0*x1 + 0.3*x2 + {amplitude!r}*sin(x1)", coords),
        ex.parse(f"-0.2*x1 + 1.1*x2 + {amplitude * 0.5!r}*sin(x1)", coords),
    ])


def identity_torus_map():
    chart = charts.torus_chart(2)
    return mp.MapSpec(chart, geo.euclidean_space(2),
                      [ex.parse("x1", chart.coords),
                       ex.parse("x2", chart.coords)])


def test_init_identity_energy():
    state = flow.flow_init(identity_torus_map(), 16)
    assert state.energy_history[0] == pytest.approx(2 * (2 * np.pi) ** 2,
                                                    rel=1e-12)


def test_init_constant_map_is_fixed_point():
    chart = charts.torus_chart(2)
    spec = mp.MapSpec(chart, geo.euclidean_space(2),
                      [ex.parse("1", chart.coords),
                       ex.parse("2", chart.coords)])
    state = flow.flow_init(spec, 8)
    assert state.energy_history[0] == pytest.approx(0.0, abs=1e-20)
    state = flow.flow_run(state, 10, 1e-8)
    assert state.status == flow.STATUS_CONVERGED
    assert state.iteration == 0


def test_init_rejects_coarse_grid():
    with pytest.raises(flow.FlowSetupError):
        flow.flow_init(identity_torus_map(), 4)


def test_init_rejects_nonperiodic_source():
    curve = charts.power_curve(2.0)
    with pytest.raises(flow.FlowSetupError):
        flow.flow_init(curve, 16)


def test_init_rejects_nonconstant_source_metric(curved_target):
    coords = curved_target.coords
    periodic_curved = geo.ManifoldModel(
        "per", coords, curved_target.metric, [(0.0, 2 * np.pi)] * 2,
        periodic=[True, True])
    spec = mp.MapSpec(periodic_curved, geo.euclidean_space(2),
                      [ex.parse("y1", coords), ex.parse("y2", coords)])
    with pytest.raises(flow.FlowSetupError):
        flow.flow_init(spec, 16)


def test_winding_matrix():
    spec = perturbed_map()
    state = flow.flow_init(spec, 16)
    assert np.allclose(state.linear, [[1.0, 0.3], [-0.2, 1.1]], atol=1e-12)
    # remainder is the periodic part
    assert np.max(np.abs(state.rem[0] - 0.1 * np.sin(state.coord_grids[0]))) \
        <= 1e-12


def test_grid_tension_matches_jets_at_order_four():
    spec = charts.torus_test_map()
    errs = []
    for res in (16, 32, 64):
        state = flow.flow_init(spec, res)
        grid_tau = flow.grid_tau_s(state)
        worst = 0.0
        for idx in [(0, 0), (3, 5), (res // 2, res // 3)]:
            x = [state.spacings[0] * idx[0], state.spacings[1] * idx[1]]
            jet_tau = mp.symphonic_tension(spec, x)
            worst = max(worst,
                        float(np.max(np.abs(grid_tau[:, idx[0], idx[1]]
                                            - jet_tau))))
        errs.append(worst)
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 3.5


def test_symphonic_start_accepts_with_no_motion():
    lin = charts.linear_torus_map()
    state = flow.flow_init(lin, 16)
    before = state.rem.copy()
    state = flow.flow_step(state)
    assert np.max(np.abs(state.rem - before)) <= 1e-10
    assert state.energy_history[-1] == pytest.approx(state.energy_history[0])


def test_energy_monotone_over_fifty_steps():
    state = flow.flow_init(perturbed_map(), 16, epsilon=2e-3)
    for _ in range(50):
        state = flow.flow_step(state)
        assert state.status == flow.STATUS_RUNNING
    hist = state.energy_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert hist[-1] < hist[0]


def test_flow_converges_small_grid():
    state = flow.flow_init(perturbed_map(), 16, epsilon=2e-3)
    state = flow.flow_run(state, 4000, 1e-4)
    assert state.status == flow.STATUS_CONVERGED
    assert flow.max_gradient_norm(state) <= 1e-4


def test_budget_zero():
    state = flow.flow_init(perturbed_map(), 16)
    state = flow.flow_run(state, 0, 1e-12)
    assert state.status == flow.STATUS_BUDGET


def test_domain_abort():
    chart = charts.torus_chart(2)
    tight = geo.euclidean_space(2, bounds=[(-0.5, 7.0), (-2.0, 8.0)])
    spec = mp.MapSpec(chart, tight,
                      [ex.parse("x1 + 0.4*sin(x1)", chart.coords),
                       ex.parse("x2", chart.coords)])
    state = flow.flow_init(spec, 16, epsilon=10.0)
    state = flow.flow_run(state, 50, 1e-10)
    assert state.status == flow.STATUS_ABORTED


def test_bisym_flow_monotone():
    state = flow.flow_init(perturbed_map(0.05), 16, epsilon=1e-4,
                           energy=flow.ENERGY_BISYM)
    for _ in range(20):
        state = flow.flow_step(state)
        if state.status != flow.STATUS_RUNNING:
            break
    hist = state.energy_history
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))
    assert hist[-1] < hist[0]


def test_grid_bi_tension_matches_pointwise():
    spec = charts.torus_test_map()
    state = flow.flow_init(spec, 64)
    grid_bt = flow.grid_bi_tension(state)
    idx = (10, 20)
    x = [state.spacings[0] * idx[0], state.spacings[1] * idx[1]]
    from symphonic import variational as va
    ref = va.bi_tension(spec, x, variant=va.FULL)
    got = grid_bt[:, idx[0], idx[1]]
    assert np.max(np.abs(got - ref)) <= 1e-3 * max(np.max(np.abs(ref)), 1.0)


def _reference_steps(state, count):
    """flow_step's loop with every memo lookup missing: each evaluation
    gets a fresh copy of its array."""
    for _ in range(count):
        e_old = state.energy_history[-1]
        direction = flow.gradient_field(state, state.rem.copy())
        for _ in range(flow.MAX_HALVINGS + 1):
            candidate = state.rem + state.epsilon * direction
            e_new = flow.flow_energy(state, candidate.copy())
            if e_new <= e_old:
                state.rem = candidate
                state.energy_history.append(e_new)
                state.iteration += 1
                state.epsilon = min(state.epsilon * 1.2, state.epsilon0)
                break
            state.epsilon *= 0.5
    return state


@pytest.mark.parametrize("energy", [flow.ENERGY_SYM, flow.ENERGY_BISYM])
def test_memoized_steps_match_fresh_evaluation(energy):
    spec = charts.torus_test_map()
    state = flow.flow_init(spec, 16, epsilon=2e-3, energy=energy)
    for _ in range(30):
        state = flow.flow_step(state)
    ref = _reference_steps(flow.flow_init(spec, 16, epsilon=2e-3,
                                          energy=energy), 30)
    assert state.status == flow.STATUS_RUNNING and state.iteration == 30
    assert ref.iteration == 30
    assert state.energy_history == ref.energy_history
    assert np.array_equal(state.rem, ref.rem)


def test_one_tension_per_accepted_step(monkeypatch):
    calls = []
    kernel = mp.tau_s

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(mp, "tau_s", counted)
    state = flow.flow_init(perturbed_map(), 16, epsilon=2e-3)
    state = flow.flow_run(state, 25, 1e-12)
    assert state.status == flow.STATUS_BUDGET and state.iteration == 25
    assert len(calls) == state.iteration + 1


def test_remainder_and_gradient_are_read_only():
    state = flow.flow_init(perturbed_map(), 16, epsilon=2e-3)
    for _ in range(2):  # at entry, then after an accepted step
        with pytest.raises(ValueError):
            state.rem[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            flow.gradient_field(state)[0, 0, 0] = 1.0
        state = flow.flow_step(state)
    assert state.iteration == 2
    for c in flow._circulants(16):  # shared by every later caller
        with pytest.raises(ValueError):
            c[0, 0] = 1.0


def test_huge_step_stalls_after_all_halvings():
    state = flow.flow_init(perturbed_map(), 16, epsilon=1e6)
    state = flow.flow_run(state, 10, 1e-12)
    assert state.status == flow.STATUS_STALLED
    assert state.iteration == 0
    assert state.epsilon == 1e6 * 0.5 ** (flow.MAX_HALVINGS + 1)


def _roll_d1(f, axis, h):
    return (-np.roll(f, -2, axis) + 8 * np.roll(f, -1, axis)
            - 8 * np.roll(f, 1, axis) + np.roll(f, 2, axis)) / (12 * h)


def _roll_d2(f, axis, h):
    return (-np.roll(f, -2, axis) + 16 * np.roll(f, -1, axis) - 30 * f
            + 16 * np.roll(f, 1, axis) - np.roll(f, 2, axis)) / (12 * h * h)


def _abs_d1(f, axis, h):
    """_roll_d1 with |weights| on |f|: the scale of its rounding error."""
    f = np.abs(f)
    return (np.roll(f, -2, axis) + 8 * np.roll(f, -1, axis)
            + 8 * np.roll(f, 1, axis) + np.roll(f, 2, axis)) / (12 * h)


def _abs_d2(f, axis, h):
    f = np.abs(f)
    return (np.roll(f, -2, axis) + 16 * np.roll(f, -1, axis) + 30 * f
            + 16 * np.roll(f, 1, axis) + np.roll(f, 2, axis)) / (12 * h * h)


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


# One partial is a five-term dot product and a division, so in any
# summation order it is within gamma_6 * S of the exact value, S being
# the same stencil with |weights| on |f|; two such results differ by at
# most twice that.  A cross partial stacks two of them.
SINGLE_BOUND = 2 * _gamma(6)
CROSS_BOUND = 2 * _gamma(6) * (2 + _gamma(6))


def _assert_stencils(f, spacings, exact):
    d1, d2 = flow._stencil_derivatives(f, spacings)
    m = len(spacings)
    assert d1.shape == (m,) + f.shape
    assert d2.shape == (m, m) + f.shape

    def check(got, ref, scale, bound):
        if exact:
            assert np.array_equal(got, ref)
        else:
            assert np.all(np.abs(got - ref) <= bound * scale)

    for i, hi in enumerate(spacings):
        check(d1[i], _roll_d1(f, 1 + i, hi), _abs_d1(f, 1 + i, hi),
              SINGLE_BOUND)
        check(d2[i, i], _roll_d2(f, 1 + i, hi), _abs_d2(f, 1 + i, hi),
              SINGLE_BOUND)
        for j in range(i + 1, m):
            hj = spacings[j]
            cross = _roll_d1(_roll_d1(f, 1 + i, hi), 1 + j, hj)
            scale = _abs_d1(_abs_d1(f, 1 + i, hi), 1 + j, hj)
            check(d2[i, j], cross, scale, CROSS_BOUND)
            check(d2[j, i], cross, scale, CROSS_BOUND)


@pytest.mark.parametrize("components", [1, 3])
@pytest.mark.parametrize("grid, spacings", [
    ((16,), [0.3]),
    ((8, 12), [0.25, 0.4]),
    ((8, 12, 10), [0.3, 0.2, 0.7]),
])
def test_stencils_equal_rolled_formulas(rng, components, grid, spacings):
    """The matrix stencils against the shifted-array formulas: bit for
    bit where every sum is exact in any order (integer-valued fields,
    12 h a power of two), to the rounding bound of a five-term sum on
    real fields."""
    shape = (components,) + grid
    ints = rng.integers(-999, 999, size=shape).astype(float)
    _assert_stencils(ints, [1 / 3, 2 / 3, 1 / 6][:len(grid)], exact=True)
    _assert_stencils(rng.normal(size=shape), spacings, exact=False)


def test_readme_flow_pinned():
    """symphonic flow --spec builtin:torus-test --grid 32 --dt 2e-3
    --tol 1e-5 --steps 5000, as the README runs it."""
    spec, _ = load_spec("builtin:torus-test")
    state = flow.flow_init(spec, 32, epsilon=2e-3)
    state = flow.flow_run(state, 5000, 1e-5)
    assert state.status == flow.STATUS_CONVERGED
    assert state.iteration == 2073
    hist = state.energy_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert hist[-1] == pytest.approx(109.92370597903712, rel=1e-10)


def test_initial_image_inside_the_hole_is_refused():
    chart = charts.torus_chart(2)
    spec = mp.MapSpec(chart, charts.punctured_plane_chart(hole=0.5),
                      [ex.parse("0.1*sin(x1)", chart.coords),
                       ex.parse("0.1*cos(x2)", chart.coords)])
    with pytest.raises(geo.DomainError, match="plane-minus-origin"):
        flow.flow_init(spec, 16)


def test_candidate_entering_an_excluded_ball_aborts():
    chart = charts.torus_chart(2)
    # an unbounded plane minus one ball, which the initial image
    # (y1 = x1 + 0.4 sin x1 >= 0) misses; the first candidate, a step of
    # 10 along the tension, spreads y1 over about [-13, 19] and lands
    # two nodes in the ball
    plane = geo.ManifoldModel("plane-minus-ball", ["y1", "y2"],
                              [[ex.Const(1.0), ex.Const(0.0)],
                               [ex.Const(0.0), ex.Const(1.0)]],
                              [(None, None), (None, None)],
                              exclusions=[((-2.0, 3.0), 0.5)])
    spec = mp.MapSpec(chart, plane,
                      [ex.parse("x1 + 0.4*sin(x1)", chart.coords),
                       ex.parse("x2", chart.coords)])
    state = flow.flow_init(spec, 16, epsilon=10.0)
    state = flow.flow_step(state)
    assert state.status == flow.STATUS_ABORTED
    assert state.iteration == 0


def test_a_target_that_rejects_no_point_is_not_tested(monkeypatch):
    assert not geo.euclidean_space(2).restricted
    assert charts.punctured_plane_chart().restricted
    assert geo.euclidean_space(2, bounds=[(0.0, None), (None, None)]).restricted
    state = flow.flow_init(perturbed_map(), 16)

    def refuse(self, x):
        raise AssertionError("contains called on an unrestricted target")
    monkeypatch.setattr(geo.ManifoldModel, "contains", refuse)
    state = flow.flow_run(state, 5, 1e-12)
    assert state.status == flow.STATUS_BUDGET


def test_domain_abort_names_the_node_its_image_and_the_chart():
    chart = charts.torus_chart(2)
    plane = geo.ManifoldModel("plane-minus-ball", ["y1", "y2"],
                              [[ex.Const(1.0), ex.Const(0.0)],
                               [ex.Const(0.0), ex.Const(1.0)]],
                              [(None, None), (None, None)],
                              exclusions=[((-2.0, 3.0), 0.5)])
    spec = mp.MapSpec(chart, plane,
                      [ex.parse("x1 + 0.4*sin(x1)", chart.coords),
                       ex.parse("x2", chart.coords)])
    state = flow.flow_init(spec, 16, epsilon=10.0)
    assert state.reason == ""
    candidate = state.rem + state.epsilon * flow.gradient_field(state)
    image = flow._image(state, candidate)
    # the first node in C order whose candidate image is in the ball
    node = tuple(map(int, np.argwhere(~plane.contains(image))[0]))
    state = flow.flow_step(state)
    assert state.status == flow.STATUS_ABORTED
    point = [float(y) for y in image[(slice(None),) + node]]
    assert state.reason == (f"grid node {node}: point {point} is outside "
                            "the domain of chart 'plane-minus-ball'")
    # the running state is left as it was
    assert state.iteration == 0 and len(state.energy_history) == 1


def test_a_target_that_rejects_no_point_builds_no_image(monkeypatch):
    state = flow.flow_init(perturbed_map(), 16)

    def refuse(*args):
        raise AssertionError("image checked on an unrestricted target")
    monkeypatch.setattr(geo.ManifoldModel, "require_inside", refuse)
    monkeypatch.setattr(flow, "_image", refuse)
    state = flow.flow_run(state, 5, 1e-12)
    assert state.status == flow.STATUS_BUDGET
    assert state.reason == ""
