import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slpos.estimation import RangeMeasurement
from slpos.positioning import (
    Anchor,
    linear_init,
    ml_position,
    range_position_crb,
    solve_fixes,
)
from slpos.propagation import Vec3

SQUARE = [Anchor(Vec3(0.0, 0.0, 0.0)), Anchor(Vec3(10.0, 0.0, 0.0)),
          Anchor(Vec3(0.0, 10.0, 0.0)), Anchor(Vec3(10.0, 10.0, 0.0))]


def exact_measurements(anchors, point, sigma=1.0):
    out = []
    for anchor in anchors:
        d = math.dist((point.x, point.y, point.z),
                      (anchor.position.x, anchor.position.y, anchor.position.z))
        out.append((RangeMeasurement(distance=d, sigma=sigma), anchor))
    return out


# --- closed-form initializer ---------------------------------------------------

def test_linear_init_recovers_exact_point():
    anchors = [Anchor(Vec3(0, 0, 0)), Anchor(Vec3(10, 0, 0)), Anchor(Vec3(0, 10, 0))]
    init = linear_init(exact_measurements(anchors, Vec3(3.0, 4.0, 0.0)), dim=2)
    assert init.x == pytest.approx(3.0, abs=1e-9)
    assert init.y == pytest.approx(4.0, abs=1e-9)


def test_linear_init_at_anchor():
    anchors = [Anchor(Vec3(0, 0, 0)), Anchor(Vec3(10, 0, 0)), Anchor(Vec3(0, 10, 0))]
    init = linear_init(exact_measurements(anchors, Vec3(10.0, 0.0, 0.0)), dim=2)
    assert init.x == pytest.approx(10.0, abs=1e-9)
    assert init.y == pytest.approx(0.0, abs=1e-9)


def test_linear_init_collinear_anchors_rejected():
    anchors = [Anchor(Vec3(0, 0, 0)), Anchor(Vec3(1, 0, 0)), Anchor(Vec3(2, 0, 0))]
    with pytest.raises(ValueError):
        linear_init(exact_measurements(anchors, Vec3(3, 4, 0)), dim=2)


def test_linear_init_needs_dim_plus_one_anchors():
    anchors = [Anchor(Vec3(0, 0, 0)), Anchor(Vec3(10, 0, 0))]
    with pytest.raises(ValueError):
        linear_init(exact_measurements(anchors, Vec3(3, 4, 0)), dim=2)


def test_linear_init_3d():
    anchors = [Anchor(Vec3(0, 0, 0)), Anchor(Vec3(10, 0, 0)), Anchor(Vec3(0, 10, 0)),
               Anchor(Vec3(0, 0, 10))]
    init = linear_init(exact_measurements(anchors, Vec3(2.0, 3.0, 4.0)), dim=3)
    assert (init.x, init.y, init.z) == pytest.approx((2.0, 3.0, 4.0), abs=1e-9)


# --- Gauss-Newton solver --------------------------------------------------------

def test_noiseless_recovery():
    measurements = exact_measurements(SQUARE, Vec3(3.0, 4.0, 0.0))
    est = ml_position(measurements, dim=2)
    assert math.hypot(est.position.x - 3.0, est.position.y - 4.0) < 1e-6
    assert est.cost < 1e-12
    assert est.converged
    assert est.iterations <= 10


def test_weight_scale_invariance():
    rng = np.random.default_rng(2)
    noisy = []
    for anchor in SQUARE:
        d = math.dist((3.0, 4.0, 0.0), (anchor.position.x, anchor.position.y, 0.0))
        noisy.append(d + rng.normal(0, 1.0))
    m1 = [(RangeMeasurement(distance=max(d, 0.0), sigma=1.0), a)
          for d, a in zip(noisy, SQUARE)]
    m7 = [(RangeMeasurement(distance=max(d, 0.0), sigma=7.0), a)
          for d, a in zip(noisy, SQUARE)]
    e1 = ml_position(m1, dim=2)
    e7 = ml_position(m7, dim=2)
    assert e1.position.x == pytest.approx(e7.position.x, abs=1e-9)
    assert e1.position.y == pytest.approx(e7.position.y, abs=1e-9)


def test_explicit_uniform_weights():
    measurements = [(RangeMeasurement(distance=m.distance, sigma=math.nan), a)
                    for m, a in exact_measurements(SQUARE, Vec3(6.0, 2.0, 0.0))]
    with pytest.raises(ValueError):
        ml_position(measurements, dim=2)
    est = ml_position(measurements, weights=np.ones(4), dim=2)
    assert est.cost < 1e-12


def test_iterate_collides_with_anchor_is_perturbed_not_fatal():
    measurements = exact_measurements(SQUARE, Vec3(4.0, 5.0, 0.0))
    est = ml_position(measurements, init=Vec3(0.0, 0.0, 0.0), dim=2)
    assert est.converged
    assert math.hypot(est.position.x - 4.0, est.position.y - 5.0) < 1e-6


def test_nonconvergence_reported_not_raised():
    rng = np.random.default_rng(4)
    noisy = []
    for anchor in SQUARE:
        d = math.dist((3.0, 4.0, 0.0), (anchor.position.x, anchor.position.y, 0.0))
        noisy.append((RangeMeasurement(distance=d + abs(rng.normal(0, 2.0)), sigma=1.0),
                      anchor))
    est = ml_position(noisy, init=Vec3(500.0, -500.0, 0.0), dim=2, max_iters=1)
    assert isinstance(est.converged, bool)


def test_noisy_fixes_report_converged():
    # Noisy fixes end where backtracking can no longer lower the cost in
    # floating point, often with a gradient just above the tolerance.
    rng = np.random.default_rng(0)
    for _ in range(50):
        measurements = []
        for anchor in SQUARE:
            d = math.dist((3.0, 4.0, 0.0), (anchor.position.x, anchor.position.y, 0.0))
            measurements.append((RangeMeasurement(distance=max(d + rng.normal(0, 1.0), 0.0),
                                                  sigma=1.0), anchor))
        assert ml_position(measurements, dim=2).converged


def test_cost_not_above_initial_cost():
    rng = np.random.default_rng(8)
    measurements = []
    for anchor in SQUARE:
        d = math.dist((3.0, 4.0, 0.0), (anchor.position.x, anchor.position.y, 0.0))
        measurements.append((RangeMeasurement(distance=max(d + rng.normal(0, 1.0), 0.1),
                                              sigma=1.0), anchor))
    init = Vec3(8.0, 8.0, 0.0)
    anchors_xy = np.array([[a.position.x, a.position.y] for _, a in measurements])
    dists = np.array([m.distance for m, _ in measurements])
    init_cost = float(np.sum((dists - np.linalg.norm(
        np.array([init.x, init.y]) - anchors_xy, axis=1)) ** 2))
    est = ml_position(measurements, init=init, dim=2)
    assert est.cost <= init_cost + 1e-12


@settings(max_examples=25, deadline=None)
@given(vx=st.integers(min_value=-50, max_value=50),
       vy=st.integers(min_value=-50, max_value=50))
def test_translation_equivariance(vx, vy):
    shift = Vec3(float(vx), float(vy), 0.0)
    rng_values = np.random.default_rng(11).normal(0, 0.5, len(SQUARE))
    base_meas = []
    shifted_meas = []
    for noise, anchor in zip(rng_values, SQUARE):
        d = math.dist((3.0, 4.0, 0.0), (anchor.position.x, anchor.position.y, 0.0))
        base_meas.append((RangeMeasurement(distance=max(d + noise, 0.01), sigma=1.0),
                          anchor))
        moved = Anchor(anchor.position + shift)
        shifted_meas.append((RangeMeasurement(distance=max(d + noise, 0.01), sigma=1.0),
                             moved))
    base = ml_position(base_meas, dim=2)
    shifted = ml_position(shifted_meas, dim=2)
    assert shifted.position.x - base.position.x == pytest.approx(shift.x, abs=1e-6)
    assert shifted.position.y - base.position.y == pytest.approx(shift.y, abs=1e-6)


def test_monte_carlo_rmse_near_crb():
    rng = np.random.default_rng(3)
    sigma = 1.0
    true = Vec3(3.0, 4.0, 0.0)
    crb = range_position_crb(SQUARE, true, [sigma] * 4, dim=2)
    errors = []
    for _ in range(300):
        measurements = []
        for anchor in SQUARE:
            d = math.dist((true.x, true.y, 0.0), (anchor.position.x, anchor.position.y, 0.0))
            measurements.append((RangeMeasurement(distance=max(d + rng.normal(0, sigma), 0.01),
                                                  sigma=sigma), anchor))
        est = ml_position(measurements, dim=2)
        errors.append(math.hypot(est.position.x - true.x, est.position.y - true.y))
    rmse = float(np.sqrt(np.mean(np.square(errors))))
    assert rmse == pytest.approx(crb, rel=0.25)


# --- batched solver -------------------------------------------------------------

MAST = SQUARE + [Anchor(Vec3(5.0, 5.0, 8.0))]


def _noisy_batch(anchors, point, dim, n_fixes, seed, sigma=1.0):
    """(F, A) clipped noisy ranges to `point`; row 0 is noise-free."""
    xyz = np.array([[a.position.x, a.position.y, a.position.z][:dim] for a in anchors])
    true = np.linalg.norm(xyz - np.array([point.x, point.y, point.z][:dim]), axis=1)
    noise = np.random.default_rng(seed).normal(0.0, sigma, (n_fixes, len(anchors)))
    noise[0] = 0.0
    return xyz, np.maximum(true + noise, 0.0)


@pytest.mark.parametrize("anchors, point, dim, options", [
    (SQUARE, Vec3(3.0, 4.0, 0.0), 2, {}),
    (MAST, Vec3(3.0, 4.0, 1.5), 3, {}),
    # Every iterate starts on an anchor and must be nudged off it.
    (SQUARE, Vec3(4.0, 5.0, 0.0), 2, {"init": "on_anchor"}),
    (SQUARE, Vec3(3.0, 4.0, 0.0), 2, {"init": "far", "max_iters": 1}),
    (SQUARE, Vec3(6.0, 2.0, 0.0), 2, {"weights": np.array([1.0, 4.0, 0.25, 2.0])}),
])
def test_batched_rows_equal_single_fix_solves(anchors, point, dim, options):
    xyz, dists = _noisy_batch(anchors, point, dim, n_fixes=40, seed=5)
    weights = options.get("weights")
    init = {"on_anchor": np.tile(xyz[0], (len(dists), 1)),
            "far": np.tile([500.0, -500.0], (len(dists), 1))}.get(options.get("init"))
    max_iters = options.get("max_iters", 50)
    positions, costs, iterations, converged = solve_fixes(
        xyz, dists, weights=weights, init=init, max_iters=max_iters)
    if options.get("init") == "far":
        assert not converged.any()
    else:
        # Row 0 is noise-free: it recovers the point.
        true = np.array([point.x, point.y, point.z][:dim])
        np.testing.assert_allclose(positions[0], true, atol=1e-6)
    for row, (d, position) in enumerate(zip(dists, positions)):
        measurements = [(RangeMeasurement(distance=float(r), sigma=1.0), a)
                        for r, a in zip(d, anchors)]
        start = None if init is None else Vec3(*init[row], *[0.0] * (3 - dim))
        single = ml_position(measurements, weights=weights, init=start, dim=dim,
                             max_iters=max_iters)
        got = np.array([single.position.x, single.position.y, single.position.z][:dim])
        assert np.linalg.norm(got - position) <= 1e-12
        assert single.iterations == iterations[row]
        assert single.converged == converged[row]
        assert single.cost == pytest.approx(costs[row], rel=1e-12, abs=1e-300)


def test_singular_gauss_newton_system_does_not_raise():
    # Two anchors and an iterate on the line through them: the Jacobian has
    # rank 1, so the step is the minimum-norm one along that line.
    xyz = np.array([[0.0, 0.0], [10.0, 0.0]])
    dists = np.array([[3.0, 7.0], [4.0, 6.0]])
    positions, _, _, _ = solve_fixes(xyz, dists, init=np.array([[5.0, 0.0], [1.0, 0.0]]))
    np.testing.assert_allclose(positions, [[3.0, 0.0], [4.0, 0.0]], atol=1e-9)


def test_crb_rejects_point_on_anchor():
    with pytest.raises(ValueError):
        range_position_crb(SQUARE, Vec3(0.0, 0.0, 0.0), [1.0] * 4, dim=2)
