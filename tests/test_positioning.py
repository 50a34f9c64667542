import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channels import SQUARE
from oracle_newton import lapack_branches, lapack_newton_step, stacked_normal_and_hessian
from slpos import positioning
from slpos.estimation import RangeMeasurement
from slpos.positioning import (
    Anchor,
    linear_init,
    ml_position,
    range_position_crb,
    solve_fixes,
)
from slpos.propagation import Vec3

SQUARE_XY = [[a.position.x, a.position.y] for a in SQUARE]


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


# --- damped Newton solver ------------------------------------------------------

def _costs(x, dists, anchor_cols, weights=1.0):
    """The solver's cost of iterates x (dim, n) for the ranges dists (A, n),
    weighted by weights (A, 1) (default uniform)."""
    res, _ = positioning._residuals(x, anchor_cols, dists)
    return positioning._anchor_sum(weights * res ** 2)


def _fix_costs(xyz, dists, positions, weights=None):
    """Costs (F,) of solve_fixes' positions (F, dim) for its anchors (A, dim),
    ranges (F, A) and weights (A,) (default uniform)."""
    w = np.ones(len(xyz)) if weights is None else np.asarray(weights, dtype=float)
    return _costs(positions.T, dists.T, xyz.T[:, :, None], w[:, None])


def test_noiseless_recovery():
    xyz = np.array(SQUARE_XY)
    dists = np.linalg.norm(xyz - [3.0, 4.0], axis=1)[None, :]
    positions, iterations, converged = solve_fixes(xyz, dists)
    assert math.hypot(positions[0, 0] - 3.0, positions[0, 1] - 4.0) < 1e-6
    assert _fix_costs(xyz, dists, positions)[0] < 1e-12
    assert converged[0]
    assert iterations[0] <= 10


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
    xyz, dists = np.array(SQUARE_XY), np.array([[m.distance for m, _ in measurements]])
    positions, _, _ = solve_fixes(xyz, dists, weights=np.ones(4))
    assert _fix_costs(xyz, dists, positions, np.ones(4))[0] < 1e-12


def test_iterate_collides_with_anchor_is_perturbed_not_fatal():
    measurements = exact_measurements(SQUARE, Vec3(4.0, 5.0, 0.0))
    est = ml_position(measurements, init=Vec3(0.0, 0.0, 0.0), dim=2)
    assert est.converged
    assert math.hypot(est.position.x - 4.0, est.position.y - 5.0) < 1e-6


def test_nonconvergence_reported_not_raised(monkeypatch):
    monkeypatch.setattr(positioning, "MAX_ITERS", 1)
    rng = np.random.default_rng(4)
    noisy = []
    for anchor in SQUARE:
        d = math.dist((3.0, 4.0, 0.0), (anchor.position.x, anchor.position.y, 0.0))
        noisy.append((RangeMeasurement(distance=d + abs(rng.normal(0, 2.0)), sigma=1.0),
                      anchor))
    est = ml_position(noisy, init=Vec3(500.0, -500.0, 0.0), dim=2)
    assert isinstance(est.converged, bool)


def test_noisy_fixes_report_converged():
    # Noisy fixes end where the cost can no longer resolve the next step,
    # often with a gradient just above the tolerance.
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
    positions, _, _ = solve_fixes(anchors_xy, dists[None, :], init=[[init.x, init.y]])
    assert _fix_costs(anchors_xy, dists[None, :], positions)[0] <= init_cost + 1e-12


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
def test_batched_rows_equal_single_fix_solves(anchors, point, dim, options, monkeypatch):
    xyz, dists = _noisy_batch(anchors, point, dim, n_fixes=40, seed=5)
    weights = options.get("weights")
    init = {"on_anchor": np.tile(xyz[0], (len(dists), 1)),
            "far": np.tile([500.0, -500.0], (len(dists), 1))}.get(options.get("init"))
    monkeypatch.setattr(positioning, "MAX_ITERS", options.get("max_iters", positioning.MAX_ITERS))
    positions, iterations, converged = solve_fixes(xyz, dists, weights=weights, init=init)
    costs = _fix_costs(xyz, dists, positions, weights)
    if options.get("init") == "far":
        assert not converged.any()
    else:
        # Row 0 is noise-free: it recovers the point.
        true = np.array([point.x, point.y, point.z][:dim])
        np.testing.assert_allclose(positions[0], true, atol=1e-6)
    for row, (d, position) in enumerate(zip(dists, positions)):
        start = None if init is None else init[row:row + 1]
        got, single_iterations, single_converged = solve_fixes(
            xyz, d[None, :], weights=weights, init=start)
        assert np.linalg.norm(got[0] - position) <= 1e-12
        assert single_iterations[0] == iterations[row]
        assert single_converged[0] == converged[row]
        cost = _fix_costs(xyz, d[None, :], got, weights)
        assert cost[0] == pytest.approx(costs[row], rel=1e-12, abs=1e-300)


def test_singular_gauss_newton_system_does_not_raise():
    # Two anchors and an iterate on the line through them: the Jacobian has
    # rank 1, so the step is the minimum-norm one along that line.
    xyz = np.array([[0.0, 0.0], [10.0, 0.0]])
    dists = np.array([[3.0, 7.0], [4.0, 6.0]])
    positions, _, _ = solve_fixes(xyz, dists, init=np.array([[5.0, 0.0], [1.0, 0.0]]))
    np.testing.assert_allclose(positions, [[3.0, 0.0], [4.0, 0.0]], atol=1e-9)


@pytest.mark.parametrize("start, cost, converged", [
    ([4.0, 5.0], 0.0, True),              # the minimum
    ([0.0, 0.0], 98.82530139, False),     # an anchor, where the nudge would act
])
def test_zero_iteration_limit_tests_the_start_in_place(start, cost, converged, monkeypatch):
    # With no step allowed, the start is judged where it is: neither
    # stepped from nor nudged off an anchor.
    monkeypatch.setattr(positioning, "MAX_ITERS", 0)
    xyz = np.array([[a.position.x, a.position.y] for a in SQUARE])
    dists = np.linalg.norm(xyz - [4.0, 5.0], axis=1)[None, :]
    positions, iterations, flags = solve_fixes(xyz, dists, init=[start])
    assert positions.tolist() == [start]
    assert _fix_costs(xyz, dists, positions)[0] == pytest.approx(cost, rel=1e-9, abs=1e-12)
    assert iterations[0] == 0
    assert flags[0] == converged


def _half_hessians(xyz, dists, x, weights):
    """The solver's Gauss-Newton normal matrices and half Hessians at the
    iterates x (n, dim) for the ranges dists (n, A)."""
    anchor_cols = xyz.T[:, :, None]
    x, dists, weights = x.T, dists.T, weights[:, None]
    res, ranges = positioning._residuals(x, anchor_cols, dists)
    jac, _, _ = positioning._gradient(x, ranges, weights * res, anchor_cols)
    normal, hessian = positioning._normal_and_hessian(jac, res, ranges, dists, weights)
    return positioning._symmetric(normal), positioning._symmetric(hessian)


@pytest.mark.parametrize("anchors, point, dim", [
    (SQUARE, Vec3(3.0, 4.0, 0.0), 2),
    (MAST, Vec3(3.0, 4.0, 1.5), 3),
])
def test_unique_entries_equal_the_stacked_matrices_bit_for_bit(anchors, point, dim):
    xyz, dists = _noisy_batch(anchors, point, dim, n_fixes=500, seed=14, sigma=3.0)
    weights = np.linspace(0.5, 1.0, len(anchors))
    iterates = np.random.default_rng(15).uniform(-5.0, 15.0, (len(dists), dim))
    normal, hessian = _half_hessians(xyz, dists, iterates, weights)
    anchor_cols = xyz.T[:, :, None]
    x, dists, weights = iterates.T, dists.T, weights[:, None]
    res, ranges = positioning._residuals(x, anchor_cols, dists)
    jac, _, _ = positioning._gradient(x, ranges, weights * res, anchor_cols)
    want_normal, want_hessian = stacked_normal_and_hessian(jac, res, ranges, dists, weights)
    assert np.array_equal(normal, want_normal)
    assert np.array_equal(hessian, want_hessian)


EPS = np.finfo(float).eps


def _symmetric_stack(rng, n, dim, eigenvalues):
    """Unique entries of n random symmetric matrices Q diag(eigenvalues) Q^T."""
    q, _ = np.linalg.qr(rng.standard_normal((n, dim, dim)))
    full = q @ (eigenvalues[:, :, None] * q.transpose(0, 2, 1))
    return [full[:, a, b].copy() for a, b in positioning._PAIRS[dim]]


def _abs_permanent(full):
    """Permanent of |A| for (n, k, k) stacks, k <= 3: the size of the terms
    of a cofactor expansion, which bounds its rounding."""
    a = np.abs(full)
    if a.shape[-1] == 1:
        return a[:, 0, 0]
    if a.shape[-1] == 2:
        return a[:, 0, 0] * a[:, 1, 1] + a[:, 0, 1] * a[:, 1, 0]
    return (a[:, 0, 0] * (a[:, 1, 1] * a[:, 2, 2] + a[:, 1, 2] * a[:, 2, 1])
            + a[:, 0, 1] * (a[:, 1, 0] * a[:, 2, 2] + a[:, 1, 2] * a[:, 2, 0])
            + a[:, 0, 2] * (a[:, 1, 0] * a[:, 2, 1] + a[:, 1, 1] * a[:, 2, 0]))


def _outside_band(value, threshold, scale):
    """Whether a determinant lies clear of its threshold: farther than 1e-9
    of the threshold plus the rounding bound of the determinant itself,
    16 eps times the permanent of |A|."""
    return np.abs(value - threshold) > 1e-9 * np.abs(threshold) + 16 * EPS * scale


@pytest.mark.parametrize("dim", [2, 3])
def test_closed_form_step_matches_lapack(dim):
    # Normal matrices are Gram matrices, as in the solver: positive
    # semidefinite, half of them near-singular, their determinant from
    # 1e-19 to 1e-11 times trace^dim around the 1e-15 cutoff.  Half
    # Hessians are positive definite, indefinite, or have one eigenvalue
    # near zero, so their minors straddle Sylvester's margin.
    rng = np.random.default_rng(dim)
    n = 20000
    lam = rng.uniform(0.2, 4.0, (n, dim))
    near = rng.random(n) < 0.5
    lam[near, 0] = lam[near].sum(axis=1) * 10.0 ** rng.uniform(-19, -11, near.sum())
    normal = _symmetric_stack(rng, n, dim, lam)
    mu = rng.uniform(-2.0, 4.0, (n, dim))
    small = rng.random(n) < 0.3
    mu[small, 0] = np.abs(mu[small]).sum(axis=1) * 10.0 ** rng.uniform(-9, -3, small.sum())
    hessian = _symmetric_stack(rng, n, dim, mu)
    target = rng.standard_normal((dim, n))
    full_normal, full_hessian = positioning._symmetric(normal), positioning._symmetric(hessian)

    # Minors and determinants: cofactor expansions against LU.
    for entries, full in ((normal, full_normal), (hessian, full_hessian)):
        for k, minor in enumerate(positioning._leading_minors(entries), 1):
            want = np.linalg.det(full[:, :k, :k])
            assert np.all(np.abs(minor - want)
                          <= 1e-12 * np.abs(want) + 16 * EPS * _abs_permanent(full[:, :k, :k]))

    # Branch choices, away from each threshold.
    definite, system, det = positioning._choose_system(normal, hessian)
    singular = positioning._singular(system, det)
    want_definite, want_system, want_singular = lapack_branches(full_normal, full_hessian)
    scale = positioning._trace(normal)
    clear = np.logical_and.reduce([
        _outside_band(np.linalg.det(full_hessian[:, :k, :k]), positioning._PD_MARGIN * scale ** k,
                      _abs_permanent(full_hessian[:, :k, :k])) for k in range(1, dim + 1)])
    assert 0.1 * n < np.count_nonzero(want_definite) < 0.9 * n
    assert np.array_equal(definite[clear], want_definite[clear])
    clear &= _outside_band(np.linalg.det(want_system),
                           1e-15 * np.trace(want_system, axis1=1, axis2=2) ** dim,
                           _abs_permanent(want_system))
    assert np.count_nonzero(want_singular[clear]) > 0.05 * n
    assert np.array_equal(singular[clear], want_singular[clear])

    # Steps: both solvers are backward stable, so they agree to about
    # cond * eps; near-singular systems take the same pinv step.
    step_definite, step = positioning._newton_step(normal, hessian, target)
    assert np.array_equal(step_definite, definite)
    want = lapack_newton_step(full_normal, full_hessian, target.T).T
    cond = np.linalg.cond(want_system)
    regular = clear & ~want_singular & (cond < 1e8)
    assert np.count_nonzero(regular & (cond > 1e5)) > 50
    error = np.linalg.norm(step - want, axis=0) / np.linalg.norm(want, axis=0)
    assert np.all(error[regular] <= 1e-14 + 2 * EPS * cond[regular])
    assert np.all(error[regular & (cond < 1e5)] <= 1e-10)
    assert np.array_equal(step[:, clear & want_singular], want[:, clear & want_singular])


def _cost_gradient(xyz, dists, x, weights):
    """Gradient of sum_i w_i (d_i - ||x - a_i||)^2 at the point x (dim,)."""
    offsets = x - xyz
    ranges = np.linalg.norm(offsets, axis=1)
    return -2.0 * np.sum((weights * (dists - ranges) / ranges)[:, None] * offsets, axis=0)


@pytest.mark.parametrize("anchors, point, dim", [
    (SQUARE, Vec3(3.0, 4.0, 0.0), 2),
    (MAST, Vec3(3.0, 4.0, 1.5), 3),
])
def test_hessian_matches_finite_difference_of_the_gradient(anchors, point, dim):
    xyz, dists = _noisy_batch(anchors, point, dim, n_fixes=6, seed=12, sigma=2.0)
    weights = np.linspace(0.5, 1.0, len(anchors))
    iterates = np.random.default_rng(13).uniform(-5.0, 15.0, (len(dists), dim))
    _, hessians = _half_hessians(xyz, dists, iterates, weights)
    step = 1e-5
    for x, d, hessian in zip(iterates, dists, hessians):
        columns = [(_cost_gradient(xyz, d, x + step * unit, weights)
                    - _cost_gradient(xyz, d, x - step * unit, weights)) / (2.0 * step)
                   for unit in np.eye(dim)]
        np.testing.assert_allclose(2.0 * hessian, np.array(columns).T, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("point, start", [
    (Vec3(3.0, 4.0, 0.0), [9.0, 1.0]),     # one negative Hessian eigenvalue
    (Vec3(40.0, -30.0, 0.0), [5.0, 5.0]),  # both negative
])
def test_start_without_positive_definite_hessian_lowers_the_cost_every_step(point, start,
                                                                           monkeypatch):
    xyz, dists = _noisy_batch(SQUARE, point, 2, n_fixes=1, seed=0)
    _, hessians = _half_hessians(xyz, dists, np.array([start]), np.ones(len(xyz)))
    assert np.linalg.eigvalsh(hessians[0])[0] < 0.0
    costs = []
    for max_iters in range(51):
        monkeypatch.setattr(positioning, "MAX_ITERS", max_iters)
        positions, iterations, converged = solve_fixes(xyz, dists, init=[start])
        if iterations[0] < max_iters:
            break
        costs.append(_fix_costs(xyz, dists, positions)[0])
    assert converged[0] and len(costs) > 3
    assert np.all(np.diff(costs) < 0.0)


def _demo_ranges(anchors, point, sigma, seed, n_fixes=1000):
    """Anchor coordinates and the position demo's n_fixes fixes of ranges to
    `point`: sigma * standard_normal((n_fixes, A)) from default_rng(seed),
    added to the true ranges and clipped at 0."""
    xyz = np.array([[a.position.x, a.position.y, a.position.z][:len(point)] for a in anchors])
    true_ranges = np.linalg.norm(xyz - point, axis=1)
    noise = sigma * np.random.default_rng(seed).standard_normal((n_fixes, len(xyz)))
    return xyz, np.maximum(true_ranges + noise, 0.0)


def test_backtracking_takes_the_first_halving_that_lowers_the_cost(monkeypatch):
    # One step per fix from the linear start x, on the sigma = 10 m square
    # stream.  A fix that is not stationary and whose full step s does not
    # lower its cost ends at x + 2^-k s for the smallest k <= 29 that does,
    # found here by a scan of each fix on its own, or stays at x and stalls.
    monkeypatch.setattr(positioning, "MAX_ITERS", 1)
    xyz, dists = _demo_ranges(SQUARE, (3.0, 4.0), 10.0, 7)
    positions, iterations, converged = solve_fixes(xyz, dists)
    anchor_cols, dists = xyz.T[:, :, None], dists.T
    x = positioning._linear_init(xyz, dists)
    res, ranges = positioning._residuals(x, anchor_cols, dists)
    assert ranges.min() >= 1e-12    # no fix is nudged off an anchor
    _, _, _, step, stationary = positioning._stationary_test(
        x, res, ranges, dists, np.ones((len(xyz), 1)), anchor_cols)
    cost = _costs(x, dists, anchor_cols)
    backtracked = ~stationary & ~(_costs(x + step, dists, anchor_cols) < cost)
    halved = 0
    for fix in np.flatnonzero(backtracked):
        for k in range(1, 30):
            trial = x[:, fix:fix + 1] + np.ldexp(1.0, -k) * step[:, fix:fix + 1]
            if _costs(trial, dists[:, fix:fix + 1], anchor_cols)[0] < cost[fix]:
                assert positions[fix].tolist() == trial[:, 0].tolist()
                halved += 1
                break
        else:
            assert positions[fix].tolist() == x[:, fix].tolist()
            assert iterations[fix] == 1 and not converged[fix]
    assert halved >= 10


def test_benchmark_configuration_needs_few_iterations():
    # The slowest fix sets how many passes the vectorised loop makes:
    # square layout, point (3, 4), sigma 1 m, 1000 fixes per seed.
    for seed in range(101, 111):
        xyz, dists = _demo_ranges(SQUARE, (3.0, 4.0), 1.0, seed)
        _, iterations, converged = solve_fixes(xyz, dists)
        assert converged.all()
        assert iterations.max() <= 5


def test_3d_benchmark_configuration_needs_few_iterations():
    # The 3x3 systems: the mast layout, point (3, 4, 1.5), sigma 1 m.
    for seed in range(101, 111):
        xyz, dists = _demo_ranges(MAST, (3.0, 4.0, 1.5), 1.0, seed)
        _, iterations, converged = solve_fixes(xyz, dists)
        assert converged.all()
        assert iterations.max() <= 8


@pytest.mark.parametrize("seed, fix", [(7, 693), (101, 752)])
def test_fix_whose_gradient_stalls_above_the_tolerance_converges(seed, fix):
    # Mast layout, sigma 3 m: these fixes reach their minimum with the
    # gradient stuck at its rounding floor, 1e-7, far above the 1e-9
    # tolerance; the predicted-decrease test stops them there.
    xyz, dists = _demo_ranges(MAST, (3.0, 4.0, 1.5), 3.0, seed)
    dists = dists[fix:fix + 1]
    positions, iterations, converged = solve_fixes(xyz, dists)
    assert converged[0] and iterations[0] <= 5
    grad = _cost_gradient(xyz, dists[0], positions[0], np.ones(len(xyz)))
    assert np.linalg.norm(grad) > 1e-8
    _, hessians = _half_hessians(xyz, dists, positions, np.ones(len(xyz)))
    assert np.linalg.eigvalsh(hessians[0])[0] > 0.0


def test_saddle_on_the_diagonal_escapes_to_a_lower_minimum():
    # Square layout, sigma 10 m, seed 111, fix 698: the ranges to the
    # anchors off the diagonal are both clipped to 0, so the fix and its
    # linear start are symmetric about x = y, and Newton steps from it stop
    # at a saddle on that line, (10.33, 10.33) with cost 359.99.  The step
    # along the negative curvature leaves the line for a minimum.
    xyz, dists = _demo_ranges(SQUARE, (3.0, 4.0), 10.0, 111)
    dists = dists[698:699]
    assert dists[0, 1] == dists[0, 2] == 0.0
    positions, _, converged = solve_fixes(xyz, dists)
    assert converged[0]
    assert abs(positions[0, 0] - positions[0, 1]) > 1.0
    assert _fix_costs(xyz, dists, positions)[0] < 359.99
    _, hessians = _half_hessians(xyz, dists, positions, np.ones(len(xyz)))
    assert np.linalg.eigvalsh(hessians[0])[0] > 0.0


@pytest.mark.parametrize("seed", [111, 7])
def test_saddle_escape_does_not_depend_on_the_eigenvector_sign(seed, monkeypatch):
    # Square layout, sigma 10 m: fixes with tied clipped ranges stop at
    # saddles on a symmetry line, where the side of the escape would follow
    # the sign LAPACK gives the eigenvector.  Negating every eigenvector
    # np.linalg.eigh returns leaves every position bit for bit.
    xyz, dists = _demo_ranges(SQUARE, (3.0, 4.0), 10.0, seed, n_fixes=5000)
    want, _, _ = solve_fixes(xyz, dists)
    eigh, calls = np.linalg.eigh, []

    def negated_eigh(a, *args, **kwargs):
        values, vectors = eigh(a, *args, **kwargs)
        calls.append(len(a))
        return values, -vectors

    monkeypatch.setattr(np.linalg, "eigh", negated_eigh)
    got, _, _ = solve_fixes(xyz, dists)
    assert calls
    assert got.tobytes() == want.tobytes(), np.flatnonzero(np.any(got != want, axis=1))


@pytest.mark.parametrize("anchors, point", [
    (SQUARE, (3.0, 4.0)),
    (MAST, (3.0, 4.0, 1.5)),
])
def test_no_saddle_point_reported_converged(anchors, point):
    # At sigma 10 m about a quarter of the fixes have two or more ranges
    # clipped to 0; their ties make the cost symmetric, with saddle points
    # on the symmetry planes.  A converged fix is a minimum: its half
    # Hessian has no eigenvalue below -1e-9 of its largest.
    for seed in range(111, 131):
        xyz, dists = _demo_ranges(anchors, point, 10.0, seed)
        positions, _, converged = solve_fixes(xyz, dists)
        _, hessians = _half_hessians(xyz, dists, positions, np.ones(len(xyz)))
        eigenvalues = np.linalg.eigvalsh(hessians[converged])
        assert np.all(eigenvalues[:, 0] >= -1e-9 * eigenvalues[:, -1]), seed


def test_other_dimensions_rejected():
    with pytest.raises(ValueError, match="dim must be 2 or 3"):
        solve_fixes(np.array([[0.0], [10.0]]), np.array([[3.0, 7.0]]))


@pytest.mark.parametrize("dim", [1, 4, 2.0, 3.0])
@pytest.mark.parametrize("solve", [
    lambda dim: linear_init(exact_measurements(SQUARE, Vec3(3.0, 4.0, 0.0)), dim=dim),
    lambda dim: ml_position(exact_measurements(SQUARE, Vec3(3.0, 4.0, 0.0)), dim=dim),
    lambda dim: range_position_crb(SQUARE, Vec3(3.0, 4.0, 0.0), [1.0] * 4, dim=dim),
], ids=["linear_init", "ml_position", "range_position_crb"])
def test_every_vec3_entry_point_rejects_other_dimensions(solve, dim):
    # ``coordinates`` states the rule for every function taking Vec3 points.
    with pytest.raises(ValueError, match="dim must be 2 or 3"):
        solve(dim)


def test_numpy_integer_dimension_accepted():
    measurements = exact_measurements(SQUARE, Vec3(3.0, 4.0, 0.0))
    assert linear_init(measurements, dim=np.int64(2)) == linear_init(measurements, dim=2)
    assert ml_position(measurements, dim=np.int64(2)) == ml_position(measurements, dim=2)


@pytest.mark.parametrize("anchors, options, message", [
    ([[0.0, 0.0]], {"init": [[1.0, 1.0]]}, "need at least 2 anchors"),
    ([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]], {"init": [[1.0, 1.0, 1.0]]},
     "need at least 3 anchors"),
    (SQUARE_XY, {"weights": [1.0, 1.0, 0.0, 1.0]}, "weights must be positive and finite"),
    (SQUARE_XY, {"weights": [1.0, -1.0, 1.0, 1.0]}, "weights must be positive and finite"),
    (SQUARE_XY, {"weights": [1.0, 1.0, 1.0, math.nan]}, "weights must be positive and finite"),
    # Shapes that do not fit the four 2-D anchors, which once raised an
    # anchor-count or a broadcasting error, or broadcast silently; "ranges"
    # is the shape of the distances.
    (SQUARE_XY, {"ranges": (1, 1), "init": [[1.0, 1.0]]},
     "distances has shape (1, 1), but anchors of shape (4, 2) need (F, 4)"),
    *((SQUARE_XY, {"ranges": (1, width)},
       f"distances has shape (1, {width}), but anchors of shape (4, 2) need (F, 4)")
      for width in (2, 3, 5)),
    (SQUARE_XY, {"ranges": (4,)},
     "distances has shape (4,), but anchors of shape (4, 2) need (F, 4)"),
    (SQUARE_XY, {"weights": [1.0, 1.0]},
     "weights has shape (2,), but anchors of shape (4, 2) need (4,)"),
    (SQUARE_XY, {"weights": [1.0]},
     "weights has shape (1,), but anchors of shape (4, 2) need (4,)"),
    (SQUARE_XY, {"init": [[1.0], [1.0]]},
     "init has shape (2, 1), but anchors of shape (4, 2) need (1, 2)"),
])
def test_solve_fixes_rejects_bad_options(anchors, options, message):
    options = dict(options)
    ranges = np.full(options.pop("ranges", (1, len(anchors))), 5.0)
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_fixes(np.array(anchors), ranges, **options)


@pytest.mark.parametrize("sigmas", [[1.0, 1.0], [1.0] * 5, [1.0, 1.0, 1.0, -1.0],
                                    [1.0, 1.0, 1.0, math.nan], [1.0, 1.0, 1.0, 0.0],
                                    [1.0, 1.0, 1.0, math.inf]],
                         ids=["two", "five", "negative", "nan", "zero", "inf"])
def test_crb_rejects_sigmas_other_than_one_positive_finite_value_per_anchor(sigmas):
    # Once two anchors were dropped, a sign squared away, a nan returned or
    # a divide by zero warned.
    with pytest.raises(ValueError, match=re.escape(
            f"sigmas must hold one positive, finite value per anchor (4 anchors), got {sigmas}")):
        range_position_crb(SQUARE, Vec3(3.0, 4.0, 0.0), sigmas)


def test_crb_rejects_point_on_anchor():
    with pytest.raises(ValueError):
        range_position_crb(SQUARE, Vec3(0.0, 0.0, 0.0), [1.0] * 4, dim=2)
