"""Range-based position estimation.

A closed-form linear initializer (squared-range differences) feeds an
iteratively damped Newton minimizer of the weighted least-squares cost
sum_i (1/sigma_i^2) (d_i - ||x - x_i||)^2.  Each step solves with the cost's
exact Hessian where it is positive definite, and with the Gauss-Newton
normal matrix elsewhere: the range residuals do not vanish at the minimum,
so Gauss-Newton alone converges only linearly there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimation import RangeMeasurement
from .propagation import Vec3

# Relative Newton (or Gauss-Newton) step below which a stalled solve counts
# as converged.
_STEP_TOL = math.sqrt(np.finfo(float).eps)

# Backtracking step scales: the full step, then 29 halvings,
# tried in groups so that a group's trial arrays stay small.
_STEP_SCALES = np.split(np.ldexp(1.0, -np.arange(30)), (1, 10, 20))

# Relative margin of the Hessian's positive-definiteness test: a Hessian
# whose leading minors clear zero only by rounding would give a step of
# unbounded length.  Any margin from 0 to 1e-3 gives the same mean and
# largest iteration counts, and the same unconverged count, on the square
# and 3-D test layouts at sigma = 1, 3 and 10 m; 1e-1 leaves fixes at the
# iteration limit again.
_PD_MARGIN = 1e-6

# Iteration limit of a fix's solve.
MAX_ITERS = 50


@dataclass(frozen=True)
class Anchor:
    """Reference node with known position."""

    position: Vec3


@dataclass(frozen=True)
class PositionEstimate:
    position: Vec3
    cost: float
    iterations: int
    converged: bool


def _anchor_matrix(measurements: Sequence[tuple[RangeMeasurement, Anchor]],
                   dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    positions = np.array([[a.position.x, a.position.y, a.position.z][:dim]
                          for _, a in measurements])
    distances = np.array([m.distance for m, _ in measurements])
    sigmas = np.array([m.sigma for m, _ in measurements])
    return positions, distances, sigmas


def linear_init(measurements: Sequence[tuple[RangeMeasurement, Anchor]],
                dim: int = 2) -> Vec3:
    """Closed-form starting point from squared-range differences.

    Subtracting the first equation ||x - x_i||^2 = d_i^2 from the others
    cancels the quadratic term and leaves a linear least-squares system in
    x.  Requires at least dim + 1 anchors in general position.

    Raises:
        ValueError: fewer than dim + 1 anchors, or collinear (2D) /
            coplanar (3D) anchor geometry.
    """
    anchors, dists, _ = _anchor_matrix(measurements, dim)
    return Vec3(*_linear_init(anchors, dists[:, None])[:, 0], *[0.0] * (3 - dim))


def _linear_init(anchors: np.ndarray, dists: np.ndarray) -> np.ndarray:
    """``linear_init`` (dim, F) for every column of the (A, F) range array:
    the anchor matrix is shared, so one least-squares solve takes all F
    right-hand sides."""
    dim = anchors.shape[1]
    if len(anchors) < dim + 1:
        raise ValueError(f"need at least {dim + 1} anchors for a {dim}D fix")
    a_mat = 2.0 * (anchors[1:] - anchors[0])
    rhs = (dists[:1] ** 2 - dists[1:] ** 2
           + np.sum(anchors[1:] ** 2, axis=1)[:, None] - np.sum(anchors[0] ** 2))
    solution, _, rank, _ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    if rank < dim:
        raise ValueError("degenerate anchor geometry (collinear or coplanar)")
    return solution


def ml_position(measurements: Sequence[tuple[RangeMeasurement, Anchor]],
                weights: np.ndarray | None = None,
                init: Vec3 | None = None,
                dim: int = 2,
                max_iters: int = MAX_ITERS,
                tol: float = 1e-9) -> PositionEstimate:
    """Damped Newton minimization of the weighted range residuals.

    Weights default to 1/sigma_i^2 from the measurements; pass an explicit
    array for uniform or custom weighting.  Only relative weights matter:
    they are normalized to unit maximum before iterating (the gradient
    tolerance applies to the normalized objective), so scaling every sigma
    by a common factor leaves the iterate trajectory unchanged.  ``init``
    defaults to the closed-form linear starting point.  Each step is a
    Newton step on the cost's exact Hessian, or the Gauss-Newton step where
    that Hessian is not positive definite.  Steps are halved
    (backtracking) until the cost decreases; iteration stops when the
    gradient norm drops below ``tol``, no decrease is possible, or
    ``max_iters`` is reached.  A solve that stops because no decrease is
    possible has converged when its full step is below sqrt(eps) relative
    to the iterate.  Non-convergence is reported through
    ``converged=False``, never an exception.  This is ``solve_fixes`` for
    one fix.
    """
    anchors, dists, sigmas = _anchor_matrix(measurements, dim)
    if weights is None:
        if np.any(~np.isfinite(sigmas)) or np.any(sigmas <= 0):
            raise ValueError("measurement sigmas must be positive and finite "
                             "(or pass explicit weights)")
        weights = 1.0 / sigmas ** 2
    start = None if init is None else [[init.x, init.y, init.z][:dim]]
    x, cost, iterations, converged = solve_fixes(anchors, dists[None, :], weights, start,
                                                 max_iters, tol)
    return PositionEstimate(position=Vec3(*x[0], *[0.0] * (3 - dim)), cost=float(cost[0]),
                            iterations=int(iterations[0]), converged=bool(converged[0]))


# The solver below keeps the fix axis innermost: iterates are (dim, n),
# ranges and residuals (A, n), Jacobians (dim, A, n).  Sums over anchors
# and coordinates run in a fixed order (builtin sum over the leading axis),
# so a fix's result does not depend on how many fixes share the arrays.

def _anchor_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the anchor axis of an (A, n) or (dim, A, n) array, anchor by
    anchor."""
    return sum(values.swapaxes(0, -2))


def _residuals(x: np.ndarray, anchor_cols: np.ndarray,
               dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Range residuals and ranges (A, n) of iterates x (dim, n); anchor_cols
    is the (dim, A, 1) anchor array."""
    ranges = np.sqrt(sum((coord - anchor_coord) ** 2
                         for coord, anchor_coord in zip(x, anchor_cols)))
    return dists - ranges, ranges


def _gradient_norm(x: np.ndarray, ranges: np.ndarray, wres: np.ndarray,
                   anchor_cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Range Jacobians (dim, A, n) and cost gradient norms (n,)."""
    jac = -(x[:, None, :] - anchor_cols) / ranges
    grad = 2.0 * _anchor_sum(jac * wres)
    return jac, np.sqrt(sum(grad * grad))


def _normal_and_hessian(jac: np.ndarray, res: np.ndarray, ranges: np.ndarray,
                        dists: np.ndarray, weights: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton normal matrices N and half Hessians H (n, dim, dim) of
    the weighted cost, from the range Jacobians (dim, A, n), residuals r_i,
    ranges rho_i, measured distances d_i (A, n) and weights w_i (A, 1).

    With u_i the unit vector from anchor i, N = sum_i w_i u_i u_i^T and
    H = sum_i w_i (d_i/rho_i) u_i u_i^T - (sum_i w_i r_i/rho_i) I: the normal
    matrix with each anchor's weight scaled by d_i/rho_i, less a multiple of
    the identity.
    """
    outer = jac[:, None] * jac[None]
    normal = _anchor_sum(weights * outer).transpose(2, 0, 1)
    hessian = (_anchor_sum(weights * dists / ranges * outer).transpose(2, 0, 1)
               - _anchor_sum(weights * res / ranges)[:, None, None] * np.eye(len(jac)))
    return normal, hessian


def _newton_step(jac: np.ndarray, res: np.ndarray, ranges: np.ndarray,
                 dists: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Newton steps (dim, n) on the exact Hessian of the weighted cost.

    A fix whose half Hessian H fails Sylvester's criterion, every leading
    minor k above _PD_MARGIN * trace(N)^k, takes the Gauss-Newton step on
    the normal matrix N instead.  A system whose determinant is below
    1e-15 * trace^dim (pinv's default cutoff) is near-singular and takes its
    minimum-norm step, so a degenerate fix never raises.
    """
    normal, hessian = _normal_and_hessian(jac, res, ranges, dists, weights)
    dim = normal.shape[-1]
    scale = np.trace(normal, axis1=1, axis2=2)
    definite = np.all([np.linalg.det(hessian[:, :k, :k]) > _PD_MARGIN * scale ** k
                       for k in range(1, dim + 1)], axis=0)
    system = np.where(definite[:, None, None], hessian, normal)
    target = _anchor_sum(jac * (-weights * res)).T
    singular = ~(np.linalg.det(system) > 1e-15 * np.trace(system, axis1=1, axis2=2) ** dim)
    step = np.empty_like(target)
    step[~singular] = np.linalg.solve(system[~singular], target[~singular, :, None])[..., 0]
    if np.any(singular):
        pinv = np.linalg.pinv(system[singular], hermitian=True)
        step[singular] = np.sum(pinv * target[singular, None, :], axis=2)
    return step.T


def solve_fixes(anchors: np.ndarray, distances: np.ndarray,
                weights: np.ndarray | None = None, init: np.ndarray | None = None,
                max_iters: int = MAX_ITERS, tol: float = 1e-9
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``ml_position`` for F fixes against one anchor layout, all at once.

    ``anchors`` is (A, dim), ``distances`` (F, A), ``weights`` (A,)
    (default uniform) and ``init`` (F, dim) (default the closed-form linear
    start).  Every fix follows ``ml_position``'s rules on its own, through
    masks: the anchor nudge, backtracking, the gradient tolerance and the
    stall rule.  A fix's result does not depend on the other fixes.
    Returns the positions (F, dim), costs (F,), iteration counts (F,) and
    converged flags (F,).
    """
    anchors = np.asarray(anchors, dtype=float)
    dists = np.array(distances, dtype=float).T
    n_anchor, n_fix = dists.shape
    dim = anchors.shape[1]
    if init is None:
        x = _linear_init(anchors, dists)
    elif n_anchor < dim:
        raise ValueError(f"need at least {dim} anchors")
    else:
        x = np.array(init, dtype=float).reshape(n_fix, dim).T.copy()
    raw_weights = np.ones(n_anchor) if weights is None else np.asarray(weights, dtype=float)
    if np.any(raw_weights <= 0) or not np.all(np.isfinite(raw_weights)):
        raise ValueError("weights must be positive and finite")
    weight_scale = raw_weights.max()
    weights = (raw_weights / weight_scale)[:, None]
    anchor_cols = anchors.T[:, :, None]

    res, ranges = _residuals(x, anchor_cols, dists)
    cost = _anchor_sum(weights * res ** 2)
    converged = np.zeros(n_fix, dtype=bool)
    iterations = np.zeros(n_fix, dtype=int)
    active = np.arange(n_fix if max_iters > 0 else 0)
    while active.size:
        # A zero range makes the Jacobian row undefined; nudge off the anchor.
        hit = active[(ranges[:, active] < 1e-12).any(axis=0)]
        while hit.size:
            x[:, hit] += 1e-6
            res[:, hit], ranges[:, hit] = _residuals(x[:, hit], anchor_cols, dists[:, hit])
            cost[hit] = _anchor_sum(weights * res[:, hit] ** 2)
            hit = hit[(ranges[:, hit] < 1e-12).any(axis=0)]
        jac, grad_norm = _gradient_norm(x[:, active], ranges[:, active],
                                        weights * res[:, active], anchor_cols)
        small = grad_norm < tol
        converged[active[small]] = True
        active, jac = active[~small], jac[..., ~small]
        if not active.size:
            break
        step = _newton_step(jac, res[:, active], ranges[:, active], dists[:, active],
                            weights)
        # Backtracking: take the first of scale * step, scale = 1, 1/2, ...,
        # 2^-29, that lowers the cost.  Every fix tries the full step, and
        # those it did not lower try the next group of halvings at once, as
        # one trial column per (fix, scale).  `pending` indexes the active
        # fixes that have not decreased yet.
        pending = np.arange(active.size)
        for scales in _STEP_SCALES:
            rows = active[pending]
            trial = (x[:, rows, None] + scales * step[:, pending, None]).reshape(dim, -1)
            trial_res, trial_ranges = _residuals(
                trial, anchor_cols, dists[:, rows].repeat(len(scales), axis=1))
            trial_cost = _anchor_sum(weights * trial_res ** 2)
            better = trial_cost.reshape(-1, len(scales)) < cost[rows, None]
            found = better.any(axis=1)
            pick = found.nonzero()[0] * len(scales) + better[found].argmax(axis=1)
            done = rows[found]
            x[:, done], res[:, done], ranges[:, done], cost[done] = (
                trial[:, pick], trial_res[:, pick], trial_ranges[:, pick], trial_cost[pick])
            pending = pending[~found]
            if not pending.size:
                break
        iterations[active] += 1
        # Backtracking can no longer lower the cost in floating point: a
        # stationary point if the full step is negligible against x.
        stalled = active[pending]
        converged[stalled] = (np.sqrt(sum(step[:, pending] ** 2))
                              <= _STEP_TOL * (1.0 + np.sqrt(sum(x[:, stalled] ** 2))))
        active = np.delete(active, pending)
        active = active[iterations[active] < max_iters]

    rest = np.flatnonzero(~converged)
    if rest.size:
        _, grad_norm = _gradient_norm(x[:, rest], np.maximum(ranges[:, rest], 1e-12),
                                      weights * res[:, rest], anchor_cols)
        converged[rest] = grad_norm < tol
    return x.T, cost * weight_scale, iterations, converged


def range_position_crb(anchors: Sequence[Anchor], point: Vec3, sigmas: Sequence[float],
                       dim: int = 2) -> float:
    """Root of the trace of the inverse range-only position FIM (meters).

    The FIM is sum_i (1/sigma_i^2) u_i u_i^T with u_i the unit vector from
    anchor i to the evaluation point.
    """
    p = np.array([point.x, point.y, point.z][:dim])
    info = np.zeros((dim, dim))
    for anchor, sigma in zip(anchors, sigmas):
        a = np.array([anchor.position.x, anchor.position.y, anchor.position.z][:dim])
        u = p - a
        norm = np.linalg.norm(u)
        if norm == 0:
            raise ValueError("evaluation point coincides with an anchor")
        u = u / norm
        info += np.outer(u, u) / sigma ** 2
    return float(math.sqrt(np.trace(np.linalg.inv(info))))
