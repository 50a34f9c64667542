"""Range-based position estimation.

A closed-form linear initializer (squared-range differences) feeds an
iteratively damped Gauss-Newton minimizer of the weighted least-squares
cost sum_i (1/sigma_i^2) (d_i - ||x - x_i||)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimation import RangeMeasurement
from .propagation import Vec3

# Relative Gauss-Newton step below which a stalled solve counts as converged.
_STEP_TOL = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class Anchor:
    """Reference node with known position."""

    position: Vec3
    id: str = ""


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
    if len(anchors) < dim + 1:
        raise ValueError(f"need at least {dim + 1} anchors for a {dim}D fix")
    a_mat = 2.0 * (anchors[1:] - anchors[0])
    rhs = (dists[0] ** 2 - dists[1:] ** 2
           + np.sum(anchors[1:] ** 2, axis=1) - np.sum(anchors[0] ** 2))
    solution, _, rank, _ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    if rank < dim:
        raise ValueError("degenerate anchor geometry (collinear or coplanar)")
    coords = list(solution) + [0.0] * (3 - dim)
    return Vec3(*coords)


def ml_position(measurements: Sequence[tuple[RangeMeasurement, Anchor]],
                weights: np.ndarray | None = None,
                init: Vec3 | None = None,
                dim: int = 2,
                max_iters: int = 50,
                tol: float = 1e-9) -> PositionEstimate:
    """Gauss-Newton minimization of the weighted range residuals.

    Weights default to 1/sigma_i^2 from the measurements; pass an explicit
    array for uniform or custom weighting.  Only relative weights matter:
    they are normalized to unit maximum before iterating (the gradient
    tolerance applies to the normalized objective), so scaling every sigma
    by a common factor leaves the iterate trajectory unchanged.  ``init``
    defaults to the closed-form linear starting point.  Steps are halved
    (backtracking) until the cost decreases; iteration stops when the
    gradient norm drops below ``tol``, no decrease is possible, or
    ``max_iters`` is reached.  A solve that stops because no decrease is
    possible has converged when its full step is below sqrt(eps) relative
    to the iterate.  Non-convergence is reported through
    ``converged=False``, never an exception.
    """
    anchors, dists, sigmas = _anchor_matrix(measurements, dim)
    if len(anchors) < dim:
        raise ValueError(f"need at least {dim} anchors")
    if weights is None:
        if np.any(~np.isfinite(sigmas)) or np.any(sigmas <= 0):
            raise ValueError("measurement sigmas must be positive and finite "
                             "(or pass explicit weights)")
        weights = 1.0 / sigmas ** 2
    raw_weights = np.asarray(weights, dtype=float)
    if np.any(raw_weights <= 0) or not np.all(np.isfinite(raw_weights)):
        raise ValueError("weights must be positive and finite")
    weight_scale = raw_weights.max()
    weights = raw_weights / weight_scale

    if init is None:
        init = linear_init(measurements, dim)
    x = np.array([init.x, init.y, init.z][:dim], dtype=float)

    def residuals(point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        diff = point[None, :] - anchors
        ranges = np.linalg.norm(diff, axis=1)
        return dists - ranges, ranges

    def cost_of(res: np.ndarray) -> float:
        return float(np.sum(weights * res ** 2))

    res, ranges = residuals(x)
    cost = cost_of(res)
    converged = False
    iterations = 0
    sqrt_w = np.sqrt(weights)
    while iterations < max_iters:
        # A zero range makes the Jacobian row undefined; nudge off the anchor.
        while np.any(ranges < 1e-12):
            x = x + 1e-6
            res, ranges = residuals(x)
            cost = cost_of(res)
        jac = -(x[None, :] - anchors) / ranges[:, None]
        grad = 2.0 * jac.T @ (weights * res)
        if np.linalg.norm(grad) < tol:
            converged = True
            break
        step, *_ = np.linalg.lstsq(jac * sqrt_w[:, None], -sqrt_w * res, rcond=None)
        scale = 1.0
        improved = False
        for _ in range(30):
            trial = x + scale * step
            trial_res, trial_ranges = residuals(trial)
            trial_cost = cost_of(trial_res)
            if trial_cost < cost:
                x, res, ranges, cost = trial, trial_res, trial_ranges, trial_cost
                improved = True
                break
            scale *= 0.5
        iterations += 1
        if not improved:
            # Backtracking can no longer lower the cost in floating point:
            # a stationary point if the full step is negligible against x.
            converged = bool(np.linalg.norm(step) <= _STEP_TOL * (1.0 + np.linalg.norm(x)))
            break

    if not converged:
        jac = -(x[None, :] - anchors) / np.maximum(ranges, 1e-12)[:, None]
        converged = bool(np.linalg.norm(2.0 * jac.T @ (weights * res)) < tol)
    coords = list(x) + [0.0] * (3 - dim)
    return PositionEstimate(position=Vec3(*coords), cost=cost * weight_scale,
                            iterations=iterations, converged=converged)


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
