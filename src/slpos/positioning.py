"""Range-based position estimation.

A closed-form linear initializer (squared-range differences) feeds an
iteratively damped Newton minimizer of the weighted least-squares cost
sum_i (1/sigma_i^2) (d_i - ||x - x_i||)^2.  Each step solves with the cost's
exact Hessian where it is positive definite, and with the Gauss-Newton
normal matrix elsewhere: the range residuals do not vanish at the minimum,
so Gauss-Newton alone converges only linearly there.  A fix stops where no
step would show in the cost's rounding, and counts as converged only at a
minimum: a saddle point is left along its negative curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimation import RangeMeasurement
from .propagation import Vec3, check_coordinates

# Rounding error of the cost, per unit of sum_i w_i |r_i| (|r_i| + 2 rho_i).
# A range rho_i = sqrt(sum_k (x_k - a_ik)^2) carries a relative rounding
# error of at most about (dim/2 + 2) eps <= 3.5 eps (the differences, their
# squares, the sum and the root), so r_i = d_i - rho_i an absolute one of
# about 3.5 eps rho_i + eps |r_i|: the subtraction cancels, and the error is
# set by rho_i, not by r_i.  Squaring and weighting doubles that relative to
# w_i r_i^2 and adds a few eps w_i r_i^2, hence c eps sum_i w_i |r_i|
# (|r_i| + 2 rho_i) with c = 4, where eps cost alone would be far too small
# whenever the residuals are small against the ranges.  On the square and
# 3-D test layouts at sigma = 1 and 3 m (seeds 101-110), c = 1 and c = 16
# give the same converged flags and largest iteration counts as c = 4; the
# mean count moves by about 3% (square, sigma = 1 m: 2.35, 2.28, 2.21), and
# c = 16 moves converged positions by up to 1.5e-6 m.
_RESOLUTION = 4.0 * np.finfo(float).eps

# Backtracking step scales: the full step, then 29 halvings.
_STEP_SCALES = np.ldexp(1.0, -np.arange(30))

# Relative margin of the Hessian's positive-definiteness test: a Hessian
# whose leading minors clear zero only by rounding would give a step of
# unbounded length.  Any margin from 0 to 1e-3 gives the same mean and
# largest iteration counts, and the same unconverged count, on the square
# and 3-D test layouts at sigma = 1, 3 and 10 m; 1e-1 leaves fixes at the
# iteration limit again.
_PD_MARGIN = 1e-6

# Iteration limit of a fix's solve.
MAX_ITERS = 50

# Gradient norm of the weight-normalized cost below which a fix is
# stationary whatever its predicted decrease.
_GRADIENT_TOL = 1e-9


@dataclass(frozen=True)
class Anchor:
    """Reference node with known position, within ``MAX_COORDINATE_M`` per coordinate."""

    position: Vec3

    def __post_init__(self) -> None:
        check_coordinates("anchor", self.position)


@dataclass(frozen=True)
class PositionEstimate:
    position: Vec3
    iterations: int
    converged: bool


def coordinates(points: Sequence[Vec3], dim: int) -> np.ndarray:
    """The (len(points), dim) array of the points' first ``dim`` coordinates."""
    if not isinstance(dim, (int, np.integer)) or dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    return np.array([[p.x, p.y, p.z][:dim] for p in points]).reshape(-1, dim)


def _anchor_matrix(measurements: Sequence[tuple[RangeMeasurement, Anchor]],
                   dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    positions = coordinates([a.position for _, a in measurements], dim)
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
                init: Vec3 | None = None, dim: int = 2) -> PositionEstimate:
    """One fix by ``solve_fixes``, which states the solver's rules: the
    measurements' distances and anchors, weighted by 1/sigma_i^2, started at
    ``init`` (default the closed-form linear start)."""
    anchors, dists, sigmas = _anchor_matrix(measurements, dim)
    if np.any(~np.isfinite(sigmas)) or np.any(sigmas <= 0):
        raise ValueError("measurement sigmas must be positive and finite")
    start = None if init is None else coordinates([init], dim)
    x, iterations, converged = solve_fixes(anchors, dists[None, :], 1.0 / sigmas ** 2, start)
    return PositionEstimate(position=Vec3(*x[0], *[0.0] * (3 - dim)),
                            iterations=int(iterations[0]), converged=bool(converged[0]))


# The solver below keeps the fix axis innermost: iterates are (dim, n),
# ranges and residuals (A, n), Jacobians (dim, A, n).  Sums over anchors
# and coordinates run in a fixed order (row after row of the leading axis),
# so a fix's result does not depend on how many fixes share the arrays.
# A symmetric dim x dim matrix per fix is held as its unique entries, one
# (n,) array each, in the order of _PAIRS.

_PAIRS = {2: ((0, 0), (0, 1), (1, 1)),
          3: ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))}


def _anchor_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the anchor axis of an (A, n) or (dim, A, n) array, anchor by
    anchor (A >= 2)."""
    first, second, *rest = values.swapaxes(0, -2)
    total = first + second
    for row in rest:
        total += row
    return total


def _residuals(x: np.ndarray, anchor_cols: np.ndarray,
               dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Range residuals and ranges (A, n) of iterates x (dim, n); anchor_cols
    is the (dim, A, 1) anchor array."""
    ranges = np.sqrt(sum((coord - anchor_coord) ** 2
                         for coord, anchor_coord in zip(x, anchor_cols)))
    return dists - ranges, ranges


def _gradient(x: np.ndarray, ranges: np.ndarray, wres: np.ndarray,
              anchor_cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Range Jacobians (dim, A, n), half cost gradients (dim, n) and cost
    gradient norms (n,)."""
    jac = -(x[:, None, :] - anchor_cols) / ranges
    half = _anchor_sum(jac * wres)
    grad = 2.0 * half
    return jac, half, np.sqrt(sum(grad * grad))


def _normal_and_hessian(jac: np.ndarray, res: np.ndarray, ranges: np.ndarray,
                        dists: np.ndarray, weights: np.ndarray
                        ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Unique entries of the Gauss-Newton normal matrices N and half
    Hessians H of the weighted cost, from the range Jacobians (dim, A, n),
    residuals r_i, ranges rho_i, measured distances d_i (A, n) and weights
    w_i (A, 1).

    With u_i the unit vector from anchor i, N = sum_i w_i u_i u_i^T and
    H = sum_i w_i (d_i/rho_i) u_i u_i^T - (sum_i w_i r_i/rho_i) I: the normal
    matrix with each anchor's weight scaled by d_i/rho_i, less a multiple of
    the identity.
    """
    scaled = weights * dists / ranges
    shift = _anchor_sum(weights * res / ranges)
    normal, hessian = [], []
    for a, b in _PAIRS[len(jac)]:
        outer = jac[a] * jac[b]
        normal.append(_anchor_sum(weights * outer))
        entry = _anchor_sum(scaled * outer)
        hessian.append(entry - shift if a == b else entry)
    return normal, hessian


def _dim(entries: Sequence[np.ndarray]) -> int:
    """Size of the symmetric matrices given by these unique entries."""
    return 2 if len(entries) == 3 else 3


def _trace(entries: Sequence[np.ndarray]) -> np.ndarray:
    """Traces of symmetric matrices given by their unique entries."""
    return sum(entries[i] for i, (a, b) in enumerate(_PAIRS[_dim(entries)]) if a == b)


def _leading_minors(entries: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Leading principal minors k = 1..dim of symmetric matrices given by
    their unique entries, by cofactor expansion: no division."""
    if _dim(entries) == 2:
        a, b, c = entries
        return [a, a * c - b * b]
    a, b, c, d, e, f = entries
    return [a, a * d - b * b, a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)]


def _symmetric(entries: Sequence[np.ndarray]) -> np.ndarray:
    """The (n, dim, dim) matrices of unique entries."""
    dim = _dim(entries)
    full = np.empty((len(entries[0]), dim, dim))
    for (a, b), entry in zip(_PAIRS[dim], entries):
        full[:, a, b] = full[:, b, a] = entry
    return full


def _choose_system(normal: Sequence[np.ndarray], hessian: Sequence[np.ndarray]
                   ) -> tuple[np.ndarray, Sequence[np.ndarray], np.ndarray]:
    """Per fix, whether its half Hessian H passes Sylvester's criterion,
    every leading minor k above _PD_MARGIN * trace(N)^k; the system it
    solves, H where it does and the normal matrix N elsewhere, as unique
    entries; and that system's determinant."""
    scale = _trace(normal)
    minors = _leading_minors(hessian)
    definite = np.logical_and.reduce([minor > _PD_MARGIN * scale ** k
                                      for k, minor in enumerate(minors, 1)])
    if definite.all():
        return definite, hessian, minors[-1]
    return (definite, [np.where(definite, h, n) for h, n in zip(hessian, normal)],
            np.where(definite, minors[-1], _leading_minors(normal)[-1]))


def _singular(system: Sequence[np.ndarray], det: np.ndarray) -> np.ndarray:
    """Systems whose determinant is not above 1e-15 * trace^dim, pinv's
    default cutoff."""
    return ~(det > 1e-15 * _trace(system) ** _dim(system))


def _lu_solve(system: Sequence[np.ndarray], target: np.ndarray) -> np.ndarray:
    """Solutions (dim, n) of positive definite systems, given by their
    unique entries, by Gaussian elimination written out: LAPACK's LU
    without the row exchanges, which a positive definite system does not
    need."""
    if _dim(system) == 2:
        a, b, c = system
        t1, t2 = target
        l21 = b / a
        x2 = (t2 - l21 * t1) / (c - l21 * b)
        return np.array([(t1 - b * x2) / a, x2])
    a, b, c, d, e, f = system
    t1, t2, t3 = target
    l21, l31 = b / a, c / a
    u22, u23, y2 = d - l21 * b, e - l21 * c, t2 - l21 * t1
    l32 = (e - l31 * b) / u22
    x3 = (t3 - l31 * t1 - l32 * y2) / (f - l31 * c - l32 * u23)
    x2 = (y2 - u23 * x3) / u22
    return np.array([(t1 - b * x2 - c * x3) / a, x2, x3])


def _newton_step(normal: Sequence[np.ndarray], hessian: Sequence[np.ndarray],
                 target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each half Hessian H passes Sylvester's criterion
    (``_choose_system``), and the Newton steps (dim, n) on the exact Hessian
    of the weighted cost: solutions of H s = target, or N s = target where
    H fails the criterion, with target minus half the gradient.

    Each fix's minors and determinant are decided before anything is
    divided: a near-singular system (``_singular``) takes its minimum-norm
    step, so a degenerate fix never raises."""
    definite, system, det = _choose_system(normal, hessian)
    singular = _singular(system, det)
    if not singular.any():
        return definite, _lu_solve(system, target)
    regular = ~singular
    step = np.empty_like(target)
    step[:, regular] = _lu_solve([entry[regular] for entry in system], target[:, regular])
    pinv = np.linalg.pinv(_symmetric([entry[singular] for entry in system]), hermitian=True)
    step[:, singular] = np.sum(pinv * target[:, singular].T[:, None, :], axis=2).T
    return definite, step


def _lowest_eigenvector(hessian: Sequence[np.ndarray]) -> np.ndarray:
    """Unit eigenvectors (dim, n) of the smallest eigenvalue of symmetric
    matrices given by their unique entries, by ``np.linalg.eigh``, each
    signed so that its largest-magnitude component (the first on ties) is
    positive.  The sign eigh returns is LAPACK's choice; on a symmetry line
    of the cost it would pick the side of the escape."""
    vec = np.linalg.eigh(_symmetric(hessian))[1][:, :, 0]
    lead = vec[np.arange(len(vec)), np.argmax(np.abs(vec), axis=1)]
    return np.where(lead[:, None] < 0.0, -vec, vec).T


def _curvature_step(hessian: Sequence[np.ndarray], half_grad: np.ndarray,
                    length: np.ndarray) -> np.ndarray:
    """Steps (dim, n) of the given lengths along the half Hessians' most
    negative curvature, signed not to climb the half gradients: the escape
    from a stationary point that is not a minimum (More & Sorensen, Math.
    Programming 16, 1979)."""
    vec = _lowest_eigenvector(hessian)
    uphill = sum(half_grad * vec) > 0.0
    return np.where(uphill, -length, length) * vec


def _stationary_test(x: np.ndarray, res: np.ndarray, ranges: np.ndarray, dists: np.ndarray,
                     weights: np.ndarray, anchor_cols: np.ndarray
                     ) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Half gradients (dim, n), half Hessians (unique entries), whether each
    passes Sylvester's criterion, the Newton steps (dim, n), and whether
    each fix is stationary: its gradient norm below ``_GRADIENT_TOL``, or
    the quadratic model's predicted decrease -(half gradient . step) no
    larger than the cost's rounding error (``_RESOLUTION``), so that no step
    it could take would show in the cost."""
    jac, half_grad, grad_norm = _gradient(x, ranges, weights * res, anchor_cols)
    normal, hessian = _normal_and_hessian(jac, res, ranges, dists, weights)
    definite, step = _newton_step(normal, hessian, -half_grad)
    abs_res = np.abs(res)
    rounding = _RESOLUTION * _anchor_sum(weights * abs_res * (abs_res + 2.0 * ranges))
    stationary = (grad_norm < _GRADIENT_TOL) | (-sum(half_grad * step) <= rounding)
    return half_grad, hessian, definite, step, stationary


def _shape_error(name: str, value: np.ndarray, expected: object,
                 anchors: np.ndarray) -> ValueError:
    return ValueError(f"{name} has shape {value.shape}, but anchors of shape "
                      f"{anchors.shape} need {expected}")


def solve_fixes(anchors: np.ndarray, distances: np.ndarray,
                weights: np.ndarray | None = None, init: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton fixes of F range sets against one anchor layout, all at
    once: fix f minimizes sum_i w_i (d_fi - ||x - a_i||)^2.

    ``anchors`` is (A, dim) with dim 2 or 3, ``distances`` (F, A),
    ``weights`` (A,) (default uniform) and ``init`` (F, dim) (default the
    closed-form start from squared-range differences).  The weights are
    normalized to unit maximum, so only their ratios matter: the gradient
    tolerance, 1e-9, applies to the normalized cost, and scaling every
    weight by a common factor leaves every iterate unchanged.

    Every fix follows these rules on its own, through masks, so its result
    does not depend on the other fixes.  An iterate within 1e-12 m of an
    anchor is nudged off it.  Each step is a Newton step on the cost's exact
    half Hessian H where H passes Sylvester's criterion, and the
    Gauss-Newton step elsewhere; a near-singular system takes its
    minimum-norm step.  A fix is stationary when its gradient norm is below
    the tolerance, or when the step's predicted decrease is within the
    cost's rounding error.  A stationary fix stops, converged, where H
    passes the criterion; elsewhere (a saddle point) it steps along H's most
    negative curvature instead, as far as the root mean square residual.
    Each step is halved (backtracking, at most 29 times) until the cost
    decreases; a fix whose step cannot lower the cost stops unconverged.
    The pass at ``MAX_ITERS`` steps (the module constant, read when the
    loop runs) only tests, without the nudge: every fix still iterating
    stops there, converged only where it is a minimum.
    Non-convergence is reported, never raised.

    Returns the positions (F, dim), the iteration counts (F,) and the
    converged flags (F,).
    """
    anchors = np.asarray(anchors, dtype=float)
    n_anchor, dim = anchors.shape
    if dim not in _PAIRS:
        raise ValueError("dim must be 2 or 3")
    dists = np.array(distances, dtype=float)
    if dists.ndim != 2 or dists.shape[1] != n_anchor:
        raise _shape_error("distances", dists, f"(F, {n_anchor})", anchors)
    n_fix = len(dists)
    all_dists = dists.T
    if init is None:
        x = _linear_init(anchors, all_dists)
    elif n_anchor < dim:
        raise ValueError(f"need at least {dim} anchors")
    else:
        x = np.array(init, dtype=float)
        if x.shape != (n_fix, dim):
            raise _shape_error("init", x, (n_fix, dim), anchors)
        x = x.T.copy()
    raw_weights = np.ones(n_anchor) if weights is None else np.asarray(weights, dtype=float)
    if raw_weights.shape != (n_anchor,):
        raise _shape_error("weights", raw_weights, (n_anchor,), anchors)
    if np.any(raw_weights <= 0) or not np.all(np.isfinite(raw_weights)):
        raise ValueError("weights must be positive and finite")
    weights = (raw_weights / raw_weights.max())[:, None]
    anchor_cols = anchors.T[:, :, None]

    res, ranges = _residuals(x, anchor_cols, all_dists)
    cost = _anchor_sum(weights * res ** 2)
    positions = np.empty((n_fix, dim))
    converged = np.zeros(n_fix, dtype=bool)
    iterations = np.zeros(n_fix, dtype=int)
    # The loop's arrays hold only the fixes still iterating, fix axis last:
    # column k is fix ids[k], and each has taken `done` steps.  A fix's
    # position and iteration count are written back as it leaves.
    ids, dists, done = np.arange(n_fix), all_dists, 0

    def leave(mask: np.ndarray) -> np.ndarray:
        """Write back the fixes of ``mask`` and drop them from the loop's
        arrays; returns the columns kept."""
        nonlocal ids, x, res, ranges, cost, dists
        gone = np.flatnonzero(mask)
        positions[ids[gone]] = x.take(gone, axis=1).T
        iterations[ids[gone]] = done
        keep = np.flatnonzero(~mask)
        ids, x, res, ranges, cost, dists = (
            array.take(keep, axis=-1) for array in (ids, x, res, ranges, cost, dists))
        return keep

    while ids.size:
        # A zero range makes the Jacobian row undefined; nudge off the anchor.
        # The pass at the iteration limit only tests, its ranges floored.
        last = done >= MAX_ITERS
        if not last and ranges.min() < 1e-12:
            hit = np.flatnonzero((ranges < 1e-12).any(axis=0))
            while hit.size:
                x[:, hit] += 1e-6
                res[:, hit], ranges[:, hit] = _residuals(x[:, hit], anchor_cols, dists[:, hit])
                cost[hit] = _anchor_sum(weights * res[:, hit] ** 2)
                hit = hit[(ranges[:, hit] < 1e-12).any(axis=0)]
        half_grad, hessian, definite, step, stationary = _stationary_test(
            x, res, np.maximum(ranges, 1e-12), dists, weights, anchor_cols)
        minimum = stationary & definite
        if last:
            converged[ids] = minimum
            leave(np.ones(ids.size, dtype=bool))
            break
        # A stationary fix is a minimum where H is positive definite, and
        # leaves converged; elsewhere it is a saddle (or a maximum), and
        # steps along H's most negative curvature instead, as far as the
        # root mean square residual.
        saddle = np.flatnonzero(stationary & ~definite)
        if saddle.size:
            step[:, saddle] = _curvature_step(
                [entry[saddle] for entry in hessian], half_grad[:, saddle],
                np.sqrt(cost[saddle] / weights.sum()))
        if minimum.any():
            converged[ids[minimum]] = True
            keep = leave(minimum)
            if not ids.size:
                break
            step = step.take(keep, axis=1)
        # Backtracking: take the first of scale * step, scale = 1, 1/2, ...,
        # 2^-29, that lowers the cost.  Every fix tries the full step, in
        # place; those it did not lower (`pending`) then try one halving per
        # pass, on their own gathered columns.
        trial = x + step
        trial_res, trial_ranges = _residuals(trial, anchor_cols, dists)
        trial_cost = _anchor_sum(weights * trial_res ** 2)
        lowered = trial_cost < cost
        for array, new in ((x, trial), (res, trial_res), (ranges, trial_ranges),
                           (cost, trial_cost)):
            np.copyto(array, new, where=lowered)
        pending = np.flatnonzero(~lowered)
        for scale in _STEP_SCALES[1:]:
            if not pending.size:
                break
            trial = x.take(pending, axis=1) + scale * step.take(pending, axis=1)
            trial_res, trial_ranges = _residuals(trial, anchor_cols, dists.take(pending, axis=1))
            trial_cost = _anchor_sum(weights * trial_res ** 2)
            found = trial_cost < cost[pending]
            lowered = pending[found]
            x[:, lowered], res[:, lowered], ranges[:, lowered], cost[lowered] = (
                trial[:, found], trial_res[:, found], trial_ranges[:, found], trial_cost[found])
            pending = pending[~found]
        done += 1
        if pending.size:
            # Backtracking found no lower cost although the model predicts
            # a resolvable decrease, or a saddle's curvature step found none:
            # the fix stalls unconverged.
            stalled = np.zeros(ids.size, dtype=bool)
            stalled[pending] = True
            leave(stalled)
    return positions, iterations, converged


def range_position_crb(anchors: Sequence[Anchor], point: Vec3, sigmas: Sequence[float],
                       dim: int = 2) -> float:
    """Root of the trace of the inverse range-only position FIM (meters).

    The FIM is sum_i (1/sigma_i^2) u_i u_i^T with u_i the unit vector from
    anchor i to the evaluation point.  ``sigmas`` holds one positive, finite
    value per anchor.
    """
    p = coordinates([point], dim)[0]
    values = np.asarray(sigmas, dtype=float)
    if values.shape != (len(anchors),) or not np.all((values > 0) & np.isfinite(values)):
        raise ValueError("sigmas must hold one positive, finite value per anchor "
                         f"({len(anchors)} anchors), got {list(sigmas)}")
    info = np.zeros((dim, dim))
    for a, sigma in zip(coordinates([anchor.position for anchor in anchors], dim), values):
        u = p - a
        norm = np.linalg.norm(u)
        if norm == 0:
            raise ValueError("evaluation point coincides with an anchor")
        u = u / norm
        info += np.outer(u, u) / sigma ** 2
    return float(math.sqrt(np.trace(np.linalg.inv(info))))
