"""Reference Newton step for the positioning tests.

``stacked_normal_and_hessian`` and ``lapack_newton_step`` are
``slpos.positioning``'s normal matrices, half Hessians and Newton step as
they were first written: full (n, dim, dim) matrices from a
(dim, dim, A, n) outer product of the Jacobians, Sylvester's criterion and
the singularity test on ``np.linalg.det``, and the step from
``np.linalg.solve``, or from ``np.linalg.pinv`` for a near-singular system.
The solver's unique matrix entries must equal the stacked matrices bit for
bit; its closed-form step must agree with the LAPACK one to rounding.
"""

import numpy as np

from slpos.positioning import _PD_MARGIN, _anchor_sum


def stacked_normal_and_hessian(jac, res, ranges, dists, weights):
    """Gauss-Newton normal matrices N and half Hessians H (n, dim, dim)
    from the range Jacobians (dim, A, n), residuals, ranges, measured
    distances (A, n) and weights (A, 1)."""
    outer = jac[:, None] * jac[None]
    normal = _anchor_sum(weights * outer).transpose(2, 0, 1)
    hessian = (_anchor_sum(weights * dists / ranges * outer).transpose(2, 0, 1)
               - _anchor_sum(weights * res / ranges)[:, None, None] * np.eye(len(jac)))
    return normal, hessian


def lapack_branches(normal, hessian):
    """Per system: whether H passes Sylvester's criterion, every leading
    minor k above _PD_MARGIN * trace(N)^k; the system solved (H where it
    does, else N); and whether that system is near-singular, its
    determinant not above 1e-15 * trace^dim."""
    dim = normal.shape[-1]
    scale = np.trace(normal, axis1=1, axis2=2)
    definite = np.all([np.linalg.det(hessian[:, :k, :k]) > _PD_MARGIN * scale ** k
                       for k in range(1, dim + 1)], axis=0)
    system = np.where(definite[:, None, None], hessian, normal)
    singular = ~(np.linalg.det(system) > 1e-15 * np.trace(system, axis1=1, axis2=2) ** dim)
    return definite, system, singular


def lapack_newton_step(normal, hessian, target):
    """Steps (n, dim) solving the system ``lapack_branches`` picks for the
    right-hand sides target (n, dim): ``np.linalg.solve``, or the
    minimum-norm ``pinv`` step where the system is near-singular."""
    _, system, singular = lapack_branches(normal, hessian)
    step = np.empty_like(target)
    step[~singular] = np.linalg.solve(system[~singular], target[~singular, :, None])[..., 0]
    if np.any(singular):
        pinv = np.linalg.pinv(system[singular], hermitian=True)
        step[singular] = np.sum(pinv * target[singular, None, :], axis=2)
    return step
