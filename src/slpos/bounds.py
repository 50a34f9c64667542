"""Fisher information engine and the three range-error bounds.

For the multipath OFDM observation the noiseless mean of sample (t, n) is

    mu_{t,n} = sum_l gain_l * s_{t,n} * exp(-j 2 pi n delay_l spacing)

parameterized per path by (delay, Re gain, Im gain).  The Fisher information
matrix is J = (2 / N0) Re{G^H G} with G the stacked analytic gradient of mu
over all samples.  Three meter-domain range error bounds (REBs) follow:

* line-of-sight only: information from the first path alone, all other
  paths assumed perfectly known;
* all paths in the resolution cell: nuisance gains and delays of every
  unresolvable path are estimated jointly, which can make J near-singular
  (reported as an infinite bound);
* weighted-average approximation: the unresolvable paths are merged into a
  single effective path whose time of arrival is the amplitude-weighted
  average, and the resulting merging bias is added to the variance bound.

Doppler rotations are treated as known constants and do not appear in the
parameterization.

The line-of-sight and weighted-average bounds, and the all-paths bound of a
one-path cell, each concern a single path.  Its delay bound does not depend
on its delay and takes a closed form in the pilot moments
(``_single_path_crb``); only cells of two or more paths build the FIM and
invert it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .propagation import ChannelSnapshot, PathComponent, PathKind
from .signal import OfdmConfig, PilotGrid, noise_variance
from .workarrays import work_array

# Condition number (of the diagonally equilibrated FIM) above which the
# matrix is treated as rank-deficient and the bound reported infinite.
_CONDITION_CUTOFF = 1e12

# Resolution-cell width factor, bounded to (1, 2).
DEFAULT_BETA = 1.5

# |merged gain| below this fraction of the largest in-cell amplitude means
# the cell interferes destructively and the effective path carries no power.
_DESTRUCTIVE_GAIN_FRACTION = 1e-12


def fim(paths: list[PathComponent] | tuple[PathComponent, ...], pilots: PilotGrid,
        config: OfdmConfig) -> np.ndarray:
    """Fisher information matrix for (delay, Re gain, Im gain) per path.

    Returns the symmetric 3L x 3L matrix (2 / N0) Re{G^H G}; parameter
    order is path-major with the delay of interest at index 0.  Analytic
    gradient columns per path:

        d mu / d delay   = gain * (-j 2 pi n spacing) * s * ramp
        d mu / d Re gain = s * ramp
        d mu / d Im gain = j * s * ramp

    The gradient and its conjugate go to this thread's work arrays
    (``work_array``), reused from call to call.
    """
    if not paths:
        raise ValueError("FIM requires at least one path")
    n0 = noise_variance(config)
    symbols = pilots.symbols
    n_sym, n_sub = symbols.shape
    n = np.arange(n_sub)
    # (-j 2 pi spacing n) s, the delay gradient of every path before its ramp.
    slope = (-2j * np.pi * config.subcarrier_spacing * n)[None, :] * symbols
    shape = (n_sym * n_sub, 3 * len(paths))
    grad = work_array(("fim_grad",), shape, complex)
    for i, path in enumerate(paths):
        ramp = np.exp(-2j * np.pi * n * path.delay * config.subcarrier_spacing)[None, :]
        base = (symbols * ramp).ravel()
        grad[:, 3 * i] = path.gain * (slope * ramp).ravel()
        grad[:, 3 * i + 1] = base
        grad[:, 3 * i + 2] = 1j * base
    conj = np.conjugate(grad, out=work_array(("fim_conj",), shape, complex))
    j = (2.0 / n0) * (conj.T @ grad).real
    return 0.5 * (j + j.T)


def crb_delay(j: np.ndarray) -> float:
    """[J^-1]_{0,0}: delay-variance bound for the parameter at index 0.

    Inversion goes through an eigendecomposition of the diagonally
    equilibrated matrix; equilibration keeps the conditioning check about
    path geometry rather than the disparate units of delay and gain
    entries.  Returns +inf when the equilibrated condition number exceeds
    ``_CONDITION_CUTOFF`` (near rank deficiency from unresolvable paths).
    """
    j = np.asarray(j, dtype=float)
    if j.ndim != 2 or j.shape[0] != j.shape[1]:
        raise ValueError("FIM must be square")
    diag = np.diag(j)
    if np.any(diag <= 0):
        return math.inf
    scale = 1.0 / np.sqrt(diag)
    balanced = scale[:, None] * j * scale[None, :]
    eigvals, eigvecs = np.linalg.eigh(balanced)
    if eigvals[0] <= 0 or eigvals[-1] / eigvals[0] > _CONDITION_CUTOFF:
        return math.inf
    inv00 = float(np.sum(eigvecs[0, :] ** 2 / eigvals))
    return scale[0] ** 2 * inv00


def resolution_cell(channel: ChannelSnapshot, beta: float, config: OfdmConfig) -> list[int]:
    """Indices of paths within beta/(N_s * spacing) of the line-of-sight delay.

    Paths inside this window cannot be separated by bandwidth alone; the
    line-of-sight path (index 0) is always a member.
    """
    if not channel.has_los:
        raise ValueError("channel has no line-of-sight path")
    if not 1.0 < beta < 2.0:
        raise ValueError(f"beta must lie in (1, 2), got {beta}")
    half_width = beta / (config.num_subcarriers * config.subcarrier_spacing)
    toa = channel.paths[0].delay
    return [i for i, p in enumerate(channel.paths) if abs(p.delay - toa) <= half_width]


@dataclass(frozen=True)
class BoundReport:
    """The three range error bounds plus the merged-path intermediates.

    ``weights`` follow ``cell_indices`` order and sum to one; ``waa_bias_m``
    is the speed of light times the gap between the true and merged times
    of arrival.  ``destructive_interference`` marks cells whose gains sum
    to (numerically) zero, where the merged-path bound is infinite.
    """

    reb_los_only: float
    reb_all_paths: float
    reb_waa: float
    merged_toa: float
    waa_bias_m: float
    cell_indices: tuple[int, ...]
    weights: tuple[float, ...]
    merged_gain: complex
    destructive_interference: bool = False


def _single_path_crb(gain: complex, pilots: PilotGrid, config: OfdmConfig) -> float:
    """``crb_delay(fim([path], pilots, config))`` in closed form, for a lone
    path of gain ``gain`` at any delay.

    With pilot moments P_k = sum_{t,n} |s_{t,n}|^2 n^k, the delay's Fisher
    information is (2 / N0) |g|^2 (2 pi spacing)^2 P2, its correlation with
    the gain rho = P1 / sqrt(P0 P2), and the variance bound

        N0 / (2 |g|^2 (2 pi spacing)^2 (P2 - P1^2 / P0)).

    The equilibrated FIM has eigenvalues 1 and 1 +- rho, so as in
    ``crb_delay`` the bound is inf when (1 + rho) / (1 - rho) exceeds
    ``_CONDITION_CUTOFF`` or the information is not positive.
    """
    p0, p1, p2 = pilots.moments
    amplitude = abs(gain)
    if not (p0 > 0 and p2 > 0 and amplitude > 0):
        return math.inf
    rho = p1 / math.sqrt(p0 * p2)
    if not rho < 1.0 or (1.0 + rho) / (1.0 - rho) > _CONDITION_CUTOFF:
        return math.inf
    ramp = 2.0 * math.pi * config.subcarrier_spacing
    unit_info = (2.0 / noise_variance(config)) * (ramp * ramp) * (p2 - p1 * p1 / p0)
    # Dividing by the amplitude twice keeps a tiny gain's |g|^2 from
    # underflowing; a subnormal one overflows the bound to inf.
    return 1.0 / unit_info / amplitude / amplitude


def _reb(paths: list[PathComponent] | tuple[PathComponent, ...], pilots: PilotGrid,
         config: OfdmConfig, bias_s: float = 0.0) -> float:
    """c * sqrt(delay CRB of ``paths[0]`` + ``bias_s``^2) in meters, or inf
    when the joint FIM of ``paths`` is near-singular.  A lone path takes the
    closed form; several go through ``fim`` and ``crb_delay``."""
    if len(paths) == 1:
        variance = _single_path_crb(paths[0].gain, pilots, config)
    else:
        variance = crb_delay(fim(paths, pilots, config))
    if not math.isfinite(variance):
        return math.inf
    return SPEED_OF_LIGHT * math.sqrt(variance + bias_s ** 2)


def reb_los_only(channel: ChannelSnapshot, pilots: PilotGrid, config: OfdmConfig) -> float:
    """Range error bound with every other path perfectly known (meters)."""
    if not channel.has_los:
        raise ValueError("channel has no line-of-sight path")
    return _reb(channel.paths[:1], pilots, config)


def reb_all_paths(channel: ChannelSnapshot, pilots: PilotGrid, config: OfdmConfig,
                  beta: float = DEFAULT_BETA) -> float:
    """Range error bound estimating all in-cell paths jointly (meters or inf).

    Paths outside the resolution cell do not affect the accuracy of the
    line-of-sight delay and are removed to tighten the bound.
    """
    cell = resolution_cell(channel, beta, config)
    return _reb([channel.paths[i] for i in cell], pilots, config)


def reb_waa(channel: ChannelSnapshot, pilots: PilotGrid, config: OfdmConfig,
            beta: float = DEFAULT_BETA) -> BoundReport:
    """Weighted-average approximation of the achievable ranging error.

    The in-cell paths merge into one effective path: weights are the
    normalized gain magnitudes, the merged time of arrival is the weighted
    average of the in-cell delays, and the merged gain is the complex sum.
    The reported value is c * sqrt(delay CRB of the effective path plus the
    squared merging bias).  With a single-path cell the weights collapse to
    one and the value reverts to the line-of-sight-only bound.
    """
    cell = resolution_cell(channel, beta, config)
    cell_paths = [channel.paths[i] for i in cell]
    amps = np.array([abs(p.gain) for p in cell_paths])
    weights = amps / amps.sum()
    delays = np.array([p.delay for p in cell_paths])
    merged_toa = float(weights @ delays)
    merged_gain = complex(sum(p.gain for p in cell_paths))
    bias_s = cell_paths[0].delay - merged_toa

    # The cell always starts with the line-of-sight path.
    los_value = _reb(cell_paths[:1], pilots, config)
    all_value = _reb(cell_paths, pilots, config)

    destructive = abs(merged_gain) < _DESTRUCTIVE_GAIN_FRACTION * amps.max()
    if destructive:
        waa_value = math.inf
    else:
        effective = PathComponent(delay=merged_toa, gain=merged_gain,
                                  radial_velocity=0.0, kind=PathKind.LOS)
        waa_value = _reb([effective], pilots, config, bias_s)

    return BoundReport(
        reb_los_only=los_value,
        reb_all_paths=all_value,
        reb_waa=waa_value,
        merged_toa=merged_toa,
        waa_bias_m=SPEED_OF_LIGHT * abs(bias_s),
        cell_indices=tuple(cell),
        weights=tuple(float(w) for w in weights),
        merged_gain=merged_gain,
        destructive_interference=destructive,
    )
