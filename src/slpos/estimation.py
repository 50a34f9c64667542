"""Delay-spectrum time-of-arrival estimation and round-trip ranging.

The delay spectrum is the squared magnitude of the zero-padded IDFT of the
windowed, pilot-compensated received symbols accumulated over the pilot
block; peaks indicate path delays.  The zero-padded IDFT is evaluated in
polyphase form, as ``oversample`` IDFTs of length N_s.  A two-way exchange
cancels the unknown clock bias between unsynchronized devices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .signal import OfdmConfig, PilotGrid, RxSymbols


PEAK_POLICIES = ("global_peak", "first_peak")


def hamming_window(n: int) -> np.ndarray:
    """Symmetric Hamming window, 0.54 - 0.46 cos(2 pi k / (n - 1))."""
    if n < 2:
        raise ValueError("window needs at least 2 points")
    return np.hamming(n)


def rectangular_window(n: int) -> np.ndarray:
    """Identity weighting (no side-lobe suppression)."""
    if n < 2:
        raise ValueError("window needs at least 2 points")
    return np.ones(n)


@dataclass(frozen=True)
class DelaySpectrum:
    """Oversampled delay-power profile.

    ``power`` has length K = oversample * N_s along its last axis and
    nonnegative entries; a batch of spectra stacks them as ... x K.
    ``bin_spacing`` is 1 / (K * subcarrier_spacing) seconds.
    """

    power: np.ndarray
    bin_spacing: float


@dataclass(frozen=True)
class ToaEstimate:
    toa: float
    interpolated: bool


@dataclass(frozen=True)
class RangeMeasurement:
    """Round-trip-derived distance with its standard deviation."""

    distance: float
    sigma: float

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise ValueError("distance must be nonnegative")
        if math.isfinite(self.sigma) and not self.sigma > 0:
            raise ValueError("sigma must be positive")


@functools.lru_cache(maxsize=None)
def _polyphase_twiddles(n_sub: int, oversample: int) -> np.ndarray:
    """oversample x n_sub matrix exp(2j pi n r / K), K = oversample * n_sub."""
    r = np.arange(oversample)[:, None]
    n = np.arange(n_sub)[None, :]
    twiddles = np.exp(2j * np.pi * (r * n) / (oversample * n_sub))
    twiddles.flags.writeable = False
    return twiddles


def delay_spectrum(rx: RxSymbols, pilots: PilotGrid, config: OfdmConfig,
                   window: np.ndarray | None = None, oversample: int = 16) -> DelaySpectrum:
    """Accumulate window * (rx / pilots) over symbols, zero-pad, |IDFT|^2.

    ``rx.symbols`` is one T x N_s grid or a stack ... x T x N_s, and the
    power has shape ... x K with K = oversample * N_s.  The length-K IDFT
    of the zero-padded vector c is taken in polyphase form: bin
    q * oversample + r equals 1/oversample times the length-N_s IDFT of
    c[n] * exp(2j pi n r / K), at bin q.  This is exact and avoids a long
    transform whose length has a large prime factor.  Only peak locations
    and power ratios are consumed downstream, so the fixed 1/K IDFT
    normalization is immaterial.  Pilot entries must be nonzero
    (element-wise division removes them exactly).
    """
    if oversample < 1:
        raise ValueError("oversample factor must be >= 1")
    if np.any(pilots.symbols == 0):
        raise ValueError("pilot grid contains zero entries")
    n_sub = config.num_subcarriers
    w = hamming_window(n_sub) if window is None else np.asarray(window, dtype=float)
    if w.shape != (n_sub,):
        raise ValueError("window length must equal the subcarrier count")
    compensated = rx.symbols / pilots.symbols
    compensated *= w
    compensated = compensated.sum(axis=-2)
    phases = compensated[..., None, :] * _polyphase_twiddles(n_sub, oversample)
    power = np.abs(np.fft.ifft(phases, out=phases))
    power **= 2
    power /= oversample ** 2
    k = oversample * n_sub
    power = np.swapaxes(power, -1, -2).reshape(compensated.shape[:-1] + (k,))
    return DelaySpectrum(power=power, bin_spacing=1.0 / (k * config.subcarrier_spacing))


def _local_maxima(power: np.ndarray) -> np.ndarray:
    left = np.roll(power, 1)
    right = np.roll(power, -1)
    return np.flatnonzero((power > left) & (power >= right))


def estimate_toa(spectrum: DelaySpectrum, policy: str = "global_peak",
                 threshold_db: float = 6.0) -> ToaEstimate:
    """Pick a spectrum peak and refine it by parabolic log-power interpolation.

    ``global_peak`` takes the strongest bin; ``first_peak`` takes the
    earliest local maximum within ``threshold_db`` of the strongest.  The
    refined time of arrival is reduced to [0, 1/subcarrier_spacing).
    """
    power = spectrum.power
    k_bins = len(power)
    peak_value = power.max()
    if not peak_value > 0:
        raise ValueError("degenerate (all-zero) delay spectrum")

    if policy == "global_peak":
        peak = int(np.argmax(power))
    elif policy == "first_peak":
        candidates = _local_maxima(power)
        candidates = candidates[power[candidates] >= peak_value * 10 ** (-threshold_db / 10.0)]
        peak = int(candidates[0]) if len(candidates) else int(np.argmax(power))
    else:
        raise ValueError(f"unknown peak policy {policy!r}")

    neighbors = power[[(peak - 1) % k_bins, peak, (peak + 1) % k_bins]]
    interpolated = False
    offset = 0.0
    if np.all(neighbors > 0):
        logs = np.log(neighbors)
        denom = logs[0] - 2.0 * logs[1] + logs[2]
        if denom < 0:
            offset = float(np.clip(0.5 * (logs[0] - logs[2]) / denom, -0.5, 0.5))
            interpolated = True
    toa = ((peak + offset) % k_bins) * spectrum.bin_spacing
    return ToaEstimate(toa=toa, interpolated=interpolated)


def low_confidence(spectrum: DelaySpectrum) -> bool:
    """Peak less than 10 dB above the median bin: likely noise-only."""
    return spectrum.power.max() < 10.0 * float(np.median(spectrum.power))


def rtt_range(toa_fwd: float, toa_rev: float, processing_time: float = 0.0, *,
              one_way_toa_var: float | None = None,
              period: float | None = None) -> RangeMeasurement:
    """Combine a two-way exchange into a distance.

    distance = c * (toa_fwd + toa_rev - processing_time) / 2; a clock bias
    entering +B on the forward and -B on the reverse arrival cancels
    exactly.  Arrivals read off a delay spectrum are only known modulo its
    alias period 1/subcarrier_spacing; pass that as ``period`` and the
    round trip is reduced modulo it, which cancels a bias of any size as
    long as the true round trip is shorter than one period.  The standard
    deviation follows from doubling the one-way time-of-arrival variance
    (two noisy arrivals combine) before the /2 distance conversion:
    sigma = (c / 2) * sqrt(2 * one_way_toa_var).
    """
    total = toa_fwd + toa_rev - processing_time
    if period is not None:
        total %= period
    elif total <= 0:
        raise ValueError("round trip shorter than the processing time")
    dist = SPEED_OF_LIGHT * total / 2.0
    if one_way_toa_var is None:
        sigma = math.nan
    else:
        sigma = 0.5 * SPEED_OF_LIGHT * math.sqrt(2.0 * one_way_toa_var)
    return RangeMeasurement(distance=dist, sigma=sigma)
