"""Delay-spectrum time-of-arrival estimation and round-trip ranging.

The delay spectrum is the squared magnitude of the zero-padded IDFT of the
windowed, pilot-compensated received symbols accumulated over the pilot
block; peaks indicate path delays.  A two-way exchange cancels the unknown
clock bias between unsynchronized devices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .signal import OfdmConfig, PilotGrid, RxSymbols, hamming_window
from .workarrays import work_array


PEAK_POLICIES = ("global_peak", "first_peak")


@dataclass(frozen=True)
class DelaySpectrum:
    """Oversampled delay-power profile.

    ``power`` has length K = oversample * N_s and nonnegative entries.
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


def _idft_power(c: np.ndarray, length: int) -> np.ndarray:
    """|IDFT|^2 of the rows of B x N_s ``c`` zero-padded to ``length`` points: a
    view of this thread's work arrays, which the next call overwrites."""
    n_rows, n_sub = c.shape
    # Columns N_s.. of the padded rows are never written, so they stay zero.
    padded = work_array(("idft_padded", n_sub, length), (n_rows, length), complex)
    padded[:, :n_sub] = c
    values = np.fft.ifft(padded, axis=-1,
                         out=work_array(("idft_values",), (n_rows, length), complex))
    re, im = values.real, values.imag
    power = np.multiply(re, re, out=work_array(("idft_power",), (n_rows, length)))
    power += np.multiply(im, im, out=re)
    return power


def delay_spectrum(rx: RxSymbols, pilots: PilotGrid, config: OfdmConfig,
                   window: np.ndarray | None = None, oversample: int = 16) -> DelaySpectrum:
    """Accumulate window * (rx / pilots) over symbols, zero-pad, |IDFT|^2.

    ``rx.symbols`` is one T x N_s grid, and the power has length
    K = oversample * N_s.  Only peak locations and power ratios are
    consumed downstream, so the fixed 1/K IDFT normalization is immaterial.
    Pilot entries must be nonzero (element-wise division removes them
    exactly).
    """
    if oversample < 1:
        raise ValueError("oversample factor must be >= 1")
    if np.any(pilots.symbols == 0):
        raise ValueError("pilot grid contains zero entries")
    if rx.symbols.shape != pilots.symbols.shape:
        raise ValueError("received symbols must be one T x N_s grid, the pilots' shape")
    n_sub = config.num_subcarriers
    w = hamming_window(n_sub) if window is None else np.asarray(window, dtype=float)
    if w.shape != (n_sub,):
        raise ValueError("window length must equal the subcarrier count")
    compensated = rx.symbols / pilots.symbols
    compensated *= w
    k = oversample * n_sub
    power = _idft_power(compensated.sum(axis=0)[None, :], k)[0].copy()
    return DelaySpectrum(power=power, bin_spacing=1.0 / (k * config.subcarrier_spacing))


def _pick(power: np.ndarray, interior: np.ndarray, bins: np.ndarray, k_bins: int,
          policy: str, threshold_db: float) -> tuple[np.ndarray, np.ndarray]:
    """Peak column of each row of B x W ``power`` (bins ``bins`` of K-bin
    spectra) among its ``interior`` ones, and its level: the strongest's
    power, ``threshold_db`` below it for ``first_peak``, which takes the
    local maximum at or above it with the lowest bin, else the strongest."""
    if policy not in PEAK_POLICIES:
        raise ValueError(f"unknown peak policy {policy!r}")
    rows = np.arange(len(power))
    pick = np.where(interior, power, -1.0).argmax(axis=1)
    level = power[rows, pick] * 10 ** (-(threshold_db if policy == "first_peak" else 0.0) / 10.0)
    if policy == "first_peak":
        inner = power[:, 1:-1]
        is_peak = (interior[:, 1:-1] & (inner > power[:, :-2]) & (inner >= power[:, 2:])
                   & (inner >= level[:, None]))
        first_bin = np.where(is_peak, bins[:, 1:-1], k_bins)
        first = first_bin.argmin(axis=1)
        pick = np.where(first_bin[rows, first] < k_bins, first + 1, pick)
    return pick, level


def _full_pick(power: np.ndarray, policy: str,
               threshold_db: float) -> tuple[np.ndarray, np.ndarray]:
    """``_pick`` on whole B x K spectra, each wrapped round as bins K - 1,
    0..K - 1, 0 so that every bin is interior: each row's peak bin and the
    3 x B power one bin before, at and one bin after it."""
    k_bins = power.shape[-1]
    wrapped = np.concatenate((power[:, -1:], power, power[:, :1]), axis=1)
    bins = np.arange(-1, k_bins + 1)[None]
    pick, _ = _pick(wrapped, (bins >= 0) & (bins < k_bins), bins, k_bins, policy, threshold_db)
    neighbors = wrapped[np.arange(len(power)), pick + np.array([[-1], [0], [1]])]
    if not (neighbors[1] > 0).all():
        raise ValueError("degenerate (all-zero) delay spectrum")
    return pick - 1, neighbors


def _refine(peak: np.ndarray, neighbors: np.ndarray, k_bins: int,
            bin_spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Each peak's time of arrival: bin ``peak`` of K plus a parabolic sub-bin offset.

    ``neighbors`` is 3 x ... : the power one bin before, at and one bin after
    each peak.  The offset is clipped to [-0.5, 0.5]; a peak with a
    nonpositive neighbour or a log power that is not concave keeps offset 0
    and reports ``interpolated`` False.
    """
    positive = np.all(neighbors > 0, axis=0)
    logs = np.log(np.where(positive, neighbors, 1.0))
    denom = logs[0] - 2.0 * logs[1] + logs[2]
    interpolated = positive & (denom < 0)
    offset = np.divide(0.5 * (logs[0] - logs[2]), denom, out=np.zeros_like(denom),
                       where=interpolated)
    return ((peak + np.clip(offset, -0.5, 0.5)) % k_bins) * bin_spacing, interpolated


def estimate_toa(spectrum: DelaySpectrum, policy: str = "global_peak",
                 threshold_db: float = 6.0) -> ToaEstimate:
    """Pick a spectrum peak and refine it by parabolic log-power interpolation.

    ``global_peak`` takes the strongest bin; ``first_peak`` takes the
    earliest circular local maximum within ``threshold_db`` of the strongest.  The
    refined time of arrival is reduced to [0, 1/subcarrier_spacing).
    """
    peak, neighbors = _full_pick(spectrum.power[None], policy, threshold_db)
    toa, interpolated = _refine(peak, neighbors, len(spectrum.power), spectrum.bin_spacing)
    return ToaEstimate(toa=float(toa[0]), interpolated=bool(interpolated[0]))


# Coarse search: a zero-padded IDFT at about this many points per DFT bin of
# c, rounded up to a power of two (512 for 167 subcarriers).
_COARSE_OVERSAMPLE = 3
# A fine bin lies within half a coarse bin of a coarse sample, which may be
# this much weaker; every coarse sample within the margin of the coarse
# maximum (below the first-peak threshold, for that policy) is zoomed on.
# A single Hamming-windowed path loses at most 0.2 dB at 512 coarse points.
_SCALLOP_MARGIN_DB = 3.0
# A row whose zoom window is wider than this many fine bins (a spectrum
# near its noise floor, or a large first-peak threshold) is cheaper to
# transform in full; it also sizes the cached DTFT kernel (684 kB for 167
# subcarriers).
_MAX_ZOOM_BINS = 256


def _coarse_length(n_sub: int, oversample: int) -> int:
    """Length of the coarse IDFT: a power of two, capped at K."""
    return min(oversample * n_sub, 1 << math.ceil(math.log2(_COARSE_OVERSAMPLE * n_sub)))


def _zoom_half_width(n_sub: int, oversample: int) -> int:
    """Fine bins zoomed beyond the first and last coarse candidate: one
    coarse bin plus two, so every fine bin within half a coarse bin of a
    candidate is interior to the window with both neighbours inside it
    (8 bins at 16x oversampling and 512 coarse points)."""
    k_bins = oversample * n_sub
    return math.ceil(k_bins / _coarse_length(n_sub, oversample)) + 2


@functools.lru_cache(maxsize=None)
def _zoom_kernels(n_sub: int, oversample: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit circle exp(2j pi m / K), m < K, and the N_s x _MAX_ZOOM_BINS
    DTFT matrix exp(2j pi n d / K), d = 0.._MAX_ZOOM_BINS - 1, of the zoom."""
    k_bins = oversample * n_sub
    circle = np.exp(2j * np.pi * np.arange(k_bins) / k_bins)
    dtft = circle[np.outer(np.arange(n_sub), np.arange(_MAX_ZOOM_BINS)) % k_bins]
    circle.flags.writeable = False
    dtft.flags.writeable = False
    return circle, dtft


@dataclass(frozen=True)
class ZoomedToas:
    """Times of arrival of a batch of symbol sums, one per row.

    ``peak`` is the chosen bin of the K-bin spectrum and ``fallback`` marks
    the rows whose zoom could not certify its peak, so their peak was
    picked on the full spectrum.
    """

    toa: np.ndarray
    peak: np.ndarray
    fallback: np.ndarray


def coarse_search(c: np.ndarray, oversample: int, policy: str = "global_peak",
                  threshold_db: float = 6.0) -> tuple[np.ndarray, np.ndarray]:
    """Where to zoom in the delay spectrum of each row of ``c``.

    ``c`` is B x N_s: windowed, pilot-compensated symbol sums.  A zero-padded
    IDFT on a coarse grid (``_coarse_length`` points) finds the coarse
    samples within the scalloping margin of the row's coarse maximum (for
    ``first_peak``, within the threshold plus that margin).  Each row's zoom
    window runs, on the K = oversample * N_s bin grid, from the bin nearest
    the candidate with the most negative circular offset from the maximum,
    less ``_zoom_half_width``, to the bin nearest the one with the most
    positive offset, plus it.  Returns (start, width) per row: the window's
    first bin, in [0, K), and its number of bins.
    """
    if policy not in PEAK_POLICIES:
        raise ValueError(f"unknown peak policy {policy!r}")
    n_rows, n_sub = c.shape
    k_bins = oversample * n_sub
    length = _coarse_length(n_sub, oversample)
    power = _idft_power(c, length)
    top = power.argmax(axis=-1)
    peak = power[np.arange(n_rows), top]
    margin_db = _SCALLOP_MARGIN_DB + (threshold_db if policy == "first_peak" else 0.0)
    above = power >= (peak * 10 ** (-margin_db / 10.0))[:, None]
    # The few samples above the margin, by row, and their circular offsets
    # from the row's maximum, in [-L/2, L/2).
    hit_row, hit_col = np.divmod(np.flatnonzero(above), length)
    offset = (hit_col - top[hit_row] + length // 2) % length - length // 2
    lo = np.full(n_rows, length)
    hi = np.full(n_rows, -length)
    np.minimum.at(lo, hit_row, offset)
    np.maximum.at(hi, hit_row, offset)
    half = _zoom_half_width(n_sub, oversample)
    # Nearest fine bin of coarse sample j, round(j K / L), for j of either sign.
    first, last = ((2 * (top + edge) * k_bins + length) // (2 * length) for edge in (lo, hi))
    return (first - half) % k_bins, last - first + 2 * half + 1


def zoom(c: np.ndarray, start: np.ndarray, width: np.ndarray, config: OfdmConfig,
         oversample: int, policy: str = "global_peak",
         threshold_db: float = 6.0) -> ZoomedToas:
    """Pick each row's peak on the exact K-bin grid inside its zoom window.

    ``start`` and ``width`` are as ``coarse_search`` returns them.  The
    window's bins are evaluated by a direct DTFT: one phase shift of the
    row of ``c`` and a matmul against the first columns of a fixed kernel,
    every row padded to the batch's widest window.  The peak is chosen
    among the window's interior bins, whose neighbours are known, as
    ``estimate_toa`` chooses it on the full spectrum, and refined by the
    same parabolic log-power step.  A row whose window cannot certify the
    choice, because an edge bin reaches the pick threshold (the strongest
    interior bin; for ``first_peak``, ``threshold_db`` below it), or whose
    window is wider than ``_MAX_ZOOM_BINS``, has its peak picked on the
    full spectrum instead, all such rows by one ``_full_pick``.
    """
    n_rows, n_sub = c.shape
    k_bins = oversample * n_sub
    circle, dtft = _zoom_kernels(n_sub, oversample)
    crowded = width > dtft.shape[1]
    # A crowded row is picked in full below; here it zooms on its first bins
    # only (at least three, so that every row has an interior bin).
    span = width[~crowded].max(initial=3)
    width = np.minimum(width, span)
    values = c * circle[np.outer(start, np.arange(n_sub)) % k_bins]
    values = values @ dtft[:, :span]
    re, im = values.real, values.imag
    power = re * re + im * im
    pos = np.arange(span)
    bins = (start[:, None] + pos) % k_bins

    rows = np.arange(n_rows)
    last = width - 1
    interior = (pos > 0) & (pos < last[:, None])
    pick, level = _pick(power, interior, bins, k_bins, policy, threshold_db)
    # An all-zero row (zero level) falls back, and _full_pick rejects it.
    fallback = crowded | (power[:, 0] >= level) | (power[rows, last] >= level)
    peak = bins[rows, pick]
    neighbors = power[rows, pick + np.array([[-1], [0], [1]])]
    if fallback.any():
        peak[fallback], neighbors[:, fallback] = _full_pick(_idft_power(c[fallback], k_bins),
                                                            policy, threshold_db)
    toa, _ = _refine(peak, neighbors, k_bins, 1.0 / (k_bins * config.subcarrier_spacing))
    return ZoomedToas(toa=toa, peak=peak, fallback=fallback)


def low_confidence(spectrum: DelaySpectrum) -> bool:
    """Peak less than 10 dB above the median bin: likely noise-only."""
    return spectrum.power.max() < 10.0 * float(np.median(spectrum.power))


def round_trip_distance(toa_fwd, toa_rev, processing_time: float = 0.0,
                        period: float | None = None):
    """c * (toa_fwd + toa_rev - processing_time) / 2, the round trip first
    reduced modulo ``period`` when one is given: ``rtt_range``'s distance,
    for floats or elementwise for arrays of exchanges."""
    total = toa_fwd + toa_rev - processing_time
    if period is not None:
        total = total % period
    return SPEED_OF_LIGHT * total / 2.0


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
    dist = round_trip_distance(toa_fwd, toa_rev, processing_time, period)
    if period is None and dist <= 0:
        raise ValueError("round trip shorter than the processing time")
    if one_way_toa_var is None:
        sigma = math.nan
    else:
        sigma = 0.5 * SPEED_OF_LIGHT * math.sqrt(2.0 * one_way_toa_var)
    return RangeMeasurement(distance=dist, sigma=sigma)
