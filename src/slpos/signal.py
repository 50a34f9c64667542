"""OFDM pilot generation and frequency-domain received-signal synthesis.

The model works entirely on post-FFT symbols: a pilot grid of T symbols by
N_s subcarriers, and a received grid where each path contributes its gain
times a per-subcarrier delay phase ramp and a per-symbol Doppler rotation,
plus circular complex Gaussian noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .propagation import ChannelSnapshot, check_range


# Working range (low, high, unit) of each OfdmConfig field but symbol_duration, from
# NR's carriers and numerologies (3GPP TS 38.211) and V2X budgets (3GPP TR 37.885).
# Within them every Fisher entry and noise power stays far inside the float range.
WORKING_RANGES = {
    "num_subcarriers": (2, 3300, "subcarriers (NR's 275 resource blocks of 12)"),
    "subcarrier_spacing": (15e3, 960e3, "Hz (NR numerologies 0 to 6)"),
    "num_symbols": (1, 448, "symbols (32 slots of 14)"),
    "carrier_freq": (1e8, 1e11, "Hz (0.1 to 100 GHz)"),
    "tx_power": (1e-18, 1e3, "W (-150 to +60 dBm)"),
    "noise_psd": (1e-24, 1e-15, "W/Hz"),
    "noise_figure_db": (0.0, 60.0, "dB"),
}


@dataclass(frozen=True)
class OfdmConfig:
    """Waveform layout and radio budget.

    ``symbol_duration`` includes the cyclic prefix.  ``noise_psd`` is the
    thermal noise density in W/Hz before the receiver noise figure.
    """

    num_subcarriers: int
    subcarrier_spacing: float
    num_symbols: int
    symbol_duration: float
    carrier_freq: float
    tx_power: float
    noise_psd: float
    noise_figure_db: float

    def __post_init__(self) -> None:
        for name, limits in WORKING_RANGES.items():
            check_range(name, getattr(self, name), *limits)
        # 2/df is 4 times NR's longest cyclic prefix, the extended one of 1/(4 df).
        period = 1.0 / self.subcarrier_spacing
        if not period - 1e-15 <= self.symbol_duration <= 2.0 * period:
            raise ValueError(f"symbol_duration must lie in [1, 2] / subcarrier_spacing = "
                             f"[{period:.4g}, {2.0 * period:.4g}] s, got {self.symbol_duration}")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def unambiguous_delay(self) -> float:
        """Delay span representable without aliasing: 1/subcarrier_spacing."""
        return 1.0 / self.subcarrier_spacing

    @property
    def unambiguous_range(self) -> float:
        """Longest distance a round trip resolves: c / (2 subcarrier_spacing)."""
        return SPEED_OF_LIGHT * self.unambiguous_delay / 2.0


def default_config() -> OfdmConfig:
    """Sidelink evaluation budget: 5.9 GHz carrier, 167 subcarriers at
    120 kHz spacing, 12 pilot symbols over 100.2 us, 10 dBm transmit power,
    -174 dBm/Hz noise density, 8 dB noise figure."""
    return OfdmConfig(
        num_subcarriers=167,
        subcarrier_spacing=120e3,
        num_symbols=12,
        symbol_duration=100.2e-6 / 12,
        carrier_freq=5.9e9,
        tx_power=0.01,
        noise_psd=10 ** (-174.0 / 10.0) * 1e-3,
        noise_figure_db=8.0,
    )


def hamming_window(n: int) -> np.ndarray:
    """Symmetric Hamming window, 0.54 - 0.46 cos(2 pi k / (n - 1))."""
    if n < 2:
        raise ValueError("window needs at least 2 points")
    return np.hamming(n)


def noise_variance(config: OfdmConfig) -> float:
    """Per-sample complex noise variance (W s) after the noise figure."""
    return config.noise_psd * 10 ** (config.noise_figure_db / 10.0)


@dataclass(frozen=True)
class PilotGrid:
    """T x N_s complex pilot symbols, one OFDM symbol per row.

    The grid is frozen, and its symbols must not be changed in place once
    it is in use: ``moments`` is computed from them once and kept.
    """

    symbols: np.ndarray

    @functools.cached_property
    def moments(self) -> tuple[float, float, float]:
        """Pilot moments (P0, P1, P2), P_k = sum_{t,n} |s_{t,n}|^2 n^k."""
        energy = (self.symbols.real ** 2 + self.symbols.imag ** 2).sum(axis=0)
        n = np.arange(energy.size, dtype=float)
        return float(energy.sum()), float(energy @ n), float(energy @ (n * n))


@dataclass(frozen=True)
class RxSymbols:
    """T x N_s received grid."""

    symbols: np.ndarray


def make_pilots(config: OfdmConfig, phase_mode: str = "all_ones") -> PilotGrid:
    """Constant-amplitude, zero-phase pilots with per-symbol energy tx_power/spacing.

    ``phase_mode`` must be ``"all_ones"``.  The bound, the delay spectrum and
    the noise scale see the pilots only through |p|, so no other phase
    pattern changes a result.
    """
    if phase_mode != "all_ones":
        raise ValueError(f"unknown phase mode {phase_mode!r}")
    amplitude = np.sqrt(config.tx_power / (config.subcarrier_spacing * config.num_subcarriers))
    return PilotGrid(symbols=np.full((config.num_symbols, config.num_subcarriers),
                                     amplitude, dtype=complex))


def _path_terms(channel: ChannelSnapshot, config: OfdmConfig,
                doppler_enabled: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(delays, gains, T x L Doppler rotations) of the channel's L paths."""
    delays = np.array([p.delay for p in channel.paths])
    if np.any(delays >= config.unambiguous_delay):
        raise ValueError("path delay exceeds the unambiguous range")
    gains = np.array([p.gain for p in channel.paths])
    if doppler_enabled:
        velocities = np.array([p.radial_velocity for p in channel.paths])
        t = np.arange(1, config.num_symbols + 1)
        doppler = np.exp(2j * np.pi * np.outer(t, velocities)
                         * config.symbol_duration / config.wavelength)
    else:
        doppler = np.ones((config.num_symbols, len(channel.paths)))
    return delays, gains, doppler


def _ramps(delays, config: OfdmConfig) -> np.ndarray:
    """exp(-2j pi n delay subcarrier_spacing): one row per delay."""
    n = np.arange(config.num_subcarriers)
    return np.exp(-2j * np.pi * (np.asarray(delays)[:, None] * n) * config.subcarrier_spacing)


def synthesize_rx(channel: ChannelSnapshot, pilots: PilotGrid, config: OfdmConfig,
                  noise_seed: int | np.random.SeedSequence | None = None,
                  doppler_enabled: bool = True,
                  clock_bias: float = 0.0) -> RxSymbols:
    """Received grid: sum over paths of gain * pilots * delay ramp * Doppler.

    The clock bias adds to every path delay in the phase ramp.  With
    ``noise_seed`` None the output is noiseless; otherwise i.i.d. circular
    complex Gaussian noise with variance ``noise_variance(config)`` is added,
    deterministic in the seed (real parts drawn first, then imaginary).
    Path delays must stay below one alias period 1/subcarrier_spacing.  The
    clock bias may take any value: the ramp is periodic in that period, so
    the bias is reduced modulo it first.
    """
    n_sym, n_sub = pilots.symbols.shape
    if (n_sym, n_sub) != (config.num_symbols, config.num_subcarriers):
        raise ValueError("pilot grid does not match the OFDM configuration")
    mean = np.zeros((n_sym, n_sub), dtype=complex)
    if channel.paths:
        delays, gains, doppler = _path_terms(channel, config, doppler_enabled)
        ramps = _ramps(delays + math.remainder(clock_bias, config.unambiguous_delay), config)
        mean = doppler @ (gains[:, None] * ramps)
        mean *= pilots.symbols

    if noise_seed is not None:
        draws = np.random.default_rng(noise_seed).standard_normal((2, n_sym, n_sub))
        draws *= np.sqrt(noise_variance(config) / 2.0)
        mean.real += draws[0]
        mean.imag += draws[1]
    return RxSymbols(symbols=mean)


def mean_vector(channel: ChannelSnapshot, config: OfdmConfig,
                doppler_enabled: bool = True) -> np.ndarray:
    """Noiseless symbol sum that ``delay_spectrum`` would form at zero clock bias.

    Pilots divide out exactly, so the sum over symbols of the noiseless grid,
    pilot-compensated and weighted by the ``hamming_window`` w, is
    m[n] = w[n] sum_l g_l (sum_t e^{j 2 pi t v_l T_s / lambda}) e^{-j 2 pi n tau_l df},
    length N_s.  A clock bias B rotates it to ``bias_ramps(B) * m``, which
    equals the symbol sum of ``synthesize_rx(..., clock_bias=B)`` up to
    rounding.
    """
    if not channel.paths:
        return np.zeros(config.num_subcarriers, dtype=complex)
    delays, gains, doppler = _path_terms(channel, config, doppler_enabled)
    return (hamming_window(config.num_subcarriers)
            * ((gains * doppler.sum(axis=0)) @ _ramps(delays, config)))


def bias_ramps(clock_bias: np.ndarray, config: OfdmConfig) -> np.ndarray:
    """e^{-j 2 pi n B df} per clock bias B of the 1-D ``clock_bias``: B x N_s.

    Each bias is reduced modulo the alias period first, so any value is
    accepted.  Row b times ``mean_vector``'s m is the arrival whose clock is
    off by +B; its conjugate times m is the one off by -B, bit for bit:
    the reduction and the phase products are odd in B, and the complex
    exponential of a negated phase is the conjugate of the original.
    """
    return _ramps([math.remainder(b, config.unambiguous_delay) for b in clock_bias], config)


def noise_scale(pilots: PilotGrid, config: OfdmConfig) -> np.ndarray:
    """Per-subcarrier standard deviation of each part of a noise symbol sum.

    Pilots divide out exactly, so the symbol sum w[n] sum_t z[t, n] / p[t, n]
    of the noise grid z that ``synthesize_rx`` adds, w the ``hamming_window``,
    is circular Gaussian with variance w[n]^2 N0 sum_t 1/|p[t, n]|^2,
    independent across n: returns w[n] sqrt(N0 / 2 sum_t 1/|p[t, n]|^2), length N_s.
    """
    return hamming_window(config.num_subcarriers) * np.sqrt(
        noise_variance(config) / 2.0 * (np.abs(pilots.symbols) ** -2).sum(axis=0))


def noise_sum(rng: np.random.Generator, rows: int, scale: np.ndarray) -> np.ndarray:
    """Noise part of ``rows`` symbol sums, drawn from ``rng``: rows x N_s.

    ``scale`` is ``noise_scale``'s; each row takes 2 N_s normals, real
    parts first.
    """
    draws = rng.standard_normal((rows, 2, len(scale)))
    return scale * (draws[:, 0] + 1j * draws[:, 1])
