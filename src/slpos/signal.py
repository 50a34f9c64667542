"""OFDM pilot generation and frequency-domain received-signal synthesis.

The model works entirely on post-FFT symbols: a pilot grid of T symbols by
N_s subcarriers, and a received grid where each path contributes its gain
times a per-subcarrier delay phase ramp and a per-symbol Doppler rotation,
plus circular complex Gaussian noise.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .constants import SPEED_OF_LIGHT
from .propagation import ChannelSnapshot


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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.num_subcarriers < 2:
            raise ValueError("need at least 2 subcarriers")
        if self.subcarrier_spacing <= 0:
            raise ValueError("subcarrier spacing must be positive")
        if self.num_symbols < 1:
            raise ValueError("need at least 1 symbol")
        if self.symbol_duration < 1.0 / self.subcarrier_spacing - 1e-15:
            raise ValueError("symbol duration shorter than 1/subcarrier_spacing")
        for name in ("carrier_freq", "tx_power", "noise_psd"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        try:
            variance = noise_variance(self)
        except OverflowError:
            variance = math.inf
        if not (math.isfinite(variance) and variance > 0):
            raise ValueError(f"noise_figure_db={self.noise_figure_db} gives a noise variance "
                             "that is not finite and positive")
        # With every path gain at most 1, no entry of the Fisher information
        # Gram matrix exceeds the larger of the delay and gain columns'
        # energies, (2 pi N_s df)^2 T tx_power/df and T tx_power/df, and no
        # entry of the FIM exceeds 2/N0 times that.  2/N0 > 0, so the product
        # is infinite whenever the Gram cap is.
        delay_scale = 2.0 * math.pi * self.num_subcarriers * self.subcarrier_spacing
        gram = max(1.0, delay_scale * delay_scale) * (
            self.num_symbols * self.tx_power / self.subcarrier_spacing)
        if not math.isfinite(2.0 / variance * gram):
            raise ValueError(f"tx_power={self.tx_power} W with noise_figure_db="
                             f"{self.noise_figure_db} overflows the Fisher information")
        # The pilot moments P_k = sum_{t,n} |s_{t,n}|^2 n^k of ``make_pilots``,
        # whose every subcarrier carries T tx_power / (N_s df).  The one-path
        # bound combines them as P1^2 and P0 P2 (P1^2 <= P0 P2); outside the
        # normal float range these lose precision, then reach 0 or inf.
        n = self.num_subcarriers
        energy = self.num_symbols * self.tx_power / (n * self.subcarrier_spacing)
        p0 = energy * n
        p1 = energy * (n * (n - 1) / 2)
        p2 = energy * ((n - 1) * n * (2 * n - 1) / 6)
        if not (sys.float_info.min <= p1 * p1 and p0 * p2 <= sys.float_info.max):
            raise ValueError(f"tx_power={self.tx_power} W puts the pilot moments of the "
                             "one-path bound outside the normal float range")
        # A lone unit-gain path's delay information, (2 / N0) (2 pi df)^2
        # (P2 - P1^2 / P0) in the one-path bound's order of operations, and
        # the bound's 1 / information must both be normal floats.
        ramp = 2.0 * math.pi * self.subcarrier_spacing
        info = 2.0 / variance * (ramp * ramp) * (p2 - p1 * p1 / p0)
        if not sys.float_info.min <= info <= 1.0 / sys.float_info.min:
            raise ValueError(f"tx_power={self.tx_power} W with noise_figure_db="
                             f"{self.noise_figure_db} puts the one-path delay information "
                             "outside the normal float range")
        # A symbol sum's noise variance per part is at most N0 T^2 / (2 energy)
        # (``noise_scale`` with the window's peak of 1).  With every noise
        # draw within 64 sigma, a zoom bin, a direct DTFT of the N_s sums,
        # has power at most (64 sqrt(2) N_s sigma)^2 = 8192 N_s^2 sigma^2
        # (the noiseless part is negligible wherever this nears the float
        # range), which must stay finite.
        sigma2 = variance / 2.0 * self.num_symbols ** 2 / energy
        if not math.isfinite(8192.0 * n * n * sigma2):
            raise ValueError(f"tx_power={self.tx_power} W with noise_figure_db="
                             f"{self.noise_figure_db} leaves the signal so far below the "
                             "noise that a delay spectrum's power overflows")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def unambiguous_delay(self) -> float:
        """Delay span representable without aliasing: 1/subcarrier_spacing."""
        return 1.0 / self.subcarrier_spacing


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


def make_pilots(config: OfdmConfig, phase_mode: str = "all_ones",
                seed: int | None = None) -> PilotGrid:
    """Constant-amplitude pilots with per-symbol energy tx_power/spacing.

    ``phase_mode`` is ``"all_ones"`` (zero phases) or
    ``"seeded_random_phase"`` (phases uniform per entry, reproducible from
    ``seed``).
    """
    shape = (config.num_symbols, config.num_subcarriers)
    amplitude = np.sqrt(config.tx_power / (config.subcarrier_spacing * config.num_subcarriers))
    if phase_mode == "all_ones":
        grid = np.full(shape, amplitude, dtype=complex)
    elif phase_mode == "seeded_random_phase":
        if seed is None:
            raise ValueError("seeded_random_phase requires a seed")
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=shape)
        grid = amplitude * np.exp(1j * phases)
    else:
        raise ValueError(f"unknown phase mode {phase_mode!r}")
    return PilotGrid(symbols=grid)


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


def mean_vector(channel: ChannelSnapshot, config: OfdmConfig, window: np.ndarray,
                doppler_enabled: bool = True) -> np.ndarray:
    """Noiseless symbol sum that ``delay_spectrum`` would form at zero clock bias.

    Pilots divide out exactly, so the windowed, pilot-compensated sum over
    symbols of the noiseless grid is
    m[n] = w[n] sum_l g_l (sum_t e^{j 2 pi t v_l T_s / lambda}) e^{-j 2 pi n tau_l df},
    length N_s.  A clock bias B rotates it to ``bias_ramps(B) * m``, which
    equals the symbol sum of ``synthesize_rx(..., clock_bias=B)`` up to
    rounding.
    """
    if not channel.paths:
        return np.zeros(config.num_subcarriers, dtype=complex)
    delays, gains, doppler = _path_terms(channel, config, doppler_enabled)
    return window * ((gains * doppler.sum(axis=0)) @ _ramps(delays, config))


def bias_ramps(clock_bias: np.ndarray, config: OfdmConfig) -> np.ndarray:
    """e^{-j 2 pi n B df} per clock bias B of the 1-D ``clock_bias``: B x N_s.

    Each bias is reduced modulo the alias period first, so any value is
    accepted.  Row b times ``mean_vector``'s m is the arrival whose clock is
    off by +B; its conjugate times m is the one off by -B, bit for bit:
    the reduction and the phase products are odd in B, and the complex
    exponential of a negated phase is the conjugate of the original.
    """
    return _ramps([math.remainder(b, config.unambiguous_delay) for b in clock_bias], config)


def noise_scale(pilots: PilotGrid, config: OfdmConfig, window: np.ndarray) -> np.ndarray:
    """Per-subcarrier standard deviation of each part of a noise symbol sum.

    Pilots divide out exactly, so the symbol sum w[n] sum_t z[t, n] / p[t, n]
    of the noise grid z that ``synthesize_rx`` adds is circular Gaussian
    with variance w[n]^2 N0 sum_t 1/|p[t, n]|^2, independent across n:
    returns w[n] sqrt(N0 / 2 sum_t 1/|p[t, n]|^2), length N_s.
    """
    return window * np.sqrt(noise_variance(config) / 2.0
                            * (np.abs(pilots.symbols) ** -2).sum(axis=0))


def noise_sum(rng: np.random.Generator, rows: int, scale: np.ndarray) -> np.ndarray:
    """Noise part of ``rows`` symbol sums, drawn from ``rng``: rows x N_s.

    ``scale`` is ``noise_scale``'s; each row takes 2 N_s normals, real
    parts first.
    """
    draws = rng.standard_normal((rows, 2, len(scale)))
    return scale * (draws[:, 0] + 1j * draws[:, 1])
