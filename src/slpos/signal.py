"""OFDM pilot generation and frequency-domain received-signal synthesis.

The model works entirely on post-FFT symbols: a pilot grid of T symbols by
N_s subcarriers, and a received grid where each path contributes its gain
times a per-subcarrier delay phase ramp and a per-symbol Doppler rotation,
plus circular complex Gaussian noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

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
        if self.carrier_freq <= 0 or self.tx_power <= 0 or self.noise_psd <= 0:
            raise ValueError("carrier frequency and powers must be positive")
        try:
            variance = noise_variance(self)
        except OverflowError:
            variance = math.inf
        if not (math.isfinite(variance) and variance > 0):
            raise ValueError(f"noise_figure_db={self.noise_figure_db} gives a noise variance "
                             "that is not finite and positive")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def bandwidth(self) -> float:
        return self.num_subcarriers * self.subcarrier_spacing

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
    """T x N_s complex pilot symbols, one OFDM symbol per row."""

    symbols: np.ndarray


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
                clock_bias: np.ndarray, doppler_enabled: bool = True) -> np.ndarray:
    """Noiseless symbol sums that ``delay_spectrum`` would form, one row per bias.

    Pilots divide out exactly, so the windowed, pilot-compensated sum over
    symbols of the noiseless grid is e^{-j 2 pi n B df} m[n], with
    m[n] = w[n] sum_l g_l (sum_t e^{j 2 pi t v_l T_s / lambda}) e^{-j 2 pi n tau_l df}.
    Returns B x N_s for the 1-D array ``clock_bias``; row b equals the
    symbol sum of ``synthesize_rx(..., clock_bias=clock_bias[b])`` up to
    rounding.
    """
    if not channel.paths:
        return np.zeros((len(clock_bias), config.num_subcarriers), dtype=complex)
    delays, gains, doppler = _path_terms(channel, config, doppler_enabled)
    m = window * ((gains * doppler.sum(axis=0)) @ _ramps(delays, config))
    wrapped = [math.remainder(b, config.unambiguous_delay) for b in clock_bias]
    return _ramps(wrapped, config) * m


def noise_sum(noise_seeds: Sequence, pilots: PilotGrid, config: OfdmConfig,
              window: np.ndarray) -> np.ndarray:
    """Noise part of the symbol sums, one row per seed: B x N_s.

    Row b is w[n] sum_t z_b[t, n] / p[t, n], where z_b is the noise grid that
    ``synthesize_rx(..., noise_seed=noise_seeds[b])`` adds: one generator per
    seed, real parts drawn first, then imaginary.
    """
    n_sym, n_sub = pilots.symbols.shape
    draws = np.empty((len(noise_seeds), 2, n_sym, n_sub))
    for row, seed in zip(draws, noise_seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    # Weights of the real and imaginary draws: sum over both and over t.
    weights = window * np.sqrt(noise_variance(config) / 2.0) / pilots.symbols
    weights = np.stack([weights, 1j * weights])
    return (np.einsum("bstn,stn->bn", draws, weights.real)
            + 1j * np.einsum("bstn,stn->bn", draws, weights.imag))
