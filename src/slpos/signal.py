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
    """T x N_s received grid, or B x T x N_s for a batch of B trials."""

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


def synthesize_rx(channel: ChannelSnapshot, pilots: PilotGrid, config: OfdmConfig,
                  noise_seed: int | np.random.SeedSequence | Sequence | None = None,
                  doppler_enabled: bool = True,
                  clock_bias: float | np.ndarray = 0.0) -> RxSymbols:
    """Received grid: sum over paths of gain * pilots * delay ramp * Doppler.

    The clock bias adds to every path delay in the phase ramp.  With
    ``noise_seed`` None the output is noiseless; otherwise i.i.d. circular
    complex Gaussian noise with variance ``noise_variance(config)`` is added,
    deterministic in the seed (real parts drawn first, then imaginary).
    Path delays must stay below one alias period 1/subcarrier_spacing.  The
    clock bias may take any value: the ramp is periodic in that period, so
    the bias is reduced modulo it first.

    A scalar ``clock_bias`` gives a T x N_s grid.  A 1-D array of B biases
    gives a batch of B grids, B x T x N_s; ``noise_seed`` is then None or a
    sequence of B seeds, and row b equals the scalar call with
    ``clock_bias[b]`` and ``noise_seed[b]``.
    """
    n_sym, n_sub = pilots.symbols.shape
    if (n_sym, n_sub) != (config.num_symbols, config.num_subcarriers):
        raise ValueError("pilot grid does not match the OFDM configuration")
    biases = np.asarray(clock_bias, dtype=float)
    if biases.ndim > 1:
        raise ValueError("clock bias must be a scalar or a 1-D array")
    if biases.ndim == 1 and noise_seed is not None and len(noise_seed) != len(biases):
        raise ValueError(f"{len(noise_seed)} noise seeds for {len(biases)} clock biases")
    batch = biases.shape

    mean = np.zeros(batch + (n_sym, n_sub), dtype=complex)
    if channel.paths:
        delays = np.array([p.delay for p in channel.paths])
        if np.any(delays >= config.unambiguous_delay):
            raise ValueError("path delay exceeds the unambiguous range")
        wrapped = [math.remainder(b, config.unambiguous_delay) for b in biases.flat]
        delays = delays + np.reshape(wrapped, batch + (1,))
        gains = np.array([p.gain for p in channel.paths])
        n = np.arange(n_sub)
        ramps = np.exp(-2j * np.pi * (delays[..., None] * n) * config.subcarrier_spacing)
        if doppler_enabled:
            velocities = np.array([p.radial_velocity for p in channel.paths])
            t = np.arange(1, n_sym + 1)
            doppler = np.exp(2j * np.pi * np.outer(t, velocities)
                             * config.symbol_duration / config.wavelength)
        else:
            doppler = np.ones((n_sym, len(channel.paths)))
        mean = doppler @ (gains[:, None] * ramps)
        mean *= pilots.symbols

    if noise_seed is not None:
        scale = np.sqrt(noise_variance(config) / 2.0)
        draws = np.empty((2, n_sym, n_sub))
        for grid, seed in zip(mean.reshape(-1, n_sym, n_sub),
                              noise_seed if batch else [noise_seed]):
            np.random.default_rng(seed).standard_normal(out=draws)
            draws *= scale
            grid.real += draws[0]
            grid.imag += draws[1]
    return RxSymbols(symbols=mean)
