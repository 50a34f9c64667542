import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channels import echo_path, los_path, make_snapshot
from slpos.estimation import hamming_window
from slpos.signal import (
    OfdmConfig,
    default_config,
    make_pilots,
    mean_vector,
    noise_sum,
    noise_variance,
    synthesize_rx,
)


# --- configuration -----------------------------------------------------------

def test_default_config_values(ofdm):
    assert ofdm.num_subcarriers == 167
    assert ofdm.subcarrier_spacing == 120e3
    assert ofdm.num_symbols == 12
    assert ofdm.symbol_duration == pytest.approx(8.35e-6, rel=1e-12)
    assert ofdm.carrier_freq == 5.9e9
    assert ofdm.tx_power == pytest.approx(0.01)
    assert ofdm.noise_figure_db == 8.0


def test_default_bandwidth_is_about_20_mhz(ofdm):
    assert ofdm.bandwidth == pytest.approx(20e6, rel=0.01)


def test_config_validation():
    with pytest.raises(ValueError):
        OfdmConfig(num_subcarriers=1, subcarrier_spacing=120e3, num_symbols=12,
                   symbol_duration=8.35e-6, carrier_freq=5.9e9, tx_power=0.01,
                   noise_psd=4e-21, noise_figure_db=8.0)
    with pytest.raises(ValueError):
        # Symbol shorter than the inverse subcarrier spacing.
        OfdmConfig(num_subcarriers=167, subcarrier_spacing=120e3, num_symbols=12,
                   symbol_duration=5e-6, carrier_freq=5.9e9, tx_power=0.01,
                   noise_psd=4e-21, noise_figure_db=8.0)


@pytest.mark.parametrize("field", ["subcarrier_spacing", "symbol_duration", "carrier_freq",
                                   "tx_power", "noise_psd", "noise_figure_db"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_fields(ofdm, field, value):
    with pytest.raises(ValueError, match=field):
        OfdmConfig(**{**ofdm.__dict__, field: value})


@pytest.mark.parametrize("figure_db", [4000.0, -4000.0])
def test_config_rejects_a_noise_figure_whose_variance_is_not_finite_and_positive(ofdm,
                                                                                 figure_db):
    with pytest.raises(ValueError, match="noise_figure_db"):
        OfdmConfig(**{**ofdm.__dict__, "noise_figure_db": figure_db})


def test_noise_variance_with_noise_figure(ofdm):
    assert noise_variance(ofdm) == pytest.approx(2.512e-20, rel=1e-3)


def test_noise_variance_identity_at_zero_figure(ofdm):
    cfg = OfdmConfig(**{**ofdm.__dict__, "noise_figure_db": 0.0})
    assert noise_variance(cfg) == cfg.noise_psd


def test_noise_variance_3db_step(ofdm):
    cfg = OfdmConfig(**{**ofdm.__dict__, "noise_figure_db": 11.0})
    assert noise_variance(cfg) / noise_variance(ofdm) == pytest.approx(1.995, rel=1e-3)


# --- pilots ------------------------------------------------------------------

def test_pilot_entry_energy(ofdm, pilots):
    expected = ofdm.tx_power / (ofdm.subcarrier_spacing * ofdm.num_subcarriers)
    assert np.allclose(np.abs(pilots.symbols) ** 2, expected, rtol=1e-12)
    assert expected == pytest.approx(4.99e-10, rel=1e-2)


def test_per_symbol_energy_is_power_over_spacing(ofdm, pilots):
    energy = np.sum(np.abs(pilots.symbols) ** 2, axis=1)
    assert np.allclose(energy, ofdm.tx_power / ofdm.subcarrier_spacing, rtol=1e-12)
    assert energy[0] == pytest.approx(8.333e-8, rel=1e-3)


def test_random_phase_pilots_deterministic(ofdm):
    a = make_pilots(ofdm, "seeded_random_phase", seed=11)
    b = make_pilots(ofdm, "seeded_random_phase", seed=11)
    c = make_pilots(ofdm, "seeded_random_phase", seed=12)
    assert np.array_equal(a.symbols, b.symbols)
    assert not np.array_equal(a.symbols, c.symbols)
    expected = ofdm.tx_power / (ofdm.subcarrier_spacing * ofdm.num_subcarriers)
    assert np.allclose(np.abs(a.symbols) ** 2, expected, rtol=1e-12)


def test_unknown_phase_mode_rejected(ofdm):
    with pytest.raises(ValueError):
        make_pilots(ofdm, "fancy")
    with pytest.raises(ValueError):
        make_pilots(ofdm, "seeded_random_phase")


# --- received-signal synthesis -------------------------------------------------

def test_identity_channel_reproduces_pilots(ofdm, pilots):
    # Zero apparent delay via the clock-bias term: the ramp collapses to one.
    tau = 123e-9
    snap = make_snapshot([los_path(tau, gain=1.0 + 0j)])
    rx = synthesize_rx(snap, pilots, ofdm, noise_seed=None, doppler_enabled=False,
                       clock_bias=-tau)
    assert np.array_equal(rx.symbols, pilots.symbols)


def test_empty_channel_noiseless_is_zero(ofdm, pilots):
    snap = make_snapshot([])
    rx = synthesize_rx(snap, pilots, ofdm, noise_seed=None)
    assert np.all(rx.symbols == 0)


def test_doppler_phase_advance_per_symbol(ofdm, pilots):
    snap = make_snapshot([los_path(100e-9, gain=1.0 + 0j, velocity=14.0)])
    rx = synthesize_rx(snap, pilots, ofdm, noise_seed=None, doppler_enabled=True)
    ratio = rx.symbols[1, 0] / rx.symbols[0, 0]
    expected = 2 * np.pi * 14.0 * ofdm.symbol_duration / ofdm.wavelength
    assert np.angle(ratio) == pytest.approx(expected, rel=1e-9)
    assert expected == pytest.approx(0.01446, rel=1e-3)


def test_doppler_disabled_freezes_symbols(ofdm, pilots):
    snap = make_snapshot([los_path(100e-9, gain=0.5 + 0.1j, velocity=14.0)])
    rx = synthesize_rx(snap, pilots, ofdm, noise_seed=None, doppler_enabled=False)
    assert np.array_equal(rx.symbols[0], rx.symbols[5])


def test_linearity_over_disjoint_path_sets(ofdm, pilots):
    p1 = [los_path(100e-9, gain=0.8 + 0.2j, velocity=3.0)]
    p2 = [echo_path(250e-9, gain=-0.3 + 0.5j, index=0, velocity=-2.0)]
    rx1 = synthesize_rx(make_snapshot(p1), pilots, ofdm, noise_seed=None)
    rx2 = synthesize_rx(make_snapshot(p2), pilots, ofdm, noise_seed=None)
    rx12 = synthesize_rx(make_snapshot(p1 + p2), pilots, ofdm, noise_seed=None)
    np.testing.assert_allclose(rx12.symbols, rx1.symbols + rx2.symbols, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(bias_ns=st.integers(min_value=-500, max_value=500))
def test_clock_bias_equals_shifted_delays(bias_ns):
    ofdm = default_config()
    pilots = make_pilots(ofdm, "all_ones")
    bias = bias_ns * 1e-9
    tau = 600e-9
    biased = synthesize_rx(make_snapshot([los_path(tau, gain=0.7 - 0.1j)]),
                           pilots, ofdm, noise_seed=None, clock_bias=bias)
    shifted = synthesize_rx(make_snapshot([los_path(tau + bias, gain=0.7 - 0.1j)]),
                            pilots, ofdm, noise_seed=None, clock_bias=0.0)
    np.testing.assert_allclose(biased.symbols, shifted.symbols, rtol=1e-12, atol=0)


def test_noise_is_seed_deterministic(ofdm, pilots):
    snap = make_snapshot([])
    a = synthesize_rx(snap, pilots, ofdm, noise_seed=77)
    b = synthesize_rx(snap, pilots, ofdm, noise_seed=77)
    c = synthesize_rx(snap, pilots, ofdm, noise_seed=78)
    assert np.array_equal(a.symbols, b.symbols)
    assert not np.array_equal(a.symbols, c.symbols)


def test_monte_carlo_noise_power(ofdm, pilots):
    # >= 1e5 noise samples across seeds; sample power within 2% of nominal.
    snap = make_snapshot([])
    samples = []
    for seed in range(50):
        samples.append(synthesize_rx(snap, pilots, ofdm, noise_seed=seed).symbols.ravel())
    samples = np.concatenate(samples)
    assert samples.size >= 1e5
    measured = np.mean(np.abs(samples) ** 2)
    assert measured == pytest.approx(noise_variance(ofdm), rel=0.02)


def test_received_energy_single_path(ofdm, pilots):
    gain = 3.2e-4 * np.exp(1j * 0.7)
    snap = make_snapshot([los_path(300e-9, gain=gain, velocity=9.0)])
    rx = synthesize_rx(snap, pilots, ofdm, noise_seed=None, doppler_enabled=True)
    energy = np.sum(np.abs(rx.symbols) ** 2)
    expected = abs(gain) ** 2 * ofdm.num_symbols * ofdm.tx_power / ofdm.subcarrier_spacing
    assert energy == pytest.approx(expected, rel=1e-10)


def test_delay_beyond_alias_period_rejected(ofdm, pilots):
    snap = make_snapshot([los_path(9e-6)])
    with pytest.raises(ValueError):
        synthesize_rx(snap, pilots, ofdm, noise_seed=None)
    # A clock bias wraps instead: the ramp is periodic in the alias period.
    # Both biases lie in [P/2, 2P], so bias - P is exact in floating point.
    snap = make_snapshot([los_path(100e-9)])
    period = ofdm.unambiguous_delay
    for bias in (6e-6, 8.3e-6):
        a = synthesize_rx(snap, pilots, ofdm, noise_seed=None, clock_bias=bias)
        b = synthesize_rx(snap, pilots, ofdm, noise_seed=None, clock_bias=bias - period)
        assert np.array_equal(a.symbols, b.symbols)


def _symbol_sum(rx, pilots, window):
    """What delay_spectrum transforms: sum over symbols of window * rx / pilots."""
    return (window * rx.symbols / pilots.symbols).sum(axis=0)


@pytest.mark.parametrize("doppler", [True, False])
def test_mean_vector_is_the_noiseless_symbol_sum(ofdm, doppler):
    pilots = make_pilots(ofdm, "seeded_random_phase", seed=4)
    window = hamming_window(ofdm.num_subcarriers)
    snap = make_snapshot([los_path(120e-9, gain=0.7 - 0.1j, velocity=9.0),
                          echo_path(310e-9, gain=-0.2 + 0.3j, index=0, velocity=-4.0)])
    period = ofdm.unambiguous_delay
    biases = np.array([0.0, 1e-6, -2.5e-6, period / 2, -period / 2, 1.3 * period])
    rows = mean_vector(snap, ofdm, window, biases, doppler_enabled=doppler)
    assert rows.shape == (len(biases), ofdm.num_subcarriers)
    for row, bias in zip(rows, biases):
        want = _symbol_sum(synthesize_rx(snap, pilots, ofdm, doppler_enabled=doppler,
                                         clock_bias=bias), pilots, window)
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_mean_vector_of_an_empty_channel_is_zero(ofdm):
    window = hamming_window(ofdm.num_subcarriers)
    rows = mean_vector(make_snapshot([]), ofdm, window, np.zeros(3))
    assert rows.shape == (3, ofdm.num_subcarriers) and not rows.any()


def test_noise_sum_folds_the_scalar_noise_grid(ofdm):
    # One generator per seed, real parts drawn first, then imaginary: the
    # stream synthesize_rx adds, summed as delay_spectrum sums it.
    pilots = make_pilots(ofdm, "seeded_random_phase", seed=4)
    window = hamming_window(ofdm.num_subcarriers)
    seeds = [11, np.random.SeedSequence(entropy=(3, 1, 2), spawn_key=(1,))]
    rows = noise_sum(seeds, pilots, ofdm, window)
    assert rows.shape == (2, ofdm.num_subcarriers)
    for row, seed in zip(rows, seeds):
        want = _symbol_sum(synthesize_rx(make_snapshot([]), pilots, ofdm, noise_seed=seed),
                           pilots, window)
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_pilot_grid_shape_mismatch_rejected(ofdm):
    small = OfdmConfig(**{**ofdm.__dict__, "num_subcarriers": 64})
    small_pilots = make_pilots(small, "all_ones")
    with pytest.raises(ValueError):
        synthesize_rx(make_snapshot([los_path(1e-7)]), small_pilots, ofdm)
