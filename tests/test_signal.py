import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channels import echo_path, los_path, make_snapshot, random_phase_pilots, symbol_sum
from slpos.estimation import hamming_window
from slpos import signal
from slpos.signal import (
    WORKING_RANGES,
    OfdmConfig,
    PilotGrid,
    bias_ramps,
    default_config,
    make_pilots,
    mean_vector,
    noise_scale,
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


def _with(ofdm, field, value):
    """``ofdm`` with ``field`` set to ``value``, and with a new subcarrier
    spacing its shortest symbol, 1/spacing."""
    changes = {field: value}
    if field == "subcarrier_spacing":
        changes["symbol_duration"] = 1.0 / value
    return OfdmConfig(**{**ofdm.__dict__, **changes})


_EDGES = [(field, side) for field in WORKING_RANGES for side in ("lo", "hi")]


@pytest.mark.parametrize("field, side", _EDGES, ids=[f"{f}-{s}" for f, s in _EDGES])
def test_config_accepts_each_working_range_edge_and_rejects_one_step_beyond(ofdm, field,
                                                                             side):
    # One step is 1 for a count and one ulp for a float.
    lo, hi, unit = WORKING_RANGES[field]
    edge, outward = (lo, -math.inf) if side == "lo" else (hi, math.inf)
    if isinstance(edge, int):
        beyond = edge + (1 if side == "hi" else -1)
    else:
        beyond = math.nextafter(edge, outward)
    assert getattr(_with(ofdm, field, edge), field) == edge
    with pytest.raises(ValueError,
                       match=re.escape(f"{field} must lie in [{lo:g}, {hi:g}] {unit}, got")):
        _with(ofdm, field, beyond)


@pytest.mark.parametrize("field, value", [
    ("num_subcarriers", 167.0),
    ("num_symbols", 12.0),
    ("num_symbols", True),
])
def test_counts_reject_a_non_integer_naming_it(ofdm, field, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer in [")):
        _with(ofdm, field, value)
    assert getattr(_with(ofdm, field, np.int64(value)), field) == value


def test_symbol_duration_lies_between_one_and_two_inverse_spacings(ofdm):
    period = 1.0 / ofdm.subcarrier_spacing
    for accepted in (period, 2.0 * period):
        assert _with(ofdm, "symbol_duration", accepted).symbol_duration == accepted
    for rejected in (period - 2e-15, math.nextafter(2.0 * period, math.inf)):
        with pytest.raises(ValueError, match=re.escape("symbol_duration must lie in [1, 2] / "
                                                       "subcarrier_spacing = [8.333e-06, "
                                                       "1.667e-05] s")):
            _with(ofdm, "symbol_duration", rejected)


def test_working_ranges_name_every_numeric_config_field():
    # symbol_duration alone is bounded relative to another field, the
    # subcarrier spacing; a numeric field added later needs a range.
    numeric = [f.name for f in dataclasses.fields(OfdmConfig) if f.type in ("int", "float")]
    assert list(WORKING_RANGES) == [name for name in numeric if name != "symbol_duration"]
    for lo, hi, unit in WORKING_RANGES.values():
        assert lo < hi and unit


# --- pilots ------------------------------------------------------------------

def test_pilot_entry_energy(ofdm, pilots):
    expected = ofdm.tx_power / (ofdm.subcarrier_spacing * ofdm.num_subcarriers)
    assert np.allclose(np.abs(pilots.symbols) ** 2, expected, rtol=1e-12)
    assert expected == pytest.approx(4.99e-10, rel=1e-2)


def test_per_symbol_energy_is_power_over_spacing(ofdm, pilots):
    energy = np.sum(np.abs(pilots.symbols) ** 2, axis=1)
    assert np.allclose(energy, ofdm.tx_power / ofdm.subcarrier_spacing, rtol=1e-12)
    assert energy[0] == pytest.approx(8.333e-8, rel=1e-3)


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


@pytest.mark.parametrize("doppler", [True, False])
def test_mean_vector_is_the_noiseless_symbol_sum(ofdm, doppler):
    # Rotated by a bias's ramps, m is the symbol sum of an arrival whose
    # clock is off by that bias; rotated by their conjugates, by its negative.
    pilots = random_phase_pilots(ofdm, 4)
    window = hamming_window(ofdm.num_subcarriers)
    snap = make_snapshot([los_path(120e-9, gain=0.7 - 0.1j, velocity=9.0),
                          echo_path(310e-9, gain=-0.2 + 0.3j, index=0, velocity=-4.0)])
    period = ofdm.unambiguous_delay
    biases = np.array([0.0, 1e-6, -2.5e-6, period / 2, -period / 2, 1.3 * period])
    m = mean_vector(snap, ofdm, doppler_enabled=doppler)
    ramps = bias_ramps(biases, ofdm)
    assert ramps.shape == (len(biases), ofdm.num_subcarriers)
    for sign, rows in ((1.0, ramps * m), (-1.0, ramps.conj() * m)):
        for row, bias in zip(rows, biases):
            want = symbol_sum(synthesize_rx(snap, pilots, ofdm, doppler_enabled=doppler,
                                            clock_bias=sign * bias), pilots, window)
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_mean_vector_of_an_empty_channel_is_zero(ofdm):
    m = mean_vector(make_snapshot([]), ofdm)
    assert m.shape == (ofdm.num_subcarriers,) and not m.any()


def test_conjugate_ramps_are_the_negated_biases_ramps_bit_for_bit(ofdm):
    # The reverse arrival's rows, taken as conjugates of the forward ramps,
    # equal the ramps of the negated biases times m exactly: for biases of
    # 1 ns to 1 ms of either sign, and for random batches of biases and
    # channels.
    period = ofdm.unambiguous_delay
    rng = np.random.default_rng(23)

    def old_rows(m, biases):
        both = np.concatenate([biases, -biases])
        return signal._ramps([math.remainder(b, period) for b in both], ofdm) * m

    magnitudes = np.logspace(-9, -3, 61)
    batches = [np.concatenate([magnitudes, -magnitudes])]
    batches += [rng.normal(0.0, 10.0 ** rng.uniform(-9, -3), rng.integers(1, 33))
                for _ in range(200)]
    for biases in batches:
        delays = np.sort(rng.uniform(1e-9, 2e-6, rng.integers(1, 5)))
        snap = make_snapshot([los_path(delays[0], gain=complex(*rng.normal(size=2)),
                                       velocity=rng.uniform(-30, 30))]
                             + [echo_path(d, gain=complex(*rng.normal(size=2)), index=i,
                                          velocity=rng.uniform(-30, 30))
                                for i, d in enumerate(delays[1:])])
        m = mean_vector(snap, ofdm)
        ramps = bias_ramps(biases, ofdm)
        assert np.array_equal(np.concatenate([ramps * m, ramps.conj() * m]),
                              old_rows(m, biases))


def _chi2_interval(dof, z=5.3):
    """Wilson-Hilferty bounds on chi2(dof) / dof, z standard deviations
    out: each side is exceeded with probability about 6e-8."""
    h = 2.0 / (9.0 * dof)
    return tuple((1.0 - h + side * z * math.sqrt(h)) ** 3 for side in (-1.0, 1.0))


def test_noise_sum_has_the_scalar_chain_symbol_sum_statistics(ofdm):
    # Pilot amplitudes vary per symbol and subcarrier, so each subcarrier's
    # variance w^2 N0 / 2 sum_t 1/|p[t, n]|^2 per part weighs every symbol.
    rng = np.random.default_rng(4)
    base = random_phase_pilots(ofdm, 4)
    pilots = PilotGrid(base.symbols * rng.uniform(0.3, 2.0, base.symbols.shape))
    window = hamming_window(ofdm.num_subcarriers)
    var = window ** 2 * noise_variance(ofdm) / 2.0 * (np.abs(pilots.symbols) ** -2).sum(axis=0)

    rows = 4000
    z = noise_sum(np.random.default_rng(11), rows, noise_scale(pilots, ofdm))
    assert z.shape == (rows, ofdm.num_subcarriers)
    lo, hi = _chi2_interval(rows)
    for part in (z.real, z.imag):
        # Zero-mean parts: rows * (mean square) / var is chi2(rows) per subcarrier.
        ratio = (part ** 2).mean(axis=0) / var
        assert lo <= ratio.min() and ratio.max() <= hi, (ratio.min(), ratio.max())
    # Independent parts: rows * rho^2 is about chi2(1), below z^2 = 28.1.
    rho = (z.real * z.imag).sum(axis=0) / np.sqrt((z.real ** 2).sum(axis=0)
                                                  * (z.imag ** 2).sum(axis=0))
    assert np.max(rows * rho ** 2) <= 5.3 ** 2

    # The scalar chain's noise-only symbol sums over as many noise seeds:
    # sum_n |s_n|^2 / var_n is chi2(2 N_s) per seed, in both chains.
    seeds = 3000
    scalar = np.array([symbol_sum(synthesize_rx(make_snapshot([]), pilots, ofdm,
                                                 noise_seed=seed), pilots, window)
                       for seed in range(seeds)])
    lo, hi = _chi2_interval(2 * seeds)
    per_subcarrier = (np.abs(scalar) ** 2).mean(axis=0) / (2.0 * var)
    assert lo <= per_subcarrier.min() and per_subcarrier.max() <= hi
    lo, hi = _chi2_interval(2 * seeds * ofdm.num_subcarriers)
    assert lo <= per_subcarrier.mean() <= hi
    lo, hi = _chi2_interval(2 * rows * ofdm.num_subcarriers)
    assert lo <= ((np.abs(z) ** 2).mean(axis=0) / (2.0 * var)).mean() <= hi


def test_pilot_grid_shape_mismatch_rejected(ofdm):
    small = OfdmConfig(**{**ofdm.__dict__, "num_subcarriers": 64})
    small_pilots = make_pilots(small, "all_ones")
    with pytest.raises(ValueError):
        synthesize_rx(make_snapshot([los_path(1e-7)]), small_pilots, ofdm)
