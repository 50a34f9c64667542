import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channels import echo_path, los_path, make_snapshot
from oracle_coarse import dense_coarse_search
from slpos.bounds import reb_los_only, reb_waa
from slpos import estimation
from slpos.constants import SPEED_OF_LIGHT
from slpos.estimation import (
    PEAK_POLICIES,
    DelaySpectrum,
    coarse_search,
    delay_spectrum,
    estimate_toa,
    hamming_window,
    low_confidence,
    rtt_range,
)
from slpos.propagation import Vec3, friis_gain
from slpos.signal import OfdmConfig, RxSymbols, make_pilots, synthesize_rx


def spectrum_of(paths, ofdm, pilots, window=None, oversample=16, noise_seed=None,
                clock_bias=0.0):
    rx = synthesize_rx(make_snapshot(paths), pilots, ofdm, noise_seed=noise_seed,
                       clock_bias=clock_bias)
    return delay_spectrum(rx, pilots, ofdm, window=window, oversample=oversample)


# --- windows -------------------------------------------------------------------

def test_hamming_endpoints_and_midpoint():
    w = hamming_window(167)
    assert w[0] == pytest.approx(0.08, abs=1e-12)
    assert w[83] == pytest.approx(1.0, abs=1e-12)


def test_hamming_symmetry():
    w = hamming_window(167)
    assert np.allclose(w, w[::-1])


@pytest.mark.parametrize("n", [0, 1])
def test_window_needs_two_points(n):
    with pytest.raises(ValueError):
        hamming_window(n)


# --- delay spectrum ------------------------------------------------------------

def test_single_path_peak_within_one_bin(ofdm, pilots):
    tau = 100e-9
    spec = spectrum_of([los_path(tau)], ofdm, pilots, oversample=16)
    peak_toa = np.argmax(spec.power) * spec.bin_spacing
    assert abs(peak_toa - tau) <= spec.bin_spacing
    assert spec.bin_spacing == pytest.approx(1 / (16 * 167 * 120e3))


def test_near_zero_delay_peaks_at_bin_zero(ofdm, pilots):
    # Apparent delay collapsed to zero through the clock-bias term.
    tau = 100e-9
    spec = spectrum_of([los_path(tau)], ofdm, pilots, window=np.ones(167),
                       oversample=8, clock_bias=-tau)
    assert np.argmax(spec.power) == 0
    assert np.all(spec.power[1:] < spec.power[0])


def test_two_separated_paths_give_two_maxima(ofdm, pilots):
    tau = 200e-9
    sep = 3.0 / (ofdm.num_subcarriers * ofdm.subcarrier_spacing)
    spec = spectrum_of([los_path(tau), echo_path(tau + sep, 0.9 + 0j)],
                       ofdm, pilots, oversample=16)
    power = spec.power
    local_max = np.flatnonzero((power > np.roll(power, 1)) & (power >= np.roll(power, -1)))
    strong = local_max[power[local_max] > power.max() * 10 ** (-2.0)]
    in_window = [k for k in strong
                 if tau - 50e-9 < k * spec.bin_spacing < tau + sep + 50e-9]
    assert len(in_window) == 2


def test_zero_pilot_entry_rejected(ofdm, pilots):
    rx = synthesize_rx(make_snapshot([los_path(1e-7)]), pilots, ofdm)
    broken = make_pilots(ofdm, "all_ones")
    broken.symbols[0, 0] = 0.0
    with pytest.raises(ValueError):
        delay_spectrum(rx, broken, ofdm)


def test_bad_oversample_rejected(ofdm, pilots):
    rx = synthesize_rx(make_snapshot([los_path(1e-7)]), pilots, ofdm)
    with pytest.raises(ValueError):
        delay_spectrum(rx, pilots, ofdm, oversample=0)


@pytest.mark.parametrize("n_sub, oversample", [(167, 16), (167, 1), (64, 4), (7, 3)])
@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
def test_delay_spectrum_matches_zero_padded_ifft(ofdm, n_sub, oversample, batch):
    cfg = OfdmConfig(**{**ofdm.__dict__, "num_subcarriers": n_sub})
    grid_pilots = make_pilots(cfg, "seeded_random_phase", seed=2)
    rng = np.random.default_rng(n_sub * oversample)
    shape = batch + (cfg.num_symbols, n_sub)
    rx = RxSymbols(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    spec = delay_spectrum(rx, grid_pilots, cfg, oversample=oversample)
    k = oversample * n_sub
    compensated = (hamming_window(n_sub) * rx.symbols / grid_pilots.symbols).sum(axis=-2)
    expected = np.abs(np.fft.ifft(compensated, n=k)) ** 2
    assert spec.power.shape == batch + (k,)
    assert spec.bin_spacing == 1.0 / (k * cfg.subcarrier_spacing)
    np.testing.assert_allclose(spec.power, expected, rtol=0,
                               atol=1e-12 * expected.max())


def test_power_from_products_is_the_squares_bit_for_bit():
    # _idft_power and zoom form |x|^2 as re * re + im * im on the real and
    # imaginary views; on random batches of coarse IDFTs and zoom DTFTs
    # that equals re ** 2 + im ** 2 exactly.
    rng = np.random.default_rng(31)
    _, dtft = estimation._zoom_kernels(167, 16)
    for _ in range(400):
        shape = (int(rng.integers(1, 65)), 167)
        c = 10.0 ** rng.uniform(-60, 60) * (rng.standard_normal(shape)
                                           + 1j * rng.standard_normal(shape))
        coarse = np.fft.ifft(c, n=512, axis=-1)
        assert np.array_equal(estimation._idft_power(c, 512),
                              coarse.real ** 2 + coarse.imag ** 2)
        values = c @ dtft[:, :int(rng.integers(3, 257))]
        re, im = values.real, values.imag
        assert np.array_equal(re * re + im * im, values.real ** 2 + values.imag ** 2)


def _coarse_rows(rng, rows, n_sub, length):
    """A batch of windowed symbol sums of four kinds, mixed at random:
    noise only; one path whose coarse peak lies within two coarse bins of
    bin 0 or of bin L - 1, over noise; ten paths of comparable strength;
    and an impulse, whose coarse power is flat, so that every sample
    qualifies."""
    n = np.arange(n_sub)
    batch = rng.standard_normal((rows, n_sub)) + 1j * rng.standard_normal((rows, n_sub))
    for row, kind in enumerate(rng.integers(0, 4, rows)):
        if kind == 1:
            peak = rng.uniform(-2.0, 2.0)
            batch[row] += 10 ** rng.uniform(0, 3) * np.exp(2j * np.pi * n * peak / length)
        elif kind == 2:
            peaks = rng.uniform(0, length, 10)
            batch[row] += np.exp(2j * np.pi * np.outer(n, peaks) / length).sum(axis=1)
        elif kind == 3:
            batch[row] = 0
            batch[row, 0] = rng.uniform(0.5, 2.0)
    return batch * hamming_window(n_sub)


@pytest.mark.parametrize("oversample", [1, 2, 16])
def test_coarse_search_equals_the_dense_oracle(oversample):
    # The zoom windows come from the few coarse samples above the margin;
    # they equal, row for row, those of the dense offset matrix (coarse
    # length K = 167 at 1x and 334 at 2x, not powers of two, and 512 at 16x).
    n_sub = 167
    length = estimation._coarse_length(n_sub, oversample)
    assert length == (167, 334, 512)[(1, 2, 16).index(oversample)]
    rng = np.random.default_rng(oversample)
    for rows in [1, 64, *rng.integers(1, 65, 30)]:
        c = _coarse_rows(rng, int(rows), n_sub, length)
        for policy in PEAK_POLICIES:
            for threshold_db in (0.0, 6.0, 40.0):
                start, width = coarse_search(c, oversample, policy, threshold_db)
                want_start, want_width = dense_coarse_search(c, oversample, policy,
                                                             threshold_db)
                assert np.array_equal(start, want_start)
                assert np.array_equal(width, want_width)


def test_pilot_invariance(ofdm):
    ones = make_pilots(ofdm, "all_ones")
    randomized = make_pilots(ofdm, "seeded_random_phase", seed=5)
    paths = [los_path(150e-9, gain=0.3 + 0.1j), echo_path(190e-9, -0.2 + 0.25j)]
    spec_a = spectrum_of(paths, ofdm, ones, oversample=4)
    rx_b = synthesize_rx(make_snapshot(paths), randomized, ofdm, noise_seed=None)
    spec_b = delay_spectrum(rx_b, randomized, ofdm, oversample=4)
    np.testing.assert_allclose(spec_a.power, spec_b.power, atol=1e-10 * spec_a.power.max())


# --- time-of-arrival estimation --------------------------------------------------

def test_noiseless_toa_recovery_under_5_cm(ofdm, pilots):
    rng = np.random.default_rng(7)
    for _ in range(20):
        tau = rng.uniform(10e-9, 1e-6)
        spec = spectrum_of([los_path(tau)], ofdm, pilots, oversample=16)
        est = estimate_toa(spec)
        assert est.interpolated
        assert abs(est.toa - tau) * SPEED_OF_LIGHT < 0.05


def test_global_peak_bias_tracks_merged_toa(ofdm, pilots):
    # In the deeply unresolvable regime the peak pull follows the
    # amplitude-weighted merge to within a factor of two.
    tau = 200e-9
    for offset in (4e-9, 8e-9, 12e-9, 16e-9, 20e-9):
        paths = [los_path(tau, gain=1.0 + 0j), echo_path(tau + offset, 0.5 + 0j)]
        spec = spectrum_of(paths, ofdm, pilots, oversample=16)
        est = estimate_toa(spec, policy="global_peak")
        est_bias = (est.toa - tau) * SPEED_OF_LIGHT
        waa_bias = reb_waa(make_snapshot(paths), pilots, ofdm).waa_bias_m
        assert 0.5 * waa_bias <= est_bias <= 2.0 * waa_bias


def test_first_peak_picks_earlier_path(ofdm, pilots):
    tau = 200e-9
    paths = [los_path(tau, gain=0.8 + 0j), echo_path(tau + 200e-9, 1.0 + 0j)]
    spec = spectrum_of(paths, ofdm, pilots, oversample=16)
    late = estimate_toa(spec, policy="global_peak")
    early = estimate_toa(spec, policy="first_peak", threshold_db=6.0)
    assert abs(late.toa - (tau + 200e-9)) < 10e-9
    assert abs(early.toa - tau) < 10e-9


def test_all_zero_spectrum_rejected():
    spec = DelaySpectrum(power=np.zeros(64), bin_spacing=1e-9)
    with pytest.raises(ValueError):
        estimate_toa(spec)


def test_unknown_policy_rejected(ofdm, pilots):
    spec = spectrum_of([los_path(1e-7)], ofdm, pilots)
    with pytest.raises(ValueError):
        estimate_toa(spec, policy="psychic")


def test_shift_theorem(ofdm, pilots):
    base_tau = 150e-9
    delta = 37e-9
    spec_a = spectrum_of([los_path(base_tau), echo_path(base_tau + 60e-9, 0.4 + 0j)],
                         ofdm, pilots, oversample=16)
    spec_b = spectrum_of([los_path(base_tau + delta),
                          echo_path(base_tau + delta + 60e-9, 0.4 + 0j)],
                         ofdm, pilots, oversample=16)
    shift_bins = (np.argmax(spec_b.power) - np.argmax(spec_a.power)) % len(spec_a.power)
    assert shift_bins == pytest.approx(delta / spec_a.bin_spacing, abs=1.0)
    toa_a = estimate_toa(spec_a).toa
    toa_b = estimate_toa(spec_b).toa
    assert (toa_b - toa_a) == pytest.approx(delta, abs=0.02 / SPEED_OF_LIGHT)


def test_estimator_consistency_with_crb(ofdm, pilots):
    d = 20.0
    gain = friis_gain(Vec3(0, 0, 0), Vec3(d, 0, 0), ofdm.wavelength)
    paths = [los_path(d / SPEED_OF_LIGHT, gain=gain)]
    snap = make_snapshot(paths)
    reb = reb_los_only(snap, pilots, ofdm)
    estimates = []
    for seed in range(100):
        rx = synthesize_rx(snap, pilots, ofdm, noise_seed=seed)
        spec = delay_spectrum(rx, pilots, ofdm, oversample=16)
        estimates.append(estimate_toa(spec).toa)
    sample_std = np.std(estimates) * SPEED_OF_LIGHT
    assert reb / 2 <= sample_std <= reb * 2


def test_low_confidence_flags_noise_only_spectrum(ofdm, pilots):
    signal = spectrum_of([los_path(1e-7)], ofdm, pilots, noise_seed=1)
    assert not low_confidence(signal)
    noise_only = spectrum_of([], ofdm, pilots, noise_seed=1)
    assert low_confidence(noise_only)


# --- round-trip ranging -----------------------------------------------------------

def test_rtt_bias_cancellation():
    d = 30.0
    tau = d / SPEED_OF_LIGHT
    bias = 1e-6
    m = rtt_range(tau + bias, tau - bias, 0.0, one_way_toa_var=1e-18)
    assert m.distance == pytest.approx(d, abs=1e-9)


def test_rtt_processing_time_removal():
    d = 30.0
    tau = d / SPEED_OF_LIGHT
    proc = 2e-6
    m = rtt_range(tau + 1e-6, tau - 1e-6 + proc, proc, one_way_toa_var=1e-18)
    assert m.distance == pytest.approx(d, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(bias_ns=st.integers(min_value=-10_000, max_value=10_000),
       d_cm=st.integers(min_value=100, max_value=20_000))
def test_rtt_bias_cancellation_property(bias_ns, d_cm):
    d = d_cm * 0.01
    tau = d / SPEED_OF_LIGHT
    bias = bias_ns * 1e-9
    m = rtt_range(tau + bias, tau - bias, 0.0, one_way_toa_var=1e-18)
    assert m.distance == pytest.approx(d, abs=1e-9)
    # Spectrum arrivals are known only modulo the alias period; the modular
    # combination cancels biases beyond half a period as well.
    period = 1 / 120e3
    m = rtt_range((tau + bias) % period, (tau - bias) % period, period=period)
    assert m.distance == pytest.approx(d, abs=1e-9)


def test_rtt_sigma_from_one_way_variance():
    var = (1e-9) ** 2
    m = rtt_range(2e-7, 2e-7, 0.0, one_way_toa_var=var)
    assert m.sigma == pytest.approx(0.5 * SPEED_OF_LIGHT * math.sqrt(2 * var), rel=1e-12)


def test_rtt_negative_round_trip_rejected():
    with pytest.raises(ValueError):
        rtt_range(1e-7, -2e-7, 0.0, one_way_toa_var=1e-18)
    with pytest.raises(ValueError):
        rtt_range(1e-7, 1e-7, 1e-6, one_way_toa_var=1e-18)


def test_rtt_variance_doubles_single_link(ofdm):
    # Monte Carlo: var of the combined range is twice the per-link share.
    rng = np.random.default_rng(12)
    sigma_toa = 2e-9
    d = 25.0
    tau = d / SPEED_OF_LIGHT
    n = 10_000
    biases = rng.normal(0.0, 1e-6, n)
    fwd = tau + biases + rng.normal(0.0, sigma_toa, n)
    rev = tau - biases + rng.normal(0.0, sigma_toa, n)
    dists = np.array([rtt_range(f, r, 0.0, one_way_toa_var=sigma_toa ** 2).distance
                      for f, r in zip(fwd, rev)])
    single_link_var = SPEED_OF_LIGHT ** 2 * sigma_toa ** 2 / 4
    assert np.var(dists) == pytest.approx(2 * single_link_var, rel=0.2)


def test_negative_apparent_delay_wraps_and_round_trip_cancels(ofdm, pilots):
    # A clock bias larger than the propagation delay aliases the arrival to
    # the top of the window; the estimate stays in [0, 1/spacing) and the
    # modular round trip with the oppositely biased reverse arrival
    # recovers the distance.
    tau = 100e-9
    bias = -2e-6
    period = 1 / ofdm.subcarrier_spacing
    fwd = estimate_toa(spectrum_of([los_path(tau)], ofdm, pilots, clock_bias=bias)).toa
    rev = estimate_toa(spectrum_of([los_path(tau)], ofdm, pilots, clock_bias=-bias)).toa
    assert period / 2 < fwd < period
    m = rtt_range(fwd, rev, period=period)
    assert m.distance == pytest.approx(tau * SPEED_OF_LIGHT, abs=0.05)
