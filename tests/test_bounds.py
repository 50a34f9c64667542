import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channels import (
    echo_path,
    los_path,
    make_snapshot,
    random_multipath,
    random_phase_pilots,
)
import slpos.cli
from oracle_fim import column_stack_fim, finite_difference_fim
from slpos import bounds, harness
from slpos.bounds import (
    BoundReport,
    _single_path_crb,
    crb_delay,
    fim,
    reb_all_paths,
    reb_los_only,
    reb_waa,
    resolution_cell,
)
from slpos.constants import SPEED_OF_LIGHT
from slpos.propagation import Vec3, friis_gain
from slpos.harness import RunConfig, run_bounds_sweep
from slpos.signal import (
    WORKING_RANGES,
    OfdmConfig,
    PilotGrid,
    default_config,
    make_pilots,
    noise_scale,
    noise_variance,
)


def friis_los_snapshot(distance_m, ofdm):
    gain = friis_gain(Vec3(0, 0, 0), Vec3(distance_m, 0, 0), ofdm.wavelength)
    return make_snapshot([los_path(distance_m / SPEED_OF_LIGHT, gain=gain)],
                         rx=Vec3(distance_m, 0, 0))


# --- FIM ---------------------------------------------------------------------

def _equilibrated(j):
    # Delay and gain entries differ by ~15 orders of magnitude in scale;
    # rank statements only make sense after diagonal scaling.
    d = np.sqrt(np.diag(j))
    return j / np.outer(d, d)


def test_single_path_fim_full_rank_and_matches_oracle(ofdm, pilots):
    paths = [los_path(150e-9, gain=0.4 - 0.3j)]
    j = fim(paths, pilots, ofdm)
    assert j.shape == (3, 3)
    assert np.linalg.matrix_rank(_equilibrated(j)) == 3
    j_fd = finite_difference_fim(paths, pilots, ofdm)
    assert np.linalg.norm(j - j_fd) / np.linalg.norm(j_fd) < 1e-6


def test_fim_is_symmetric_positive_semidefinite(ofdm, pilots):
    rng = np.random.default_rng(3)
    paths = random_multipath(rng, 3)
    j = fim(paths, pilots, ofdm)
    assert np.allclose(j, j.T, rtol=1e-9)
    eigvals = np.linalg.eigvalsh(j)
    assert eigvals.min() >= -1e-9 * np.linalg.norm(j)


def test_duplicate_paths_make_fim_singular(ofdm, pilots):
    paths = [los_path(200e-9, gain=0.5 + 0j), echo_path(200e-9, 0.5 + 0j)]
    j = fim(paths, pilots, ofdm)
    eigvals = np.abs(np.linalg.eigvalsh(_equilibrated(j)))
    # Identical gradient columns leave (at least) two null directions.
    assert np.sum(eigvals < 1e-9 * eigvals.max()) >= 2


def test_fim_scales_inversely_with_noise(ofdm, pilots):
    paths = [los_path(150e-9, gain=0.4 - 0.3j)]
    louder = OfdmConfig(**{**ofdm.__dict__, "noise_psd": ofdm.noise_psd * 10})
    np.testing.assert_allclose(fim(paths, pilots, louder), fim(paths, pilots, ofdm) / 10,
                               rtol=1e-12)


@pytest.mark.parametrize("accepted, rejected", [
    (WORKING_RANGES["tx_power"][1], 10 ** (61.0 / 10) * 1e-3),
    (WORKING_RANGES["tx_power"][0], 10 ** (-151.0 / 10) * 1e-3),
], ids=["tx_power-top", "tx_power-floor"])
def test_config_rejects_a_budget_outside_the_float_range(ofdm, accepted, rejected):
    # At each edge of the transmit power's working range (+60 and -150 dBm) a
    # unit-gain path keeps the FIM and its CRB finite, and the closed form
    # agrees with them; one dB beyond is rejected.
    config = OfdmConfig(**{**ofdm.__dict__, "tx_power": accepted})
    pilots = make_pilots(config)
    variance = crb_delay(fim([los_path(150e-9)], pilots, config))
    assert 0 < variance < math.inf
    assert _single_path_crb(1.0, pilots, config) == pytest.approx(variance, rel=1e-9)
    with pytest.raises(ValueError, match=r"tx_power must lie in \[1e-18, 1000\] W"):
        OfdmConfig(**{**ofdm.__dict__, "tx_power": rejected})


def test_every_working_range_corner_keeps_the_bound_and_the_noise_finite():
    # All 2^7 corners of OfdmConfig's working ranges, each at its shortest
    # symbol.  A unit-gain path's FIM gives the closed-form bound; the FIM is
    # skipped at the 32 corners with the largest grid (448 x 3300 symbols),
    # where it alone takes seconds.
    largest = WORKING_RANGES["num_symbols"][1] * WORKING_RANGES["num_subcarriers"][1]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for corner in itertools.product(*((lo, hi) for lo, hi, _ in WORKING_RANGES.values())):
            values = dict(zip(WORKING_RANGES, corner))
            config = OfdmConfig(**values, symbol_duration=1.0 / values["subcarrier_spacing"])
            grid = make_pilots(config)
            variance = _single_path_crb(1.0, grid, config)
            assert 0 < variance < math.inf
            if config.num_symbols * config.num_subcarriers < largest:
                assert crb_delay(fim([los_path(150e-9)], grid, config)) == pytest.approx(
                    variance, rel=1e-9)
            scale = noise_scale(grid, config)
            assert np.all(np.isfinite(scale)) and np.all(scale > 0)


def test_empty_path_list_rejected(ofdm, pilots):
    with pytest.raises(ValueError):
        fim([], pilots, ofdm)


def test_fim_oracle_agreement_random_configs(ofdm, pilots):
    rng = np.random.default_rng(17)
    for _ in range(20):
        paths = random_multipath(rng, int(rng.integers(1, 5)))
        j = fim(paths, pilots, ofdm)
        j_fd = finite_difference_fim(paths, pilots, ofdm)
        assert np.linalg.norm(j - j_fd) / np.linalg.norm(j_fd) < 1e-5


# --- CRB extraction ----------------------------------------------------------

def test_crb_of_diagonal_matrix():
    assert crb_delay(np.diag([4.0, 2.0, 1.0])) == pytest.approx(0.25)


def test_crb_of_singular_matrix_is_infinite(ofdm, pilots):
    paths = [los_path(200e-9, gain=0.5 + 0j), echo_path(200e-9, 0.5 + 0j)]
    assert crb_delay(fim(paths, pilots, ofdm)) == math.inf


def test_crb_rejects_nonsquare():
    with pytest.raises(ValueError):
        crb_delay(np.ones((2, 3)))


def test_crb_nonpositive_diagonal_is_infinite():
    assert crb_delay(np.diag([0.0, 1.0])) == math.inf


# --- one-path closed form ------------------------------------------------------

def _pilot_grid(ofdm, kind):
    if kind == "all_ones":
        return make_pilots(ofdm)
    grid = random_phase_pilots(ofdm, 5)
    if kind == "varying_amplitude":
        amplitudes = np.random.default_rng(6).uniform(0.3, 2.0, grid.symbols.shape)
        grid = PilotGrid(grid.symbols * amplitudes)
    return grid


@pytest.mark.parametrize("kind", ["all_ones", "seeded_random_phase", "varying_amplitude"])
def test_single_path_closed_form_matches_the_fim(ofdm, kind):
    pilots = _pilot_grid(ofdm, kind)
    rng = np.random.default_rng(41)
    for _ in range(50):
        delay = float(rng.uniform(0.0, 0.99 * ofdm.unambiguous_delay))
        gain = complex(10 ** rng.uniform(-9.0, 0.0) * np.exp(2j * np.pi * rng.uniform()))
        want = crb_delay(fim([los_path(delay, gain)], pilots, ofdm))
        assert 0 < want < math.inf
        assert _single_path_crb(gain, pilots, ofdm) == pytest.approx(want, rel=1e-12, abs=0)


def test_single_path_closed_form_is_infinite_without_information(ofdm, pilots):
    # A subnormal gain carries no delay information, nor does pilot energy
    # on a single subcarrier: at subcarrier 0 the delay column vanishes, and
    # elsewhere it is parallel to the gain columns.
    cases = [(complex(5e-324, 0.0), pilots), (complex(0.0, -1e-310), pilots)]
    for k in (0, 80):
        symbols = np.zeros_like(pilots.symbols)
        symbols[:, k] = pilots.symbols[:, k]
        cases.append((0.3 + 0.1j, PilotGrid(symbols)))
    for gain, grid in cases:
        assert crb_delay(fim([los_path(150e-9, gain)], grid, ofdm)) == math.inf
        assert _single_path_crb(gain, grid, ofdm) == math.inf
        assert reb_los_only(make_snapshot([los_path(150e-9, gain)]), grid, ofdm) == math.inf


def _single_path_crb_from_scratch(gain, pilots, ofdm):
    # The closed form with the pilot moments recomputed from the grid.
    energy = (pilots.symbols.real ** 2 + pilots.symbols.imag ** 2).sum(axis=0)
    n = np.arange(energy.size, dtype=float)
    p0, p1, p2 = float(energy.sum()), float(energy @ n), float(energy @ (n * n))
    ramp = 2.0 * math.pi * ofdm.subcarrier_spacing
    unit_info = (2.0 / noise_variance(ofdm)) * (ramp * ramp) * (p2 - p1 * p1 / p0)
    return 1.0 / unit_info / abs(gain) / abs(gain)


def test_one_path_bound_follows_each_pilot_grid_of_a_process():
    # The pilot moments are kept per grid.  Grids of the same shape for two
    # --tx-power-dbm values, used in turn in one process (each freed before
    # the next is made), each give the closed form of their own symbols.
    gain = 1e-3 * complex(math.cos(0.7), math.sin(0.7))
    snap = make_snapshot([los_path(200e-9, gain), echo_path(230e-9, 4e-4 + 1e-4j)])
    seen = set()
    for tx_power_dbm in (10.0, -20.0, 10.0, -20.0, 23.0):
        ofdm = slpos.cli._radio_budget(tx_power_dbm, 8.0)
        grid = make_pilots(ofdm)
        want = _single_path_crb_from_scratch(gain, grid, ofdm)
        assert _single_path_crb(gain, grid, ofdm) == want
        assert reb_waa(snap, grid, ofdm).reb_los_only == SPEED_OF_LIGHT * math.sqrt(want)
        seen.add(want)
    assert len(seen) == 3


# --- FIM against its column-stacked form ----------------------------------------

@pytest.mark.parametrize("scenario_id, link", [(1, "rsu-vehicle"), (1, "rsu-bicycle"),
                                               (2, "vehicle-bicycle")])
def test_sweep_fims_are_the_column_stacked_fims_bit_for_bit(monkeypatch, scenario_id, link):
    # fim writes its gradient columns into one array; the Gram matrix it
    # forms is the one of the columns built and stacked one by one, to the
    # last bit, in every cell of two or more paths that a bounds sweep
    # builds a FIM for.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    cells = []

    def spy(paths, pilots, config):
        cells.append((paths, pilots, config))
        return fim(paths, pilots, config)

    monkeypatch.setattr(bounds, "fim", spy)
    run_bounds_sweep(RunConfig(scenario_id=scenario_id, link=link))
    assert len(cells) > 100
    for paths, pilots, config in cells:
        assert len(paths) >= 2
        assert np.array_equal(fim(paths, pilots, config),
                              column_stack_fim(paths, pilots, config))


# --- resolution cell ---------------------------------------------------------

def test_cell_half_width(ofdm):
    half_width = 1.5 / (ofdm.num_subcarriers * ofdm.subcarrier_spacing)
    assert half_width == pytest.approx(74.85e-9, rel=1e-3)
    assert half_width * SPEED_OF_LIGHT == pytest.approx(22.44, rel=1e-3)


def test_cell_keeps_close_paths_only(ofdm):
    tau = 100e-9
    far = tau + 40.0 / SPEED_OF_LIGHT  # 40 m excess: outside
    near = tau + 2.96 / SPEED_OF_LIGHT  # ground-bounce excess: inside
    snap = make_snapshot([los_path(tau), echo_path(near, 0.3 + 0j, 0),
                          echo_path(far, 0.3 + 0j, 1)])
    assert resolution_cell(snap, 1.5, ofdm) == [0, 1]
    only_far = make_snapshot([los_path(tau), echo_path(far, 0.3 + 0j, 0)])
    assert resolution_cell(only_far, 1.5, ofdm) == [0]


def test_cell_requires_los(ofdm):
    snap = make_snapshot([echo_path(100e-9, 1.0 + 0j)])
    with pytest.raises(ValueError):
        resolution_cell(snap, 1.5, ofdm)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 2.5])
def test_cell_beta_bounds(ofdm, beta):
    snap = make_snapshot([los_path(100e-9)])
    with pytest.raises(ValueError):
        resolution_cell(snap, beta, ofdm)


# --- line-of-sight-only bound ------------------------------------------------

def test_reb_los_far_anchor(ofdm, pilots):
    value = reb_los_only(friis_los_snapshot(70.5323, ofdm), pilots, ofdm)
    assert 0.0136 <= value <= 0.0184  # 0.016 m +/- 15%


def test_reb_los_near_anchor(ofdm, pilots):
    value = reb_los_only(friis_los_snapshot(8.6493, ofdm), pilots, ofdm)
    assert 0.0017 <= value <= 0.0023  # 0.002 m +/- 15%


def test_reb_los_halves_when_gain_doubles(ofdm, pilots):
    snap1 = make_snapshot([los_path(200e-9, gain=3e-4 + 0j)])
    snap2 = make_snapshot([los_path(200e-9, gain=6e-4 + 0j)])
    v1 = reb_los_only(snap1, pilots, ofdm)
    v2 = reb_los_only(snap2, pilots, ofdm)
    assert v1 == pytest.approx(2 * v2, rel=1e-9)


def test_reb_los_requires_los(ofdm, pilots):
    snap = make_snapshot([echo_path(100e-9, 1.0 + 0j)])
    with pytest.raises(ValueError):
        reb_los_only(snap, pilots, ofdm)


# --- all-paths bound ---------------------------------------------------------

def test_reb_all_equals_los_for_singleton_cell(ofdm, pilots):
    far = 100e-9 + 40.0 / SPEED_OF_LIGHT
    snap = make_snapshot([los_path(100e-9, gain=2e-4 + 0j),
                          echo_path(far, 1e-4 + 0j)])
    assert reb_all_paths(snap, pilots, ofdm) == reb_los_only(snap, pilots, ofdm)


def test_reb_all_infinite_for_coincident_cell_paths(ofdm, pilots):
    snap = make_snapshot([los_path(100e-9, gain=2e-4 + 0j),
                          echo_path(100e-9, 2e-4 + 0j)])
    assert reb_all_paths(snap, pilots, ofdm) == math.inf


def test_reb_all_los_plus_ground_bounce_vs_oracle(ofdm, pilots):
    los_gain = friis_gain(Vec3(0, 0, 10), Vec3(1.6, 0, 1.5), ofdm.wavelength)
    ground_len = math.hypot(1.6, 11.5)
    ground_gain = -0.5 * friis_gain(Vec3(0, 0, 10), Vec3(1.6, 0, -1.5), ofdm.wavelength)
    paths = [los_path(8.6493 / SPEED_OF_LIGHT, gain=los_gain),
             echo_path(ground_len / SPEED_OF_LIGHT, ground_gain)]
    snap = make_snapshot(paths)
    value = reb_all_paths(snap, pilots, ofdm)
    assert math.isfinite(value)
    assert value >= reb_los_only(snap, pilots, ofdm)
    # Cross-check the underlying matrix against the finite-difference oracle.
    j = fim(paths, pilots, ofdm)
    j_fd = finite_difference_fim(paths, pilots, ofdm)
    assert np.linalg.norm(j - j_fd) / np.linalg.norm(j_fd) < 1e-5


def test_information_ordering_random_channels(ofdm, pilots):
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(100):
        paths = random_multipath(rng, int(rng.integers(2, 5)),
                                 delay_lo=50e-9, delay_hi=250e-9)
        snap = make_snapshot(paths)
        all_v = reb_all_paths(snap, pilots, ofdm)
        los_v = reb_los_only(snap, pilots, ofdm)
        if math.isfinite(all_v):
            assert all_v >= los_v
            checked += 1
    assert checked > 30


# --- weighted-average approximation -------------------------------------------

def test_waa_reverts_to_los_only_for_single_path(ofdm, pilots):
    snap = make_snapshot([los_path(180e-9, gain=1.5e-4 * np.exp(0.4j))])
    report = reb_waa(snap, pilots, ofdm)
    assert report.cell_indices == (0,)
    assert report.weights == (1.0,)
    assert report.waa_bias_m == 0.0
    assert report.reb_waa == report.reb_all_paths == report.reb_los_only


def test_waa_hand_arithmetic(ofdm, pilots):
    tau = 100e-9
    snap = make_snapshot([los_path(tau, gain=1.0 + 0j),
                          echo_path(tau + 10e-9, 0.5 + 0j)])
    report = reb_waa(snap, pilots, ofdm)
    assert report.weights[0] == pytest.approx(2 / 3, abs=1e-9)
    assert report.weights[1] == pytest.approx(1 / 3, abs=1e-9)
    assert report.waa_bias_m / SPEED_OF_LIGHT == pytest.approx(10e-9 / 3, abs=1e-18)
    assert report.waa_bias_m == pytest.approx(0.9993, abs=1e-4)
    assert report.merged_gain == pytest.approx(1.5 + 0j, abs=1e-9)


def test_waa_at_least_the_bias(ofdm, pilots):
    rng = np.random.default_rng(9)
    for _ in range(50):
        paths = random_multipath(rng, int(rng.integers(1, 5)),
                                 delay_lo=80e-9, delay_hi=140e-9)
        report = reb_waa(make_snapshot(paths), pilots, ofdm)
        assert report.reb_waa >= report.waa_bias_m


def test_waa_destructive_interference_flag(ofdm, pilots):
    tau = 100e-9
    snap = make_snapshot([los_path(tau, gain=1.0 + 0j),
                          echo_path(tau, -1.0 + 0j)])
    report = reb_waa(snap, pilots, ofdm)
    assert report.destructive_interference
    assert report.reb_waa == math.inf


def test_waa_weight_normalization(ofdm, pilots):
    rng = np.random.default_rng(31)
    for _ in range(30):
        paths = random_multipath(rng, int(rng.integers(1, 6)),
                                 delay_lo=90e-9, delay_hi=160e-9)
        report = reb_waa(make_snapshot(paths), pilots, ofdm)
        assert sum(report.weights) == pytest.approx(1.0, abs=1e-12)
        assert all(0 < w <= 1 for w in report.weights)


def test_waa_report_repeats_the_standalone_bounds(ofdm, pilots):
    rng = np.random.default_rng(57)
    n_inf = 0
    for _ in range(200):
        snap = make_snapshot(random_multipath(rng, int(rng.integers(1, 5)),
                                              delay_lo=90e-9, delay_hi=160e-9))
        report = reb_waa(snap, pilots, ofdm)
        assert report.reb_los_only == reb_los_only(snap, pilots, ofdm)
        assert report.reb_all_paths == reb_all_paths(snap, pilots, ofdm)
        n_inf += math.isinf(report.reb_all_paths)
    assert 0 < n_inf < 200


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=30.0,
                       allow_nan=False, allow_infinity=False))
def test_waa_scale_equivariance(scale):
    ofdm = default_config()
    pilots = make_pilots(ofdm, "all_ones")
    base = [los_path(120e-9, gain=1e-4 + 4e-5j), echo_path(140e-9, -6e-5 + 2e-5j)]
    scaled = [los_path(120e-9, gain=(1e-4 + 4e-5j) * scale),
              echo_path(140e-9, (-6e-5 + 2e-5j) * scale)]
    rep_a = reb_waa(make_snapshot(base), pilots, ofdm)
    rep_b = reb_waa(make_snapshot(scaled), pilots, ofdm)
    assert rep_b.waa_bias_m == pytest.approx(rep_a.waa_bias_m, rel=1e-12)
    var_a = (rep_a.reb_waa / SPEED_OF_LIGHT) ** 2 - (rep_a.waa_bias_m / SPEED_OF_LIGHT) ** 2
    var_b = (rep_b.reb_waa / SPEED_OF_LIGHT) ** 2 - (rep_b.waa_bias_m / SPEED_OF_LIGHT) ** 2
    assert var_b == pytest.approx(var_a / scale ** 2, rel=1e-6)


def test_waa_bias_linear_in_echo_delay(ofdm, pilots):
    tau = 100e-9
    biases = []
    offsets = [5e-9, 10e-9, 20e-9, 40e-9]
    for off in offsets:
        snap = make_snapshot([los_path(tau, gain=1.0 + 0j),
                              echo_path(tau + off, 0.5 + 0j)])
        biases.append(reb_waa(snap, pilots, ofdm).waa_bias_m)
    for off, bias in zip(offsets, biases):
        assert bias == pytest.approx(SPEED_OF_LIGHT * off / 3.0, rel=1e-9)
