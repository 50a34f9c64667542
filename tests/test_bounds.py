import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channels import echo_path, los_path, make_snapshot, random_multipath
from oracle_fim import finite_difference_fim
from slpos.bounds import (
    BoundReport,
    crb_delay,
    fim,
    reb_all_paths,
    reb_los_only,
    reb_waa,
    resolution_cell,
)
from slpos.constants import SPEED_OF_LIGHT
from slpos.propagation import Vec3, friis_gain
from slpos.signal import OfdmConfig, default_config, make_pilots


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
    assert report.reb_waa == pytest.approx(report.reb_los_only, rel=1e-12)


def test_waa_hand_arithmetic(ofdm, pilots):
    tau = 100e-9
    snap = make_snapshot([los_path(tau, gain=1.0 + 0j),
                          echo_path(tau + 10e-9, 0.5 + 0j)])
    report = reb_waa(snap, pilots, ofdm)
    assert report.weights[0] == pytest.approx(2 / 3, abs=1e-9)
    assert report.weights[1] == pytest.approx(1 / 3, abs=1e-9)
    assert report.merged_toa - tau == pytest.approx(10e-9 / 3, abs=1e-18)
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
    assert rep_b.merged_toa == pytest.approx(rep_a.merged_toa, rel=1e-12)
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
