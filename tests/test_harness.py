import dataclasses
import importlib
import importlib.util
import math
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

from channels import SQUARE, make_snapshot, symbol_sum
from oracle_peak import full_spectrum_peak
import slpos
from slpos import estimation, harness
from slpos.bounds import fim
from slpos.cli import main
from slpos.constants import SPEED_OF_LIGHT
from slpos.estimation import (
    PEAK_POLICIES,
    coarse_search,
    delay_spectrum,
    estimate_toa,
    hamming_window,
    round_trip_distance,
    rtt_range,
    zoom,
)
from slpos.harness import (
    CHECK_RANGES,
    CSV_COLUMNS,
    LINKS,
    REQUIREMENT_SETS,
    CurvePoint,
    RequirementScore,
    RunConfig,
    coherence_and_latency_check,
    export_csv,
    read_csv,
    run_bounds_sweep,
    run_positioning_demo,
    run_ranging_sweep,
)
from slpos.positioning import MAX_ITERS, Anchor, range_position_crb, solve_fixes
from slpos.propagation import (
    MAX_COORDINATE_M,
    BuildingBox,
    ScenarioConfig,
    Vec3,
    build_scenario,
    sample_trajectory,
    trace_paths,
)
from slpos.signal import (
    OfdmConfig,
    bias_ramps,
    default_config,
    make_pilots,
    mean_vector,
    synthesize_rx,
)

DATA = pathlib.Path(__file__).parent / "data"
ROOT = pathlib.Path(__file__).parent.parent


@pytest.fixture
def one_process(monkeypatch):
    """Every sweep runs in this process, where a spy sees all of its calls."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)


# --- run configuration -----------------------------------------------------------

def test_link_scenario_consistency():
    with pytest.raises(ValueError, match="the rsu-vehicle link exists only in scenario 1"):
        RunConfig(scenario_id=2, link="rsu-vehicle")
    with pytest.raises(ValueError, match="the vehicle-bicycle link exists only in scenario 2"):
        RunConfig(scenario_id=1, link="vehicle-bicycle")
    with pytest.raises(ValueError):
        RunConfig(scenario_id=1, link="rsu-vehicle", trials=0)
    with pytest.raises(ValueError, match="unknown link 'teleporter'"):
        RunConfig(scenario_id=1, link="teleporter")


@pytest.mark.parametrize("sweep", [run_ranging_sweep, run_bounds_sweep])
def test_scenario_without_the_link_rejected_before_any_sample(sweep):
    # The config names scenario 1, but the geometry handed in has no RSU.
    with pytest.raises(ValueError, match="the rsu-bicycle link exists only in scenario 1"):
        sweep(RunConfig(scenario_id=1, link="rsu-bicycle"), scenario=build_scenario(2))


@pytest.mark.parametrize("field, value", [
    ("peak_policy", "psychic"),
    ("first_peak_threshold_db", math.nan),
    ("first_peak_threshold_db", -3.0),
    ("first_peak_threshold_db", math.inf),
    ("oversample", 0),
    ("oversample", harness.RUN_RANGES["oversample"][1] + 1),
    ("beta", 1.0),
    ("beta", 2.0),
    ("beta", math.nan),
    ("trials", 2.5),
    ("trials", True),
    ("oversample", 2.5),
    ("seed", 1.5),
])
def test_estimator_knobs_validated_up_front(field, value):
    with pytest.raises(ValueError):
        RunConfig(scenario_id=1, link="rsu-vehicle", **{field: value})


def test_largest_oversample_accepted():
    assert RunConfig(scenario_id=1, link="rsu-vehicle",
                     oversample=harness.RUN_RANGES["oversample"][1]).oversample == 256


def test_zero_first_peak_threshold_accepted():
    assert RunConfig(scenario_id=1, link="rsu-vehicle",
                     first_peak_threshold_db=0.0).first_peak_threshold_db == 0.0


# --- ranging sweep ----------------------------------------------------------------

def test_sweep_covers_the_lane():
    cfg = RunConfig(scenario_id=1, link="rsu-vehicle", trials=1, seed=0)
    points = run_ranging_sweep(cfg)
    assert len(points) == 101
    assert points[0].sweep_coord == pytest.approx(-70.0)
    assert points[-1].sweep_coord == pytest.approx(70.0)
    for p in points:
        assert p.n_cell_paths <= p.n_paths
        assert p.rmse >= 0


def test_blocked_samples_flagged_with_nan_bounds():
    # A slab between the two lanes, clear of both, blocks the start of the sweep.
    slab = BuildingBox(Vec3(-7.0, -38.0, 15.0), Vec3(4.0, 4.0, 15.0))
    scenario = ScenarioConfig(
        scenario_id=2, rsu=None, vehicle_start=Vec3(1.6, -70.0, 1.5),
        bicycle_start=Vec3(-16.4, -7.0, 1.0), vehicle_speed=14.0, bicycle_speed=4.0,
        buildings=(slab,), measurement_interval=0.1,
    )
    cfg = RunConfig(scenario_id=2, link="vehicle-bicycle", trials=1, seed=0)
    points = run_ranging_sweep(cfg, scenario=scenario)
    blocked = [p for p in points if not p.los_present]
    assert blocked, "slab should block some samples"
    for p in blocked:
        assert math.isnan(p.reb_los) and math.isnan(p.reb_all)
        assert math.isnan(p.reb_waa) and math.isnan(p.waa_bias)
        assert p.n_cell_paths == 0
        assert p.rmse >= 0  # raw error still reported


def test_rmse_does_not_depend_on_clock_bias_std():
    # The two-way exchange cancels a clock bias of any size, up to and
    # beyond half the alias period P = 1/subcarrier_spacing.
    period = default_config().unambiguous_delay
    runs = {}
    for std in (0.0, 1e-6, 4e-6, period / 2, period):
        cfg = RunConfig(scenario_id=2, link="vehicle-bicycle", trials=3, seed=7,
                        clock_bias_std=std)
        runs[std] = [p.rmse for p in run_ranging_sweep(cfg)]
    reference = runs[0.0]
    for std, rmses in runs.items():
        assert statistics.median(rmses) == pytest.approx(statistics.median(reference),
                                                         rel=0.05), std
        assert sum(r > 5.0 for r in rmses) <= sum(r > 5.0 for r in reference), std


@pytest.mark.usefixtures("one_process")
@pytest.mark.parametrize("link", LINKS)
def test_every_sweep_sample_traces_a_reciprocal_channel(link, monkeypatch):
    # Both directions of a sample's round trips share the one traced channel,
    # so tracing each sample's link backwards must give that channel again.
    calls = []

    def recording_trace(*args, **kwargs):
        calls.append((args, kwargs))
        return trace_paths(*args, **kwargs)

    monkeypatch.setattr(harness, "trace_paths", recording_trace)
    cfg = RunConfig(scenario_id=2 if link == "vehicle-bicycle" else 1, link=link)
    n_samples = len(run_bounds_sweep(cfg))
    assert len(calls) == n_samples > 100
    for (tx, rx, *rest), kwargs in calls:
        fwd = trace_paths(tx, rx, *rest, **kwargs).paths
        rev = trace_paths(rx, tx, *rest, **kwargs).paths
        assert [(p.kind, p.wall_index) for p in rev] == [(p.kind, p.wall_index) for p in fwd]
        for f, r in zip(fwd, rev):
            for name in ("delay", "gain", "radial_velocity"):
                a, b = getattr(f, name), getattr(r, name)
                if cfg.scenario_id == 1:
                    assert a == b, name
                else:
                    assert abs(a - b) <= 1e-10 * abs(a), name


def _assert_csv_matches_reference(text, reference):
    """A sweep CSV's ``text`` against the committed file ``reference``:
    non-RMSE cells as exact strings, rmse_m to 1e-9 relative (a bound
    sweep's nan matching nan)."""
    got_lines, want_lines = text.splitlines(), (DATA / reference).read_text().splitlines()
    assert got_lines[0] == want_lines[0]
    assert len(got_lines) == len(want_lines)
    rmse_col = CSV_COLUMNS.index("rmse_m")
    for got, want in zip(got_lines[1:], want_lines[1:]):
        got_cells, want_cells = got.split(","), want.split(",")
        assert float(got_cells.pop(rmse_col)) == pytest.approx(
            float(want_cells.pop(rmse_col)), rel=1e-9, nan_ok=True)
        assert got_cells == want_cells


def test_trial_batch_size_does_not_change_rmse(monkeypatch):
    # One batch plus a remainder against one trial per batch.
    scenario = dataclasses.replace(build_scenario(2), measurement_interval=1.0)
    cfg = RunConfig(scenario_id=2, link="vehicle-bicycle",
                    trials=harness._TRIAL_BATCH + 3, seed=9)
    batched = [p.rmse for p in run_ranging_sweep(cfg, scenario=scenario)]
    monkeypatch.setattr(harness, "_TRIAL_BATCH", 1)
    single = [p.rmse for p in run_ranging_sweep(cfg, scenario=scenario)]
    assert len(batched) > 5
    np.testing.assert_allclose(batched, single, rtol=1e-12, atol=0)


def _mixed_scenario(measurement_interval):
    """Scenario 2 without the ground bounce, plus a slab that blocks the
    start of the sweep: blocked samples, one-path cells and two-path cells."""
    base = build_scenario(2)
    slab = BuildingBox(Vec3(-7.0, -38.0, 15.0), Vec3(4.0, 4.0, 15.0))
    return dataclasses.replace(base, buildings=base.buildings + (slab,),
                               ground_reflection_coeff=0.0,
                               measurement_interval=measurement_interval)


@pytest.mark.usefixtures("one_process")
@pytest.mark.parametrize("trials", [5, 10, 33, 100])
def test_peak_search_batches_are_filled_across_samples(trials, monkeypatch):
    # Round trips fill each batch in (sample, trial) order, whatever the
    # trial count, so no coarse search sees more than 2 _TRIAL_BATCH rows
    # and only the last batch is short.
    rows = []

    def recording_coarse_search(c, *args, **kwargs):
        rows.append(len(c))
        return coarse_search(c, *args, **kwargs)

    monkeypatch.setattr(harness, "coarse_search", recording_coarse_search)
    cfg = RunConfig(scenario_id=2, link="vehicle-bicycle", trials=trials, seed=4)
    n_samples = len(run_ranging_sweep(cfg, scenario=_mixed_scenario(1.0)))
    assert max(rows) <= 2 * harness._TRIAL_BATCH
    assert sum(rows) == 2 * trials * n_samples
    assert rows[:-1] == [2 * harness._TRIAL_BATCH] * (len(rows) - 1)


@pytest.mark.parametrize("policy", PEAK_POLICIES)
def test_batches_spanning_samples_keep_each_samples_rmse(policy, monkeypatch):
    # Seven trials per sample put most samples' round trips in batches
    # shared with their neighbours; a narrow zoom makes some rows fall back
    # to the full spectrum.  Every RMSE equals that of one-trial batches.
    monkeypatch.setattr(estimation, "_zoom_half_width", lambda n_sub, oversample: 1)
    monkeypatch.setattr(estimation, "_SCALLOP_MARGIN_DB", 0.0)
    fallbacks = []

    def recording_zoom(*args, **kwargs):
        zoomed = zoom(*args, **kwargs)
        fallbacks.extend(zoomed.fallback.tolist())
        return zoomed

    monkeypatch.setattr(harness, "zoom", recording_zoom)
    cfg = RunConfig(scenario_id=2, link="vehicle-bicycle", trials=7, seed=11,
                    peak_policy=policy)
    scenario = _mixed_scenario(0.5)
    batched = run_ranging_sweep(cfg, scenario=scenario)
    assert 0 < sum(fallbacks) < len(fallbacks)
    kinds = {(p.los_present, p.n_cell_paths) for p in batched}
    assert {(False, 0), (True, 1), (True, 2)} <= kinds
    monkeypatch.setattr(harness, "_TRIAL_BATCH", 1)
    single = run_ranging_sweep(cfg, scenario=scenario)
    np.testing.assert_allclose([p.rmse for p in batched], [p.rmse for p in single],
                               rtol=1e-12, atol=0)


@pytest.mark.usefixtures("one_process")
def test_bounds_sweep_builds_a_fim_only_for_cells_of_several_paths(monkeypatch):
    # One-path bounds take the closed form: the line-of-sight and merged-path
    # bounds always, the all-paths bound of a one-path cell too.
    cell_sizes = []

    def counting_fim(paths, *args, **kwargs):
        cell_sizes.append(len(paths))
        return fim(paths, *args, **kwargs)

    monkeypatch.setattr("slpos.bounds.fim", counting_fim)
    points = run_bounds_sweep(RunConfig(scenario_id=2, link="vehicle-bicycle"),
                              scenario=_mixed_scenario(0.5))
    assert cell_sizes == [p.n_cell_paths for p in points
                          if p.los_present and p.n_cell_paths >= 2]
    assert 0 < len(cell_sizes) < sum(p.los_present for p in points) < len(points)


def test_first_trials_do_not_depend_on_the_trial_count(monkeypatch):
    # Each sample draws its trials one after another from its own streams,
    # so a 40-trial sweep, whose second batch starts at trial 32, repeats
    # the round trips of a 5-trial sweep as its first five per sample.
    # The spy records each peak-search batch's round-trip distances.
    scenario = dataclasses.replace(build_scenario(2), measurement_interval=2.0)
    distances = []

    def recording_round_trip_distance(*args, **kwargs):
        batch = round_trip_distance(*args, **kwargs)
        distances.extend(batch.tolist())
        return batch

    monkeypatch.setattr(harness, "round_trip_distance", recording_round_trip_distance)
    per_sample = {}
    for trials in (5, 40):
        distances.clear()
        cfg = RunConfig(scenario_id=2, link="vehicle-bicycle", trials=trials, seed=3)
        n_samples = len(run_ranging_sweep(cfg, scenario=scenario))
        assert len(distances) == trials * n_samples
        per_sample[trials] = [distances[i * trials:i * trials + 5] for i in range(n_samples)]
    assert 40 > harness._TRIAL_BATCH and n_samples > 3
    assert per_sample[40] == per_sample[5]


# Clock biases of 0, +-P/2 and beyond +-P, P = 1/subcarrier_spacing.
_PERIOD = default_config().unambiguous_delay
_BIASES = np.array([0.0, _PERIOD / 2, -_PERIOD / 2, 1.3 * _PERIOD, -2.7 * _PERIOD,
                    4e-7, -1e-6])


def _scalar_noise_rows(seeds, pilots, ofdm, window):
    """The scalar chain's noise-only symbol sums, one row per noise seed.
    synthesize_rx is linear in its noise, so a noiseless symbol sum plus row
    b is the symbol sum of synthesize_rx(..., noise_seed=seeds[b])."""
    return np.array([symbol_sum(synthesize_rx(make_snapshot([]), pilots, ofdm, noise_seed=seed),
                                pilots, window) for seed in seeds])


def _kernel_and_scalar_chain(scenario_id, link, policy, oversample, doppler):
    """For six sweep samples: the zoomed ToAs of the sample's round trips at
    _BIASES, and for each row the spectrum of the scalar chain
    synthesize_rx -> delay_spectrum."""
    ofdm = default_config()
    pilots = make_pilots(ofdm, "all_ones")
    window = hamming_window(ofdm.num_subcarriers)
    scenario = build_scenario(scenario_id)
    for t in (0.0, 2.5, 4.9, 5.0, 7.3, 10.0):
        vehicle, bicycle = sample_trajectory(scenario, t)
        ends = {"rsu-vehicle": (scenario.rsu, vehicle), "rsu-bicycle": (scenario.rsu, bicycle),
                "vehicle-bicycle": (vehicle, bicycle)}[link]
        snap = trace_paths(*ends, scenario, ofdm.wavelength, time=t)
        biases = np.concatenate([_BIASES, -_BIASES])
        seeds = [np.random.SeedSequence(entropy=(7, int(t * 10), row))
                 for row in range(len(biases))]
        c = bias_ramps(biases, ofdm) * mean_vector(snap, ofdm, doppler_enabled=doppler)
        c += _scalar_noise_rows(seeds, pilots, ofdm, window)
        start, width = coarse_search(c, oversample, policy, 6.0)
        zoomed = zoom(c, start, width, ofdm, oversample, policy, 6.0)
        spectra = [delay_spectrum(synthesize_rx(snap, pilots, ofdm, noise_seed=seed,
                                                doppler_enabled=doppler, clock_bias=bias),
                                  pilots, ofdm, window=window, oversample=oversample)
                   for seed, bias in zip(seeds, biases)]
        yield zoomed, spectra


@pytest.mark.parametrize("policy", PEAK_POLICIES)
@pytest.mark.parametrize("oversample", [1, 4, 16])
@pytest.mark.parametrize("doppler", [True, False])
@pytest.mark.parametrize("scenario_id, link", [(1, "rsu-vehicle"), (2, "vehicle-bicycle"),
                                               (1, "rsu-bicycle")])
def test_zoomed_kernel_matches_the_scalar_chain(scenario_id, link, policy, oversample,
                                                 doppler):
    # The collapsed symbol sum and its coarse-to-fine peak search pick the
    # bin estimate_toa picks on the full spectrum, and every round trip
    # lands within 1e-9 m of the scalar chain's, without a full-spectrum
    # fallback.
    n = len(_BIASES)
    fallbacks = 0
    for zoomed, spectra in _kernel_and_scalar_chain(scenario_id, link, policy,
                                                    oversample, doppler):
        fallbacks += int(zoomed.fallback.sum())
        for row, spec in enumerate(spectra):
            assert zoomed.peak[row] == full_spectrum_peak(spec.power, policy, 6.0), row
        scalar = [estimate_toa(spec, policy=policy, threshold_db=6.0).toa for spec in spectra]
        for i in range(n):
            want = rtt_range(scalar[i], scalar[n + i], period=_PERIOD).distance
            got = rtt_range(zoomed.toa[i], zoomed.toa[n + i], period=_PERIOD).distance
            assert abs(got - want) <= 1e-9, (i, got, want)
    assert fallbacks == 0


@pytest.mark.parametrize("policy", PEAK_POLICIES)
def test_narrow_zoom_falls_back_to_the_full_spectrum(policy, monkeypatch):
    # With no scalloping margin and one bin beyond the candidates, the
    # window misses most fine peaks (three bins round the coarse maximum,
    # for global_peak): those rows fall back to the full spectrum, and every
    # row still picks the scalar chain's bin.
    monkeypatch.setattr(estimation, "_zoom_half_width", lambda n_sub, oversample: 1)
    monkeypatch.setattr(estimation, "_SCALLOP_MARGIN_DB", 0.0)
    fallbacks = 0
    for zoomed, spectra in _kernel_and_scalar_chain(2, "vehicle-bicycle", policy, 16, True):
        fallbacks += int(zoomed.fallback.sum())
        for row, spec in enumerate(spectra):
            assert zoomed.peak[row] == full_spectrum_peak(spec.power, policy, 6.0)
            want = estimate_toa(spec, policy=policy, threshold_db=6.0).toa
            assert abs(zoomed.toa[row] - want) * SPEED_OF_LIGHT <= 1e-9
    assert fallbacks >= 6 * len(_BIASES)   # at least half the rows


def test_noise_floor_rows_take_the_full_spectrum():
    # With no path and a 40 dB first-peak threshold, nearly every coarse
    # sample is a zoom candidate, so the windows are wider than the cap:
    # such rows are transformed in full instead, and still pick the full
    # spectrum's bin.
    ofdm = default_config()
    pilots = make_pilots(ofdm, "all_ones")
    window = hamming_window(ofdm.num_subcarriers)
    seeds = [np.random.SeedSequence(entropy=(5, row)) for row in range(6)]
    c = _scalar_noise_rows(seeds, pilots, ofdm, window)
    start, width = coarse_search(c, 16, "first_peak", 40.0)
    assert width.min() > estimation._MAX_ZOOM_BINS
    zoomed = zoom(c, start, width, ofdm, 16, "first_peak", 40.0)
    assert zoomed.fallback.all()
    for row, seed in enumerate(seeds):
        spec = delay_spectrum(synthesize_rx(make_snapshot([]), pilots, ofdm, noise_seed=seed),
                              pilots, ofdm, window=window, oversample=16)
        assert zoomed.peak[row] == full_spectrum_peak(spec.power, "first_peak", 40.0)


@pytest.mark.usefixtures("one_process")
def test_first_peak_sweep_zooms_on_the_full_spectrum_peak(monkeypatch):
    # A whole rsu-bicycle first-peak sweep, the link whose two-path lobes can
    # be flat-topped: every arrival's zoomed peak is the bin picked on its
    # full spectrum, and no row falls back.
    checked = []

    def checked_zoom(c, start, width, ofdm, oversample, policy, threshold_db):
        zoomed = zoom(c, start, width, ofdm, oversample, policy, threshold_db)
        assert not zoomed.fallback.any()
        want = [full_spectrum_peak(full, policy, threshold_db)
                for full in estimation._idft_power(c, oversample * c.shape[-1])]
        np.testing.assert_array_equal(zoomed.peak, want)
        checked.append(len(c))
        return zoomed

    monkeypatch.setattr(harness, "zoom", checked_zoom)
    cfg = RunConfig(scenario_id=1, link="rsu-bicycle", trials=2, seed=2,
                    peak_policy="first_peak")
    points = run_ranging_sweep(cfg)
    assert sum(checked) == 2 * cfg.trials * len(points)


@pytest.mark.usefixtures("one_process")
@pytest.mark.parametrize("policy", PEAK_POLICIES)
def test_benchmark_sweep_never_falls_back_to_the_full_spectrum(policy, monkeypatch):
    # The benchmarked sweep (scenario 1 rsu-vehicle, 10 trials, seed 1): every
    # arrival is picked inside its zoom window, none on the 2672-point spectrum.
    rows = []

    def recording_zoom(*args, **kwargs):
        zoomed = zoom(*args, **kwargs)
        rows.extend(zoomed.fallback.tolist())
        return zoomed

    monkeypatch.setattr(harness, "zoom", recording_zoom)
    cfg = RunConfig(scenario_id=1, link="rsu-vehicle", trials=10, seed=1, peak_policy=policy)
    points = run_ranging_sweep(cfg)
    assert len(rows) == 2 * cfg.trials * len(points) == 2020
    assert not any(rows)


# --- sweeps split across processes -------------------------------------------------

def _forks(monkeypatch, cpus):
    """Let sweeps use ``cpus`` CPUs; the list returned gains one entry per fork."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


_LINK_ARGS = {"rsu-vehicle": ["--scenario", "1", "--link", "rsu-vehicle"],
              "rsu-bicycle": ["--scenario", "1", "--link", "rsu-bicycle"],
              "vehicle-bicycle": ["--scenario", "2", "--link", "vehicle-bicycle"]}


def _default_curve(command, link):
    """The argv of the paper's default ``command`` curve on ``link`` and its
    committed file under data/curves.  A change that moves a cell
    regenerates the file with this argv and lists what moved."""
    argv = [command, *_LINK_ARGS[link]]
    name = f"{command}_scenario{argv[2]}_{link}"
    if command == "ranging":
        argv += ["--trials", "100", "--seed", "42"]
        name += "_trials100_seed42"
    return argv, f"curves/{name}.csv"


# Each sweep of the split test with its committed file, if it has one.
_SPLIT_SWEEPS = [
    # A refactor that keeps the sweep arithmetic keeps these files.
    (["ranging", *_LINK_ARGS["vehicle-bicycle"], "--trials", "2", "--seed", "42"],
     "ranging_scenario2_vehicle-bicycle_trials2_seed42.csv"),
    # The first-peak estimator, whose candidate threshold depends on the
    # spectrum values away from the global peak.
    (["ranging", *_LINK_ARGS["vehicle-bicycle"], "--peak-policy", "first_peak",
      "--trials", "4", "--seed", "1"],
     "ranging_scenario2_vehicle-bicycle_first_peak_trials4_seed1.csv"),
    # The benchmarked configuration.
    (["ranging", *_LINK_ARGS["rsu-vehicle"], "--trials", "10", "--seed", "1"],
     "ranging_scenario1_rsu-vehicle_trials10_seed1.csv"),
    # Scenario 1's third link, whose two-path lobes can be flat-topped.
    (["ranging", *_LINK_ARGS["rsu-bicycle"], "--peak-policy", "first_peak",
      "--trials", "2", "--seed", "2"],
     "ranging_scenario1_rsu-bicycle_first_peak_trials2_seed2.csv"),
    # 321 of its 808 arrivals fall back to the full spectrum; at 4 trials,
    # not 3, its chunks start every 8 samples, so that two of them fit.
    (["ranging", *_LINK_ARGS["vehicle-bicycle"], "--peak-policy", "first_peak",
      "--first-peak-threshold-db", "40", "--trials", "4", "--seed", "5"], None),
    # The paper's default bound curves.
    *(_default_curve("bounds", link) for link in LINKS),
]


@pytest.mark.parametrize("argv, reference", _SPLIT_SWEEPS,
                         ids=["-".join(argv[:5:2] + argv[7::2]) for argv, _ in _SPLIT_SWEEPS])
def test_split_sweep_writes_the_single_process_csv(argv, reference, tmp_path, monkeypatch,
                                                   capsys):
    # Three CPUs take chunks of 20 samples or more, so that three chunks fit.
    csv = []
    for cpus, min_chunk in ((1, harness._MIN_CHUNK), (2, harness._MIN_CHUNK), (3, 20)):
        forks = _forks(monkeypatch, cpus)
        monkeypatch.setattr(harness, "_MIN_CHUNK", min_chunk)
        out = tmp_path / f"{cpus}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert len(forks) == cpus - 1
        csv.append(out.read_bytes())
    assert csv[2] == csv[1] == csv[0]
    if reference is not None:
        _assert_csv_matches_reference(csv[0].decode(), reference)


@pytest.mark.parametrize("policy", [*PEAK_POLICIES, None])
def test_split_mixed_sweep_writes_the_single_process_csv(policy, tmp_path, monkeypatch):
    # Blocked samples, one-path and two-path cells, and 7 trials per sample,
    # so that batches span samples and chunks start on multiples of 32
    # samples; None is the bound sweep.
    scenario = _mixed_scenario(0.05)
    cfg = RunConfig(scenario_id=2, link="vehicle-bicycle", trials=7, seed=11,
                    peak_policy=policy or "global_peak")
    sweep = run_bounds_sweep if policy is None else run_ranging_sweep
    csv = []
    for cpus in (1, 2):
        forks = _forks(monkeypatch, cpus)
        out = tmp_path / f"{cpus}.csv"
        points = sweep(dataclasses.replace(cfg, output_path=str(out)), scenario=scenario)
        assert len(forks) == cpus - 1
        csv.append(out.read_bytes())
    kinds = {(p.los_present, p.n_cell_paths) for p in points}
    assert {(False, 0), (True, 1), (True, 2)} <= kinds
    assert csv[1] == csv[0]


def _die():
    os._exit(3)


def _interrupt():
    raise KeyboardInterrupt


def _raise_unpicklable():
    class Local(ValueError):
        pass

    raise Local("no channel")


@pytest.mark.parametrize("sweep", [run_ranging_sweep, run_bounds_sweep])
@pytest.mark.parametrize("failing_chunk", [0, 1, pytest.param("dies-1", id="dies-1"),
                                           pytest.param("interrupt-0", id="interrupt-0"),
                                           pytest.param("unpicklable-1", id="unpicklable-1"),
                                           pytest.param("1-of-3", id="1-of-3")])
def test_a_failing_chunk_raises_in_the_caller_and_leaves_no_child(sweep, failing_chunk,
                                                                  monkeypatch, tmp_path,
                                                                  capsys):
    # A sample whose trace raises, in this process's chunk or in the forked
    # one: the caller gets the exception, main exits 1 without output, and
    # no child is left to reap.  The fault sits inside trace_paths, which
    # harness still calls as imported.  "dies-1": the forked chunk ends
    # without reporting, and the caller gets an error naming its samples
    # rather than an EOFError or a hang.  "interrupt-0": Ctrl-C in this
    # process's chunk, while the child still runs, reaps the child too.
    # "unpicklable-1": the forked chunk's exception does not pickle, and the
    # caller gets its repr.  "1-of-3": the middle of three chunks raises,
    # and the last one's child, which may still run, is reaped too.
    fault, chunk, workers = {0: (None, 0, 2), 1: (None, 1, 2), "dies-1": (_die, 1, 2),
                             "interrupt-0": (_interrupt, 0, 2),
                             "unpicklable-1": (_raise_unpicklable, 1, 2),
                             "1-of-3": (None, 1, 3)}[failing_chunk]
    forks = _forks(monkeypatch, workers)
    if workers == 3:
        monkeypatch.setattr(harness, "_MIN_CHUNK", 20)
    bad = (10, 70)[chunk] if workers == 2 else 50
    assert (bad in harness._chunks(101, workers, 16)[chunk]
            and bad in harness._chunks(101, workers, 1)[chunk])
    interval = build_scenario(1).measurement_interval
    snapshot = slpos.propagation.ChannelSnapshot
    parent = os.getpid()

    def failing_snapshot(*, paths, time):
        if time == bad * interval:
            if fault is None:
                raise ValueError(f"no channel at sample {bad}")
            assert fault is _interrupt or os.getpid() != parent
            fault()
        return snapshot(paths=paths, time=time)

    monkeypatch.setattr(slpos.propagation, "ChannelSnapshot", failing_snapshot)
    cfg = RunConfig(scenario_id=1, link="rsu-vehicle", trials=10, seed=1)
    if fault is _die:
        with pytest.raises(RuntimeError, match=r"^the process sweeping samples \d+-100 ended "
                                               r"without a result \(wait status 768\)$"):
            sweep(cfg)
    elif fault is _interrupt:
        with pytest.raises(KeyboardInterrupt):
            sweep(cfg)
    elif fault is _raise_unpicklable:
        with pytest.raises(RuntimeError, match=r"^the process sweeping samples \d+-100 could "
                                               r"not send back Local\('no channel'\) \(.+\)$"):
            sweep(cfg)
    else:
        with pytest.raises(ValueError, match=f"^no channel at sample {bad}$"):
            sweep(cfg)
        out = tmp_path / "sweep.csv"
        command = "ranging" if sweep is run_ranging_sweep else "bounds"
        assert main([command, *_LINK_ARGS["rsu-vehicle"], "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"no channel at sample {bad}" in captured.err and captured.out == ""
        assert not out.exists()
    assert len(forks) == (workers - 1) * (1 if fault else 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_split_sweep_imports_no_multiprocessing():
    code = """if True:
        import os, sys
        from slpos import harness
        forks = []
        fork = os.fork
        os.fork = lambda: forks.append(None) or fork()
        harness._usable_cpus = lambda: 2
        harness.run_bounds_sweep(harness.RunConfig(scenario_id=1, link="rsu-vehicle"))
        print(len(forks), "multiprocessing" in sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.split() == ["1", "False"]


def test_a_sweep_below_two_minimum_chunks_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("a sweep too short to split forked")

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    scenario = _mixed_scenario(0.2)
    cfg = RunConfig(scenario_id=2, link="vehicle-bicycle", trials=3, seed=1)
    n_samples = len(run_ranging_sweep(cfg, scenario=scenario))
    assert harness._MIN_CHUNK <= n_samples < 2 * harness._MIN_CHUNK
    run_bounds_sweep(cfg, scenario=scenario)


@pytest.mark.parametrize("cpus, n_samples, workers", [
    (1, 10**6, 1),
    (2, 1, 1),
    (2, 2 * harness._MIN_CHUNK - 1, 1),
    (2, 2 * harness._MIN_CHUNK, 2),
    (2, 10**6, 2),
    (8, 5 * harness._MIN_CHUNK + 1, 5),
    (8, 10**6, 8),
])
def test_one_worker_per_cpu_as_long_as_each_gets_a_minimum_chunk(cpus, n_samples, workers):
    assert len(harness._chunks(n_samples, cpus, 1)) == workers


def test_chunks_cover_the_sweep_from_aligned_starts():
    for n_samples in (1, 19, 40, 41, 101, 351, 1000):
        for workers in range(1, 9):
            for align in (1, 2, 4, 8, 16, 32):
                chunks = harness._chunks(n_samples, workers, align)
                assert [c.start for c in chunks[1:]] == [c.stop for c in chunks[:-1]]
                assert chunks[0].start == 0 and chunks[-1].stop == n_samples
                assert len(chunks) <= workers
                assert all(c.start % align == 0 for c in chunks)
                assert len(chunks) == 1 or min(map(len, chunks)) >= harness._MIN_CHUNK


def test_an_slpos_process_forks_until_a_thread_starts_or_an_import_is_replaced():
    # Imported first, slpos starts NumPy without a BLAS thread pool, so the
    # usable CPUs are the affinity set, until a second thread starts or a
    # function harness imported is replaced, and again once both are gone.
    code = """if True:
        import os, threading, time
        from slpos import harness
        print(harness._usable_cpus(), len(os.sched_getaffinity(0)))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        print(harness._usable_cpus())
        stop.set()
        thread.join()
        while len(os.listdir("/proc/self/task")) > 1:  # the joined thread exiting
            time.sleep(0.001)
        trace = harness.trace_paths
        harness.trace_paths = lambda *args, **kwargs: trace(*args, **kwargs)
        print(harness._usable_cpus())
        harness.trace_paths = trace
        print(harness._usable_cpus())
    """
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {name: value for name, value in os.environ.items() if name not in blas}
    env["PYTHONPATH"] = str(ROOT / "src")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    alone, affinity, threaded, replaced, restored = map(int, result.stdout.split())
    assert (alone, threaded, replaced, restored) == (affinity, 1, 1, affinity)


def test_every_name_the_benchmark_tracer_wraps_still_exists(monkeypatch):
    # bench/tracing.py times each layer by replacing names such as
    # slpos.harness.synthesize_rx; a name that disappears from its module
    # drops that span from `bench/run.py --trace 1`.
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for _, module, attr in tracing.SPAN_TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, (
        f"{missing} no longer exist, but bench/tracing.py wraps them to trace its "
        "spans; keep each name importable there (with noqa: F401 if unused) or "
        "retarget its span in bench/tracing.py")


def test_every_root_name_the_benchmark_set_up_calls_resolves():
    # bench/run.py warms the package up through slpos.<name>(...) calls.
    called = set(re.findall(r"\bslpos\.(\w+)\(", (ROOT / "bench" / "run.py").read_text()))
    assert called
    missing = sorted(name for name in called if not hasattr(slpos, name))
    assert not missing, f"bench/run.py calls slpos.{missing}, which the package root lacks"


def test_package_root_exports_only_the_benchmark_set_up_names():
    # The CLI is the entry point; everything else imports from the modules.
    public = {name for name, value in vars(slpos).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {"build_scenario", "default_config", "make_pilots", "hamming_window"}


def test_higher_power_lowers_mean_rmse():
    base = default_config()
    loud = OfdmConfig(**{**base.__dict__, "tx_power": base.tx_power * 100})
    cfg = RunConfig(scenario_id=2, link="vehicle-bicycle", trials=3, seed=5)
    quiet_points = run_ranging_sweep(cfg, ofdm=base)
    loud_points = run_ranging_sweep(cfg, ofdm=loud)
    assert np.mean([p.rmse for p in loud_points]) < np.mean([p.rmse for p in quiet_points])


def test_bounds_sweep_has_nan_rmse(tmp_path):
    out = tmp_path / "bounds.csv"
    cfg = RunConfig(scenario_id=1, link="rsu-vehicle", output_path=str(out))
    points = run_bounds_sweep(cfg)
    assert len(points) == 101
    assert all(math.isnan(p.rmse) for p in points)
    assert out.exists()
    # Line-of-sight bound: ~0.016 m at the lane ends, ~0.002 m at the
    # center (+/- 15%); merged-path bound dominated by the ground bounce
    # at the center.
    center = min(points, key=lambda p: abs(p.sweep_coord))
    assert 0.0136 <= points[0].reb_los <= 0.0184
    assert 0.0136 <= points[-1].reb_los <= 0.0184
    assert 0.0017 <= center.reb_los <= 0.0023
    assert center.reb_waa > 10 * center.reb_los


# --- the paper's default curves ------------------------------------------------------

@pytest.mark.parametrize("link", LINKS)
def test_default_curve_matches_committed_file(link, tmp_path, capsys):
    # The ranging curves, split across the CPUs the host allows; the split
    # sweep test holds the bound curves at one, two and three processes.
    argv, reference = _default_curve("ranging", link)
    assert main([*argv, "--out", str(tmp_path / "sweep.csv")]) == 0
    _assert_csv_matches_reference((tmp_path / "sweep.csv").read_text(), reference)


@pytest.mark.usefixtures("one_process")
def test_default_rsu_vehicle_curve_matches_committed_file_in_one_process(tmp_path, capsys):
    # With the test above on a two-CPU host: a 100-trial sweep's chunks,
    # aligned to whole peak-search batches, at one and at two processes.
    argv, reference = _default_curve("ranging", "rsu-vehicle")
    assert main([*argv, "--out", str(tmp_path / "sweep.csv")]) == 0
    _assert_csv_matches_reference((tmp_path / "sweep.csv").read_text(), reference)


@pytest.mark.parametrize("link", LINKS)
def test_ranging_and_bounds_sweeps_share_every_non_rmse_column(link):
    # On the committed default curves, which the tests above regenerate.
    rmse_col = CSV_COLUMNS.index("rmse_m")
    ranging, bounds = ((DATA / _default_curve(command, link)[1]).read_text().splitlines()
                       for command in ("ranging", "bounds"))
    assert len(ranging) == len(bounds)
    for a, b in zip(ranging, bounds):
        a_cells, b_cells = a.split(","), b.split(",")
        del a_cells[rmse_col], b_cells[rmse_col]
        assert a_cells == b_cells


@pytest.mark.parametrize("link, agreeing, with_los", [
    ("rsu-vehicle", 77, 101), ("rsu-bicycle", 261, 351), ("vehicle-bicycle", 64, 101)])
def test_default_curves_agree_with_the_waa_bound_within_factor_3(link, agreeing, with_los):
    # Criterion 9's count on each committed ranging curve: the samples with
    # line of sight whose RMSE lies within a factor 3 of a finite, positive
    # WAA bound.  README's Experiments section quotes these counts.
    points = read_csv(str(DATA / _default_curve("ranging", link)[1]))
    clear = [p for p in points if p.los_present]
    within = sum(math.isfinite(p.reb_waa) and p.reb_waa > 0
                 and 1.0 / 3.0 <= p.rmse / p.reb_waa <= 3.0 for p in clear)
    assert (within, len(clear)) == (agreeing, with_los)


def _cell_conditions(link, monkeypatch):
    """Per sample of the default bounds curve on ``link``, the condition
    number of its cell FIM after diagonal equilibration, which ``crb_delay``
    checks (nan without line of sight)."""
    conditions = []
    bound = harness.reb_waa

    def spy(snap, pilots, ofdm, beta):
        report = bound(snap, pilots, ofdm, beta=beta)
        j = fim([snap.paths[i] for i in report.cell_indices], pilots, ofdm)
        scale = 1.0 / np.sqrt(np.diag(j))
        eigenvalues = np.linalg.eigvalsh(scale[:, None] * j * scale[None, :])
        conditions.append(eigenvalues[-1] / eigenvalues[0])
        return report

    with monkeypatch.context() as patch:
        patch.setattr(harness, "reb_waa", spy)
        points = run_bounds_sweep(RunConfig(scenario_id=int(_LINK_ARGS[link][1]), link=link))
    found = iter(conditions)
    return [next(found) if p.los_present else math.nan for p in points]


# The committed files a BLAS kernel can move: the three bound curves, and
# the benchmarked 10-trial sweep on the rsu-vehicle geometry.
_KERNEL_FILES = [(["bounds", *_LINK_ARGS[link]], _default_curve("bounds", link)[1], link)
                 for link in LINKS] + [
    (["ranging", *_LINK_ARGS["rsu-vehicle"], "--trials", "10", "--seed", "1"],
     "ranging_scenario1_rsu-vehicle_trials10_seed1.csv", "rsu-vehicle")]


@pytest.mark.usefixtures("one_process")
def test_committed_files_hold_under_another_blas_kernel(tmp_path, monkeypatch):
    # The committed files were written under OpenBLAS's SkylakeX kernel
    # (NumPy 2.4.6).  Another kernel rounds the FIM's matrix product and its
    # eigendecomposition differently, which moves only reb_all_m, the one
    # column read from the FIM of two or more paths, by a relative amount
    # that grows with the cell's condition number kappa: at most 2.8 kappa
    # eps under Nehalem and 14.5 kappa eps under Haswell or Zen.  On x86-64
    # the sweeps run under Nehalem, a kernel every x86-64 CPU that NumPy 2
    # supports can run; elsewhere OPENBLAS_CORETYPE is left unset, and the
    # host's own kernel runs.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if platform.machine().lower() in ("x86_64", "amd64"):
        env["OPENBLAS_CORETYPE"] = "Nehalem"
    outs = [tmp_path / f"{i}.csv" for i in range(len(_KERNEL_FILES))]
    argvs = [[*argv, "--out", str(out)] for (argv, _, _), out in zip(_KERNEL_FILES, outs)]
    code = ("from slpos import harness\nfrom slpos.cli import main\n"
            "cpus = harness._usable_cpus\nharness._usable_cpus = lambda: min(2, cpus())\n"
            f"for argv in {argvs!r}:\n    assert main(argv) == 0\n")
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                   timeout=120, check=True)

    conditions = {link: _cell_conditions(link, monkeypatch) for link in LINKS}
    rmse_col, all_col = CSV_COLUMNS.index("rmse_m"), CSV_COLUMNS.index("reb_all_m")
    others = [c for c in range(len(CSV_COLUMNS)) if c not in (rmse_col, all_col)]
    eps = np.finfo(float).eps
    for (_, reference, link), out in zip(_KERNEL_FILES, outs):
        got_lines = out.read_text().splitlines()
        want_lines = (DATA / reference).read_text().splitlines()
        assert got_lines[0] == want_lines[0]
        assert len(got_lines) == len(want_lines)
        for got, want, kappa in zip(got_lines[1:], want_lines[1:], conditions[link]):
            got_cells, want_cells = got.split(","), want.split(",")
            assert float(got_cells[rmse_col]) == pytest.approx(
                float(want_cells[rmse_col]), rel=1e-9, nan_ok=True)
            got_all, want_all = float(got_cells[all_col]), float(want_cells[all_col])
            if math.isfinite(want_all):
                drift = abs(got_all - want_all) / (want_all * kappa * eps)
                assert drift <= 64.0, (reference, got, want, kappa, drift)
            else:
                assert got_cells[all_col] == want_cells[all_col], (reference, got, want)
            assert [got_cells[c] for c in others] == [want_cells[c] for c in others]


# --- CSV ----------------------------------------------------------------------------

def test_los_bound_curves_match_reference_table():
    # Tabulated line-of-sight-only bound values for the stock scenario-1
    # geometry; the 5% tolerance absorbs the free-space gain approximation.
    references = {
        "rsu-vehicle": {
            70.0: 0.0160445, 56.0: 0.0128907, 42.0: 0.0097572, 28.0: 0.0066708,
            14.0: 0.0037539, 0.0: 0.0020299, -14.0: 0.0037539, -28.0: 0.0066708,
            -42.0: 0.0097572, -56.0: 0.0128907, -70.0: 0.0160445,
        },
        "rsu-bicycle": {
            -70.0: 0.0161334, -56.0: 0.0130025, -42.0: 0.0099032, -28.0: 0.0068822,
            -14.0: 0.0041179, 0.0: 0.0026168, 14.0: 0.0041179, 28.0: 0.0068822,
            42.0: 0.0099032, 56.0: 0.0130025, 70.0: 0.0161334,
        },
    }
    for link, table in references.items():
        points = run_bounds_sweep(RunConfig(scenario_id=1, link=link))
        by_coord = {round(p.sweep_coord, 6): p for p in points}
        for coord, expected in table.items():
            assert by_coord[coord].reb_los == pytest.approx(expected, rel=0.05)


def test_export_empty_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    export_csv([], str(out))
    assert out.read_text().strip() == ",".join(CSV_COLUMNS)


def test_infinity_serializes_as_literal_inf(tmp_path):
    point = CurvePoint(sweep_coord=1.0, true_range=2.0, rmse=0.5,
                       reb_los=0.01, reb_all=math.inf, reb_waa=0.9, waa_bias=0.8,
                       n_paths=3, n_cell_paths=2, los_present=True)
    out = tmp_path / "inf.csv"
    export_csv([point], str(out))
    row = out.read_text().splitlines()[1]
    assert row.split(",")[4] == "inf"


def test_csv_round_trip(tmp_path):
    points = [
        CurvePoint(sweep_coord=-70.0, true_range=70.5323, rmse=4.26339,
                   reb_los=0.0161234, reb_all=math.inf, reb_waa=4.41386,
                   waa_bias=4.41386, n_paths=4, n_cell_paths=4, los_present=True),
        CurvePoint(sweep_coord=0.0001231, true_range=8.6493, rmse=0.71566,
                   reb_los=math.nan, reb_all=math.nan, reb_waa=math.nan,
                   waa_bias=math.nan, n_paths=2, n_cell_paths=0, los_present=False),
    ]
    out = tmp_path / "roundtrip.csv"
    export_csv(points, str(out))
    recovered = read_csv(str(out))
    assert len(recovered) == 2
    for a, b in zip(points, recovered):
        for name in ("sweep_coord", "true_range", "rmse", "reb_los", "reb_all",
                     "reb_waa", "waa_bias"):
            va, vb = getattr(a, name), getattr(b, name)
            if math.isnan(va):
                assert math.isnan(vb)
            elif math.isinf(va):
                assert va == vb
            else:
                assert vb == pytest.approx(va, rel=1e-9)
        assert (a.n_paths, a.n_cell_paths, a.los_present) == \
               (b.n_paths, b.n_cell_paths, b.los_present)


def test_csv_columns_are_the_curve_point_fields_in_order():
    assert CSV_COLUMNS == (
        "sweep_coord_m", "true_range_m", "rmse_m", "reb_los_m", "reb_all_m",
        "reb_waa_m", "waa_bias_m", "n_paths", "n_cell_paths", "los_present")
    assert [column.removesuffix("_m") for column in CSV_COLUMNS] == \
        [f.name for f in dataclasses.fields(CurvePoint)]


_CSV_ROW = "1.0e+00,2.0e+00,nan,1.0e-02,inf,9.0e-01,8.0e-01,3,2,true"


@pytest.mark.parametrize("lines, reason", [
    ([_CSV_ROW.replace("true", "True")], "line 2: expected true or false, got 'True'"),
    ([_CSV_ROW.replace("true", "1")], "line 2: expected true or false, got '1'"),
    ([_CSV_ROW, "", _CSV_ROW.replace(",3,", ",3.0,")],
     "line 4: invalid literal for int() with base 10: '3.0'"),
    ([_CSV_ROW.replace("9.0e-01", "x")], "line 2: could not convert string to float: 'x'"),
    ([_CSV_ROW + ",true"], "line 2: malformed CSV row"),
], ids=("True", "one", "float-count", "letters", "eleven-cells"))
def test_bad_csv_row_raises_naming_its_line(lines, reason, tmp_path):
    out = tmp_path / "sweep.csv"
    out.write_text("\n".join([",".join(CSV_COLUMNS), *lines]) + "\n")
    with pytest.raises(ValueError) as exc:
        read_csv(str(out))
    assert reason in str(exc.value)


@pytest.mark.parametrize("text", ["", "\n", "sweep_coord_m,rmse_m\n"])
def test_missing_csv_header_raises_naming_line_1(text, tmp_path):
    out = tmp_path / "sweep.csv"
    out.write_text(text)
    with pytest.raises(ValueError, match="line 1: unexpected header"):
        read_csv(str(out))


def test_csv_reads_both_flags_and_skips_blank_lines(tmp_path):
    out = tmp_path / "sweep.csv"
    out.write_text("\n".join([",".join(CSV_COLUMNS), _CSV_ROW, "",
                              _CSV_ROW.replace("true", "false")]) + "\n")
    assert [p.los_present for p in read_csv(str(out))] == [True, False]


def test_export_to_unwritable_path_raises_oserror():
    with pytest.raises(OSError):
        export_csv([], "/nonexistent-dir/foo.csv")


def test_reading_a_missing_csv_raises_oserror_naming_it(tmp_path):
    path = str(tmp_path / "missing.csv")
    with pytest.raises(OSError, match=f"cannot read sweep CSV from {re.escape(repr(path))}"):
        read_csv(path)


# --- positioning demo ---------------------------------------------------------------

def test_requirement_set_constants():
    by_name = {r.name: r for r in REQUIREMENT_SETS}
    assert (by_name["set1"].accuracy_lo, by_name["set1"].accuracy_hi) == (10.0, 50.0)
    assert (by_name["set1"].confidence_lo, by_name["set1"].confidence_hi) == (0.68, 0.95)
    assert (by_name["set2"].accuracy_lo, by_name["set2"].accuracy_hi) == (1.0, 3.0)
    assert (by_name["set2"].confidence_lo, by_name["set2"].confidence_hi) == (0.95, 0.99)
    assert (by_name["set3"].accuracy_lo, by_name["set3"].accuracy_hi) == (0.1, 0.5)
    assert (by_name["set3"].confidence_lo, by_name["set3"].confidence_hi) == (0.95, 0.99)


def test_noiseless_demo_passes_every_set():
    summary = run_positioning_demo(SQUARE, Vec3(3.0, 4.0, 0.0), sigma=0.0,
                                   trials=10, seed=0)
    assert summary.rmse < 1e-6
    for score in summary.scores:
        assert score.fraction_within_loose == 1.0
        assert score.fraction_within_strict == 1.0
        assert score.met_loose and score.met_strict


def test_demo_crb_is_sigma_times_the_unit_bound():
    # Exactly 0 without noise, and no nan where sigma**2 underflows.
    unit = range_position_crb(SQUARE, Vec3(3.0, 4.0, 0.0), [1.0] * len(SQUARE))
    for sigma in (0.0, -0.0, 1e-170):
        summary = run_positioning_demo(SQUARE, Vec3(3.0, 4.0, 0.0), sigma=sigma, trials=3)
        assert repr(summary.crb) == repr(abs(sigma) * unit)


def test_noisy_demo_rates_match_percentiles():
    summary = run_positioning_demo(SQUARE, Vec3(3.0, 4.0, 0.0), sigma=1.0,
                                   trials=400, seed=1)
    set2 = summary.scores[1]
    # sigma = 1 m noise: nearly every trial lands within 3 m, few within 1 m.
    assert set2.fraction_within_loose > 0.9
    assert set2.fraction_within_strict < set2.fraction_within_loose
    assert set2.met_loose == (set2.fraction_within_loose >= 0.95)
    assert set2.met_strict == (set2.fraction_within_strict >= 0.99)


def test_requirement_verdicts_follow_the_fractions():
    # Met at exactly the confidence; the verdicts are not stored apart.
    set2 = REQUIREMENT_SETS[1]
    score = RequirementScore(set2, fraction_within_loose=0.95, fraction_within_strict=0.989)
    assert score.met_loose and not score.met_strict
    assert [f.name for f in dataclasses.fields(RequirementScore)] == [
        "requirement", "fraction_within_loose", "fraction_within_strict"]


def test_coinciding_true_point_rejected_before_any_fix(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "solve_fixes", lambda *args, **kwargs: calls.append(args))
    # In 2-D only x and y count, so (10, 10, 5) sits on the anchor at (10, 10).
    with pytest.raises(ValueError, match="coincides with an anchor"):
        run_positioning_demo(SQUARE, Vec3(10.0, 10.0, 5.0), sigma=1.0, trials=1000)
    assert calls == []


@pytest.mark.parametrize("dim", [2, 3])
def test_positioning_at_the_edges_of_its_working_range_is_finite(dim):
    # Anchors at the corners of the working range (a square in 2-D, a cube
    # in 3-D), the true point on its boundary and the largest sigma.
    edge = MAX_COORDINATE_M
    heights = (0.0,) if dim == 2 else (-edge, edge)
    anchors = [Anchor(Vec3(x, y, z)) for x in (-edge, edge) for y in (-edge, edge)
               for z in heights]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        summary = run_positioning_demo(anchors, Vec3(edge, -3e5, edge / 2), sigma=edge,
                                       trials=1000, seed=3, dim=dim)
    assert math.isfinite(summary.rmse) and math.isfinite(summary.crb)
    assert summary.crb > 0


def test_positioning_rejects_one_step_beyond_each_working_range_edge(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "solve_fixes", lambda *args, **kwargs: calls.append(args))
    beyond = math.nextafter(MAX_COORDINATE_M, math.inf)
    with pytest.raises(ValueError, match=re.escape("sigma must lie in [0, 1e+06] m")):
        run_positioning_demo(SQUARE, Vec3(3.0, 4.0, 0.0), sigma=beyond, trials=1)
    with pytest.raises(ValueError, match="true_point must lie within 1e[+]06 m"):
        run_positioning_demo(SQUARE, Vec3(3.0, -beyond, 0.0), sigma=1.0, trials=1)
    with pytest.raises(ValueError, match="anchor must lie within 1e[+]06 m"):
        Anchor(Vec3(0.0, 0.0, beyond))
    assert calls == []


def test_clock_bias_std_lies_in_zero_to_one_second():
    for std in (0.0, 1.0):
        assert RunConfig(scenario_id=1, link="rsu-vehicle",
                         clock_bias_std=std).clock_bias_std == std
    for std in (-5e-324, math.nextafter(1.0, 2.0)):
        with pytest.raises(ValueError, match=re.escape("clock_bias_std must lie in [0, 1] s")):
            RunConfig(scenario_id=1, link="rsu-vehicle", clock_bias_std=std)


class _Reached(Exception):
    pass


@pytest.mark.parametrize("trials, accepted", [
    (harness.POSITION_RANGES["trials"][1], True),
    (harness.POSITION_RANGES["trials"][1] + 1, False),
    (np.int64(5), True),
    (5.0, False),
    (True, False),
])
def test_trial_count_checked_against_the_cap_before_any_fix(monkeypatch, trials, accepted):
    # Only the check runs: the first solve raises, so no fix is ever made.
    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(harness, "solve_fixes", reached)
    with pytest.raises(_Reached if accepted else ValueError, match=None if accepted else "trials"):
        run_positioning_demo(SQUARE, Vec3(3.0, 4.0, 0.0), sigma=1.0, trials=trials)


@pytest.mark.parametrize("anchors, dim, message", [
    ([], 2, "need at least 3 anchors"),
    (SQUARE[:2], 2, "need at least 3 anchors"),
    (SQUARE, 3, "degenerate"),
    ([Anchor(Vec3(x, 0.0, 0.0)) for x in (0.0, 5.0, 10.0)], 2, "degenerate"),
    (SQUARE, 4, "dim must be 2 or 3"),
    (SQUARE, 2.0, "dim must be 2 or 3"),
    (SQUARE, 3.0, "dim must be 2 or 3"),
])
def test_bad_anchor_layout_gets_the_initializer_message(anchors, dim, message):
    with pytest.raises(ValueError, match=message):
        run_positioning_demo(anchors, Vec3(3.0, 4.0, 1.0), sigma=1.0, trials=5, dim=dim)


def test_demo_deterministic():
    a = run_positioning_demo(SQUARE, Vec3(3.0, 4.0, 0.0), sigma=1.0, trials=50, seed=9)
    b = run_positioning_demo(SQUARE, Vec3(3.0, 4.0, 0.0), sigma=1.0, trials=50, seed=9)
    assert a == b


@pytest.mark.parametrize("batch", [None, 3])
def test_first_fixes_do_not_depend_on_the_trial_count(monkeypatch, batch):
    # One stream per run, drawn fix after fix: a 40-fix run repeats the
    # ranges of a 5-fix run as its first five, in one chunk or in chunks of 3.
    if batch is not None:
        monkeypatch.setattr(harness, "_FIX_BATCH", batch)
    solve = harness.solve_fixes
    distances = []

    def recording_solve_fixes(anchors, ranges, *args, **kwargs):
        distances.append(ranges.copy())
        return solve(anchors, ranges, *args, **kwargs)

    monkeypatch.setattr(harness, "solve_fixes", recording_solve_fixes)
    first = {}
    for trials in (5, 40):
        distances.clear()
        run_positioning_demo(SQUARE, Vec3(3.0, 4.0, 0.0), sigma=1.0, trials=trials, seed=4)
        rows = np.concatenate(distances)
        assert rows.shape == (trials, len(SQUARE))
        first[trials] = rows[:5]
    np.testing.assert_array_equal(first[40], first[5])


@pytest.mark.parametrize("batch", [1, 7])
def test_fix_batch_size_does_not_change_the_summary(monkeypatch, batch):
    # One chunk against one fix per chunk, and chunks with a remainder.
    true_point = Vec3(3.0, 4.0, 0.0)
    whole = run_positioning_demo(SQUARE, true_point, sigma=1.0, trials=50, seed=9)
    monkeypatch.setattr(harness, "_FIX_BATCH", batch)
    assert run_positioning_demo(SQUARE, true_point, sigma=1.0, trials=50, seed=9) == whole


# Stdout of `slpos position` with one noise stream per run: the README's
# square-layout loop (seed 7, 1000 trials) and a 3-D layout.
@pytest.mark.parametrize("anchors, options, golden", [
    ("anchors_square.txt", ["--sigma", "0.05"], "position_square_sigma0.05_seed7.txt"),
    ("anchors_square.txt", ["--sigma", "1.0"], "position_square_sigma1.0_seed7.txt"),
    ("anchors_square.txt", ["--sigma", "3.0"], "position_square_sigma3.0_seed7.txt"),
    ("anchors_3d.txt", ["--sigma", "1.0", "--dim", "3", "--true-point", "3,4,1.5"],
     "position_3d_sigma1.0_seed7.txt"),
])
def test_position_stdout_matches_committed_reference(anchors, options, golden, capsys):
    argv = ["position", "--anchors", str(DATA / anchors), "--trials", "1000", "--seed", "7"]
    assert main(argv + options) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


# Ranges clipped at 0 m by `position` on the square layout, seed 7.
_CLIPPED_SEED7 = {"1.0": 0, "3.0": 55, "10": 968}


def _clipped_line(clipped):
    return (f"slpos: {clipped} of 4000 ranges were clipped at 0 m; the geometric CRB "
            "assumes unclipped Gaussian ranges\n") if clipped else ""


@pytest.mark.parametrize("sigma, unconverged", [("1.0", 0), ("3.0", 0), ("10", 2)])
def test_position_reports_unconverged_fixes_on_stderr(sigma, unconverged, capsys):
    # Fixes that do not converge stay in the summary, and stderr says how
    # many stopped at the iteration limit and how many stalled before it.
    # At 10 m of range noise on a 10 m square, 2 stop at the limit and
    # none stalls.
    argv = ["position", "--anchors", str(DATA / "anchors_square.txt"), "--sigma", sigma,
            "--trials", "1000", "--seed", "7"]
    assert main(argv) == 0
    err = capsys.readouterr().err
    unconverged_line = (f"slpos: {unconverged} of 1000 fixes did not converge (2 stopped at "
                        "the iteration limit, 0 stalled before it); they are included in "
                        "the RMSE and the requirement rates\n") if unconverged else ""
    assert err == unconverged_line + _clipped_line(_CLIPPED_SEED7[sigma])


@pytest.mark.parametrize("sigma", ["1.0", "3.0", "10"])
def test_positioning_summary_counts_clipped_ranges(sigma):
    # The noisy ranges below 0 m, drawn from the run's one stream; the
    # stderr test above checks the line that names them, and the stdout
    # goldens that the count changes nothing else.
    summary = run_positioning_demo(SQUARE, Vec3(3.0, 4.0, 0.0), float(sigma), 1000, seed=7)
    anchors = np.array([[a.position.x, a.position.y] for a in SQUARE])
    true_ranges = np.linalg.norm(anchors - [3.0, 4.0], axis=1)
    noisy = true_ranges + float(sigma) * np.random.default_rng(7).standard_normal((1000, 4))
    assert summary.clipped == np.count_nonzero(noisy < 0.0) == _CLIPPED_SEED7[sigma]


def test_positioning_summary_splits_unconverged_fixes_by_iteration_count():
    # The two counts are the unconverged fixes of solve_fixes at and below
    # its iteration limit, drawn from the run's one stream.
    summary = run_positioning_demo(SQUARE, Vec3(3.0, 4.0, 0.0), 10.0, 1000, seed=7)
    anchors = np.array([[a.position.x, a.position.y] for a in SQUARE])
    true_ranges = np.linalg.norm(anchors - [3.0, 4.0], axis=1)
    noisy = true_ranges + 10.0 * np.random.default_rng(7).standard_normal((1000, 4))
    _, iterations, converged = solve_fixes(anchors, np.maximum(noisy, 0.0))
    assert (summary.at_limit, summary.stalled) == (
        np.count_nonzero(~converged & (iterations == MAX_ITERS)),
        np.count_nonzero(~converged & (iterations < MAX_ITERS)))
    assert (summary.at_limit, summary.stalled) == (2, 0)


# --- coherence / latency --------------------------------------------------------------

def test_coherence_margin_at_14_mps(ofdm):
    report = coherence_and_latency_check(ofdm, v_max=14.0, accuracy_req=3.0)
    assert report.coherence_symbol_limit == pytest.approx(435.5, rel=1e-2)
    assert report.num_symbols == 12
    assert report.coherence_margin == pytest.approx(36.3, rel=1e-2)
    assert report.coherence_margin > 1.0


def test_latency_budget(ofdm):
    report = coherence_and_latency_check(ofdm, v_max=14.0, accuracy_req=3.0)
    assert report.latency_budget_s == pytest.approx(0.0214, rel=1e-2)


def test_coherence_violated_by_more_symbols_than_the_limit(ofdm):
    # At the top speed the limit is 40.65 symbols: the default 12 fit, 448 do not.
    many = dataclasses.replace(ofdm, num_symbols=448)
    report = coherence_and_latency_check(many, v_max=150.0, accuracy_req=3.0)
    assert report.coherence_symbol_limit == pytest.approx(40.65, rel=1e-3)
    assert report.coherence_margin < 1.0


@pytest.mark.parametrize("v_max", CHECK_RANGES["maximum speed"][:2])
def test_default_waveform_is_coherent_at_both_ends_of_the_speed_range(ofdm, v_max):
    # Why `slpos check`, which always uses the default waveform, prints no
    # verdict: its 12 pilot symbols fit the limit at every accepted speed.
    report = coherence_and_latency_check(ofdm, v_max=v_max, accuracy_req=3.0)
    assert report.coherence_margin > 1.0


def test_zero_speed_reports_unbounded(ofdm):
    report = coherence_and_latency_check(ofdm, v_max=0.0, accuracy_req=3.0)
    assert math.isinf(report.coherence_margin)
    assert math.isinf(report.latency_budget_s)


def test_negative_speed_rejected(ofdm):
    with pytest.raises(ValueError):
        coherence_and_latency_check(ofdm, v_max=-1.0, accuracy_req=3.0)


@pytest.mark.parametrize("v_max, accuracy", [(math.inf, 3.0), (14.0, math.inf)])
def test_infinite_speed_or_accuracy_rejected(ofdm, v_max, accuracy):
    with pytest.raises(ValueError, match="must lie in"):
        coherence_and_latency_check(ofdm, v_max=v_max, accuracy_req=accuracy)
