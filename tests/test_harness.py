import dataclasses
import math
import pathlib
import statistics

import numpy as np
import pytest

from slpos import harness
from slpos.cli import main
from slpos.harness import (
    CSV_COLUMNS,
    LINKS,
    REQUIREMENT_SETS,
    CurvePoint,
    RunConfig,
    coherence_and_latency_check,
    export_csv,
    read_csv,
    run_bounds_sweep,
    run_positioning_demo,
    run_ranging_sweep,
)
from slpos.positioning import Anchor
from slpos.propagation import BuildingBox, ScenarioConfig, Vec3, build_scenario, trace_paths
from slpos.signal import OfdmConfig, default_config

DATA = pathlib.Path(__file__).parent / "data"

SQUARE = [Anchor(Vec3(0.0, 0.0, 0.0)), Anchor(Vec3(10.0, 0.0, 0.0)),
          Anchor(Vec3(0.0, 10.0, 0.0)), Anchor(Vec3(10.0, 10.0, 0.0))]


# --- run configuration -----------------------------------------------------------

def test_link_scenario_consistency():
    with pytest.raises(ValueError):
        RunConfig(scenario_id=2, link="rsu-vehicle")
    with pytest.raises(ValueError):
        RunConfig(scenario_id=1, link="vehicle-bicycle")
    with pytest.raises(ValueError):
        RunConfig(scenario_id=1, link="rsu-vehicle", trials=0)
    with pytest.raises(ValueError):
        RunConfig(scenario_id=1, link="teleporter")


@pytest.mark.parametrize("field, value", [
    ("peak_policy", "psychic"),
    ("first_peak_threshold_db", math.nan),
    ("first_peak_threshold_db", -3.0),
    ("first_peak_threshold_db", math.inf),
    ("oversample", 0),
    ("beta", 1.0),
    ("beta", 2.0),
    ("beta", math.nan),
])
def test_estimator_knobs_validated_up_front(field, value):
    with pytest.raises(ValueError):
        RunConfig(scenario_id=1, link="rsu-vehicle", **{field: value})


def test_zero_first_peak_threshold_accepted():
    assert RunConfig(scenario_id=1, link="rsu-vehicle",
                     first_peak_threshold_db=0.0).first_peak_threshold_db == 0.0


# --- ranging sweep ----------------------------------------------------------------

def test_sweep_deterministic_csv(tmp_path):
    paths = []
    for run in range(2):
        out = tmp_path / f"sweep_{run}.csv"
        cfg = RunConfig(scenario_id=2, link="vehicle-bicycle", trials=2, seed=42,
                        output_path=str(out))
        run_ranging_sweep(cfg)
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


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
    # A slab across the vehicle lane blocks the middle of the sweep.
    slab = BuildingBox(Vec3(1.6, 0.0, 15.0), Vec3(4.0, 4.0, 15.0))
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


@pytest.mark.parametrize("link", LINKS)
def test_ranging_and_bounds_sweeps_share_every_non_rmse_column(link):
    cfg = RunConfig(scenario_id=2 if link == "vehicle-bicycle" else 1, link=link,
                    trials=1, seed=0)
    ranging = run_ranging_sweep(cfg)
    bounds = run_bounds_sweep(cfg)
    assert len(ranging) == len(bounds)
    for a, b in zip(ranging, bounds):
        for name in CurvePoint.__dataclass_fields__:
            if name != "rmse":
                np.testing.assert_equal(getattr(a, name), getattr(b, name), err_msg=name)


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


def _assert_csv_matches_reference(argv, reference, tmp_path):
    """Non-RMSE cells as exact strings, rmse_m to 1e-9 relative."""
    out = tmp_path / "sweep.csv"
    assert main(argv + ["--out", str(out)]) == 0
    expected = (DATA / reference).read_text()
    got_lines, want_lines = out.read_text().splitlines(), expected.splitlines()
    assert got_lines[0] == want_lines[0]
    assert len(got_lines) == len(want_lines)
    rmse_col = CSV_COLUMNS.index("rmse_m")
    for got, want in zip(got_lines[1:], want_lines[1:]):
        got_cells, want_cells = got.split(","), want.split(",")
        assert float(got_cells.pop(rmse_col)) == pytest.approx(
            float(want_cells.pop(rmse_col)), rel=1e-9)
        assert got_cells == want_cells


def test_ranging_csv_matches_committed_reference(tmp_path, capsys):
    # Output of `slpos ranging --scenario 2 --link vehicle-bicycle --trials 2
    # --seed 42`: a refactor that keeps the sweep arithmetic keeps this file.
    _assert_csv_matches_reference(
        ["ranging", "--scenario", "2", "--link", "vehicle-bicycle",
         "--trials", "2", "--seed", "42"],
        "ranging_scenario2_vehicle-bicycle_trials2_seed42.csv", tmp_path)


def test_first_peak_csv_matches_committed_reference(tmp_path, capsys):
    # Output of the first-peak estimator, whose candidate threshold depends
    # on the spectrum values away from the global peak.
    _assert_csv_matches_reference(
        ["ranging", "--scenario", "2", "--link", "vehicle-bicycle",
         "--peak-policy", "first_peak", "--trials", "4", "--seed", "1"],
        "ranging_scenario2_vehicle-bicycle_first_peak_trials4_seed1.csv", tmp_path)


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


def test_export_to_unwritable_path_raises_oserror():
    with pytest.raises(OSError):
        export_csv([], "/nonexistent-dir/foo.csv")


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


def test_noisy_demo_rates_match_percentiles():
    summary = run_positioning_demo(SQUARE, Vec3(3.0, 4.0, 0.0), sigma=1.0,
                                   trials=400, seed=1)
    set2 = summary.scores[1]
    # sigma = 1 m noise: nearly every trial lands within 3 m, few within 1 m.
    assert set2.fraction_within_loose > 0.9
    assert set2.fraction_within_strict < set2.fraction_within_loose
    assert set2.met_loose == (set2.fraction_within_loose >= 0.95)
    assert set2.met_strict == (set2.fraction_within_strict >= 0.99)


def test_coinciding_true_point_rejected_before_any_fix(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "linear_init", lambda *args, **kwargs: calls.append(args))
    # In 2-D only x and y count, so (10, 10, 5) sits on the anchor at (10, 10).
    with pytest.raises(ValueError, match="coincides with an anchor"):
        run_positioning_demo(SQUARE, Vec3(10.0, 10.0, 5.0), sigma=1.0, trials=1000)
    assert calls == []


@pytest.mark.parametrize("anchors, dim, message", [
    ([], 2, "need at least 3 anchors"),
    (SQUARE[:2], 2, "need at least 3 anchors"),
    (SQUARE, 3, "degenerate"),
    ([Anchor(Vec3(x, 0.0, 0.0)) for x in (0.0, 5.0, 10.0)], 2, "degenerate"),
])
def test_bad_anchor_layout_gets_the_initializer_message(anchors, dim, message):
    with pytest.raises(ValueError, match=message):
        run_positioning_demo(anchors, Vec3(3.0, 4.0, 1.0), sigma=1.0, trials=5, dim=dim)


def test_demo_deterministic():
    a = run_positioning_demo(SQUARE, Vec3(3.0, 4.0, 0.0), sigma=1.0, trials=50, seed=9)
    b = run_positioning_demo(SQUARE, Vec3(3.0, 4.0, 0.0), sigma=1.0, trials=50, seed=9)
    assert a == b


# --- coherence / latency --------------------------------------------------------------

def test_coherence_margin_at_14_mps(ofdm):
    report = coherence_and_latency_check(ofdm, v_max=14.0, accuracy_req=3.0)
    assert report.coherence_symbol_limit == pytest.approx(435.5, rel=1e-2)
    assert report.num_symbols == 12
    assert report.coherence_margin == pytest.approx(36.3, rel=1e-2)
    assert report.coherent


def test_latency_budget(ofdm):
    report = coherence_and_latency_check(ofdm, v_max=14.0, accuracy_req=3.0)
    assert report.latency_budget_s == pytest.approx(0.0214, rel=1e-2)


def test_zero_speed_reports_unbounded(ofdm):
    report = coherence_and_latency_check(ofdm, v_max=0.0, accuracy_req=3.0)
    assert math.isinf(report.coherence_margin)
    assert math.isinf(report.latency_budget_s)


def test_negative_speed_rejected(ofdm):
    with pytest.raises(ValueError):
        coherence_and_latency_check(ofdm, v_max=-1.0, accuracy_req=3.0)


@pytest.mark.parametrize("v_max, accuracy", [(math.inf, 3.0), (14.0, math.inf)])
def test_infinite_speed_or_accuracy_rejected(ofdm, v_max, accuracy):
    with pytest.raises(ValueError, match="finite"):
        coherence_and_latency_check(ofdm, v_max=v_max, accuracy_req=accuracy)
