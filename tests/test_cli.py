import argparse
import contextlib
import dataclasses
import io
import math
import pathlib
import re
import shlex
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slpos.cli
from slpos import harness
from slpos.cli import main
from slpos.harness import (
    CHECK_RANGES,
    POSITION_RANGES,
    RUN_RANGES,
    RunConfig,
    read_csv,
    run_ranging_sweep,
)
from slpos.propagation import (
    SCENARIO_RANGES,
    build_scenario,
    scenario_from_text,
    scenario_to_text,
)
from channels import echo_path, los_path, make_snapshot
from slpos.bounds import reb_waa
from slpos.estimation import PEAK_POLICIES
from slpos.signal import (
    WORKING_RANGES,
    OfdmConfig,
    default_config,
    make_pilots,
    noise_scale,
    noise_variance,
)


DATA = pathlib.Path(__file__).parent / "data"


def test_scenario_dump_round_trips(capsys):
    assert main(["scenario", "--id", "1", "--dump"]) == 0
    text = capsys.readouterr().out
    scenario = scenario_from_text(text)
    assert scenario.scenario_id == 1
    assert scenario.rsu is not None


def test_scenario_writes_file(tmp_path, capsys):
    out = tmp_path / "scn2.txt"
    assert main(["scenario", "--id", "2", "--out", str(out)]) == 0
    scenario = scenario_from_text(out.read_text())
    assert scenario.rsu is None


def test_scenario_out_with_dump_prints_only_the_file_text(tmp_path, capsys):
    # The confirmation goes to stderr, so the dumped stdout is a scenario
    # file in its own right: it equals --out's file and feeds --scenario-file.
    out, dumped = tmp_path / "s.txt", tmp_path / "d.txt"
    assert main(["scenario", "--id", "1", "--out", str(out), "--dump"]) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text()
    assert captured.err == f"scenario 1 written to {out}\n"
    dumped.write_text(captured.out)
    assert main(["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--scenario-file",
                 str(dumped), "--out", str(tmp_path / "b.csv")]) == 0


@pytest.mark.parametrize("option", ["--anchors", "--scenario-file"])
def test_a_utf8_byte_order_mark_reads_like_the_plain_file(option, tmp_path, capsys):
    # Some editors start a UTF-8 file with a byte-order mark: an anchor or
    # scenario file gives the same stdout and CSV with it as without.
    out = tmp_path / "out.csv"
    if option == "--anchors":
        text = (DATA / "anchors_square.txt").read_text()
        argv = ["position", "--sigma", "1", "--trials", "50"]
    else:
        assert main(["scenario", "--id", "1", "--dump"]) == 0
        text = capsys.readouterr().out
        argv = ["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--out", str(out)]
    results = []
    for mark in ("", "\ufeff"):
        path = tmp_path / "input.txt"
        path.write_text(mark + text, encoding="utf-8")
        assert main([*argv, option, str(path)]) == 0
        results.append((capsys.readouterr(), out.read_bytes() if out.exists() else None))
    assert results[0] == results[1]


def test_ranging_subcommand_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["ranging", "--scenario", "2", "--link", "vehicle-bicycle",
                 "--trials", "1", "--seed", "3", "--out", str(out)])
    assert code == 0
    points = read_csv(str(out))
    assert len(points) == 101


def test_bounds_subcommand(tmp_path):
    out = tmp_path / "bounds.csv"
    code = main(["bounds", "--scenario", "1", "--link", "rsu-vehicle",
                 "--out", str(out), "--beta", "1.5"])
    assert code == 0
    points = read_csv(str(out))
    assert len(points) == 101


def test_ranging_with_scenario_file(tmp_path):
    scn_file = tmp_path / "scn.txt"
    assert main(["scenario", "--id", "2", "--out", str(scn_file)]) == 0
    out = tmp_path / "sweep.csv"
    code = main(["ranging", "--scenario", "2", "--link", "vehicle-bicycle",
                 "--trials", "1", "--out", str(out),
                 "--scenario-file", str(scn_file)])
    assert code == 0


def test_position_subcommand(capsys):
    code = main(["position", "--anchors", str(DATA / "anchors_square.txt"), "--sigma", "1.0",
                 "--trials", "50", "--true-point", "3,4,0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "synthetic anchor layout" in out
    assert "set3 (0.1-0.5 m, 95%-99%)" in out


def test_position_negative_seed_rejected_by_name_before_any_fix(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(harness, "solve_fixes", lambda *args, **kwargs: calls.append(args))
    assert main(["position", "--anchors", str(DATA / "anchors_square.txt"), "--sigma", "1",
                 "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("slpos: configuration error: seed must lie in [0, inf] "
                            "(a NumPy seed), got -1\n")
    assert captured.out == ""
    assert calls == []


def test_position_trials_beyond_the_cap_rejected_by_name_before_any_fix(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(harness, "solve_fixes", lambda *args, **kwargs: calls.append(args))
    argv = ["position", "--anchors", str(DATA / "anchors_square.txt"), "--sigma", "1",
            "--trials", "2000000000"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ("slpos: configuration error: trials must lie in [1, 1e+07] "
                            "fixes, got 2000000000\n")
    assert captured.out == ""
    assert calls == []


def test_check_subcommand(capsys):
    assert main(["check", "--vmax", "14", "--accuracy", "3"]) == 0
    out = capsys.readouterr().out
    assert "margin" in out
    assert "ms" in out


@pytest.mark.parametrize("vmax, accuracy, lines", [
    ("14", "3", ["coherent symbol limit 435.5, pilot uses 12 symbols (margin 36.3x)",
                 "latency budget for 3.0 m at 14.0 m/s: 21.43 ms"]),
    ("150", "1e-3", ["coherent symbol limit 40.65, pilot uses 12 symbols (margin 3.39x)",
                     "latency budget for 0.001 m at 150.0 m/s: 0.0006667 ms"]),
    ("0.1", "1e3", ["coherent symbol limit 6.097e+04, pilot uses 12 symbols "
                    "(margin 5.08e+03x)",
                    "latency budget for 1000.0 m at 0.1 m/s: 1e+06 ms"]),
], ids=["default", "tiny", "huge"])
def test_check_prints_each_result_in_significant_digits(vmax, accuracy, lines, capsys):
    # At the edges of CHECK_RANGES: neither rounded to 0 nor printed with
    # many digits.
    assert main(["check", "--vmax", vmax, "--accuracy", accuracy]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_check_zero_speed(capsys):
    assert main(["check", "--vmax", "0", "--accuracy", "3"]) == 0
    assert "unbounded" in capsys.readouterr().out


@pytest.mark.parametrize("vmax, accuracy, quantity", [
    ("5e-324", "1", "maximum speed must lie in [0.1, 150] m/s, or 0 (unbounded), got 5e-324"),
    ("1e-308", "1e308", "accuracy requirement must lie in [0.001, 1000] m, got 1e+308"),
    ("1e308", "1", "maximum speed must lie in [0.1, 150] m/s, or 0 (unbounded), got 1e+308"),
    ("100", "5e-324", "accuracy requirement must lie in [0.001, 1000] m, got 5e-324"),
    ("1e-300", "2e6", "accuracy requirement must lie in [0.001, 1000] m, got 2000000.0"),
])
def test_check_rejects_results_outside_the_float_range(vmax, accuracy, quantity, capsys):
    # Inputs that once gave an infinite limit or budget, a budget that
    # underflows to 0 ms, or a speed beyond any road's lie outside
    # CHECK_RANGES, and are rejected by name.
    assert main(["check", "--vmax", vmax, "--accuracy", accuracy]) == 1
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and quantity in captured.err
    assert captured.out == ""


def test_bad_usage_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["ranging", "--scenario", "9", "--link", "rsu-vehicle", "--out", "x.csv"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, message", [
    (["ranging", "--scenario", "1", "--link", "rsu-vehicle", "--tri", "5", "--out", "x.csv"],
     "slpos: error: unrecognized arguments: --tri 5"),
    (["position", "--anchors", "a.txt", "--sigma", "1", "--anch", "b.txt"],
     "slpos: error: unrecognized arguments: --anch b.txt"),
    (["position", "--anch", "a.txt", "--sig", "1"],
     "slpos position: error: the following arguments are required: --anchors, --sigma"),
], ids=["ranging --tri", "position --anch", "position required"])
def test_option_prefix_is_not_taken_for_the_option(argv, message, tmp_path, monkeypatch,
                                                    capsys):
    # A prefix would change its meaning once a second option shares it.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == message
    assert list(tmp_path.iterdir()) == []


def test_link_scenario_mismatch_exits_1(tmp_path, capsys):
    code = main(["ranging", "--scenario", "2", "--link", "rsu-vehicle",
                 "--trials", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_io_failure_exits_2(capsys):
    code = main(["bounds", "--scenario", "1", "--link", "rsu-vehicle",
                 "--out", "/nonexistent-dir/sweep.csv"])
    assert code == 2
    assert "I/O error" in capsys.readouterr().err


_RANGING = ["ranging", "--scenario", "2", "--link", "vehicle-bicycle"]

# One step beyond the edge of each working range the command line reaches,
# with the start of its message, which names the input and its range.
_BEYOND_RANGE = [
    (["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--tx-power-dbm", "60.001"],
     "tx_power must lie in [1e-18, 1000] W (-150 to +60 dBm), got"),
    (["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--tx-power-dbm=-150.001"],
     "tx_power must lie in [1e-18, 1000] W (-150 to +60 dBm), got"),
    (["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--noise-figure-db", "60.001"],
     "noise_figure_db must lie in [0, 60] dB, got 60.001"),
    (["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--noise-figure-db=-0.001"],
     "noise_figure_db must lie in [0, 60] dB, got -0.001"),
    (["ranging", "--scenario", "2", "--link", "vehicle-bicycle", "--trials", "1",
      "--clock-bias-std", "1.000001"],
     "clock_bias_std must lie in [0, 1] s, got 1.000001"),
    (["position", "--sigma", "1000000.001"],
     "range noise sigma must lie in [0, 1e+06] m, got 1000000.001"),
    (["position", "--sigma", "1", "--true-point", "1000000.001,0,0"],
     "true_point must lie within 1e+06 m of the origin in every coordinate, got"),
    (["position", "--sigma", "1", "--anchors", str(DATA / "anchors_beyond_range.txt")],
     "anchor file line 4: anchor must lie within 1e+06 m of the origin in every "
     "coordinate, got"),
    # One step beyond each edge of every RUN_RANGES and POSITION_RANGES row;
    # for a float, NaN and -inf too, and inf, one step beyond an infinite top.
    ([*_RANGING, "--trials", "0"], "trials must lie in [1, 1e+06] round trips per sample, got 0"),
    ([*_RANGING, "--trials", "1000001"],
     "trials must lie in [1, 1e+06] round trips per sample, got 1000001"),
    ([*_RANGING, "--seed=-1"], "seed must lie in [0, inf] (a NumPy seed), got -1"),
    ([*_RANGING, "--clock-bias-std=-5e-324"], "clock_bias_std must lie in [0, 1] s, got -5e-324"),
    ([*_RANGING, "--clock-bias-std", "1.0000000000000002"],
     "clock_bias_std must lie in [0, 1] s, got 1.0000000000000002"),
    ([*_RANGING, "--clock-bias-std", "nan"], "clock_bias_std must lie in [0, 1] s, got nan"),
    ([*_RANGING, "--clock-bias-std", "inf"], "clock_bias_std must lie in [0, 1] s, got inf"),
    ([*_RANGING, "--clock-bias-std=-inf"], "clock_bias_std must lie in [0, 1] s, got -inf"),
    ([*_RANGING, "--oversample", "0"],
     "oversample must lie in [1, 256] points per subcarrier, got 0"),
    ([*_RANGING, "--oversample", "257"],
     "oversample must lie in [1, 256] points per subcarrier, got 257"),
    ([*_RANGING, "--first-peak-threshold-db=-5e-324"],
     "first_peak_threshold_db must lie in [0, inf] dB, got -5e-324"),
    ([*_RANGING, "--first-peak-threshold-db", "nan"],
     "first_peak_threshold_db must lie in [0, inf] dB, got nan"),
    ([*_RANGING, "--first-peak-threshold-db", "inf"],
     "first_peak_threshold_db must lie in [0, inf] dB, got inf"),
    ([*_RANGING, "--first-peak-threshold-db=-inf"],
     "first_peak_threshold_db must lie in [0, inf] dB, got -inf"),
    # Both ends of beta's open interval.
    ([*_RANGING, "--beta", "1"], "beta must lie in (1, 2), got 1.0"),
    ([*_RANGING, "--beta", "2"], "beta must lie in (1, 2), got 2.0"),
    (["position", "--sigma", "1", "--trials", "0"], "trials must lie in [1, 1e+07] fixes, got 0"),
    (["position", "--sigma", "1", "--trials", "10000001"],
     "trials must lie in [1, 1e+07] fixes, got 10000001"),
    (["position", "--sigma", "1", "--seed=-1"],
     "seed must lie in [0, inf] (a NumPy seed), got -1"),
    # One step beyond each edge of both CHECK_RANGES rows; 0 m/s is accepted.
    (["check", "--accuracy", "3", "--vmax", "0.09999999999999999"],
     "maximum speed must lie in [0.1, 150] m/s, or 0 (unbounded), got 0.09999999999999999"),
    (["check", "--accuracy", "3", "--vmax", "150.00000000000003"],
     "maximum speed must lie in [0.1, 150] m/s, or 0 (unbounded), got 150.00000000000003"),
    (["check", "--vmax", "14", "--accuracy", "0.0009999999999999998"],
     "accuracy requirement must lie in [0.001, 1000] m, got 0.0009999999999999998"),
    (["check", "--vmax", "14", "--accuracy", "1000.0000000000001"],
     "accuracy requirement must lie in [0.001, 1000] m, got 1000.0000000000001"),
    (["position", "--sigma=-5e-324"], "range noise sigma must lie in [0, 1e+06] m, got -5e-324"),
    (["position", "--sigma", "1000000.0000000001"],
     "range noise sigma must lie in [0, 1e+06] m, got 1000000.0000000001"),
    (["position", "--sigma", "nan"], "range noise sigma must lie in [0, 1e+06] m, got nan"),
    (["position", "--sigma", "inf"], "range noise sigma must lie in [0, 1e+06] m, got inf"),
    (["position", "--sigma=-inf"], "range noise sigma must lie in [0, 1e+06] m, got -inf"),
]
_BEYOND_RANGE_IDS = ["tx-power-top", "tx-power-floor", "noise-figure-top", "noise-figure-floor",
                     "clock-bias-std", "sigma", "true-point", "anchor-row",
                     *(" ".join([argv[0], *argv[-2 + argv[-1].startswith("--"):]])
                       for argv, _ in _BEYOND_RANGE[8:])]

# Each RUN_RANGES and POSITION_RANGES row at both edges, the largest finite
# float standing in for an infinite top, and for a seed an integer beyond it;
# beta one step inside each end of its open interval.
_HUGE_SEED = str(10**400)
_AT_RANGE_EDGE = [
    [*_RANGING, "--trials", "1"],
    [*_RANGING, "--trials", "1000000"],
    [*_RANGING, "--seed", "0"],
    [*_RANGING, "--seed", _HUGE_SEED],
    [*_RANGING, "--clock-bias-std", "0"],
    [*_RANGING, "--clock-bias-std", "1"],
    [*_RANGING, "--oversample", "1"],
    [*_RANGING, "--oversample", "256"],
    [*_RANGING, "--first-peak-threshold-db", "0"],
    [*_RANGING, "--first-peak-threshold-db", "1.7976931348623157e308"],
    [*_RANGING, "--beta", repr(math.nextafter(1.0, 2.0))],
    [*_RANGING, "--beta", repr(math.nextafter(2.0, 1.0))],
    ["position", "--sigma", "1", "--trials", "1"],
    ["position", "--sigma", "1", "--trials", "10000000"],
    ["position", "--sigma", "1", "--seed", "0"],
    ["position", "--sigma", "1", "--seed", _HUGE_SEED],
    ["position", "--sigma", "0"],
    ["position", "--sigma", "1000000"],
]


class _TraceReached(Exception):
    """Raised in place of a sweep's first trace or a position run's first
    fix: every check before it passed."""


def _trace_reached(*args, **kwargs):
    raise _TraceReached


def _with_files(argv, tmp_path):
    """``argv`` with an --out file in ``tmp_path`` for a sweep, and for a
    ``position`` without --anchors the square anchor file."""
    if argv[0] in ("ranging", "bounds"):
        return argv + ["--out", str(tmp_path / "out.csv")]
    if argv[0] == "position" and "--anchors" not in argv:
        return argv + ["--anchors", str(DATA / "anchors_square.txt")]
    return argv


@pytest.mark.parametrize("argv, message", _BEYOND_RANGE, ids=_BEYOND_RANGE_IDS)
def test_input_beyond_its_working_range_is_rejected_naming_it_and_its_range(argv, message,
                                                                           tmp_path, capsys):
    assert main(_with_files(argv, tmp_path)) == 1
    assert capsys.readouterr().err.startswith(f"slpos: configuration error: {message}")


@pytest.mark.parametrize("argv", [argv for argv, _ in _BEYOND_RANGE], ids=_BEYOND_RANGE_IDS)
def test_input_beyond_its_working_range_is_rejected_before_any_trace_or_fix(argv, tmp_path,
                                                                          monkeypatch):
    monkeypatch.setattr(harness, "trace_paths", _trace_reached)
    monkeypatch.setattr(harness, "solve_fixes", _trace_reached)
    assert main(_with_files(argv, tmp_path)) == 1
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", _AT_RANGE_EDGE,
                         ids=[" ".join([argv[0], *argv[-2:]]).replace(_HUGE_SEED, "10**400")
                              for argv in _AT_RANGE_EDGE])
def test_input_at_an_edge_of_its_working_range_reaches_the_first_trace_or_fix(argv, tmp_path,
                                                                             monkeypatch):
    # Only the checks run: the first trace or solve stops the command.
    monkeypatch.setattr(harness, "trace_paths", _trace_reached)
    monkeypatch.setattr(harness, "solve_fixes", _trace_reached)
    with pytest.raises(_TraceReached):
        main(_with_files(argv, tmp_path))


@pytest.mark.parametrize("argv", [
    ["ranging", "--scenario", "2", "--link", "vehicle-bicycle", "--trials", "1",
     "--clock-bias-std", "nan"],
    ["ranging", "--scenario", "2", "--link", "vehicle-bicycle", "--trials", "1",
     "--clock-bias-std=-1e-6"],
    ["ranging", "--scenario", "2", "--link", "vehicle-bicycle", "--trials", "1",
     "--clock-bias-std", "inf"],
    ["position", "--sigma=-1"],
    ["position", "--sigma", "nan"],
    ["position", "--sigma", "inf"],
    ["position", "--sigma", "1", "--trials", "0"],
    ["check", "--vmax", "14", "--accuracy=-3"],
    ["check", "--vmax", "14", "--accuracy", "0"],
    ["check", "--vmax", "0", "--accuracy", "nan"],
    ["check", "--vmax", "nan", "--accuracy", "3"],
    ["ranging", "--scenario", "2", "--link", "vehicle-bicycle", "--trials", "1",
     "--peak-policy", "first_peak", "--first-peak-threshold-db", "nan"],
    ["ranging", "--scenario", "2", "--link", "vehicle-bicycle", "--trials", "1",
     "--peak-policy", "first_peak", "--first-peak-threshold-db=-3"],
    ["ranging", "--scenario", "2", "--link", "vehicle-bicycle", "--trials", "1",
     "--tx-power-dbm", "nan"],
    ["ranging", "--scenario", "2", "--link", "vehicle-bicycle", "--trials", "1",
     "--tx-power-dbm=inf"],
    ["ranging", "--scenario", "2", "--link", "vehicle-bicycle", "--trials", "1",
     "--noise-figure-db=inf"],
    ["ranging", "--scenario", "2", "--link", "vehicle-bicycle", "--trials", "1",
     "--oversample", "0"],
    ["ranging", "--scenario", "2", "--link", "vehicle-bicycle", "--trials", "1",
     "--beta", "2"],
    ["ranging", "--scenario", "2", "--link", "vehicle-bicycle", "--trials", "1",
     "--beta", "nan"],
    ["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--beta", "1"],
    ["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--tx-power-dbm", "nan"],
    ["check", "--vmax", "inf", "--accuracy", "3"],
    ["check", "--vmax", "14", "--accuracy", "inf"],
    ["position", "--sigma", "1", "--true-point", "0,0,0"],
    ["position", "--sigma", "1", "--true-point", "10,10,5"],
    ["position", "--sigma", "1e160"],
    ["position", "--sigma", "1e308"],
    ["position", "--sigma", "1", "--true-point", "1e200,0,0"],
    ["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--tx-power-dbm", "4000"],
    ["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--noise-figure-db", "4000"],
    ["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--noise-figure-db=-4000"],
    ["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--tx-power-dbm", "3000"],
    ["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--noise-figure-db=-2900"],
    ["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--tx-power-dbm=-1570"],
    ["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--tx-power-dbm=-3000"],
    ["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--tx-power-dbm=-3200"],
    ["ranging", "--scenario", "1", "--link", "rsu-vehicle", "--trials", "1",
     "--tx-power-dbm=-3200"],
    ["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--tx-power-dbm", "2080",
     "--noise-figure-db", "2200"],
    ["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--tx-power-dbm=-1400",
     "--noise-figure-db", "3000"],
    ["ranging", "--scenario", "2", "--link", "vehicle-bicycle", "--trials", "2",
     "--tx-power-dbm=-1000", "--noise-figure-db", "2150"],
    *(argv for argv, _ in _BEYOND_RANGE),
])
def test_bad_config_rejected_before_any_output(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = _with_files(argv, tmp_path)
    with warnings.catch_warnings():
        # A rejected value is caught by a check, not by overflowing on the way.
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("vehicle_speed", "0.0"),
    ("bicycle_speed", "0.0"),
    ("vehicle_speed", "-14.0"),
    ("vehicle_speed", "nan"),
    ("vehicle_speed", "inf"),
    ("vehicle_start", "1.6,80.0,1.5"),
    ("bicycle_start", "80.0,-7.0,1.0"),
    ("measurement_interval", "inf"),
    ("ground_reflection_coeff", "nan"),
    ("wall_reflection_coeff", "infj"),
    ("rsu_position", "1.6,0.0,1.5"),
    ("rsu_position", "1.6,0.0,-1.0"),
    ("rsu_position", "0.0,0.0,0.0"),
    ("rsu_position", "0.0,-6.5,1.0"),
    ("rsu_position", "1.6,70.5,1.5"),
    ("vehicle_start", "1.6,-70.0,0.0"),
    ("bicycle_start", "-16.4,-7.0,-1.0"),
    ("bicycle_start", "-16.4,-7.0,1.5"),
    ("rsu_position", "45.0,45.0,10.0"),
    ("vehicle_start", "45.0,-70.0,1.5"),
    ("bicycle_start", "-16.4,45.0,1.0"),
    ("measurement_interval", "1e-320"),
    ("measurement_interval", "1e-6"),
    ("vehicle_speed", "abc"),
    ("ground_reflection_coeff", "x"),
    ("building0_center", "1,2"),
    ("rsu_position", "1,2,nan"),
    ("scenario_id", "1.5"),
    ("building0_half_extents", "25.0,25.0,0.0"),
    ("building1_center", "1e154,45.0,15.0"),
    ("rsu_position", "1e7,0.0,10.0"),
    ("vehicle_speed", "1e308"),
    ("ground_reflection_coeff", "1.7e308+1.7e308j"),
    ("wall_reflection_coeff", "1e-320"),
    ("building2_center", "0.0,45.0,15.0"),
    # One component of a start point far beyond the working range: each once
    # escaped as an OverflowError traceback from the closest-approach check.
    ("vehicle_start", "1e+308,-70.0,1.5"),
    ("vehicle_start", "-1e+308,-70.0,1.5"),
    ("vehicle_start", "1e+200,-70.0,1.5"),
    ("vehicle_start", "1.6,-1e+308,1.5"),
    ("vehicle_start", "1.6,-70.0,1e+308"),
    ("vehicle_start", "1.6,-70.0,1e+200"),
    ("bicycle_start", "-1e+308,-7.0,1.0"),
    ("bicycle_start", "-16.4,1e+308,1.0"),
    ("bicycle_start", "-16.4,-1e+308,1.0"),
    ("bicycle_start", "-16.4,1e+200,1.0"),
    ("bicycle_start", "-16.4,-7.0,1e+308"),
    ("bicycle_start", "-16.4,-7.0,1e+200"),
])
def test_bad_scenario_file_rejected_before_any_output(key, value, tmp_path, capsys):
    # Only scenario 1 has an RSU; every other key is edited in scenario 2.
    scenario, link = ("1", "rsu-vehicle") if key == "rsu_position" else ("2", "vehicle-bicycle")
    lines = [f"{key}={value}" if line.startswith(f"{key}=") else line
             for line in scenario_to_text(build_scenario(int(scenario))).splitlines()]
    scn_file = tmp_path / "scn.txt"
    scn_file.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.csv"
    code = main(["ranging", "--scenario", scenario, "--link", link,
                 "--trials", "1", "--scenario-file", str(scn_file), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert key in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, extra, message", [
    (["bounds", "--scenario", "1", "--link", "rsu-vehicle"], "",
     "scenario file id does not match --scenario"),
    (["bounds", "--scenario", "2", "--link", "vehicle-bicycle"], "rsu_position=0,0,10\n",
     "scenario 2 has no RSU"),
    (["bounds", "--scenario", "2", "--link", "vehicle-bicycle"], "no equals sign\n",
     "malformed line (expected key=value): 'no equals sign'"),
], ids=["id-mismatch", "rsu-in-scenario-2", "line-without-equals"])
def test_scenario_2_file_rejected_as_a_whole(argv, extra, message, tmp_path, capsys):
    # The scenario-2 dump, with ``extra`` lines appended.
    scn_file = tmp_path / "scn.txt"
    scn_file.write_text(scenario_to_text(build_scenario(2)) + extra)
    out = tmp_path / "out.csv"
    assert main([*argv, "--scenario-file", str(scn_file), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"slpos: configuration error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


# (scenario id, key) of every value in the two scenario dumps.
_SCENARIO_KEYS = [(scenario_id, line.split("=", 1)[0]) for scenario_id in (1, 2)
                  for line in scenario_to_text(build_scenario(scenario_id)).splitlines()
                  if not line.startswith("scenario_id=")]


def _sweeps_or_exits_1_naming_a_key(scenario_id, entries, keys, directory):
    """Run ``bounds``, and ``ranging`` up to its first trace, on the scenario
    file of ``entries``: each either runs (the bounds sweep to the end, with a
    positive or infinite bound on every line-of-sight sample) or exits 1
    naming one of the edited ``keys``; no value escapes as a traceback.  The
    sample cap is lowered so that no sweep runs for long: a sweep beyond it
    is rejected naming the keys of its horizon."""
    (directory / "scn.txt").write_text("".join(f"{k}={v}\n" for k, v in entries.items()))
    link = "rsu-vehicle" if scenario_id == 1 else "vehicle-bicycle"
    common = ["--scenario", str(scenario_id), "--link", link, "--scenario-file",
              str(directory / "scn.txt")]
    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(), \
            contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(harness, "_MAX_SAMPLES", 400)
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["bounds", *common, "--out", str(directory / "out.csv")])
        bounds_err = stderr.getvalue()
        # ranging's own checks, up to its first trace: no sample runs.
        patch.setattr(harness, "trace_paths", _trace_reached)
        try:
            ranging_code = main(["ranging", *common, "--trials", "1",
                                 "--out", str(directory / "ranging.csv")])
        except _TraceReached:
            ranging_code = None
    assert code in (0, 1), bounds_err
    if code == 1:
        assert any(key in bounds_err for key in keys), bounds_err
    else:
        for p in read_csv(str(directory / "out.csv")):
            assert not p.los_present or min(p.reb_los, p.reb_all, p.reb_waa) > 0
    ranging_err = stderr.getvalue()[len(bounds_err):]
    assert ranging_code in (None, 1), ranging_err
    if ranging_code == 1:
        assert any(key in ranging_err for key in keys), ranging_err


def _scenario_entries(scenario_id):
    return dict(line.split("=", 1)
                for line in scenario_to_text(build_scenario(scenario_id)).splitlines())


@settings(max_examples=50, deadline=None)
@given(target=st.sampled_from(_SCENARIO_KEYS), component=st.integers(0, 2), value=st.floats())
@example(target=(2, "vehicle_start"), component=0, value=1e308)
@example(target=(1, "vehicle_start"), component=1, value=-1e6)
@example(target=(2, "bicycle_speed"), component=0, value=5e-324)
@example(target=(1, "wall_reflection_coeff"), component=1, value=1e-300)
@example(target=(2, "building3_center"), component=0, value=1e154)
@example(target=(1, "rsu_position"), component=0, value=1e6)
def test_any_one_scenario_value_runs_or_exits_1_naming_its_key(target, component, value,
                                                               tmp_path_factory):
    # One component of one value is edited: an x, y or z of a vector, the
    # real or imaginary part of a coefficient, or a scalar.
    scenario_id, key = target
    entries = _scenario_entries(scenario_id)
    if "coeff" in key:
        parts = [complex(entries[key]).real, complex(entries[key]).imag]
        parts[component % 2] = value
        entries[key] = str(complex(*parts)).strip("()")
    else:
        parts = entries[key].split(",")
        parts[component % len(parts)] = repr(value)
        entries[key] = ",".join(parts)
    _sweeps_or_exits_1_naming_a_key(scenario_id, entries, [key],
                                    tmp_path_factory.mktemp("scenario"))


# The scenario keys whose value is one real number, and values for them:
# any float, or one around their working ranges.
_SCALAR_SCENARIO_KEYS = ("vehicle_speed", "bicycle_speed", "measurement_interval")
_SCALAR_VALUES = st.floats() | st.floats(min_value=1e-4, max_value=2e3)


@settings(max_examples=30, deadline=None)
@given(scenario_id=st.sampled_from((1, 2)),
       keys=st.lists(st.sampled_from(_SCALAR_SCENARIO_KEYS), min_size=2, max_size=2,
                     unique=True),
       values=st.tuples(_SCALAR_VALUES, _SCALAR_VALUES))
@example(scenario_id=2, keys=["vehicle_speed", "bicycle_speed"], values=(1e-170, 1e-170))
@example(scenario_id=1, keys=["vehicle_speed", "measurement_interval"], values=(0.1, 1e-3))
def test_any_two_scenario_scalars_run_or_exit_1_naming_a_key(scenario_id, keys, values,
                                                             tmp_path_factory):
    # Two scalars edited at once: a pair of values may be rejected only
    # together, as both speeds slow enough for the devices' relative speed
    # to underflow once were.
    entries = _scenario_entries(scenario_id)
    entries.update((key, repr(value)) for key, value in zip(keys, values))
    _sweeps_or_exits_1_naming_a_key(scenario_id, entries, keys,
                                    tmp_path_factory.mktemp("scenario"))


@pytest.mark.parametrize("command", ["bounds", "ranging"])
@pytest.mark.parametrize("edits, message", [
    # Both speeds once passed their checks and divided by a squared relative
    # speed that underflowed to 0, a ZeroDivisionError traceback.
    ({"vehicle_speed": "1e-170", "bicycle_speed": "1e-170"},
     "vehicle_speed must lie in [0.1, 150] m/s, got 1e-170"),
    # Devices one above the other at the start: their closest approach is at
    # t = 0 s, once printed as -0 s.
    ({"vehicle_start": "0.0,0.0,1.5", "bicycle_start": "0.0,0.0,1.4"},
     "vehicle_start and bicycle_start, at vehicle_speed and bicycle_speed, bring the "
     "devices 0.1 m apart at t = 0 s; they must stay at least 0.25 m apart"),
], ids=["both-speeds-1e-170", "met-at-the-start"])
def test_scenario_2_pair_of_values_rejected_by_name(command, edits, message, tmp_path, capsys):
    entries = {**_scenario_entries(2), **edits}
    scn_file = tmp_path / "scn.txt"
    scn_file.write_text("".join(f"{k}={v}\n" for k, v in entries.items()))
    out = tmp_path / "out.csv"
    assert main([command, "--scenario", "2", "--link", "vehicle-bicycle",
                 "--scenario-file", str(scn_file), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"slpos: configuration error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_duplicate_scenario_key_rejected_by_name(tmp_path, capsys):
    # A key set twice is an error, not a silent override by the last value.
    assert main(["scenario", "--id", "1", "--dump"]) == 0
    scn_file = tmp_path / "scn.txt"
    scn_file.write_text(capsys.readouterr().out + "vehicle_speed=20.0\n")
    out = tmp_path / "out.csv"
    code = main(["bounds", "--scenario", "1", "--link", "rsu-vehicle",
                 "--scenario-file", str(scn_file), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "duplicate scenario key 'vehicle_speed'" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("row, reason", [
    ("a,b,c", "line 3: could not convert string to float: 'a'"),
    ("1,2", "line 3: needs x,y,z[,label], got '1,2'"),
    ("0,nan,0,c", "line 3: non-finite vector components"),
    ("0,-1000000.001,0", "line 3: anchor must lie within 1e+06 m of the origin"),
], ids=("letters", "two-numbers", "nan", "beyond-range"))
def test_bad_anchor_row_exits_1_naming_its_line(row, reason, tmp_path, capsys):
    anchors = tmp_path / "anchors.txt"
    anchors.write_text(f"# corners\n0,0,0\n{row}\n10,0,0\n0,10,0\n")
    assert main(["position", "--anchors", str(anchors), "--sigma", "1"]) == 1
    captured = capsys.readouterr()
    assert f"configuration error: anchor file {reason}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("point, reason", [
    ("nan,0,0", "non-finite vector components"),
    ("a,b,c", "could not convert string to float: 'a'"),
    ("1,2", "expected 3 comma-separated numbers, got '1,2'"),
], ids=("nan", "letters", "two-numbers"))
def test_bad_true_point_exits_1_with_its_reason(point, reason, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["position", "--anchors", str(DATA / "anchors_square.txt"), "--sigma", "1",
              "--true-point", point])
    assert exc.value.code == 1
    assert f"argument --true-point: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ranging", "bounds"])
def test_unwritable_out_rejected_before_the_first_sample(command, tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.setattr(harness, "trace_paths", _trace_reached)
    for out in (tmp_path / "missing_dir" / "x.csv", tmp_path, ""):
        assert main([command, "--scenario", "1", "--link", "rsu-vehicle",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"cannot write sweep CSV to {str(out)!r}: " in captured.err
        assert captured.out == ""
    assert not (tmp_path / "missing_dir").exists()


# At 1.4 m/s the 140 m rsu-bicycle lane takes 100 s: an interval of
# 100/99999 s gives exactly the cap's 10^5 samples, and 1 ms one more, which
# is rejected before the first pose.  `bounds` runs the same lines of the
# sweep up to its first trace.
@pytest.mark.parametrize("interval, accepted", [(repr(100 / 99999), True), ("0.001", False)],
                         ids=["at-the-cap", "one-over"])
def test_sample_count_at_the_cap_reaches_the_first_trace_and_one_more_is_rejected(
        interval, accepted, tmp_path, monkeypatch, capsys):
    assert harness._MAX_SAMPLES == 10**5
    entries = {**_scenario_entries(1), "bicycle_speed": "1.4", "measurement_interval": interval}
    scn_file = tmp_path / "scn.txt"
    scn_file.write_text("".join(f"{k}={v}\n" for k, v in entries.items()))
    monkeypatch.setattr(harness, "trace_paths", _trace_reached)
    out = tmp_path / "out.csv"
    argv = ["ranging", "--scenario", "1", "--link", "rsu-bicycle", "--scenario-file",
            str(scn_file), "--out", str(out)]
    if accepted:
        with pytest.raises(_TraceReached):
            main(argv)
        return
    monkeypatch.setattr(harness, "sample_trajectory", _trace_reached)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("slpos: configuration error: measurement_interval=0.001 s "
                                   "over the 100 s horizon of link rsu-bicycle (from "
                                   "bicycle_start and bicycle_speed) gives more than 100000 "
                                   "sweep samples")
    assert captured.out == ""
    assert not out.exists()


def test_ranging_beyond_the_alias_range_rejected_before_the_first_sample(tmp_path, monkeypatch,
                                                                        capsys):
    # A vehicle starting 1300 m out passes c / (2 * 120 kHz) = 1249.1 m, where
    # a round trip combined modulo the alias period wraps to a short range.
    lines = ["vehicle_start=1.6,-1300.0,1.5" if line.startswith("vehicle_start=") else line
             for line in scenario_to_text(build_scenario(1)).splitlines()]
    scn_file = tmp_path / "scn.txt"
    scn_file.write_text("\n".join(lines) + "\n")
    common = ["--scenario", "1", "--link", "rsu-vehicle", "--scenario-file", str(scn_file)]
    # Bounds combine no round trip, so they keep the file.
    assert main(["bounds", *common, "--out", str(tmp_path / "bounds.csv")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(harness, "trace_paths", _trace_reached)
    out = tmp_path / "out.csv"
    assert main(["ranging", *common, "--trials", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "rsu-vehicle" in captured.err and "1249.1 m" in captured.err
    assert "vehicle_start" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("key, value, link", [
    ("rsu_position", "1e6,0.0,10.0", "rsu-vehicle"),
    ("bicycle_start", "-1300.0,-7.0,1.0", "rsu-bicycle"),
])
def test_ranging_beyond_the_alias_range_names_the_key_of_each_end(key, value, link, tmp_path,
                                                                   monkeypatch, capsys):
    # The rejection names the scenario keys that place the link's ends: the
    # RSU's position, and the start and speed of each lane of the link.
    lines = [f"{key}={value}" if line.startswith(f"{key}=") else line
             for line in scenario_to_text(build_scenario(1)).splitlines()]
    scn_file = tmp_path / "scn.txt"
    scn_file.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(harness, "trace_paths", _trace_reached)
    out = tmp_path / "out.csv"
    assert main(["ranging", "--scenario", "1", "--link", link, "--scenario-file", str(scn_file),
                 "--trials", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "configuration error" in captured.err and "1249.1 m" in captured.err
    lane = link.split("-")[1]
    for name in (link, key, "rsu_position", f"{lane}_start", f"{lane}_speed"):
        assert name in captured.err
    assert captured.out == ""
    assert not out.exists()


# Scenario 2 without a ground echo, a blocker between the lanes and a facade
# 675 m out: with the line of sight blocked, the only path is its echo of
# 1336.7-1345.1 m, whose round trip would wrap to under 90 m.
_FAR_FACADE = """scenario_id=2
vehicle_start=1.6,-70.0,1.5
vehicle_speed=14.0
bicycle_start=-16.4,-7.0,1.0
bicycle_speed=4.0
measurement_interval=0.1
ground_reflection_coeff=0
wall_reflection_coeff=-0.6+0j
building0_center=-8.0,-25.0,15.0
building0_half_extents=5.0,10.0,15.0
building1_center=-700.0,0.0,15.0
building1_half_extents=25.0,1000.0,15.0
"""


@pytest.mark.parametrize("edits, at, reflector, keys", [
    # A facade 1475 m out, 2000 m long: its echo runs about 2949 m.
    ({"building0_center": "1500.0,0.0,15.0", "building0_half_extents": "25.0,1000.0,15.0"},
     36, "building 0", ("building0_center", "building0_half_extents")),
    # Both ends 1300 m up: the ground echo runs about 2601 m.  It names the
    # keys that place the link's ends.
    ({"rsu_position": "0.0,0.0,1300.0", "vehicle_start": "1.6,-70.0,1300.0"},
     0, "the ground", ("rsu_position", "vehicle_start", "vehicle_speed")),
    # A whole scenario file, rather than edits of scenario 1's.
    pytest.param(_FAR_FACADE, 0, "building 1", ("building1_center", "building1_half_extents"),
                 id="far-facade-file"),
])
def test_ranging_with_an_echo_beyond_the_alias_period_rejected_naming_its_keys(
        edits, at, reflector, keys, tmp_path, monkeypatch, capsys):
    # Every end lies within c / (2 subcarrier_spacing) = 1249.1 m, but a
    # reflection is at least as long, so its round trip wraps modulo the
    # alias period: the sweep stops at that sample's trace, before any
    # sample's bounds or round trips, naming the keys that place the
    # reflector.  Bounds take no round trip and keep the file.
    if isinstance(edits, str):
        text = edits
    else:
        lines = [f"{key}={edits[key]}" if key in edits else f"{key}={value}"
                 for key, value in (line.split("=", 1) for line in
                                    scenario_to_text(build_scenario(1)).splitlines())]
        text = "\n".join(lines) + "\n"
    scn_file = tmp_path / "scn.txt"
    scn_file.write_text(text)
    scenario_id = scenario_from_text(text).scenario_id
    link = {1: "rsu-vehicle", 2: "vehicle-bicycle"}[scenario_id]
    common = ["--scenario", str(scenario_id), "--link", link, "--scenario-file", str(scn_file)]
    assert main(["bounds", *common, "--out", str(tmp_path / "bounds.csv")]) == 0
    capsys.readouterr()
    bounded = []

    def counting_reb_waa(*args, **kwargs):
        bounded.append(None)
        return reb_waa(*args, **kwargs)

    monkeypatch.setattr(harness, "reb_waa", counting_reb_waa)
    out = tmp_path / "out.csv"
    assert main(["ranging", *common, "--trials", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    coord = -70.0 + 1.4 * at
    assert captured.err.startswith(f"slpos: configuration error: link {link} at sweep "
                                   f"coordinate {coord:.1f} m has a reflection off {reflector} "
                                   f"(from {', '.join(keys[:-1])} and {keys[-1]}) of ")
    assert captured.err.endswith(" m, but a round trip resolves paths only below "
                                 "c / (2 subcarrier_spacing) = 1249.1 m\n")
    assert not bounded
    assert captured.out == ""
    assert not out.exists()


_BEYOND_A_ROUND_TRIP = ("slpos: 101 of 101 samples have a range error bound of at least "
                        "c / (2 subcarrier_spacing) = 1249.1 m, beyond what a round trip "
                        "resolves; the small-error bounds do not hold there\n")


@pytest.mark.parametrize("argv, warned", [
    (["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--tx-power-dbm=-100"], True),
    (["ranging", "--scenario", "2", "--link", "vehicle-bicycle", "--trials", "5",
      "--tx-power-dbm=-150", "--noise-figure-db", "60"], True),
    (["bounds", "--scenario", "1", "--link", "rsu-vehicle"], False),
    (["bounds", "--scenario", "1", "--link", "rsu-bicycle"], False),
    (["bounds", "--scenario", "2", "--link", "vehicle-bicycle"], False),
])
def test_bounds_beyond_a_round_trip_counted_on_stderr(argv, warned, tmp_path, capsys):
    # A finite bound of c / (2 subcarrier_spacing) or more lies beyond any
    # error a round trip can show; the sweep still writes every sample.
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == (_BEYOND_A_ROUND_TRIP if warned else "")
    assert len(read_csv(str(out))) == int(captured.out.split()[0])


def test_the_round_trip_range_is_the_waveforms_and_printed_by_both_checks(tmp_path,
                                                                          monkeypatch, capsys):
    # OfdmConfig.unambiguous_range, c / (2 subcarrier_spacing), is the one
    # limit that the pre-trace rejection and the bound count print.
    assert default_config().unambiguous_range == pytest.approx(1249.1, abs=0.05)
    monkeypatch.setattr(OfdmConfig, "unambiguous_range", property(lambda self: 30.0))
    argv = ["--scenario", "1", "--link", "rsu-vehicle", "--out", str(tmp_path / "out.csv")]
    assert main(["ranging", *argv, "--trials", "1"]) == 1
    assert capsys.readouterr().err.endswith(" m, but a round trip is unambiguous only below "
                                            "c / (2 subcarrier_spacing) = 30.0 m\n")
    assert main(["bounds", *argv, "--tx-power-dbm=-100"]) == 0
    assert capsys.readouterr().err == _BEYOND_A_ROUND_TRIP.replace("1249.1 m", "30.0 m")


def _readme_commands():
    """Each literal ``slpos`` command of README's sh blocks, without its
    ``slpos``: continuation lines joined, a line with a ``$`` template
    skipped."""
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["slpos"] and "$" not in line:
                commands.append(words[1:])
    return commands


def test_every_readme_command_parses(monkeypatch, capsys):
    # A renamed or removed option fails here instead of leaving README stale;
    # abbreviations are off, so that a renamed option's old name is no
    # prefix of its new one.
    parser = slpos.cli._build_parser()
    subcommands = next(action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    for each in (parser, *subcommands.values()):
        monkeypatch.setattr(each, "allow_abbrev", False)
    commands = _readme_commands()
    assert len(commands) >= 6
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: slpos {shlex.join(argv)}\n"
                        f"{capsys.readouterr().err}")


# Each input of README's working-range table: the code's table and entry.
_DOCUMENTED_RANGES = {
    "`--tx-power-dbm`": (WORKING_RANGES, "tx_power"),
    "`--noise-figure-db`": (WORKING_RANGES, "noise_figure_db"),
    **{f"`ranging --{name.replace('_', '-')}`": (RUN_RANGES, name) for name in RUN_RANGES},
    "`position --trials`": (POSITION_RANGES, "trials"),
    "`position --seed`": (POSITION_RANGES, "seed"),
    "`position --sigma`": (POSITION_RANGES, "range noise sigma"),
    **{f"`{name}`": (SCENARIO_RANGES, name) for name in SCENARIO_RANGES},
    "`check --vmax`": (CHECK_RANGES, "maximum speed"),
    "`check --accuracy`": (CHECK_RANGES, "accuracy requirement"),
}


def _readme_range_table():
    """(input, lo, hi) of each row of README's working-range table."""
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    table = text.split("| Input | Range | Unit | Reason |\n|---|---|---|---|\n")[1]
    rows = []
    for line in table.split("\n\n")[0].splitlines():
        name, limits = (cell.strip() for cell in line.split("|")[1:3])
        lo, hi = limits.strip("[)]").split(", ")
        rows.append((name, float(lo), math.inf if hi == "∞" else float(hi)))
    return rows


def test_readme_range_table_matches_the_code():
    # A changed range fails here instead of leaving README stale.
    rows = _readme_range_table()
    assert [name for name, _, _ in rows] == list(_DOCUMENTED_RANGES)
    # Every row of each table but the waveform's, of which only the two
    # fields the command line sets are documented here.
    for table in (RUN_RANGES, POSITION_RANGES, SCENARIO_RANGES, CHECK_RANGES):
        assert [name for documented, name in _DOCUMENTED_RANGES.values()
                if documented is table] == list(table)
    for name, lo, hi in rows:
        table, entry = _DOCUMENTED_RANGES[name]
        code_lo, code_hi, _ = table[entry]
        if entry == "tx_power":  # documented in dBm
            code_lo, code_hi = (10.0 * math.log10(watts / 1e-3) for watts in (code_lo, code_hi))
        assert (lo, hi) == pytest.approx((code_lo, code_hi), rel=1e-12), name


@pytest.mark.parametrize("oversample", ["257", "10000"])
def test_oversample_too_large_rejected_before_the_first_sample(oversample, tmp_path,
                                                               monkeypatch, capsys):
    # Beyond the cap, one batch of full-spectrum fallbacks can exhaust the
    # memory partway through the sweep.
    monkeypatch.setattr(harness, "trace_paths", _trace_reached)
    out = tmp_path / "x.csv"
    assert main(["ranging", "--scenario", "1", "--link", "rsu-vehicle", "--trials", "32",
                 "--oversample", oversample, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "oversample" in captured.err and oversample in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("trials", ["1000001", "1000000000"])
def test_trials_beyond_the_cap_rejected_before_the_first_sample(trials, tmp_path,
                                                                monkeypatch, capsys):
    # 10^9 trials per sample would run for months; the cap, 10^6, for hours.
    monkeypatch.setattr(harness, "trace_paths", _trace_reached)
    out = tmp_path / "x.csv"
    assert main(["ranging", "--scenario", "1", "--link", "rsu-vehicle", "--trials", trials,
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("slpos: configuration error: trials must lie in [1, 1e+06] "
                            f"round trips per sample, got {trials}\n")
    assert captured.out == ""
    assert not out.exists()
    # The cap itself is a valid configuration; no sweep is started here.
    assert harness.RUN_RANGES["trials"][1] == 10**6
    RunConfig(scenario_id=1, link="rsu-vehicle", trials=harness.RUN_RANGES["trials"][1])


def test_clock_bias_std_that_can_overflow_rejected_before_the_first_sample(tmp_path,
                                                                         monkeypatch, capsys):
    # A draw of 1e308 * N(0, 1) overflows to inf as soon as |N(0, 1)| > 1.8.
    monkeypatch.setattr(harness, "trace_paths", _trace_reached)
    out = tmp_path / "out.csv"
    assert main(["ranging", "--scenario", "2", "--link", "vehicle-bicycle", "--trials", "1",
                 "--clock-bias-std", "1e308", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "clock_bias_std" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_existing_out_is_kept_until_the_sweep_ends(tmp_path, monkeypatch):
    out = tmp_path / "x.csv"
    out.write_text("old\n")

    def interrupted(*args, **kwargs):
        assert out.read_text() == "old\n"
        raise ValueError("stop")

    monkeypatch.setattr(harness, "trace_paths", interrupted)
    assert main(["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--out", str(out)]) == 1
    assert out.read_text() == "old\n"


def test_ranging_defaults_are_the_run_config_defaults(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(slpos.cli, "run_ranging_sweep",
                        lambda cfg, scenario, ofdm: calls.append((cfg, scenario, ofdm)) or [])
    out = str(tmp_path / "out.csv")
    assert main(["ranging", "--scenario", "2", "--link", "vehicle-bicycle",
                 "--out", out]) == 0
    assert calls == [(RunConfig(scenario_id=2, link="vehicle-bicycle", output_path=out),
                      None, default_config())]


def test_every_sweep_option_reaches_its_run_config_field(tmp_path, monkeypatch):
    # Every option at a value other than its default; `bounds` has no
    # Monte Carlo options, so those fields keep RunConfig's defaults.
    calls = []
    for name in ("run_ranging_sweep", "run_bounds_sweep"):
        monkeypatch.setattr(slpos.cli, name,
                            lambda cfg, scenario, ofdm, name=name:
                            calls.append((name, cfg, ofdm)) or [])
    out = str(tmp_path / "out.csv")
    common = ["--scenario", "1", "--link", "rsu-bicycle", "--out", out, "--beta", "1.25",
              "--tx-power-dbm", "12", "--noise-figure-db", "7"]
    ofdm = slpos.cli._radio_budget(12.0, 7.0)
    assert main(["ranging", *common, "--trials", "7", "--seed", "11", "--oversample", "4",
                 "--peak-policy", "first_peak", "--first-peak-threshold-db", "3.5",
                 "--no-doppler", "--clock-bias-std", "2e-6"]) == 0
    assert main(["bounds", *common]) == 0
    assert calls == [
        ("run_ranging_sweep",
         RunConfig(scenario_id=1, link="rsu-bicycle", trials=7, seed=11, beta=1.25,
                   oversample=4, peak_policy="first_peak", first_peak_threshold_db=3.5,
                   doppler_enabled=False, clock_bias_std=2e-6, output_path=out), ofdm),
        ("run_bounds_sweep",
         RunConfig(scenario_id=1, link="rsu-bicycle", beta=1.25, output_path=out), ofdm),
    ]
    assert ofdm != default_config()


def test_successive_main_calls_parse_independently(tmp_path, monkeypatch):
    # The parser is built once per process; options given to one call do
    # not carry over to the next.
    calls = []
    monkeypatch.setattr(slpos.cli, "run_ranging_sweep",
                        lambda cfg, scenario, ofdm: calls.append(cfg) or [])
    argv = ["ranging", "--scenario", "2", "--link", "vehicle-bicycle",
            "--out", str(tmp_path / "out.csv")]
    assert main(argv + ["--oversample", "8", "--no-doppler"]) == 0
    assert main(argv) == 0
    assert [(cfg.oversample, cfg.doppler_enabled) for cfg in calls] == [(8, False), (16, True)]
    assert slpos.cli._build_parser() is slpos.cli._build_parser()


# The working ranges of the transmit power (dBm) and the noise figure (dB);
# the property draws from 5 dB beyond either edge.
_TX_POWER_DBM = (-150.0, 60.0)
_NOISE_FIGURE_DB = (0.0, 60.0)


@settings(max_examples=300, deadline=None)
@given(tx_power_dbm=st.floats(min_value=_TX_POWER_DBM[0] - 5, max_value=_TX_POWER_DBM[1] + 5),
       noise_figure_db=st.floats(min_value=_NOISE_FIGURE_DB[0] - 5,
                                 max_value=_NOISE_FIGURE_DB[1] + 5))
@example(tx_power_dbm=-150.0, noise_figure_db=0.0)
@example(tx_power_dbm=-150.0, noise_figure_db=60.0)
@example(tx_power_dbm=60.0, noise_figure_db=0.0)
@example(tx_power_dbm=60.0, noise_figure_db=60.0)
@example(tx_power_dbm=-150.01, noise_figure_db=0.0)
@example(tx_power_dbm=60.01, noise_figure_db=60.0)
@example(tx_power_dbm=-150.0, noise_figure_db=-0.01)
@example(tx_power_dbm=60.0, noise_figure_db=60.01)
def test_every_accepted_radio_budget_scales_the_bound_exactly(tx_power_dbm, noise_figure_db):
    # A lone path's delay bound is N0 / (2 |g|^2 (2 pi df)^2 (P2 - P1^2 / P0))
    # with every P_k proportional to P, so reb_los sqrt(P / N0) is the same
    # for every budget the waveform accepts.
    snap = make_snapshot([los_path(200e-9, 1e-3 + 0j),
                          echo_path(230e-9, 4e-4 * complex(math.cos(1.0), math.sin(1.0)))])

    def normalized_reb_los(ofdm):
        report = reb_waa(snap, make_pilots(ofdm), ofdm)
        return report.reb_los_only * math.sqrt(ofdm.tx_power) / math.sqrt(noise_variance(ofdm))

    reference = normalized_reb_los(default_config())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            ofdm = slpos.cli._radio_budget(tx_power_dbm, noise_figure_db)
        except ValueError:
            # Only a budget outside the working ranges is rejected.
            assert not (_TX_POWER_DBM[0] <= tx_power_dbm <= _TX_POWER_DBM[1]
                        and _NOISE_FIGURE_DB[0] <= noise_figure_db <= _NOISE_FIGURE_DB[1])
            return
        assert normalized_reb_los(ofdm) == pytest.approx(reference, rel=1e-9)
        scale = noise_scale(make_pilots(ofdm), ofdm)
    assert np.all(np.isfinite(scale)) and np.all(scale > 0)


def _ranges_finitely(tx_power_dbm, noise_figure_db, policy):
    """A 20-trial vehicle-bicycle sweep at the budget has finite RMSEs, with
    no overflow warning on the way."""
    ofdm = slpos.cli._radio_budget(tx_power_dbm, noise_figure_db)
    scenario = dataclasses.replace(build_scenario(2), measurement_interval=1.0)
    cfg = RunConfig(scenario_id=2, link="vehicle-bicycle", trials=20, seed=1,
                    peak_policy=policy)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        points = run_ranging_sweep(cfg, scenario=scenario, ofdm=ofdm)
    assert all(math.isfinite(p.rmse) for p in points)


@pytest.mark.parametrize("policy", PEAK_POLICIES)
def test_noisiest_accepted_budget_ranges_without_overflow(policy):
    # -150 dBm with a 60 dB noise figure: the signal is far below the noise.
    _ranges_finitely(_TX_POWER_DBM[0], _NOISE_FIGURE_DB[1], policy)


@pytest.mark.parametrize("policy", PEAK_POLICIES)
def test_cleanest_accepted_budget_ranges_without_overflow(policy):
    # +60 dBm with no noise figure: the largest Fisher information.
    _ranges_finitely(_TX_POWER_DBM[1], _NOISE_FIGURE_DB[0], policy)
