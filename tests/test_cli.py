import warnings

import pytest

import slpos.cli
from slpos import harness
from slpos.cli import main
from slpos.harness import RunConfig, read_csv
from slpos.propagation import build_scenario, scenario_from_text, scenario_to_text
from slpos.signal import default_config


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


def test_position_subcommand(tmp_path, capsys):
    anchors = tmp_path / "anchors.txt"
    anchors.write_text("# corner anchors\n0,0,0,a\n10,0,0,b\n0,10,0,c\n10,10,0,d\n")
    code = main(["position", "--anchors", str(anchors), "--sigma", "1.0",
                 "--trials", "50", "--true-point", "3,4,0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "synthetic anchor layout" in out
    assert "set3 (0.1-0.5 m, 95%-99%)" in out


def test_check_subcommand(capsys):
    assert main(["check", "--vmax", "14", "--accuracy", "3"]) == 0
    out = capsys.readouterr().out
    assert "margin" in out
    assert "ms" in out


def test_check_zero_speed(capsys):
    assert main(["check", "--vmax", "0", "--accuracy", "3"]) == 0
    assert "unbounded" in capsys.readouterr().out


def test_bad_usage_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["ranging", "--scenario", "9", "--link", "rsu-vehicle", "--out", "x.csv"])
    assert exc.value.code == 1


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
    ["position", "--sigma", "1", "--true-point", "1e200,0,0"],
    ["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--tx-power-dbm", "4000"],
    ["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--noise-figure-db", "4000"],
    ["bounds", "--scenario", "1", "--link", "rsu-vehicle", "--noise-figure-db=-4000"],
])
def test_bad_config_rejected_before_any_output(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    if argv[0] in ("ranging", "bounds"):
        argv = argv + ["--out", str(out)]
    if argv[0] == "position":
        anchors = tmp_path / "anchors.txt"
        anchors.write_text("0,0,0\n10,0,0\n0,10,0\n10,10,0\n")
        argv = argv + ["--anchors", str(anchors)]
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


@pytest.mark.parametrize("command", ["ranging", "bounds"])
def test_unwritable_out_rejected_before_the_first_sample(command, tmp_path, monkeypatch,
                                                         capsys):
    def never(*args, **kwargs):
        raise AssertionError("a sweep sample ran")

    monkeypatch.setattr(harness, "trace_paths", never)
    for out in (tmp_path / "missing_dir" / "x.csv", tmp_path):
        assert main([command, "--scenario", "1", "--link", "rsu-vehicle",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "cannot write sweep CSV" in captured.err
        assert captured.out == ""
    assert not (tmp_path / "missing_dir").exists()


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

    def never(*args, **kwargs):
        raise AssertionError("a sweep sample ran")

    monkeypatch.setattr(harness, "trace_paths", never)
    out = tmp_path / "out.csv"
    assert main(["ranging", *common, "--trials", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "rsu-vehicle" in captured.err and "1249.1 m" in captured.err
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
