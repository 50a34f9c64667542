"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile

import pytest

import run
import tracing
from workloads import WORKLOADS, CheckError, bounds_workload

run.use_checkout_source()

import slpos.cli  # noqa: E402

SMALL = bounds_workload(links=((1, "rsu-vehicle"),))


def module_attributes() -> dict:
    """The current value of every attribute a Tracer replaces."""
    return {(m, a): getattr(sys.modules[m], a) for _, m, a in tracing.SPAN_TARGETS}


@pytest.fixture
def workdir():
    with tempfile.TemporaryDirectory(prefix="_work-", dir=run.BENCH_DIR) as path:
        yield path


@pytest.fixture
def seen(monkeypatch):
    """Records, at every CLI call, the attributes a Tracer would replace."""
    views = []
    real_main = slpos.cli.main

    def main(argv):
        views.append(module_attributes())
        return real_main(argv)

    monkeypatch.setattr(slpos.cli, "main", main)
    return views


def test_untraced_run_installs_no_wrapper(workdir, seen):
    originals = module_attributes()
    result = run.measure(SMALL, seed=1, seconds=0, workdir=workdir)
    assert result.failed == 0
    assert seen == [originals]


def test_traced_run_wraps_every_target_and_restores_them(workdir, seen):
    originals = module_attributes()
    tracer = tracing.Tracer()
    result = run.measure(SMALL, seed=1, seconds=0, workdir=workdir, tracer=tracer)
    assert [p.traced for p in result.passes] == [False, True]
    assert result.failed == 0
    untraced, traced = seen
    assert untraced == originals
    assert all(traced[key] is not originals[key] for key in originals)
    assert module_attributes() == originals
    assert tracer.stats["propagation.trace_paths"].calls == 101
    assert tracer.stats["cli.main"].calls == 1


def test_failing_check_counts_as_failed_operation(workdir):
    def failing(outputs):
        raise CheckError("deliberate")

    result = run.measure(dataclasses.replace(SMALL, check=failing), seed=1, seconds=0,
                         workdir=workdir)
    assert (len(result.passes), result.failed) == (1, 1)


def test_nonzero_exit_counts_as_failed_operation(workdir):
    def bad_link(seed, workdir):
        return [["bounds", "--scenario", "2", "--link", "rsu-vehicle", "--out",
                 f"{workdir}/x.csv"]]

    result = run.measure(dataclasses.replace(SMALL, commands=bad_link), seed=1, seconds=0,
                         workdir=workdir)
    assert result.failed == 1


def test_bound_drift_beyond_tolerance_fails_the_check(workdir):
    def drifted(outputs):
        path = outputs[0].argv[outputs[0].argv.index("--out") + 1]
        with open(path, encoding="ascii") as handle:
            lines = handle.read().splitlines()
        cells = lines[1].split(",")
        cells[5] = f"{float(cells[5]) * (1 + 1e-8):.9e}"   # reb_waa_m
        lines[1] = ",".join(cells)
        with open(path, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
        return SMALL.check(outputs)

    result = run.measure(dataclasses.replace(SMALL, check=drifted), seed=1, seconds=0,
                         workdir=workdir)
    assert result.failed == 1
    assert "reb_waa" in result.passes[0].detail


def test_failed_pass_makes_the_run_exit_nonzero(monkeypatch, capsys):
    def failing(outputs):
        raise CheckError("deliberate")

    monkeypatch.setattr(run, "WORKLOADS",
                        {**WORKLOADS, "bounds-sweep": dataclasses.replace(SMALL, check=failing)})
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    code = run.main(["--workload", "bounds-sweep", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
