"""The benchmark's workloads: the ``slpos`` commands one pass runs, and the
checks every pass's output must meet.

Each pass calls ``slpos.cli.main`` in-process, once per command, exactly
as the ``slpos`` console script would.  Inputs come from the workload seed
alone.  The checks read what a user gets: the exit code, the printed
summary and the CSV files.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# The CSV schema fixed by the README.
CSV_HEADER = ("sweep_coord_m,true_range_m,rmse_m,reb_los_m,reb_all_m,reb_waa_m,"
              "waa_bias_m,n_paths,n_cell_paths,los_present")

# Bound columns must match the stored reference to this relative tolerance.
# The CSV rounds to ten significant digits (at most 5e-10 relative), which
# leaves the rest of the tolerance for numerical drift; ABS_TOL only admits
# a zero merging bias that reads as a few ulps.
BOUND_REL_TOL = 1e-9
BOUND_ABS_TOL = 1e-12

# Criterion 9 of tests/test_acceptance.py.
NEAR_RANGE_M = 40.0
NEAR_RMSE_MAX_M = 3.0
FACTOR3_AGREEMENT_MIN = 0.70
CENTRE_BOUND_RATIO_MIN = 10.0

# The positioning RMSE must lie within this share of the geometric bound.
POSITION_RMSE_CRB_TOL = 0.25

SQUARE_ANCHORS = ((0.0, 0.0, 0.0), (10.0, 0.0, 0.0), (0.0, 10.0, 0.0), (10.0, 10.0, 0.0))
TARGET = (3.0, 4.0, 0.0)
POSITION_SIGMA_M = 1.0


class CheckError(Exception):
    """A pass produced output that fails the workload's check."""


@dataclass(frozen=True)
class CommandOutput:
    argv: list[str]
    code: int
    stdout: str


@dataclass(frozen=True)
class Report:
    """What a checked pass did: its work item count and printed values."""

    items: int
    values: dict[str, float]


@dataclass(frozen=True)
class Workload:
    name: str
    item: str                                      # unit of work, e.g. "roundtrips"
    trials: int                                    # Monte Carlo trials per sample or per pass
    commands: Callable[[int, str], list[list[str]]]    # (seed, workdir) -> argv list
    warmup: Callable[[str], list[list[str]]]           # workdir -> argv list
    check: Callable[[list[CommandOutput]], Report]


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def load_reference(link: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"bounds_{link}.json"), encoding="ascii") as handle:
        return json.load(handle)


def _close(value: float, ref: float) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    if math.isinf(ref):
        return value == ref
    return math.isclose(value, ref, rel_tol=BOUND_REL_TOL, abs_tol=BOUND_ABS_TOL)


def check_sweep_csv(path: str, link: str, monte_carlo: bool) -> list:
    """Parse a sweep CSV with ``read_csv`` and compare every column except
    the RMSE with the stored reference for ``link``."""
    from slpos.harness import read_csv

    with open(path, encoding="ascii") as handle:
        header = handle.readline().strip()
    if header != CSV_HEADER:
        raise CheckError(f"{path}: header {header!r}")
    points = read_csv(path)
    ref = load_reference(link)
    if len(points) != len(ref["rows"]):
        raise CheckError(f"{path}: {len(points)} rows, expected {len(ref['rows'])}")
    for i, (p, r) in enumerate(zip(points, ref["rows"])):
        if (p.n_paths, p.n_cell_paths, p.los_present) != (r["n_paths"], r["n_cell_paths"],
                                                            r["los_present"]):
            raise CheckError(f"{path} row {i}: path counts or line of sight differ")
        for name in ("sweep_coord", "true_range", "reb_los", "reb_all", "reb_waa", "waa_bias"):
            if not _close(getattr(p, name), r[name]):
                raise CheckError(f"{path} row {i}: {name} {getattr(p, name)!r}, "
                                 f"reference {r[name]!r}")
        if monte_carlo and not (math.isfinite(p.rmse) and p.rmse >= 0):
            raise CheckError(f"{path} row {i}: rmse {p.rmse!r}")
        if not monte_carlo and not math.isnan(p.rmse):
            raise CheckError(f"{path} row {i}: bounds sweep carries rmse {p.rmse!r}")
    return points


def factor3_agreement(points: list) -> float:
    """Share of line-of-sight samples whose RMSE lies within a factor 3 of
    the weighted-average bound (criterion 9's definition)."""
    unblocked = [p for p in points if p.los_present]
    within = sum(1 for p in unblocked
                 if math.isfinite(p.reb_waa) and p.reb_waa > 0
                 and 1.0 / 3.0 <= p.rmse / p.reb_waa <= 3.0)
    return within / len(unblocked) if unblocked else 0.0


def _ranging(name: str, scenario: int, link: str, policy: str, trials: int,
             gate_criterion9: bool) -> Workload:
    def argv(trials: int, seed: int, out: str) -> list[str]:
        return ["ranging", "--scenario", str(scenario), "--link", link,
                "--peak-policy", policy, "--trials", str(trials), "--seed", str(seed),
                "--out", out]

    def check(outputs: list[CommandOutput]) -> Report:
        (output,) = outputs
        points = check_sweep_csv(_option(output.argv, "--out"), link, monte_carlo=True)
        values = {"factor3_agreement": factor3_agreement(points)}
        if gate_criterion9:
            near = [p.rmse for p in points if p.los_present and p.true_range < NEAR_RANGE_M]
            centre = min(points, key=lambda p: abs(p.sweep_coord))
            values["near_rmse_max_m"] = max(near)
            values["centre_bound_ratio"] = centre.reb_waa / centre.reb_los
            if not values["near_rmse_max_m"] < NEAR_RMSE_MAX_M:
                raise CheckError(f"near-range RMSE {values['near_rmse_max_m']:.3f} m")
            if not values["factor3_agreement"] >= FACTOR3_AGREEMENT_MIN:
                raise CheckError(f"factor-3 agreement {values['factor3_agreement']:.3f}")
            if not values["centre_bound_ratio"] >= CENTRE_BOUND_RATIO_MIN:
                raise CheckError(f"centre bound ratio {values['centre_bound_ratio']:.2f}")
        return Report(items=len(points) * trials, values=values)

    return Workload(
        name=name, item="roundtrips", trials=trials,
        commands=lambda seed, workdir: [argv(trials, seed, os.path.join(workdir, f"{link}.csv"))],
        warmup=lambda workdir: [argv(1, 0, os.path.join(workdir, "warmup.csv"))],
        check=check,
    )


BOUNDS_SWEEP_LINKS = ((1, "rsu-vehicle"), (1, "rsu-bicycle"), (2, "vehicle-bicycle"))


def bounds_workload(links: tuple[tuple[int, str], ...] = BOUNDS_SWEEP_LINKS) -> Workload:
    def argv(scenario: int, link: str, out: str) -> list[str]:
        return ["bounds", "--scenario", str(scenario), "--link", link, "--out", out]

    def check(outputs: list[CommandOutput]) -> Report:
        rows = 0
        for output in outputs:
            link = _option(output.argv, "--link")
            rows += len(check_sweep_csv(_option(output.argv, "--out"), link, monte_carlo=False))
        return Report(items=rows, values={})

    # The bound sweep has no random input, so the seed does not enter it.
    return Workload(
        name="bounds-sweep", item="bound_samples", trials=0,
        commands=lambda seed, workdir: [argv(s, link, os.path.join(workdir, f"{link}.csv"))
                                        for s, link in links],
        warmup=lambda workdir: [argv(*links[0], os.path.join(workdir, "warmup.csv"))],
        check=check,
    )


_POSITION_LINE = re.compile(r"position RMSE (\S+) m, geometric CRB (\S+) m")
_TRIALS_LINE = re.compile(r"sigma=\S+ m, (\d+) trials")


def positioning_workload(trials: int = 1000) -> Workload:
    def anchors_file(workdir: str) -> str:
        path = os.path.join(workdir, "anchors.txt")
        if not os.path.exists(path):
            with open(path, "w", encoding="ascii") as handle:
                handle.write("".join(f"{x},{y},{z},a{i}\n"
                                     for i, (x, y, z) in enumerate(SQUARE_ANCHORS)))
        return path

    def argv(trials: int, seed: int, workdir: str) -> list[str]:
        return ["position", "--anchors", anchors_file(workdir), "--sigma", str(POSITION_SIGMA_M),
                "--trials", str(trials), "--seed", str(seed),
                "--true-point", ",".join(str(c) for c in TARGET)]

    def check(outputs: list[CommandOutput]) -> Report:
        from slpos.positioning import Anchor, range_position_crb
        from slpos.propagation import Vec3

        (output,) = outputs
        fix = _POSITION_LINE.search(output.stdout)
        count = _TRIALS_LINE.search(output.stdout)
        if fix is None or count is None:
            raise CheckError(f"position summary missing from {output.stdout!r}")
        if int(count.group(1)) != trials:
            raise CheckError(f"{count.group(1)} trials reported, {trials} requested")
        if any(f"set{i} (" not in output.stdout for i in (1, 2, 3)):
            raise CheckError("requirement-set lines missing")
        rmse, crb_printed = float(fix.group(1)), float(fix.group(2))
        crb = range_position_crb([Anchor(Vec3(*a)) for a in SQUARE_ANCHORS], Vec3(*TARGET),
                                 [POSITION_SIGMA_M] * len(SQUARE_ANCHORS))
        if not math.isclose(crb_printed, crb, rel_tol=1e-5):
            raise CheckError(f"printed CRB {crb_printed} m, range_position_crb {crb} m")
        if not abs(rmse / crb - 1.0) <= POSITION_RMSE_CRB_TOL:
            raise CheckError(f"RMSE {rmse} m not within {POSITION_RMSE_CRB_TOL:.0%} of CRB {crb} m")
        return Report(items=trials, values={"rmse_m": rmse, "crb_m": crb})

    return Workload(
        name="positioning", item="fixes", trials=trials,
        commands=lambda seed, workdir: [argv(trials, seed, workdir)],
        warmup=lambda workdir: [argv(10, 0, workdir)],
        check=check,
    )


# BENCHMARK.json gates ranging-mc and positioning only.  On a 2-vCPU KVM
# guest of a shared host the CPU speed changes by up to 1.7x for tens of
# seconds; 50-second runs keep the run-to-run spread under the bounds, and
# the time budget for four gated workloads allows only 25-second runs.  The
# other two run on request with --workload.
WORKLOADS = {w.name: w for w in (
    _ranging("ranging-mc", 1, "rsu-vehicle", "global_peak", trials=10, gate_criterion9=True),
    _ranging("ranging-sparse-first-peak", 2, "vehicle-bicycle", "first_peak", trials=4,
             gate_criterion9=False),
    bounds_workload(),
    positioning_workload(),
)}
