"""Monte Carlo sweeps, bound curves, requirement scoring, and CSV export.

Drives the full chain: trajectory sampling, path tracing (once per sample:
both directions cross the same reciprocal channel), two-way signal
synthesis with a fresh clock bias per exchange, delay-spectrum time-of-
arrival estimation, round-trip ranging, and the three range error bounds
per sweep sample.  All randomness derives from (seed, sample, trial), so
results are independent of execution order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import DEFAULT_BETA, reb_waa
from .constants import SPEED_OF_LIGHT
from .estimation import (
    PEAK_POLICIES,
    coarse_search,
    delay_spectrum,  # noqa: F401 - the benchmark tracer wraps harness.delay_spectrum
    estimate_toa,  # noqa: F401 - the benchmark tracer wraps harness.estimate_toa
    hamming_window,
    low_confidence,  # noqa: F401 - the benchmark tracer wraps harness.low_confidence
    rtt_range,
    zoom,
)
from .positioning import (
    Anchor,
    linear_init,  # noqa: F401 - the benchmark tracer wraps harness.linear_init
    ml_position,  # noqa: F401 - the benchmark tracer wraps harness.ml_position
    range_position_crb,
    solve_fixes,
)
from .propagation import (
    Pose,
    ScenarioConfig,
    bicycle_horizon,
    build_scenario,
    distance,
    sample_trajectory,
    trace_paths,
    vehicle_horizon,
)
from .signal import (
    OfdmConfig,
    default_config,
    make_pilots,
    mean_vector,
    noise_sum,
    synthesize_rx,  # noqa: F401 - the benchmark tracer wraps harness.synthesize_rx
)

CSV_COLUMNS = (
    "sweep_coord_m", "true_range_m", "rmse_m", "reb_los_m", "reb_all_m",
    "reb_waa_m", "waa_bias_m", "n_paths", "n_cell_paths", "los_present",
)

LINKS = ("rsu-vehicle", "rsu-bicycle", "vehicle-bicycle")

# Monte Carlo trials whose symbol sums are formed and searched together;
# bounds the memory of one batch independently of the trial count.
_TRIAL_BATCH = 32

# Positioning fixes solved together, for the same reason.
_FIX_BATCH = 1024


@dataclass(frozen=True)
class RequirementSet:
    """One accuracy band with its confidence band."""

    name: str
    accuracy_lo: float
    accuracy_hi: float
    confidence_lo: float
    confidence_hi: float


REQUIREMENT_SETS = (
    RequirementSet("set1", 10.0, 50.0, 0.68, 0.95),
    RequirementSet("set2", 1.0, 3.0, 0.95, 0.99),
    RequirementSet("set3", 0.1, 0.5, 0.95, 0.99),
)


@dataclass(frozen=True)
class RunConfig:
    """One ranging sweep: scenario, link, Monte Carlo and estimator knobs."""

    scenario_id: int
    link: str
    trials: int = 100
    seed: int = 0
    beta: float = DEFAULT_BETA
    oversample: int = 16
    peak_policy: str = "global_peak"
    first_peak_threshold_db: float = 6.0
    doppler_enabled: bool = True
    clock_bias_std: float = 1e-6
    output_path: str | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not (math.isfinite(self.clock_bias_std) and self.clock_bias_std >= 0):
            raise ValueError("clock bias std must be finite and nonnegative")
        if not 1.0 < self.beta < 2.0:
            raise ValueError(f"beta must lie in (1, 2), got {self.beta}")
        if self.oversample < 1:
            raise ValueError("oversample factor must be >= 1")
        if self.peak_policy not in PEAK_POLICIES:
            raise ValueError(f"unknown peak policy {self.peak_policy!r}")
        if not (math.isfinite(self.first_peak_threshold_db)
                and self.first_peak_threshold_db >= 0):
            raise ValueError("first-peak threshold must be finite and nonnegative, "
                             f"got {self.first_peak_threshold_db} dB")
        if self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}")
        if self.link == "vehicle-bicycle" and self.scenario_id != 2:
            raise ValueError("the vehicle-bicycle link exists only in scenario 2")
        if self.link.startswith("rsu") and self.scenario_id != 1:
            raise ValueError("RSU links exist only in scenario 1")


@dataclass(frozen=True)
class CurvePoint:
    """One sweep sample: Monte Carlo RMSE next to the three bounds."""

    sweep_coord: float
    true_range: float
    rmse: float
    reb_los: float
    reb_all: float
    reb_waa: float
    waa_bias: float
    n_paths: int
    n_cell_paths: int
    los_present: bool


def _link_endpoints(cfg: RunConfig, scenario: ScenarioConfig,
                    vehicle: Pose, bicycle: Pose) -> tuple[Pose, Pose, float]:
    """(end a, end b, sweep coordinate) for the configured link."""
    if cfg.link == "rsu-vehicle":
        assert scenario.rsu is not None
        return scenario.rsu, vehicle, vehicle.position.y
    if cfg.link == "rsu-bicycle":
        assert scenario.rsu is not None
        return scenario.rsu, bicycle, bicycle.position.x
    return vehicle, bicycle, vehicle.position.y


def _link_horizon(cfg: RunConfig, scenario: ScenarioConfig) -> float:
    if cfg.link == "rsu-vehicle":
        return vehicle_horizon(scenario)
    if cfg.link == "rsu-bicycle":
        return bicycle_horizon(scenario)
    return min(vehicle_horizon(scenario), bicycle_horizon(scenario))


def run_ranging_sweep(cfg: RunConfig, scenario: ScenarioConfig | None = None,
                      ofdm: OfdmConfig | None = None) -> list[CurvePoint]:
    """Sweep the link trajectory, Monte-Carlo the RTT ranging error at every
    sample, and attach the three range error bounds.

    Each trial draws a fresh clock bias and independent noise for the two
    directions of the exchange.  Samples where blockage removes the
    line-of-sight path keep their raw RMSE but carry NaN bounds.  Identical
    configurations produce identical results.
    """
    return _sweep(cfg, scenario, ofdm, monte_carlo=True)


def run_bounds_sweep(cfg: RunConfig, scenario: ScenarioConfig | None = None,
                     ofdm: OfdmConfig | None = None) -> list[CurvePoint]:
    """Bound curves only (no Monte Carlo): rmse is NaN in every point."""
    return _sweep(cfg, scenario, ofdm, monte_carlo=False)


def _sweep(cfg: RunConfig, scenario: ScenarioConfig | None, ofdm: OfdmConfig | None,
           monte_carlo: bool) -> list[CurvePoint]:
    """One point per trajectory sample.  The link channel is traced once per
    sample; it gives the bounds and, with ``monte_carlo``, both directions
    of ``cfg.trials`` round trips, whose RMSE is reported (else NaN).  With
    ``monte_carlo``, a link whose range reaches c / (2 subcarrier_spacing),
    where round trips alias, is rejected before the first trace."""
    if cfg.output_path is not None:
        _check_writable(cfg.output_path)
    scenario = scenario if scenario is not None else build_scenario(cfg.scenario_id)
    ofdm = ofdm if ofdm is not None else default_config()
    pilots = make_pilots(ofdm, "all_ones")
    window = hamming_window(ofdm.num_subcarriers)
    horizon = _link_horizon(cfg, scenario)
    n_samples = int(round(horizon / scenario.measurement_interval)) + 1

    samples = []
    for sample_idx in range(n_samples):
        t = sample_idx * scenario.measurement_interval
        end_a, end_b, coord = _link_endpoints(cfg, scenario,
                                              *sample_trajectory(scenario, min(t, horizon)))
        samples.append((t, end_a, end_b, coord, distance(end_a.position, end_b.position)))
    limit = SPEED_OF_LIGHT * ofdm.unambiguous_delay / 2.0
    farthest = max(sample[-1] for sample in samples)
    if monte_carlo and farthest >= limit:
        raise ValueError(f"link {cfg.link} reaches {farthest:.1f} m, but a round trip is "
                         f"unambiguous only below c / (2 subcarrier_spacing) = {limit:.1f} m")

    points: list[CurvePoint] = []
    for sample_idx, (t, end_a, end_b, coord, true_range) in enumerate(samples):
        snap = trace_paths(end_a, end_b, scenario, ofdm.wavelength, time=t)

        if snap.has_los:
            report = reb_waa(snap, pilots, ofdm, beta=cfg.beta)
            bounds = (report.reb_los_only, report.reb_all_paths, report.reb_waa,
                      report.waa_bias_m)
            n_cell = len(report.cell_indices)
        else:
            bounds = (math.nan,) * 4
            n_cell = 0

        rmse = math.nan
        if monte_carlo:
            rmse = _monte_carlo_rmse(cfg, sample_idx, snap, true_range, pilots, ofdm, window)
        points.append(CurvePoint(coord, true_range, rmse, *bounds,
                                 len(snap.paths), n_cell, snap.has_los))

    if cfg.output_path is not None:
        export_csv(points, cfg.output_path)
    return points


def _monte_carlo_rmse(cfg: RunConfig, sample_idx: int, snap, true_range: float,
                      pilots, ofdm: OfdmConfig, window) -> float:
    """RMSE of the round-trip distance over ``cfg.trials`` exchanges.

    The channel is reciprocal, so ``snap`` serves both directions; the
    clock bias flips sign on the reverse link, and combining the two
    arrivals modulo the alias period cancels it whatever its size.  Each
    arrival is collapsed to the length-N_s symbol sum that
    ``delay_spectrum`` would transform: its noiseless part from
    ``mean_vector``, plus the trial's noise folded in by ``noise_sum``.  Its
    peak is found by ``coarse_search`` and ``zoom``, and it is the bin that
    ``estimate_toa`` picks on the full spectrum.  Both directions of up to
    ``_TRIAL_BATCH`` trials share one batch: row i is trial i's forward link
    and row n + i its reverse link.
    """
    period = ofdm.unambiguous_delay
    sq_err = 0.0
    for start in range(0, cfg.trials, _TRIAL_BATCH):
        trials = range(start, min(start + _TRIAL_BATCH, cfg.trials))
        # Child i of SeedSequence((seed, sample, trial)).spawn(3), built directly.
        bias_seeds, fwd_seeds, rev_seeds = (
            [np.random.SeedSequence(entropy=(cfg.seed, sample_idx, trial_idx), spawn_key=(i,))
             for trial_idx in trials]
            for i in range(3))
        biases = np.array([np.random.default_rng(seed).normal(0.0, cfg.clock_bias_std)
                           for seed in bias_seeds])
        c = mean_vector(snap, ofdm, window, np.concatenate([biases, -biases]),
                        doppler_enabled=cfg.doppler_enabled)
        c += noise_sum(fwd_seeds + rev_seeds, pilots, ofdm, window)
        zoom_start, zoom_width = coarse_search(c, cfg.oversample, cfg.peak_policy,
                                               cfg.first_peak_threshold_db)
        toas = zoom(c, zoom_start, zoom_width, ofdm, cfg.oversample, cfg.peak_policy,
                    cfg.first_peak_threshold_db).toa.tolist()
        for toa_fwd, toa_rev in zip(toas[:len(trials)], toas[len(trials):]):
            sq_err += (rtt_range(toa_fwd, toa_rev, period=period).distance - true_range) ** 2
    return math.sqrt(sq_err / cfg.trials)


@dataclass(frozen=True)
class RequirementScore:
    requirement: RequirementSet
    fraction_within_loose: float
    fraction_within_strict: float
    met_loose: bool
    met_strict: bool


@dataclass(frozen=True)
class PositioningSummary:
    """``unconverged`` counts the trials whose fix stopped at the iteration
    limit; they are in ``rmse`` and the scores all the same."""

    rmse: float
    crb: float
    trials: int
    unconverged: int
    scores: tuple[RequirementScore, ...]


def _range_noise(seed: int, start: int, stop: int, n_anchors: int) -> np.ndarray:
    """Unit-variance range noise of fixes start..stop-1, one (seed, fix) stream each."""
    draws = np.empty((stop - start, n_anchors))
    for row, trial in zip(draws, range(start, stop)):
        np.random.default_rng(np.random.SeedSequence(entropy=(seed, trial))).standard_normal(
            out=row)
    return draws


def run_positioning_demo(anchors: Sequence[Anchor], true_point,
                         sigma: float, trials: int, seed: int = 0,
                         dim: int = 2) -> PositioningSummary:
    """Monte Carlo position RMSE on a synthetic anchor layout.

    Per trial, ranges get i.i.d. Gaussian noise from the trial's own
    (seed, trial) stream, the closed-form initializer seeds the Gauss-Newton
    solve (``solve_fixes``, up to ``_FIX_BATCH`` trials at a time), and the
    position error is scored against each requirement set: the loose rate
    is the fraction of trials within the coarse accuracy bound (compared to
    the lower confidence), the strict rate the fraction within the fine
    bound (compared to the upper confidence).  A layout or noise level whose
    squared ranges overflow is rejected before any result is returned.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("range noise sigma must be finite and nonnegative")
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    true = np.array([true_point.x, true_point.y, true_point.z][:dim])
    anchor_xyz = np.array([[a.position.x, a.position.y, a.position.z][:dim]
                           for a in anchors]).reshape(-1, dim)
    with np.errstate(over="ignore", invalid="ignore"):
        true_ranges = np.linalg.norm(anchor_xyz - true, axis=1)
        squares = np.sum(anchor_xyz ** 2) + np.sum(true_ranges ** 2)
    if not np.isfinite(squares):
        raise ValueError("anchor layout and true point too far apart or from the "
                         "origin: their squared distances overflow")
    if np.any(true_ranges == 0):
        raise ValueError("true point coincides with an anchor")

    errors = np.empty(trials)
    unconverged = 0
    for start in range(0, trials, _FIX_BATCH):
        stop = min(start + _FIX_BATCH, trials)
        noisy = np.tile(true_ranges, (stop - start, 1))
        if sigma > 0:
            noisy += _range_noise(seed, start, stop, len(anchors)) * sigma
        with np.errstate(over="ignore", invalid="ignore"):
            fixes, costs, _, converged = solve_fixes(anchor_xyz, np.maximum(noisy, 0.0))
            errors[start:stop] = np.linalg.norm(fixes - true, axis=1)
        unconverged += int(np.count_nonzero(~converged))
        if not (np.all(np.isfinite(costs)) and np.all(np.isfinite(errors[start:stop]))):
            raise ValueError(f"range noise sigma={sigma} m overflows the position fix")

    rmse = float(np.sqrt(np.mean(errors ** 2)))
    crb = range_position_crb(anchors, true_point,
                             [sigma if sigma > 0 else 1.0] * len(anchors), dim)
    scores = []
    for req in REQUIREMENT_SETS:
        loose = float(np.mean(errors <= req.accuracy_hi))
        strict = float(np.mean(errors <= req.accuracy_lo))
        scores.append(RequirementScore(
            requirement=req,
            fraction_within_loose=loose,
            fraction_within_strict=strict,
            met_loose=loose >= req.confidence_lo,
            met_strict=strict >= req.confidence_hi,
        ))
    return PositioningSummary(rmse=rmse, crb=crb, trials=trials, unconverged=unconverged,
                              scores=tuple(scores))


@dataclass(frozen=True)
class CoherenceReport:
    """Doppler coherence margin and the end-to-end latency budget."""

    coherence_symbol_limit: float
    num_symbols: int
    coherence_margin: float
    latency_budget_s: float

    @property
    def coherent(self) -> bool:
        return self.coherence_margin > 1.0


def coherence_and_latency_check(config: OfdmConfig, v_max: float,
                                accuracy_req: float) -> CoherenceReport:
    """Symbol-count margin against wavelength * spacing / v_max, and the
    latency budget 0.1 * accuracy / v_max.  A zero v_max reports unbounded
    (infinite) margins rather than dividing by zero."""
    if not (math.isfinite(v_max) and v_max >= 0):
        raise ValueError("maximum speed must be finite and nonnegative")
    if not (math.isfinite(accuracy_req) and accuracy_req > 0):
        raise ValueError("accuracy requirement must be finite and positive")
    if v_max == 0.0:
        return CoherenceReport(math.inf, config.num_symbols, math.inf, math.inf)
    limit = config.wavelength * config.subcarrier_spacing / v_max
    return CoherenceReport(
        coherence_symbol_limit=limit,
        num_symbols=config.num_symbols,
        coherence_margin=limit / config.num_symbols,
        latency_budget_s=0.1 * accuracy_req / v_max,
    )


def _check_writable(path: str) -> None:
    """Raise the OSError ``export_csv`` would raise for an unwritable
    ``path``, before any sample runs; the file is neither created nor
    truncated."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(directory):
        reason = f"no directory {directory!r}"
    elif not os.access(directory, os.W_OK) or (os.path.exists(path)
                                               and not os.access(path, os.W_OK)):
        reason = "permission denied"
    else:
        return
    raise OSError(f"cannot write sweep CSV to {path!r}: {reason}")


def export_csv(points: Sequence[CurvePoint], path: str) -> None:
    """Write sweep points in the fixed column order; infinities serialize
    as the literal ``inf`` and floats carry nine significant digits."""
    lines = [",".join(CSV_COLUMNS)]
    for p in points:
        lines.append(",".join([
            *(f"{v:.9e}" for v in (p.sweep_coord, p.true_range, p.rmse, p.reb_los,
                                   p.reb_all, p.reb_waa, p.waa_bias)),
            str(p.n_paths), str(p.n_cell_paths), "true" if p.los_present else "false",
        ]))
    try:
        with open(path, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path!r}: {exc}") from exc


def read_csv(path: str) -> list[CurvePoint]:
    """Parse a sweep CSV produced by export_csv."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise OSError(f"cannot read sweep CSV from {path!r}: {exc}") from exc
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"unexpected CSV header in {path!r}")
    points = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"malformed CSV row: {line!r}")
        points.append(CurvePoint(
            sweep_coord=float(cells[0]), true_range=float(cells[1]),
            rmse=float(cells[2]), reb_los=float(cells[3]), reb_all=float(cells[4]),
            reb_waa=float(cells[5]), waa_bias=float(cells[6]),
            n_paths=int(cells[7]), n_cell_paths=int(cells[8]),
            los_present=cells[9] == "true",
        ))
    return points
