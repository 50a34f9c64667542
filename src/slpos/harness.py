"""Monte Carlo sweeps, bound curves, requirement scoring, and CSV export.

Drives the full chain: trajectory sampling, path tracing (once per sample:
both directions cross the same reciprocal channel), two-way signal
synthesis with a fresh clock bias per exchange, delay-spectrum time-of-
arrival estimation, round-trip ranging, and the three range error bounds
per sweep sample.  Each sweep sample draws its clock biases and the noise
of both directions from three streams of its own, seeded by (seed, sample
index), one trial after another: a sample's results do not depend on the
other samples, and its first trials not on the trial count.

A sweep checks its inputs, then splits its samples into contiguous chunks,
one per CPU the process may use, each of at least ``_MIN_CHUNK`` samples.
The first chunk runs in this process and each other one in a child forked
for it alone, which sends its results back pickled through a pipe and
exits (``_forked``).  A process without ``os.fork``, with other threads,
or with a function this module imported replaced (a spy, a timing
wrapper) runs the one chunk alone (``_usable_cpus``).  A chunk traces and bounds its samples first.
Its round trips then fill peak-search batches of ``_TRIAL_BATCH`` in
(sample, trial) order, so with few trials per sample one coarse search and
one zoom serve several samples; each sample still sums its own squared
errors in trial order.  Chunks start on batch boundaries, so the batches,
and every bit of the CSV, are those of a single process whatever the CPU
count.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import signal
import sys
import threading
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
    MAX_ITERS,
    Anchor,
    linear_init,  # noqa: F401 - the benchmark tracer wraps harness.linear_init
    ml_position,  # noqa: F401 - the benchmark tracer wraps harness.ml_position
    range_position_crb,
    solve_fixes,
)
from .propagation import (
    ChannelSnapshot,
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
    bias_ramps,
    default_config,
    make_pilots,
    mean_vector,
    noise_scale,
    noise_sum,
    synthesize_rx,  # noqa: F401 - the benchmark tracer wraps harness.synthesize_rx
)

# The functions and classes imported above from the other slpos modules, as
# imported (see ``_usable_cpus``).
_AS_IMPORTED = {name: value for name, value in globals().items()
                if callable(value) and getattr(value, "__module__", "").startswith("slpos.")}

CSV_COLUMNS = (
    "sweep_coord_m", "true_range_m", "rmse_m", "reb_los_m", "reb_all_m",
    "reb_waa_m", "waa_bias_m", "n_paths", "n_cell_paths", "los_present",
)

LINKS = ("rsu-vehicle", "rsu-bicycle", "vehicle-bicycle")

# Monte Carlo round trips whose symbol sums are searched together, filled
# across sweep samples; bounds the coarse-IDFT and zoom buffers of one batch
# (2 _TRIAL_BATCH rows) independently of the trial and sample counts.
_TRIAL_BATCH = 32

# Largest delay-spectrum oversampling factor.  At 256 a bin is
# c / (256 N_s subcarrier_spacing) = 5.8 cm for the default budget, against
# a 15 m resolution cell, and a batch whose every row falls back to the
# full spectrum allocates about 90 MB, growing linearly with the factor.
_MAX_OVERSAMPLE = 256

# Fewest sweep samples worth a process of their own.  On a 2-vCPU KVM
# guest a 2-way split adds 6-10 ms to a bounds sweep (medians of 30 split
# sweeps less their first chunk alone; 14-15 ms with the multiprocessing
# pool it replaced).  About 3.5 ms of that is the fork, the pipe, the
# pickled results and the reaping; the rest is the copy-on-write faults of
# a 40 MB process and two processes sharing the CPUs.  The cheapest sample,
# bounds only, takes about 0.3 ms (a vehicle-bicycle sample, traced and
# bounded), so a chunk of 40 such samples does more work than the split
# costs; a ranging sample at 10 trials takes about 1 ms, so the 101-sample
# ranging-mc sweep splits two ways with a clear gain.
_MIN_CHUNK = 40

# Positioning fixes solved together, bounding the solver's buffers as
# _TRIAL_BATCH bounds the peak search's.
_FIX_BATCH = 1024

# Largest positioning trial count, 10,000 times the CLI's default 1000: the
# run holds one float64 error per trial (80 MB at the cap) and, at about
# 13 us per fix, takes a few minutes.
_MAX_POSITION_TRIALS = 10**7

# Largest sweep sample count, about 3,000 times the 351-sample rsu-bicycle
# sweep: every sample's snapshot is held before the Monte Carlo starts.
_MAX_SAMPLES = 10**6

# Largest clock bias standard deviation (s): a bias draw overflows to inf
# only beyond 64 sigma.  Only the bias modulo the alias period matters.
_MAX_CLOCK_BIAS_STD = sys.float_info.max / 64


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
        if not 0 <= self.clock_bias_std <= _MAX_CLOCK_BIAS_STD:
            raise ValueError(f"clock_bias_std={self.clock_bias_std} s must lie in "
                             f"[0, {_MAX_CLOCK_BIAS_STD:.4g}]; beyond it a bias draw within "
                             "64 sigma can overflow")
        if not 1.0 < self.beta < 2.0:
            raise ValueError(f"beta must lie in (1, 2), got {self.beta}")
        if not 1 <= self.oversample <= _MAX_OVERSAMPLE:
            raise ValueError(f"oversample must lie in [1, {_MAX_OVERSAMPLE}], "
                             f"got {self.oversample}")
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
    where round trips alias, is rejected before the first trace.  The
    samples are split into contiguous chunks, one per usable CPU
    (``_worker_count``); the first runs here and each other one in a forked
    child (``_forked``), whose exception, if it raises, is raised here with
    its type and message.  With Monte Carlo, each chunk starts on a
    peak-search batch boundary, so every batch is the one a single process
    would search."""
    if cfg.output_path is not None:
        _check_writable(cfg.output_path)
    scenario = scenario if scenario is not None else build_scenario(cfg.scenario_id)
    ofdm = ofdm if ofdm is not None else default_config()
    pilots = make_pilots(ofdm, "all_ones")
    window = hamming_window(ofdm.num_subcarriers)
    horizon = _link_horizon(cfg, scenario)
    steps = horizon / scenario.measurement_interval
    if not (math.isfinite(steps) and round(steps) + 1 <= _MAX_SAMPLES):
        raise ValueError(f"measurement_interval={scenario.measurement_interval} s over the "
                         f"{horizon:.4g} s horizon of link {cfg.link} gives more than "
                         f"{_MAX_SAMPLES} sweep samples")
    n_samples = int(round(steps)) + 1

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

    # A chunk starting at a sample whose first round trip is a multiple of
    # _TRIAL_BATCH fills exactly the batches a single process would.
    align = _TRIAL_BATCH // math.gcd(cfg.trials, _TRIAL_BATCH) if monte_carlo else 1
    chunks = _chunks(n_samples, _worker_count(_usable_cpus(), n_samples), align)
    work = functools.partial(_sweep_chunk, cfg, scenario, ofdm, pilots, window, samples,
                             monte_carlo)
    rows = work(chunks[0]) if len(chunks) == 1 else _forked(work, chunks)
    points = [CurvePoint(coord, true_range, rmse, *bounds, n_paths, n_cell, los_present)
              for (*_, coord, true_range), (n_paths, los_present, *bounds, n_cell, rmse)
              in zip(samples, rows)]

    if cfg.output_path is not None:
        export_csv(points, cfg.output_path)
    return points


def _sweep_chunk(cfg: RunConfig, scenario: ScenarioConfig, ofdm: OfdmConfig, pilots,
                 window, samples: Sequence[tuple], monte_carlo: bool,
                 chunk: range) -> list[tuple]:
    """Trace, bound and (with ``monte_carlo``) Monte-Carlo the samples of
    ``chunk``, all traced and bounded first.  One tuple per sample:
    (n_paths, los_present, reb_los, reb_all, reb_waa, waa_bias,
    n_cell_paths, rmse)."""
    chunk_samples = samples[chunk.start:chunk.stop]
    traced = []
    for t, end_a, end_b, *_ in chunk_samples:
        snap = trace_paths(end_a, end_b, scenario, ofdm.wavelength, time=t)
        if snap.has_los:
            report = reb_waa(snap, pilots, ofdm, beta=cfg.beta)
            bounds = (report.reb_los_only, report.reb_all_paths, report.reb_waa,
                      report.waa_bias_m)
            n_cell = len(report.cell_indices)
        else:
            bounds = (math.nan,) * 4
            n_cell = 0
        traced.append((snap, bounds, n_cell))

    rmses = [math.nan] * len(chunk)
    if monte_carlo:
        rmses = _monte_carlo_rmse(cfg, [snap for snap, _, _ in traced],
                                  [sample[-1] for sample in chunk_samples], chunk.start,
                                  pilots, ofdm, window)
    return [(len(snap.paths), snap.has_los, *bounds, n_cell, rmse)
            for (snap, bounds, n_cell), rmse in zip(traced, rmses)]


def _monte_carlo_rmse(cfg: RunConfig, snaps: Sequence[ChannelSnapshot],
                      true_ranges: Sequence[float], first_sample: int, pilots,
                      ofdm: OfdmConfig, window) -> list[float]:
    """RMSE of the round-trip distance over ``cfg.trials`` exchanges, per
    sample; ``snaps[i]`` is sweep sample ``first_sample + i``.

    The channel is reciprocal, so a sample's snapshot serves both
    directions; the clock bias flips sign on the reverse link, and
    combining the two arrivals modulo the alias period cancels it whatever
    its size.  Each arrival is collapsed to the length-N_s symbol sum that
    ``delay_spectrum`` would transform: its noiseless part, the sample's
    ``mean_vector`` rotated by ``bias_ramps`` (conjugated for the reverse
    arrival), plus its noise drawn already summed by ``noise_sum``.
    ``SeedSequence((seed, sample index))`` spawns each sample's bias,
    forward and reverse noise streams, each drawn in trial order.  Round
    trips fill batches of ``_TRIAL_BATCH`` in (sample, trial) order, so a
    batch may span samples and a sample may span batches.  A full batch,
    or the last one, stacks all its forward rows over all its reverse rows;
    one ``coarse_search`` and one ``zoom`` find their peaks, each the bin
    that ``estimate_toa`` picks on the full spectrum, and every round
    trip's squared error goes to the sample that owns it.
    """
    scale = noise_scale(pilots, ofdm, window)
    period = ofdm.unambiguous_delay
    sq_err = [0.0] * len(snaps)
    owners: list[int] = []
    fwd: list[np.ndarray] = []
    rev: list[np.ndarray] = []
    for i, snap in enumerate(snaps):
        bias_rng, fwd_rng, rev_rng = (
            np.random.default_rng(child) for child in
            np.random.SeedSequence((cfg.seed, first_sample + i)).spawn(3))
        m = mean_vector(snap, ofdm, window, doppler_enabled=cfg.doppler_enabled)
        left = cfg.trials
        while left:
            n = min(left, _TRIAL_BATCH - len(owners))
            ramps = bias_ramps(bias_rng.normal(0.0, cfg.clock_bias_std, n), ofdm)
            fwd.append(ramps * m + noise_sum(fwd_rng, n, scale))
            rev.append(ramps.conj() * m + noise_sum(rev_rng, n, scale))
            owners += [i] * n
            left -= n
            if len(owners) == _TRIAL_BATCH or (not left and i == len(snaps) - 1):
                block = np.concatenate(fwd + rev)
                zoom_start, zoom_width = coarse_search(block, cfg.oversample, cfg.peak_policy,
                                                       cfg.first_peak_threshold_db)
                toas = zoom(block, zoom_start, zoom_width, ofdm, cfg.oversample,
                            cfg.peak_policy, cfg.first_peak_threshold_db).toa.tolist()
                b = len(owners)
                for owner, toa_fwd, toa_rev in zip(owners, toas[:b], toas[b:]):
                    sq_err[owner] += (rtt_range(toa_fwd, toa_rev, period=period).distance
                                      - true_ranges[owner]) ** 2
                owners, fwd, rev = [], [], []
    return [math.sqrt(total / cfg.trials) for total in sq_err]


def _forked(work, chunks: Sequence[range]) -> list[tuple]:
    """``work``'s rows for every chunk in order: the first chunk here, each
    other one in a child of its own, forked beforehand.

    Forked, not spawned: only a process without other threads gets here,
    and a spawned child's fresh import of slpos and NumPy (about 0.1 s)
    would cost about what the split saves on a 101-sample, 10-trial sweep.
    A child ignores Ctrl-C, pickles its rows or its exception into a pipe
    and leaves by ``os._exit``.  The pipes are read in chunk order; a
    child's exception is raised here with its type and message, one that
    does not pickle as a RuntimeError with its repr, and a child that ends
    without a result (killed, say) raises a RuntimeError naming its samples.
    Whatever happens here, Ctrl-C included, every child is killed and
    reaped before this returns.
    """
    running = {}
    pipes = []
    try:
        for chunk in chunks[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                try:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    os.close(read_fd)
                    try:
                        outcome = (True, work(chunk))
                    except Exception as exc:
                        outcome = (False, exc)
                    try:
                        result = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
                    except Exception as exc:
                        result = pickle.dumps((False, RuntimeError(
                            f"the process sweeping samples {chunk.start}-{chunk.stop - 1} "
                            f"could not send back {outcome[1]!r:.1000} ({exc!r})")))
                    with open(write_fd, "wb") as pipe:
                        pipe.write(result)
                finally:
                    os._exit(0)
            running[chunk] = pid
            os.close(write_fd)
            pipes.append(open(read_fd, "rb"))
        rows = work(chunks[0])
        for chunk, pipe in zip(chunks[1:], pipes):
            result = pipe.read()
            if not result:
                _, status = os.waitpid(running.pop(chunk), 0)
                raise RuntimeError(f"the process sweeping samples {chunk.start}-"
                                   f"{chunk.stop - 1} ended without a result "
                                   f"(wait status {status})")
            ok, value = pickle.loads(result)
            if not ok:
                raise value
            rows += value
        return rows
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in running.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _worker_count(cpus: int, n_samples: int) -> int:
    """Processes a sweep of ``n_samples`` samples is split across: one per
    CPU, as long as each gets ``_MIN_CHUNK`` samples, and at least one."""
    return max(1, min(cpus, n_samples // _MIN_CHUNK))


def _usable_cpus() -> int:
    """CPUs this process may run on, or 1 where a sweep should not fork:
    without ``os.fork`` or CPU affinity; with a function imported from the
    other slpos modules replaced since (a spy, a tracer's timing wrapper),
    which would see a forked chunk's calls only in the child; or with
    threads besides this one, be they Python threads, whose locks a child
    would inherit held, or a BLAS thread pool, which a second process would
    oversubscribe the CPUs with (under OpenBLAS's default pool a 2-way split
    of the criterion-9 sweep ran slower than none; imported before NumPy,
    the ``slpos`` package starts it without one)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if any(globals()[name] is not value for name, value in _AS_IMPORTED.items()):
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = threading.active_count()
    return 1 if threads > 1 else len(os.sched_getaffinity(0))


def _chunks(n_samples: int, workers: int, align: int) -> list[range]:
    """range(n_samples) split into at most ``workers`` contiguous chunks.
    Each starts at the multiple of ``align`` nearest its equal share; an
    edge that would leave a chunk under ``_MIN_CHUNK`` samples is dropped."""
    edges = [0]
    for i in range(1, workers):
        edge = (2 * i * n_samples + workers * align) // (2 * workers * align) * align
        if edge - edges[-1] >= _MIN_CHUNK and n_samples - edge >= _MIN_CHUNK:
            edges.append(edge)
    edges.append(n_samples)
    return [range(a, b) for a, b in zip(edges, edges[1:])]


@dataclass(frozen=True)
class RequirementScore:
    requirement: RequirementSet
    fraction_within_loose: float
    fraction_within_strict: float
    met_loose: bool
    met_strict: bool


@dataclass(frozen=True)
class PositioningSummary:
    """``at_limit`` counts the trials whose fix stopped unconverged at the
    solver's iteration limit, ``stalled`` those whose fix stopped
    unconverged before it, where backtracking found no lower cost and the
    full step was not negligible.  Both are in ``rmse`` and the scores all
    the same."""

    rmse: float
    crb: float
    trials: int
    at_limit: int
    stalled: int
    scores: tuple[RequirementScore, ...]


def run_positioning_demo(anchors: Sequence[Anchor], true_point,
                         sigma: float, trials: int, seed: int = 0,
                         dim: int = 2) -> PositioningSummary:
    """Monte Carlo position RMSE on a synthetic anchor layout.

    Per trial, ranges get i.i.d. Gaussian noise, the closed-form initializer
    seeds the damped Newton solve (``solve_fixes``, up to ``_FIX_BATCH``
    trials at a time), and the position error is scored against each
    requirement set: the loose rate is the fraction of trials within the
    coarse accuracy bound (compared to the lower confidence), the strict
    rate the fraction within the fine bound (compared to the upper
    confidence).  One stream per run, ``default_rng(seed)``, draws the
    noise fix after fix, so a fix's noise depends neither on the trial
    count nor on the chunking.  A layout or noise level whose squared
    ranges overflow is rejected before any result is returned, and a trial
    count above ``_MAX_POSITION_TRIALS`` before any fix.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if trials > _MAX_POSITION_TRIALS:
        raise ValueError(f"trials must be at most {_MAX_POSITION_TRIALS}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
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

    rng = np.random.default_rng(seed)
    errors = np.empty(trials)
    at_limit = stalled = 0
    for start in range(0, trials, _FIX_BATCH):
        stop = min(start + _FIX_BATCH, trials)
        with np.errstate(over="ignore", invalid="ignore"):
            noisy = true_ranges + sigma * rng.standard_normal((stop - start, len(anchors)))
            fixes, costs, iterations, converged = solve_fixes(
                anchor_xyz, np.maximum(noisy, 0.0), max_iters=MAX_ITERS)
            errors[start:stop] = np.linalg.norm(fixes - true, axis=1)
        limit = iterations >= MAX_ITERS
        at_limit += int(np.count_nonzero(~converged & limit))
        stalled += int(np.count_nonzero(~converged & ~limit))
        if not (np.all(np.isfinite(costs)) and np.all(np.isfinite(errors[start:stop]))):
            raise ValueError(f"range noise sigma={sigma} m overflows the position fix")

    rmse = float(np.sqrt(np.mean(errors ** 2)))
    # The CRB is linear in a common sigma; scaling the unit bound keeps
    # sigma = 0 and a sigma whose square underflows exact.
    crb = sigma * range_position_crb(anchors, true_point, [1.0] * len(anchors), dim)
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
    return PositioningSummary(rmse=rmse, crb=crb, trials=trials, at_limit=at_limit,
                              stalled=stalled, scores=tuple(scores))


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
