"""Monte Carlo sweeps, bound curves, requirement scoring, and CSV export.

Drives the full chain: trajectory sampling, path tracing (once per sample:
both directions cross the same reciprocal channel), two-way signal
synthesis with a fresh clock bias per exchange, delay-spectrum time-of-
arrival estimation, round-trip ranging, and the three range error bounds
per sweep sample.  Each sweep sample draws its clock biases and the noise
of both directions from three streams of its own, seeded by (seed, sample
index), one trial after another: a sample's results do not depend on the
other samples, and its first trials not on the trial count.

A sweep checks its inputs, then splits its samples into contiguous chunks
(``_chunks``), one per CPU the process may use as long as each gets
``_MIN_CHUNK`` samples.  The first chunk runs in this process and each
other one in a child forked for it alone, which sends its ``CurvePoint``s
back pickled through a pipe and exits (``_forked``).  A process without
``os.fork``, with other threads, or with a function this module imported
replaced (a spy, a timing wrapper) counts one CPU, so it runs one chunk
(``_usable_cpus``).  A chunk traces and bounds its samples first.
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
import operator
import os
import pickle
import signal
import threading
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .bounds import DEFAULT_BETA, reb_waa
from .constants import SPEED_OF_LIGHT
from .estimation import (
    PEAK_POLICIES,
    coarse_search,
    delay_spectrum,  # noqa: F401 - the benchmark tracer wraps harness.delay_spectrum
    estimate_toa,  # noqa: F401 - the benchmark tracer wraps harness.estimate_toa
    low_confidence,  # noqa: F401 - the benchmark tracer wraps harness.low_confidence
    round_trip_distance,
    rtt_range,  # noqa: F401 - the benchmark tracer wraps harness.rtt_range
    zoom,
)
from .positioning import (
    MAX_ITERS,
    Anchor,
    coordinates,
    linear_init,  # noqa: F401 - the benchmark tracer wraps harness.linear_init
    ml_position,  # noqa: F401 - the benchmark tracer wraps harness.ml_position
    range_position_crb,
    solve_fixes,
)
from .propagation import (
    LANE_AXES,
    MAX_COORDINATE_M,
    SPEED_RANGE,
    ChannelSnapshot,
    ScenarioConfig,
    build_scenario,
    check_coordinates,
    check_range,
    distance,
    lane_horizon,
    sample_trajectory,
    trace_paths,
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


# Each link: its scenario and its two ends, "rsu" or a device of LANE_AXES.
# The moving ends bound its sweep, which ends when the first reaches its lane
# end; the first one's position along its lane is the sweep coordinate.
_LINKS = {
    "rsu-vehicle": (1, ("rsu", "vehicle")),
    "rsu-bicycle": (1, ("rsu", "bicycle")),
    "vehicle-bicycle": (2, ("vehicle", "bicycle")),
}
LINKS = tuple(_LINKS)

# Monte Carlo round trips whose symbol sums are searched together, filled
# across sweep samples; bounds the coarse-IDFT and zoom buffers of one batch
# (2 _TRIAL_BATCH rows) independently of the trial and sample counts.
_TRIAL_BATCH = 32

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

# Largest sweep sample count, about 300 times the 351-sample rsu-bicycle
# sweep.  Every sample's poses, snapshot and bounds are held until the CSV
# is written, about 2 KB per sample: a 10^5-sample rsu-bicycle bounds sweep
# peaks at 223 MB RSS in one process (30 MB after import), and split two
# ways at 164 MB in the parent and 146 MB in its forked child.
_MAX_SAMPLES = 10**5

# Working range (low, high, unit) of each numeric RunConfig field but beta,
# which lies in the open (1, 2), and of each numeric ``position`` input.
RUN_RANGES = {
    # 10^4 times the default 100: about two hours at 13,000 round trips/s.
    "trials": (1, 10**6, "round trips per sample"),
    "seed": (0, math.inf, "(a NumPy seed)"),
    # Only the bias modulo the alias period matters.
    "clock_bias_std": (0.0, 1.0, "s"),
    # 5.8 cm bins; a batch of full-spectrum fallbacks takes about 150 MB.
    "oversample": (1, 256, "points per subcarrier"),
    "first_peak_threshold_db": (0.0, math.inf, "dB"),
}
POSITION_RANGES = {
    # 10^4 times the default 1000: 80 MB of errors, about a minute of fixes.
    "trials": (1, 10**7, "fixes"),
    "seed": (0, math.inf, "(a NumPy seed)"),
    # The scenario files' coordinate range.
    "range noise sigma": (0.0, MAX_COORDINATE_M, "m"),
}
# Working range of each ``check`` input: the scenario speeds (a maximum speed
# of 0 reports unbounded budgets), and accuracies from 100 times finer than
# requirement set 3's 0.1 m to 20 times coarser than set 1's 50 m.
CHECK_RANGES = {"maximum speed": (*SPEED_RANGE[:2], "m/s, or 0 (unbounded)"),
                "accuracy requirement": (1e-3, 1e3, "m")}


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
        for name, limits in RUN_RANGES.items():
            check_range(name, getattr(self, name), *limits)
        if not 1.0 < self.beta < 2.0:
            raise ValueError(f"beta must lie in (1, 2), got {self.beta}")
        if self.peak_policy not in PEAK_POLICIES:
            raise ValueError(f"unknown peak policy {self.peak_policy!r}")
        _link(self.link, self.scenario_id)


def _link(name: str, scenario_id: int) -> tuple[tuple[str, str], tuple[str, ...]]:
    """The ends and moving ends of link ``name``, which must exist in ``scenario_id``."""
    if name not in _LINKS:
        raise ValueError(f"unknown link {name!r}")
    link_scenario, ends = _LINKS[name]
    if scenario_id != link_scenario:
        raise ValueError(f"the {name} link exists only in scenario {link_scenario}")
    return ends, tuple(end for end in ends if end in LANE_AXES)


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


def _parse_flag(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(f"expected true or false, got {cell!r}")
    return cell == "true"


# A CurvePoint field's CSV cell by the field's type: (column suffix, formatter,
# parser).  Floats are metres with nine significant digits, infinity ``inf``.
_CELL_TYPES = {"float": ("_m", lambda value: f"{value:.9e}", float), "int": ("", str, int),
               "bool": ("", lambda flag: "true" if flag else "false", _parse_flag)}

# The CSV row: (column, formatter, parser) per CurvePoint field, in order.
_CSV_CELLS = tuple((f.name + _CELL_TYPES[f.type][0], *_CELL_TYPES[f.type][1:])
                   for f in fields(CurvePoint))
CSV_COLUMNS = tuple(column for column, _, _ in _CSV_CELLS)
_point_values = operator.attrgetter(*(f.name for f in fields(CurvePoint)))


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
    ``monte_carlo``, a link whose range reaches ``ofdm.unambiguous_range``,
    c / (2 subcarrier_spacing), where round trips alias, is rejected before
    the first trace, naming the scenario keys that place its ends.  The
    samples are split by ``_chunks`` and run by ``_forked``, as the module
    docstring says."""
    if cfg.output_path is not None:
        _check_writable(cfg.output_path)
    scenario = scenario if scenario is not None else build_scenario(cfg.scenario_id)
    ofdm = ofdm if ofdm is not None else default_config()
    pilots = make_pilots(ofdm, "all_ones")
    ends, lanes = _link(cfg.link, scenario.scenario_id)
    lane_keys = [f"{lane}_{key}" for lane in lanes for key in ("start", "speed")]
    end_keys = ["rsu_position"] * (scenario.rsu is not None) + lane_keys
    horizon = min(lane_horizon(scenario, lane) for lane in lanes)
    n_samples = round(horizon / scenario.measurement_interval) + 1
    if n_samples > _MAX_SAMPLES:
        keys = " and ".join(lane_keys)
        raise ValueError(f"measurement_interval={scenario.measurement_interval} s over the "
                         f"{horizon:.4g} s horizon of link {cfg.link} (from {keys}) gives "
                         f"more than {_MAX_SAMPLES} sweep samples")

    samples = []
    for sample_idx in range(n_samples):
        t = sample_idx * scenario.measurement_interval
        poses = dict(zip(LANE_AXES, sample_trajectory(scenario, min(t, horizon))))
        end_a, end_b = (poses.get(end, scenario.rsu) for end in ends)
        coord = poses[lanes[0]].position.component(LANE_AXES[lanes[0]])
        samples.append((t, end_a, end_b, coord, distance(end_a.position, end_b.position)))
    farthest = max(sample[-1] for sample in samples)
    if monte_carlo and farthest >= ofdm.unambiguous_range:
        raise ValueError(f"link {cfg.link} (from {', '.join(end_keys[:-1])} and {end_keys[-1]}) "
                         f"reaches {farthest:.1f} m, but a round trip is unambiguous only "
                         f"below c / (2 subcarrier_spacing) = {ofdm.unambiguous_range:.1f} m")

    # A chunk starting at a sample whose first round trip is a multiple of
    # _TRIAL_BATCH fills exactly the batches a single process would.
    align = _TRIAL_BATCH // math.gcd(cfg.trials, _TRIAL_BATCH) if monte_carlo else 1
    work = functools.partial(_sweep_chunk, cfg, scenario, ofdm, pilots, samples, monte_carlo,
                             end_keys)
    points = _forked(work, _chunks(n_samples, _usable_cpus(), align))

    if cfg.output_path is not None:
        export_csv(points, cfg.output_path)
    return points


def _sweep_chunk(cfg: RunConfig, scenario: ScenarioConfig, ofdm: OfdmConfig, pilots,
                 samples: Sequence[tuple], monte_carlo: bool, end_keys: Sequence[str],
                 chunk: range) -> list[CurvePoint]:
    """Trace, bound and (with ``monte_carlo``) Monte-Carlo the samples of
    ``chunk``, all traced and bounded first; one point per sample.  A Monte
    Carlo sample with a path of ``ofdm.unambiguous_range`` or more, whose
    round trip wraps modulo the alias period, is rejected when traced,
    naming the building of a wall echo or, for a ground echo, ``end_keys``."""
    chunk_samples = samples[chunk.start:chunk.stop]
    traced = []
    for t, end_a, end_b, coord, _ in chunk_samples:
        snap = trace_paths(end_a, end_b, scenario, ofdm.wavelength, time=t)
        longest = snap.paths[-1].delay * SPEED_OF_LIGHT if snap.paths else 0.0
        if monte_carlo and longest >= ofdm.unambiguous_range:
            wall = snap.paths[-1].wall_index
            if wall is None:
                source, keys = "the ground", end_keys
            else:
                source = f"building {wall // 4}"
                keys = [f"building{wall // 4}_{key}" for key in ("center", "half_extents")]
            raise ValueError(f"link {cfg.link} at sweep coordinate {coord:.1f} m has a "
                             f"reflection off {source} (from {', '.join(keys[:-1])} and "
                             f"{keys[-1]}) of "
                             f"{longest:.1f} m, but a round trip resolves paths only below "
                             f"c / (2 subcarrier_spacing) = {ofdm.unambiguous_range:.1f} m")
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
                                  pilots, ofdm)
    return [CurvePoint(coord, true_range, rmse, *bounds, len(snap.paths), n_cell, snap.has_los)
            for (*_, coord, true_range), (snap, bounds, n_cell), rmse
            in zip(chunk_samples, traced, rmses)]


def _monte_carlo_rmse(cfg: RunConfig, snaps: Sequence[ChannelSnapshot],
                      true_ranges: Sequence[float], first_sample: int, pilots,
                      ofdm: OfdmConfig) -> list[float]:
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
    that ``estimate_toa`` picks on the full spectrum, ``round_trip_distance``
    combines the batch's arrivals, and every round trip's squared error is
    added, in trial order, to the sample that owns it.
    """
    scale = noise_scale(pilots, ofdm)
    period = ofdm.unambiguous_delay
    true_ranges = np.asarray(true_ranges)
    sq_err = np.zeros(len(snaps))
    owners: list[int] = []
    fwd: list[np.ndarray] = []
    rev: list[np.ndarray] = []
    for i, snap in enumerate(snaps):
        bias_rng, fwd_rng, rev_rng = (
            np.random.default_rng(child) for child in
            np.random.SeedSequence((cfg.seed, first_sample + i)).spawn(3))
        m = mean_vector(snap, ofdm, doppler_enabled=cfg.doppler_enabled)
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
                            cfg.peak_policy, cfg.first_peak_threshold_db).toa
                b = len(owners)
                errors = (round_trip_distance(toas[:b], toas[b:], period=period)
                          - true_ranges[owners])
                np.add.at(sq_err, owners, errors ** 2)
                owners, fwd, rev = [], [], []
    return [math.sqrt(total / cfg.trials) for total in sq_err.tolist()]


def _forked(work, chunks: Sequence[range]) -> list[CurvePoint]:
    """``work``'s points for every chunk in order: the first chunk here, each
    other one in a child of its own, forked beforehand.

    Forked, not spawned: only a process without other threads gets here,
    and a spawned child's fresh import of slpos and NumPy (about 0.1 s)
    would cost about what the split saves on a 101-sample, 10-trial sweep.
    A child ignores Ctrl-C, pickles its points or its exception into a pipe
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
        points = work(chunks[0])
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
            points += value
        return points
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in running.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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


def _chunks(n_samples: int, cpus: int, align: int) -> list[range]:
    """range(n_samples) split into contiguous chunks, one per CPU as long as
    each gets ``_MIN_CHUNK`` samples, and at least one.  Each starts at the
    multiple of ``align`` nearest its equal share; an edge that would leave
    a chunk under ``_MIN_CHUNK`` samples is dropped."""
    workers = min(cpus, n_samples // _MIN_CHUNK)
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

    @property
    def met_loose(self) -> bool:
        return self.fraction_within_loose >= self.requirement.confidence_lo

    @property
    def met_strict(self) -> bool:
        return self.fraction_within_strict >= self.requirement.confidence_hi


@dataclass(frozen=True)
class PositioningSummary:
    """``at_limit`` counts the trials whose fix stopped unconverged at the
    solver's iteration limit, ``stalled`` those whose fix stopped
    unconverged before it: backtracking found no lower cost although the
    quadratic model predicted a decrease the cost resolves, or a saddle's
    negative-curvature step found none.  Both are in ``rmse`` and the
    scores all the same.  ``clipped`` counts the noisy ranges raised to
    0 m, of ``trials`` times the anchor count: the geometric ``crb``
    assumes unclipped Gaussian ranges."""

    rmse: float
    crb: float
    trials: int
    at_limit: int
    stalled: int
    clipped: int
    scores: tuple[RequirementScore, ...]


def run_positioning_demo(anchors: Sequence[Anchor], true_point,
                         sigma: float, trials: int, seed: int = 0,
                         dim: int = 2) -> PositioningSummary:
    """Monte Carlo position RMSE on a synthetic anchor layout.

    Per trial, ranges get i.i.d. Gaussian noise and are clipped at 0 m,
    the closed-form initializer seeds the damped Newton solve
    (``solve_fixes``, up to ``_FIX_BATCH`` trials at a time; a fix counts
    as converged only at a minimum, never at a saddle point), and the
    position error is scored against each requirement set
    (``RequirementScore``).  One stream per run, ``default_rng(seed)``, draws the
    noise fix after fix, so a fix's noise depends neither on the trial
    count nor on the chunking.  Anchors (``Anchor``) and a true point within
    ``MAX_COORDINATE_M`` per coordinate, and trials, seed and sigma within
    ``POSITION_RANGES``, are checked before any fix.
    """
    for (name, limits), value in zip(POSITION_RANGES.items(), (trials, seed, sigma)):
        check_range(name, value, *limits)
    check_coordinates("true_point", true_point)
    true = coordinates([true_point], dim)[0]
    anchor_xyz = coordinates([a.position for a in anchors], dim)
    true_ranges = np.linalg.norm(anchor_xyz - true, axis=1)
    if np.any(true_ranges == 0):
        raise ValueError("true point coincides with an anchor")

    rng = np.random.default_rng(seed)
    errors = np.empty(trials)
    at_limit = stalled = clipped = 0
    for start in range(0, trials, _FIX_BATCH):
        stop = min(start + _FIX_BATCH, trials)
        noisy = true_ranges + sigma * rng.standard_normal((stop - start, len(anchors)))
        clipped += int(np.count_nonzero(noisy < 0.0))
        fixes, iterations, converged = solve_fixes(anchor_xyz, np.maximum(noisy, 0.0))
        errors[start:stop] = np.linalg.norm(fixes - true, axis=1)
        limit = iterations >= MAX_ITERS
        at_limit += int(np.count_nonzero(~converged & limit))
        stalled += int(np.count_nonzero(~converged & ~limit))

    rmse = float(np.sqrt(np.mean(errors ** 2)))
    # The CRB is linear in |sigma|; scaling the unit bound keeps sigma = 0
    # (and -0.0, printed 0 m) and a sigma whose square underflows exact.
    crb = abs(sigma) * range_position_crb(anchors, true_point, [1.0] * len(anchors), dim)
    scores = tuple(RequirementScore(req, float(np.mean(errors <= req.accuracy_hi)),
                                    float(np.mean(errors <= req.accuracy_lo)))
                   for req in REQUIREMENT_SETS)
    return PositioningSummary(rmse=rmse, crb=crb, trials=trials, at_limit=at_limit,
                              stalled=stalled, clipped=clipped, scores=scores)


@dataclass(frozen=True)
class CoherenceReport:
    """Doppler coherence margin and the end-to-end latency budget.  A
    ``coherence_margin`` above 1 means the pilot's symbols fit the limit."""

    coherence_symbol_limit: float
    num_symbols: int
    coherence_margin: float
    latency_budget_s: float


def coherence_and_latency_check(config: OfdmConfig, v_max: float,
                                accuracy_req: float) -> CoherenceReport:
    """Symbol-count margin against wavelength * spacing / v_max, and the
    latency budget 0.1 * accuracy / v_max, both inputs within
    ``CHECK_RANGES``.  A zero v_max reports unbounded (infinite) margins
    rather than dividing by zero."""
    check_range("accuracy requirement", accuracy_req, *CHECK_RANGES["accuracy requirement"])
    if v_max == 0.0:
        return CoherenceReport(math.inf, config.num_symbols, math.inf, math.inf)
    check_range("maximum speed", v_max, *CHECK_RANGES["maximum speed"])
    limit = config.wavelength * config.subcarrier_spacing / v_max
    budget = 0.1 * accuracy_req / v_max
    return CoherenceReport(
        coherence_symbol_limit=limit,
        num_symbols=config.num_symbols,
        coherence_margin=limit / config.num_symbols,
        latency_budget_s=budget,
    )


def _check_writable(path: str) -> None:
    """Raise the OSError ``export_csv`` would raise for an unwritable
    ``path``, before any sample runs; the file is neither created nor
    truncated."""
    directory = os.path.dirname(path) or "."
    if not path:
        reason = "the path is empty"
    elif os.path.isdir(path):
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
    """Write sweep points, one row each, in ``CSV_COLUMNS`` order."""
    formatters = [format_cell for _, format_cell, _ in _CSV_CELLS]
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join([format_cell(value) for format_cell, value
                        in zip(formatters, _point_values(p))]) for p in points]
    try:
        with open(path, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path!r}: {exc}") from exc


def read_csv(path: str) -> list[CurvePoint]:
    """Parse a sweep CSV produced by export_csv; a bad header or row raises
    ``ValueError`` naming its 1-based line."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            lines = [(number, line.strip()) for number, line in enumerate(handle, start=1)
                     if line.strip()]
    except OSError as exc:
        raise OSError(f"cannot read sweep CSV from {path!r}: {exc}") from exc
    if not lines or lines[0][1] != ",".join(CSV_COLUMNS):
        raise ValueError(f"sweep CSV {path!r} line {lines[0][0] if lines else 1}: "
                         "unexpected header")
    points = []
    for number, line in lines[1:]:
        cells = line.split(",")
        try:
            if len(cells) != len(CSV_COLUMNS):
                raise ValueError(f"malformed CSV row {line!r}")
            points.append(CurvePoint(*[parse(cell) for (_, _, parse), cell
                                       in zip(_CSV_CELLS, cells)]))
        except ValueError as exc:
            raise ValueError(f"sweep CSV {path!r} line {number}: {exc}") from None
    return points
