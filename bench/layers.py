"""Per-layer microbenchmarks on fixed inputs, and the delay-spectrum kernel counts.

The inputs are the scenario-1 ``rsu-vehicle`` sample nearest the
intersection centre, the default OFDM configuration with all-ones pilots
and the CLI's default oversampling, and for ``ml_position`` the square
four-anchor layout of the positioning workload.  None of them depends on
the workload seed, so the numbers compare across workloads and commits.
"""

from __future__ import annotations

import statistics
import timeit

from workloads import POSITION_SIGMA_M, SQUARE_ANCHORS, TARGET

OVERSAMPLE = 16          # the ``slpos ranging`` default
BATCHES = 7
BATCH_S = 0.02
NOISE_SEED = 20221027


def us_per_call(fn) -> float:
    """Median over BATCHES timed batches of about BATCH_S seconds each."""
    timer = timeit.Timer(fn)
    number = max(1, int(BATCH_S / max(timer.timeit(1), 1e-9)))
    return statistics.median(timer.repeat(repeat=BATCHES, number=number)) / number * 1e6


def largest_prime_factor(n: int) -> int:
    factor, largest = 2, 1
    while factor * factor <= n:
        while n % factor == 0:
            largest, n = factor, n // factor
        factor += 1
    return max(largest, n)


def spectrum_bytes(n_sym: int, n_sub: int, k: int) -> int:
    """Computed bytes ``delay_spectrum`` streams per call, counting each
    NumPy step's operands and result once (complex128 is 16 bytes, float64
    8) and ignoring caches: rx / pilots, window * ratio, the sum over
    symbols, the zero-padded IFFT of length k as one pass (the passes
    inside Bluestein's algorithm are not counted), abs and square."""
    grid = n_sym * n_sub * 16
    return (3 * grid                      # rx / pilots
            + 2 * grid + n_sub * 8        # window * ratio
            + grid + n_sub * 16           # sum over symbols
            + n_sub * 16 + k * 16         # IFFT
            + k * 16 + k * 8              # abs
            + 2 * k * 8)                  # square


def centre_sample():
    """(rsu, vehicle, time) of the scenario-1 sweep sample nearest the centre."""
    from slpos.propagation import build_scenario, sample_trajectory, vehicle_horizon

    scenario = build_scenario(1)
    horizon = vehicle_horizon(scenario)
    n_samples = int(round(horizon / scenario.measurement_interval)) + 1
    times = [min(i * scenario.measurement_interval, horizon) for i in range(n_samples)]
    t = min(times, key=lambda t: abs(sample_trajectory(scenario, t)[0].position.y))
    return scenario, scenario.rsu, sample_trajectory(scenario, t)[0], t


def layer_microbenchmarks() -> dict[str, tuple[float, str]]:
    import numpy as np

    from slpos.bounds import reb_waa
    from slpos.estimation import (RangeMeasurement, delay_spectrum, estimate_toa,
                                  hamming_window, low_confidence)
    from slpos.positioning import Anchor, linear_init, ml_position
    from slpos.propagation import Vec3, trace_paths
    from slpos.signal import default_config, make_pilots, synthesize_rx

    ofdm = default_config()
    pilots = make_pilots(ofdm, "all_ones")
    window = hamming_window(ofdm.num_subcarriers)
    scenario, rsu, vehicle, t = centre_sample()
    snap = trace_paths(rsu, vehicle, scenario, ofdm.wavelength, time=t)
    rx = synthesize_rx(snap, pilots, ofdm, noise_seed=NOISE_SEED)
    spec = delay_spectrum(rx, pilots, ofdm, window=window, oversample=OVERSAMPLE)

    anchors = [Anchor(Vec3(*a)) for a in SQUARE_ANCHORS]
    noisy = np.linalg.norm(np.array(SQUARE_ANCHORS) - np.array(TARGET), axis=1)
    noisy += POSITION_SIGMA_M * np.random.default_rng(NOISE_SEED).standard_normal(len(anchors))
    measurements = [(RangeMeasurement(distance=float(d), sigma=POSITION_SIGMA_M), a)
                    for d, a in zip(noisy, anchors)]
    init = linear_init(measurements, 2)

    compensated = (window[None, :] * (rx.symbols / pilots.symbols)).sum(axis=0)
    k = len(spec.power)
    n_sym, n_sub = rx.symbols.shape

    cases = {
        "trace_paths": lambda: trace_paths(rsu, vehicle, scenario, ofdm.wavelength, time=t),
        "reb_waa": lambda: reb_waa(snap, pilots, ofdm),
        "synthesize_rx": lambda: synthesize_rx(snap, pilots, ofdm, noise_seed=NOISE_SEED),
        "delay_spectrum": lambda: delay_spectrum(rx, pilots, ofdm, window=window,
                                                 oversample=OVERSAMPLE),
        "estimate_toa": lambda: estimate_toa(spec, policy="global_peak"),
        "estimate_toa_first_peak": lambda: estimate_toa(spec, policy="first_peak"),
        "low_confidence": lambda: low_confidence(spec),
        "ml_position": lambda: ml_position(measurements, init=init, dim=2),
    }
    out = {f"micro.{name}.us_per_call": (us_per_call(fn), "us") for name, fn in cases.items()}
    out["kernel.ifft.length"] = (k, "count")
    out["kernel.ifft.largest_prime_factor"] = (largest_prime_factor(k), "count")
    out["kernel.ifft.bytes_per_spectrum"] = (spectrum_bytes(n_sym, n_sub, k), "bytes")
    out["kernel.ifft.us_per_call"] = (us_per_call(lambda: np.fft.ifft(compensated, n=k)), "us")
    return out
