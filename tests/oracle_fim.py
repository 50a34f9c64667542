"""Independent finite-difference Fisher information oracle.

Builds the information matrix from central finite differences of the
noiseless received mean (via the signal-synthesis path, never the analytic
gradient under test).  Step sizes follow the parameter scales: the delay
step is a small fraction of the inverse band edge; the gain steps are
arbitrary because the mean is linear in the gain components.
"""

import numpy as np

from slpos.propagation import ChannelSnapshot, PathComponent
from slpos.signal import noise_variance, synthesize_rx

_GAIN_STEP = 1e-6


def _mean_vector(params, kinds, wall_indices, pilots, config):
    paths = []
    for i in range(len(params) // 3):
        delay, re, im = params[3 * i:3 * i + 3]
        paths.append(PathComponent(delay=float(delay), gain=complex(re, im),
                                   radial_velocity=0.0, kind=kinds[i],
                                   wall_index=wall_indices[i]))
    paths.sort(key=lambda p: p.delay)
    snapshot = ChannelSnapshot(paths=tuple(paths))
    rx = synthesize_rx(snapshot, pilots, config, noise_seed=None, doppler_enabled=False)
    return rx.symbols.ravel()


def finite_difference_fim(paths, pilots, config):
    """(2/N0) Re{G^H G} with G from central differences of the mean."""
    params = []
    kinds = []
    wall_indices = []
    for p in paths:
        params.extend([p.delay, p.gain.real, p.gain.imag])
        kinds.append(p.kind)
        wall_indices.append(p.wall_index)
    params = np.asarray(params, dtype=float)

    delay_step = 1e-4 / (2 * np.pi * config.num_subcarriers * config.subcarrier_spacing)
    columns = []
    for k in range(len(params)):
        step = delay_step if k % 3 == 0 else _GAIN_STEP
        up = params.copy()
        up[k] += step
        down = params.copy()
        down[k] -= step
        derivative = (_mean_vector(up, kinds, wall_indices, pilots, config)
                      - _mean_vector(down, kinds, wall_indices, pilots, config)) / (2 * step)
        columns.append(derivative)
    grad = np.column_stack(columns)
    return (2.0 / noise_variance(config)) * (grad.conj().T @ grad).real
