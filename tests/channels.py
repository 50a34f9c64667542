"""Shared channel-building helpers for the test suite."""

import numpy as np

from slpos.propagation import ChannelSnapshot, PathComponent, PathKind


def make_snapshot(paths, tx=None, rx=None):
    """Channel snapshot from a bare path list (sorted here for convenience).

    ``tx`` and ``rx`` only document a caller's link geometry: a snapshot
    holds its paths, not the poses of its ends."""
    return ChannelSnapshot(paths=tuple(sorted(paths, key=lambda p: p.delay)))


def los_path(delay, gain=1.0 + 0j, velocity=0.0):
    return PathComponent(delay=delay, gain=gain, radial_velocity=velocity,
                         kind=PathKind.LOS)


def echo_path(delay, gain, index=0, velocity=0.0):
    return PathComponent(delay=delay, gain=gain, radial_velocity=velocity,
                         kind=PathKind.WALL, wall_index=index)


def random_multipath(rng, n_paths, delay_lo=20e-9, delay_hi=400e-9,
                     amp_lo=0.05, amp_hi=1.5):
    """Random sorted path list with a line-of-sight path first."""
    delays = np.sort(rng.uniform(delay_lo, delay_hi, n_paths))
    paths = []
    for i, delay in enumerate(delays):
        gain = rng.uniform(amp_lo, amp_hi) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if i == 0:
            paths.append(los_path(float(delay), complex(gain)))
        else:
            paths.append(echo_path(float(delay), complex(gain), index=i - 1))
    return paths
