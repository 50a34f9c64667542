"""Shared channel-building and symbol-sum helpers for the test suite."""

import numpy as np

from slpos.positioning import Anchor
from slpos.propagation import ChannelSnapshot, PathComponent, PathKind, Vec3
from slpos.signal import PilotGrid, make_pilots

# The square anchor layout of the positioning tests, the 10 m square of
# data/anchors_square.txt.
SQUARE = [Anchor(Vec3(0.0, 0.0, 0.0)), Anchor(Vec3(10.0, 0.0, 0.0)),
          Anchor(Vec3(0.0, 10.0, 0.0)), Anchor(Vec3(10.0, 10.0, 0.0))]


def make_snapshot(paths, tx=None, rx=None):
    """Channel snapshot from a bare path list (sorted here for convenience).

    ``tx`` and ``rx`` only document a caller's link geometry: a snapshot
    holds its paths, not the poses of its ends."""
    return ChannelSnapshot(paths=tuple(sorted(paths, key=lambda p: p.delay)))


def symbol_sum(rx, pilots, window):
    """What delay_spectrum transforms: sum over symbols of window * rx / pilots."""
    return (window * rx.symbols / pilots.symbols).sum(axis=0)


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


def random_phase_pilots(config, seed):
    """``make_pilots``' amplitude with a phase per entry drawn uniform in
    [0, 2 pi) from ``seed``: a grid whose phases a kernel must divide out."""
    amplitude = make_pilots(config).symbols.real
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=amplitude.shape)
    return PilotGrid(symbols=amplitude * np.exp(1j * phases))
