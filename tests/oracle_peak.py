"""Reference peak choice for the estimation tests.

``full_spectrum_peak`` is the peak choice ``slpos.estimation`` first made
on one full K-bin spectrum: ``global_peak`` the first strongest bin,
``first_peak`` the earliest circular local maximum (strictly above the bin
before it, at least the bin after it) within ``threshold_db`` of the
strongest, else the strongest.  ``estimate_toa`` and every row of ``zoom``
must pick exactly its bin.
"""

import numpy as np


def _local_maxima(power):
    left = np.roll(power, 1)
    right = np.roll(power, -1)
    return np.flatnonzero((power > left) & (power >= right))


def full_spectrum_peak(power, policy, threshold_db):
    """Bin chosen by ``policy`` on one full K-bin spectrum."""
    peak_value = power.max()
    if not peak_value > 0:
        raise ValueError("degenerate (all-zero) delay spectrum")
    if policy == "global_peak":
        return int(np.argmax(power))
    if policy == "first_peak":
        candidates = _local_maxima(power)
        candidates = candidates[power[candidates] >= peak_value * 10 ** (-threshold_db / 10.0)]
        return int(candidates[0]) if len(candidates) else int(np.argmax(power))
    raise ValueError(f"unknown peak policy {policy!r}")
