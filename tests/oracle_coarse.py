"""Reference coarse search for the estimation tests.

``dense_coarse_search`` is ``slpos.estimation.coarse_search`` as it was
first written: a fresh zero-padded IFFT per batch, and each row's zoom
edges found from the full B x L matrix of circular offsets by two
``np.where`` passes.  ``coarse_search`` must return exactly its
(start, width).
"""

import numpy as np

from slpos.estimation import (
    _SCALLOP_MARGIN_DB,
    PEAK_POLICIES,
    _coarse_length,
    _zoom_half_width,
)


def dense_coarse_search(c, oversample, policy="global_peak", threshold_db=6.0):
    if policy not in PEAK_POLICIES:
        raise ValueError(f"unknown peak policy {policy!r}")
    n_sub = c.shape[-1]
    k_bins = oversample * n_sub
    length = _coarse_length(n_sub, oversample)
    values = np.fft.ifft(c, n=length, axis=-1)
    re, im = values.real, values.imag
    power = re * re + im * im
    margin_db = _SCALLOP_MARGIN_DB + (threshold_db if policy == "first_peak" else 0.0)
    above = power >= power.max(axis=-1, keepdims=True) * 10 ** (-margin_db / 10.0)
    top = power.argmax(axis=-1)
    offset = (np.arange(length) - top[:, None] + length // 2) % length - length // 2
    half = _zoom_half_width(n_sub, oversample)
    first, last = ((2 * (top + edge) * k_bins + length) // (2 * length)
                   for edge in (np.where(above, offset, length).min(axis=-1),
                                np.where(above, offset, -length).max(axis=-1)))
    return (first - half) % k_bins, last - first + 2 * half + 1
