"""Per-thread work arrays that hot kernels reuse from call to call.

A kernel called once per peak-search batch or per Fisher information
matrix would otherwise allocate fresh arrays of a few hundred kB each
time, which the C allocator hands back to the system and faults in again
on the next call; at 64 x 512 complex points that costs about as much as
the IFFT it feeds.  ``work_array`` keeps one grow-only flat buffer per key
and thread (``threading.local``), so two threads never share one.  A
caller must not return a view of it: the next call with the same key
overwrites it.
"""

from __future__ import annotations

import math
import threading

import numpy as np

_LOCAL = threading.local()


def work_array(key: tuple, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """This thread's C-contiguous array of ``shape`` for ``key``: the leading
    elements of a grow-only flat buffer.  It holds whatever the last call
    with ``key`` left there, and zeros where no caller has written since the
    buffer last grew, so a caller that keeps the layout fixed per key (a
    padding region it never writes) may rely on them."""
    size = math.prod(shape)
    buffers = vars(_LOCAL)
    buf = buffers.get(key)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = buffers[key] = np.zeros(size, dtype)
    return buf[:size].reshape(shape)
