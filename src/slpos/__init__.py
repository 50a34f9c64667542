"""Sub-6 GHz sidelink ranging and positioning toolkit.

Synthesizes multipath OFDM links in an urban intersection, evaluates three
Fisher-information range error bounds (including a weighted-average
approximation that accounts for unresolvable in-cell multipath), runs a
windowed-IDFT time-of-arrival estimator with round-trip combining and
maximum-likelihood multilateration, and produces Monte Carlo RMSE-versus-
bound curves.  The ``slpos`` command line (``slpos.cli``) is the entry
point; other code imports what it needs from the modules.
"""

import os

# One BLAS thread unless the environment names a count, set before the
# modules below load NumPy (it has no effect once NumPy is loaded).
# slpos's matrix products are small: on a 2-vCPU host OpenBLAS's default
# pool left a one-process criterion-9 sweep no faster (1.0-1.1 s either
# way), and a process without the pool may split its sweeps across the
# CPUs (``harness._usable_cpus``).
for _name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

# The benchmark's set-up (bench/run.py) calls these four as slpos.<name>.
from .propagation import build_scenario  # noqa: E402
from .signal import default_config, hamming_window, make_pilots  # noqa: E402
