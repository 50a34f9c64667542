"""Sub-6 GHz sidelink ranging and positioning toolkit.

Synthesizes multipath OFDM links in an urban intersection, evaluates three
Fisher-information range error bounds (including a weighted-average
approximation that accounts for unresolvable in-cell multipath), runs a
windowed-IDFT time-of-arrival estimator with round-trip combining and
maximum-likelihood multilateration, and produces Monte Carlo RMSE-versus-
bound curves.  The ``slpos`` command line (``slpos.cli``) is the entry
point; other code imports what it needs from the modules.
"""

# The benchmark's set-up (bench/run.py) calls these four as slpos.<name>.
from .estimation import hamming_window
from .propagation import build_scenario
from .signal import default_config, make_pilots
