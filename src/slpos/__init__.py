"""Sub-6 GHz sidelink ranging and positioning toolkit.

Synthesizes multipath OFDM links in an urban intersection, evaluates three
Fisher-information range error bounds (including a weighted-average
approximation that accounts for unresolvable in-cell multipath), runs a
windowed-IDFT time-of-arrival estimator with round-trip combining and
maximum-likelihood multilateration, and produces Monte Carlo RMSE-versus-
bound curves.
"""

from .bounds import (
    BoundReport,
    crb_delay,
    fim,
    reb_all_paths,
    reb_los_only,
    reb_waa,
    resolution_cell,
)
from .constants import SPEED_OF_LIGHT
from .estimation import (
    DelaySpectrum,
    RangeMeasurement,
    ToaEstimate,
    delay_spectrum,
    estimate_toa,
    hamming_window,
    rtt_range,
)
from .harness import (
    REQUIREMENT_SETS,
    CurvePoint,
    RunConfig,
    coherence_and_latency_check,
    export_csv,
    read_csv,
    run_bounds_sweep,
    run_positioning_demo,
    run_ranging_sweep,
)
from .positioning import Anchor, PositionEstimate, linear_init, ml_position
from .propagation import (
    BuildingBox,
    ChannelSnapshot,
    PathComponent,
    PathKind,
    Pose,
    ScenarioConfig,
    Vec3,
    build_scenario,
    friis_gain,
    sample_trajectory,
    scenario_from_text,
    scenario_to_text,
    segment_blocked,
    trace_paths,
)
from .signal import (
    OfdmConfig,
    PilotGrid,
    RxSymbols,
    default_config,
    make_pilots,
    noise_variance,
    synthesize_rx,
)

__all__ = [
    "SPEED_OF_LIGHT",
    "Anchor",
    "BoundReport",
    "BuildingBox",
    "ChannelSnapshot",
    "CurvePoint",
    "DelaySpectrum",
    "OfdmConfig",
    "PathComponent",
    "PathKind",
    "PilotGrid",
    "Pose",
    "PositionEstimate",
    "REQUIREMENT_SETS",
    "RangeMeasurement",
    "RunConfig",
    "RxSymbols",
    "ScenarioConfig",
    "ToaEstimate",
    "Vec3",
    "build_scenario",
    "coherence_and_latency_check",
    "crb_delay",
    "default_config",
    "delay_spectrum",
    "estimate_toa",
    "export_csv",
    "fim",
    "friis_gain",
    "hamming_window",
    "linear_init",
    "make_pilots",
    "ml_position",
    "noise_variance",
    "read_csv",
    "reb_all_paths",
    "reb_los_only",
    "reb_waa",
    "resolution_cell",
    "rtt_range",
    "run_bounds_sweep",
    "run_positioning_demo",
    "run_ranging_sweep",
    "sample_trajectory",
    "scenario_from_text",
    "scenario_to_text",
    "segment_blocked",
    "synthesize_rx",
    "trace_paths",
]

__version__ = "0.1.0"
