"""prefixcast: per-prefix traffic dynamism, predictive prefix selection,
and transit RTT comparison for multi-homed networks.

The package splits into five parts:

* ``trace``      -- hourly per-prefix volume matrices: ingestion from flow
                    CSVs, persistence, and a seeded synthetic generator.
* ``dynamism``   -- concentration, variation, hourly cores, core presence
                    intensity, and burstiness metrics.
* ``selectors``  -- sliding-window selection of the prefixes expected to
                    carry the most traffic next hour (mean volume, core
                    presence, core volume, GM(1,1) baseline).
* ``evaluation`` -- coverage/churn scoring of selections against ground
                    truth.
* ``rttsim``     -- normalized RTT comparison of transit providers and a
                    last-round-best dynamic route selection simulation.

Hours are 1-based everywhere.  All randomness is funneled through
explicit seeds; every computation is deterministic and replayable.
"""

from .trace import (
    BurstSpec,
    SyntheticTraceSpec,
    TimeGrid,
    synthesize_trace,
    synthetic_prefix,
)
from .dynamism import (
    burstiness_summary,
    compute_core_profile,
    concentration_curve,
    core_summary,
    cv_vs_volume_bins,
    icp_vs_volume_bins,
    prefix_shares_and_cv,
)
from .selectors import (
    METHODS,
    WINDOW_GRID,
    SelectorConfig,
    max_core_size,
    run_selection,
)
from .evaluation import evaluate_run
from .rttsim import (
    ProbeScheduleSpec,
    RegimeSwitch,
    RttModel,
    generate_probe_log,
    np_series,
    rank_transits,
)

# the names the demos and the README quickstart use; the rest of the API
# lives in the submodules
__all__ = [
    "BurstSpec",
    "SyntheticTraceSpec",
    "TimeGrid",
    "synthesize_trace",
    "synthetic_prefix",
    "burstiness_summary",
    "compute_core_profile",
    "concentration_curve",
    "core_summary",
    "cv_vs_volume_bins",
    "icp_vs_volume_bins",
    "prefix_shares_and_cv",
    "METHODS",
    "WINDOW_GRID",
    "SelectorConfig",
    "max_core_size",
    "run_selection",
    "evaluate_run",
    "ProbeScheduleSpec",
    "RegimeSwitch",
    "RttModel",
    "generate_probe_log",
    "np_series",
    "rank_transits",
]

__version__ = "0.1.0"
