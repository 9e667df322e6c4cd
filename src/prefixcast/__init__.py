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
    HourlyTraceMatrix,
    IngestSummary,
    Prefix,
    SyntheticTraceSpec,
    TimeGrid,
    bin_records,
    iter_trace_csv,
    load_matrix,
    save_matrix,
    synthesize_trace,
    synthetic_prefix,
    weekly_volume_fraction,
    zipf_shares,
)
from .dynamism import (
    ConcentrationCurve,
    CoreProfile,
    VolumeBinStat,
    burstiness_index,
    burstiness_score,
    burstiness_summary,
    coefficient_of_variation,
    compute_core_profile,
    concentration_curve,
    core_presence_intensity,
    core_set,
    core_summary,
    cv_vs_volume_bins,
    icp_vs_volume_bins,
    prefix_shares_and_cv,
)
from .selectors import (
    METHODS,
    WINDOW_GRID,
    SelectionRun,
    SelectorConfig,
    core_volume_score,
    gm11_fit,
    gm11_forecast,
    max_core_size,
    mean_volume_score,
    run_selection,
)
from .evaluation import (
    BoxplotSummary,
    BurstinessCoveragePoints,
    EvaluationReport,
    bi_vs_coverage,
    boxplot_summary,
    churn,
    evaluate_run,
    hourly_coverage,
    oracle_topk,
)
from .rttsim import (
    DYNAMIC_LABEL,
    DynamicRouteResult,
    NpSeries,
    NpSummary,
    ProbeLog,
    ProbeSample,
    ProbeScheduleSpec,
    RegimeSwitch,
    RttModel,
    generate_probe_log,
    load_probe_log,
    normalized_performance,
    np_series,
    np_summary,
    pick_last_round_best,
    rank_transits,
    save_probe_log,
    simulate_dynamic_selection,
)

__version__ = "0.1.0"
