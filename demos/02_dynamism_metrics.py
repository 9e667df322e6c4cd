"""How dynamic is traffic at the prefix level?

Walks through the dynamism toolbox on one synthetic week:

* coefficient of variation of each prefix's hourly series,
* hourly cores (smallest sets covering 95% of an hour),
* core presence intensity over the week,
* the burstiness score/index that flags rarely-core prefixes suddenly
  carrying a large hourly share.
"""

import numpy as np

from prefixcast import (
    BurstSpec,
    SyntheticTraceSpec,
    TimeGrid,
    burstiness_summary,
    compute_core_profile,
    core_summary,
    cv_vs_volume_bins,
    icp_vs_volume_bins,
    prefix_shares_and_cv,
    synthesize_trace,
    synthetic_prefix,
)

grid = TimeGrid(start=0, bin_count=168)

# rank-400 hardly ever matters... except for two violent bursts
spec = SyntheticTraceSpec(
    prefix_count=600,
    zipf_s=1.0,
    noise=0.5,
    diurnal_amplitude=0.3,
    bursts=(BurstSpec(rank=400, hour=60, multiplier=3000.0),
            BurstSpec(rank=400, hour=61, multiplier=1500.0)),
    seed=7,
)
m = synthesize_trace(spec, grid)
profile = compute_core_profile(m, threshold=0.95)

# --- hourly cores -----------------------------------------------------
core = core_summary(profile, m)
print("core statistics (95% of each hour's volume):")
print(f"  average size : {core['avg_core_size']:8.1f} prefixes")
print(f"  avg % active : {core['avg_core_pct_of_active']:8.2f}%")
print(f"  maximum size : {core['max_core_size']:8d} prefixes")

# --- variation vs importance ------------------------------------------
# weekly shares and cv are computed once and binned twice
shares_pct, cv = prefix_shares_and_cv(m)
print("\ncv by weekly-share bin (stable heavy hitters sit low):")
print(f"{'bin':>12} {'count':>6} {'mean cv':>9} {'median':>8}")
for s in cv_vs_volume_bins(shares_pct, cv):
    if s.count:
        print(f"{s.label:>12} {s.count:6d} {s.mean:9.3f} {s.median:8.3f}")

print("\ncore presence intensity by weekly-share bin:")
print(f"{'bin':>12} {'count':>6} {'mean icp':>9} {'median':>8}")
for s in icp_vs_volume_bins(shares_pct, profile.icp):
    if s.count:
        print(f"{s.label:>12} {s.count:6d} {s.mean:9.3f} {s.median:8.3f}")

# --- the bursty prefix stands out --------------------------------------
bursty = synthetic_prefix(400)
steady = synthetic_prefix(1)
print("\nper-prefix view:")
for p in (steady, bursty):
    i = m.index_of(p)
    # a prefix's burstiness score is -log(icp) times its hourly share in
    # percent, so its largest share gives its max beta
    max_beta = -np.log(profile.icp[i]) * float((100.0 * m.values[i] / m.totals).max())
    print(f"  {p}: cv={cv[i]:7.2f}  icp={profile.icp[i]:5.3f}  max beta={max_beta:7.2f}")

burst = burstiness_summary(profile)
print("\nburstiness over the week:")
print(f"  mean BI : {burst['mean_bi']:8.2f}")
print(f"  max BI  : {burst['max_bi']:8.2f}")
print(f"  max beta: {burst['max_beta']:8.2f}")
peak = int(profile.bi.argmax()) + 1
print(f"  the spike lands at hour {peak}, as injected")
