"""How concentrated is per-prefix traffic?

Builds a synthetic week of per-prefix hourly volumes, then looks at how
few prefixes carry most of the bytes: ranked weekly shares, the
cumulative distribution over several time spans, and the classic Zipf
reference curve.
"""

import numpy as np

from prefixcast import (
    SyntheticTraceSpec,
    TimeGrid,
    concentration_curve,
    prefix_shares_and_cv,
    synthesize_trace,
)

# A full week of hourly bins, ~2000 prefixes following a Zipf profile
# with mild day/night swing and per-cell noise.
grid = TimeGrid(start=0, bin_count=168)
spec = SyntheticTraceSpec(
    prefix_count=2000,
    zipf_s=1.0,
    hourly_volume=5e9,
    diurnal_amplitude=0.4,
    noise=0.5,
    seed=42,
)
m = synthesize_trace(spec, grid)
print(f"trace: {len(m)} prefixes x {m.bin_count} hourly bins")
print(f"week volume: {m.totals.sum() / 1e12:.2f} TB")

# Top prefixes by weekly share
print("\ntop 5 prefixes by weekly volume fraction:")
shares_pct, _ = prefix_shares_and_cv(m)
for i in np.argsort(-shares_pct, kind="stable")[:5]:
    print(f"  {m.prefixes[i]}  {shares_pct[i]:6.2f}%")

# How many prefixes do you need for 50/90/95/99% of the week?
curve = concentration_curve(m, "week")
for target in (0.5, 0.9, 0.95, 0.99):
    needed = int(np.searchsorted(curve.cdf, target)) + 1
    print(f"{100 * target:4.0f}% of the week's volume sits in the "
          f"top {needed} prefixes ({100 * needed / len(m):.1f}% of them)")

# The observed head shares against the Zipf reference overlay
print("\nrank  observed-share  zipf-reference")
for k in (1, 2, 5, 10, 100, 1000):
    print(f"{k:5d}  {curve.shares[k - 1]:14.5f}  {curve.zipf_overlay[k - 1]:14.5f}")

# Concentration is not static: compare one busy hour against the week
hour_curve = concentration_curve(m, "hour:10")
day_curve = concentration_curve(m, "day:25")
for label, c in (("hour 10", hour_curve), ("day@25", day_curve), ("week", curve)):
    half = int(np.searchsorted(c.cdf, 0.5)) + 1
    print(f"{label:>8}: top {half} prefixes cover half the volume")
