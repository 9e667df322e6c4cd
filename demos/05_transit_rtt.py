"""Is multi-homing worth it, and how much can dynamic routing add?

Simulates a week of RTT probing toward 30 selected prefixes through
three transit providers, one of which suffers a mid-week degradation
episode.  Normalized RTT (ratio to the per-prefix best transit, 1.0 =
optimal) ranks the transits; a virtual transit that re-routes every
prefix to last round's winner shows the headroom a route decision
engine has over static provider choice.
"""

import numpy as np

from prefixcast import (
    ProbeScheduleSpec,
    RegimeSwitch,
    RttModel,
    generate_probe_log,
    np_series,
    rank_transits,
    synthetic_prefix,
)

rng = np.random.default_rng(99)
prefixes = [synthetic_prefix(k) for k in range(1, 31)]
transits = ("T1", "T2", "T3")

# Per-pair baselines: T1 generally good, T2 mid, T3 far -- but each
# prefix has its own best, so no single transit wins everywhere.
base = {}
for prefix in prefixes:
    offsets = rng.permutation((0.0, 8.0, 20.0))
    for transit, extra in zip(transits, offsets):
        base[(prefix, transit)] = float(rng.uniform(18.0, 45.0) + extra)

model = RttModel(
    base_rtt=base,
    noise_std=1.5,
    loss_prob=0.02,
    # T1 triples its RTTs for a day in the middle of the week
    regime_switches=(RegimeSwitch("T1", start_tick=900, end_tick=1260, multiplier=3.0),),
)

# One probing round every ~240 s (with 30% jitter) for a full week
schedule = ProbeScheduleSpec(mean_interval=240.0, jitter=0.30,
                             duration=7 * 86400.0, seed=99)
log = generate_probe_log(schedule, model)
print(f"probe log: {len(log.ticks)} rounds, {len(log.prefixes)} prefixes, "
      f"{len(log.transits)} transits")

# Ranked boxplot-style summaries, best mean first
print(f"\n{'transit':>8} {'mean':>7} {'p5':>6} {'median':>7} {'p95':>7} {'max':>7}")
for label, s in rank_transits(log, include_dynamic=True, seed=99):
    print(f"{label:>8} {s.mean:7.4f} {s.p5:6.3f} {s.median:7.4f} "
          f"{s.p95:7.4f} {s.max:7.3f}")

# The episode is visible in T1's series: compare before/during
t1 = np_series(log, "T1")
values = np.array([v if v is not None else np.nan for v in t1.values])
before = np.nanmean(values[500:900])
during = np.nanmean(values[900:1260])
print(f"\nT1 normalized RTT before the episode: {before:.3f}")
print(f"T1 normalized RTT during the episode: {during:.3f}")
print("a static 'always T1' policy eats that degradation; the dynamic "
      "transit sidesteps it one probing round later")
