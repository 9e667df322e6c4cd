"""Spans and counts recorded around calls into prefixcast's public functions.

For one pass the tracer replaces module attributes such as
``prefixcast.rttsim.np_series`` with wrappers and puts the originals back
afterwards.  ``cli`` and ``rank_transits`` look these names up at call
time, so nested calls get nested spans.  Spans stay in memory until the
pass ends.  Per-element helpers (``pick_last_round_best``, the GM(1,1)
forecast of one window) are left alone to keep the overhead small.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


class Patches:
    """Module attributes replaced for a while, restored in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        setattr(module, attr, functools.wraps(original)(make(original)))
        self._saved.append((module, attr, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer:
    """Spans (name, start, end, parent) sharing one run id, plus counts.

    Counts that need a look at a result are computed by ``settle`` after
    the enclosing stage has finished, so they fall outside every span.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.patches = Patches()
        self._stack: list[int] = []
        self._pending: list = []

    @contextmanager
    def span(self, name: str):
        record = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, *, name=None, after=None, consume=False) -> None:
        """Time calls to ``module.attr`` as spans.

        ``name`` may be a function of the call's arguments; ``after(counts,
        args, kwargs, result)`` adds counts once the stage is over;
        ``consume`` drains a returned iterator inside the span.
        """
        base = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def make(original):
            def wrapper(*args, **kwargs):
                label = name(args, kwargs) if callable(name) else base
                with self.span(label):
                    result = original(*args, **kwargs)
                    if consume:
                        result = iter(list(result))
                self.counts[f"{base}.calls"] += 1
                if after is not None:
                    self._pending.append((after, args, kwargs, result))
                return result

            return wrapper

        self.patches.replace(module, attr, make)

    def settle(self) -> None:
        while self._pending:
            after, args, kwargs, result = self._pending.pop(0)
            after(self.counts, args, kwargs, result)

    def restore(self) -> None:
        self.patches.restore()


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _bin_records(counts, args, kwargs, result) -> None:
    summary = result[1]
    counts["trace.bin_records.records"] += summary.records_read
    counts["trace.bin_records.rejected"] += summary.records_rejected


def _save_matrix(counts, args, kwargs, result) -> None:
    counts["trace.save_matrix.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "csv_path"))


def _gm11_windows(values: np.ndarray, window: int) -> int:
    """Candidate (prefix, hour) windows a GM(1,1) run forecasts: active ones."""
    active = values > 0
    total = 0
    for hi in range(1, values.shape[1]):
        total += int(active[:, max(0, hi - window):hi].any(axis=1).sum())
    return total


def _run_selection(counts, args, kwargs, result) -> None:
    counts["selectors.shortfall_hours"] += int(result.shortfall.sum())
    if result.config.method == "gm11":
        counts["selectors.gm11_fallbacks"] += int(result.gm11_fallbacks)
        values = _arg(args, kwargs, 0, "m").values
        counts["selectors.gm11.fits"] += _gm11_windows(values, result.config.window)


def _save_probe_log(counts, args, kwargs, result) -> None:
    path = _arg(args, kwargs, 1, "path")
    counts["rttsim.save_probe_log.bytes"] += os.path.getsize(path)
    with open(path) as fh:
        next(fh)
        for line in fh:
            counts["rttsim.probe.samples"] += 1
            counts["rttsim.probe.lost"] += line.endswith(",\n")


def _simulate_dynamic(counts, args, kwargs, result) -> None:
    counts["rttsim.dynamic.included"] += sum(result.included)
    counts["rttsim.dynamic.excluded"] += sum(result.excluded_missing)


def _method(args, kwargs) -> str:
    return f"selectors.run_selection.{_arg(args, kwargs, 2, 'config').method}"


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every prefixcast layer the CLI calls."""
    from prefixcast import dynamism, evaluation, rttsim, selectors, trace

    tracer.wrap(trace, "iter_trace_csv", consume=True)
    tracer.wrap(trace, "bin_records", after=_bin_records)
    tracer.wrap(trace, "save_matrix", after=_save_matrix)
    tracer.wrap(trace, "load_matrix")
    tracer.wrap(trace, "synthesize_trace")
    for attr in ("compute_core_profile", "concentration_curve",
                 "cv_vs_volume_bins", "icp_vs_volume_bins"):
        tracer.wrap(dynamism, attr)
    tracer.wrap(selectors, "run_selection", name=_method, after=_run_selection)
    tracer.wrap(evaluation, "evaluate_run")
    tracer.wrap(rttsim, "generate_probe_log")
    tracer.wrap(rttsim, "save_probe_log", after=_save_probe_log)
    tracer.wrap(rttsim, "load_probe_log")
    tracer.wrap(rttsim, "np_series")
    tracer.wrap(rttsim, "simulate_dynamic_selection", after=_simulate_dynamic)
    tracer.wrap(rttsim, "rank_transits")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
    return totals
