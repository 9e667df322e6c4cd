"""One pass of a workload, in a fresh interpreter started by ``run.py``.

    python3 perfbench/worker.py SPEC.json T0

``T0`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there until ``import prefixcast``
returns.  The spec lists the stages, each an argv for
``prefixcast.cli.main``; they run in order in the working directory, each
starting when the previous one finishes.  The calibration kernel
(``calibrate.py``) runs before the first stage and after each one; each
stage records the kernel's mean time on either side of it.  The result
goes to the spec's ``result`` path as JSON.  This file is a script, not a
module: it reads its arguments and imports prefixcast first thing, so that
set-up timing covers nothing else.
"""

import sys
import time

T0 = float(sys.argv[2])
import prefixcast  # noqa: E402  (set-up time ends when this returns)

READY = time.monotonic()
sys.dont_write_bytecode = True  # leave the benchmark's own directory as committed

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from prefixcast import cli, evaluation, selectors  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402

BLAS_PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# GM(1,1) scores kept per predicted hour, for the report check
GM11_KEPT_PICKS = 3


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_text,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_PIN_VARS},
        "cpus": sorted(os.sched_getaffinity(0)),
        "prefixcast": getattr(prefixcast, "__version__", "unknown"),
    }


def capture_report(patches: tracing.Patches, kept: dict) -> None:
    """Keep what the report check needs and ``report`` does not write:
    per-hour coverage of every config and the top GM(1,1) scores."""

    def make_selection(original):
        def wrapper(*args, **kwargs):
            run = original(*args, **kwargs)
            if run.config.method == "gm11":
                kept["gm11"].append({
                    "window": run.config.window,
                    "hours": run.hours.tolist(),
                    "top": [
                        [[run.prefixes[i].text, float(s)] for i, s in
                         zip(p[:GM11_KEPT_PICKS], sc[:GM11_KEPT_PICKS])]
                        for p, sc in zip(run.picks, run.scores)
                    ],
                })
            return run

        return wrapper

    def make_evaluation(original):
        def wrapper(*args, **kwargs):
            report = original(*args, **kwargs)
            kept["coverage"].append({
                "key": f"{report.method}:L{report.window}:K{report.size}",
                "hours": report.hours.tolist(),
                "coverage": report.coverage.tolist(),
            })
            return report

        return wrapper

    patches.replace(selectors, "run_selection", make_selection)
    patches.replace(evaluation, "evaluate_run", make_evaluation)


def peak_rss_kib() -> int:
    """Peak resident set of this process alone, in KiB.

    On Linux ``ru_maxrss`` also counts the parent's resident set, copied
    when the parent forked this process, so the high-water mark of this
    process's own memory map is read where ``/proc`` has it.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_stage(argv: list[str]) -> tuple[int | None, str]:
    """Run one CLI stage; an exception escaping ``main`` is a failed stage."""
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, log.getvalue()


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = {"setup_s": READY - T0, "stages": [], "env": environment()}
    patches = tracing.Patches()
    kept = {"gm11": [], "coverage": []}
    tracer = tracing.Tracer(spec["run_id"]) if spec["trace"] else None
    if spec["capture"]:
        capture_report(patches, kept)
    if tracer is not None:
        tracing.install(tracer)
    result["host_s"] = [calibrate.host_seconds()]
    try:
        for stage in spec["stages"]:
            start = time.perf_counter()
            if tracer is None:
                rc, log = run_stage(stage["argv"])
            else:
                with tracer.span(f"cli.{stage['name']}"):
                    rc, log = run_stage(stage["argv"])
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.settle()
            result["host_s"].append(calibrate.host_seconds())
            result["stages"].append(
                {"name": stage["name"], "rc": rc, "wall_s": wall, "log": log,
                 "host_s": sum(result["host_s"][-2:]) / 2}
            )
            if rc != 0:
                break
    finally:
        if tracer is not None:
            tracer.restore()
        patches.restore()
    result["peak_rss_kib"] = peak_rss_kib()
    result["captured"] = kept if spec["capture"] else None
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
