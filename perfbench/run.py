"""prefixcast benchmark: seeded workloads through the real CLI stages.

    python3 perfbench/run.py --workload week-report --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 42

Run from a checkout of the repository; the program is used from its
``src`` directory as it stands, with nothing to build.  One run of a
workload:

* generates the workload's inputs from ``--seed`` (see ``workloads.py``);
* for ``--seconds``, repeats passes: each pass is a fresh interpreter that
  calls the workload's stages in order through ``prefixcast.cli.main``,
  with BLAS threads pinned to 1.  One client, closed loop: a stage starts
  when the previous one has finished.  Each pass also times its own
  start, from a fresh interpreter until ``import prefixcast`` returns,
  for ``setup_s``;
* checks the outputs of the first pass (``checks.py``) and that every
  later pass wrote byte-identical outputs.  The first pass also compiles
  the bytecode later passes reuse and keeps what the checks need that no
  stage writes, so it is never timed;
* keeps itself and its workers on one CPU, and reports every timing in
  calibrated seconds, scaled by a fixed kernel's time next to it on that
  CPU (``calibrate.py`` and ``end_to_end`` say why), as a median over the
  passes;
* prints every metric with its unit, then one JSON line with ``correct``,
  ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the JSON holds the end-to-end metrics.  With
``--trace 1`` every second pass is traced (``tracing.py``) and the JSON
holds the per-layer metrics, ``.s`` being self time.  The metric names and
units come from ``BENCHMARK.json``.  ``attempted`` counts stage runs;
``failed`` counts stage runs that exited non-zero, raised, or wrote
output that failed a check; in a traced pass, every stage fails when a
span or count that the workload must record is missing, or when the
counts differ from the first traced pass's.  A pass with a failed stage
is not timed.
The full record, with the environment and the spans, is written to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True  # leave the benchmark's own directory as committed

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

try:
    import checks  # noqa: E402  (imports prefixcast)
except ImportError as exc:
    sys.exit(f"error: no prefixcast under {ROOT / 'src'} ({exc}); run from a checkout")
WORK_DIR = ".bench_work"
# passes after the untimed first one, however short ``--seconds`` is
MIN_PASSES = 3
MIN_TRACED_PASSES = 4
PASS_TIMEOUT_S = 100
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PRINTED_PROBLEMS = 5
# the highest of these with ten samples beyond it is printed with a timing
TAIL_PERCENTILES = (99, 90, 75)


@dataclass
class Pass:
    """What one worker process did."""

    index: int
    traced: bool
    directory: Path
    setup_s: float | None = None
    host_s: list[float] = field(default_factory=list)  # the kernel, before each stage and after
    stages: list[dict] = field(default_factory=list)
    peak_rss_kib: int | None = None
    spans: list[dict] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    captured: dict | None = None
    env: dict = field(default_factory=dict)
    error: str = ""

    @property
    def pipeline_wall_s(self) -> float:
        return sum(s["wall_s"] for s in self.stages)

    @property
    def pipeline_s(self) -> float:
        return sum(calibrated(s["wall_s"], s["host_s"]) for s in self.stages)

    @property
    def setup_calibrated_s(self) -> float:
        return calibrated(self.setup_s, self.host_s[0])


def calibrated(wall_s: float, host_s: float) -> float:
    """Wall seconds as seconds on a core where the kernel takes its reference time."""
    return wall_s * calibrate.REFERENCE_S / host_s


def worker_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(spec: dict, spec_path: Path, cwd: Path, env: dict) -> dict | str:
    """Run one worker; returns its result, or an error text."""
    spec_path.write_text(json.dumps(spec))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), repr(t0)],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"worker exceeded {PASS_TIMEOUT_S} s"
    result = Path(spec["result"])
    if proc.returncode != 0 or not result.exists():
        return f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(result.read_text())


def measure(root: Path, workload, run_dir: Path, seconds: float, trace: bool) -> tuple:
    """Passes until ``seconds`` are used up; each also gives a set-up sample."""
    calibrate.pin_to_one_cpu()
    env = worker_env(root)
    run_id = uuid.uuid4().hex
    stages = [{"name": s.name, "argv": list(s.argv)} for s in workload.stages]
    capture = any(s.name == "report" for s in workload.stages)
    passes: list[Pass] = []
    start = time.monotonic()
    least = 1 + (MIN_TRACED_PASSES if trace else MIN_PASSES)
    while True:
        k = len(passes)
        p = Pass(index=k, traced=trace and k % 2 == 1, directory=run_dir / f"pass{k}")
        p.directory.mkdir()
        spec = {
            "stages": stages, "trace": p.traced, "run_id": run_id,
            "capture": capture and k == 0,
            "result": str(run_dir / f"pass{k}.json"),
        }
        result = spawn(spec, run_dir / f"pass{k}.spec.json", p.directory, env)
        if isinstance(result, str):
            p.error = result
        else:
            p.setup_s = result["setup_s"]
            p.host_s = result["host_s"]
            p.stages = result["stages"]
            p.peak_rss_kib = result["peak_rss_kib"]
            p.spans = result.get("spans", [])
            p.counts = result.get("counts", {})
            p.captured = result["captured"]
            p.env = result["env"]
            for s in p.stages:
                if s["rc"] == 0:
                    s["digest"], s["out_bytes"] = checks.digest(p.directory / s["name"])
        passes.append(p)
        elapsed = time.monotonic() - start
        if len(passes) >= least and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    return passes, run_id


@dataclass
class Score:
    attempted: int
    failed: int
    problems: dict
    timed: list[Pass]       # passes after the first whose every stage succeeded
    reference: Pass | None  # the first pass, if complete: the one checked


def score(workload, passes: list[Pass]) -> Score:
    """Check outputs and count stage runs attempted and failed."""
    names = [s.name for s in workload.stages]
    complete = [p for p in passes if [s["name"] for s in p.stages] == names
                and all(s["rc"] == 0 for s in p.stages)]
    reference = passes[0] if passes and passes[0] in complete else None
    problems: dict[str, list[str]] = {}
    if reference is not None:
        try:
            problems = dict(checks.CHECKS[workload.name](
                reference.directory, workload.facts, reference.captured))
        except Exception as exc:  # a check that cannot read an output fails every stage
            problems = {n: [f"check raised {exc!r}"] for n in names}
    checked = dict(problems)
    first_traced = next((p for p in complete if p.traced), None)
    expected = {s["name"]: s["digest"] for s in reference.stages} if reference else {}

    attempted = failed = 0
    timed = []
    for p in passes:
        trace_problems = []
        if p.traced and first_traced is not None and p.counts != first_traced.counts:
            trace_problems.append(f"pass {p.index}: counts differ")
        if p.traced and p in complete:
            recorded = {s["name"] for s in p.spans} | set(p.counts)
            missing = [n for n in workload.traced if n not in recorded]
            if missing:
                trace_problems.append(f"pass {p.index}: no span or count {missing}")
        if trace_problems:
            problems.setdefault("tracing", []).extend(trace_problems)
        if p.error:  # the worker died before its first stage
            problems.setdefault("worker", []).append(f"pass {p.index}: {p.error}")
            attempted += 1
            failed += 1
        for s in p.stages:
            if s["rc"] != 0:
                problems.setdefault(s["name"], []).append(
                    f"pass {p.index}: exit {s['rc']}: {s['log'].strip()[-500:]}")
        bad = [
            s["rc"] != 0 or bool(trace_problems) or bool(checked.get(s["name"]))
            or s.get("digest") != expected.get(s["name"])
            for s in p.stages
        ]
        attempted += len(bad)
        failed += sum(bad)
        if p.index > 0 and p in complete and not any(bad):
            timed.append(p)
    return Score(attempted, failed, problems, timed, reference)


def cells(workload, reference: Pass | None) -> int:
    if "cells" in workload.facts:
        return workload.facts["cells"]
    meta = json.loads((reference.directory / "probe_synth" / "probe_meta.json").read_text())
    return meta["ticks"] * workload.facts["prefixes"] * workload.facts["transits"]


def end_to_end(workload, setup: list[Pass], sc: Score) -> tuple[dict, dict]:
    """Median values, and the samples behind each timing.

    Timings are in calibrated seconds (``calibrate.py``): a core of this
    host runs 1.5x slower or faster from one minute to the next, and a
    stage's wall time moves with it, but its ratio to the kernel's time
    just around it does not.  ``setup_wall_s``, ``pipeline_wall_s`` and
    ``host_s`` give the wall times and the kernel's times.
    """
    untraced = [p for p in sc.timed if not p.traced]
    samples = {
        "setup_s": [p.setup_calibrated_s for p in setup],
        "setup_wall_s": [p.setup_s for p in setup],
    }
    if untraced:
        for stage in workload.stages:
            samples[f"{stage.name}_s"] = [
                calibrated(s["wall_s"], s["host_s"])
                for p in untraced for s in p.stages if s["name"] == stage.name
            ]
        samples["pipeline_s"] = [p.pipeline_s for p in untraced]
        samples["pipeline_wall_s"] = [p.pipeline_wall_s for p in untraced]
        samples["host_s"] = [h for p in untraced for h in p.host_s]
    values = {name: float(np.median(v)) for name, v in samples.items() if v}
    if untraced:
        values["cells_per_s"] = cells(workload, sc.reference) / values["pipeline_s"]
        values["peak_rss_mb"] = float(np.median([p.peak_rss_kib for p in untraced])) / 1024.0
    values["failed_ratio"] = sc.failed / sc.attempted
    return values, samples


def per_layer(sc: Score, e2e: dict, layer_names: list[str]) -> dict:
    traced = [p for p in sc.timed if p.traced]
    if not traced:
        return {}
    # a pass's spans cover all its stages: scaled by the kernel's median time in it
    selfs = [{k: calibrated(v, float(np.median(p.host_s)))
              for k, v in tracing.self_times(p.spans).items()} for p in traced]
    counts = traced[0].counts
    out_bytes = {s["name"]: s["out_bytes"] for s in traced[0].stages}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    derived = {
        "selectors.gm11.fit_ratio": ratio(
            counts.get("selectors.gm11.fits", 0) - counts.get("selectors.gm11_fallbacks", 0),
            counts.get("selectors.gm11.fits", 0)),
        "trace.bin_records.reject_ratio": ratio(
            counts.get("trace.bin_records.rejected", 0), counts.get("trace.bin_records.records", 0)),
        "rttsim.probe.loss_ratio": ratio(
            counts.get("rttsim.probe.lost", 0), counts.get("rttsim.probe.samples", 0)),
        "rttsim.dynamic.excluded_ratio": ratio(
            counts.get("rttsim.dynamic.excluded", 0),
            counts.get("rttsim.dynamic.excluded", 0) + counts.get("rttsim.dynamic.included", 0)),
        "tracing.overhead_ratio": ratio(
            float(np.median([p.pipeline_s for p in traced])), e2e.get("pipeline_s", 0.0)),
    }
    values = {}
    for name in layer_names:
        if name in derived:
            values[name] = derived[name]
        elif name.startswith("cli.") and name.endswith(".out_bytes"):
            values[name] = out_bytes.get(name[4:-len(".out_bytes")], 0)
        elif name.endswith(".s"):
            values[name] = float(np.median([s.get(name[:-2], 0.0) for s in selfs]))
        else:
            values[name] = counts.get(name, 0)
    return values


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown: not a git checkout"
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown: {exc}"
    return proc.stdout.strip() or "unknown"


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None) -> dict:
    """One run of one workload; returns the record that ``main`` prints."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    run_dir = root / WORK_DIR / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[name](run_dir, seed, **(sizes or {}))
        passes, run_id = measure(root, workload, run_dir, seconds, trace)
        sc = score(workload, passes)
        setup = [p for p in passes[1:] if p.setup_s is not None]
        e2e, samples = end_to_end(workload, setup, sc)
        declared = spec["per_layer"] if trace else spec["end_to_end"]
        layers = per_layer(sc, e2e, [m["name"] for m in spec["per_layer"]])
        source = layers if trace else e2e
        metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                   for m in declared if m["name"] in source}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env = next((p.env for p in passes if p.env), {})
    return {
        "workload": name,
        "env": dict(env, commit=git_commit(root), seed=seed, seconds=seconds,
                    trace=int(trace), sizes=workload.sizes, passes=len(passes),
                    timed_passes=len(sc.timed), run_id=run_id),
        "units": dict({m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]},
                      failed_ratio="ratio", setup_wall_s="s", pipeline_wall_s="s", host_s="s",
                      **{f"{s.name}_s": "s" for s in workload.stages}),
        "e2e": e2e,
        "samples": samples,
        "layers": layers,
        "problems": sc.problems,
        "spans": [dict(s, span_pass=p.index) for p in sc.timed if p.traced for s in p.spans],
        "result": {
            "correct": sc.failed == 0 and len(metrics) == len(declared),
            "attempted": sc.attempted,
            "failed": sc.failed,
            "metrics": metrics,
        },
    }


def report(record: dict) -> None:
    """Human-readable lines; the JSON result line is printed by ``main``."""
    name = record["workload"]
    print(f"{name} env {json.dumps(record['env'], sort_keys=True)}")
    for metric, value in record["e2e"].items():
        samples = record["samples"].get(metric)
        unit = record["units"][metric]
        line = f"{name} {metric} {value:.6g} {unit}"
        if samples:
            line += f" (median of n={len(samples)}"
            beyond = [p for p in TAIL_PERCENTILES if len(samples) * (100 - p) / 100 >= 10]
            if beyond:
                line += f", p{beyond[0]} {np.percentile(samples, beyond[0]):.6g} {unit}"
            line += ")"
        print(line)
    for metric, value in record["layers"].items():
        print(f"{name} {metric} {value:.6g} {record['units'][metric]}")
    for stage, items in record["problems"].items():
        for item in items[:PRINTED_PROBLEMS]:
            print(f"{name} FAILED {stage}: {item}")
        if len(items) > PRINTED_PROBLEMS:
            print(f"{name} FAILED {stage}: {len(items) - PRINTED_PROBLEMS} more in the results file")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)}")
    results = ROOT / WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    correct = True
    for name in names:
        record = run_workload(ROOT, name, args.seed, args.seconds, bool(args.trace))
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
        report(record)
        print(json.dumps(record["result"]), flush=True)
        correct &= record["result"]["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
