"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_selftest.py
"""

import dataclasses
import json

import pytest

import run
import tracing
import workloads
from workloads import Stage

TINY = {
    "week-report": {"prefixes": 20},
    "week-ingest": {"prefixes": 150, "records": 3000},
    "probe-day": {"prefixes": 4},
}
STAGES = {"week-report": 3, "week-ingest": 4, "probe-day": 2}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_runs_end_to_end(name):
    record = run.run_workload(run.ROOT, name, seed=7, seconds=0, trace=False, sizes=TINY[name])
    result = record["result"]
    assert record["problems"] == {}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == record["env"]["passes"] * STAGES[name]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_times_every_layer_the_workload_exercises(name, tmp_path):
    record = run.run_workload(run.ROOT, name, seed=7, seconds=0, trace=True, sizes=TINY[name])
    result = record["result"]
    assert record["problems"] == {}
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    workload = workloads.WORKLOADS[name](tmp_path, 7, **TINY[name])
    timed = [n for n in workload.traced if f"{n}.s" in metrics]
    assert timed and all(metrics[f"{n}.s"] > 0 for n in timed)


def test_missing_span_fails_the_traced_pass(tmp_path):
    workload = workloads.probe_day(tmp_path, 7, **TINY["probe-day"])
    passes, _ = run.measure(run.ROOT, workload, tmp_path, seconds=0, trace=True)
    assert run.score(workload, passes).failed == 0
    traced = [p for p in passes if p.traced]
    for p in traced:
        p.spans = [s for s in p.spans if s["name"] != "rttsim.rank_transits"]
    sc = run.score(workload, passes)
    assert sc.failed == len(traced) * len(workload.stages)
    assert "rttsim.rank_transits" in sc.problems["tracing"][0]
    assert not any(p.traced for p in sc.timed)


def test_traced_run_shows_the_double_np_computation():
    record = run.run_workload(run.ROOT, "probe-day", seed=7, seconds=0, trace=True,
                              sizes=TINY["probe-day"])
    result = record["result"]
    # traced and untraced passes wrote byte-identical outputs, and the
    # traced passes' counts agree, or stages would count as failed
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["rttsim.np_series.calls"] == 2 * workloads.PROBE_TRANSITS
    assert metrics["rttsim.simulate_dynamic_selection.calls"] == 2
    assert metrics["rttsim.load_probe_log.s"] > 0
    assert metrics["tracing.overhead_ratio"] > 0
    traced = [s for s in record["spans"] if s["name"] == "rttsim.np_series"]
    parents = {s["id"]: s["name"] for s in record["spans"]}
    assert {parents[s["parent"]] for s in traced} == {"cli.simulate", "rttsim.rank_transits"}
    assert len({s["run"] for s in record["spans"]}) == 1


def test_tracer_restores_module_attributes():
    from prefixcast import dynamism, evaluation, rttsim, selectors, trace

    modules = (trace, dynamism, selectors, evaluation, rttsim)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer("selftest")
    tracing.install(tracer)
    assert rttsim.np_series is not before[4]["np_series"]
    tracer.restore()
    for module, saved in zip(modules, before):
        assert all(vars(module)[k] is v for k, v in saved.items())


def _measured(tmp_path, workload):
    passes, _ = run.measure(run.ROOT, workload, tmp_path, seconds=0, trace=False)
    return passes


def test_corrupted_coverage_cell_counts_as_failed(tmp_path):
    workload = workloads.week_ingest(tmp_path, 7, **TINY["week-ingest"])
    passes = _measured(tmp_path, workload)
    assert run.score(workload, passes).failed == 0
    for p in passes:
        path = p.directory / "evaluate" / "report_mean_volume_L24.csv"
        lines = path.read_text().splitlines(keepends=True)
        hour, coverage, churn = lines[40].rstrip("\n").split(",")
        lines[40] = f"{hour},{float(coverage) * 0.5!r},{churn}\n"
        path.write_text("".join(lines))
        stage = next(s for s in p.stages if s["name"] == "evaluate")
        stage["digest"], _ = run.checks.digest(p.directory / "evaluate")
    sc = run.score(workload, passes)
    assert sc.failed == len(passes)
    assert list(sc.problems) == ["evaluate"]
    assert sc.timed == []


def test_stage_exiting_2_is_failed_and_never_timed(tmp_path):
    workload = workloads.probe_day(tmp_path, 7, **TINY["probe-day"])
    broken = Stage("simulate", ("simulate", "--probes", "missing.csv", "--out", "simulate"))
    workload = dataclasses.replace(workload, stages=(workload.stages[0], broken))
    passes = _measured(tmp_path, workload)
    assert all(p.stages[1]["rc"] == 2 for p in passes)
    sc = run.score(workload, passes)
    # with no complete pass, probe-synth's outputs cannot be checked either
    assert sc.failed == sc.attempted == 2 * len(passes)
    assert "exit 2" in sc.problems["simulate"][0]
    assert sc.timed == []
    e2e, samples = run.end_to_end(workload, passes, sc)
    assert "pipeline_s" not in e2e and "simulate_s" not in samples
    assert e2e["failed_ratio"] == 1.0
