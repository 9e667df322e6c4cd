"""Metamorphic relations of the CLI pipeline: two runs whose inputs differ
in a known way must give outputs related in a known way, so no oracle for
either output is needed (T. Y. Chen, S. C. Cheung & S. M. Yiu,
"Metamorphic Testing: A New Approach for Generating Next Test Cases",
HKUST-CS98-01, 1998)."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prefixcast.cli import main
from prefixcast.trace import HourlyTraceMatrix, TimeGrid, save_matrix, synthetic_prefix


def outputs(directory: Path) -> dict[str, bytes]:
    """Every file a stage wrote in ``directory``, by name."""
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def shuffle_rows(source: Path, target: Path, rng: np.random.Generator) -> None:
    """``source``'s lines below the header, in a random order, at ``target``."""
    header, *body = source.read_text().splitlines(keepends=True)
    target.write_text(header + "".join(body[i] for i in rng.permutation(len(body))))


@pytest.fixture(scope="module")
def week(tmp_path_factory) -> Path:
    """A synthetic 60-prefix, 48-hour matrix and its sixteen grid selections."""
    directory = tmp_path_factory.mktemp("week")
    assert main(["synth", "--prefixes", "60", "--bins", "48", "--noise", "0.5",
                 "--diurnal", "0.3", "--seed", "7", "--out", str(directory)]) == 0
    assert main(["select", "--matrix", f"{directory}/matrix.csv", "--grid",
                 "--out", f"{directory}/grid"]) == 0
    return directory


@pytest.mark.parametrize("seed", [1, 2])
def test_evaluate_ignores_the_order_of_selection_rows(week, tmp_path, seed):
    matrix = f"{week}/matrix.csv"
    assert main(["evaluate", "--matrix", matrix, "--select-dir", f"{week}/grid",
                 "--out", f"{tmp_path}/plain"]) == 0
    rng = np.random.default_rng(seed)
    (tmp_path / "grid").mkdir()
    for path in sorted((week / "grid").glob("selection_*.csv")):
        shuffle_rows(path, tmp_path / "grid" / path.name, rng)
    assert outputs(tmp_path / "grid") != outputs(week / "grid")
    assert main(["evaluate", "--matrix", matrix, "--select-dir", f"{tmp_path}/grid",
                 "--out", f"{tmp_path}/shuffled"]) == 0
    assert outputs(tmp_path / "shuffled") == outputs(tmp_path / "plain")


@pytest.mark.parametrize("stage", [["analyze"], ["report", "--size", "8"]])
def test_analyze_and_report_ignore_the_order_of_matrix_rows(week, tmp_path, stage):
    shuffled = tmp_path / "matrix"
    shuffled.mkdir()
    (shuffled / "matrix.json").write_bytes((week / "matrix.json").read_bytes())
    shuffle_rows(week / "matrix.csv", shuffled / "matrix.csv", np.random.default_rng(3))
    assert (shuffled / "matrix.csv").read_bytes() != (week / "matrix.csv").read_bytes()
    for name, matrix in (("plain", week), ("shuffled", shuffled)):
        assert main([stage[0], "--matrix", f"{matrix}/matrix.csv", *stage[1:],
                     "--out", f"{tmp_path}/{name}"]) == 0
    assert outputs(tmp_path / "shuffled") == outputs(tmp_path / "plain")


@st.composite
def tied_weeks(draw) -> np.ndarray:
    """Small int matrices of a few distinct volumes, so scores tie, with
    some hours of no traffic at all."""
    rows, bins = draw(st.integers(1, 6)), draw(st.integers(2, 30))
    cells = st.lists(st.sampled_from([0, 0, 1, 2, 7, 1000]), min_size=rows * bins,
                     max_size=rows * bins)
    values = np.array(draw(cells), dtype=np.int64).reshape(rows, bins)
    values[:, sorted(draw(st.sets(st.integers(0, bins - 1), max_size=bins // 2)))] = 0
    assume(values.any())  # a matrix holds at least one active prefix
    return values


@settings(max_examples=40, deadline=None)
@given(values=tied_weeks(), size=st.integers(1, 4))
def test_select_and_evaluate_agree_with_report(tmp_path_factory, values, size):
    """``select --grid`` then ``evaluate`` gives ``report``'s summary, less
    the GM(1,1) fallback count that no selection file carries.  A run that
    picked nothing writes a header-only file, which ``evaluate`` cannot
    read yet (the strict xfail
    ``test_cli.py::TestSelectEvaluate::test_evaluate_reads_a_grid_run_that_picked_nothing``);
    for such a run, ``report`` must count every hour as a shortfall."""
    directory = tmp_path_factory.mktemp("tied")
    matrix = directory / "matrix.csv"
    save_matrix(HourlyTraceMatrix(TimeGrid(start=0, bin_count=values.shape[1]),
                                  [synthetic_prefix(k + 1) for k in range(len(values))], values),
                matrix)
    assert main(["report", "--matrix", str(matrix), "--size", str(size),
                 "--out", f"{directory}/report"]) == 0
    reported = json.loads((directory / "report" / "grid_summary.json").read_text())
    assert main(["select", "--matrix", str(matrix), "--grid", "--size", str(size),
                 "--out", f"{directory}/select"]) == 0
    handed, empty = [], []
    for path in sorted((directory / "select").glob("selection_*.csv")):
        method, window = path.stem.removeprefix("selection_").rsplit("_L", 1)
        key = f"{method}:L{window}:K{size}"
        (handed if path.read_text().count("\n") > 1 else empty).append((key, path))
    evaluated = {}
    if handed:
        assert main(["evaluate", "--matrix", str(matrix),
                     *(arg for _, path in handed for arg in ("--selection", str(path))),
                     "--out", f"{directory}/evaluate"]) == 0
        evaluated = json.loads((directory / "evaluate" / "evaluation_summary.json").read_text())
    assert evaluated == {key: {k: v for k, v in reported[key].items() if k != "gm11_fallbacks"}
                         for key, _ in handed}
    assert len(handed) + len(empty) == len(reported) == 16
    for key, _ in empty:
        assert reported[key]["shortfall_hours"] == values.shape[1] - 1


FLOW_PREFIXES = ["10.0.0.0/8", "10.1.0.0/16", "192.0.2.0/24", "2001:db8::/32"]


@st.composite
def flow_records(draw) -> list[tuple[int, str, int]]:
    """A few well-formed flow records over four hours, some with zero
    bytes, at least one with more."""
    records = draw(st.lists(st.tuples(st.integers(0, 4 * 3600 - 1), st.sampled_from(FLOW_PREFIXES),
                                      st.integers(0, 1000)), min_size=1, max_size=12))
    assume(any(volume for _, _, volume in records))
    return records


@settings(max_examples=30, deadline=None)
@given(records=flow_records(), data=st.data())
def test_splitting_a_flow_record_changes_only_the_record_counts(tmp_path_factory, records, data):
    """One record split into two of the same timestamp and prefix, whose
    bytes sum to its own, gives the same matrix and sidecar bytes; in
    ``ingest.json`` only ``records_read`` and ``records_binned`` grow, by
    one each."""
    i = data.draw(st.integers(0, len(records) - 1))
    timestamp, prefix, volume = records[i]
    part = data.draw(st.integers(0, volume))
    split = [*records[:i], (timestamp, prefix, part), (timestamp, prefix, volume - part),
             *records[i + 1:]]
    directory = tmp_path_factory.mktemp("split")
    for name, rows in (("whole", records), ("split", split)):
        flows = directory / f"{name}.csv"
        flows.write_text("timestamp,prefix,bytes\n" + "".join(f"{t},{p},{b}\n" for t, p, b in rows))
        assert main(["ingest", str(flows), "--out", str(directory / name)]) == 0
    whole, parts = outputs(directory / "whole"), outputs(directory / "split")
    assert parts.keys() == whole.keys() == {"matrix.csv", "matrix.json", "ingest.json"}
    assert (parts["matrix.csv"], parts["matrix.json"]) == (whole["matrix.csv"], whole["matrix.json"])
    summary = json.loads(whole["ingest.json"])
    summary["records_read"] += 1
    summary["records_binned"] += 1
    assert json.loads(parts["ingest.json"]) == summary


def relabel(prefix: str) -> str:
    """``10.a.b.0/24`` as ``11.a.b.0/24``: prefixes that all start ``10.``
    keep their text order."""
    return "11" + prefix.removeprefix("10")


@settings(max_examples=15, deadline=None)
@given(values=tied_weeks(), size=st.integers(1, 4), data=st.data())
def test_an_order_preserving_relabelling_gives_the_same_picks(tmp_path_factory, values, size,
                                                              data):
    """Every selection file of the relabelled matrix holds the same rows,
    each under its prefix's new label, and ``evaluate`` of the two gives
    byte-identical reports and summary."""
    ranks = data.draw(st.lists(st.integers(1, 4096), min_size=len(values), max_size=len(values),
                               unique=True))
    prefixes = [synthetic_prefix(rank) for rank in ranks]  # 10.a.b.0/24, in no text order
    directory = tmp_path_factory.mktemp("relabel")
    grid = TimeGrid(start=0, bin_count=values.shape[1])
    for name, labels in (("plain", prefixes), ("relabelled", list(map(relabel, prefixes)))):
        save_matrix(HourlyTraceMatrix(grid, labels, values), directory / f"{name}.csv")
        assert main(["select", "--matrix", f"{directory}/{name}.csv", "--grid", "--size",
                     str(size), "--out", f"{directory}/{name}"]) == 0
    plain, relabelled = outputs(directory / "plain"), outputs(directory / "relabelled")
    assert plain.keys() == relabelled.keys()
    for name, text in plain.items():
        rows = [line.split(",") for line in text.decode().splitlines()]
        for row in rows[1:]:
            row[2] = relabel(row[2])
        assert relabelled[name].decode().splitlines() == [",".join(row) for row in rows], name
    handed = sorted(name for name, text in plain.items() if text.count(b"\n") > 1)
    if not handed:  # a run that picked nothing cannot be handed off yet
        return
    for name in ("plain", "relabelled"):
        assert main(["evaluate", "--matrix", f"{directory}/{name}.csv",
                     *(arg for file in handed for arg in ("--selection", f"{directory}/{name}/{file}")),
                     "--out", f"{directory}/{name}-evaluate"]) == 0
    assert outputs(directory / "relabelled-evaluate") == outputs(directory / "plain-evaluate")


@settings(max_examples=20, deadline=None)
@given(shape=st.tuples(st.integers(2, 6), st.integers(1, 3), st.integers(2, 4)),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_swapping_two_transit_labels_only_permutes_np_rows(tmp_path_factory, shape, seed, data):
    """A probe log (with no sidecar) whose transit labels ``a`` and ``b``
    trade places gives ``np.csv``'s rows, each with ``a`` and ``b``
    traded, in another order, and ``np_summary.json`` with the two keys
    traded.  It holds because RTTs are drawn from a continuous range, so
    none tie, and every prefix keeps a sample on some transit in every
    round, so the dynamic transit never picks at random.  Mean NPs can
    still tie (a transit that is best in every round has mean 1, and so
    has the dynamic transit), and tied transits rank by label, so the
    traded ``order`` is the plain one traded and then ranked again."""
    ticks, prefixes, transits = shape
    rng = np.random.default_rng(seed)
    rtt = rng.uniform(5.0, 100.0, shape)
    lost = rng.random(shape) < 0.3
    np.put_along_axis(lost, rng.integers(transits, size=(ticks, prefixes, 1)), False, axis=2)
    labels = [f"T{t + 1}" for t in range(transits)]
    a, b = data.draw(st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True))
    trade = {a: b, b: a}
    directory = tmp_path_factory.mktemp("transits")
    for name, names in (("plain", labels), ("traded", [trade.get(t, t) for t in labels])):
        lines = [f"{tick},{synthetic_prefix(p + 1)},{names[t]},"
                 f"{'' if lost[tick, p, t] else repr(float(rtt[tick, p, t]))}\n"
                 for tick in range(ticks) for p in range(prefixes) for t in range(transits)]
        (directory / f"{name}.csv").write_text("tick,prefix,transit,rtt_ms\n" + "".join(lines))
        assert main(["simulate", "--probes", f"{directory}/{name}.csv",
                     "--out", f"{directory}/{name}"]) == 0
    plain, traded = outputs(directory / "plain"), outputs(directory / "traded")
    header, *rows = plain["np.csv"].decode().splitlines()
    traded_header, *traded_rows = traded["np.csv"].decode().splitlines()
    untraded = []
    for row in traded_rows:
        tick, transit, rest = row.split(",", 2)
        untraded.append(f"{tick},{trade.get(transit, transit)},{rest}")
    assert traded_header == header and sorted(untraded) == sorted(rows)
    summary = json.loads(plain["np_summary.json"])
    summary["transits"] = {trade.get(t, t): s for t, s in summary["transits"].items()}
    # the plain order, traded, is already ranked by mean; a stable sort moves only tied labels
    summary["order"] = sorted((trade.get(t, t) for t in summary["order"]),
                              key=lambda t: (summary["transits"][t]["mean"], t))
    assert json.loads(traded["np_summary.json"]) == summary
