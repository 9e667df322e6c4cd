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
