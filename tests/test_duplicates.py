"""The one duplicate rule of every hand-off reader and constructor.

``trace.first_repeat`` names the first key that occurs earlier and that
key's first position.  A matrix, selection or probe file holding one key
two to four times, its rows in any order and a repeat perhaps written
another way, is refused at the key's second line, naming its first.
"""

import ipaddress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixcast import dynamism, selectors
from prefixcast.rttsim import load_probe_log, save_probe_log
from prefixcast.trace import (
    HourlyTraceMatrix,
    Prefix,
    TimeGrid,
    first_repeat,
    load_matrix,
    save_matrix,
    synthetic_prefix,
)
from scalar_oracles import probe_log


def scalar_first_repeat(keys):
    """The definition, one key at a time against all earlier ones."""
    return next(((i, keys.index(key)) for i, key in enumerate(keys) if key in keys[:i]), None)


@pytest.mark.parametrize("keys, repeat", [
    ([], None),
    ([3, 1, 2], None),
    ([1, 2, 1, 2], (2, 0)),
    (["b", "a", "a", "b"], (2, 1)),
    ([(0, 1), (1, 0), (0, 1)], (2, 0)),
    ([7, 7, 7], (1, 0)),
])
def test_first_repeat_examples(keys, repeat):
    assert first_repeat(keys) == repeat


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(st.integers(0, 6), max_size=12))
def test_first_repeat_is_the_scalar_definition(keys):
    assert first_repeat(keys) == scalar_first_repeat(keys)
    assert first_repeat(iter(keys)) == first_repeat(np.array(keys, np.int64).tolist())


def netmask(row: str, field: int) -> str:
    """``row`` with its prefix field written with a netmask: the same prefix."""
    fields = row.split(",")
    fields[field] = ipaddress.ip_network(fields[field]).with_netmask
    return ",".join(fields)


@st.composite
def repeated(draw, rows: list[str], field: int):
    """``rows``, whose keys all differ, in a drawn order, with one of them
    written 2-4 times in all at drawn places, each added copy perhaps with a
    netmask; and the 0-based places of that key's first and second rows."""
    rows = draw(st.permutations(rows))
    k = draw(st.integers(0, len(rows) - 1))
    marked = [(row, i == k) for i, row in enumerate(rows)]
    for _ in range(draw(st.integers(1, 3))):
        copy = netmask(rows[k], field) if draw(st.booleans()) else rows[k]
        marked.insert(draw(st.integers(0, len(marked))), (copy, True))
    first, second = [pos for pos, (_, mine) in enumerate(marked) if mine][:2]
    return [row for row, _ in marked], first, second


def rewrite(path, rows: list[str]) -> None:
    """Keep ``path``'s header line and write ``rows`` below it."""
    header = path.read_text().split("\n", 1)[0]
    path.write_text("\n".join([header, *rows]) + "\n")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), bins=st.integers(1, 4))
def test_matrix_refuses_the_first_repeated_prefix(tmp_path_factory, data, n, bins):
    path = tmp_path_factory.mktemp("matrix") / "m.csv"
    values = np.arange(1, n * bins + 1).reshape(n, bins)
    prefixes = [synthetic_prefix(k + 1) for k in range(n)]
    save_matrix(HourlyTraceMatrix(TimeGrid(0, bins), prefixes, values), path)
    rows, first, second = data.draw(repeated(path.read_text().splitlines()[1:], 0))
    rewrite(path, rows)
    prefix = Prefix.parse(rows[second].split(",")[0])
    with pytest.raises(ValueError) as info:
        load_matrix(path)
    assert str(info.value) == (f"{path}: line {second + 2}: duplicate row for {prefix}, "
                               f"first on line {first + 2}")


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), bins=st.integers(2, 5), size=st.integers(1, 3),
       seed=st.integers(0, 3))
def test_selection_refuses_the_first_repeated_pick(tmp_path_factory, data, n, bins, size, seed):
    path = tmp_path_factory.mktemp("selection") / "selection.csv"
    values = np.random.default_rng(seed).integers(1, 100, (n, bins))
    m = HourlyTraceMatrix(TimeGrid(0, bins), [synthetic_prefix(k + 1) for k in range(n)], values)
    config = selectors.SelectorConfig("mean_volume", 1, size)
    run = selectors.run_selection(m, dynamism.compute_core_profile(m), config)
    selectors.save_selection(run, path)
    rows, first, second = data.draw(repeated(path.read_text().splitlines()[1:], 2))
    rewrite(path, rows)
    hour, _, prefix = rows[second].split(",")[:3]
    with pytest.raises(ValueError) as info:
        selectors.load_selection(path, m, run.threshold)
    assert str(info.value) == (f"{path}: line {second + 2}: duplicate prefix "
                               f"{Prefix.parse(prefix)} in hour {hour}, first on line {first + 2}")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), ticks=st.integers(1, 3), prefixes=st.integers(1, 3),
       transits=st.integers(1, 2), lost=st.booleans())
def test_probe_log_refuses_the_first_repeated_sample(tmp_path_factory, data, ticks, prefixes,
                                                     transits, lost):
    path = tmp_path_factory.mktemp("probes") / "probes.csv"
    samples = [(tick, synthetic_prefix(p + 1), f"T{t + 1}", None if lost else 10.0 + tick)
               for tick in range(ticks) for p in range(prefixes) for t in range(transits)]
    save_probe_log(probe_log(samples), path)
    rows, first, second = data.draw(repeated(path.read_text().splitlines()[1:], 1))
    rewrite(path, rows)
    tick, prefix, transit = rows[second].split(",")[:3]
    with pytest.raises(ValueError) as info:
        load_probe_log(path)
    assert str(info.value) == (f"{path}: line {second + 2}: duplicate sample for "
                               f"{(int(tick), Prefix.parse(prefix), transit)}, "
                               f"first on line {first + 2}")


def test_matrix_constructor_names_the_first_repeat_in_its_input():
    """Not the repeated prefix that sorts first: 10.0.1.0/24 repeats first."""
    a, b = synthetic_prefix(1), synthetic_prefix(2)
    with pytest.raises(ValueError, match=r"^duplicate row for 10\.0\.1\.0/24$"):
        HourlyTraceMatrix(TimeGrid(0, 1), [b, a, b, a], [[1], [1], [1], [1]])


def test_probe_log_constructor_names_the_first_repeat_in_its_input():
    a, b = synthetic_prefix(1), synthetic_prefix(2)
    with pytest.raises(ValueError, match=r"^duplicate sample for \(0, '10\.0\.1\.0/24', 'T1'\)$"):
        probe_log([(0, b, "T1", 1.0), (0, a, "T1", 1.0), (0, b, "T1", 2.0), (0, a, "T1", 2.0)])
