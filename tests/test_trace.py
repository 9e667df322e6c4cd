"""Trace model: binning, fractions, synthesis, persistence."""

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prefixcast.trace import (
    BurstSpec,
    HourlyTraceMatrix,
    Prefix,
    SyntheticTraceSpec,
    TimeGrid,
    TraceRecord,
    bin_records,
    iter_trace_csv,
    load_matrix,
    save_matrix,
    synthesize_trace,
    synthetic_prefix,
    weekly_volume_fraction,
    zipf_shares,
)

P8 = Prefix.parse("10.0.0.0/8")
P16 = Prefix.parse("10.1.0.0/16")
P24 = Prefix.parse("10.2.3.0/24")


class TestPrefix:
    def test_parse_canonicalizes(self):
        assert Prefix.parse(" 10.0.0.0/8 ") == P8
        assert Prefix.parse("2001:db8::/32").family == 6
        assert P8.family == 4

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0.1/8")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            Prefix.parse("not-a-prefix")

    def test_equality_is_text_equality(self):
        assert Prefix.parse("10.0.0.0/8") == Prefix.parse("10.0.0.0/8")
        assert Prefix.parse("10.0.0.0/8") != Prefix.parse("10.0.0.0/9")

    def test_ordering_by_canonical_text(self):
        ps = sorted([P24, P8, P16])
        assert [p.text for p in ps] == ["10.0.0.0/8", "10.1.0.0/16", "10.2.3.0/24"]

    def test_record_rejects_negative_volume(self):
        with pytest.raises(ValueError):
            TraceRecord(timestamp=0, prefix=P8, volume=-1)


class TestTimeGrid:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            TimeGrid(start=10, bin_seconds=3600, bin_count=168)

    def test_bin_of(self):
        grid = TimeGrid(start=3600, bin_seconds=3600, bin_count=4)
        assert grid.bin_of(3600) == 1
        assert grid.bin_of(3600 + 3 * 3600 + 3599) == 4
        with pytest.raises(ValueError):
            grid.bin_of(3599)
        with pytest.raises(ValueError):
            grid.bin_of(grid.end)

    def test_week_default(self):
        grid = TimeGrid(start=0)
        assert grid.bin_count == 168 and grid.bin_seconds == 3600


class TestBinRecords:
    def test_additivity_same_bin(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=4)
        records = [
            TraceRecord(2 * 3600 + 10, P8, 5),
            TraceRecord(2 * 3600 + 3000, P8, 7),
        ]
        m, _ = bin_records(records, grid)
        assert m.series(P8)[2] == 12  # bin 3

    def test_padding_to_full_week(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=168)
        m, _ = bin_records([TraceRecord(30, P8, 9)], grid)
        s = m.series(P8)
        assert s.shape == (168,)
        assert s[0] == 9 and np.count_nonzero(s) == 1

    def test_totals_are_exact_sums(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        records = [
            TraceRecord(0, P8, 50),
            TraceRecord(1, P16, 30),
            TraceRecord(2, P24, 20),
        ]
        m, _ = bin_records(records, grid)
        assert m.total(1) == 100
        np.testing.assert_array_equal(m.totals, m.values.sum(axis=0))

    def test_raw_rows_parsed_with_policy(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        rows = [
            ("0", "10.0.0.0/8", "5"),
            ("10", "bogus", "7"),          # malformed prefix
            ("-5", "10.0.0.0/8", "3"),     # out of range
            ("20", "10.0.0.0/8", "-1"),    # negative volume
            ("oops", "10.0.0.0/8", "2"),   # malformed timestamp
        ]
        m, summary = bin_records(rows, grid)
        assert m.series(P8).sum() == 5
        assert summary.records_read == 5
        assert summary.records_binned == 1
        assert summary.rejected_malformed == 3
        assert summary.rejected_out_of_range == 1

    def test_abort_policy_raises(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        with pytest.raises(ValueError):
            bin_records([("0", "bogus", "5")], grid, errors="raise")

    def test_volume_beyond_int64_is_malformed(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        rows = [("0", "10.0.0.0/8", "5"), ("0", "10.0.0.0/8", str(2**63))]
        m, summary = bin_records(rows, grid)
        assert m.series(P8).tolist() == [5, 0]
        assert summary.rejected_malformed == 1
        assert summary.bytes_rejected == 2**63
        with pytest.raises(ValueError, match="malformed.*int64"):
            bin_records(rows, grid, errors="raise")

    @pytest.mark.parametrize("errors", ["count", "raise"])
    def test_binned_total_beyond_int64_raises(self, errors):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        big = str(9_220_000_000_000_000_000)
        rows = [("0", "10.0.0.0/8", big), ("1", "10.0.0.0/8", big)]
        with pytest.raises(ValueError, match="record 2, beyond the int64 range"):
            bin_records(rows, grid, errors=errors)
        records = [TraceRecord(0, P8, 2**62), TraceRecord(3600, P16, 2**62)]
        with pytest.raises(ValueError, match="int64"):
            bin_records(records, grid, errors=errors)

    def test_volume_conservation_exact(self):
        # binned + rejected bytes account for every parseable input byte
        rng = np.random.default_rng(42)
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=24)
        records = []
        for _ in range(500):
            ts = int(rng.integers(-3600, grid.end + 3600))
            pfx = synthetic_prefix(int(rng.integers(1, 20)))
            records.append(TraceRecord(ts, pfx, int(rng.integers(0, 10_000))))
        total_in = sum(r.volume for r in records)
        _, summary = bin_records(records, grid)
        assert summary.bytes_binned + summary.bytes_rejected == total_in
        assert summary.rejected_out_of_range > 0

    def test_all_zero_prefixes_dropped(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        records = [TraceRecord(0, P8, 5), TraceRecord(0, P16, 0)]
        m, _ = bin_records(records, grid)
        assert P8 in m and P16 not in m

    def test_empty_input_errors(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        with pytest.raises(ValueError, match="no active prefixes"):
            bin_records([], grid)


class TestWeeklyVolumeFraction:
    def test_sole_prefix_carries_all(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        m, _ = bin_records([TraceRecord(0, P8, 7)], grid)
        assert weekly_volume_fraction(m, P8) == 1.0

    def test_hand_division(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        m, _ = bin_records(
            [TraceRecord(0, P8, 10), TraceRecord(0, P16, 990)], grid
        )
        assert weekly_volume_fraction(m, P8) == pytest.approx(0.01, abs=1e-15)

    def test_symmetry(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        m, _ = bin_records(
            [TraceRecord(0, P8, 40), TraceRecord(3600, P16, 40)], grid
        )
        assert weekly_volume_fraction(m, P8) == 0.5
        assert weekly_volume_fraction(m, P16) == 0.5

    def test_fractions_sum_to_one(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=24)
        spec = SyntheticTraceSpec(prefix_count=300, noise=0.5, seed=1)
        m = synthesize_trace(spec, grid)
        total = sum(weekly_volume_fraction(m, p) for p in m.prefixes)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestSynthesize:
    def grid(self, bins=24):
        return TimeGrid(start=0, bin_seconds=3600, bin_count=bins)

    def test_single_prefix_carries_everything(self):
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=1, zipf_s=2.0), self.grid())
        shares = m.values / m.totals[None, :]
        np.testing.assert_allclose(shares, 1.0)

    def test_two_prefix_harmonic_shares(self):
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=2, zipf_s=1.0), self.grid())
        r1 = m.series(synthetic_prefix(1)) / m.totals
        r2 = m.series(synthetic_prefix(2)) / m.totals
        np.testing.assert_allclose(r1, 2.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(r2, 1.0 / 3.0, atol=1e-12)

    def test_deterministic_given_seed(self):
        spec = SyntheticTraceSpec(prefix_count=50, noise=0.4, diurnal_amplitude=0.5, seed=9)
        a = synthesize_trace(spec, self.grid())
        b = synthesize_trace(spec, self.grid())
        np.testing.assert_array_equal(a.values, b.values)

    def test_clean_trace_matches_zipf_shares(self):
        n, s = 40, 1.3
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=n, zipf_s=s), self.grid())
        expected = zipf_shares(n, s)
        for k in range(1, n + 1):
            got = m.series(synthetic_prefix(k)) / m.totals
            np.testing.assert_allclose(got, expected[k - 1], atol=1e-12)

    def test_diurnal_modulates_totals_not_shares(self):
        spec = SyntheticTraceSpec(prefix_count=10, diurnal_amplitude=0.8)
        m = synthesize_trace(spec, self.grid())
        assert m.totals.max() > 1.5 * m.totals.min()
        shares = m.values / m.totals[None, :]
        np.testing.assert_allclose(
            shares, np.broadcast_to(shares[:, :1], shares.shape), atol=1e-12
        )

    def test_burst_applies_multiplier(self):
        base = synthesize_trace(SyntheticTraceSpec(prefix_count=5), self.grid())
        spec = SyntheticTraceSpec(prefix_count=5, bursts=(BurstSpec(5, 3, 100.0),))
        m = synthesize_trace(spec, self.grid())
        p = synthetic_prefix(5)
        assert m.series(p)[2] == pytest.approx(100.0 * base.series(p)[2])

    def test_burst_outside_grid_rejected(self):
        spec = SyntheticTraceSpec(prefix_count=5, bursts=(BurstSpec(1, 999, 2.0),))
        with pytest.raises(ValueError):
            synthesize_trace(spec, self.grid())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticTraceSpec(prefix_count=0)
        with pytest.raises(ValueError):
            SyntheticTraceSpec(prefix_count=5, zipf_s=0.0)
        with pytest.raises(ValueError):
            SyntheticTraceSpec(prefix_count=5, diurnal_amplitude=1.0)
        with pytest.raises(ValueError):
            BurstSpec(rank=1, hour=1, multiplier=0.5)


class TestMatrixModel:
    def test_rows_sorted_by_text(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=1)
        m = HourlyTraceMatrix(grid, [P24, P8, P16], [[1], [2], [3]])
        assert [p.text for p in m.prefixes] == ["10.0.0.0/8", "10.1.0.0/16", "10.2.3.0/24"]
        assert m.values[:, 0].tolist() == [2, 3, 1]

    def test_values_read_only(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=1)
        values = np.array([[2]])
        m = HourlyTraceMatrix(grid, [P8], values)
        with pytest.raises(ValueError):
            m.values[0, 0] = 5
        values[0, 0] = 5  # the matrix holds its own copy
        assert m.values[0, 0] == 2

    def test_wrong_length_rejected(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=3)
        with pytest.raises(ValueError, match=r"shape \(1, 2\), expected \(1, 3\)"):
            HourlyTraceMatrix(grid, [P8], [[1, 2]])
        with pytest.raises(ValueError, match=r"shape \(1, 3\), expected \(2, 3\)"):
            HourlyTraceMatrix(grid, [P8, P16], [[1, 2, 3]])

    def test_repeated_prefix_rejected(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        with pytest.raises(ValueError, match=r"duplicate row for 10\.1\.0\.0/16"):
            HourlyTraceMatrix(grid, [P16, P8, Prefix.parse("10.1.0.0/255.255.0.0")],
                              [[1, 0], [2, 2], [0, 0]])

    def test_all_zero_rows_dropped(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        m = HourlyTraceMatrix(grid, [P24, P8, P16], [[0, 0], [1, 0], [0.0, 0.5]])
        assert m.prefixes == (P8, P16)
        assert m.values.dtype == np.float64
        with pytest.raises(ValueError, match="no active prefixes"):
            HourlyTraceMatrix(grid, [P8], [[0, 0]])

    @pytest.mark.parametrize("cell", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_cell_rejected_naming_prefix(self, cell):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=3)
        with pytest.raises(ValueError, match=r"volume in series for 10\.1\.0\.0/16"):
            HourlyTraceMatrix(grid, [P8, P16], [[1.0, 2.0, 3.0], [1.0, cell, 0.0]])

    def test_negative_cell_rejected_naming_prefix(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        with pytest.raises(ValueError, match="negative volume in series for 10.2.3.0/24"):
            HourlyTraceMatrix(grid, [P8, P24], [[1, 2], [3, -1]])

    @pytest.mark.parametrize("series, hour", [
        ([[0, 2**63 - 1], [1, 1]], 2),
        ([[1.0, 1e308, 1.0], [0.0, 1e308, 0.0]], 2),
    ])
    def test_hour_total_beyond_dtype_range_rejected_naming_hour(self, series, hour):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=len(series[0]))
        with pytest.raises(ValueError, match=f"total of hour {hour} exceeds"):
            HourlyTraceMatrix(grid, [P8, P16], series)

    def test_hour_mapping(self):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        m = HourlyTraceMatrix(grid, [P8, P16], [[5, 0], [1, 2]])
        assert m.hour(1) == {P8: 5, P16: 1}


class TestCsvInterfaces:
    def test_trace_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ts,pfx,vol\n0,10.0.0.0/8,5\n")
        with pytest.raises(ValueError, match="header"):
            list(iter_trace_csv(path))

    def test_trace_csv_roundtrip_through_binning(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(
            "timestamp,prefix,bytes\n"
            "0,10.0.0.0/8,50\n"
            "10,10.1.0.0/16,30\n"
            "3700,10.0.0.0/8,7\n"
        )
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        m, summary = bin_records(iter_trace_csv(path), grid)
        assert summary.records_binned == 3
        assert m.total(1) == 80 and m.total(2) == 7

    def test_matrix_roundtrip_int(self, tmp_path):
        grid = TimeGrid(start=7200, bin_seconds=3600, bin_count=3)
        m = HourlyTraceMatrix(grid, [P8, P16], [[1, 0, 3], [0, 2, 0]])
        save_matrix(m, tmp_path / "m.csv")
        back = load_matrix(tmp_path / "m.csv")
        assert back.grid == m.grid
        assert back.prefixes == m.prefixes
        np.testing.assert_array_equal(back.values, m.values)
        assert back.values.dtype == np.int64

    def test_unparsable_int_cell_names_prefix(self, tmp_path):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        save_matrix(HourlyTraceMatrix(grid, [P8, P16], [[1, 0], [0, 2]]), tmp_path / "m.csv")
        text = (tmp_path / "m.csv").read_text().replace("10.1.0.0/16,0,2", "10.1.0.0/16,nan,2")
        (tmp_path / "m.csv").write_text(text)
        with pytest.raises(ValueError, match="10.1.0.0/16"):
            load_matrix(tmp_path / "m.csv")

    @pytest.mark.parametrize("cell", ["1_000", "9223372036854775808", "1.0", "0x10"])
    def test_int_cell_not_plain_int64_names_prefix(self, tmp_path, cell):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        save_matrix(HourlyTraceMatrix(grid, [P8, P16], [[1, 0], [0, 2]]), tmp_path / "m.csv")
        text = (tmp_path / "m.csv").read_text().replace("10.1.0.0/16,0,2", f"10.1.0.0/16,{cell},2")
        (tmp_path / "m.csv").write_text(text)
        with pytest.raises(ValueError, match=r"bad row for '10\.1\.0\.0/16'"):
            load_matrix(tmp_path / "m.csv")

    def test_duplicate_prefix_row_names_prefix(self, tmp_path):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=2)
        save_matrix(HourlyTraceMatrix(grid, [P8, P16], [[5, 5], [0, 2]]), tmp_path / "m.csv")
        with open(tmp_path / "m.csv", "a") as fh:
            fh.write("10.0.0.0/255.0.0.0,1,1\n")  # 10.0.0.0/8 again, written another way
        with pytest.raises(ValueError, match=r"duplicate row for 10\.0\.0\.0/8"):
            load_matrix(tmp_path / "m.csv")

    def test_matrix_roundtrip_float(self, tmp_path):
        grid = TimeGrid(start=0, bin_seconds=3600, bin_count=12)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=17, noise=0.7, seed=3), grid)
        save_matrix(m, tmp_path / "m.csv")
        back = load_matrix(tmp_path / "m.csv")
        np.testing.assert_array_equal(back.values, m.values)  # repr round-trips exactly


INT64_MAX = 2**63 - 1


@st.composite
def int_matrices(draw):
    """Int matrices with cells up to 2^63 - 1 and every hourly total in range."""
    rows, bins = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    values = np.zeros((rows, bins), dtype=np.int64)
    for h in range(bins):
        room = INT64_MAX
        for i in draw(st.permutations(range(rows))):
            values[i, h] = draw(st.integers(0, room))
            room -= int(values[i, h])
    assume(values.any())
    return values


# huge finite cells, but no hourly total beyond the float64 range
FLOAT_CELLS = st.floats(min_value=0.0, max_value=sys.float_info.max / 5, allow_subnormal=True)


@st.composite
def float_matrices(draw):
    rows, bins = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    cells = draw(st.lists(FLOAT_CELLS, min_size=rows * bins, max_size=rows * bins))
    values = np.array(cells, dtype=np.float64).reshape(rows, bins)
    assume(values.any())
    return values


def assert_exact_matrix_roundtrip(tmp_path_factory, values):
    grid = TimeGrid(start=3600 * 5, bin_seconds=3600, bin_count=values.shape[1])
    m = HourlyTraceMatrix(grid, [synthetic_prefix(k + 1) for k in range(len(values))], values)
    path = tmp_path_factory.mktemp("matrix") / "m.csv"
    save_matrix(m, path)
    back = load_matrix(path)
    assert (back.grid, back.prefixes) == (m.grid, m.prefixes)
    assert back.values.dtype == m.values.dtype
    assert back.values.tobytes() == m.values.tobytes()  # bit for bit
    text = path.read_bytes()
    save_matrix(back, path)
    assert path.read_bytes() == text


@settings(max_examples=150, deadline=None)
@given(values=int_matrices())
def test_int_matrix_csv_roundtrip_is_exact(tmp_path_factory, values):
    assert_exact_matrix_roundtrip(tmp_path_factory, values)


@settings(max_examples=150, deadline=None)
@given(values=float_matrices())
def test_float_matrix_csv_roundtrip_is_exact(tmp_path_factory, values):
    assert_exact_matrix_roundtrip(tmp_path_factory, values)


CONSERVATION_GRID = TimeGrid(start=3600, bin_seconds=3600, bin_count=3)

# one prefix written two ways, an IPv6 one, and two that do not parse
RAW_PREFIXES = ["10.0.0.0/8", "10.0.0.0/255.0.0.0", "10.1.0.0/16", "2001:db8::/32",
                "bogus", "10.0.0.1/8"]

RAW_ROWS = st.tuples(
    st.one_of(st.integers(0, 5 * 3600).map(str), st.just("soon")),
    st.sampled_from(RAW_PREFIXES),
    st.one_of(
        st.integers(0, 2**40),
        st.integers(-(2**40), -1),
        st.integers(2**63, 2**70),
    ).map(str) | st.sampled_from(["", "1.5", "lots"]),
) | st.sampled_from([("0", "10.0.0.0/8"), ("3600", "10.0.0.0/8", "5", "x")])


def parsed_volume(row):
    """The row's volume if ``bin_records`` can read one, else None."""
    try:
        return int(row[2]) if len(row) == 3 else None
    except ValueError:
        return None


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(RAW_ROWS, max_size=40))
def test_bin_records_conserves_bytes(rows):
    grid = CONSERVATION_GRID
    expected: dict[str, list[int]] = {}
    for row in rows:
        volume = parsed_volume(row)
        try:
            ts, prefix = int(row[0]), Prefix.parse(row[1])
        except (ValueError, IndexError):
            continue
        if volume is not None and 0 <= volume < 2**63 and grid.start <= ts < grid.end:
            cells = expected.setdefault(prefix.text, [0] * grid.bin_count)
            cells[(ts - grid.start) // grid.bin_seconds] += volume
    expected = {text: cells for text, cells in expected.items() if any(cells)}
    if not expected:
        with pytest.raises(ValueError, match="no active prefixes"):
            bin_records(rows, grid)
        return

    m, summary = bin_records(rows, grid)
    parseable = [v for v in map(parsed_volume, rows) if v is not None]
    assert summary.bytes_binned + summary.bytes_rejected == sum(parseable)
    assert int(m.values.sum()) == summary.bytes_binned
    assert {p.text: row.tolist() for p, row in zip(m.prefixes, m.values)} == expected


class TestZipfShares:
    def test_normalized(self):
        shares = zipf_shares(1000, 0.8)
        assert shares.sum() == pytest.approx(1.0, abs=1e-12)
        assert (np.diff(shares) <= 0).all()

    def test_two_elements_s1(self):
        np.testing.assert_allclose(zipf_shares(2, 1.0), [2 / 3, 1 / 3])
