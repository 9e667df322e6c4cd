"""Trace model: binning, fractions, synthesis, persistence."""

import ipaddress
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prefixcast import trace
from prefixcast.trace import (
    BurstSpec,
    HourlyTraceMatrix,
    Prefix,
    SyntheticTraceSpec,
    TimeGrid,
    bin_records,
    iter_trace_csv,
    load_matrix,
    save_matrix,
    synthesize_trace,
    synthetic_prefix,
    zipf_shares,
)
from prefixcast.dynamism import prefix_shares_and_cv
import scalar_oracles
from scalar_oracles import csv_text

P8 = Prefix.parse("10.0.0.0/8")
P16 = Prefix.parse("10.1.0.0/16")
P24 = Prefix.parse("10.2.3.0/24")


def flow_csv(path, rows):
    """A flow CSV at ``path``: the header, then each row's fields joined
    by commas, one line each."""
    lines = "".join(",".join(map(str, row)) + "\n" for row in rows)
    path.write_text("timestamp,prefix,bytes\n" + lines)
    return path


def bin_rows(directory, rows, grid, errors="count"):
    """``bin_records`` over the flow CSV of ``rows``, written in ``directory``."""
    return bin_records(iter_trace_csv(flow_csv(directory / "flows.csv", rows)), grid, errors)


class TestPrefix:
    def test_parse_canonicalizes(self):
        assert Prefix.parse(" 10.0.0.0/8 ") == P8
        assert Prefix.parse("2001:DB8::/32") == Prefix("2001:db8::/32")

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


def parses_as_ipaddress(text):
    """``Prefix.parse`` gives what ``ipaddress`` gives, or both refuse."""
    try:
        net = ipaddress.ip_network(text.strip(), strict=True)
    except ValueError:
        with pytest.raises(ValueError):
            Prefix.parse(text)
        return
    assert Prefix.parse(text) == Prefix(str(net))


# dotted quads with octets past 255, leading zeros and non-ASCII digits,
# lengths past 32, surrounding space, IPv6 and garbage
OCTET_TEXTS = (st.integers(0, 300).map(str) | st.integers(0, 300).map("0{}".format)
               | st.sampled_from(["١", "٢٥٥", "１０", "", " 1", "+1"]))
DOTTED_CIDRS = st.builds(
    lambda octets, length, pad: f"{pad[0]}{'.'.join(octets)}/{length}{pad[1]}",
    st.lists(OCTET_TEXTS, min_size=4, max_size=4),
    st.integers(0, 40).map(str) | st.integers(0, 40).map("0{}".format) | st.just("٨"),
    st.tuples(st.sampled_from(["", " ", "\t"]), st.sampled_from(["", " ", "\n"])),
)
CIDR_TEXTS = DOTTED_CIDRS | st.sampled_from(
    ["2001:db8::/32", "2001:DB8::/32", "::/0", "10.0.0.0/255.0.0.0", "10.0.0.0", "10.0.0/8",
     "10.0.0.0.0/8", "10.0.0.0//8", "10.0.0.0/8/8", "not-a-prefix"]) | st.text(max_size=20)


@settings(max_examples=500, deadline=None)
@given(text=CIDR_TEXTS)
@example("10.0.0.0/8")
@example("255.255.255.255/32")
@example("0.0.0.0/0")
@example("10.0.0.1/8")
@example("10.0.0.0/08")
@example("010.0.0.0/8")
@example("10.0.0.0/33")
def test_canonical_ipv4_fast_path_equals_ipaddress(text):
    parses_as_ipaddress(text)


@st.composite
def ipv6_cidrs(draw):
    """IPv6 CIDR text: canonical, or spelt with upper case, leading zeros,
    ``::`` over any run of zero groups (a single one, or not the longest),
    an embedded IPv4 tail, a ``%zone`` or host bits below the mask."""
    groups = draw(st.lists(st.sampled_from([0, 0, 0, 1, 0xDB8, 0xFFFF]) | st.integers(0, 0xFFFF),
                           min_size=8, max_size=8))
    length = draw(st.integers(0, 130))
    if draw(st.booleans()):
        address = int("".join(f"{g:04x}" for g in groups), 16)
        return str(ipaddress.ip_network((address, min(length, 128)), strict=False))
    words = [draw(st.sampled_from(["{:x}", "{:X}", "{:04x}", "{:02x}"])).format(g) for g in groups]
    if draw(st.booleans()):
        words[6:] = [f"{groups[6] >> 8}.{groups[6] & 255}.{groups[7] >> 8}.{groups[7] & 255}"]
    runs = [(i, j) for i in range(8) for j in range(i + 1, len(words) + 1)
            if not any(groups[i:j])]
    run = draw(st.sampled_from([None, *runs]))
    text = ":".join(words) if run is None else (
        ":".join(words[: run[0]]) + "::" + ":".join(words[run[1]:]))
    return text + draw(st.sampled_from(["", "", "%eth0"])) + f"/{length}"


@settings(max_examples=500, deadline=None)
@given(text=ipv6_cidrs())
@example("::/0")
@example("::1/128")
@example("1::/16")
@example("1:0:0:1::/64")
@example("1::1:0:0:1/128")
@example("1:0:2:3:4:5:6:7/128")
@example("1::2:3:4:5:6:7/128")
@example("::ffff:102:304/128")
@example("::ffff:1.2.3.4/128")
@example("2001:db8::1/32")
@example("8000::/0")
@example("::1/127")
@example("2001:db8::/129")
@example("2001:db8::/032")
@example("2001:0db8::/32")
@example("1:2:3:4:5:6:7:8:9/128")
@example("1::2::3/128")
@example(":::1/128")
def test_canonical_ipv6_fast_path_equals_ipaddress(text):
    parses_as_ipaddress(text)


@pytest.mark.parametrize("text", ["::/0", "::1/128", "2001:db8::/32", "1:0:0:1::/64",
                                  "1::1:0:0:1/128", "1:0:2:3:4:5:6:7/128", "fe80::/10"])
def test_canonical_ipv6_is_taken_without_ipaddress(text):
    with mock.patch.object(trace.ipaddress, "ip_network", side_effect=AssertionError(text)):
        assert Prefix.parse(text).text == text


class TestTimeGrid:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            TimeGrid(start=10, bin_count=168)

    def test_bin_of(self, tmp_path):
        # a grid's first and last second bin into its first and last hour;
        # the seconds just outside it are out of range
        grid = TimeGrid(start=3600, bin_count=4)
        records = [(t, P8.text, 1) for t in (3600, 3600 + 3 * 3600 + 3599, 3599, grid.end)]
        m, summary = bin_rows(tmp_path, records, grid)
        assert m.values.tolist() == [[1, 0, 0, 1]]
        assert summary.rejected_out_of_range == 2

    def test_week_default(self):
        grid = TimeGrid(start=0)
        assert (grid.bin_count, grid.end) == (168, 168 * 3600)

    @pytest.mark.parametrize("start, bins", [
        ((-(2**63) - 1) // 3600 * 3600, 1),  # starts below the int64 range
        (2**63 // 3600 * 3600, 1),  # ends above it
        (-(2**62) // 3600 * 3600, 2**63 // 3600 + 1),  # both ends fit, the span does not
    ], ids=["start", "end", "span"])
    def test_grid_beyond_int64_is_refused(self, start, bins):
        with pytest.raises(ValueError, match="leaves the int64 range"):
            TimeGrid(start=start, bin_count=bins)

    def test_last_hour_inside_int64_is_a_grid(self):
        assert TimeGrid(start=2**63 // 3600 * 3600 - 3600, bin_count=1).end < 2**63


class TestBinRecords:
    def test_additivity_same_bin(self, tmp_path):
        grid = TimeGrid(start=0, bin_count=4)
        records = [
            (2 * 3600 + 10, P8.text, 5),
            (2 * 3600 + 3000, P8.text, 7),
        ]
        m, _ = bin_rows(tmp_path, records, grid)
        assert m.series(P8)[2] == 12  # bin 3

    def test_padding_to_full_week(self, tmp_path):
        grid = TimeGrid(start=0, bin_count=168)
        m, _ = bin_rows(tmp_path, [(30, P8.text, 9)], grid)
        s = m.series(P8)
        assert s.shape == (168,)
        assert s[0] == 9 and np.count_nonzero(s) == 1

    def test_totals_are_exact_sums(self, tmp_path):
        grid = TimeGrid(start=0, bin_count=2)
        records = [
            (0, P8.text, 50),
            (1, P16.text, 30),
            (2, P24.text, 20),
        ]
        m, _ = bin_rows(tmp_path, records, grid)
        assert m.total(1) == 100
        np.testing.assert_array_equal(m.totals, m.values.sum(axis=0))

    def test_raw_rows_parsed_with_policy(self, tmp_path):
        grid = TimeGrid(start=0, bin_count=2)
        rows = [
            ("0", "10.0.0.0/8", "5"),
            ("10", "bogus", "7"),          # malformed prefix
            ("-5", "10.0.0.0/8", "3"),     # out of range
            ("20", "10.0.0.0/8", "-1"),    # negative volume
            ("oops", "10.0.0.0/8", "2"),   # malformed timestamp
        ]
        m, summary = bin_rows(tmp_path, rows, grid)
        assert m.series(P8).sum() == 5
        assert summary.records_read == 5
        assert summary.records_binned == 1
        assert summary.rejected_malformed == 3
        assert summary.rejected_out_of_range == 1

    def test_negative_volume_is_malformed_and_not_counted(self, tmp_path):
        grid = TimeGrid(start=0, bin_count=1)
        rows = [("0", "10.0.0.0/8", "5"), ("0", "10.0.0.0/8", "-7")]
        m, summary = bin_rows(tmp_path, rows, grid)
        assert m.series(P8).tolist() == [5]
        assert summary.rejected_malformed == 1
        assert (summary.bytes_binned, summary.bytes_rejected) == (5, 0)

    def test_abort_policy_raises(self, tmp_path):
        grid = TimeGrid(start=0, bin_count=2)
        with pytest.raises(ValueError):
            bin_rows(tmp_path, [("0", "bogus", "5")], grid, errors="raise")

    def test_volume_beyond_int64_is_malformed(self, tmp_path):
        grid = TimeGrid(start=0, bin_count=2)
        rows = [("0", "10.0.0.0/8", "5"), ("0", "10.0.0.0/8", str(2**63))]
        m, summary = bin_rows(tmp_path, rows, grid)
        assert m.series(P8).tolist() == [5, 0]
        assert summary.rejected_malformed == 1
        assert summary.bytes_rejected == 2**63
        with pytest.raises(ValueError, match="malformed.*int64"):
            bin_rows(tmp_path, rows, grid, errors="raise")

    @pytest.mark.parametrize("start", [(2**63 - 1) // 3600 * 3600 - 3600, -(2**63 // 3600) * 3600],
                             ids=["last hour", "first hour"])
    def test_nineteen_digit_fields_parse_in_bulk(self, tmp_path, start):
        # int64's bounds have 19 digits: a record that fits needs no int() call
        rows = [(start, "10.0.0.0/8", 2**63 - 1)]
        with mock.patch.object(trace, "_parse_fields", side_effect=AssertionError("int() ran")):
            m, summary = bin_rows(tmp_path, rows, TimeGrid(start=start, bin_count=1))
        assert m.series(P8).tolist() == [2**63 - 1]
        assert summary.bytes_binned == 2**63 - 1

    @pytest.mark.parametrize("errors", ["count", "raise"])
    def test_binned_total_beyond_int64_raises(self, tmp_path, errors):
        grid = TimeGrid(start=0, bin_count=2)
        big = str(9_220_000_000_000_000_000)
        rows = [("0", "10.0.0.0/8", big), ("1", "10.0.0.0/8", big)]
        with pytest.raises(ValueError, match="record 2, beyond the int64 range"):
            bin_rows(tmp_path, rows, grid, errors=errors)
        records = [(0, P8.text, 2**62), (3600, P16.text, 2**62)]
        with pytest.raises(ValueError, match="int64"):
            bin_rows(tmp_path, records, grid, errors=errors)

    def test_volume_conservation_exact(self, tmp_path):
        # binned + rejected bytes account for every parseable input byte
        rng = np.random.default_rng(42)
        grid = TimeGrid(start=0, bin_count=24)
        records = []
        for _ in range(500):
            ts = int(rng.integers(-3600, grid.end + 3600))
            pfx = synthetic_prefix(int(rng.integers(1, 20)))
            records.append((ts, pfx.text, int(rng.integers(0, 10_000))))
        total_in = sum(volume for _, _, volume in records)
        _, summary = bin_rows(tmp_path, records, grid)
        assert summary.bytes_binned + summary.bytes_rejected == total_in
        assert summary.rejected_out_of_range > 0

    def test_all_zero_prefixes_dropped(self, tmp_path):
        grid = TimeGrid(start=0, bin_count=2)
        records = [(0, P8.text, 5), (0, P16.text, 0)]
        m, _ = bin_rows(tmp_path, records, grid)
        assert P8 in m and P16 not in m

    def test_unknown_errors_policy_rejected(self, tmp_path):
        grid = TimeGrid(start=0, bin_count=2)
        with pytest.raises(ValueError, match="unknown errors policy 'ignore'"):
            bin_rows(tmp_path, [(0, P8, 5)], grid, errors="ignore")

    def test_empty_input_errors(self, tmp_path):
        grid = TimeGrid(start=0, bin_count=2)
        with pytest.raises(ValueError, match="no active prefixes"):
            bin_rows(tmp_path, [], grid)

    def test_peak_does_not_grow_with_the_records(self):
        # each block is made when bin_records asks for it, as iter_trace_csv does
        grid = TimeGrid(start=0, bin_count=24)
        prefixes = [synthetic_prefix(k) for k in range(1, 501)]
        size = 1 << 13

        def blocks(count):
            rng = np.random.default_rng(1)
            for _ in range(count):
                yield trace.RecordBlock(
                    timestamps=rng.integers(grid.start, grid.end, size),
                    volumes=rng.integers(0, 1000, size),
                    codes=rng.integers(0, len(prefixes), size),
                    malformed=np.zeros(size, bool), reasons={}, malformed_bytes=0,
                    prefixes=prefixes,
                )

        def peak(count):
            tracemalloc.start()
            try:
                bin_records(blocks(count), grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bin_records(blocks(1), grid)  # what a first call sets up once is not per record
        small = peak(8)
        one_matrix = len(prefixes) * grid.bin_count * np.dtype(np.int64).itemsize
        assert peak(32) - small < one_matrix


def weekly_shares_pct(m) -> list[float]:
    return prefix_shares_and_cv(m)[0].tolist()


class TestWeeklyVolumeFraction:
    def test_sole_prefix_carries_all(self, tmp_path):
        grid = TimeGrid(start=0, bin_count=2)
        m, _ = bin_rows(tmp_path, [(0, P8.text, 7)], grid)
        assert weekly_shares_pct(m) == [100.0]

    def test_hand_division(self, tmp_path):
        grid = TimeGrid(start=0, bin_count=2)
        m, _ = bin_rows(tmp_path, [(0, P8.text, 10), (0, P16.text, 990)], grid)
        assert weekly_shares_pct(m) == pytest.approx([1.0, 99.0], abs=1e-13)

    def test_symmetry(self, tmp_path):
        grid = TimeGrid(start=0, bin_count=2)
        m, _ = bin_rows(tmp_path, [(0, P8.text, 40), (3600, P16.text, 40)], grid)
        assert weekly_shares_pct(m) == [50.0, 50.0]

    def test_fractions_sum_to_one(self):
        grid = TimeGrid(start=0, bin_count=24)
        spec = SyntheticTraceSpec(prefix_count=300, noise=0.5, seed=1)
        m = synthesize_trace(spec, grid)
        assert sum(weekly_shares_pct(m)) == pytest.approx(100.0, abs=1e-10)


class TestSynthesize:
    def grid(self, bins=24):
        return TimeGrid(start=0, bin_count=bins)

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
        spec = SyntheticTraceSpec(prefix_count=n, zipf_s=s)
        m = synthesize_trace(spec, self.grid())
        expected = np.rint(spec.hourly_volume * zipf_shares(n, s)).astype(np.int64)
        for k in range(1, n + 1):
            assert m.series(synthetic_prefix(k)).tolist() == [expected[k - 1]] * m.bin_count
        assert m.values.dtype == np.int64

    # the spec refuses a non-finite parameter, but finite ones can still
    # overflow a cell to inf, and noise that underflows to 0 makes it nan
    @pytest.mark.parametrize("params, named", [
        ({"hourly_volume": 1e19}, "10.0.0.0/24 at hour 1 is 1e+19 bytes"),
        ({"bursts": (BurstSpec(1, 1, 1e300),)}, "10.0.0.0/24 at hour 1 is inf bytes"),
        ({"hourly_volume": 1.7e308, "diurnal_amplitude": 0.5, "noise": 50.0},
         "10.0.0.0/24 at hour 2 is nan bytes"),
    ], ids=["1e19", "inf", "nan"])
    def test_cell_beyond_int64_rejected(self, params, named):
        spec = SyntheticTraceSpec(prefix_count=1, **params)
        with pytest.raises(ValueError, match=re.escape(f"{named}, beyond the int64 range")):
            synthesize_trace(spec, self.grid())

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

    @pytest.mark.parametrize("params, named", [
        ({"zipf_s": math.nan}, "zipf_s"),
        ({"zipf_s": math.inf}, "zipf_s"),
        ({"hourly_volume": math.nan}, "hourly_volume"),
        ({"hourly_volume": math.inf}, "hourly_volume"),
        ({"diurnal_amplitude": math.nan}, "diurnal_amplitude"),
        ({"noise": math.nan}, "noise"),
        ({"noise": math.inf}, "noise"),
        # finite, but -noise**2 / 2 overflows
        ({"noise": 1e200}, "noise"),
    ])
    def test_non_finite_spec_rejected(self, params, named):
        with pytest.raises(ValueError, match=f"^{named} must be"):
            SyntheticTraceSpec(prefix_count=5, **params)

    def test_synthetic_prefix_rank_below_1_rejected(self):
        with pytest.raises(ValueError, match=r"rank 0 outside \[1, 65536\]"):
            synthetic_prefix(0)

    @pytest.mark.parametrize("multiplier", [math.nan, math.inf])
    def test_non_finite_burst_multiplier_rejected(self, multiplier):
        with pytest.raises(ValueError, match="burst multiplier must be finite"):
            BurstSpec(rank=1, hour=1, multiplier=multiplier)


class TestMatrixModel:
    def test_rows_sorted_by_text(self):
        grid = TimeGrid(start=0, bin_count=1)
        m = HourlyTraceMatrix(grid, [P24, P8, P16], [[1], [2], [3]])
        assert [p.text for p in m.prefixes] == ["10.0.0.0/8", "10.1.0.0/16", "10.2.3.0/24"]
        assert m.values[:, 0].tolist() == [2, 3, 1]

    def test_values_read_only(self):
        grid = TimeGrid(start=0, bin_count=1)
        values = np.array([[2]])
        m = HourlyTraceMatrix(grid, [P8], values)
        with pytest.raises(ValueError):
            m.values[0, 0] = 5
        values[0, 0] = 5  # the matrix holds its own copy
        assert m.values[0, 0] == 2

    def test_wrong_length_rejected(self):
        grid = TimeGrid(start=0, bin_count=3)
        with pytest.raises(ValueError, match=r"shape \(1, 2\), expected \(1, 3\)"):
            HourlyTraceMatrix(grid, [P8], [[1, 2]])
        with pytest.raises(ValueError, match=r"shape \(1, 3\), expected \(2, 3\)"):
            HourlyTraceMatrix(grid, [P8, P16], [[1, 2, 3]])

    def test_repeated_prefix_rejected(self):
        grid = TimeGrid(start=0, bin_count=2)
        with pytest.raises(ValueError, match=r"duplicate row for 10\.1\.0\.0/16"):
            HourlyTraceMatrix(grid, [P16, P8, Prefix.parse("10.1.0.0/255.255.0.0")],
                              [[1, 0], [2, 2], [0, 0]])

    def test_all_zero_rows_dropped(self):
        grid = TimeGrid(start=0, bin_count=2)
        m = HourlyTraceMatrix(grid, [P24, P8, P16], np.array([[0, 0], [1, 0], [0, 5]], np.int32))
        assert m.prefixes == (P8, P16)
        assert m.values.dtype == np.int64
        with pytest.raises(ValueError, match="no active prefixes"):
            HourlyTraceMatrix(grid, [P8], [[0, 0]])

    @pytest.mark.parametrize("cell, dtype", [
        (float("nan"), "float64"), (float("inf"), "float64"), (-float("inf"), "float64"),
        (2.0, "float64"), (2**63, "uint64"), (2**64, "object"),
    ])
    def test_non_integer_array_rejected_naming_dtype(self, cell, dtype):
        grid = TimeGrid(start=0, bin_count=3)
        with pytest.raises(ValueError, match=f"got a {dtype} array"):
            HourlyTraceMatrix(grid, [P8, P16], np.array([[1, 2, 3], [1, cell, 0]], dtype))

    def test_negative_cell_rejected_naming_prefix(self):
        grid = TimeGrid(start=0, bin_count=2)
        with pytest.raises(ValueError, match="negative volume in series for 10.2.3.0/24"):
            HourlyTraceMatrix(grid, [P8, P24], [[1, 2], [3, -1]])

    @pytest.mark.parametrize("series, hour", [
        ([[0, 2**63 - 1], [1, 1]], 2),
    ])
    def test_hour_total_beyond_dtype_range_rejected_naming_hour(self, series, hour):
        grid = TimeGrid(start=0, bin_count=len(series[0]))
        with pytest.raises(ValueError, match=f"total of hour {hour} exceeds"):
            HourlyTraceMatrix(grid, [P8, P16], series)

    def test_hour_mapping(self):
        grid = TimeGrid(start=0, bin_count=2)
        m = HourlyTraceMatrix(grid, [P8, P16], [[5, 0], [1, 2]])
        assert dict(zip(m.prefixes, m.values[:, 0].tolist())) == {P8: 5, P16: 1}

    @pytest.mark.parametrize("hour", [0, 3])
    def test_total_of_hour_outside_grid_rejected(self, hour):
        m = HourlyTraceMatrix(TimeGrid(start=0, bin_count=2), [P8], [[5, 1]])
        with pytest.raises(ValueError, match=rf"hour {hour} outside \[1, 2\]"):
            m.total(hour)


class TestCsvInterfaces:
    def test_trace_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ts,pfx,vol\n0,10.0.0.0/8,5\n")
        with pytest.raises(ValueError, match="header"):
            list(iter_trace_csv(path))

    def test_trace_csv_header_is_checked_by_the_call(self, tmp_path):
        # before any block is asked for, so a caller can tell it from a record's refusal
        path = tmp_path / "bad.csv"
        path.write_text("ts,pfx,vol\n0,10.0.0.0/8,5\n")
        with pytest.raises(ValueError, match=f"{path}: expected header"):
            iter_trace_csv(path)

    def test_trace_csv_roundtrip_through_binning(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(
            "timestamp,prefix,bytes\n"
            "0,10.0.0.0/8,50\n"
            "10,10.1.0.0/16,30\n"
            "3700,10.0.0.0/8,7\n"
        )
        grid = TimeGrid(start=0, bin_count=2)
        m, summary = bin_records(iter_trace_csv(path), grid)
        assert summary.records_binned == 3
        assert m.total(1) == 80 and m.total(2) == 7

    def test_matrix_roundtrip_int(self, tmp_path):
        grid = TimeGrid(start=7200, bin_count=3)
        m = HourlyTraceMatrix(grid, [P8, P16], [[1, 0, 3], [0, 2, 0]])
        save_matrix(m, tmp_path / "m.csv")
        back = load_matrix(tmp_path / "m.csv")
        assert back.grid == m.grid
        assert back.prefixes == m.prefixes
        np.testing.assert_array_equal(back.values, m.values)
        assert back.values.dtype == np.int64

    def test_unparsable_int_cell_names_prefix(self, tmp_path):
        grid = TimeGrid(start=0, bin_count=2)
        save_matrix(HourlyTraceMatrix(grid, [P8, P16], [[1, 0], [0, 2]]), tmp_path / "m.csv")
        text = (tmp_path / "m.csv").read_text().replace("10.1.0.0/16,0,2", "10.1.0.0/16,nan,2")
        (tmp_path / "m.csv").write_text(text)
        with pytest.raises(ValueError, match="10.1.0.0/16"):
            load_matrix(tmp_path / "m.csv")

    # np.loadtxt skips "+" and every str.isspace character around a cell; the
    # one integer rule refuses them, as every cell that is not a plain decimal int64
    @pytest.mark.parametrize("cell", ["1_000", "9223372036854775808", "1.0", "0x10", "+1", " 1",
                                      "1\t", "\x1c1", "1\x1f", "\xa01", "\u30001", "1\u2028",
                                      "", "-", "9" * 20])
    def test_int_cell_not_plain_int64_names_prefix(self, tmp_path, cell):
        grid = TimeGrid(start=0, bin_count=2)
        save_matrix(HourlyTraceMatrix(grid, [P8, P16], [[1, 0], [0, 2]]), tmp_path / "m.csv")
        text = (tmp_path / "m.csv").read_text().replace("10.1.0.0/16,0,2", f"10.1.0.0/16,{cell},2")
        (tmp_path / "m.csv").write_text(text)
        with pytest.raises(ValueError) as info:
            load_matrix(tmp_path / "m.csv")
        assert str(info.value) == (f"{tmp_path / 'm.csv'}: line 3: bad row for '10.1.0.0/16': "
                                   f"h1 is {cell!r}, not a plain decimal int64")

    @pytest.mark.parametrize("skips", [trace._LOADTXT_SKIPS, b","], ids=["loadtxt", "strict"])
    @pytest.mark.parametrize("cell, value", [("007", 7), ("-0", 0), (str(2**63 - 2), 2**63 - 2)])
    def test_int_cell_of_plain_digits_is_read(self, tmp_path, cell, value, skips):
        # every text holds a comma, so b"," gates np.loadtxt off
        grid = TimeGrid(start=0, bin_count=2)
        save_matrix(HourlyTraceMatrix(grid, [P8, P16], [[1, 0], [0, 2]]), tmp_path / "m.csv")
        text = (tmp_path / "m.csv").read_text().replace("10.1.0.0/16,0,2", f"10.1.0.0/16,{cell},2")
        (tmp_path / "m.csv").write_text(text)
        with mock.patch.object(trace, "_LOADTXT_SKIPS", skips):
            assert load_matrix(tmp_path / "m.csv").values.tolist() == [[1, 0], [value, 2]]

    def test_duplicate_prefix_row_names_prefix(self, tmp_path):
        grid = TimeGrid(start=0, bin_count=2)
        save_matrix(HourlyTraceMatrix(grid, [P8, P16], [[5, 5], [0, 2]]), tmp_path / "m.csv")
        with open(tmp_path / "m.csv", "a") as fh:
            fh.write("10.0.0.0/255.0.0.0,1,1\n")  # 10.0.0.0/8 again, written another way
        with pytest.raises(ValueError, match=r"duplicate row for 10\.0\.0\.0/8"):
            load_matrix(tmp_path / "m.csv")

    def test_matrix_roundtrip_synth(self, tmp_path):
        grid = TimeGrid(start=0, bin_count=12)
        m = synthesize_trace(SyntheticTraceSpec(prefix_count=17, noise=0.7, seed=3), grid)
        save_matrix(m, tmp_path / "m.csv")
        assert "dtype" not in json.loads((tmp_path / "m.json").read_text())
        back = load_matrix(tmp_path / "m.csv")
        np.testing.assert_array_equal(back.values, m.values)


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


@settings(max_examples=150, deadline=None)
@given(values=int_matrices())
def test_int_matrix_csv_roundtrip_is_exact(tmp_path_factory, values):
    grid = TimeGrid(start=3600 * 5, bin_count=values.shape[1])
    m = HourlyTraceMatrix(grid, [synthetic_prefix(k + 1) for k in range(len(values))], values)
    path = tmp_path_factory.mktemp("matrix") / "m.csv"
    save_matrix(m, path)
    back = load_matrix(path)
    assert (back.grid, back.prefixes) == (m.grid, m.prefixes)
    assert back.values.dtype == m.values.dtype
    assert back.values.tobytes() == m.values.tobytes()  # bit for bit
    text = path.read_bytes()
    header = ["prefix", *(f"h{h}" for h in grid.hours())]
    rows = [[prefix.text, *map(str, row)] for prefix, row in zip(m.prefixes, m.values.tolist())]
    assert text == csv_text([header, *rows]).encode()  # the bytes csv.writer gave
    save_matrix(back, path)
    assert path.read_bytes() == text


def _strict_cells_unused(*args, **kwargs):
    raise AssertionError("the strict cell parser ran")


@settings(max_examples=100, deadline=None)
@given(values=int_matrices())
def test_int_matrix_cells_read_alike_by_loadtxt_and_by_the_strict_parser(tmp_path_factory, values):
    """``np.loadtxt`` serves a clean text alone; with it gated off (every
    text holds a comma), ``_plain_ints`` gives the same int64 array."""
    grid = TimeGrid(start=0, bin_count=values.shape[1])
    path = tmp_path_factory.mktemp("matrix") / "m.csv"
    save_matrix(HourlyTraceMatrix(grid, [synthetic_prefix(k + 1) for k in range(len(values))],
                                  values), path)
    with mock.patch.object(trace, "_plain_ints", _strict_cells_unused):
        fast = load_matrix(path).values
    with mock.patch.object(trace, "_LOADTXT_SKIPS", b","):
        strict = load_matrix(path).values
    assert fast.dtype == strict.dtype == np.int64
    assert fast.tobytes() == strict.tobytes()


@pytest.mark.parametrize("rows", [
    [[scalar_oracles.INT64_MAX]],
    [[1]],
    # zeros, ones and int64's largest cell, with no hourly total beyond it
    [[scalar_oracles.INT64_MAX, 0] * 4392, [0, 1] * 4392],
], ids=["1 bin of int64 max", "1 bin of 1", "8784 bins"])
def test_save_matrix_writes_decimal_cells(tmp_path, rows):
    grid = TimeGrid(start=0, bin_count=len(rows[0]))
    prefixes = [P8, P16][: len(rows)]
    save_matrix(HourlyTraceMatrix(grid, prefixes, np.array(rows)), tmp_path / "m.csv")
    header = ",".join(["prefix", *(f"h{h}" for h in grid.hours())])
    lines = [prefix.text + "," + ",".join(map(str, row)) for prefix, row in zip(prefixes, rows)]
    assert (tmp_path / "m.csv").read_text() == "\n".join([header, *lines]) + "\n"


CONSERVATION_GRID = TimeGrid(start=3600, bin_count=3)

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
def test_bin_records_conserves_bytes(tmp_path_factory, rows):
    grid = CONSERVATION_GRID
    tmp_path = tmp_path_factory.mktemp("flows")
    expected: dict[str, list[int]] = {}
    for row in rows:
        volume = parsed_volume(row)
        try:
            ts, prefix = int(row[0]), Prefix.parse(row[1])
        except (ValueError, IndexError):
            continue
        if volume is not None and 0 <= volume < 2**63 and grid.start <= ts < grid.end:
            cells = expected.setdefault(prefix.text, [0] * grid.bin_count)
            cells[(ts - grid.start) // 3600] += volume
    expected = {text: cells for text, cells in expected.items() if any(cells)}
    if not expected:
        with pytest.raises(ValueError, match="no active prefixes"):
            bin_rows(tmp_path, rows, grid)
        return

    m, summary = bin_rows(tmp_path, rows, grid)
    parseable = [v for v in map(parsed_volume, rows) if v is not None and v >= 0]
    assert summary.bytes_binned + summary.bytes_rejected == sum(parseable)
    assert int(m.values.sum()) == summary.bytes_binned
    assert {p.text: row.tolist() for p, row in zip(m.prefixes, m.values)} == expected


# Field texts for the column pass against the per-record rule: plain and
# padded digits, signs, Unicode digits (which int() reads), underscores,
# values beyond int64 either way, and text that is no number or prefix.
TIMESTAMP_TEXTS = st.one_of(
    st.integers(0, 5 * 3600).map(str),
    st.sampled_from(["", "x", " 3600", "+7200", "-5", "0003600", "٣٦٠٠", "3_600", "1.0",
                     str(2**63), str(-(2**63) - 1), str(2**70), "9" * 19]),
)
PREFIX_TEXTS = st.sampled_from(RAW_PREFIXES + [" 10.1.0.0/16", "10.1.0.0/16 ", "", "10.01.0.0/16",
                                               "2001:DB8::/32", "١٠.0.0.0/8", "10.1.0.0/0016"])
VOLUME_TEXTS = st.one_of(
    st.integers(0, 2**40).map(str),
    st.integers(2**61, 2**63 - 1).map(str),
    st.sampled_from(["", "-3", "1.5", " 7", "7 ", "007", "٧", "+4", "1_0", "9" * 18,
                     "9" * 19, str(2**63), str(2**64)]),
)
FIELD_ROWS = (st.tuples(TIMESTAMP_TEXTS, PREFIX_TEXTS, VOLUME_TEXTS)
              | st.tuples(TIMESTAMP_TEXTS, PREFIX_TEXTS)
              | st.tuples(TIMESTAMP_TEXTS, PREFIX_TEXTS, VOLUME_TEXTS, st.just("x")))


def outcome(run):
    """What a binning call gave: its matrix and summary, or its error."""
    try:
        m, summary = run()
    except ValueError as exc:
        return str(exc)
    return [p.text for p in m.prefixes], m.values.tolist(), summary


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(FIELD_ROWS, max_size=30),
    blank=st.sets(st.integers(0, 30)),
    newline=st.sampled_from(["\n", "\r\n"]),
    final=st.booleans(),
    block=st.integers(1, 8),
    errors=st.sampled_from(["count", "raise"]),
)
def test_column_pass_equals_the_per_record_rule(tmp_path_factory, rows, blank, newline, final,
                                                 block, errors):
    """Over blocks of any size, with CRLF, blank lines and with or without
    a final newline, the column pass bins, tallies and refuses as the
    record-by-record oracle does; under ``raise`` both name the same first
    bad record."""
    grid = CONSERVATION_GRID
    lines = [",".join(row) for row in rows]
    for pos in sorted(blank, reverse=True):
        lines.insert(min(pos, len(lines)), "")
    path = tmp_path_factory.mktemp("flows") / "flows.csv"
    with open(path, "w", newline=newline) as fh:
        text = "".join(line + "\n" for line in ["timestamp,prefix,bytes", *lines])
        fh.write(text if final else text[:-1])
    with mock.patch.object(trace, "TRACE_BLOCK_LINES", block):
        got = outcome(lambda: bin_records(iter_trace_csv(path), grid, errors))
    assert got == outcome(lambda: scalar_oracles.bin_records(rows, grid, errors))


class TestZipfShares:
    def test_normalized(self):
        shares = zipf_shares(1000, 0.8)
        assert shares.sum() == pytest.approx(1.0, abs=1e-12)
        assert (np.diff(shares) <= 0).all()

    def test_two_elements_s1(self):
        np.testing.assert_allclose(zipf_shares(2, 1.0), [2 / 3, 1 / 3])

    @pytest.mark.parametrize("n, s, message", [(0, 1.0, "n must be >= 1"),
                                               (5, 0, "s must be > 0")])
    def test_bad_arguments_rejected(self, n, s, message):
        with pytest.raises(ValueError, match=message):
            zipf_shares(n, s)
