"""The package's record types: construction, defaults, checks, equality,
immutability, repr and field order, once for every type."""

import numpy as np
import pytest

from prefixcast._record import Record
from prefixcast.dynamism import ConcentrationCurve, CoreProfile, VolumeBinStat
from prefixcast.evaluation import BoxplotSummary, EvaluationReport
from prefixcast.rttsim import (
    DynamicRouteResult,
    NpSeries,
    NpSummary,
    ProbeScheduleSpec,
    RegimeSwitch,
    RttModel,
)
from prefixcast.selectors import SelectionRun, SelectorConfig
from prefixcast.trace import (
    BurstSpec,
    IngestSummary,
    Prefix,
    RecordBlock,
    Rows,
    SyntheticTraceSpec,
    TimeGrid,
)

P = Prefix("10.0.0.0/8")
BOX = BoxplotSummary(0.0, 1.0, 2.0, 2.5, 3.0, 4.0)
CONFIG = SelectorConfig("gm11", 24, 2)


def arr(*values):
    return np.array(values)


# each record type: its fields in order, as ``_asdict`` (and so every JSON
# file written from one) orders them, with a value for each
RECORDS = {
    TimeGrid: {"start": 3600, "bin_count": 24},
    IngestSummary: {"records_read": 9, "records_binned": 6, "rejected_malformed": 2,
                    "rejected_out_of_range": 1, "bytes_binned": 60, "bytes_rejected": 5,
                    "active_prefixes": 3},
    RecordBlock: {"timestamps": arr(0), "volumes": arr(5), "codes": arr(0),
                  "malformed": arr(False), "reasons": {}, "malformed_bytes": 0,
                  "prefixes": [P]},
    BurstSpec: {"rank": 1, "hour": 2, "multiplier": 3.0},
    SyntheticTraceSpec: {"prefix_count": 10, "zipf_s": 1.5, "hourly_volume": 1e6,
                         "diurnal_amplitude": 0.5, "noise": 0.1,
                         "bursts": (BurstSpec(1, 2, 3.0),), "seed": 4},
    Rows: {"path": "m.csv", "raw": b"a\n1\n", "lines": arr(1), "starts": arr(2),
           "ends": arr(3), "commas": np.zeros((1, 0), int)},
    CoreProfile: {"threshold": 0.95, "prefixes": (P,), "cp": arr(1), "icp": arr(1.0),
                  "max_beta": 0.0, "bi": arr(0.0), "core_sizes": arr(1)},
    ConcentrationCurve: {"span": "week", "shares": arr(1.0), "cdf": arr(1.0),
                         "zipf_overlay": arr(0.08)},
    VolumeBinStat: {"label": "<0.0001", "lo_pct": 0.0, "hi_pct": 1e-4, "count": 2,
                    "mean": 1.5, "median": 1.5, "p25": 1.25, "p75": 1.75},
    BoxplotSummary: {"min": 0.0, "p25": 1.0, "median": 2.0, "mean": 2.5, "p75": 3.0,
                     "max": 4.0},
    EvaluationReport: {"method": "gm11", "window": 24, "size": 2, "hours": arr(2, 3),
                       "coverage": arr(0.5, 1.0), "churn": arr(2), "coverage_summary": BOX,
                       "churn_summary": None},
    SelectorConfig: {"method": "gm11", "window": 24, "size": 2},
    SelectionRun: {"config": CONFIG, "threshold": 0.95, "prefixes": (P,),
                   "mask": arr([True]), "picked_scores": arr(2.0), "gm11_fallbacks": 1},
    NpSeries: {"transit": "T1", "ticks": (0, 1), "values": (1.0, None), "included": (2, 0)},
    DynamicRouteResult: {"transit": "dynamic", "ticks": (1,), "values": (1.0,),
                         "included": (2,), "excluded_missing": (0,)},
    ProbeScheduleSpec: {"mean_interval": 60.0, "jitter": 0.1, "duration": 600.0, "seed": 5},
    RegimeSwitch: {"transit": "T1", "start_tick": 0, "end_tick": 3, "multiplier": 2.0},
    RttModel: {"base_rtt": {(P, "T1"): 20.0}, "noise_std": 1.0, "loss_prob": 0.1,
               "regime_switches": (RegimeSwitch("T1", 0, 3, 2.0),)},
    NpSummary: {"min": 0.0, "p25": 1.0, "median": 2.0, "mean": 2.5, "p75": 3.0,
                "max": 4.0, "p5": 0.5, "p95": 3.5},
}

# the trailing fields a type may omit, and their defaults
DEFAULTS = {
    TimeGrid: {"bin_count": 168},
    SyntheticTraceSpec: {"zipf_s": 1.0, "hourly_volume": 1e9, "diurnal_amplitude": 0.0,
                         "noise": 0.0, "bursts": (), "seed": 0},
    SelectionRun: {"gm11_fallbacks": 0},
    ProbeScheduleSpec: {"mean_interval": 240.0, "jitter": 0.30, "duration": 86400.0,
                        "seed": 0},
    RttModel: {"noise_std": 0.0, "loss_prob": 0.0, "regime_switches": ()},
}

# each type's array fields; a type with one compares and hashes by identity
ARRAYS = {cls: [k for k, v in fields.items() if isinstance(v, np.ndarray)]
          for cls, fields in RECORDS.items()}
BY_IDENTITY = {cls for cls, names in ARRAYS.items() if names}

TYPES = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def test_every_record_type_is_listed():
    def derived(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from derived(sub)

    assert set(derived(Record)) == set(RECORDS) and len(RECORDS) == 19


@TYPES
def test_positional_and_keyword_construction_bind_the_same_fields(cls):
    fields = RECORDS[cls]
    for record in (cls(*fields.values()), cls(**fields)):
        assert list(record._asdict()) == list(fields)
        assert all(got is want for got, want in zip(record._astuple(), fields.values()))


@TYPES
def test_omitted_fields_take_their_defaults(cls):
    defaults = DEFAULTS.get(cls, {})
    required = {k: v for k, v in RECORDS[cls].items() if k not in defaults}
    record = cls(**required)
    assert {k: getattr(record, k) for k in defaults} == defaults
    assert cls(*required.values())._asdict().keys() == record._asdict().keys()


@TYPES
def test_a_missing_repeated_or_unknown_argument_is_a_type_error(cls):
    fields = RECORDS[cls]
    first = next(iter(fields))
    for name in fields.keys() - DEFAULTS.get(cls, {}).keys():
        with pytest.raises(TypeError, match=f"missing .*argument:? '{name}'"):
            cls(**{k: v for k, v in fields.items() if k != name})
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(*fields.values(), **{first: fields[first]})
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        cls(**fields, nope=1)
    with pytest.raises(TypeError, match="arguments but"):
        cls(*fields.values(), None)


@TYPES
def test_equality_and_hash(cls):
    fields = RECORDS[cls]
    a, b = cls(**fields), cls(**fields)
    assert a == a and not a != a
    if cls in BY_IDENTITY:
        assert a != b and hash(a) == object.__hash__(a)
        return
    assert a == b and a != tuple(fields.values())
    try:
        want = hash(tuple(fields.values()))
    except TypeError:  # a dict or an array field
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == want


def test_records_with_differing_arrays_are_unequal_without_raising():
    block = RECORDS[RecordBlock]
    a = RecordBlock(**block)
    b = RecordBlock(**{**block, "timestamps": arr(0, 1), "volumes": arr(5, 6)})
    assert (a == b) is False and (a != b) is True


def test_a_derived_record_equals_only_its_own_type():
    box = {k: v for k, v in RECORDS[NpSummary].items() if k not in ("p5", "p95")}
    assert NpSummary(**box, p5=0.5, p95=3.5) != BoxplotSummary(**box)
    assert NpSeries("T1", (1,), (1.0,), (2,)) != DynamicRouteResult("T1", (1,), (1.0,), (2,), (0,))


@TYPES
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    record = cls(**RECORDS[cls])
    first = next(iter(RECORDS[cls]))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{first}'"):
        setattr(record, first, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        record.other = None
    with pytest.raises(AttributeError, match=f"cannot delete field '{first}'"):
        delattr(record, first)
    assert getattr(record, first) is RECORDS[cls][first]


@TYPES
def test_repr_names_every_field(cls):
    fields = RECORDS[cls]
    body = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls, fields, message", [
    (TimeGrid, {"start": 1}, "not aligned to an hour"),
    (TimeGrid, {"start": 0, "bin_count": 0}, "bin_count must be positive"),
    (BurstSpec, {"rank": 0, "hour": 1, "multiplier": 2.0}, "burst rank must be >= 1"),
    (SyntheticTraceSpec, {"prefix_count": 0}, "prefix_count must be in"),
    (SyntheticTraceSpec, {"prefix_count": 1, "noise": -1.0}, "noise must be >= 0"),
    (SelectorConfig, {"method": "median", "window": 1, "size": 1}, "unknown method"),
    (SelectionRun, {**RECORDS[SelectionRun], "threshold": 0.0}, "threshold must be in"),
    (SelectionRun, {**RECORDS[SelectionRun], "picked_scores": arr()}, "one picked score"),
    (ProbeScheduleSpec, {"jitter": 1.0}, "jitter must be in"),
    (RegimeSwitch, {"transit": "T1", "start_tick": 3, "end_tick": 3, "multiplier": 2.0},
     "end_tick must be > start_tick"),
    (RttModel, {"base_rtt": {}}, "base_rtt must not be empty"),
    (RttModel, {"base_rtt": {(P, "T1"): 20.0}, "regime_switches": (RegimeSwitch("T2", 0, 1, 2.0),)},
     "regime switch transit 'T2'"),
], ids=lambda value: value if isinstance(value, str) else getattr(value, "__name__", None))
def test_post_init_refuses_bad_fields(cls, fields, message):
    with pytest.raises(ValueError, match=message):
        cls(**fields)


def test_post_init_may_replace_a_field_and_freeze_arrays():
    spec = SyntheticTraceSpec(prefix_count=1, bursts=[BurstSpec(1, 1, 2.0)])
    assert spec.bursts == (BurstSpec(1, 1, 2.0),)
    profile = CoreProfile(**RECORDS[CoreProfile])
    assert not profile.cp.flags.writeable


@TYPES
def test_every_array_field_is_read_only_after_construction(cls):
    fields = {k: v.copy() if k in ARRAYS[cls] else v for k, v in RECORDS[cls].items()}
    record = cls(**fields)
    for name in ARRAYS[cls]:
        assert not getattr(record, name).flags.writeable, name


def test_prefix_orders_and_hashes_by_text():
    """A prefix is its canonical text: it equals, hashes and sorts as that
    text, and holds nothing else."""
    a, b = Prefix("10.0.0.0/8"), Prefix("9.0.0.0/8")
    assert a == "10.0.0.0/8" and a != "9.0.0.0/8" and a == Prefix("10.0.0.0/8")
    assert hash(a) == hash("10.0.0.0/8") and {a: 1}["10.0.0.0/8"] == 1
    assert a < b and a < "9.0.0.0/8" and not b < a
    assert sorted([b, "11.0.0.0/8", a]) == ["10.0.0.0/8", "11.0.0.0/8", "9.0.0.0/8"]
    assert a.text is a and isinstance(a, str) and repr(a) == "'10.0.0.0/8'"
    with pytest.raises(AttributeError):
        a.text = "9.0.0.0/8"
    with pytest.raises(AttributeError):
        a.other = None
