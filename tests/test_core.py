import hashlib
import io
import math
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from imutrace import core
from imutrace.core import (
    AXIS_NAMES,
    CSV_COLUMNS,
    LABEL_ORDER,
    N_CLASSES,
    Part,
    Scenario,
    SplitAssignment,
    TrajectoryLabel,
    dataset_hash,
    downsample,
    ingest_csv,
    largest_remainder,
    serialize_csv,
)
from imutrace.errors import DataError

from conftest import window_from_array


def test_label_round_trip_and_order():
    for label in TrajectoryLabel:
        assert TrajectoryLabel(label.value) is label
    assert [l.value for l in LABEL_ORDER] == [
        "straight", "turn right", "turn left", "turn around",
    ]
    assert N_CLASSES == 4
    for i, label in enumerate(LABEL_ORDER):
        assert label.index == i
    with pytest.raises(ValueError):
        TrajectoryLabel("sideways")


def test_scenario_round_trip():
    assert Scenario("indoor") is Scenario.INDOOR
    assert Scenario("outdoor") is Scenario.OUTDOOR
    with pytest.raises(ValueError):
        Scenario("underwater")


def test_window_validation():
    with pytest.raises(DataError):
        window_from_array(np.zeros((1, 9)))
    with pytest.raises(DataError):
        window_from_array(np.zeros((5, 9)), rate=-10.0)
    with pytest.raises(DataError):
        window_from_array(np.zeros((5, 9)), rate=math.nan)
    with pytest.raises(DataError):
        window_from_array(np.zeros((5, 9)), rate=math.inf)
    for shape in ((5, 8), (5, 10), (45,), (5, 9, 1)):
        with pytest.raises(DataError):
            window_from_array(np.zeros(shape))
    for bad in (math.nan, math.inf, -math.inf):
        data = np.zeros((5, 9))
        data[3, 4] = bad
        with pytest.raises(DataError):
            window_from_array(data)


def test_window_accessors():
    data = np.arange(45, dtype=np.float64).reshape(5, 9)
    w = window_from_array(data, rate=10.0, label=TrajectoryLabel.STRAIGHT)
    assert len(w) == 5
    assert len(w) / w.rate == pytest.approx(0.5)
    assert w.data.dtype == np.float64
    assert np.array_equal(w.data, data)
    # the window holds its own read-only copy
    data[0, 0] = -1.0
    assert w.data[0, 0] == 0.0
    with pytest.raises(ValueError):
        w.data[0, 0] = 1.0


def test_csv_round_trip_exact():
    rng = np.random.default_rng(0)
    windows = []
    for i, label in enumerate(LABEL_ORDER):
        # awkward floats: sums that are not exactly representable, tiny and
        # huge magnitudes, signed zeros (the re-serialized text keeps the sign)
        data = rng.standard_normal((7, 9)) * 10.0 ** rng.integers(-30, 30, (7, 9))
        data[0, 0] = 0.1 + 0.2
        data[1, 1] = 1.0 / 3.0
        data[2, 2:8] = (0.0, -0.0, 1e-300, -1e300, 5e-324, 0.1)
        windows.append(
            window_from_array(
                data, rate=50.0, window_id=f"w{i}", group=f"g{i % 2}",
                scenario=Scenario.OUTDOOR if i % 2 else Scenario.INDOOR,
                label=label,
            )
        )
    text = serialize_csv(windows)
    back = ingest_csv(io.StringIO(text))
    assert len(back) == len(windows)
    for w, b in zip(windows, back):
        assert b.id == w.id
        assert b.recording_group == w.recording_group
        assert b.scenario is w.scenario
        assert b.label is w.label
        assert b.rate == w.rate
        assert np.array_equal(b.data, w.data)
    # the round trip is exact, so the text and the hash are stable too
    assert serialize_csv(back) == text
    assert dataset_hash(back) == dataset_hash(windows)


@pytest.mark.parametrize("rate", [30.0, 123.456, 1000.0, 100 / 3, 1000 / 7, 200 / 3])
def test_csv_round_trip_keeps_the_rate_grid(rate):
    # 100 / 3 and 200 / 3 need 16-17 significant digits, more than the
    # first 12-digit snap keeps
    data = np.random.default_rng(2).standard_normal((int(rate) + 1, 9))
    w = window_from_array(data, rate=rate, label=TrajectoryLabel.TURN_LEFT)
    text = serialize_csv([w])
    back = ingest_csv(io.StringIO(text))
    assert back[0].rate == rate
    assert serialize_csv(back) == text


@pytest.mark.parametrize("n", [3, 9, 17, 40, 41, 100])
def test_ingest_recovers_a_rate_the_quotient_misses_by_an_ulp(n):
    # for 40 samples, 39 / t_last lands one ulp above 1000 / 7, and no
    # rounding of it to 12-17 significant digits reproduces the t column
    w = window_from_array(np.zeros((n, 9)), rate=1000 / 7)
    text = serialize_csv([w])
    back = ingest_csv(io.StringIO(text))
    assert back[0].rate == 1000 / 7
    assert serialize_csv(back) == text


def _rfc4180(field):
    """``field`` quoted by RFC 4180 when it holds a comma, a quote, CR or
    LF: in quotes, with every quote doubled."""
    if any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def _reference_csv(windows):
    """The canonical CSV built row by row, each timestamp repr-ed anew: an
    oracle that shares nothing with the per-window chunks of serialize_csv."""
    lines = [",".join(CSV_COLUMNS) + "\n"]
    for w in windows:
        label = w.label.value if w.label is not None else ""
        for i, row in enumerate(w.data.tolist()):
            fields = [_rfc4180(f"{w.recording_group}/{w.id}"), w.scenario.value, label,
                      repr(i / w.rate), *map(repr, row)]
            lines.append(",".join(fields) + "\n")
    return "".join(lines)


def _assert_same_text(text, expected):
    """``text == expected``, checked first line by line: a failing example
    names its first differing line and index, without pytest diffing two
    texts of megabytes at every shrink step."""
    lines, want = text.splitlines(keepends=True), expected.splitlines(keepends=True)
    for i, (line, wanted) in enumerate(zip(lines, want)):
        assert (i, line) == (i, wanted)
    assert len(lines) == len(want)
    assert text == expected


# rates that repeat across windows, including ones whose i / rate needs
# 16-17 significant digits
_RATES = st.sampled_from([100.0, 50.0, 100 / 3, 200 / 3, 1000 / 7, 123.456])
_VALUES = st.floats(allow_nan=False, allow_infinity=False, width=64)
# id text with the characters the csv dialect must quote; a group's goes
# without "/", which ends the group in a recording id
_QUOTED = st.text(alphabet=',"\r\n/ é', max_size=3)
_QUOTED_GROUP = st.text(alphabet=',"\r\n é', max_size=3)


@st.composite
def _mixed_windows(draw):
    shapes = draw(st.lists(st.tuples(st.integers(2, 40), _RATES), min_size=1, max_size=4))
    # every shape is used by one to three windows, so some share (len, rate)
    counts = draw(st.lists(st.integers(1, 3), min_size=len(shapes), max_size=len(shapes)))
    windows = []
    for (n, rate), count in zip(shapes, counts):
        for _ in range(count):
            i = len(windows)
            windows.append(window_from_array(
                draw(arrays(np.float64, (n, 9), elements=_VALUES)),
                rate=rate,
                window_id=f"w{i}" + draw(_QUOTED),
                group=draw(st.sampled_from([f"w{i}", "g0", "g1"])) + draw(_QUOTED_GROUP),
                scenario=draw(st.sampled_from(list(Scenario))),
                label=draw(st.sampled_from([None, *TrajectoryLabel])),
            ))
    return draw(st.permutations(windows))


@settings(max_examples=60, deadline=None)
@given(_mixed_windows())
def test_streamed_csv_is_the_serialized_text(windows):
    text = serialize_csv(windows)
    _assert_same_text(text, _reference_csv(windows))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        digest = dataset_hash(windows, write_to=path)
        _assert_same_text(path.read_bytes().decode("utf-8"), text)
    assert digest == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert dataset_hash(windows) == digest
    _assert_same_text(serialize_csv(ingest_csv(io.StringIO(text))), text)


@st.composite
def _long_windows(draw):
    """Windows of rows around and past one block (``_CSV_BLOCK_ROWS``, 1024)
    whose row prefixes run short, past 64 and past 128 bytes, some of one
    width; their floats, from a drawn seed, span the writer's fast range
    and the repr() fallback on both sides of it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    windows = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.sampled_from([1023, 1024, 1025, 2049]))
        data = rng.standard_normal((n, 9)) * 10.0 ** rng.integers(-8, 20, (n, 9))
        data[rng.random((n, 9)) < 0.05] = 0.0
        windows.append(window_from_array(
            data,
            rate=draw(_RATES),
            window_id=f"w{i}" + "é" * draw(st.sampled_from([0, 40, 70])),
            group=draw(st.sampled_from(["g0", "g" * 60])),
            scenario=draw(st.sampled_from(list(Scenario))),
            label=draw(st.sampled_from([None, *TrajectoryLabel])),
        ))
    return windows


@settings(max_examples=15, deadline=None)
@given(_long_windows())
def test_csv_blocks_past_a_block_and_a_prefix_width(windows):
    text = serialize_csv(windows)
    _assert_same_text(text, _reference_csv(windows))
    data = text.encode("utf-8")
    # every block is its own bytes: drawing the next leaves the last intact
    _assert_same_text(b"".join(core._csv_chunks(windows)).decode("utf-8"), text)
    assert dataset_hash(windows) == hashlib.sha256(data).hexdigest()


def _rendered(values):
    """Each float of ``values`` as the CSV writer renders it, in order."""
    values = np.asarray(values, dtype=np.float64).ravel()
    rows = max(2, -(-len(values) // len(AXIS_NAMES)))
    data = np.zeros(rows * len(AXIS_NAMES))
    data[: len(values)] = values
    text = serialize_csv([window_from_array(data.reshape(rows, len(AXIS_NAMES)))])
    fields = [f for line in text.splitlines()[1:] for f in line.split(",")[4:]]
    return fields[: len(values)]


def _beside_an_edge(binade, places):
    """The two floats of [2**binade, 2**(binade + 1)) either side of a
    16-digit decimal ``m / 10**places`` that lies 1 / (2 * 5**places) of an
    ulp past their midpoint: just inside the upper float's rounding
    interval, and just outside the lower one's."""
    ulp = Fraction(2) ** (binade - 52)
    five = 5**places
    # decimal / ulp = m * lift / five, whose fraction must be 1/2 + 1/(2 five)
    lift = 2 ** (52 - binade - places)
    residue = (five + 1) // 2 * pow(lift, -1, five) % five
    first = math.ceil(Fraction(2) ** binade * 10**places)
    m = first + (residue - first) % five
    decimal = Fraction(m, 10**places)
    assert len(str(m)) == 16 and decimal < 2 ** (binade + 1)
    below = math.floor(decimal / ulp) * ulp
    assert decimal - below - ulp / 2 == ulp / (2 * five)
    return [float(below), float(below + ulp)]


# the CSV writer makes the text of 1e-4 <= |x| < 1e15 itself and leaves the
# rest to repr(); these sit on that range's edges and on its hard cases
_FLOAT_CASES = [
    1e-4, 0.00099999999999999999, 9.999999999999999e14, 1e15, 1e16,
    math.nextafter(1e-4, 0), math.nextafter(1e-4, 1), math.nextafter(1e15, 0),
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max,
    -sys.float_info.max,
    # powers of two, whose rounding interval is lopsided
    *(2.0 ** b for b in range(-20, 60, 3)), 2.0 ** -1074, 2.0 ** 1023,
    # integral floats
    1.0, -3.0, 12.0, 100.0, 123456789012345.0, 2.0 ** 53 + 2, 1e22, 1e23,
    # shortest forms of 1 to 17 digits, and ones whose digits carry to 10**k
    *(float("1." + "234567890123456789"[:k]) for k in range(17)),
    *(float("0.0" + "987654321098765432"[:k]) for k in range(1, 18)),
    0.1, 0.2, 0.3, 0.1 + 0.2, 1 / 3, 2 / 3, 0.9999999999999999, 99.99999999999999,
    9.999999999999998, 0.009999999999999998, 999999999999999.9,
    # exact decimal midpoints: 17 digits then a 5, tied between two strings
    1 + 2**-17, 1 + 3 * 2**-17, 7 + 2**-17, 3.5 + 5 * 2**-17,
    # a 16-digit decimal a hair past the edge of a rounding interval
    *_beside_an_edge(0, 15), *_beside_an_edge(-5, 17), *_beside_an_edge(8, 13),
    *_beside_an_edge(3, 15),
]


def test_csv_floats_are_repr_at_the_edges():
    values = [sign * v for v in _FLOAT_CASES for sign in (1.0, -1.0)]
    assert _rendered(values) == [repr(v) for v in values]


def test_csv_floats_are_repr_over_a_seeded_sweep():
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    anywhere = bits.view(np.float64)
    anywhere = anywhere[np.isfinite(anywhere)]
    fast = 10.0 ** rng.uniform(-4, 15, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    for values in (anywhere, fast):
        assert _rendered(values) == [repr(v) for v in values.tolist()]


# a float up to 40 ulps from a power of ten or of two
_BESIDE_AN_EDGE = st.builds(
    lambda edge, ulps, sign: sign * (np.float64(edge).view(np.int64) + ulps).view(np.float64),
    st.sampled_from([float(f"1e{e}") for e in range(-5, 18)] + [2.0**b for b in range(-16, 56)]),
    st.integers(-40, 40),
    st.sampled_from([1.0, -1.0]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_BESIDE_AN_EDGE, min_size=1, max_size=40))
def test_csv_floats_beside_decades_and_powers_of_two_are_repr(values):
    assert _rendered(values) == [repr(float(v)) for v in values]


def test_csv_unlabeled_and_slashless_ids():
    w = window_from_array(np.zeros((3, 9)), window_id="solo", group="solo")
    text = serialize_csv([w])
    # group == id collapses the recording_id to a single token
    assert "solo/solo" in text
    back = ingest_csv(io.StringIO(text))
    assert back[0].label is None

    flat = text.replace("solo/solo", "bare")
    back = ingest_csv(io.StringIO(flat))
    assert back[0].id == "bare"
    assert back[0].recording_group == "bare"


def test_ingest_names_the_line_the_csv_module_cannot_parse():
    text = ",".join(CSV_COLUMNS) + "\ng\r1/w0,indoor,,0.0,0,0,0,0,0,0,0,0,0\n"
    with pytest.raises(DataError, match="line 2: new-line character seen in unquoted field"):
        ingest_csv(io.StringIO(text))


def test_ingest_rejects_malformed():
    with pytest.raises(DataError):
        ingest_csv(io.StringIO(""))
    with pytest.raises(DataError):
        ingest_csv(io.StringIO("a,b,c\n"))
    header = ",".join(CSV_COLUMNS)
    with pytest.raises(DataError):
        ingest_csv(io.StringIO(header + "\ng/w,indoor,straight,0.0,1,2\n"))
    with pytest.raises(DataError):
        ingest_csv(io.StringIO(header + "\ng/w,indoor,straight,0.0,x,0,0,0,0,0,0,0,0\n"))
    # scenario flips mid-recording
    rows = [
        header,
        "g/w,indoor,straight,0.0,0,0,0,0,0,0,0,0,0",
        "g/w,outdoor,straight,0.01,0,0,0,0,0,0,0,0,0",
    ]
    with pytest.raises(DataError):
        ingest_csv(io.StringIO("\n".join(rows) + "\n"))
    # single-sample recording
    rows = [header, "g/w,indoor,straight,0.0,0,0,0,0,0,0,0,0,0"]
    with pytest.raises(DataError):
        ingest_csv(io.StringIO("\n".join(rows) + "\n"))
    # non-monotonic timestamps
    rows = [
        header,
        "g/w,indoor,straight,0.0,0,0,0,0,0,0,0,0,0",
        "g/w,indoor,straight,0.02,0,0,0,0,0,0,0,0,0",
        "g/w,indoor,straight,0.01,0,0,0,0,0,0,0,0,0",
    ]
    with pytest.raises(DataError, match="non-monotonic"):
        ingest_csv(io.StringIO("\n".join(rows) + "\n"))
    # a recording must start at t = 0
    rows = [header] + [
        f"g/w,indoor,straight,{0.5 + i / 10},0,0,0,0,0,0,0,0,0" for i in range(5)
    ]
    with pytest.raises(DataError, match=r"^recording 'g/w' starts at t=0\.5, not at 0$"):
        ingest_csv(io.StringIO("\n".join(rows) + "\n"))
    # one timestamp off the uniform grid
    times = [i / 10 for i in range(6)]
    times[2] += 0.003
    rows = [header] + [f"g/w,indoor,straight,{t},0,0,0,0,0,0,0,0,0" for t in times]
    with pytest.raises(
        DataError, match=r"^recording 'g/w': timestamp t=0\.203 is off the 10 Hz grid by "
    ):
        ingest_csv(io.StringIO("\n".join(rows) + "\n"))
    # an unknown scenario or label (values are case-sensitive), by line
    for scenario, label, message in [
        ("underwater", "straight", "'underwater' is not a valid Scenario"),
        ("indoor", "sideways", "'sideways' is not a valid TrajectoryLabel"),
        ("indoor", "Straight", "'Straight' is not a valid TrajectoryLabel"),
    ]:
        rows = [
            header,
            "g/w,indoor,straight,0.0,0,0,0,0,0,0,0,0,0",
            f"g/w,{scenario},{label},0.1,0,0,0,0,0,0,0,0,0",
        ]
        with pytest.raises(DataError, match=f"^line 3: {message}$"):
            ingest_csv(io.StringIO("\n".join(rows) + "\n"))
    # an error names the physical line: each row of a window whose id
    # holds a quoted LF spans two, so the header and that window's two
    # rows end on line 5, and the short row after them is line 6, not the
    # fourth record
    quoted = window_from_array(np.zeros((2, 9)), window_id="w\n1", label=TrajectoryLabel.STRAIGHT)
    with pytest.raises(DataError, match=r"^line 6: expected 13 columns, got 2$"):
        ingest_csv(io.StringIO(serialize_csv([quoted]) + "x,y\n"))


@pytest.mark.parametrize(
    "t, message",
    [
        ("inf", "^line 3: timestamp t=inf is not finite$"),
        ("nan", "^line 3: timestamp t=nan is not finite$"),
        ("1e-320", "^recording 'g/w': timestamps 0 to 1e-320 give no finite rate$"),
    ],
)
def test_ingest_refuses_a_timestamp_that_gives_no_finite_rate(t, message):
    # refused before any division by it, so numpy warns of nothing
    rows = [
        ",".join(CSV_COLUMNS),
        "g/w,indoor,straight,0,0,0,0,0,0,0,0,0,0",
        f"g/w,indoor,straight,{t},0,0,0,0,0,0,0,0,0",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=message):
            ingest_csv(io.StringIO("\n".join(rows) + "\n"))


def test_downsample_mean_pool_oracle():
    # 12 samples at 6 Hz -> 2 Hz: buckets of 3, means hand-computable
    data = np.zeros((12, 9))
    data[:, 5] = np.arange(12, dtype=np.float64)  # gz ramp
    w = window_from_array(data, rate=6.0, label=TrajectoryLabel.STRAIGHT)
    d = downsample(w, 2.0)
    assert len(d) == 4
    assert d.rate == 2.0
    got = d.data[:, 5]
    assert np.array_equal(got, np.array([1.0, 4.0, 7.0, 10.0]))
    assert d.label is w.label and d.id == w.id


def test_downsample_drops_partial_bucket():
    data = np.zeros((14, 9))
    data[:, 0] = 1.0
    w = window_from_array(data, rate=6.0)
    d = downsample(w, 2.0)  # bucket 3 -> 4 full buckets, 2 samples dropped
    assert len(d) == 4


def test_downsample_standard_rates():
    w = window_from_array(np.zeros((1000, 9)), rate=100.0)
    d = downsample(w, 3.0)  # bucket round(100/3) = 33 -> 30 samples
    assert len(d) == 30
    assert d.rate == 3.0


def test_downsample_rejections():
    w = window_from_array(np.zeros((10, 9)), rate=10.0)
    with pytest.raises(DataError):
        downsample(w, 0.0)
    with pytest.raises(DataError):
        downsample(w, 20.0)
    with pytest.raises(DataError):
        downsample(w, 1.0)  # only one output bucket
    with pytest.raises(DataError):
        downsample(w, math.nan)


def test_largest_remainder_properties():
    rng = np.random.default_rng(2)
    for _ in range(300):
        k = int(rng.integers(1, 6))
        weights = list(rng.uniform(0.1, 5.0, k))
        total = int(rng.integers(0, 500))
        alloc = largest_remainder(total, weights)
        assert sum(alloc) == total
        wsum = sum(weights)
        for a, w in zip(alloc, weights):
            exact = total * w / wsum
            assert math.floor(exact) <= a <= math.ceil(exact)


def test_split_allocation_lands_within_one_window_of_every_share():
    # split_dataset holds out u unseen windows with |u - n/6| <= 1, then
    # cuts the rest 3:1:1 by largest remainder with no further adjustment;
    # the deviations from n/2, n/6 and n/6 repeat with period 30 in n, so
    # n = 6..35 covers every dataset size
    for n in range(6, 36):
        for u in range(math.ceil(n / 6 - 1), math.floor(n / 6 + 1) + 1):
            alloc = largest_remainder(n - u, [3, 1, 1])
            for count, exact in zip(alloc, (n / 2, n / 6, n / 6)):
                assert abs(count - exact) <= 1, (n, u, alloc)


def test_largest_remainder_position_tie_break():
    assert largest_remainder(1, [1, 1]) == [1, 0]
    assert largest_remainder(2, [1, 1, 1, 1]) == [1, 1, 0, 0]
    assert largest_remainder(6, [3, 1, 1, 1]) == [3, 1, 1, 1]


def test_split_assignment_json_round_trip():
    assignment = SplitAssignment(
        {"a": Part.TRAIN, "b": Part.UNSEEN_TEST, "c": Part.VALIDATION}
    )
    data = assignment.to_json_dict()
    assert data == {"a": "train", "b": "unseen_test", "c": "validation"}
    back = SplitAssignment.from_json_dict(data)
    assert back.assignment == dict(assignment.assignment)
    with pytest.raises(DataError):
        SplitAssignment.from_json_dict({"a": "holdout"})


def test_split_assignment_validate_catches_violations():
    windows = [
        window_from_array(np.zeros((2, 9)), window_id=f"w{i}", group=f"g{i // 2}")
        for i in range(6)
    ]
    good = SplitAssignment(
        {
            "w0": Part.TRAIN, "w1": Part.TRAIN, "w2": Part.TRAIN,
            "w3": Part.VALIDATION, "w4": Part.SEEN_TEST, "w5": Part.UNSEEN_TEST,
        }
    )
    with pytest.raises(DataError):
        good.validate(windows)  # w4 and w5 share g2: unseen group leaks

    windows = [
        window_from_array(np.zeros((2, 9)), window_id=f"w{i}", group=f"g{i}")
        for i in range(6)
    ]
    good.validate(windows)  # now every group is its own window

    missing = SplitAssignment({f"w{i}": Part.TRAIN for i in range(5)})
    with pytest.raises(DataError):
        missing.validate(windows)

    lopsided = SplitAssignment({f"w{i}": Part.TRAIN for i in range(6)})
    with pytest.raises(DataError):
        lopsided.validate(windows)

    assert good.counts() == {
        Part.TRAIN: 3, Part.VALIDATION: 1, Part.SEEN_TEST: 1, Part.UNSEEN_TEST: 1,
    }
    assert good.part_ids(Part.TRAIN) == ["w0", "w1", "w2"]


def test_axis_names_match_row_layout():
    assert AXIS_NAMES == ("ax", "ay", "az", "gx", "gy", "gz", "mx", "my", "mz")
    assert CSV_COLUMNS == ("recording_id", "scenario", "label", "t", *AXIS_NAMES)
    assert [part.value for part in Part] == ["train", "validation", "seen_test", "unseen_test"]
