"""Canonical IMU data model: labeled windows, CSV ingestion, mean-pooling
downsampling, and the 3:1:1:1 train/validation/seen-test/unseen-test
split.

A window is one read-only (n, 9) float64 array in :data:`AXIS_NAMES`
order plus its rate, label and provenance. Units are SI-ish:
accelerometer m/s^2, gyroscope rad/s, magnetometer microtesla. Sample
``i`` is taken at ``t = i / rate`` seconds from the start of the window;
timestamps are not stored. Everything here is immutable after
construction and safe to share across threads.

CSV layout (UTF-8, header required)::

    recording_id,scenario,label,t,ax,ay,az,gx,gy,gz,mx,my,mz

The CSV has no dedicated recording-group column, so ``recording_id``
is written as ``<recording_group>/<window_id>``; on ingestion the part
before the first slash is taken as the group (the whole id when there
is no slash). The ``t`` column is ``i / rate``; ingestion refuses a
recording that does not start at 0 or strays from that grid. Floats are
written as :func:`repr` writes them, the shortest string that parses back
to the identical value, so a serialize/ingest round trip is exact. Those
with 1e-4 <= |x| < 1e15, nearly all of a dataset, are made by numpy a
block of rows at a time: an exact (Dekker) product scales each to a
17-digit integer, and its shortest digits are the coarsest rounding of
that integer that stays inside the float's rounding interval, which is
how repr chooses them. The few that this cannot settle exactly (ties and
points within rounding error of an interval's edge), and every other
float, go through repr() itself.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import DataError

# Ingested timestamps must sit within this slack (seconds) of the i / rate grid.
TIMESTAMP_TOLERANCE_S = 1e-6
# Significant digits an ingested rate is first snapped to; (n - 1) / t_last
# carries about 15, so the snap removes the rounding of the written timestamps.
# Rates with more digits (100 / 3) are found by trying up to 17, the most a
# float64 needs.
RATE_SIGNIFICANT_DIGITS = 12
MAX_RATE_SIGNIFICANT_DIGITS = 17

# Axis order used everywhere a window is flattened to a (n, 9) array.
AXIS_NAMES = ("ax", "ay", "az", "gx", "gy", "gz", "mx", "my", "mz")

CSV_COLUMNS = ("recording_id", "scenario", "label", "t", *AXIS_NAMES)


class TrajectoryLabel(Enum):
    """The four trajectory classes, in the fixed tie-break order."""

    STRAIGHT = "straight"
    TURN_RIGHT = "turn right"
    TURN_LEFT = "turn left"
    TURN_AROUND = "turn around"

    @property
    def index(self) -> int:
        return LABEL_ORDER.index(self)


LABEL_ORDER = tuple(TrajectoryLabel)
N_CLASSES = len(LABEL_ORDER)


class Scenario(Enum):
    INDOOR = "indoor"
    OUTDOOR = "outdoor"


class Part(Enum):
    """The four dataset partitions, in split order."""

    TRAIN = "train"
    VALIDATION = "validation"
    SEEN_TEST = "seen_test"
    UNSEEN_TEST = "unseen_test"


SPLIT_WEIGHTS = {Part.TRAIN: 3, Part.VALIDATION: 1, Part.SEEN_TEST: 1, Part.UNSEEN_TEST: 1}


@dataclass(frozen=True, eq=False)
class TrajectoryWindow:
    """A fixed-duration labeled window; the unit of classification.

    ``data`` is a read-only (n, 9) float64 array in :data:`AXIS_NAMES`
    order. Sample ``i`` is taken at ``t = i / rate`` seconds, so the
    timestamps are implicit. ``recording_group`` identifies the
    scene/session the window came from and drives the seen-vs-unseen
    partitioning: unseen-test windows belong to groups held out of
    training entirely. Windows compare by identity (an array field has
    no usable ``==``).
    """

    id: str
    scenario: Scenario
    recording_group: str
    rate: float
    data: np.ndarray
    label: Optional[TrajectoryLabel] = None

    def __post_init__(self):
        data = np.array(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != len(AXIS_NAMES):
            raise DataError(
                f"window {self.id!r} data must be (n, {len(AXIS_NAMES)}), got {data.shape}"
            )
        if data.shape[0] < 2:
            raise DataError(f"window {self.id!r} needs at least 2 samples")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise DataError(f"window {self.id!r} needs a positive finite rate, got {self.rate}")
        if not np.isfinite(data).all():
            raise DataError(f"window {self.id!r} contains a non-finite value")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    def __len__(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class SplitAssignment:
    """Total partition of window ids over the four parts."""

    assignment: Mapping[str, Part]

    def part_ids(self, part: Part) -> list[str]:
        return sorted(wid for wid, p in self.assignment.items() if p is part)

    def counts(self) -> dict[Part, int]:
        out = {part: 0 for part in Part}
        for part in self.assignment.values():
            out[part] += 1
        return out

    def validate(self, windows: Sequence[TrajectoryWindow]) -> None:
        """Check partition totality, the 3:1:1:1 ratio (each part within
        one window of its exact share), and unseen-group exclusion."""
        ids = [w.id for w in windows]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate window ids in dataset")
        if set(ids) != set(self.assignment):
            raise DataError("split does not cover exactly the dataset's window ids")
        n = len(ids)
        total_weight = sum(SPLIT_WEIGHTS.values())
        counts = self.counts()
        for part in Part:
            exact = n * SPLIT_WEIGHTS[part] / total_weight
            if abs(counts[part] - exact) > 1:
                raise DataError(
                    f"{part.value} has {counts[part]} windows; exact share is {exact:.2f}"
                )
        group_of = {w.id: w.recording_group for w in windows}
        unseen_groups = {group_of[wid] for wid in self.part_ids(Part.UNSEEN_TEST)}
        for part in (Part.TRAIN, Part.VALIDATION, Part.SEEN_TEST):
            for wid in self.part_ids(part):
                if group_of[wid] in unseen_groups:
                    raise DataError(
                        f"recording group {group_of[wid]!r} appears in both "
                        f"unseen_test and {part.value}"
                    )

    def to_json_dict(self) -> dict[str, str]:
        return {wid: part.value for wid, part in sorted(self.assignment.items())}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, str]) -> "SplitAssignment":
        try:
            return cls({wid: Part(v) for wid, v in data.items()})
        except ValueError as exc:
            raise DataError(f"unknown split part ({exc})") from exc


def _csv_prefix(*fields: str) -> str:
    """``fields`` as the csv-quoted start of a row, without a trailing comma."""
    line = io.StringIO()
    # csv quotes a field that holds a character of the line terminator, so
    # "\r\n" quotes a CR as it quotes an LF
    csv.writer(line, lineterminator="\r\n").writerow(fields)
    return line.getvalue()[:-2]


# A float x with 1e-4 <= |x| < 1e15 has a fixed-point repr, and numpy makes
# it here, many at a time, from x's shortest round-trip digits. Every other
# float, and any whose digits need more than this exact arithmetic settles,
# is left to repr().
_FAST_LOW, _FAST_HIGH = 1e-4, 1e15
_POW10 = 10.0 ** np.arange(21)  # exact: 10**22 is the last power float64 holds
_SPLITTER = 2.0 ** 27 + 1  # Veltkamp's split of a double into two 26-bit halves
_DIGITS = 17  # a float64 never needs more significant digits than this
# _shortest_digits's float distances are exact to 1e-13; one within this of
# a bound is left undecided
_GUARD = 1e-9

# One float's field in a block's byte matrix. Every character a fixed-point
# repr can hold has its own column, so a float's text is a choice of columns
# (its mask) over the same template, and the block is compressed once:
#   0       "-"
#   1, 2    "0."       the integer part and point of a float below 1
#   3-5     "000"      leading zeros of its fraction
#   6 + 2j  digit j    (j = 0..16)
#   7 + 2j  "."        the point after digit j (j = 0..15)
# A float left to repr() writes its text over the first columns instead;
# the longest, "-2.2250738585072014e-308", takes 24 of them.
_FIELD_WIDTH = 6 + 2 * _DIGITS - 1
_FIELD_TEXT = np.frombuffer(b"-0.000" + b"0." * (_DIGITS - 1) + b"0", np.uint8)
_POINTS = range(-3, 16)  # decimal point positions: 1e-4 is 0.1e-3, 1e15 - 1 is 0.9...e15


def _field_mask(negative: bool, point: int, digits: int) -> list[bool]:
    """The columns that spell a float with this sign, decimal point position
    (its value is 0.d0d1... * 10**point) and number of shortest digits."""
    keep = [False] * _FIELD_WIDTH
    keep[0] = negative
    if point <= 0:
        keep[1] = keep[2] = True
        keep[3 : 3 - point] = [True] * -point
    else:
        keep[5 + 2 * point] = True
    # the zeros past the shortest digits run to the point's first place, as
    # repr writes 12.0 (no float of the fast kind needs them, being integral)
    for j in range(max(digits, point + 1)):
        keep[6 + 2 * j] = True
    return keep


# the masks by (negative, point, digits), in the order _format_fields keys them
_FIELD_MASKS = np.array(
    [
        _field_mask(negative, point, digits)
        for negative in (False, True)
        for point in _POINTS
        for digits in range(1, _DIGITS + 1)
    ]
)


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * b`` exactly, as the rounded product and its rounding error
    (Dekker 1971); no intermediate overflows or underflows in the fast range."""
    product = a * b
    t = a * _SPLITTER
    a_high = t - (t - a)
    a_low = a - a_high
    t = b * _SPLITTER
    b_high = t - (t - b)
    b_low = b - b_high
    error = ((a_high * b_high - product) + a_high * b_low + a_low * b_high) + a_low * b_low
    return product, error


def _shortest_digits(
    a: np.ndarray, binary_exponent: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The shortest round-trip digits of each positive float of ``a``, all
    in [1e-4, 1e15), neither a power of two nor integral; ``a`` is
    ``m * 2**binary_exponent`` with ``0.5 < m < 1``.

    Returns the digits as a 17-digit integer (the digits, then zeros), the
    decimal point's position, the number of digits, and a mask of the
    elements whose digits are not settled here; those must come from
    repr().

    ``a * 10**(16 - e)``, for the decimal exponent ``e``, is a 17-digit
    number y, which the exact product splits into an integer and a
    fraction. ``a`` is not a power of two, so every real within half an
    ulp of it reads back as ``a``; scaled, that half-ulp is the limit,
    between 0.55 and 12. For ``j`` = 0, 1, ..., 16 the candidate is y
    rounded to a multiple of 10**j. Each is no nearer to y than the one
    before, so the shortest digits are the last candidate of the leading
    run within the limit; being the nearest string of its length, it is
    also the one repr chooses. From ``j`` = 2 on, at most one multiple of
    10**j lies within the limit, so the run past 2 is the number of
    further zeros the candidate at 2 ends in.

    The float distances are exact to 1e-13, so a distance within
    :data:`_GUARD` of the limit, or a near tie between two candidates, is
    left undecided, as is an ``e`` that ``log10`` misses.
    """
    exponent = np.clip(np.floor(np.log10(a)), -4, 14).astype(np.int64)
    scale = _POW10[16 - exponent]
    product, error = _two_product(a, scale)
    whole = np.floor(error)
    # product >= 1e16 is an even integer; error is exact and below 8
    y = product.astype(np.int64) + whole.astype(np.int64)
    fraction = error - whole
    limit = np.ldexp(scale, binary_exponent - 54)
    # j = 0, 1, 2 from y's last two digits and its fraction. At j = 0 the
    # nearest integer is within 0.5, inside every limit
    last = y % 100
    tail = last + fraction
    near = [np.rint(tail), np.rint(tail / 10) * 10, np.rint(tail / 100) * 100]
    gap = [np.abs(tail - n) for n in near]
    fits_1 = gap[1] <= limit + _GUARD
    fits_2 = fits_1 & (gap[2] <= limit + _GUARD)
    nearest = np.where(fits_2, near[2], np.where(fits_1, near[1], near[0]))
    distance = np.where(fits_2, gap[2], np.where(fits_1, gap[1], gap[0]))
    half_step = np.where(fits_2, 50.0, np.where(fits_1, 5.0, 0.5))
    digits = y - last + nearest.astype(np.int64)
    undecided = (np.abs(distance - limit) < _GUARD) | (np.abs(distance - half_step) < _GUARD)
    level = fits_1 + fits_2.astype(np.int64)
    # j = 3 ... 16: the zeros that end the candidate at 2, which has 15
    # digits before them. A multiple of 10**j divided by 10**j is an
    # integer, and no other 15-digit integer's quotient rounds to one
    live = np.flatnonzero(fits_2)
    hundreds = (digits[live] // 100).astype(np.float64) / _POW10[1:15, None]
    level[live] += (hundreds == np.floor(hundreds)).sum(axis=0)
    # so would a log10 off by one; rounding up to 10**17 would move the point
    undecided |= (y < 10 ** (_DIGITS - 1)) | (digits >= 10**_DIGITS)
    return digits, exponent + 1, _DIGITS - level, undecided


def _format_fields(values: np.ndarray, chars: np.ndarray, mask: np.ndarray) -> None:
    """Write each float of the (n, m) ``values`` as :func:`repr` writes it
    into its field of ``chars`` and ``mask`` (both (n, m, _FIELD_WIDTH)):
    the field's text is its ``chars`` where its ``mask`` is set."""
    x = values.ravel()
    a = np.abs(x)
    mantissa, binary_exponent = np.frexp(a)
    fast = (a >= _FAST_LOW) & (a < _FAST_HIGH) & (mantissa != 0.5) & (a != np.floor(a))
    # the rest take 1.5, a float of the fast kind, and are overwritten below
    digits, point, count, undecided = _shortest_digits(
        np.where(fast, a, 1.5), np.where(fast, binary_exponent, 1)
    )
    chars[...] = _FIELD_TEXT
    for j in range(_DIGITS - 1, -1, -1):
        higher = digits // 10
        chars[..., 6 + 2 * j] = (digits - 10 * higher + ord("0")).reshape(values.shape)
        digits = higher
    keys = (((x < 0) * len(_POINTS) + point - _POINTS[0]) * _DIGITS + count - 1)
    np.take(_FIELD_MASKS, keys.reshape(values.shape), axis=0, out=mask, mode="clip")
    rest = np.flatnonzero(~fast | undecided)
    if len(rest):
        # NUL-padded to the longest repr, 24 characters
        texts = np.array([repr(v) for v in x[rest].tolist()], dtype="S24")
        codes = texts.view(np.uint8).reshape(len(rest), 24)
        field = np.unravel_index(rest, values.shape)
        chars[field + (slice(0, 24),)] = codes
        mask[field] = False
        mask[field + (slice(0, 24),)] = codes != 0


# rows rendered per block, so that a long window's block stays bounded
_CSV_BLOCK_ROWS = 1024


def _csv_block(prefix: bytes, values: np.ndarray) -> bytes:
    """The CSV rows that start with ``prefix`` and go on with the (n, m)
    ``values``, n <= :data:`_CSV_BLOCK_ROWS`, as UTF-8 bytes.

    The rows are built in one byte matrix, a field per float after the
    prefix, and compressed to the kept bytes once.
    """
    n, m = values.shape
    rows = np.empty((n, len(prefix) + m * (_FIELD_WIDTH + 1)), np.uint8)
    keep = np.ones(rows.shape, bool)
    rows[:, : len(prefix)] = np.frombuffer(prefix, np.uint8)
    # splitting the last axis of a slice of rows is always a view
    fields = rows[:, len(prefix) :].reshape(n, m, _FIELD_WIDTH + 1)
    fields[:, :, -1] = ord(",")
    fields[:, -1, -1] = ord("\n")
    masks = keep[:, len(prefix) :].reshape(n, m, _FIELD_WIDTH + 1)
    _format_fields(values, fields[:, :, :-1], masks[:, :, :-1])
    # the flat np.compress, not rows[keep]: 2-D boolean indexing takes 5x as long
    return np.compress(keep.ravel(), rows.ravel()).tobytes()


def _csv_chunks(windows: Iterable[TrajectoryWindow]) -> Iterator[bytes]:
    """The canonical CSV as UTF-8 bytes: the header line, then each
    window's rows in blocks of at most :data:`_CSV_BLOCK_ROWS`."""
    yield (",".join(CSV_COLUMNS) + "\n").encode("utf-8")
    for w in windows:
        label = w.label.value if w.label is not None else ""
        prefix = _csv_prefix(f"{w.recording_group}/{w.id}", w.scenario.value, label)
        # the floats follow unquoted: no float repr holds a character the
        # csv dialect would quote
        prefix_bytes = (prefix + ",").encode("utf-8")
        times = np.arange(len(w)) / w.rate
        for start in range(0, len(w), _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            yield _csv_block(prefix_bytes, np.column_stack((times[block], w.data[block])))


def serialize_csv(windows: Iterable[TrajectoryWindow]) -> str:
    """Render windows in the canonical CSV layout (see module docstring).

    The whole text is built in memory; :func:`dataset_hash` streams the
    same text, one block of rows at a time, to a hash and a file instead.
    """
    return "".join(str(chunk, "utf-8") for chunk in _csv_chunks(windows))


def dataset_hash(
    windows: Sequence[TrajectoryWindow], write_to: Optional[Path] = None
) -> str:
    """SHA-256 of the canonical CSV serialization. With ``write_to``, the
    CSV bytes are also written to that file, so one serialization serves
    both.

    The text is hashed and written one block of rows at a time, so the
    whole file is never held in memory; the bytes and the digest are those
    of ``serialize_csv(windows)``.
    """
    digest = hashlib.sha256()
    with open(write_to, "wb") if write_to is not None else nullcontext() as fh:
        for chunk in _csv_chunks(windows):
            digest.update(chunk)
            if fh is not None:
                fh.write(chunk)
    return digest.hexdigest()


def _infer_rate(times: np.ndarray, raw: float) -> float:
    """The rate whose grid ``arange(n) / rate`` the timestamps sit on.

    ``raw``, the finite ``(n - 1) / t_last``, is rounded to 12, 13, ... 17
    significant digits, then its two float neighbours are tried, and the
    first candidate whose grid equals ``times`` exactly wins. (The quotient
    can land one ulp off the rate the grid was written with, 40 samples at
    1000/7 Hz for one, and then no rounding of it reproduces the grid.)
    When none does (a file this package did not write), the 12-digit
    rounding is returned and the caller's tolerance check decides.
    """
    grid = np.arange(len(times))
    candidates = [
        float(f"{raw:.{digits}g}")
        for digits in range(RATE_SIGNIFICANT_DIGITS, MAX_RATE_SIGNIFICANT_DIGITS + 1)
    ]
    candidates += [math.nextafter(raw, 0.0), math.nextafter(raw, math.inf)]
    for rate in candidates:
        if np.array_equal(grid / rate, times):
            return rate
    return candidates[0]


def _csv_rows(stream: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """The csv rows of ``stream``, each with the number of the physical
    line it ends on (a quoted line break in a field spans lines); a row
    the csv module cannot parse raises ``DataError`` naming its line."""
    reader = csv.reader(stream)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from None


def ingest_csv(stream: Iterable[str]) -> list[TrajectoryWindow]:
    """Parse the canonical CSV layout into windows.

    One window is produced per distinct recording id, in order of first
    appearance. A recording's timestamps must start at 0 and sit on a
    uniform grid ``i / rate`` within :data:`TIMESTAMP_TOLERANCE_S`. The
    rate is inferred from the last timestamp (see :func:`_infer_rate`),
    which recovers the exact grid of any file this package writes, so
    ingest then serialize is byte-exact.
    """
    reader = _csv_rows(stream)
    try:
        _, header = next(reader)
    except StopIteration:
        raise DataError("CSV stream is empty (missing header)")
    if tuple(header) != CSV_COLUMNS:
        raise DataError(f"unexpected CSV header: {header!r}")

    rows: dict[str, list[list[float]]] = {}
    meta: dict[str, tuple[Scenario, Optional[TrajectoryLabel]]] = {}
    for line_no, row in reader:
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise DataError(
                f"line {line_no}: expected {len(CSV_COLUMNS)} columns, got {len(row)}"
            )
        recording_id, scenario_text, label_text = row[0], row[1], row[2]
        try:
            scenario = Scenario(scenario_text)
            label = TrajectoryLabel(label_text) if label_text else None
            numbers = [float(v) for v in row[3:]]
        except ValueError as exc:
            raise DataError(f"line {line_no}: {exc}") from exc
        if not math.isfinite(numbers[0]):
            raise DataError(f"line {line_no}: timestamp t={numbers[0]!r} is not finite")
        if recording_id not in rows:
            rows[recording_id] = []
            meta[recording_id] = (scenario, label)
        elif meta[recording_id] != (scenario, label):
            raise DataError(
                f"line {line_no}: scenario/label changed within recording "
                f"{recording_id!r}"
            )
        rows[recording_id].append(numbers)

    windows = []
    for recording_id, numbers in rows.items():
        scenario, label = meta[recording_id]
        if len(numbers) < 2:
            raise DataError(f"recording {recording_id!r} has fewer than 2 samples")
        block = np.array(numbers, dtype=np.float64)
        times = block[:, 0]
        if times[0] != 0.0:
            raise DataError(
                f"recording {recording_id!r} starts at t={float(times[0])!r}, not at 0"
            )
        if np.any(np.diff(times) <= 0):
            raise DataError(
                f"recording {recording_id!r} has non-monotonic timestamps"
            )
        # a Python float division, which gives inf where numpy's would warn
        last = float(times[-1])
        raw = (len(times) - 1) / last
        if not math.isfinite(raw):
            raise DataError(
                f"recording {recording_id!r}: timestamps 0 to {last!r} give no finite rate"
            )
        rate = _infer_rate(times, raw)
        drift = np.abs(times - np.arange(len(times)) / rate)
        if drift.max() > TIMESTAMP_TOLERANCE_S:
            at = int(np.argmax(drift))
            raise DataError(
                f"recording {recording_id!r}: timestamp t={float(times[at])!r} is off "
                f"the {rate:g} Hz grid by {drift[at]:.3g} s"
            )
        group, _, window_id = recording_id.partition("/")
        if not window_id:
            group, window_id = recording_id, recording_id
        windows.append(
            TrajectoryWindow(
                id=window_id,
                scenario=scenario,
                recording_group=group,
                rate=rate,
                data=block[:, 1:],
                label=label,
            )
        )
    return windows


def downsample(w: TrajectoryWindow, target_rate: float) -> TrajectoryWindow:
    """Mean-pooling decimation to ``target_rate``.

    Source samples are grouped into buckets of ``round(rate/target_rate)``
    consecutive samples; each output sample is the per-channel mean of
    its bucket, on the uniform target grid. A trailing partial bucket is
    dropped.
    """
    # written so that NaN fails it too
    if not 0 < target_rate <= w.rate:
        raise DataError(
            f"target rate {target_rate} must be in (0, {w.rate}] for window {w.id!r}"
        )
    bucket = max(1, round(w.rate / target_rate))
    n_out = len(w) // bucket
    if n_out < 2:
        raise DataError(
            f"window {w.id!r} too short to downsample to {target_rate} Hz"
        )
    pooled = w.data[: n_out * bucket].reshape(n_out, bucket, len(AXIS_NAMES)).mean(axis=1)
    return TrajectoryWindow(
        id=w.id,
        scenario=w.scenario,
        recording_group=w.recording_group,
        rate=float(target_rate),
        data=pooled,
        label=w.label,
    )


def largest_remainder(total: int, weights: Sequence[float]) -> list[int]:
    """Split ``total`` into integers proportional to ``weights``.

    Each result is the floor or ceiling of its exact share; remainders
    go to the largest fractional parts, ties broken by position.
    """
    weight_sum = sum(weights)
    exact = [total * w / weight_sum for w in weights]
    base = [int(math.floor(e)) for e in exact]
    remainder = total - sum(base)
    fractions = sorted(
        range(len(weights)), key=lambda i: (-(exact[i] - base[i]), i)
    )
    for i in fractions[:remainder]:
        base[i] += 1
    return base


def split_dataset(windows: Sequence[TrajectoryWindow], seed: int) -> SplitAssignment:
    """Deterministic 3:1:1:1 split with whole recording groups held out as
    the unseen test set.

    Unseen groups are drawn per scenario so every scenario contributes
    unseen windows; the remaining windows are shuffled globally and cut
    into train/validation/seen-test by largest-remainder allocation.
    With the unseen count within one window of n/6, that allocation puts
    every part within one window of its exact share of n.
    """
    if seed < 0:
        raise DataError("seed must be a nonnegative integer")
    n = len(windows)
    if n < 6:
        raise DataError(f"need at least 6 windows to split, got {n}")
    ids = [w.id for w in windows]
    if len(set(ids)) != n:
        raise DataError("duplicate window ids in dataset")

    rng = np.random.default_rng(seed)
    by_scenario: dict[Scenario, dict[str, list[str]]] = {}
    for w in windows:
        by_scenario.setdefault(w.scenario, {}).setdefault(w.recording_group, []).append(w.id)
    for scenario, groups in by_scenario.items():
        if len(groups) < 2:
            raise DataError(
                f"scenario {scenario.value!r} has {len(groups)} recording group(s); "
                "at least 2 are needed so one can be held out unseen"
            )

    # Each scenario aims for its proportional share of the unseen sixth.
    # The carry folds earlier scenarios' rounding into later targets so
    # per-scenario deviations cancel instead of accumulating. Each total
    # lands within one window of its target, so the carry, which is also
    # the unseen count's distance from n/6, stays within one window.
    unseen_ids: list[str] = []
    carry = 0.0
    total_weight = sum(SPLIT_WEIGHTS.values())
    for scenario in [s for s in Scenario if s in by_scenario]:
        groups = by_scenario[scenario]
        n_scenario = sum(len(v) for v in groups.values())
        exact_share = n_scenario * SPLIT_WEIGHTS[Part.UNSEEN_TEST] / total_weight
        target = exact_share - carry
        names = sorted(groups)
        shuffled = [names[i] for i in rng.permutation(len(names))]
        selected: list[str] = []
        total = 0
        for name in shuffled:
            if total >= target:
                break
            size = len(groups[name])
            if total + size <= target + 1:
                selected.append(name)
                total += size
        if total < target - 1:
            raise DataError(
                f"cannot hold out whole recording groups totalling ~{target:.1f} "
                f"windows in scenario {scenario.value!r}; add more or smaller groups"
            )
        if len(selected) >= len(names):
            raise DataError(
                f"scenario {scenario.value!r} would have every group held out; "
                "add more recording groups"
            )
        carry += total - exact_share
        for name in selected:
            unseen_ids.extend(groups[name])

    unseen_set = set(unseen_ids)
    rest = sorted(wid for wid in ids if wid not in unseen_set)
    rest = [rest[i] for i in rng.permutation(len(rest))]

    seen_parts = (Part.TRAIN, Part.VALIDATION, Part.SEEN_TEST)
    alloc = largest_remainder(len(rest), [SPLIT_WEIGHTS[part] for part in seen_parts])

    assignment: dict[str, Part] = {wid: Part.UNSEEN_TEST for wid in unseen_ids}
    cursor = 0
    for part, count in zip(seen_parts, alloc):
        for wid in rest[cursor : cursor + count]:
            assignment[wid] = part
        cursor += count

    split = SplitAssignment(assignment)
    split.validate(windows)
    return split
