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
rendered with :func:`repr`, the shortest string that parses back to the
identical value, so a serialize/ingest round trip is exact.
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
    csv.writer(line, lineterminator="\n").writerow(fields)
    return line.getvalue()[:-1]


def _csv_chunks(windows: Iterable[TrajectoryWindow]) -> Iterator[str]:
    """The canonical CSV text as the header line, then one chunk per window."""
    yield ",".join(CSV_COLUMNS) + "\n"
    # the "t" strings of one rate, as long as its longest window so far;
    # windows of one rate share them instead of each repr-ing its own
    times: dict[float, list[str]] = {}
    for w in windows:
        label = w.label.value if w.label is not None else ""
        prefix = _csv_prefix(f"{w.recording_group}/{w.id}", w.scenario.value, label)
        rate = float(w.rate)
        t = times.setdefault(rate, [])
        t.extend(repr(i / rate) for i in range(len(t), len(w.data)))
        # tolist() yields Python floats, whose repr is the shortest string
        # that parses back to the same float; no float repr holds a
        # character the csv dialect would quote
        yield "".join(
            f"{prefix},{ti},{','.join(map(repr, row))}\n"
            for ti, row in zip(t, w.data.tolist())
        )


def serialize_csv(windows: Iterable[TrajectoryWindow]) -> str:
    """Render windows in the canonical CSV layout (see module docstring).

    The whole text is built in memory; :func:`dataset_hash` streams the
    same text, one window at a time, to a hash and a file instead.
    """
    return "".join(_csv_chunks(windows))


def dataset_hash(
    windows: Sequence[TrajectoryWindow], write_to: Optional[Path] = None
) -> str:
    """SHA-256 of the canonical CSV serialization. With ``write_to``, the
    CSV bytes are also written to that file, so one serialization serves
    both.

    The text is hashed and written one window's chunk at a time, so at
    most one window's CSV is held in memory, never the whole file; the
    bytes and the digest are those of ``serialize_csv(windows)``.
    """
    digest = hashlib.sha256()
    with open(write_to, "wb") if write_to is not None else nullcontext() as fh:
        for chunk in _csv_chunks(windows):
            data = chunk.encode("utf-8")
            digest.update(data)
            if fh is not None:
                fh.write(data)
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


def ingest_csv(stream: Iterable[str]) -> list[TrajectoryWindow]:
    """Parse the canonical CSV layout into windows.

    One window is produced per distinct recording id, in order of first
    appearance. A recording's timestamps must start at 0 and sit on a
    uniform grid ``i / rate`` within :data:`TIMESTAMP_TOLERANCE_S`. The
    rate is inferred from the last timestamp (see :func:`_infer_rate`),
    which recovers the exact grid of any file this package writes, so
    ingest then serialize is byte-exact.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("CSV stream is empty (missing header)")
    if tuple(header) != CSV_COLUMNS:
        raise DataError(f"unexpected CSV header: {header!r}")

    rows: dict[str, list[list[float]]] = {}
    meta: dict[str, tuple[Scenario, Optional[TrajectoryLabel]]] = {}
    for line_no, row in enumerate(reader, start=2):
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

    scenarios = sorted(by_scenario, key=lambda s: s.value)

    # Each scenario aims for its proportional share of the unseen sixth.
    # The carry folds earlier scenarios' rounding into later targets so
    # per-scenario deviations cancel instead of accumulating. Each total
    # lands within one window of its target, so the carry, which is also
    # the unseen count's distance from n/6, stays within one window.
    unseen_ids: list[str] = []
    carry = 0.0
    total_weight = sum(SPLIT_WEIGHTS.values())
    for scenario in scenarios:
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
