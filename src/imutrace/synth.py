"""Deterministic kinematic simulator for labeled 9-axis IMU windows.

A window is produced by driving a planar unicycle through a motion
profile (straight, or straight/turn/straight with a net heading change
of +/-90 or 180 degrees), then sampling ideal sensors along it:

* gyro      = (0, 0, yaw rate) plus Gaussian noise
* accel     = (speed * yaw rate, 0, gravity) plus Gaussian noise and
              occasional surface bumps on the vertical axis
* magnetic  = the earth field rotated by the heading, plus Gaussian noise

Yaw-rate transitions between profile segments are smoothed with a short
symmetric ramp (:data:`YAW_RAMP_S`). The ramp is odd-symmetric about the
segment boundary, so the net heading change of the window equals the
profile's segment sum exactly, while the sampled gyro trace becomes
smooth enough that a trapezoidal integral recovers the heading change to
well under a milliradian at 100 Hz. One function, ``_track``, evaluates
one ramp formula at every sample (a constant piece is a ramp with zero
rise) for the yaw rate, its exact integral and the segment speed;
:func:`simulate` writes them into column views of the window's one
(n, 9) array, and :func:`generate_dataset` wraps each array in a
:class:`~imutrace.core.TrajectoryWindow`.

Everything is reproducible: window ``i`` of a dataset draws from a
``numpy`` PCG64 generator seeded with ``SeedSequence((seed, i))``, and
the dataset manifest records that scheme. Noise terms with a zero
parameter draw nothing from the generator, so zero-noise output is a
pure function of the profile.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Mapping, Optional

import numpy as np

from .core import Scenario, TrajectoryLabel, TrajectoryWindow
from .errors import DataError

# Smoothstep yaw-rate ramp width at segment boundaries, seconds.
YAW_RAMP_S = 0.2

# Jitter bounds used by profile_for (seconds, m/s).
SPEED_RANGE = (0.6, 1.4)
QUARTER_TURN_TIME_RANGE = (1.5, 3.0)
HALF_TURN_TIME_RANGE = (2.5, 4.5)
EDGE_MARGIN_S = 1.0

GENERATOR_ALGORITHM = "numpy PCG64 seeded by SeedSequence((seed, window_index))"
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class MotionSegment:
    duration: float
    speed: float
    yaw_rate: float


@dataclass(frozen=True)
class MotionProfile:
    """Ordered piecewise-constant motion command for one window."""

    segments: tuple[MotionSegment, ...]

    def __post_init__(self):
        if not self.segments:
            raise DataError("motion profile needs at least one segment")
        for seg in self.segments:
            if seg.duration <= 0:
                raise DataError("motion segment durations must be positive")

    @property
    def total_duration(self) -> float:
        return sum(seg.duration for seg in self.segments)


@dataclass(frozen=True)
class NoiseProfile:
    """Per-scenario sensor noise. Zero fields draw nothing from the RNG."""

    accel_sigma: float = 0.0   # m/s^2
    gyro_sigma: float = 0.0    # rad/s
    mag_sigma: float = 0.0     # microtesla
    bump_rate: float = 0.0     # surface-bump events per second
    bump_amp: float = 0.0      # m/s^2 per bump

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise DataError(f"noise parameter {f.name} must be finite and >= 0")


# Indoor floors are flat; outdoor surfaces are rough enough that the
# accelerometer channel degrades while gyro integration stays informative.
INDOOR_NOISE = NoiseProfile(accel_sigma=0.05, gyro_sigma=0.01, mag_sigma=0.2)
OUTDOOR_NOISE = NoiseProfile(
    accel_sigma=0.3, gyro_sigma=0.05, mag_sigma=1.0, bump_rate=0.5, bump_amp=1.0
)
ZERO_NOISE = NoiseProfile()
DEFAULT_NOISE = {Scenario.INDOOR: INDOOR_NOISE, Scenario.OUTDOOR: OUTDOOR_NOISE}


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    rate: float = 100.0          # Hz
    duration: float = 10.0       # s per window
    earth_field_h: float = 30.0  # horizontal earth field, microtesla
    earth_field_v: float = 40.0  # vertical earth field, microtesla
    gravity: float = 9.81        # m/s^2
    windows_per_group: int = 4   # windows sharing one simulated scene

    def __post_init__(self):
        finite = (self.rate, self.duration, self.gravity, self.earth_field_h, self.earth_field_v)
        if not all(math.isfinite(x) for x in finite):
            raise DataError("rate, duration, gravity, and the earth field must be finite")
        if self.rate <= 0 or self.duration <= 0 or self.gravity <= 0:
            raise DataError("rate, duration, and gravity must be positive")
        if not math.isfinite(self.rate * self.duration):
            raise DataError(f"rate * duration must be finite, got {self.rate} * {self.duration}")
        if self.seed < 0:
            raise DataError("seed must be a nonnegative integer")
        if self.windows_per_group < 1:
            raise DataError("windows_per_group must be >= 1")


def profile_for(
    label: TrajectoryLabel, rng: np.random.Generator, duration: float
) -> MotionProfile:
    """Draw a jittered motion profile realizing ``label``.

    Straight keeps the yaw rate at zero throughout. The three turning
    classes place a single constant-rate turn inside the window, at
    least :data:`EDGE_MARGIN_S` away from either edge, with the turn
    duration drawn from the documented ranges and the turn-around
    direction chosen at random. The segment-sum heading change is
    exactly 0, +pi/2, -pi/2, or +/-pi.
    """
    speed = float(rng.uniform(*SPEED_RANGE))
    if label is TrajectoryLabel.STRAIGHT:
        return MotionProfile((MotionSegment(duration, speed, 0.0),))

    if label is TrajectoryLabel.TURN_AROUND:
        time_range = HALF_TURN_TIME_RANGE
        net = math.pi * (1.0 if rng.random() < 0.5 else -1.0)
    else:
        time_range = QUARTER_TURN_TIME_RANGE
        net = math.pi / 2 if label is TrajectoryLabel.TURN_LEFT else -math.pi / 2

    if duration < time_range[1] + 2 * EDGE_MARGIN_S:
        raise DataError(
            f"window duration {duration}s is too short for a "
            f"{label.value!r} profile (needs >= {time_range[1] + 2 * EDGE_MARGIN_S}s)"
        )
    turn_time = float(rng.uniform(*time_range))
    start = float(rng.uniform(EDGE_MARGIN_S, duration - turn_time - EDGE_MARGIN_S))
    tail = duration - start - turn_time
    return MotionProfile(
        (
            MotionSegment(start, speed, 0.0),
            MotionSegment(turn_time, speed, net / turn_time),
            MotionSegment(tail, speed, 0.0),
        )
    )


def _smoothstep(u: np.ndarray) -> np.ndarray:
    return u * u * (3.0 - 2.0 * u)


def _smoothstep_integral(u: np.ndarray) -> np.ndarray:
    # Antiderivative of 3u^2 - 2u^3, zero at u = 0.
    return u ** 3 - 0.5 * u ** 4


def _track(
    profile: MotionProfile, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Yaw rate, exactly integrated heading and speed at times ``t``.

    The profile's piecewise-constant yaw rate is replaced by a C^1
    curve: at every interior segment boundary the rate blends from the
    old to the new value over a smoothstep ramp centered on the
    boundary. Ramp half-widths shrink where segments are short so ramps
    never overlap each other or the window edges; symmetry keeps every
    ramp's integral equal to the step's, so the final heading matches
    the profile's segment sum to float precision. Speed stays
    piecewise constant. Every sample takes the ramp formula; a constant
    piece is a ramp with zero rise.
    """
    boundaries = np.cumsum([seg.duration for seg in profile.segments])
    rates = [seg.yaw_rate for seg in profile.segments]

    # Piece list: (t0, t1, w0, w1); w0 == w1 marks a constant piece.
    pieces: list[tuple[float, float, float, float]] = []
    cursor = 0.0
    for j in range(len(rates) - 1):
        b = float(boundaries[j])
        left_gap = b - cursor
        right_gap = float(boundaries[j + 1]) - b
        half = min(YAW_RAMP_S / 2.0, left_gap / 2.0, right_gap / 2.0)
        if rates[j] == rates[j + 1] or half <= 0:
            continue
        pieces.append((cursor, b - half, rates[j], rates[j]))
        pieces.append((b - half, b + half, rates[j], rates[j + 1]))
        cursor = b + half
    pieces.append((cursor, float(boundaries[-1]), rates[-1], rates[-1]))

    t0, t1, w0, w1 = np.array(pieces).T
    span = t1 - t0
    # -(w0 - w1) is -0.0 on a constant piece, and x + -0.0 is x for
    # every x, so a constant piece keeps its rate and heading bit for bit
    rise = -(w0 - w1)
    step = rise * span
    # heading at each piece's start, a running sum begun at 0.0 (not -0.0)
    start = np.cumsum(np.concatenate(([0.0], (w0 * span + step * 0.5)[:-1])))
    k = np.clip(np.searchsorted(t0, t, side="right") - 1, 0, len(pieces) - 1)
    dt = t - t0[k]
    # the last piece's span can round to zero; its samples keep u = 0
    u = np.clip(np.divide(dt, span[k], out=np.zeros_like(dt), where=span[k] > 0), 0.0, 1.0)
    omega = w0[k] + rise[k] * _smoothstep(u)
    theta = start[k] + w0[k] * dt + step[k] * _smoothstep_integral(u)

    segment = np.minimum(np.searchsorted(boundaries, t, side="right"), len(rates) - 1)
    speed = np.array([seg.speed for seg in profile.segments])[segment]
    return omega, theta, speed


def simulate(
    profile: MotionProfile,
    noise: NoiseProfile,
    cfg: GeneratorConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample the 9-axis sensors along ``profile`` at ``cfg.rate``.

    Returns the (n, 9) array of accel, gyro and magnetometer columns.
    Noise draw order is fixed (gyro, accel, bump counts, bump signs,
    magnetometer) and zero-valued noise parameters skip their draws
    entirely, so a :data:`ZERO_NOISE` simulation never touches ``rng``.
    """
    if abs(profile.total_duration - cfg.duration) > 1e-9:
        raise DataError(
            f"profile duration {profile.total_duration} does not match "
            f"configured window duration {cfg.duration}"
        )
    n = round(cfg.duration * cfg.rate)
    if n < 2:
        raise DataError("window would have fewer than 2 samples")
    t = np.arange(n, dtype=np.float64) / cfg.rate
    omega, theta, speed = _track(profile, t)

    data = np.zeros((n, 9))
    accel, gyro, mag = data[:, 0:3], data[:, 3:6], data[:, 6:9]
    gyro[:, 2] = omega
    accel[:, 0] = speed * omega
    accel[:, 2] = cfg.gravity
    mag[:, 0] = cfg.earth_field_h * np.cos(theta)
    mag[:, 1] = -cfg.earth_field_h * np.sin(theta)
    mag[:, 2] = cfg.earth_field_v

    if noise.gyro_sigma > 0:
        gyro += rng.normal(0.0, noise.gyro_sigma, (n, 3))
    if noise.accel_sigma > 0:
        accel += rng.normal(0.0, noise.accel_sigma, (n, 3))
    if noise.bump_rate > 0:
        counts = rng.poisson(noise.bump_rate / cfg.rate, n)
        signs = rng.integers(0, 2, n) * 2 - 1
        accel[:, 2] += counts * signs * noise.bump_amp
    if noise.mag_sigma > 0:
        mag += rng.normal(0.0, noise.mag_sigma, (n, 3))
    return data


def uniform_counts(per_class: int) -> dict[tuple[TrajectoryLabel, Scenario], int]:
    """The same count for every (label, scenario) combination."""
    return {
        (label, scenario): per_class
        for scenario in Scenario
        for label in TrajectoryLabel
    }


def generate_dataset(
    cfg: GeneratorConfig,
    counts: Mapping[tuple[TrajectoryLabel, Scenario], int],
    noise: Optional[Mapping[Scenario, NoiseProfile]] = None,
) -> tuple[list[TrajectoryWindow], dict]:
    """Generate labeled windows plus a manifest describing the run.

    Windows are enumerated scenario-major with labels interleaved
    round-robin, so the consecutive windows that share a recording
    group ("scene") cover a mix of trajectory classes, the way one
    recording session visits all of them. A scenario's window ids are
    ``{scenario}-w{j}``, with ``j`` zero-padded to the digits its count
    needs (at least 4), so id order is generation order. Each window's
    RNG is derived from ``(cfg.seed, global window index)``, making
    generation order-independent and reproducible. The manifest records every
    :class:`GeneratorConfig` field and every scenario's
    :class:`NoiseProfile` fields, read off the dataclasses themselves.
    """
    if noise is None:
        noise = DEFAULT_NOISE
    for value in counts.values():
        if value < 0:
            raise DataError("window counts must be >= 0")

    windows: list[TrajectoryWindow] = []
    for scenario in Scenario:
        wanted = {label: counts.get((label, scenario), 0) for label in TrajectoryLabel}
        # round k takes each label that has more than k windows
        sequence = [
            label
            for k in range(max(wanted.values()))
            for label in TrajectoryLabel
            if wanted[label] > k
        ]
        width = max(4, len(str(len(sequence) - 1)))
        for j, label in enumerate(sequence):
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, len(windows))))
            profile = profile_for(label, rng, cfg.duration)
            windows.append(
                TrajectoryWindow(
                    id=f"{scenario.value}-w{j:0{width}d}",
                    scenario=scenario,
                    recording_group=f"{scenario.value}-scene{j // cfg.windows_per_group:03d}",
                    rate=cfg.rate,
                    data=simulate(profile, noise[scenario], cfg, rng),
                    label=label,
                )
            )

    manifest = {
        **asdict(cfg),
        "version": MANIFEST_VERSION,
        "rng": GENERATOR_ALGORITHM,
        "noise": {
            scenario.value: asdict(noise[scenario]) for scenario in Scenario if scenario in noise
        },
        "counts": {
            f"{label.value}|{scenario.value}": counts.get((label, scenario), 0)
            for scenario in Scenario
            for label in TrajectoryLabel
        },
        "total_windows": len(windows),
    }
    return windows, manifest
