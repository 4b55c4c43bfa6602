import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imutrace.core import Scenario, TrajectoryLabel, serialize_csv
from imutrace.errors import DataError
from imutrace.synth import (
    DEFAULT_NOISE,
    GeneratorConfig,
    INDOOR_NOISE,
    MotionProfile,
    MotionSegment,
    NoiseProfile,
    OUTDOOR_NOISE,
    YAW_RAMP_S,
    ZERO_NOISE,
    _smoothstep,
    _smoothstep_integral,
    _track,
    generate_dataset,
    profile_for,
    simulate,
    uniform_counts,
)

ZERO = {s: ZERO_NOISE for s in Scenario}


def _net_heading(profile: MotionProfile) -> float:
    """Net heading change in radians (yaw rate times duration, summed)."""
    return sum(seg.yaw_rate * seg.duration for seg in profile.segments)


class YawTrack:
    """Reference track: the simulator's former two-pass yaw evaluation,
    kept to pin ``_track`` bit for bit."""

    def __init__(self, profile: MotionProfile):
        boundaries = np.cumsum([seg.duration for seg in profile.segments])
        total = boundaries[-1]
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
        pieces.append((cursor, float(total), rates[-1], rates[-1]))

        self.pieces = pieces
        self.starts = np.array([p[0] for p in pieces])
        # Heading accumulated at the start of each piece.
        theta = 0.0
        theta_at = []
        for t0, t1, w0, w1 in pieces:
            theta_at.append(theta)
            span = t1 - t0
            if w0 == w1:
                theta += w0 * span
            else:
                theta += w0 * span + (w1 - w0) * span * 0.5
        self.theta_at = np.array(theta_at)

    def _locate(self, t: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.starts, t, side="right") - 1
        return np.clip(idx, 0, len(self.pieces) - 1)

    def omega(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        out = np.empty_like(t)
        idx = self._locate(t)
        for k, (t0, t1, w0, w1) in enumerate(self.pieces):
            mask = idx == k
            if not mask.any():
                continue
            if w0 == w1:
                out[mask] = w0
            else:
                u = np.clip((t[mask] - t0) / (t1 - t0), 0.0, 1.0)
                out[mask] = w0 + (w1 - w0) * _smoothstep(u)
        return out

    def theta(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        out = np.empty_like(t)
        idx = self._locate(t)
        for k, (t0, t1, w0, w1) in enumerate(self.pieces):
            mask = idx == k
            if not mask.any():
                continue
            dt = t[mask] - t0
            if w0 == w1:
                out[mask] = self.theta_at[k] + w0 * dt
            else:
                span = t1 - t0
                u = np.clip(dt / span, 0.0, 1.0)
                out[mask] = (
                    self.theta_at[k]
                    + w0 * dt
                    + (w1 - w0) * span * _smoothstep_integral(u)
                )
        return out


def _segment_speeds(profile: MotionProfile, t: np.ndarray) -> np.ndarray:
    starts = np.cumsum([0.0] + [seg.duration for seg in profile.segments])[:-1]
    idx = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(profile.segments) - 1)
    speeds = np.array([seg.speed for seg in profile.segments])
    return speeds[idx]


def test_straight_zero_noise_closed_form():
    cfg = GeneratorConfig(seed=0)
    rng = np.random.default_rng(0)
    profile = MotionProfile((MotionSegment(10.0, 1.0, 0.0),))
    data = simulate(profile, ZERO_NOISE, cfg, rng)
    assert data.shape == (1000, 9)
    # no rotation: gyro exactly zero, accel exactly (0, 0, g),
    # magnetometer exactly the unrotated earth field
    assert np.all(data[:, 3:6] == 0.0)
    assert np.all(data[:, 0:2] == 0.0)
    assert np.all(data[:, 2] == cfg.gravity)
    assert np.all(data[:, 6] == cfg.earth_field_h)
    assert np.all(data[:, 7] == 0.0)
    assert np.all(data[:, 8] == cfg.earth_field_v)


def test_turn_window_gyro_integral_recovers_heading():
    # trapezoid integral of the sampled yaw rate must recover the
    # profile's net heading to under a milliradian at 100 Hz
    cfg = GeneratorConfig(seed=0)
    for label, expected in (
        (TrajectoryLabel.TURN_LEFT, math.pi / 2),
        (TrajectoryLabel.TURN_RIGHT, -math.pi / 2),
    ):
        for trial in range(10):
            rng = np.random.default_rng(trial)
            profile = profile_for(label, rng, cfg.duration)
            gz = simulate(profile, ZERO_NOISE, cfg, rng)[:, 5]
            dtheta = float(np.sum((gz[1:] + gz[:-1]) * 0.5) / cfg.rate)
            assert abs(dtheta - expected) < 1e-3


def test_turn_around_magnitude_pi():
    cfg = GeneratorConfig(seed=0)
    seen_signs = set()
    for trial in range(12):
        rng = np.random.default_rng(trial)
        profile = profile_for(TrajectoryLabel.TURN_AROUND, rng, cfg.duration)
        assert abs(abs(_net_heading(profile)) - math.pi) < 1e-12
        seen_signs.add(math.copysign(1.0, _net_heading(profile)))
        gz = simulate(profile, ZERO_NOISE, cfg, rng)[:, 5]
        dtheta = float(np.sum((gz[1:] + gz[:-1]) * 0.5) / cfg.rate)
        assert abs(abs(dtheta) - math.pi) < 1e-3
    assert seen_signs == {1.0, -1.0}  # both directions occur


def test_magnetometer_consistent_with_gyro_heading():
    # two independent views of the same heading: the integrated yaw
    # rate and the rotated earth field must agree
    cfg = GeneratorConfig(seed=0)
    rng = np.random.default_rng(4)
    profile = profile_for(TrajectoryLabel.TURN_LEFT, rng, cfg.duration)
    data = simulate(profile, ZERO_NOISE, cfg, rng)
    heading_mag = np.arctan2(-data[:, 7], data[:, 6])
    gz = data[:, 5]
    dt = 1.0 / cfg.rate
    heading_gyro = np.concatenate(
        [[0.0], np.cumsum((gz[1:] + gz[:-1]) * 0.5 * dt)]
    )
    wrapped = np.angle(np.exp(1j * (heading_mag - heading_gyro)))
    assert np.max(np.abs(wrapped)) < 1e-3


def test_yaw_track_exact_final_heading():
    for trial in range(20):
        rng = np.random.default_rng(trial)
        label = list(TrajectoryLabel)[trial % 4]
        profile = profile_for(label, rng, 10.0)
        end = _track(profile, np.array([profile.total_duration]))[1][0]
        assert abs(end - _net_heading(profile)) < 1e-12


# Segment durations straddle the ramp width, so some ramps shrink to fit
# a short segment; a small pool of yaw rates makes equal adjacent rates
# (no ramp at all) common.
_segments = st.builds(
    MotionSegment,
    duration=st.one_of(st.floats(0.001, YAW_RAMP_S), st.floats(YAW_RAMP_S, 5.0)),
    speed=st.floats(0.1, 2.0),
    yaw_rate=st.one_of(st.sampled_from([0.0, 0.5, -1.25]), st.floats(-3.0, 3.0)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_segments, min_size=1, max_size=5),
    st.sampled_from([7.0, 30.0, 100.0 / 3.0, 100.0]),
    st.integers(0, 20),
)
def test_track_matches_two_pass_reference(segments, rate, past_end):
    profile = MotionProfile(tuple(segments))
    n = round(profile.total_duration * rate) + past_end
    boundaries = np.cumsum([seg.duration for seg in profile.segments])
    # the sample grid, samples past the end, and every segment boundary
    t = np.concatenate([np.arange(n, dtype=np.float64) / rate, boundaries])
    omega, theta, speed = _track(profile, t)
    track = YawTrack(profile)
    assert np.array_equal(omega, track.omega(t))
    assert np.array_equal(theta, track.theta(t))
    assert np.array_equal(speed, _segment_speeds(profile, t))


def test_profile_for_shapes():
    rng = np.random.default_rng(0)
    straight = profile_for(TrajectoryLabel.STRAIGHT, rng, 10.0)
    assert len(straight.segments) == 1
    assert _net_heading(straight) == 0.0

    for label in (TrajectoryLabel.TURN_LEFT, TrajectoryLabel.TURN_RIGHT):
        p = profile_for(label, rng, 10.0)
        assert len(p.segments) == 3
        head, turn, tail = p.segments
        assert head.yaw_rate == 0.0 and tail.yaw_rate == 0.0
        assert head.duration >= 1.0 and tail.duration >= 1.0
        assert 1.5 <= turn.duration <= 3.0
        expected = math.pi / 2 if label is TrajectoryLabel.TURN_LEFT else -math.pi / 2
        assert abs(_net_heading(p) - expected) < 1e-12
        assert abs(p.total_duration - 10.0) < 1e-9

    with pytest.raises(DataError):
        profile_for(TrajectoryLabel.TURN_AROUND, rng, 5.0)


def test_simulate_duration_mismatch():
    cfg = GeneratorConfig(seed=0, duration=10.0)
    profile = MotionProfile((MotionSegment(8.0, 1.0, 0.0),))
    with pytest.raises(DataError):
        simulate(profile, ZERO_NOISE, cfg, np.random.default_rng(0))


def test_zero_noise_never_draws_from_rng():
    cfg = GeneratorConfig(seed=0)
    profile = MotionProfile((MotionSegment(10.0, 1.0, 0.0),))
    rng = np.random.default_rng(123)
    simulate(profile, ZERO_NOISE, cfg, rng)
    untouched = np.random.default_rng(123)
    assert rng.random() == untouched.random()


def test_generate_dataset_determinism():
    noise = DEFAULT_NOISE
    a, _ = generate_dataset(GeneratorConfig(seed=9), uniform_counts(3), noise)
    b, _ = generate_dataset(GeneratorConfig(seed=9), uniform_counts(3), noise)
    assert serialize_csv(a) == serialize_csv(b)
    c, _ = generate_dataset(GeneratorConfig(seed=10), uniform_counts(3), noise)
    assert serialize_csv(a) != serialize_csv(c)


def test_generate_dataset_prefix_stability():
    # windows are keyed by (seed, global index), so a longer run of the
    # same scenario starts with exactly the shorter run's windows
    small, _ = generate_dataset(GeneratorConfig(seed=2), {
        (label, Scenario.INDOOR): 3 for label in TrajectoryLabel
    }, ZERO)
    large, _ = generate_dataset(GeneratorConfig(seed=2), {
        (label, Scenario.INDOOR): 6 for label in TrajectoryLabel
    }, ZERO)
    assert serialize_csv(small) == serialize_csv(large[: len(small)])


def test_generate_dataset_layout_and_manifest():
    cfg = GeneratorConfig(seed=1, windows_per_group=4)
    windows, manifest = generate_dataset(cfg, uniform_counts(6))
    assert len(windows) == 48
    assert manifest["total_windows"] == 48
    assert manifest["seed"] == 1
    assert manifest["counts"]["straight|indoor"] == 6
    assert set(manifest["noise"]) == {"indoor", "outdoor"}
    assert manifest["noise"]["outdoor"]["bump_rate"] == OUTDOOR_NOISE.bump_rate
    assert manifest["noise"]["indoor"]["accel_sigma"] == INDOOR_NOISE.accel_sigma

    ids = [w.id for w in windows]
    assert len(set(ids)) == 48
    indoor = [w for w in windows if w.scenario is Scenario.INDOOR]
    assert len(indoor) == 24
    # labels interleave round-robin and groups change every 4 windows
    assert [w.label for w in indoor[:4]] == list(TrajectoryLabel)
    assert indoor[0].recording_group == indoor[3].recording_group
    assert indoor[0].recording_group != indoor[4].recording_group
    groups = {w.recording_group for w in indoor}
    assert len(groups) == 6
    # per-class balance within every group's scene
    for w in windows:
        assert w.label is not None
        assert len(w) == 1000
        assert w.rate == 100.0


def test_generate_dataset_rejects_negative_counts():
    with pytest.raises(DataError):
        generate_dataset(
            GeneratorConfig(seed=0),
            {(TrajectoryLabel.STRAIGHT, Scenario.INDOOR): -1},
        )


def test_noise_profile_validation():
    with pytest.raises(DataError):
        NoiseProfile(accel_sigma=-0.1)
    with pytest.raises(DataError):
        GeneratorConfig(seed=-1)
    with pytest.raises(DataError):
        GeneratorConfig(seed=0, rate=0.0)
    with pytest.raises(DataError):
        GeneratorConfig(seed=0, windows_per_group=0)


@pytest.mark.parametrize(
    "field, value",
    [("rate", math.nan), ("duration", math.inf), ("gravity", math.inf),
     ("earth_field_h", math.nan), ("earth_field_v", -math.inf)],
)
def test_generator_config_refuses_non_finite(field, value):
    with pytest.raises(DataError, match="must be finite"):
        GeneratorConfig(seed=0, **{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(NoiseProfile)])
def test_noise_profile_refuses_non_finite(field, value):
    with pytest.raises(DataError, match=f"noise parameter {field} must be finite"):
        NoiseProfile(**{field: value})


def test_noise_magnitudes_scale_with_profile():
    cfg = GeneratorConfig(seed=0)
    profile = MotionProfile((MotionSegment(10.0, 1.0, 0.0),))
    quiet = simulate(profile, INDOOR_NOISE, cfg, np.random.default_rng(7))
    loud = simulate(profile, OUTDOOR_NOISE, cfg, np.random.default_rng(7))
    gz_quiet = np.std(quiet[:, 5])
    gz_loud = np.std(loud[:, 5])
    assert gz_quiet < gz_loud
    assert 0.005 < gz_quiet < 0.02   # sigma 0.01 on a zero-rate track
    assert 0.025 < gz_loud < 0.1     # sigma 0.05
