import math

import numpy as np
import pytest

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
    YawTrack,
    ZERO_NOISE,
    generate_dataset,
    profile_for,
    simulate,
    uniform_counts,
)

ZERO = {s: ZERO_NOISE for s in Scenario}


def test_straight_zero_noise_closed_form():
    cfg = GeneratorConfig(seed=0)
    rng = np.random.default_rng(0)
    profile = MotionProfile((MotionSegment(10.0, 1.0, 0.0),))
    w = simulate(profile, ZERO_NOISE, cfg, rng, label=TrajectoryLabel.STRAIGHT)
    data = w.data
    assert len(w) == 1000
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
            w = simulate(profile, ZERO_NOISE, cfg, rng, label=label)
            gz = w.data[:, 5]
            dtheta = float(np.sum((gz[1:] + gz[:-1]) * 0.5) / cfg.rate)
            assert abs(dtheta - expected) < 1e-3


def test_turn_around_magnitude_pi():
    cfg = GeneratorConfig(seed=0)
    seen_signs = set()
    for trial in range(12):
        rng = np.random.default_rng(trial)
        profile = profile_for(TrajectoryLabel.TURN_AROUND, rng, cfg.duration)
        assert abs(abs(profile.net_heading) - math.pi) < 1e-12
        seen_signs.add(math.copysign(1.0, profile.net_heading))
        w = simulate(profile, ZERO_NOISE, cfg, rng)
        gz = w.data[:, 5]
        dtheta = float(np.sum((gz[1:] + gz[:-1]) * 0.5) / cfg.rate)
        assert abs(abs(dtheta) - math.pi) < 1e-3
    assert seen_signs == {1.0, -1.0}  # both directions occur


def test_magnetometer_consistent_with_gyro_heading():
    # two independent views of the same heading: the integrated yaw
    # rate and the rotated earth field must agree
    cfg = GeneratorConfig(seed=0)
    rng = np.random.default_rng(4)
    profile = profile_for(TrajectoryLabel.TURN_LEFT, rng, cfg.duration)
    w = simulate(profile, ZERO_NOISE, cfg, rng)
    data = w.data
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
        track = YawTrack(profile)
        end = track.theta(np.array([profile.total_duration]))[0]
        assert abs(end - profile.net_heading) < 1e-12


def test_profile_for_shapes():
    rng = np.random.default_rng(0)
    straight = profile_for(TrajectoryLabel.STRAIGHT, rng, 10.0)
    assert len(straight.segments) == 1
    assert straight.net_heading == 0.0

    for label in (TrajectoryLabel.TURN_LEFT, TrajectoryLabel.TURN_RIGHT):
        p = profile_for(label, rng, 10.0)
        assert len(p.segments) == 3
        head, turn, tail = p.segments
        assert head.yaw_rate == 0.0 and tail.yaw_rate == 0.0
        assert head.duration >= 1.0 and tail.duration >= 1.0
        assert 1.5 <= turn.duration <= 3.0
        expected = math.pi / 2 if label is TrajectoryLabel.TURN_LEFT else -math.pi / 2
        assert abs(p.net_heading - expected) < 1e-12
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


def test_noise_magnitudes_scale_with_profile():
    cfg = GeneratorConfig(seed=0)
    profile = MotionProfile((MotionSegment(10.0, 1.0, 0.0),))
    quiet = simulate(profile, INDOOR_NOISE, cfg, np.random.default_rng(7))
    loud = simulate(profile, OUTDOOR_NOISE, cfg, np.random.default_rng(7))
    gz_quiet = np.std(quiet.data[:, 5])
    gz_loud = np.std(loud.data[:, 5])
    assert gz_quiet < gz_loud
    assert 0.005 < gz_quiet < 0.02   # sigma 0.01 on a zero-rate track
    assert 0.025 < gz_loud < 0.1     # sigma 0.05
