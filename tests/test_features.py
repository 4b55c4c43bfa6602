import math

import numpy as np
import pytest

from imutrace.baselines.features import (
    FEATURE_NAMES,
    extract_features,
    feature_matrix,
    label_vector,
)
from imutrace.core import TrajectoryLabel
from imutrace.errors import DataError
from imutrace.synth import GeneratorConfig, ZERO_NOISE, profile_for, simulate

from conftest import window_from_array


def test_feature_names_shape():
    assert len(FEATURE_NAMES) == 48
    assert len(set(FEATURE_NAMES)) == 48
    # five stats per axis, then the three gyro integrals
    assert FEATURE_NAMES[0] == "ax_mean"
    assert FEATURE_NAMES[44] == "mz_rms"
    assert FEATURE_NAMES[45:] == ("gx_int", "gy_int", "gz_int")


def test_constant_window_stats(make_window):
    data = np.tile(np.arange(1.0, 10.0), (50, 1))  # axis k holds constant k+1
    w = make_window(data, rate=10.0)
    f = extract_features(w)
    for k in range(9):
        mean, std, lo, hi, rms = f[5 * k : 5 * k + 5]
        c = float(k + 1)
        assert mean == c
        assert std == 0.0
        assert lo == c and hi == c
        assert rms == pytest.approx(abs(c))
    # trapezoid of constant gyro value c over (n-1) intervals
    n, dt = 50, 0.1
    for j, c in enumerate((4.0, 5.0, 6.0)):
        assert f[45 + j] == pytest.approx(c * (n - 1) * dt)


def test_stats_against_numpy(make_window):
    rng = np.random.default_rng(8)
    data = rng.standard_normal((120, 9)) * 3.0
    w = make_window(data, rate=20.0)
    f = extract_features(w)
    for k in range(9):
        col = data[:, k]
        assert f[5 * k + 0] == pytest.approx(np.mean(col), abs=1e-12)
        assert f[5 * k + 1] == pytest.approx(np.std(col), abs=1e-12)
        assert f[5 * k + 2] == pytest.approx(np.min(col))
        assert f[5 * k + 3] == pytest.approx(np.max(col))
        assert f[5 * k + 4] == pytest.approx(np.sqrt(np.mean(col**2)), abs=1e-12)


def test_gyro_integral_linear_ramp_oracle(make_window):
    # gz ramps 0..1 over 1 second: integral is exactly 1/2
    n, rate = 101, 100.0
    data = np.zeros((n, 9))
    data[:, 5] = np.linspace(0.0, 1.0, n)
    f = extract_features(make_window(data, rate=rate))
    assert f[47] == pytest.approx(0.5, abs=1e-12)
    assert f[45] == 0.0 and f[46] == 0.0


def test_quarter_turn_integral():
    cfg = GeneratorConfig(seed=0)
    for label, expected in (
        (TrajectoryLabel.TURN_LEFT, math.pi / 2),
        (TrajectoryLabel.TURN_RIGHT, -math.pi / 2),
    ):
        rng = np.random.default_rng(3)
        profile = profile_for(label, rng, cfg.duration)
        w = window_from_array(simulate(profile, ZERO_NOISE, cfg, rng), rate=cfg.rate, label=label)
        f = extract_features(w)
        assert f[47] == pytest.approx(expected, abs=1e-3)


def test_feature_matrix_and_labels(make_window):
    rng = np.random.default_rng(1)
    windows = [
        make_window(rng.standard_normal((30, 9)), window_id=f"w{i}",
                    label=list(TrajectoryLabel)[i % 4])
        for i in range(8)
    ]
    x = feature_matrix(windows)
    assert x.shape == (8, 48)
    assert np.array_equal(x[0], extract_features(windows[0]))
    y = label_vector(windows)
    assert y.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]

    unlabeled = make_window(np.zeros((5, 9)))
    with pytest.raises(DataError):
        label_vector([unlabeled])
