"""Statistical feature extraction for the classic (RF, SVM) baselines.

Each window maps to a fixed 48-dimensional vector: five summary
statistics (mean, std, min, max, RMS) per axis over the nine axes,
plus the trapezoid-integrated gyroscope x/y/z. The integrals carry the
net rotation, which is what separates the four trajectory classes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core import AXIS_NAMES, LABEL_ORDER, TrajectoryWindow
from ..errors import DataError

FEATURE_DIM = 48

_STAT_NAMES = ("mean", "std", "min", "max", "rms")

FEATURE_NAMES: tuple[str, ...] = tuple(
    f"{axis}_{stat}" for axis in AXIS_NAMES for stat in _STAT_NAMES
) + ("gx_int", "gy_int", "gz_int")


def _trapezoid(y: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid-rule integral along the first axis, uniform step dt."""
    return np.sum((y[1:] + y[:-1]) * 0.5, axis=0) * dt


def extract_features(w: TrajectoryWindow) -> np.ndarray:
    """48 features for one window, ordered per FEATURE_NAMES."""
    data = w.data
    stats = np.empty((9, len(_STAT_NAMES)))
    stats[:, 0] = data.mean(axis=0)
    stats[:, 1] = data.std(axis=0)
    stats[:, 2] = data.min(axis=0)
    stats[:, 3] = data.max(axis=0)
    stats[:, 4] = np.sqrt(np.mean(data**2, axis=0))
    gyro = data[:, 3:6]
    integrals = _trapezoid(gyro, 1.0 / w.rate)
    features = np.concatenate([stats.ravel(), integrals])
    if not np.all(np.isfinite(features)):
        raise DataError(f"non-finite feature values for window {w.id!r}")
    return features


def feature_matrix(windows: Sequence[TrajectoryWindow]) -> np.ndarray:
    """Stack extract_features over windows into an (n, 48) matrix."""
    if not windows:
        raise DataError("cannot build a feature matrix from zero windows")
    return np.stack([extract_features(w) for w in windows])


def label_vector(windows: Sequence[TrajectoryWindow]) -> np.ndarray:
    """Integer class indices (fixed label order) for labeled windows."""
    indices = []
    for w in windows:
        if w.label is None:
            raise DataError(f"window {w.id!r} is unlabeled")
        indices.append(LABEL_ORDER.index(w.label))
    return np.asarray(indices, dtype=np.int64)
