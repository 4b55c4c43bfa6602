"""Baseline inputs: statistical features, and the array steps every baseline shares.

Each window maps to a fixed 48-dimensional vector: five summary
statistics (mean, std, min, max, RMS) per axis over the nine axes,
plus the trapezoid-integrated gyroscope x/y/z. The integrals carry the
net rotation, which is what separates the four trajectory classes.

The shared steps are the checks on a feature matrix, the training-set
standardization, the digest of the training data that goes into each
model manifest, and the decoding of per-class scores into labels.
"""

from __future__ import annotations

import hashlib
from typing import Sequence, Union

import numpy as np

from ..core import AXIS_NAMES, LABEL_ORDER, TrajectoryLabel, TrajectoryWindow
from ..errors import DataError

_STAT_NAMES = ("mean", "std", "min", "max", "rms")

# the gyroscope x/y/z columns of a window's data
_GYRO = slice(AXIS_NAMES.index("gx"), AXIS_NAMES.index("gz") + 1)

FEATURE_NAMES: tuple[str, ...] = tuple(
    f"{axis}_{stat}" for axis in AXIS_NAMES for stat in _STAT_NAMES
) + tuple(f"{axis}_int" for axis in AXIS_NAMES[_GYRO])


def _trapezoid(y: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid-rule integral along the first axis, uniform step dt."""
    return np.sum((y[1:] + y[:-1]) * 0.5, axis=0) * dt


def extract_features(w: TrajectoryWindow) -> np.ndarray:
    """48 features for one window, ordered per FEATURE_NAMES."""
    data = w.data
    stats = np.empty((len(AXIS_NAMES), len(_STAT_NAMES)))
    stats[:, 0] = data.mean(axis=0)
    stats[:, 1] = data.std(axis=0)
    stats[:, 2] = data.min(axis=0)
    stats[:, 3] = data.max(axis=0)
    stats[:, 4] = np.sqrt(np.mean(data**2, axis=0))
    integrals = _trapezoid(data[:, _GYRO], 1.0 / w.rate)
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


def training_set(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x as float64, y as int64), refused unless x is a non-empty finite
    2-d matrix with one label per row and y holds at least 2 classes."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError(f"training features must be a non-empty 2-d array, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise DataError(f"labels shape {y.shape} does not match {x.shape[0]} rows")
    if not np.all(np.isfinite(x)):
        raise DataError("training features must be finite")
    if np.unique(y).size < 2:
        raise DataError("training data must contain at least 2 classes")
    return x, y


def feature_rows(x: np.ndarray, n_features: int) -> np.ndarray:
    """x as a float64 matrix, refused unless it has n_features columns."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != n_features:
        raise DataError(
            f"feature matrix shape {x.shape} does not match trained dimension {n_features}"
        )
    return x


def standardizer(
    x: np.ndarray, axis: Union[int, tuple[int, ...]], enabled: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(mean, scale) over ``axis``: the training-set mean and standard
    deviation (1 where that is 0), or zeros and ones when not enabled."""
    mean = x.mean(axis=axis)
    if not enabled:
        return np.zeros_like(mean), np.ones_like(mean)
    sd = x.std(axis=axis)
    return mean, np.where(sd > 0, sd, 1.0)


def data_digest(*arrays: np.ndarray) -> str:
    """sha256 over dtype, shape, and raw bytes of each array, in order."""
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode("ascii"))
        h.update(str(a.shape).encode("ascii"))
        h.update(a.tobytes())
    return h.hexdigest()


def argmax_labels(scores: np.ndarray) -> list[TrajectoryLabel]:
    """The label of each row's highest score, the first one on exact ties."""
    return [LABEL_ORDER[i] for i in np.argmax(scores, axis=1).tolist()]
