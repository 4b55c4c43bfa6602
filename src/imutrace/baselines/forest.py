"""Random forest: CART trees, Gini splits, bootstrap bagging, OOB score.

Trees are nested dicts (internal: feature, threshold, left, right;
leaf: label), so a trained forest serializes to JSON unchanged. Split
search scores all candidate features of a node in one pass: it sorts
each column once and sweeps cut points with cumulative class counts.
Each tree draws its bootstrap sample and feature subsets from its own
generator seeded by (seed, tree_index), so forests are reproducible and
trees are independent.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from ..core import N_CLASSES, TrajectoryLabel
from ..errors import DataError
from .features import argmax_labels, data_digest, feature_rows, training_set


@dataclass(frozen=True)
class RfConfig:
    trees: int = 100
    max_depth: Optional[int] = None
    features_per_split: Optional[int] = None  # None: floor(sqrt(n_features))
    seed: int = 0

    def __post_init__(self):
        if self.trees < 1:
            raise DataError(f"tree count must be >= 1, got {self.trees}")
        if self.seed < 0:
            raise DataError("seed must be a nonnegative integer")
        if self.max_depth is not None and self.max_depth < 1:
            raise DataError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise DataError(
                f"features_per_split must be >= 1 or None, got {self.features_per_split}"
            )


@dataclass(frozen=True)
class RandomForestModel:
    """A trained forest; its fields are the keys of its model file."""

    kind: str
    config: RfConfig
    n_features: int
    trees_data: tuple[dict, ...]
    manifest: dict

    def __post_init__(self):
        object.__setattr__(self, "n_features", int(self.n_features))
        object.__setattr__(self, "trees_data", tuple(self.trees_data))
        object.__setattr__(self, "manifest", dict(self.manifest))


def _best_split(values: np.ndarray, labels: np.ndarray) -> tuple[int, float]:
    """Best (column, threshold) of a node's (n, m) candidate columns.

    Every cut point of every column is scored at once: each column is
    sorted (stably), class counts are swept with one cumulative sum, and
    cuts between equal values cost inf. The first minimum wins, over cuts
    and then over columns. Returns (-1, nan) when every column is
    constant on this node.
    """
    n, m = values.shape
    order = np.argsort(values, axis=0, kind="stable")
    v = np.take_along_axis(values, order, axis=0)
    prefix = np.eye(N_CLASSES)[labels[order]].cumsum(axis=0)
    left = prefix[:-1]  # (n-1, m, classes): counts left of the cut after row i
    right = prefix[-1] - left
    n_left = np.arange(1.0, n)[:, None]
    n_right = n - n_left
    gini_left = 1.0 - np.sum((left / n_left[..., None]) ** 2, axis=2)
    gini_right = 1.0 - np.sum((right / n_right[..., None]) ** 2, axis=2)
    cost = (n_left * gini_left + n_right * gini_right) / n
    cost[v[:-1] >= v[1:]] = np.inf
    cut = np.argmin(cost, axis=0)
    best_cost = cost[cut, np.arange(m)]
    column = int(np.argmin(best_cost))
    if best_cost[column] == np.inf:
        return -1, np.nan
    i = cut[column]
    return column, float(0.5 * (v[i, column] + v[i + 1, column]))


def _leaf(labels: np.ndarray) -> dict:
    counts = np.bincount(labels, minlength=N_CLASSES)
    # argmax takes the first maximum, which is the fixed label order
    return {"label": int(np.argmax(counts))}


def _grow(
    x: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    depth: int,
    cfg: RfConfig,
    m_features: int,
    rng: np.random.Generator,
) -> dict:
    labels_here = y[idx]
    if (
        idx.size < 2
        or np.all(labels_here == labels_here[0])
        or (cfg.max_depth is not None and depth >= cfg.max_depth)
    ):
        return _leaf(labels_here)
    features = rng.choice(x.shape[1], size=m_features, replace=False)
    column, threshold = _best_split(x[np.ix_(idx, features)], labels_here)
    if column < 0:
        return _leaf(labels_here)
    feature = int(features[column])
    goes_left = x[idx, feature] < threshold
    left_idx = idx[goes_left]
    right_idx = idx[~goes_left]
    return {
        "feature": feature,
        "threshold": threshold,
        "left": _grow(x, y, left_idx, depth + 1, cfg, m_features, rng),
        "right": _grow(x, y, right_idx, depth + 1, cfg, m_features, rng),
    }


def _tree_predict(node: dict, row: list[float]) -> int:
    while "label" not in node:
        node = node["left"] if row[node["feature"]] < node["threshold"] else node["right"]
    return node["label"]


def _vote_table(trees: Sequence[dict], x: np.ndarray) -> np.ndarray:
    """(trees, rows) label index each tree votes for each row of ``x``,
    walked as Python floats (whose ``<`` is float64's)."""
    rows = x.tolist()
    return np.array([[_tree_predict(t, row) for row in rows] for t in trees], dtype=np.int64)


def _vote_counts(table: np.ndarray, where: np.ndarray | bool = True) -> np.ndarray:
    """(rows, 4) count of each label in each column of a vote table, over
    the entries where ``where`` is set."""
    return np.stack([np.count_nonzero((table == c) & where, axis=0) for c in range(N_CLASSES)], 1)


def train_rf(x: np.ndarray, y: np.ndarray, cfg: RfConfig) -> RandomForestModel:
    """Grow cfg.trees CART trees on bootstrap resamples of (x, y); one vote
    table over its rows gives the out-of-bag and the train votes."""
    x, y = training_set(x, y)
    n, d = x.shape
    m_features = cfg.features_per_split
    if m_features is None:
        m_features = int(np.floor(np.sqrt(d)))
    m_features = min(m_features, d)

    trees: list[dict] = []
    in_bag = np.zeros((cfg.trees, n), dtype=bool)
    for tree_index in range(cfg.trees):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, tree_index)))
        sample = rng.integers(0, n, size=n)
        trees.append(_grow(x, y, sample, 0, cfg, m_features, rng))
        in_bag[tree_index, sample] = True

    table = _vote_table(trees, x)
    covered = ~in_bag.all(axis=0)  # the rows some tree left out of its bootstrap
    oob_pred = np.argmax(_vote_counts(table, ~in_bag)[covered], axis=1)
    oob_accuracy = float(np.mean(oob_pred == y[covered])) if covered.any() else 0.0
    train_pred = np.argmax(_vote_counts(table), axis=1)
    manifest = {
        "config": asdict(cfg),
        "seed": cfg.seed,
        "data_sha256": data_digest(x, y),
        "n_samples": n,
        "n_features": d,
        "features_per_split": m_features,
        "oob_accuracy": oob_accuracy,
        "train_accuracy": float(np.mean(train_pred == y)),
    }
    return RandomForestModel(
        kind="rf", config=cfg, n_features=d, trees_data=trees, manifest=manifest
    )


def predict_rf_batch(
    model: RandomForestModel, x: np.ndarray
) -> tuple[list[TrajectoryLabel], np.ndarray]:
    """Majority vote per row with fixed-label-order tie-break; returns the
    labels and the (n, 4) vote shares."""
    votes = _vote_counts(_vote_table(model.trees_data, feature_rows(x, model.n_features)))
    return argmax_labels(votes), votes / votes.sum(axis=1, keepdims=True)
