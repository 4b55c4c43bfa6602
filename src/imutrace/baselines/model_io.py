"""Versioned model persistence and training-log export.

A model saves as one JSON object: the fields of its class, arrays as
nested lists, plus the format version. Loading passes those fields back
to the class's constructor, which casts them, so a file with an unknown
or a missing key is refused. JSON float rendering is
shortest-round-trip, so float64 parameters survive a save/load cycle
exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from ..errors import DataError
from . import BASELINES

FORMAT_VERSION = 1


def save_model(model, path: str | Path) -> None:
    obj = {**asdict(model), "format_version": FORMAT_VERSION}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, default=np.ndarray.tolist)
        fh.write("\n")


def load_model(path: str | Path):
    """Reload a saved model; its kind tag picks the config and model class."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise DataError(f"model file {path} must hold a JSON object")
    version = obj.pop("format_version", None)
    if version != FORMAT_VERSION:
        raise DataError(
            f"model file {path} has format_version {version!r}, expected {FORMAT_VERSION}"
        )
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in BASELINES:
        raise DataError(f"model file {path} has unknown kind {kind!r}")
    spec = BASELINES[kind]
    try:
        return spec.model(**{**obj, "config": spec.config(**obj["config"])})
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"model file {path} is malformed: {exc}")


def save_training_log(history: Sequence[tuple[int, float, float]], path: str | Path) -> None:
    """Write a network's history rows (epoch, loss, train accuracy) as CSV.

    Each row is a mean over that epoch's batches, taken before each
    batch's step; the trained model's own loss and accuracy on the whole
    Train set are the manifest's ``final_loss`` and ``train_accuracy``.
    """
    lines = ["epoch,loss,train_accuracy"]
    for epoch, loss, accuracy in history:
        lines.append(f"{epoch},{loss!r},{accuracy!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
