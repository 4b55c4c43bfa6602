"""From-scratch trainable baselines sharing a train/predict contract.

``BASELINES`` is the one table of baseline kinds: the experiment runner,
the ``train`` command and ``model_io.load_model`` all look a kind up here.
"""

from __future__ import annotations

from types import ModuleType
from typing import NamedTuple

from . import forest, nn, svm


class BaselineSpec(NamedTuple):
    """How one baseline kind is fed, configured, trained, applied and loaded.

    ``input`` is ``"features"`` (the statistical features of the
    full-rate windows, plus their labels) or ``"downsampled"`` (the
    downsampled windows themselves, the sequences the prompt path sees,
    which carry their own labels). ``train`` and ``predict_batch`` name
    attributes of ``module``, looked up when called, so whatever the
    attribute holds at that moment (a tracing wrapper, a test double) is
    what runs. ``run_experiment`` trains on a ``fork`` pool, so ``train``
    is looked up in the worker, after the fork: a double installed
    before the run is inherited and runs there, and whatever it records
    in memory stays in the worker.
    """

    input: str
    config: type
    model: type
    module: ModuleType
    train: str
    predict_batch: str


BASELINES = {
    "rf": BaselineSpec(
        "features", forest.RfConfig, forest.RandomForestModel, forest,
        "train_rf", "predict_rf_batch",
    ),
    "svm": BaselineSpec(
        "features", svm.SvmConfig, svm.SvmModel, svm, "train_svm", "predict_svm_batch"
    ),
    "cnn": BaselineSpec(
        "downsampled", nn.CnnConfig, nn.NnModel, nn, "train_cnn", "predict_nn_batch"
    ),
    "lstm": BaselineSpec(
        "downsampled", nn.LstmConfig, nn.NnModel, nn, "train_lstm", "predict_nn_batch"
    ),
}
