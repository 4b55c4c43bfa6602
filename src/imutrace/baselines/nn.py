"""From-scratch 1-D CNN and LSTM classifiers with hand-derived backprop.

Everything is float64 numpy so analytic gradients can be checked
tightly against central finite differences; that check lives in the
test suite (``gradient_errors`` in ``tests/conftest.py``) and runs each
network's forward and backward through ``_NETS``. The CNN is
conv(16, k5) -> ReLU -> maxpool(2) -> conv(32, k5) -> ReLU -> global
average pool -> dense(4); the LSTM feeds the final hidden state (size
32) through dense(4). Both train by mini-batch SGD with momentum on
mean cross-entropy, with seeded init and seeded epoch shuffles, so a
(data, config, seed) triple always yields the same model. A model's
history has one row per epoch, made from that epoch's batch forward
passes, each before its batch's step: the size-weighted mean of the
batch losses and the share of windows the batch logits classify right.
Its manifest's ``final_loss`` and ``train_accuracy`` come from the one
pass over the whole Train set after the last epoch.

The convolutions are GEMMs on the unfolded input, one per sample, and
the LSTM projects the input of every step in one call, so only its
recurrence runs step by step. Every GEMM stays per-sample or per-step
sized: that is small enough for single-threaded BLAS, while one GEMM
over a whole batch gets split across threads and, on a small machine,
costs more CPU time than it saves in wall time.

Every forward and backward function takes a workspace: a dict of
scratch arrays keyed by (name, shape), into which it writes its large
intermediates (the unfolded conv inputs, the LSTM's gates and states,
the backward's per-step derivatives) instead of allocating them. A
training run keeps one workspace, so each batch shape (a full batch, the
last smaller one, and the whole Train set for the pass after training)
gets its buffers once per run, not once per call: allocated per call, the
larger ones go back to the OS on free and are page-faulted in again on
the next call. Without a workspace a call gets a fresh one, through
the same code. The cache a forward returns lives in the workspace, so
it holds until the next forward of that shape through it; logits and
gradients are always new arrays.

Input tensors are (batch, 9 channels, time). Channels are z-scored by
training-set statistics by default; raw accelerometer, gyro, and
magnetometer units differ by two orders of magnitude, which a fixed
learning rate handles poorly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from ..core import AXIS_NAMES, N_CLASSES, TrajectoryLabel, TrajectoryWindow
from ..errors import DataError, TrainingDivergedError
from .features import argmax_labels, data_digest, label_vector, standardizer

N_CHANNELS = len(AXIS_NAMES)


def _check_config(cfg, sizes: tuple[str, ...]) -> None:
    # the network's own sizes, then the training fields both configs share
    for name in (*sizes, "epochs", "batch_size"):
        if getattr(cfg, name) < 1:
            raise DataError(f"{name} must be >= 1, got {getattr(cfg, name)}")
    if not (math.isfinite(cfg.lr) and cfg.lr > 0):
        raise DataError(f"learning rate must be positive and finite, got {cfg.lr}")
    if not 0 <= cfg.momentum < 1:
        raise DataError(f"momentum must be in [0, 1), got {cfg.momentum}")
    if cfg.seed < 0:
        raise DataError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class CnnConfig:
    filters1: int = 16
    filters2: int = 32
    kernel: int = 5
    pool: int = 2
    epochs: int = 60
    batch_size: int = 16
    lr: float = 1e-2
    momentum: float = 0.9
    seed: int = 0
    standardize: bool = True

    def __post_init__(self):
        _check_config(self, ("filters1", "filters2", "kernel", "pool"))


@dataclass(frozen=True)
class LstmConfig:
    hidden: int = 32
    epochs: int = 80
    batch_size: int = 16
    lr: float = 1e-2
    momentum: float = 0.9
    seed: int = 0
    standardize: bool = True

    def __post_init__(self):
        _check_config(self, ("hidden",))


NnConfig = Union[CnnConfig, LstmConfig]


@dataclass(frozen=True)
class NnModel:
    """A trained CNN or LSTM; its fields are the keys of its model file."""

    kind: str  # "cnn" or "lstm"
    config: NnConfig
    params: dict
    channel_mean: np.ndarray  # (N_CHANNELS,)
    channel_scale: np.ndarray  # (N_CHANNELS,)
    input_length: int
    history: tuple[tuple[int, float, float], ...]  # (epoch, batch-mean loss, accuracy)
    manifest: dict

    def __post_init__(self):
        params = {name: np.asarray(arr, dtype=np.float64) for name, arr in self.params.items()}
        object.__setattr__(self, "params", params)
        object.__setattr__(
            self, "channel_mean", np.asarray(self.channel_mean, dtype=np.float64)
        )
        object.__setattr__(
            self, "channel_scale", np.asarray(self.channel_scale, dtype=np.float64)
        )
        object.__setattr__(self, "input_length", int(self.input_length))
        object.__setattr__(
            self, "history", tuple((int(e), float(l), float(a)) for e, l, a in self.history)
        )
        object.__setattr__(self, "manifest", dict(self.manifest))
        if self.kind not in _NETS:
            raise DataError(f"unknown network kind {self.kind!r}")
        # the tensors init makes for this config and length, by name and shape
        want = {
            name: arr.shape
            for name, arr in _NETS[self.kind].init(self.config, self.input_length).items()
        }
        got = {name: arr.shape for name, arr in params.items()}
        if got != want:
            raise DataError(f"{self.kind} params must have the shapes {want}, got {got}")
        for name in ("channel_mean", "channel_scale"):
            if getattr(self, name).shape != (N_CHANNELS,):
                raise DataError(
                    f"{name} must hold {N_CHANNELS} values, got shape {getattr(self, name).shape}"
                )


# --------------------------------------------------------------------------
# parameter initialization


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    s = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=shape)


def init_cnn_params(cfg: CnnConfig, length: int) -> dict:
    """Seeded uniform(-s, s) init, s = 1/sqrt(fan-in) per tensor.

    Bias tensors use their layer's weight fan-in.
    """
    _cnn_shape_check(cfg, length)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))
    k = cfg.kernel
    params = {}
    params["w1"] = _uniform(rng, (cfg.filters1, N_CHANNELS, k), N_CHANNELS * k)
    params["b1"] = _uniform(rng, (cfg.filters1,), N_CHANNELS * k)
    params["w2"] = _uniform(rng, (cfg.filters2, cfg.filters1, k), cfg.filters1 * k)
    params["b2"] = _uniform(rng, (cfg.filters2,), cfg.filters1 * k)
    params["wd"] = _uniform(rng, (N_CLASSES, cfg.filters2), cfg.filters2)
    params["bd"] = _uniform(rng, (N_CLASSES,), cfg.filters2)
    return params


def init_lstm_params(cfg: LstmConfig) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0)))
    h = cfg.hidden
    params = {}
    params["wx"] = _uniform(rng, (4 * h, N_CHANNELS), N_CHANNELS)
    params["wh"] = _uniform(rng, (4 * h, h), h)
    params["b"] = _uniform(rng, (4 * h,), N_CHANNELS + h)
    params["wd"] = _uniform(rng, (N_CLASSES, h), h)
    params["bd"] = _uniform(rng, (N_CLASSES,), h)
    return params


def _cnn_shape_check(cfg: CnnConfig, length: int) -> None:
    t1 = length - cfg.kernel + 1
    t_pool = t1 // cfg.pool if t1 > 0 else 0
    t2 = t_pool - cfg.kernel + 1
    if t1 < 1 or t_pool < 1 or t2 < 1:
        raise DataError(
            f"input length {length} is too short for kernel {cfg.kernel} and "
            f"pool {cfg.pool} (need both conv stages and the pool to output "
            f">= 1 step)"
        )


# --------------------------------------------------------------------------
# layers


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1)
    loss = float(np.mean(np.log(total) - z[np.arange(n), y]))
    dlogits = e / total[:, None]  # the softmax, from the loss's exponentials
    dlogits[np.arange(n), y] -= 1.0
    return loss, dlogits / n


def _buffer(work: dict, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    # the workspace's array for (name, shape), made on first use and left
    # uninitialized: every caller writes all of it before reading it
    key = (name, shape)
    if key not in work:
        work[key] = np.empty(shape, dtype)
    return work[key]


def _conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray, work: dict, layer: str):
    # x (B,C,T), w (F,C,K), valid padding -> (B,F,T-K+1); one (F, C*K) GEMM
    # per sample on the unfolded input
    filters, channels, k = w.shape
    batch = x.shape[0]
    t_out = x.shape[2] - k + 1
    # the unfolded input follows x's axis order, taps innermost beside the
    # channels, so a time-major x (as _window_tensor stacks (T, 9) windows)
    # gives a column-major GEMM operand. The two layouts round differently,
    # and the recorded model and report digests are this choice's bits
    if x.strides[1] < x.strides[2]:
        cols = _buffer(work, layer + ".cols_tmajor", (batch, t_out, channels, k))
        cols = cols.transpose(0, 2, 3, 1)
    else:
        cols = _buffer(work, layer + ".cols", (batch, channels, k, t_out))
    for j in range(k):
        cols[:, :, j] = x[:, :, j:j + t_out]
    out = _buffer(work, layer + ".out", (batch, filters, t_out))
    np.matmul(
        w.reshape(filters, channels * k), cols.reshape(batch, channels * k, t_out), out=out
    )
    out += b[None, :, None]
    return out, cols


def _conv1d_param_grads(
    dout: np.ndarray, cols: np.ndarray, w: np.ndarray, work: dict, layer: str
):
    # the weight and bias grads only, for the first layer, whose input
    # takes no gradient
    batch, channels, k, t_out = cols.shape
    unfolded = cols.reshape(batch, channels * k, t_out)
    dw = _buffer(work, layer + ".dw", (batch, w.shape[0], channels * k))
    np.matmul(dout, unfolded.transpose(0, 2, 1), out=dw)
    return dw.sum(axis=0).reshape(w.shape), dout.sum(axis=(0, 2))


def _conv1d_backward(
    dout: np.ndarray, cols: np.ndarray, w: np.ndarray, work: dict, layer: str
):
    batch, channels, k, t_out = cols.shape
    filters = w.shape[0]
    dcols = _buffer(work, layer + ".dcols", (batch, channels * k, t_out))
    np.matmul(w.reshape(filters, channels * k).T, dout, out=dcols)
    dcols = dcols.reshape(cols.shape)
    dx = _buffer(work, layer + ".dx", (batch, channels, t_out + k - 1))
    dx.fill(0.0)
    for j in range(k):
        dx[:, :, j:j + t_out] += dcols[:, :, j]
    return (*_conv1d_param_grads(dout, cols, w, work, layer), dx)


def _maxpool(x: np.ndarray, pool: int, work: dict):
    batch, filters, t = x.shape
    t_out = t // pool
    xr = x[:, :, : t_out * pool].reshape(batch, filters, t_out, pool)
    arg = _buffer(work, "pool.arg", (batch, filters, t_out), np.intp)
    np.argmax(xr, axis=3, out=arg)
    out = np.take_along_axis(xr, arg[..., None], axis=3)[..., 0]
    return out, arg


def _maxpool_backward(dout: np.ndarray, arg: np.ndarray, pool: int, t_in: int, work: dict):
    batch, filters, t_out = dout.shape
    dxr = _buffer(work, "pool.dxr", (batch, filters, t_out, pool))
    dxr.fill(0.0)
    np.put_along_axis(dxr, arg[..., None], dout[..., None], axis=3)
    dx = _buffer(work, "pool.dx", (batch, filters, t_in))
    dx[:, :, : t_out * pool] = dxr.reshape(batch, filters, t_out * pool)
    dx[:, :, t_out * pool:] = 0.0
    return dx


def _sigmoid_terms(x: np.ndarray, num: np.ndarray, den: np.ndarray) -> None:
    # writes the sigmoid of x as num / den: the two stable forms 1/(1+e) and
    # e/(1+e), e = exp(-|x|), picked per element. minimum(x, -x) keeps a
    # NaN's sign, and maximum(e, x >= 0) is 1 for x >= 0 (e <= 1 there) and
    # e otherwise, NaN included, so these are the bits of boolean-mask
    # indexing
    np.negative(x, out=den)
    np.minimum(x, den, out=den)
    np.exp(den, out=den)
    np.maximum(den, x >= 0, out=num)
    den += 1.0


# --------------------------------------------------------------------------
# forward / backward


def cnn_forward(cfg: CnnConfig, params: dict, x: np.ndarray, work: Optional[dict] = None):
    work = {} if work is None else work
    a1, cols1 = _conv1d(x, params["w1"], params["b1"], work, "conv1")
    # ReLU in place: a > 0 exactly where the pre-activation is > 0 (NaN and
    # -0 included), so the backward masks by a
    np.maximum(a1, 0.0, out=a1)
    p, arg = _maxpool(a1, cfg.pool, work)
    a2, cols2 = _conv1d(p, params["w2"], params["b2"], work, "conv2")
    np.maximum(a2, 0.0, out=a2)
    g = a2.mean(axis=2)
    logits = g @ params["wd"].T + params["bd"]
    return logits, (cols1, a1, arg, cols2, a2, g)


def cnn_backward(
    cfg: CnnConfig, params: dict, cache, dlogits: np.ndarray, work: Optional[dict] = None
) -> dict:
    work = {} if work is None else work
    cols1, a1, arg, cols2, a2, g = cache
    grads = {}
    grads["wd"] = dlogits.T @ g
    grads["bd"] = dlogits.sum(axis=0)
    dg = dlogits @ params["wd"]
    dz2 = _buffer(work, "conv2.dz", a2.shape)
    np.divide(dg[:, :, None], a2.shape[2], out=dz2)
    dz2 *= a2 > 0
    grads["w2"], grads["b2"], dp = _conv1d_backward(dz2, cols2, params["w2"], work, "conv2")
    dz1 = _maxpool_backward(dp, arg, cfg.pool, a1.shape[2], work)
    dz1 *= a1 > 0
    grads["w1"], grads["b1"] = _conv1d_param_grads(dz1, cols1, params["w1"], work, "conv1")
    return grads


def lstm_forward(cfg: LstmConfig, params: dict, x: np.ndarray, work: Optional[dict] = None):
    work = {} if work is None else work
    # C-order copies: matmul with the transposed views is slower at these sizes
    wh_t = np.ascontiguousarray(params["wh"].T)
    hidden = cfg.hidden
    batch, channels, t_len = x.shape
    xt = _buffer(work, "lstm.xt", (t_len, batch, channels))
    np.copyto(xt, x.transpose(2, 0, 1))
    # the input projection of every step at once, T GEMMs (B,C) x (C,4H);
    # step t adds h @ wh.T and overwrites its row with the gates i, f, g, o
    gates = _buffer(work, "lstm.gates", (t_len, batch, 4 * hidden))
    np.matmul(xt, np.ascontiguousarray(params["wx"].T), out=gates)
    gates += params["b"]
    # hs[t], cs[t]: state before step t
    hs = _buffer(work, "lstm.hs", (t_len + 1, batch, hidden))
    cs = _buffer(work, "lstm.cs", (t_len + 1, batch, hidden))
    hs[0] = 0.0
    cs[0] = 0.0
    tanh_cs = _buffer(work, "lstm.tanh_cs", (t_len, batch, hidden))
    num = _buffer(work, "lstm.num", (batch, 4 * hidden))
    den = _buffer(work, "lstm.den", (batch, 4 * hidden))
    gi, gf, gg, go = (gates[..., j * hidden:(j + 1) * hidden] for j in range(4))
    g = slice(2 * hidden, 3 * hidden)
    for t in range(t_len):
        act = gates[t]
        act += hs[t] @ wh_t
        _sigmoid_terms(act, num, den)
        # the cell gate takes tanh instead: numerator tanh, denominator 1,
        # which the division keeps exactly
        np.tanh(act[:, g], out=num[:, g])
        den[:, g] = 1.0
        np.divide(num, den, out=act)
        np.add(gf[t] * cs[t], gi[t] * gg[t], out=cs[t + 1])
        np.tanh(cs[t + 1], out=tanh_cs[t])
        np.multiply(go[t], tanh_cs[t], out=hs[t + 1])
    logits = hs[t_len] @ params["wd"].T + params["bd"]
    return logits, (xt, gates, hs, cs, tanh_cs)


def lstm_backward(
    cfg: LstmConfig, params: dict, cache, dlogits: np.ndarray, work: Optional[dict] = None
) -> dict:
    work = {} if work is None else work
    xt, gates, hs, cs, tanh_cs = cache
    wx, wh = params["wx"], params["wh"]
    hidden = cfg.hidden
    t_len, batch, _ = gates.shape
    gi, gf, gg, go = (gates[..., j * hidden:(j + 1) * hidden] for j in range(4))
    # the local derivatives of every step at once, built in place in the
    # workspace; step t scales them into dpre[t] = (dc, dc, dc, dh) * local[t]
    dpre = _buffer(work, "lstm.dpre", (t_len, batch, 4, hidden))
    di, df, dg, do = (dpre[:, :, j] for j in range(4))
    for local, gate, partner in ((di, gi, gg), (df, gf, cs[:t_len]), (do, go, tanh_cs)):
        np.subtract(1.0, gate, out=local)
        local *= gate
        local *= partner
    np.multiply(gg, gg, out=dg)
    np.subtract(1.0, dg, out=dg)
    dg *= gi
    dc_from_dh = _buffer(work, "lstm.dc_from_dh", tanh_cs.shape)
    np.multiply(tanh_cs, tanh_cs, out=dc_from_dh)
    np.subtract(1.0, dc_from_dh, out=dc_from_dh)
    dc_from_dh *= go
    # wx and wh grads sum per-step GEMMs as they go; one batched matmul
    # into the workspace after the loop, summed in the same order, gives
    # the same bits but measured no faster
    grads = {
        "wx": np.zeros_like(wx),
        "wh": np.zeros_like(wh),
        "wd": dlogits.T @ hs[t_len],
        "bd": dlogits.sum(axis=0),
    }
    dh = dlogits @ params["wd"]
    dc = np.zeros_like(dh)
    for t in reversed(range(t_len)):
        dc += dh * dc_from_dh[t]
        d = dpre[t]
        d[:, :3] *= dc[:, None, :]
        d[:, 3] *= dh
        d = d.reshape(batch, 4 * hidden)
        grads["wx"] += d.T @ xt[t]
        grads["wh"] += d.T @ hs[t]
        dh = d @ wh
        dc *= gf[t]
    grads["b"] = dpre.sum(axis=(0, 1)).reshape(-1)
    return grads


class _Net(NamedTuple):
    init: Callable  # (cfg, input length) -> params
    forward: Callable  # (cfg, params, x, work) -> (logits, cache)
    backward: Callable  # (cfg, params, cache, dlogits, work) -> grads


_NETS = {
    "cnn": _Net(init_cnn_params, cnn_forward, cnn_backward),
    "lstm": _Net(lambda cfg, length: init_lstm_params(cfg), lstm_forward, lstm_backward),
}


def sgd_step(params: dict, velocity: dict, grads: dict, lr: float, momentum: float) -> None:
    """In-place momentum update: v = mu*v - lr*g; p += v."""
    for name in params:
        velocity[name] = momentum * velocity[name] - lr * grads[name]
        params[name] += velocity[name]


# --------------------------------------------------------------------------
# training


def _window_tensor(windows: Sequence[TrajectoryWindow]) -> np.ndarray:
    if not windows:
        raise DataError("cannot train on zero windows")
    lengths = {len(w) for w in windows}
    if len(lengths) != 1:
        raise DataError(f"all training windows must share one length, got {sorted(lengths)}")
    # window data is finite by TrajectoryWindow validation, no re-check here
    return np.stack([w.data.T for w in windows])  # (n, N_CHANNELS, T)


def _check_finite(kind: str, loss: float, when: str) -> None:
    if not np.isfinite(loss):
        raise TrainingDivergedError(
            f"{kind} training loss became non-finite {when}; try a lower learning rate"
        )


def _train(kind: str, windows: Sequence[TrajectoryWindow], cfg: NnConfig) -> NnModel:
    x = _window_tensor(windows)
    y = label_vector(windows)
    n, _, t_len = x.shape
    channel_mean, channel_scale = standardizer(x, (0, 2), cfg.standardize)
    xs = (x - channel_mean[None, :, None]) / channel_scale[None, :, None]

    net = _NETS[kind]
    params = net.init(cfg, t_len)
    velocity = {name: np.zeros_like(arr) for name, arr in params.items()}
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1)))
    # one workspace for the run: a full batch, the last smaller one and the
    # final pass over the whole set each get their buffers once
    work: dict = {}

    # an epoch's row comes from the batch forwards that training makes
    # anyway, each taken before its batch's step: the size-weighted mean of
    # the batch losses and the share of windows the batch logits classify
    # right. A batch loss is >= 0 or non-finite, so the mean is non-finite
    # exactly when one of them is
    history: list[tuple[int, float, float]] = []
    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            y_batch = y[batch]
            logits, cache = net.forward(cfg, params, xs[batch], work)
            loss, dlogits = cross_entropy(logits, y_batch)
            loss_sum += loss * len(batch)
            correct += int(np.count_nonzero(np.argmax(logits, axis=1) == y_batch))
            grads = net.backward(cfg, params, cache, dlogits, work)
            sgd_step(params, velocity, grads, cfg.lr, cfg.momentum)
        loss = loss_sum / n
        _check_finite(kind, loss, f"at epoch {epoch}")
        history.append((epoch, loss, correct / n))

    # the one pass over the whole Train set, with the trained params: it
    # gives the manifest's loss and accuracy and checks the last step,
    # which no batch loss saw
    logits, _ = net.forward(cfg, params, xs, work)
    final_loss, _ = cross_entropy(logits, y)
    _check_finite(kind, final_loss, f"after epoch {cfg.epochs}")
    final_accuracy = float(np.mean(np.argmax(logits, axis=1) == y))
    manifest = {
        "config": asdict(cfg),
        "seed": cfg.seed,
        "data_sha256": data_digest(x, y),
        "n_samples": n,
        "input_length": t_len,
        "final_loss": final_loss,
        "train_accuracy": final_accuracy,
    }
    return NnModel(
        kind=kind,
        config=cfg,
        params=params,
        channel_mean=channel_mean,
        channel_scale=channel_scale,
        input_length=t_len,
        history=tuple(history),
        manifest=manifest,
    )


def train_cnn(windows: Sequence[TrajectoryWindow], cfg: CnnConfig) -> NnModel:
    return _train("cnn", windows, cfg)


def train_lstm(windows: Sequence[TrajectoryWindow], cfg: LstmConfig) -> NnModel:
    return _train("lstm", windows, cfg)


def predict_nn_batch(
    model: NnModel, windows: Sequence[TrajectoryWindow]
) -> tuple[list[TrajectoryLabel], np.ndarray]:
    """Class probabilities and argmax labels (first maximum on ties)."""
    if not windows:
        return [], np.zeros((0, N_CLASSES))
    for w in windows:
        if len(w) != model.input_length:
            raise DataError(
                f"window {w.id!r} has {len(w)} samples, model expects {model.input_length}"
            )
    x = _window_tensor(windows)
    xs = (x - model.channel_mean[None, :, None]) / model.channel_scale[None, :, None]
    logits, _ = _NETS[model.kind].forward(model.config, model.params, xs)
    probs = softmax(logits)
    return argmax_labels(probs), probs
