import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from imutrace.baselines import nn
from imutrace.baselines.features import label_vector
from imutrace.baselines.model_io import load_model, save_model
from imutrace.baselines.nn import (
    CnnConfig,
    LstmConfig,
    NnModel,
    _sigmoid_terms,
    cnn_backward,
    cnn_forward,
    cross_entropy,
    init_cnn_params,
    init_lstm_params,
    lstm_backward,
    lstm_forward,
    predict_nn_batch,
    softmax,
    train_cnn,
    train_lstm,
)
from imutrace.core import Scenario, TrajectoryLabel, downsample
from imutrace.errors import DataError, TrainingDivergedError
from imutrace.synth import GeneratorConfig, ZERO_NOISE, generate_dataset, uniform_counts

from conftest import gradient_errors, window_from_array

SMALL_CNN = CnnConfig(filters1=4, filters2=6, epochs=10, batch_size=8, seed=0)
SMALL_LSTM = LstmConfig(hidden=8, epochs=10, batch_size=8, seed=0)


@pytest.fixture(scope="module")
def clean_windows():
    noise = {s: ZERO_NOISE for s in Scenario}
    windows, _ = generate_dataset(GeneratorConfig(seed=3), uniform_counts(6), noise=noise)
    return [downsample(w, 3.0) for w in windows if w.scenario is Scenario.INDOOR]


def _random_batch(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 9, 30))
    y = rng.integers(0, 4, size=3)
    return x, y


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_gradients_match_central_differences(kind):
    cfg = CnnConfig() if kind == "cnn" else LstmConfig()
    x, y = _random_batch(11)
    if kind == "cnn":
        params = init_cnn_params(cfg, x.shape[2])
    else:
        params = init_lstm_params(cfg)
    # at init, then after one SGD step off it; gradients must match at both
    err, err_after = gradient_errors(
        kind, cfg, params, x, y, seeds=(1, 2), h=1e-5, samples_per_tensor=5
    )
    assert err < 1e-4
    assert err_after < 1e-4


def _masked_sigmoid(x):
    # the boolean-mask formulation _sigmoid_terms replaced, kept as the reference
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


EDGE_VALUES = [0.0, -0.0, 700.0, -700.0, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan]


@settings(max_examples=200, deadline=None)
@given(
    x=arrays(
        np.float64,
        st.integers(1, 64),
        elements=st.one_of(st.floats(), st.sampled_from(EDGE_VALUES)),
    )
)
def test_sigmoid_matches_masked_formula_bit_for_bit(x):
    x = np.concatenate([x, EDGE_VALUES])
    with np.errstate(under="ignore"):
        want = _masked_sigmoid(x)
        num, den = np.empty_like(x), np.empty_like(x)
        _sigmoid_terms(x, num, den)
        got = num / den
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# the per-tap einsum convolutions and the per-step LSTM that the GEMM
# kernels replaced, kept as references


def _conv1d_ref(x, w, b):
    k = w.shape[2]
    t_out = x.shape[2] - k + 1
    cols = np.stack([x[:, :, j:j + t_out] for j in range(k)], axis=2)
    out = np.einsum("fck,bckt->bft", w, cols) + b[None, :, None]
    return out, cols


def _conv1d_backward_ref(dout, cols, w):
    dw = np.einsum("bft,bckt->fck", dout, cols)
    db = dout.sum(axis=(0, 2))
    batch, channels, k, t_out = cols.shape
    dx = np.zeros((batch, channels, t_out + k - 1))
    for j in range(k):
        dx[:, :, j:j + t_out] += np.einsum("bft,fc->bct", dout, w[:, :, j])
    return dw, db, dx


def _lstm_forward_ref(cfg, params, x):
    wx, wh, b = params["wx"], params["wh"], params["b"]
    hidden = cfg.hidden
    batch, _, t_len = x.shape
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    steps = []
    for t in range(t_len):
        xt = x[:, :, t]
        pre = xt @ wx.T + h @ wh.T + b
        gi = _masked_sigmoid(pre[:, :hidden])
        gf = _masked_sigmoid(pre[:, hidden : 2 * hidden])
        gg = np.tanh(pre[:, 2 * hidden : 3 * hidden])
        go = _masked_sigmoid(pre[:, 3 * hidden :])
        c_new = gf * c + gi * gg
        h_new = go * np.tanh(c_new)
        steps.append((xt, h, c, gi, gf, gg, go, c_new))
        h, c = h_new, c_new
    logits = h @ params["wd"].T + params["bd"]
    return logits, (steps, h)


def _lstm_backward_ref(cfg, params, cache, dlogits):
    steps, h_final = cache
    wh = params["wh"]
    grads = {
        "wx": np.zeros_like(params["wx"]),
        "wh": np.zeros_like(wh),
        "b": np.zeros_like(params["b"]),
        "wd": dlogits.T @ h_final,
        "bd": dlogits.sum(axis=0),
    }
    dh = dlogits @ params["wd"]
    dc = np.zeros_like(dh)
    for xt, h_prev, c_prev, gi, gf, gg, go, c_new in reversed(steps):
        tanh_c = np.tanh(c_new)
        do = dh * tanh_c
        dc = dc + dh * go * (1.0 - tanh_c**2)
        dpre = np.concatenate(
            [
                dc * gg * gi * (1.0 - gi),
                dc * c_prev * gf * (1.0 - gf),
                dc * gi * (1.0 - gg**2),
                do * go * (1.0 - go),
            ],
            axis=1,
        )
        grads["wx"] += dpre.T @ xt
        grads["wh"] += dpre.T @ h_prev
        grads["b"] += dpre.sum(axis=0)
        dh = dpre @ wh
        dc = dc * gf
    return grads


def _assert_close(got, want):
    # GEMM accumulation order differs from einsum and per-step sums, so
    # the kernels agree to rounding, not bit for bit
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


KERNEL_CASES = dict(
    batch=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    # input scales up to the range where tanh and the sigmoid saturate
    scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
)


@settings(max_examples=60, deadline=None)
@given(
    extra=st.integers(0, 20),
    kernel=st.integers(1, 5),
    pool=st.integers(1, 3),
    filters=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    **KERNEL_CASES,
)
def test_cnn_kernels_match_einsum_reference(batch, extra, kernel, pool, filters, seed, scale):
    cfg = CnnConfig(filters1=filters[0], filters2=filters[1], kernel=kernel, pool=pool)
    # the shortest input both conv stages accept, plus extra, made odd
    length = kernel * pool + kernel - 1 + extra
    length += 1 - length % 2
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, 9, length)) * scale
    y = rng.integers(0, 4, size=batch)
    params = init_cnn_params(cfg, length)
    w, b = params["w1"], params["b1"]
    out, cols = nn._conv1d(x, w, b, {}, "conv1")
    out_ref, cols_ref = _conv1d_ref(x, w, b)
    _assert_close(out, out_ref)
    assert np.array_equal(cols, cols_ref)
    dout = rng.standard_normal(out.shape)
    for got, want in zip(
        nn._conv1d_backward(dout, cols, w, {}, "conv1"), _conv1d_backward_ref(dout, cols, w)
    ):
        _assert_close(got, want)

    logits, cache = cnn_forward(cfg, params, x)
    _, dlogits = cross_entropy(logits, y)
    grads = cnn_backward(cfg, params, cache, dlogits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "_conv1d", lambda x, w, b, work, layer: _conv1d_ref(x, w, b))
        mp.setattr(
            nn, "_conv1d_backward",
            lambda dout, cols, w, work, layer: _conv1d_backward_ref(dout, cols, w),
        )
        logits_ref, cache_ref = cnn_forward(cfg, params, x)
        grads_ref = cnn_backward(cfg, params, cache_ref, dlogits)
    _assert_close(logits, logits_ref)
    assert grads.keys() == grads_ref.keys()
    for name in grads:
        _assert_close(grads[name], grads_ref[name])


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(0, 20).map(lambda n: 2 * n + 1),
    hidden=st.integers(1, 12),
    **KERNEL_CASES,
)
def test_lstm_kernels_match_per_step_reference(batch, length, hidden, seed, scale):
    cfg = LstmConfig(hidden=hidden)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, 9, length)) * scale
    params = init_lstm_params(cfg)
    logits, cache = lstm_forward(cfg, params, x)
    logits_ref, cache_ref = _lstm_forward_ref(cfg, params, x)
    _assert_close(logits, logits_ref)
    dlogits = rng.standard_normal(logits.shape)
    grads = lstm_backward(cfg, params, cache, dlogits)
    grads_ref = _lstm_backward_ref(cfg, params, cache_ref, dlogits)
    assert grads.keys() == grads_ref.keys()
    for name in grads:
        _assert_close(grads[name], grads_ref[name])


def _fill_stale(work):
    # what an earlier call might have left in every buffer
    for buf in work.values():
        buf.fill(-1 if buf.dtype.kind == "i" else np.nan)


@settings(max_examples=40, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 6), st.integers(8, 20)), min_size=2, max_size=2, unique=True
    ),
    hidden=st.integers(1, 8),
    time_major=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_workspace_carries_no_state_between_calls(shapes, hidden, time_major, seed):
    # forward and backward through one workspace on shape A, then B, then A
    # again, on fresh data each time and with every buffer spoiled before
    # each call, give exactly what a fresh workspace gives
    rng = np.random.default_rng(seed)
    nets = [
        ("cnn", CnnConfig(filters1=3, filters2=4, kernel=3, pool=2), cnn_forward, cnn_backward),
        ("lstm", LstmConfig(hidden=hidden), lstm_forward, lstm_backward),
    ]
    for kind, cfg, forward, backward in nets:
        work = {}
        for batch, length in (shapes[0], shapes[1], shapes[0]):
            if time_major:  # the layout training and prediction stack
                x = rng.standard_normal((batch, length, 9)).transpose(0, 2, 1)
            else:
                x = rng.standard_normal((batch, 9, length))
            y = rng.integers(0, 4, size=batch)
            params = init_cnn_params(cfg, length) if kind == "cnn" else init_lstm_params(cfg)
            _fill_stale(work)
            logits, cache = forward(cfg, params, x, work)
            _, dlogits = cross_entropy(logits, y)
            grads = backward(cfg, params, cache, dlogits, work)
            logits_fresh, cache_fresh = forward(cfg, params, x)
            grads_fresh = backward(cfg, params, cache_fresh, dlogits)
            assert np.array_equal(logits, logits_fresh)
            assert grads.keys() == grads_fresh.keys()
            for name in grads:
                assert np.array_equal(grads[name], grads_fresh[name]), (kind, name)


def _params_digest(model):
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(model.params[name].tobytes())
    return h.hexdigest()


def _history_digest(model):
    return hashlib.sha256(repr(model.history).encode()).hexdigest()


# sha256 of the trained params, and of the history rows, for the window
# counts the default run never trains on, with batch_size 8: fewer windows
# than a batch, exactly one batch (the final pass then reuses the batch's
# buffers) and one batch plus a 1-window batch. The params digests were
# recorded while a forward pass over the whole Train set still ran after
# every epoch; dropping that pass changed no training step, so they must
# not move a bit. The history digests were recorded when the rows became
# means over each epoch's batches, which changed every row's numbers.
# The bits are those of this float64 numpy and BLAS on x86-64; another
# BLAS kernel may round a GEMM differently.
TRAIN_DIGESTS = {
    ("cnn", 5): (
        "cba2f352c43f3ac5c39586e47cd1a9df796fea6273401ff37a8d660ac471296e",
        "f7bc1e7ba71b0cc58e26a4583a3334cdd79eed010ce9df9d256c9290455123f9",
    ),
    ("cnn", 8): (
        "7d129984a42fb1cc02b2bfc0bd8dad84f3cac8637c6b03c6c58e3e78212bd7c0",
        "139ef7e3205a4b296f1cf5b565dd6391842460f68417f2f9ab5925b5d9dc77de",
    ),
    ("cnn", 9): (
        "d1e3829ce80d08373211a5d2feec3cd8390f1553be0f98eb6cf8af1b7c430f88",
        "4f608550ee4ff1553d3ddc4ad82f7a158b15ad17069932e480154fa416f42f2a",
    ),
    ("lstm", 5): (
        "00b34d114269a98b6d820246d6a209fd58ffdde3cf6a0a5b10ae543a8b365ed9",
        "e8f8fda89c61ba8195140a185c9b036dfea439a39b6fce43d68a8719671f0185",
    ),
    ("lstm", 8): (
        "c36349dd88a0b7127aa70ea52be57e6de20f3f35b7a072081e333afe03a7bd34",
        "8f3b11aabb466bced49b10a54d05138c11ad89d744b424475b35b37b22a83366",
    ),
    ("lstm", 9): (
        "8706c0aef8817593863291f03297a1aa2bbd154a5b78c94cd4f34aab402ce3f4",
        "dc80b888f5950f400507f64feca3a429023ecf5eee824e6d322cd4ca73e0bf27",
    ),
}


@pytest.mark.parametrize("kind, n", sorted(TRAIN_DIGESTS))
def test_training_bits_at_batch_edges(kind, n, clean_windows):
    train, cfg = (train_cnn, SMALL_CNN) if kind == "cnn" else (train_lstm, SMALL_LSTM)
    model = train(clean_windows[:n], cfg)
    params_digest, history_digest = TRAIN_DIGESTS[(kind, n)]
    assert _params_digest(model) == params_digest
    assert _history_digest(model) == history_digest


def _standardized_train_set(model, windows):
    # the tensor _train trains on: stacked as it stacks them, scaled by
    # the model's own channel statistics
    x = nn._window_tensor(windows)
    xs = (x - model.channel_mean[None, :, None]) / model.channel_scale[None, :, None]
    return xs, label_vector(windows)


def _loss_and_accuracy(kind, cfg, params, xs, y):
    logits, _ = nn._NETS[kind].forward(cfg, params, xs)
    return cross_entropy(logits, y)[0], float(np.mean(np.argmax(logits, axis=1) == y))


@pytest.mark.parametrize(
    "kind, train, cfg",
    [
        ("cnn", train_cnn, CnnConfig(filters1=4, filters2=6, epochs=1, batch_size=16)),
        ("lstm", train_lstm, LstmConfig(hidden=8, epochs=1, batch_size=16)),
    ],
    ids=["cnn", "lstm"],
)
def test_one_batch_epoch_row_is_the_initial_params_on_the_train_set(
    kind, train, cfg, clean_windows
):
    # one epoch of one batch: its row is the loss and accuracy of the
    # params before the step, over every window (in shuffled order)
    windows = clean_windows[:9]
    model = train(windows, cfg)
    xs, y = _standardized_train_set(model, windows)
    initial = nn._NETS[kind].init(cfg, xs.shape[2])
    ((epoch, loss, accuracy),) = model.history
    assert epoch == 1
    initial_loss, initial_accuracy = _loss_and_accuracy(kind, cfg, initial, xs, y)
    assert loss == pytest.approx(initial_loss, rel=1e-12)
    assert accuracy == initial_accuracy


@pytest.mark.parametrize(
    "kind, train, cfg", [("cnn", train_cnn, SMALL_CNN), ("lstm", train_lstm, SMALL_LSTM)],
    ids=["cnn", "lstm"],
)
def test_manifest_scores_the_trained_params_on_the_train_set(kind, train, cfg, clean_windows):
    windows = clean_windows[:13]  # one full batch of 8 and one of 5
    model = train(windows, cfg)
    xs, y = _standardized_train_set(model, windows)
    assert [row[0] for row in model.history] == list(range(1, cfg.epochs + 1))
    final_loss, final_accuracy = _loss_and_accuracy(kind, cfg, model.params, xs, y)
    assert model.manifest["final_loss"] == final_loss
    assert model.manifest["train_accuracy"] == final_accuracy


def test_final_pass_catches_a_last_step_that_diverges(clean_windows):
    # the only batch loss is taken before the step and is finite, so only
    # the pass over the Train set after training can see the divergence.
    # One step at lr 1e100 leaves the weights near 1e99 and the loss near
    # 1e297, still finite; at 1e200 the logits overflow
    cfg = CnnConfig(filters1=4, filters2=6, epochs=1, batch_size=16, lr=1e200)
    with np.errstate(all="ignore"), pytest.raises(
        TrainingDivergedError, match="after epoch 1"
    ):
        train_cnn(clean_windows[:9], cfg)


def test_softmax_properties():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((20, 4)) * 5.0
    p = softmax(logits)
    assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-9)
    assert np.all(p > 0.0)
    # shift invariance
    assert np.allclose(softmax(logits + 123.456), p, atol=1e-12)
    # extreme logits cannot overflow
    huge = np.array([[1e4, 0.0, -1e4, 5.0]])
    ph = softmax(huge)
    assert np.all(np.isfinite(ph))
    assert ph[0, 0] == pytest.approx(1.0)


def test_cross_entropy_oracle():
    # uniform logits: loss is log(4) regardless of the target
    logits = np.zeros((3, 4))
    y = np.array([0, 2, 3])
    loss, dlogits = cross_entropy(logits, y)
    assert loss == pytest.approx(np.log(4.0), abs=1e-12)
    # gradient is (softmax - one_hot) / n
    expected = np.full((3, 4), 0.25)
    expected[np.arange(3), y] -= 1.0
    assert np.allclose(dlogits, expected / 3, atol=1e-12)


def test_zero_params_predict_first_label(clean_windows):
    cfg = SMALL_CNN
    model = train_cnn(clean_windows[:8], cfg)
    zeroed = NnModel(
        kind="cnn",
        config=cfg,
        params={name: np.zeros_like(arr) for name, arr in model.params.items()},
        channel_mean=model.channel_mean,
        channel_scale=model.channel_scale,
        input_length=model.input_length,
        history=(),
        manifest={},
    )
    labels, probs = predict_nn_batch(zeroed, clean_windows[:3])
    assert np.allclose(probs, 0.25)
    # first maximum on an exact tie
    assert labels == [TrajectoryLabel.STRAIGHT] * 3


@pytest.mark.parametrize(
    "train, cfg",
    [(train_cnn, SMALL_CNN), (train_lstm, SMALL_LSTM)],
    ids=["cnn", "lstm"],
)
def test_loss_decreases(train, cfg, clean_windows):
    model = train(clean_windows, cfg)
    losses = [row[1] for row in model.history]
    assert len(losses) == cfg.epochs
    assert losses[-1] < losses[0] - 0.02
    assert model.history[-1][0] == cfg.epochs
    assert all(np.isfinite(l) for l in losses)


def test_absurd_learning_rate_diverges(clean_windows):
    cfg = CnnConfig(filters1=4, filters2=6, epochs=10, batch_size=8, lr=1e100)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
        train_cnn(clean_windows, cfg)


def test_training_is_deterministic(clean_windows):
    a = train_lstm(clean_windows[:8], SMALL_LSTM)
    b = train_lstm(clean_windows[:8], SMALL_LSTM)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert a.history == b.history
    c = train_lstm(clean_windows[:8], LstmConfig(hidden=8, epochs=10, batch_size=8, seed=1))
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_standardization_stats(clean_windows):
    model = train_cnn(clean_windows[:8], SMALL_CNN)
    assert model.channel_mean.shape == (9,)
    assert model.channel_scale.shape == (9,)
    assert np.all(model.channel_scale > 0)
    labels, probs = predict_nn_batch(model, clean_windows[:5])
    assert len(labels) == 5
    assert probs.shape == (5, 4)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_save_load_round_trip(tmp_path, clean_windows):
    model = train_lstm(clean_windows[:8], SMALL_LSTM)
    path = tmp_path / "lstm.json"
    save_model(model, path)
    back = load_model(path)
    assert isinstance(back, NnModel) and back.kind == "lstm"
    assert back.config == model.config
    assert back.history == model.history
    # float64 params survive JSON, so logits agree bit for bit
    x = np.stack([w.data.T for w in clean_windows[:4]])
    xs = (x - back.channel_mean[None, :, None]) / back.channel_scale[None, :, None]
    la, _ = lstm_forward(model.config, model.params, xs)
    lb, _ = lstm_forward(back.config, back.params, xs)
    assert np.array_equal(la, lb)


def test_input_validation(clean_windows, make_window):
    with pytest.raises(DataError):
        train_cnn([], SMALL_CNN)
    short = make_window(np.zeros((5, 9)), label=TrajectoryLabel.STRAIGHT)
    mixed = [clean_windows[0], short]
    with pytest.raises(DataError):  # mismatched lengths
        train_cnn(mixed, SMALL_CNN)
    with pytest.raises(DataError):  # too short for two conv stages
        train_cnn([short, short], SMALL_CNN)
    with pytest.raises(DataError):  # non-finite samples die at construction
        make_window(np.full((30, 9), np.nan), label=TrajectoryLabel.STRAIGHT)
    model = train_cnn(clean_windows[:8], SMALL_CNN)
    with pytest.raises(DataError):  # prediction length mismatch
        predict_nn_batch(model, [clean_windows[0], make_window(np.zeros((12, 9)))])


def test_config_validation():
    with pytest.raises(DataError):
        CnnConfig(filters1=0)
    with pytest.raises(DataError):
        CnnConfig(lr=0.0)
    with pytest.raises(DataError):
        CnnConfig(momentum=1.0)
    with pytest.raises(DataError):
        LstmConfig(hidden=0)
    with pytest.raises(DataError):
        LstmConfig(momentum=-0.1)


# momentum's range check, 0 <= momentum < 1, already fails for NaN and inf
@pytest.mark.parametrize("lr", [np.nan, np.inf])
@pytest.mark.parametrize("config", [CnnConfig, LstmConfig])
def test_config_refuses_non_finite_lr(config, lr):
    with pytest.raises(DataError, match="learning rate must be positive and finite"):
        config(lr=lr)
