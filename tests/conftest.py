import hashlib

import numpy as np
import pytest

from imutrace.baselines import nn
from imutrace.baselines.svm import ALPHA_EPS, kkt_violations
from imutrace.core import Scenario, TrajectoryLabel, TrajectoryWindow
from imutrace.evalreport import TIMINGS_FILE
from imutrace.synth import GeneratorConfig, ZERO_NOISE, generate_dataset, uniform_counts


def window_from_array(
    data,
    rate=100.0,
    window_id="w0",
    scenario=Scenario.INDOOR,
    group="g0",
    label=None,
):
    """Build a TrajectoryWindow from an (n, 9) array."""
    return TrajectoryWindow(
        id=window_id, scenario=scenario, recording_group=group, rate=rate,
        data=data, label=label,
    )


def run_outputs(directory):
    """The sha256 of every file in a run directory but its timings, by
    name: what a rerun of the same configuration must reproduce."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in directory.iterdir()
        if p.name != TIMINGS_FILE
    }


def tiny_windows(n, groups=4, scenario=Scenario.INDOOR, prefix="w", rng=None):
    """n cheap 2-sample windows spread over the given number of groups,
    labels round-robin; enough structure for split tests."""
    out = []
    for i in range(n):
        out.append(
            window_from_array(
                np.zeros((2, 9)),
                window_id=f"{prefix}{i:04d}",
                scenario=scenario,
                group=f"{prefix}g{i % groups}",
                label=list(TrajectoryLabel)[i % 4],
            )
        )
    return out


@pytest.fixture
def make_window():
    return window_from_array


@pytest.fixture(scope="session")
def zero_noise_dataset():
    """48 clean windows (6 per label per scenario), shared across tests."""
    noise = {s: ZERO_NOISE for s in Scenario}
    windows, manifest = generate_dataset(GeneratorConfig(seed=5), uniform_counts(6), noise)
    return windows, manifest


def mixed_length_windows():
    """48 clean windows (6 per label per scenario); the odd-numbered ones
    last 12 s and the others 10 s, so 36 and 30 samples at 3 Hz."""
    noise = {s: ZERO_NOISE for s in Scenario}
    ten, _ = generate_dataset(GeneratorConfig(seed=5), uniform_counts(6), noise)
    twelve, _ = generate_dataset(GeneratorConfig(seed=5, duration=12.0), uniform_counts(6), noise)
    return [b if i % 2 else a for i, (a, b) in enumerate(zip(ten, twelve))]


def gradient_errors(kind, cfg, params, x, y, seeds, h=1e-5, samples_per_tensor=5):
    """Max relative error |a - n| / max(|a| + |n|, 1e-12) between the
    network's backward and central differences of its loss, one value per
    seed: at params, then after one SGD step (from zero velocity) from the
    point last checked. Each check draws samples_per_tensor entries per
    tensor, in sorted name order, from default_rng(seed); a tensor with no
    more entries than that is checked whole. Steps params in place."""
    net = nn._NETS[kind]

    def loss_at(work):
        logits, _ = net.forward(cfg, params, x, work)
        return nn.cross_entropy(logits, y)[0]

    errors = []
    for seed in seeds:
        if errors:
            velocity = {name: np.zeros_like(arr) for name, arr in params.items()}
            nn.sgd_step(params, velocity, grads, cfg.lr, cfg.momentum)
        work = {}
        logits, cache = net.forward(cfg, params, x, work)
        grads = net.backward(cfg, params, cache, nn.cross_entropy(logits, y)[1], work)
        rng = np.random.default_rng(seed)
        worst = 0.0
        for name in sorted(params):
            flat = params[name].reshape(-1)
            if samples_per_tensor >= flat.size:
                indices = np.arange(flat.size)
            else:
                indices = rng.choice(flat.size, size=samples_per_tensor, replace=False)
            analytic = grads[name].reshape(-1)
            for idx in indices:
                original = flat[idx]
                flat[idx] = original + h
                loss_plus = loss_at(work)
                flat[idx] = original - h
                loss_minus = loss_at(work)
                flat[idx] = original
                numeric = (loss_plus - loss_minus) / (2.0 * h)
                denom = max(abs(analytic[idx]) + abs(numeric), 1e-12)
                worst = max(worst, abs(analytic[idx] - numeric) / denom)
        errors.append(worst)
    return errors


def smo_binary_reference(k, y, c, tol, max_passes):
    """svm._smo_binary as once written: Platt's first-order SMO, sweeping
    every point per pass and stepping on numpy scalars with np.clip. It
    is the oracle whose dual objective and predictions the second-order
    solver is checked against."""
    n = y.size
    alpha = np.zeros(n)
    bias = 0.0
    f = np.zeros(n)

    def take_step(i, j):
        nonlocal bias, f
        if i == j:
            return False
        a_i, a_j = alpha[i], alpha[j]
        y_i, y_j = y[i], y[j]
        e_i = f[i] - y_i
        e_j = f[j] - y_j
        if y_i == y_j:
            low, high = max(0.0, a_i + a_j - c), min(c, a_i + a_j)
        else:
            low, high = max(0.0, a_j - a_i), min(c, c + a_j - a_i)
        if high - low < ALPHA_EPS:
            return False
        eta = 2.0 * k[i, j] - k[i, i] - k[j, j]
        if eta >= 0:
            return False
        a_j_new = np.clip(a_j - y_j * (e_i - e_j) / eta, low, high)
        if abs(a_j_new - a_j) < ALPHA_EPS:
            return False
        a_i_new = a_i + y_i * y_j * (a_j - a_j_new)
        d_i = y_i * (a_i_new - a_i)
        d_j = y_j * (a_j_new - a_j)
        b1 = bias - e_i - d_i * k[i, i] - d_j * k[i, j]
        b2 = bias - e_j - d_i * k[i, j] - d_j * k[j, j]
        if ALPHA_EPS < a_i_new < c - ALPHA_EPS:
            bias_new = b1
        elif ALPHA_EPS < a_j_new < c - ALPHA_EPS:
            bias_new = b2
        else:
            bias_new = 0.5 * (b1 + b2)
        f += d_i * k[:, i] + d_j * k[:, j] + (bias_new - bias)
        alpha[i], alpha[j] = a_i_new, a_j_new
        bias = bias_new
        return True

    sweeps = 0
    for _ in range(max_passes):
        sweeps += 1
        changed = 0
        for i in range(n):
            e_i = f[i] - y[i]
            r = e_i * y[i]
            if not ((r < -tol and alpha[i] < c) or (r > tol and alpha[i] > 0)):
                continue
            gaps = np.abs((f - y) - e_i)
            gaps[i] = -1.0
            if take_step(i, int(np.argmax(gaps))):
                changed += 1
                continue
            for j in range(n):
                if take_step(i, j):
                    changed += 1
                    break
        if changed == 0:
            break

    fresh = k @ (alpha * y) + bias
    return alpha, bias, sweeps, float(np.max(kkt_violations(alpha, y, fresh, c)))
