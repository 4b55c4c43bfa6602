import numpy as np
import pytest

from imutrace.baselines import nn
from imutrace.core import Scenario, TrajectoryLabel, TrajectoryWindow
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
