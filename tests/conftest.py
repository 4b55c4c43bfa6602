import numpy as np
import pytest

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
