"""Properties of the deterministic 3:1:1:1 whole-group split."""

import numpy as np
import pytest

from imutrace.core import Part, Scenario, split_dataset
from imutrace.errors import DataError
from imutrace.synth import GeneratorConfig, ZERO_NOISE, generate_dataset, uniform_counts

from conftest import tiny_windows


def _mixed_windows(n_indoor, n_outdoor, groups_in, groups_out):
    return tiny_windows(n_indoor, groups=groups_in, prefix="i") + tiny_windows(
        n_outdoor, groups=groups_out, scenario=Scenario.OUTDOOR, prefix="o"
    )


def test_split_is_deterministic():
    windows = _mixed_windows(24, 24, 6, 6)
    a = split_dataset(windows, seed=3)
    b = split_dataset(windows, seed=3)
    assert a.to_json_dict() == b.to_json_dict()


def test_split_depends_on_seed():
    windows = _mixed_windows(24, 24, 6, 6)
    base = split_dataset(windows, seed=0).to_json_dict()
    assert any(
        split_dataset(windows, seed=s).to_json_dict() != base for s in range(1, 5)
    )


def test_split_ignores_input_order():
    windows = _mixed_windows(24, 24, 6, 6)
    a = split_dataset(windows, seed=7)
    rng = np.random.default_rng(0)
    shuffled = [windows[i] for i in rng.permutation(len(windows))]
    b = split_dataset(shuffled, seed=7)
    assert a.to_json_dict() == b.to_json_dict()


def test_split_property_loop():
    # 200 random datasets; validate() checks partition totality, the
    # 3:1:1:1 ratio within one window, and unseen-group exclusion.
    # Groups of one or two windows keep every draw feasible, so no
    # trial is silently skipped.
    rng = np.random.default_rng(11)
    for trial in range(200):
        n_in = int(rng.integers(12, 60))
        n_out = int(rng.integers(12, 60))
        g_in = -(-n_in // int(rng.integers(1, 3)))
        g_out = -(-n_out // int(rng.integers(1, 3)))
        windows = _mixed_windows(n_in, n_out, g_in, g_out)
        split = split_dataset(windows, seed=int(rng.integers(0, 2**31)))
        split.validate(windows)


def test_split_unseen_groups_fully_held_out():
    windows = _mixed_windows(36, 36, 6, 6)
    split = split_dataset(windows, seed=1)
    group_of = {w.id: w.recording_group for w in windows}
    unseen_groups = {group_of[i] for i in split.part_ids(Part.UNSEEN_TEST)}
    for part in (Part.TRAIN, Part.VALIDATION, Part.SEEN_TEST):
        for wid in split.part_ids(part):
            assert group_of[wid] not in unseen_groups
    # every window of an unseen group is in the unseen part
    unseen_ids = set(split.part_ids(Part.UNSEEN_TEST))
    for w in windows:
        if w.recording_group in unseen_groups:
            assert w.id in unseen_ids


def test_split_rejects_degenerate_inputs():
    with pytest.raises(DataError):
        split_dataset(tiny_windows(5, groups=5), seed=0)
    # one recording group per scenario: nothing can be held out
    with pytest.raises(DataError):
        split_dataset(tiny_windows(12, groups=1), seed=0)
    # a single giant group next to a tiny one cannot land near the quota
    big = tiny_windows(30, groups=1, prefix="big")
    small = tiny_windows(2, groups=1, prefix="small")
    for w in small:
        assert w.scenario is Scenario.INDOOR
    with pytest.raises(DataError):
        split_dataset(big + small, seed=0)


def test_split_refuses_to_hold_out_every_group_of_a_scenario():
    # indoor's groups of 3 and 2 windows are both too big for its 5/6
    # share, so outdoor's two single-window groups would both go unseen
    windows = _mixed_windows(5, 2, 2, 2)
    for seed in range(5):
        with pytest.raises(DataError, match="scenario 'outdoor' would have every group held out"):
            split_dataset(windows, seed=seed)


def test_split_duplicate_ids_rejected():
    windows = tiny_windows(12, groups=4)
    with pytest.raises(DataError):
        split_dataset(windows + [windows[0]], seed=0)


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="ROADMAP item 1a: split_dataset shuffles the non-unseen remainder across "
    "both scenarios, so a scenario can get no seen_test or no unseen_test window",
)
@pytest.mark.parametrize(
    "gen_seed, per_class, split_seed",
    [(4, 3, 1), (0, 2, 0)],
    ids=["indoor-no-seen-test", "indoor-no-seen-outdoor-no-unseen-test"],
)
def test_every_scenario_has_seen_and_unseen_test_windows(gen_seed, per_class, split_seed):
    windows, _ = generate_dataset(
        GeneratorConfig(seed=gen_seed, windows_per_group=2),
        uniform_counts(per_class),
        {s: ZERO_NOISE for s in Scenario},
    )
    split = split_dataset(windows, seed=split_seed)
    for scenario in Scenario:
        parts = {split.assignment[w.id] for w in windows if w.scenario is scenario}
        assert {Part.SEEN_TEST, Part.UNSEEN_TEST} <= parts, scenario
