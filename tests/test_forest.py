import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from imutrace.baselines.forest import (
    RandomForestModel,
    RfConfig,
    _best_split,
    predict_rf_batch,
    train_rf,
)
from imutrace.baselines.model_io import load_model, save_model
from imutrace.core import LABEL_ORDER, TrajectoryLabel
from imutrace.errors import DataError


def _blobs(seed, n_per_class=20, spread=0.3):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
    x = np.vstack([c + rng.standard_normal((n_per_class, 2)) * spread for c in centers])
    y = np.repeat(np.arange(4), n_per_class)
    return x, y


def test_single_tree_memorizes_distinct_points():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 2, 3])
    model = train_rf(x, y, RfConfig(trees=30, features_per_split=1, seed=0))
    labels, shares = predict_rf_batch(model, x)
    # bootstrap misses some points per tree but the vote still lands
    assert [lab.index for lab in labels] == [0, 1, 2, 3]
    assert np.allclose(shares.sum(axis=1), 1.0)
    assert model.manifest["train_accuracy"] == 1.0


def test_root_split_matches_brute_force_oracle():
    # one feature, labels 0,0,1,1: Gini is minimized only between x=1 and x=2,
    # so every tree that sees all four points must cut at 1.5
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])

    def gini_cost(threshold):
        left = y[x[:, 0] < threshold]
        right = y[x[:, 0] >= threshold]
        cost = 0.0
        for side in (left, right):
            if side.size:
                p = np.bincount(side, minlength=4) / side.size
                cost += side.size * (1.0 - np.sum(p**2))
        return cost / y.size

    candidates = [0.5, 1.5, 2.5]
    best = min(candidates, key=gini_cost)
    assert best == 1.5

    model = train_rf(x, y, RfConfig(trees=50, features_per_split=1, seed=3))
    for tree in model.trees_data:
        if "label" in tree:  # degenerate bootstrap drew one class only
            continue
        assert tree["feature"] == 0
        assert set(tree) == {"feature", "threshold", "left", "right"}
        seen = {x[x[:, 0] < tree["threshold"]].size, x[x[:, 0] >= tree["threshold"]].size}
        assert 0 not in seen  # split is non-trivial
        if tree["threshold"] == 1.5:
            assert tree["left"] == {"label": 0}
            assert tree["right"] == {"label": 1}
    # trees trained on the full sample (no bootstrap variance in labels) agree;
    # check the majority of roots sit at the oracle threshold
    thresholds = [t.get("threshold") for t in model.trees_data if "threshold" in t]
    assert np.median(thresholds) == 1.5


def test_determinism_and_seed_dependence(tmp_path):
    x, y = _blobs(0)
    a = train_rf(x, y, RfConfig(trees=15, seed=7))
    b = train_rf(x, y, RfConfig(trees=15, seed=7))
    save_model(a, tmp_path / "a.json")
    save_model(b, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    c = train_rf(x, y, RfConfig(trees=15, seed=8))
    assert a.trees_data != c.trees_data


def test_tie_break_constant_features():
    # all features identical: every leaf falls back to the first max count,
    # and with equal counts that is label index 0
    x = np.ones((8, 3))
    y = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    model = train_rf(x, y, RfConfig(trees=9, seed=1))
    labels, shares = predict_rf_batch(model, np.ones((1, 3)))
    label, share = labels[0], shares[0]
    assert label is TrajectoryLabel.STRAIGHT or share[label.index] >= share[0]
    assert share.sum() == pytest.approx(1.0)


def test_oob_and_separable_accuracy():
    x, y = _blobs(4)
    model = train_rf(x, y, RfConfig(trees=40, seed=2))
    oob = model.manifest["oob_accuracy"]
    assert 0.0 <= oob <= 1.0
    assert oob > 0.9  # blobs are far apart relative to spread
    labels, _ = predict_rf_batch(model, x)
    assert all(lab is LABEL_ORDER[y[i]] for i, lab in enumerate(labels))


def test_save_load_round_trip(tmp_path):
    x, y = _blobs(5, n_per_class=8)
    model = train_rf(x, y, RfConfig(trees=10, max_depth=4, seed=11))
    path = tmp_path / "rf.json"
    save_model(model, path)
    back = load_model(path)
    assert isinstance(back, RandomForestModel)
    assert back.config == model.config
    assert back.trees_data == model.trees_data
    assert back.manifest == model.manifest
    probe = np.array([[4.9, 5.1], [0.1, -0.2]])
    labels, shares = predict_rf_batch(back, probe)
    assert labels == predict_rf_batch(model, probe)[0]
    assert np.array_equal(shares, predict_rf_batch(model, probe)[1])


def test_validation_errors():
    with pytest.raises(DataError):
        RfConfig(trees=0)
    with pytest.raises(DataError):
        RfConfig(max_depth=0)
    with pytest.raises(DataError):
        train_rf(np.zeros((0, 2)), np.zeros(0, dtype=int), RfConfig(trees=1))
    with pytest.raises(DataError):
        train_rf(np.zeros((4, 2)), np.zeros(3, dtype=int), RfConfig(trees=1))
    with pytest.raises(DataError):
        train_rf(np.full((4, 2), np.nan), np.array([0, 1, 0, 1]), RfConfig(trees=1))
    with pytest.raises(DataError):  # single class
        train_rf(np.zeros((4, 2)), np.zeros(4, dtype=int), RfConfig(trees=1))


def test_predict_shape_mismatch():
    x, y = _blobs(6, n_per_class=5)
    model = train_rf(x, y, RfConfig(trees=5, seed=0))
    with pytest.raises(DataError):  # a bare row is not a matrix
        predict_rf_batch(model, np.zeros(2))
    with pytest.raises(DataError):
        predict_rf_batch(model, np.zeros((2, 3)))


def _gini_sweep(values, labels):
    # the per-feature sweep that _best_split replaced, kept as the reference:
    # best (cost, threshold) over the cut points of one column, (inf, nan)
    # when it is constant
    order = np.argsort(values, kind="stable")
    v = values[order]
    n = v.size
    one_hot = np.zeros((n, 4))
    one_hot[np.arange(n), labels[order]] = 1.0
    prefix = one_hot.cumsum(axis=0)
    cuts = np.nonzero(v[:-1] < v[1:])[0]
    if cuts.size == 0:
        return np.inf, np.nan
    left = prefix[cuts]
    total = prefix[-1]
    right = total - left
    n_left = (cuts + 1).astype(float)
    n_right = n - n_left
    gini_left = 1.0 - np.sum((left / n_left[:, None]) ** 2, axis=1)
    gini_right = 1.0 - np.sum((right / n_right[:, None]) ** 2, axis=1)
    cost = (n_left * gini_left + n_right * gini_right) / n
    best = int(np.argmin(cost))
    threshold = 0.5 * (v[cuts[best]] + v[cuts[best] + 1])
    return float(cost[best]), float(threshold)


def _best_split_loop(values, labels):
    # one sweep per column, the first strictly lower cost wins
    best_cost, best_column, best_threshold = np.inf, -1, np.nan
    for column in range(values.shape[1]):
        cost, threshold = _gini_sweep(values[:, column], labels)
        if cost < best_cost:
            best_cost, best_column, best_threshold = cost, column, threshold
    return best_column, best_threshold


# few distinct values, so columns tie within and across themselves
TIED_VALUES = [-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 2.0, 1e6]


@st.composite
def _node(draw):
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, 6))
    values = draw(arrays(np.float64, (n, m), elements=st.sampled_from(TIED_VALUES)))
    constant = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    values[:, constant] = values[0, constant]
    classes = draw(st.integers(2, 4))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, classes - 1)))
    return values, labels


@settings(max_examples=300, deadline=None)
@given(node=_node())
def test_batched_split_matches_per_feature_sweep(node):
    values, labels = node
    column, threshold = _best_split(values, labels)
    want_column, want_threshold = _best_split_loop(values, labels)
    assert column == want_column
    assert np.array(threshold).tobytes() == np.array(want_threshold).tobytes()


def _walk(tree, row):
    node = tree
    while "label" not in node:
        node = node["left"] if row[node["feature"]] < node["threshold"] else node["right"]
    return node["label"]


@st.composite
def _forest_case(draw):
    x, y = draw(_node())
    assume(np.unique(y).size >= 2)
    cfg = RfConfig(
        trees=draw(st.integers(1, 12)),
        max_depth=draw(st.sampled_from([None, 1, 2])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    probe = draw(arrays(np.float64, (3, x.shape[1]), elements=st.sampled_from(TIED_VALUES)))
    return x, y, cfg, probe


@settings(max_examples=200, deadline=None)
@given(case=_forest_case())
def test_forest_votes_match_a_per_tree_reference(case):
    # each tree's bootstrap is redrawn from its own generator, and each
    # tree is walked over numpy rows, one (tree, row) pair at a time
    x, y, cfg, probe = case
    model = train_rf(x, y, cfg)
    n = y.size
    oob, every = np.zeros((n, 4), dtype=int), np.zeros((n, 4), dtype=int)
    for t, tree in enumerate(model.trees_data):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, t)))
        in_bag = set(rng.integers(0, n, size=n).tolist())
        for i in range(n):
            label = _walk(tree, x[i])
            every[i, label] += 1
            if i not in in_bag:
                oob[i, label] += 1
    covered = oob.sum(axis=1) > 0
    want_oob = np.mean(np.argmax(oob[covered], axis=1) == y[covered]) if covered.any() else 0.0
    assert model.manifest["oob_accuracy"] == want_oob
    assert model.manifest["train_accuracy"] == np.mean(np.argmax(every, axis=1) == y)

    votes = np.zeros((probe.shape[0], 4), dtype=int)
    for tree in model.trees_data:
        for i, row in enumerate(probe):
            votes[i, _walk(tree, row)] += 1
    labels, shares = predict_rf_batch(model, probe)
    assert [lab.index for lab in labels] == np.argmax(votes, axis=1).tolist()
    assert shares.tobytes() == (votes / votes.sum(axis=1, keepdims=True)).tobytes()
