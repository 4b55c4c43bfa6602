import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imutrace.baselines import svm
from imutrace.baselines.features import feature_matrix, label_vector
from imutrace.baselines.model_io import load_model, save_model
from imutrace.baselines.svm import (
    ALPHA_EPS,
    SvmConfig,
    SvmModel,
    decision_matrix,
    kkt_violations,
    predict_svm_batch,
    rbf_kernel,
    train_svm,
)
from imutrace.core import LABEL_ORDER, Part, Scenario, split_dataset
from imutrace.errors import DataError
from imutrace.synth import GeneratorConfig, generate_dataset, uniform_counts

from conftest import smo_binary_reference


def _blobs(seed, n_per_class=12, spread=0.5):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
    x = np.vstack([c + rng.standard_normal((n_per_class, 2)) * spread for c in centers])
    y = np.repeat(np.arange(4), n_per_class)
    return x, y


def test_rbf_kernel_identities():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 3))
    k = rbf_kernel(a, a, gamma=0.7)
    assert np.allclose(np.diag(k), 1.0)
    assert np.allclose(k, k.T, atol=1e-14)
    assert np.all(k > 0.0) and np.all(k <= 1.0)
    # closed form on one pair
    u = np.array([[1.0, 0.0]])
    v = np.array([[0.0, 2.0]])
    assert rbf_kernel(u, v, gamma=0.3)[0, 0] == pytest.approx(np.exp(-0.3 * 5.0), rel=1e-14)


def test_kkt_violations_unit_cases():
    c = 2.0
    alpha = np.array([0.0, 1.0, c, 0.0, 1.0, c])
    y = np.ones(6)
    #            zero ok  int ok  upper ok  zero bad  int bad  upper bad
    decision = np.array([1.5, 1.0, 0.4, 0.7, 1.2, 1.3])
    viol = kkt_violations(alpha, y, decision, c)
    assert viol[0] == 0.0
    assert viol[1] == 0.0
    assert viol[2] == 0.0
    assert viol[3] == pytest.approx(0.3)
    assert viol[4] == pytest.approx(0.2)
    assert viol[5] == pytest.approx(0.3)
    # flipping y flips the margin
    viol_neg = kkt_violations(np.array([0.0]), np.array([-1.0]), np.array([-2.0]), c)
    assert viol_neg[0] == 0.0


def test_separable_blobs_converge_with_kkt():
    x, y = _blobs(0)
    cfg = SvmConfig(c=5.0)
    model = train_svm(x, y, cfg)
    mf = model.manifest
    assert mf["train_accuracy"] == 1.0
    for cl in mf["classes"]:
        assert cl["converged"] is True
        assert cl["max_kkt_violation"] <= cfg.tol
        duals = np.asarray(cl["duals"])
        assert np.all(duals >= -ALPHA_EPS)
        assert np.all(duals <= cfg.c + ALPHA_EPS)
        assert cl["n_support"] >= 1 if cl["sweeps"] > 0 else True
    labels, decisions = predict_svm_batch(model, x)
    assert decisions.shape == (x.shape[0], 4)
    assert all(lab is LABEL_ORDER[y[i]] for i, lab in enumerate(labels))


def test_duplication_invariance():
    # doubling every training point must not change the learned boundary
    # beyond the SMO tolerance scale (measured ~2e-3 at tol=1e-3)
    x, y = _blobs(3, n_per_class=10)
    cfg = SvmConfig(c=5.0, gamma=0.5, standardize=False)
    m1 = train_svm(x, y, cfg)
    m2 = train_svm(np.vstack([x, x]), np.concatenate([y, y]), cfg)
    rng = np.random.default_rng(9)
    grid = rng.uniform(-1.0, 5.0, size=(200, 2))
    d1 = decision_matrix(m1, grid)
    d2 = decision_matrix(m2, grid)
    assert np.max(np.abs(d1 - d2)) < 0.01
    assert np.array_equal(np.argmax(d1, axis=1), np.argmax(d2, axis=1))


def test_training_is_deterministic(tmp_path):
    x, y = _blobs(5)
    a = train_svm(x, y, SvmConfig())
    b = train_svm(x, y, SvmConfig())
    save_model(a, tmp_path / "a.json")
    save_model(b, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_default_gamma_formula():
    x, y = _blobs(6)
    model = train_svm(x, y, SvmConfig(standardize=True))
    xs = (x - x.mean(axis=0)) / x.std(axis=0)
    assert model.gamma_used == pytest.approx(1.0 / (x.shape[1] * xs.var()), rel=1e-12)


def test_constant_column_scale_guard():
    x, y = _blobs(7)
    x = np.hstack([x, np.full((x.shape[0], 1), 3.25)])
    model = train_svm(x, y, SvmConfig())
    assert model.scale[2] == 1.0  # constant column keeps unit scale
    assert np.all(np.isfinite(decision_matrix(model, x)))
    assert model.manifest["train_accuracy"] == 1.0


def test_degenerate_one_sided_machine():
    # only classes 0 and 1 present: machines 2 and 3 are constant -1
    x = np.array([[0.0, 0.0], [0.1, 0.0], [3.0, 3.0], [3.1, 3.0]])
    y = np.array([0, 0, 1, 1])
    model = train_svm(x, y, SvmConfig(c=10.0))
    assert model.sv.shape[1] == 2 and model.coef.shape == (model.sv.shape[0], 4)
    for idx in (2, 3):
        assert np.all(model.coef[:, idx] == 0.0)
        assert model.bias[idx] == -1.0
        entry = model.manifest["classes"][idx]
        assert entry["converged"] is True
        assert entry["n_support"] == 0
        assert entry["sweeps"] == 0
        assert entry["max_kkt_violation"] == 0.0
        assert entry["duals"] == [0.0] * 4
    decisions = decision_matrix(model, x)
    assert np.all(decisions[:, 2] == -1.0)
    assert np.all(decisions[:, 3] == -1.0)
    labels, _ = predict_svm_batch(model, x)
    assert {lab.index for lab in labels} <= {0, 1}


def test_save_load_round_trip(tmp_path):
    x, y = _blobs(8, n_per_class=6)
    model = train_svm(x, y, SvmConfig(c=2.0))
    path = tmp_path / "svm.json"
    save_model(model, path)
    back = load_model(path)
    assert isinstance(back, SvmModel)
    assert back.config == model.config
    assert back.gamma_used == model.gamma_used
    # float64 params survive JSON exactly, so decisions match to the bit
    assert np.array_equal(decision_matrix(back, x), decision_matrix(model, x))
    assert predict_svm_batch(back, x)[0] == predict_svm_batch(model, x)[0]


def test_validation_errors():
    with pytest.raises(DataError):
        SvmConfig(c=0.0)
    with pytest.raises(DataError):
        SvmConfig(gamma=-1.0)
    with pytest.raises(DataError):
        SvmConfig(tol=0.0)
    with pytest.raises(DataError):
        SvmConfig(max_passes=0)
    with pytest.raises(DataError):
        train_svm(np.zeros((4, 2)), np.zeros(4, dtype=int), SvmConfig())
    with pytest.raises(DataError):  # zero variance, gamma underivable
        train_svm(np.ones((4, 2)), np.array([0, 1, 0, 1]), SvmConfig(standardize=False))
    model = train_svm(*_blobs(1, n_per_class=4), SvmConfig())
    with pytest.raises(DataError):
        predict_svm_batch(model, np.zeros((1, 5)))
    with pytest.raises(DataError):  # a bare row is not a matrix
        predict_svm_batch(model, np.zeros(2))
    with pytest.raises(DataError):
        decision_matrix(model, np.zeros((3, 5)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["c", "gamma", "tol"])
def test_config_refuses_non_finite(field, value):
    with pytest.raises(DataError, match="positive and finite"):
        SvmConfig(**{field: value})


def _dual_objective(k, y, alpha):
    coef = alpha * y
    return 0.5 * coef @ k @ coef - alpha.sum()


def _check_optimum(args, got, want):
    """One solved dual against the reference solver's on the same problem."""
    k, y, c, tol, _ = args
    alpha, bias, _, max_violation = got
    assert np.all((alpha >= 0.0) & (alpha <= c))
    # each step moves a pair by +-t, so y^T alpha drifts only by rounding
    assert abs(y @ alpha) <= 1e-12 * c * y.size
    fresh = k @ (alpha * y) + bias
    assert max_violation == np.max(kkt_violations(alpha, y, fresh, c)) <= tol
    # Both solvers stop within tol of the KKT conditions, not at the
    # optimum, so either may end above the other. Such a point's distance
    # from the optimum is first order in tol (its duality gap is at most C
    # times the sum of its violations), so the allowance is tol of the
    # objective's scale; tol^2 is too tight, as a converged 11-point
    # problem at C = 0.25 ends 2.4 times that above the reference.
    reference = _dual_objective(k, y, want[0])
    assert _dual_objective(k, y, alpha) <= reference + tol * max(1.0, abs(reference))


@pytest.mark.parametrize("per_class", [6, 12, 24])
@pytest.mark.parametrize("gen_seed", [7, 23])
def test_smo_reaches_the_reference_optimum_on_generated_train_sets(
    monkeypatch, gen_seed, per_class
):
    # the Train sets of `imutrace run --gen-seed G --per-class N`, split seed 0
    windows, _ = generate_dataset(GeneratorConfig(seed=gen_seed), uniform_counts(per_class))
    split = split_dataset(windows, 0)
    rest = feature_matrix([w for w in windows if split.assignment[w.id] is not Part.TRAIN])
    smo = svm._smo_binary
    for scenario in Scenario:
        train = [
            w for w in windows
            if w.scenario is scenario and split.assignment[w.id] is Part.TRAIN
        ]
        x, y = feature_matrix(train), label_vector(train)
        solved = []

        def both(*args):
            solved.append((args, smo(*args), smo_binary_reference(*args)))
            return solved[-1][1]

        monkeypatch.setattr(svm, "_smo_binary", both)
        model = train_svm(x, y, SvmConfig())
        # the reference model: the same training, given the reference's duals
        replay = iter([want for _, _, want in solved])
        monkeypatch.setattr(svm, "_smo_binary", lambda *args: next(replay))
        reference = train_svm(x, y, SvmConfig())
        assert len(solved) == 4
        for args, got, want in solved:
            _check_optimum(args, got, want)
        assert predict_svm_batch(model, rest)[0] == predict_svm_batch(reference, rest)[0]


@settings(deadline=None, max_examples=150)
@given(
    points=st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.booleans()), min_size=2, max_size=12
    ),
    # at gamma 1e3 distinct grid points are orthogonal (k = 0 exactly), so
    # at C = 1 a first step's unclipped dual is exactly C, its upper bound;
    # repeated points give a pair of zero curvature
    gamma=st.sampled_from([0.1, 0.5, 2.0, 1e3]),
    c=st.sampled_from([0.25, 0.5, 1.0, 2.0, 1e3]),
    tol=st.sampled_from([1e-3, 0.1]),
)
def test_smo_reaches_the_reference_optimum_on_small_rbf_problems(points, gamma, c, tol):
    x = np.array([p[:2] for p in points], dtype=np.float64)
    y = np.array([1.0 if p[2] else -1.0 for p in points])
    args = (rbf_kernel(x, x, gamma), y, c, tol, 50)
    got = svm._smo_binary(*args)
    if got[3] <= tol:
        _check_optimum(args, got, smo_binary_reference(*args))
