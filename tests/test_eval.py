import dataclasses
import hashlib
import json
import math
import multiprocessing
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import imutrace.evalreport as evalreport
import imutrace.prompting as prompting
from imutrace.baselines.forest import RfConfig
from imutrace.baselines.nn import CnnConfig, LstmConfig
from imutrace.baselines.svm import SvmConfig
from imutrace.core import (
    N_CLASSES,
    Part,
    Scenario,
    SplitAssignment,
    TrajectoryLabel,
    downsample,
    split_dataset,
)
from imutrace.errors import ConfigError, DataError
from imutrace.evalreport import (
    CellResult,
    ConfusionMatrix,
    DEFAULT_TARGET_RATE_HZ,
    EvalReport,
    Metrics,
    _percent,
    baseline_inputs,
    canonical_digest,
    confusion,
    metrics,
    parse_report_jsonl,
    per_class_metrics,
    render_report,
    run_experiment,
    train_baseline,
)
from imutrace.llm import BatchResult, Prediction
from imutrace.prompting import PromptMode
from imutrace.synth import GeneratorConfig, ZERO_NOISE, generate_dataset, uniform_counts

from conftest import mixed_length_windows, tiny_windows, window_from_array

LABELS = list(TrajectoryLabel)


def _cm(counts, unparsed=None):
    return ConfusionMatrix(
        counts=np.asarray(counts, dtype=np.int64),
        unparsed=np.zeros(4, dtype=np.int64)
        if unparsed is None
        else np.asarray(unparsed, dtype=np.int64),
    )


def _brute_force(cm: ConfusionMatrix):
    """Independent per-class metric computation, plain loops."""
    ps, rs, fs = [], [], []
    for k in range(4):
        tp = cm.counts[k, k]
        fp = sum(cm.counts[i, k] for i in range(4)) - tp
        fn = sum(cm.counts[k, j] for j in range(4)) + cm.unparsed[k] - tp
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        ps.append(p)
        rs.append(r)
        fs.append(f)
    return ps, rs, fs


def test_cyclic_confusion_hand_oracle():
    # 4 hits on the diagonal, 1 miss to the next class: every class has
    # precision = recall = f1 = 4/5
    counts = np.eye(4, dtype=np.int64) * 4
    for i in range(4):
        counts[i, (i + 1) % 4] = 1
    m = metrics(_cm(counts))
    assert m.precision == 0.8
    assert m.recall == 0.8
    assert m.f1 == pytest.approx(0.8, abs=1e-15)


def test_perfect_diagonal():
    m = metrics(_cm(np.eye(4, dtype=np.int64) * 7))
    assert m == Metrics(1.0, 1.0, 1.0)


def test_zero_denominator_guards():
    # class 3 never occurs and is never predicted: all zeros, no NaN
    counts = np.zeros((4, 4), dtype=np.int64)
    counts[0, 0] = 3
    counts[1, 2] = 2  # class 2 predicted but never true: recall denom 0 for.. no,
    # class 1 truths all predicted as 2: recall(1)=0; precision(2)=0
    p, r, f = per_class_metrics(_cm(counts))
    assert p[1] == 0.0 and r[1] == 0.0 and f[1] == 0.0
    assert p[2] == 0.0 and r[2] == 0.0 and f[2] == 0.0
    assert p[3] == 0.0 and r[3] == 0.0 and f[3] == 0.0
    assert p[0] == 1.0 and r[0] == 1.0 and f[0] == 1.0
    # everything unparsed: metrics defined, all zero
    m = metrics(_cm(np.zeros((4, 4)), unparsed=[2, 2, 2, 2]))
    assert m == Metrics(0.0, 0.0, 0.0)
    with pytest.raises(DataError):
        metrics(_cm(np.zeros((4, 4))))


def test_macro_metrics_match_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(100):
        cm = _cm(rng.integers(0, 12, size=(4, 4)), unparsed=rng.integers(0, 4, size=4))
        if cm.total == 0:
            continue
        ps, rs, fs = _brute_force(cm)
        p, r, f = per_class_metrics(cm)
        assert np.all(np.abs(p - np.array(ps)) < 1e-12)
        assert np.all(np.abs(r - np.array(rs)) < 1e-12)
        assert np.all(np.abs(f - np.array(fs)) < 1e-12)
        m = metrics(cm)
        assert abs(m.precision - np.mean(ps)) < 1e-12
        assert abs(m.recall - np.mean(rs)) < 1e-12
        assert abs(m.f1 - np.mean(fs)) < 1e-12
        # harmonic mean never exceeds the arithmetic mean
        for p_k, r_k, f_k in zip(ps, rs, fs):
            assert f_k <= (p_k + r_k) / 2 + 1e-12


def test_unparsed_hits_recall_not_precision():
    truths = [
        window_from_array(np.zeros((2, 9)), window_id=f"w{i}",
                          label=TrajectoryLabel.STRAIGHT)
        for i in range(4)
    ]
    preds = [
        Prediction(truths[0].id, TrajectoryLabel.STRAIGHT),
        Prediction(truths[1].id, TrajectoryLabel.STRAIGHT),
        Prediction(truths[2].id, None),
        Prediction(truths[3].id, None),
    ]
    cm = confusion(preds, truths)
    assert cm.unparsed.tolist() == [2, 0, 0, 0]
    p, r, _ = per_class_metrics(cm)
    assert p[0] == 1.0  # both actual predictions were right
    assert r[0] == 0.5  # but half the truths got no answer


def test_confusion_builder_properties():
    truths = tiny_windows(8, groups=2)
    rng = np.random.default_rng(3)
    preds = [
        Prediction(w.id, LABELS[int(rng.integers(0, 4))]) for w in truths
    ]
    cm1 = confusion(preds, truths)
    shuffled = [preds[i] for i in rng.permutation(len(preds))]
    cm2 = confusion(shuffled, truths)
    assert np.array_equal(cm1.counts, cm2.counts)
    assert np.array_equal(cm1.unparsed, cm2.unparsed)
    assert cm1.total == 8

    with pytest.raises(DataError):  # prediction without a matching truth
        confusion([Prediction("ghost", LABELS[0])], truths)
    unlabeled = [window_from_array(np.zeros((2, 9)), window_id="u0")]
    with pytest.raises(DataError):
        confusion([], unlabeled)


def test_label_permutation_equivariance():
    rng = np.random.default_rng(8)
    counts = rng.integers(0, 9, size=(4, 4))
    unparsed = rng.integers(0, 3, size=4)
    perm = np.array([2, 0, 3, 1])
    base = _cm(counts, unparsed)
    permuted = _cm(counts[np.ix_(perm, perm)], unparsed[perm])
    p0, r0, f0 = per_class_metrics(base)
    p1, r1, f1 = per_class_metrics(permuted)
    assert np.allclose(p1, p0[perm], atol=1e-15)
    assert np.allclose(r1, r0[perm], atol=1e-15)
    assert np.allclose(f1, f0[perm], atol=1e-15)
    ma, mb = metrics(base), metrics(permuted)
    # summation order may differ by an ulp after the permutation
    assert ma.precision == pytest.approx(mb.precision, abs=1e-15)
    assert ma.recall == pytest.approx(mb.recall, abs=1e-15)
    assert ma.f1 == pytest.approx(mb.f1, abs=1e-15)


def test_percent_formatting():
    assert _percent(0.5) == "50.0%"
    assert _percent(1.0) == "100.0%"
    assert _percent(0.0) == "0.0%"
    assert _percent(2 / 3) == "66.7%"
    assert _percent(0.836) == "83.6%"
    assert _percent(0.767) == "76.7%"
    assert _percent(0.99999) == "100.0%"
    assert _percent(0.0049) == "0.5%"


@pytest.fixture(scope="module")
def skip_path_report():
    cfg = GeneratorConfig(seed=12, windows_per_group=1)
    counts = {
        (TrajectoryLabel.STRAIGHT, Scenario.OUTDOOR): 2,
        (TrajectoryLabel.TURN_RIGHT, Scenario.OUTDOOR): 2,
        (TrajectoryLabel.TURN_LEFT, Scenario.OUTDOOR): 1,
        (TrajectoryLabel.STRAIGHT, Scenario.INDOOR): 1,
    }
    noise = {s: ZERO_NOISE for s in Scenario}
    windows, _ = generate_dataset(cfg, counts, noise=noise)
    indoor = [w.id for w in windows if w.scenario is Scenario.INDOOR]
    outdoor = [w.id for w in windows if w.scenario is Scenario.OUTDOOR]
    split = SplitAssignment(
        assignment={
            indoor[0]: Part.UNSEEN_TEST,
            outdoor[0]: Part.TRAIN,
            outdoor[1]: Part.TRAIN,
            outdoor[2]: Part.TRAIN,
            outdoor[3]: Part.VALIDATION,
            outdoor[4]: Part.SEEN_TEST,
        }
    )
    return run_experiment(windows, split)


def test_run_experiment_cell_grid(skip_path_report):
    r = skip_path_report
    # 4 baselines x 2 scenarios x 2 test parts + 2 modes x 2 scenarios
    assert len(r.cells) == 20
    assert r.cells[("rf", Scenario.INDOOR, Part.SEEN_TEST)].skipped_reason == (
        "no training windows in scenario"
    )
    assert r.cells[("rf", Scenario.OUTDOOR, Part.UNSEEN_TEST)].skipped_reason == (
        "no evaluation windows in scenario"
    )
    assert r.cells[("mock-cot", Scenario.OUTDOOR, Part.UNSEEN_TEST)].skipped
    seen = r.cells[("svm", Scenario.OUTDOOR, Part.SEEN_TEST)]
    assert not seen.skipped and seen.n_windows == 1
    cot = r.cells[("mock-cot", Scenario.INDOOR, Part.UNSEEN_TEST)]
    assert not cot.skipped and cot.n_windows == 1
    # the lone indoor window is a straight run and the mock gets it
    assert cot.confusion.counts[0, 0] == 1
    for key in ("dataset_sha256", "split_sha256", "template_sha256", "provider"):
        assert key in r.manifest
    assert r.manifest["provider"] == "mock"
    assert r.manifest_sha256 == canonical_digest(r.manifest)


def test_text_render_structure(skip_path_report):
    text = render_report(skip_path_report, "text")
    lines = text.splitlines()
    assert lines[0].split() == [
        "Models", "Scenarios", "Test", "subject",
        "Precision", "Recall", "F1-Score", "Unparsed",
    ]
    assert set(lines[1]) == {"-", " "}
    assert lines[-2] == "Reference targets: GPT4-CoT unseen F1 83.6% (indoor), 76.7% (outdoor)."
    assert lines[-1] == f"Manifest sha256: {skip_path_report.manifest_sha256}"
    # model blocks appear in the fixed order
    names = [line.split()[0] for line in lines[2:-3] if line]
    assert names == sorted(names, key=["RF", "SVM", "CNN", "LSTM", "mock-CoT", "mock-DO"].index)
    assert "skipped (no training windows in scenario)" in text
    with pytest.raises(ConfigError):
        render_report(skip_path_report, "yaml")


def test_jsonl_round_trip(skip_path_report):
    jsonl = render_report(skip_path_report, "jsonl")
    back = parse_report_jsonl(jsonl)
    assert render_report(back, "jsonl") == jsonl
    assert back.manifest_sha256 == skip_path_report.manifest_sha256
    assert back.manifest is None
    # parsed cells carry the same metric values
    key = ("svm", Scenario.OUTDOOR, Part.SEEN_TEST)
    assert back.cells[key].metrics == skip_path_report.cells[key].metrics
    for field in ("counts", "unparsed"):
        assert np.array_equal(
            getattr(back.cells[key].confusion, field),
            getattr(skip_path_report.cells[key].confusion, field),
        )
    with pytest.raises(DataError):
        parse_report_jsonl("")
    with pytest.raises(DataError):
        parse_report_jsonl("not json\n")
    with pytest.raises(DataError):
        parse_report_jsonl(jsonl + '{"model": "rf"}\n')
    # a report cell is a test split's
    with pytest.raises(DataError, match="'train' is not a test split"):
        parse_report_jsonl(jsonl.replace('"split": "seen_test"', '"split": "train"', 1))


_COUNTS = st.integers(0, 10**6)


@st.composite
def _cells(draw):
    """A scored cell (non-negative counts, at least one) or a skipped one.

    A scored cell's n_windows is its counts' total plus its failures, as
    run_experiment writes it; a skipped cell's failures are at most its
    n_windows.
    """
    if draw(st.booleans()):
        n_windows = draw(st.integers(0, 10**6))
        return CellResult(None, draw(st.text()), n_windows, draw(st.integers(0, n_windows)))
    cm = ConfusionMatrix(
        counts=draw(arrays(np.int64, (4, 4), elements=_COUNTS)),
        unparsed=draw(arrays(np.int64, (4,), elements=_COUNTS)),
    )
    if cm.total == 0:
        cm.counts[draw(st.integers(0, 3)), draw(st.integers(0, 3))] = 1
    n_failures = draw(st.integers(0, 10**6))
    return CellResult(cm, None, cm.total + n_failures, n_failures)


_KEYS = st.tuples(
    st.one_of(st.sampled_from([*evalreport.BASELINE_KINDS, "mock-cot", "mock-do"]), st.text()),
    st.sampled_from(list(Scenario)),
    st.sampled_from([Part.SEEN_TEST, Part.UNSEEN_TEST]),
)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(_KEYS, _cells(), min_size=1, max_size=8),
    st.text(alphabet="0123456789abcdef", min_size=64, max_size=64),
    st.data(),
)
def test_jsonl_report_is_its_counts(cells, digest, data):
    report = EvalReport(cells=cells, manifest_sha256=digest)
    jsonl = render_report(report, "jsonl")
    back = parse_report_jsonl(jsonl)
    assert render_report(back, "jsonl") == jsonl
    assert back.cells.keys() == cells.keys()
    for key, cell in back.cells.items():
        assert (cell.skipped_reason, cell.n_windows, cell.n_failures) == (
            cells[key].skipped_reason, cells[key].n_windows, cells[key].n_failures
        )
        if not cell.skipped:
            assert cell.metrics == metrics(cell.confusion)

    # a metric one float away from what its counts give is refused
    lines = jsonl.splitlines()
    scored = [i for i, line in enumerate(lines[1:], 1) if "f1" in json.loads(line)]
    if scored:
        i = data.draw(st.sampled_from(scored))
        obj = json.loads(lines[i])
        name = data.draw(st.sampled_from(["precision", "recall", "f1"]))
        obj[name] = math.nextafter(obj[name], data.draw(st.sampled_from([-math.inf, math.inf])))
        lines[i] = json.dumps(obj, sort_keys=True)
        with pytest.raises(DataError, match="but its counts give"):
            parse_report_jsonl("\n".join(lines) + "\n")

    # so is a line with one other field changed: n_windows off by one, an
    # unknown key added or a derived key dropped; the refusal names it
    lines = jsonl.splitlines()
    i = data.draw(st.integers(1, len(lines) - 1))
    obj = json.loads(lines[i])
    derived = ["precision", "recall", "f1", "n_windows"] if "f1" in obj else []
    change = data.draw(st.sampled_from(["added", *(["n_windows", "dropped"] if derived else [])]))
    if change == "n_windows":
        name = "n_windows"
        obj[name] += data.draw(st.sampled_from([-1, 1]))
    elif change == "added":
        name = data.draw(st.text().filter(lambda k: k not in obj))
        obj[name] = data.draw(st.one_of(st.none(), st.integers(), st.text()))
    else:
        name = data.draw(st.sampled_from(derived))
        del obj[name]
    lines[i] = json.dumps(obj, sort_keys=True)
    with pytest.raises(DataError, match=re.escape(f"field {name!r}: the line has ")):
        parse_report_jsonl("\n".join(lines) + "\n")


def test_jsonl_report_refuses_a_repeated_cell(skip_path_report):
    jsonl = render_report(skip_path_report, "jsonl")
    line = next(line for line in jsonl.splitlines()[1:] if "f1" in json.loads(line))
    obj = json.loads(line)
    cell = f"{obj['model']!r}/{obj['scenario']}/{obj['split']}"
    with pytest.raises(DataError, match=re.escape(f"cell {cell} appears on more than one line")):
        parse_report_jsonl(jsonl + line + "\n")


@pytest.mark.parametrize(
    "header",
    [
        lambda digest: {"manifest_sha256": digest, "extra": 1},
        lambda digest: {"manifest_sha256": 5},
        lambda digest: {"manifest_sha256": None},
        lambda digest: {"manifest_sha256": digest.upper()},
        lambda digest: {"manifest_sha256": digest[:-1]},
    ],
    ids=["extra-key", "int", "null", "uppercase", "63-digits"],
)
def test_jsonl_report_refuses_a_header_other_than_the_digest(skip_path_report, header):
    lines = render_report(skip_path_report, "jsonl").splitlines()
    lines[0] = json.dumps(header(skip_path_report.manifest_sha256), sort_keys=True)
    with pytest.raises(DataError, match="JSONL report header must be"):
        parse_report_jsonl("\n".join(lines) + "\n")


@pytest.mark.parametrize("shift", [-1, 1])
def test_jsonl_report_refuses_n_windows_off_its_counts(skip_path_report, shift):
    lines = render_report(skip_path_report, "jsonl").splitlines()
    i = next(i for i, line in enumerate(lines[1:], 1) if "f1" in json.loads(line))
    obj = json.loads(lines[i])
    obj["n_windows"] += shift
    lines[i] = json.dumps(obj, sort_keys=True)
    with pytest.raises(DataError, match="field 'n_windows'"):
        parse_report_jsonl("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "counts",
    [{"n_windows": -3, "n_failures": -7}, {"n_windows": 2, "n_failures": 3},
     {"n_windows": 0, "n_failures": -1}],
)
def test_jsonl_report_refuses_failures_outside_its_windows(skip_path_report, counts):
    lines = render_report(skip_path_report, "jsonl").splitlines()
    obj = {"model": "other", "scenario": "indoor", "split": "seen_test",
           "skipped": "provider failures", **counts}
    with pytest.raises(DataError, match=r"failures must be in \[0, n_windows\]"):
        parse_report_jsonl("\n".join([*lines, json.dumps(obj, sort_keys=True)]) + "\n")
    # a scored line's n_windows is its counts' total plus its failures, so
    # negative failures take it below that total
    i = next(i for i, line in enumerate(lines[1:], 1) if "f1" in json.loads(line))
    obj = json.loads(lines[i])
    obj["n_windows"] -= obj["n_failures"] + 1
    obj["n_failures"] = -1
    lines[i] = json.dumps(obj, sort_keys=True)
    with pytest.raises(DataError, match=r"failures must be in \[0, n_windows\]"):
        parse_report_jsonl("\n".join(lines) + "\n")


def test_experiment_is_deterministic(skip_path_report):
    cfg = GeneratorConfig(seed=4, windows_per_group=2)
    noise = {s: ZERO_NOISE for s in Scenario}
    windows, _ = generate_dataset(cfg, uniform_counts(3), noise=noise)
    split = split_dataset(windows, seed=1)
    a = run_experiment(windows, split, baselines=("rf",), modes=(PromptMode.DO,))
    b = run_experiment(windows, split, baselines=("rf",), modes=(PromptMode.DO,))
    assert render_report(a, "text") == render_report(b, "text")
    assert render_report(a, "jsonl") == render_report(b, "jsonl")


def test_an_over_budget_prompt_is_refused_before_any_baseline_trains(
    monkeypatch, zero_noise_dataset
):
    # at 10 Hz a 6 s window serializes into a prompt over MAX_PROMPT_CHARS
    def no_training(*args, **kwargs):
        raise AssertionError("trained a baseline")

    monkeypatch.setattr(evalreport, "train_baseline", no_training)
    windows, _ = zero_noise_dataset
    with pytest.raises(ConfigError, match="over the 4000 budget"):
        run_experiment(windows, split_dataset(windows, seed=1), target_rate_hz=10)


@pytest.fixture(scope="module")
def tiny_run_inputs():
    noise = {s: ZERO_NOISE for s in Scenario}
    windows, _ = generate_dataset(GeneratorConfig(seed=4, windows_per_group=2), uniform_counts(3), noise)
    return windows, split_dataset(windows, seed=1)


@pytest.mark.parametrize(
    "part, baselines, modes, refused",
    [
        (Part.VALIDATION, ("rf",), (PromptMode.DO,), False),  # nothing reads Validation
        (Part.SEEN_TEST, (), (PromptMode.DO,), False),  # only baselines score SeenTest
        (Part.SEEN_TEST, ("rf",), (), True),
        (Part.TRAIN, ("cnn",), (), True),
        (Part.UNSEEN_TEST, (), (PromptMode.DO,), True),
    ],
)
def test_a_run_needs_labels_only_where_it_scores_or_trains(
    tiny_run_inputs, monkeypatch, tmp_path, part, baselines, modes, refused
):
    windows, split = tiny_run_inputs
    unlabeled = set(split.part_ids(part))
    windows = [dataclasses.replace(w, label=None) if w.id in unlabeled else w for w in windows]
    if not refused:
        run_experiment(windows, split, baselines=baselines, modes=modes)
        return

    def no_training(*args, **kwargs):
        raise AssertionError("trained a baseline")

    monkeypatch.setattr(evalreport, "train_baseline", no_training)
    out = tmp_path / "out"
    with pytest.raises(DataError, match=f"^{part.value} window '.+' is unlabeled$"):
        run_experiment(windows, split, baselines=baselines, modes=modes, out=out)
    assert not out.exists()


@settings(max_examples=40, deadline=None)
@given(
    rate=st.one_of(
        st.sampled_from([math.nan, math.inf, -1.0, 0.0, 0.1, 10.0, 200.0]),
        st.floats(0.5, 5.0),
    ),
    modes=st.lists(st.sampled_from(list(PromptMode)), max_size=2),
    baselines=st.sampled_from([(), ("cnn",)]),
)
def test_a_run_is_refused_with_nothing_written_or_writes_what_it_reports(
    tiny_run_inputs, tmp_path_factory, rate, modes, baselines
):
    # below about 1.4 Hz a window is too short for the CNN, which refuses
    # it inside the pool, after the run has made its paths
    windows, split = tiny_run_inputs
    out = tmp_path_factory.mktemp("run") / "out"
    csv, transcript = out / "dataset.csv", out / "transcript.jsonl"
    try:
        r = run_experiment(
            windows, split, baselines=baselines, modes=modes, target_rate_hz=rate,
            configs={"cnn": CnnConfig(epochs=1)}, out=out, write_dataset=True,
        )
    except (ConfigError, DataError):
        assert not out.exists()
        return
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == r.manifest["dataset_sha256"]
    n_unseen = len(split.part_ids(Part.UNSEEN_TEST))
    assert len(transcript.read_text().splitlines()) == n_unseen * len(modes)


@pytest.mark.parametrize(
    "rate, mixed, message",
    [
        (0.5, False, "^input length 5 is too short for kernel 5 and pool 2"),
        (3.0, True, r"^all training windows must share one length, got \[30, 36\]$"),
    ],
    ids=["too-short", "mixed-lengths"],
)
def test_a_run_a_baseline_refuses_in_the_pool_removes_what_it_made(
    tiny_run_inputs, tmp_path, rate, mixed, message
):
    windows, split = tiny_run_inputs
    if mixed:
        windows = mixed_length_windows()
        split = split_dataset(windows, seed=0)
    # a directory that was there before the run stays, emptied of what the
    # run put in it
    kept = tmp_path / "kept"
    kept.mkdir()
    with pytest.raises(DataError, match=message):
        run_experiment(
            windows, split, baselines=("cnn",), configs={"cnn": CnnConfig(epochs=1)},
            target_rate_hz=rate, out=kept, write_dataset=True,
        )
    assert sorted(tmp_path.iterdir()) == [kept]
    assert list(kept.iterdir()) == []


@pytest.mark.parametrize("existing", [True, False], ids=["existing-out", "new-nested-out"])
def test_a_refused_run_leaves_out_as_it_was(tiny_run_inputs, tmp_path, existing):
    # at 0.5 Hz the CNN refuses its windows inside the pool, after out is made
    windows, split = tiny_run_inputs
    out = tmp_path / "a" / "b" / "out"
    if existing:
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.txt").write_text("an earlier run\n")
    with pytest.raises(DataError, match="too short for kernel"):
        run_experiment(
            windows, split, baselines=("cnn",), modes=(PromptMode.DO,),
            configs={"cnn": CnnConfig(epochs=1)}, target_rate_hz=0.5, out=out, write_dataset=True,
        )
    if existing:
        assert [p.name for p in out.iterdir()] == ["report.txt"]
        assert (out / "report.txt").read_text() == "an earlier run\n"
    else:
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("write_dataset", [True, False])
def test_a_run_moves_every_output_into_out(tiny_run_inputs, tmp_path, write_dataset):
    windows, split = tiny_run_inputs
    out = tmp_path / "out"
    r = run_experiment(
        windows, split, baselines=("rf",), modes=(PromptMode.DO,),
        manifest_extra={"split_seed": 1}, out=out, write_dataset=write_dataset,
    )
    # the one list of the files a run writes; no staging directory is
    # left beside them
    names = ["report.jsonl", "report.txt", "run_manifest.json", "split.json", "timings.json",
             "transcript.jsonl"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["dataset.csv", *names] if write_dataset else names
    )
    assert (out / "report.jsonl").read_text() == render_report(r, "jsonl")
    assert (out / "report.txt").read_text() == render_report(r, "text")
    assert json.loads((out / "run_manifest.json").read_text()) == r.manifest
    assert json.loads((out / "split.json").read_text()) == {
        "assignment": split.to_json_dict(), "seed": 1
    }
    timings = json.loads((out / "timings.json").read_text())
    assert timings == r.timings
    # tasks in the order the pool ran them, the dataset first
    tasks = ["dataset", "rf/indoor", "rf/outdoor"]
    assert list(timings["tasks"]) == list(r.timings["tasks"]) == tasks
    rows = [json.loads(line) for line in (out / "transcript.jsonl").read_text().splitlines()]
    assert len(rows) == len(split.part_ids(Part.UNSEEN_TEST))
    if write_dataset:
        digest = hashlib.sha256((out / "dataset.csv").read_bytes()).hexdigest()
        assert digest == r.manifest["dataset_sha256"]


def test_a_run_renders_each_prompt_it_sends_once(monkeypatch, tmp_path):
    cfg = GeneratorConfig(seed=4, windows_per_group=2)
    windows, _ = generate_dataset(cfg, uniform_counts(3), {s: ZERO_NOISE for s in Scenario})
    split = split_dataset(windows, seed=1)
    real = prompting.build_prompt
    rendered = []

    def counting(*args, **kwargs):
        bundle = real(*args, **kwargs)
        rendered.append(bundle.digest())
        return bundle

    # every module that holds build_prompt under some name calls the counter
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "imutrace":
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counting)
    run_experiment(windows, split, baselines=(), out=tmp_path / "r")
    transcript = (tmp_path / "r" / "transcript.jsonl").read_text()
    rows = [json.loads(line) for line in transcript.splitlines()]
    assert len(rendered) == len(rows) > 0
    assert sorted(rendered) == sorted(row["bundle_sha256"] for row in rows)


def test_provider_failure_skips_cell(monkeypatch):
    cfg = GeneratorConfig(seed=4, windows_per_group=2)
    noise = {s: ZERO_NOISE for s in Scenario}
    windows, _ = generate_dataset(cfg, uniform_counts(3), noise=noise)
    split = split_dataset(windows, seed=1)

    def all_fail(bundles, mode, **kwargs):
        return BatchResult(
            predictions=(),
            transcript=tuple(
                {"window_id": b.window_id, "bundle_sha256": b.digest(), "error": "connection lost"}
                for b in bundles
            ),
        )

    monkeypatch.setattr(evalreport, "classify_windows", all_fail)
    r = run_experiment(windows, split, baselines=(), modes=(PromptMode.COT,))
    for scenario in Scenario:
        cell = r.cells[("mock-cot", scenario, Part.UNSEEN_TEST)]
        assert cell.skipped
        assert "provider calls failed" in cell.skipped_reason
        assert cell.n_failures == cell.n_windows > 0


def test_partial_failures_below_threshold_still_score(monkeypatch):
    cfg = GeneratorConfig(seed=4, windows_per_group=2)
    noise = {s: ZERO_NOISE for s in Scenario}
    windows, _ = generate_dataset(cfg, uniform_counts(3), noise=noise)
    split = split_dataset(windows, seed=1)
    real = evalreport.classify_windows

    def drop_one(bundles, mode, **kwargs):
        batch = real(bundles, mode, **kwargs)
        first, *rest = batch.transcript
        head = {"window_id": first["window_id"], "bundle_sha256": first["bundle_sha256"]}
        return BatchResult(
            predictions=batch.predictions[1:], transcript=({**head, "error": "timeout"}, *rest)
        )

    monkeypatch.setattr(evalreport, "classify_windows", drop_one)
    r = run_experiment(windows, split, baselines=(), modes=(PromptMode.COT,))
    for scenario in Scenario:
        cell = r.cells[("mock-cot", scenario, Part.UNSEEN_TEST)]
        if cell.n_windows >= 2:
            assert not cell.skipped
            assert cell.n_failures == 1
            assert cell.confusion.total == cell.n_windows - 1


def test_unknown_baseline_rejected():
    with pytest.raises(ConfigError):
        run_experiment([], SplitAssignment(assignment={}), baselines=("xgboost",))
    with pytest.raises(ConfigError):
        run_experiment([], SplitAssignment(assignment={}), configs={"xgboost": RfConfig()})
    with pytest.raises(ConfigError, match="must be a RfConfig, got SvmConfig"):
        run_experiment([], SplitAssignment(assignment={}), configs={"rf": SvmConfig()})


def _small_grid():
    windows, _ = generate_dataset(
        GeneratorConfig(seed=4, windows_per_group=2),
        uniform_counts(3),
        noise={s: ZERO_NOISE for s in Scenario},
    )
    configs = {
        "rf": RfConfig(trees=5),
        "cnn": CnnConfig(filters1=4, filters2=6, epochs=2),
        "lstm": LstmConfig(hidden=4, epochs=2),
    }
    return windows, split_dataset(windows, seed=1), configs


def test_every_baseline_predicts_an_empty_batch_as_no_rows():
    # the forest and the SVM take a (0, n_features) matrix, the networks an
    # empty list of windows: each gives no labels and a (0, 4) score matrix
    windows, _, configs = _small_grid()
    for kind, spec in evalreport.BASELINES.items():
        inputs = baseline_inputs(kind, windows, lambda w: downsample(w, DEFAULT_TARGET_RATE_HZ))
        model = train_baseline(kind, inputs, configs.get(kind, spec.config()))
        labels, scores = getattr(spec.module, spec.predict_batch)(model, inputs[0][:0])
        assert labels == [] and scores.shape == (0, N_CLASSES), kind


def test_each_baseline_trains_once_per_scenario(monkeypatch, tmp_path):
    windows, split, configs = _small_grid()
    # training runs in forked pool workers, so every call appends a line to
    # a file, which counts calls made in any process
    log = tmp_path / "calls.log"
    log.touch()

    def record(name):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(name + "\n")

    # the runner resolves train functions through module attributes, so
    # patched ones (as a tracer installs them) are the ones that run
    def counting(kind):
        spec = evalreport.BASELINES[kind]
        real = getattr(spec.module, spec.train)

        def train(*args):
            record(kind)
            return real(*args)

        return train

    for kind in evalreport.BASELINE_KINDS:
        spec = evalreport.BASELINES[kind]
        monkeypatch.setattr(spec.module, spec.train, counting(kind))
    real_features = evalreport.feature_matrix
    monkeypatch.setattr(
        evalreport, "feature_matrix", lambda ws: record("features") or real_features(ws)
    )
    r = run_experiment(windows, split, modes=(), configs=configs)
    calls = log.read_text(encoding="utf-8").split()
    trains = {kind: calls.count(kind) for kind in evalreport.BASELINE_KINDS}
    features = [name for name in calls if name == "features"]
    parts = {(split.assignment[w.id], w.scenario) for w in windows}
    trained = [s for s in Scenario if (Part.TRAIN, s) in parts]
    assert len(trained) == 2
    assert trains == {kind: len(trained) for kind in trains}
    # RF and SVM share one feature matrix per (scenario, part) that has windows
    test_parts = (Part.SEEN_TEST, Part.UNSEEN_TEST)
    assert len(features) == sum(
        (part, s) in parts for s in trained for part in (Part.TRAIN, *test_parts)
    )
    for kind in trains:
        for scenario in trained:
            for part in test_parts:
                cell = r.cells[(kind, scenario, part)]
                assert cell.skipped == ((part, scenario) not in parts)


def test_pooled_and_inline_runs_agree(monkeypatch):
    windows, split, configs = _small_grid()
    pooled = run_experiment(windows, split, configs=configs)
    monkeypatch.setattr(evalreport.os, "sched_getaffinity", lambda pid: {0})
    inline = run_experiment(windows, split, configs=configs)
    assert inline.timings["workers"] == 1
    assert render_report(pooled, "jsonl") == render_report(inline, "jsonl")
    assert pooled.manifest_sha256 == inline.manifest_sha256
    # both ran the same tasks, longest first
    assert list(pooled.timings["tasks"]) == list(inline.timings["tasks"]) == [
        "lstm/indoor", "lstm/outdoor", "dataset", "cnn/indoor", "cnn/outdoor",
        "svm/indoor", "svm/outdoor", "rf/indoor", "rf/outdoor",
    ]


def test_task_order_names_every_task_kind_once():
    # run_experiment sorts its tasks by their place here, so a baseline
    # kind missing from it would fail every run with ValueError
    assert sorted(evalreport._TASK_ORDER) == sorted(["dataset", *evalreport.BASELINES])


def test_a_failing_task_reaches_the_caller(monkeypatch):
    windows, split, configs = _small_grid()

    def broken(*args):
        raise DataError("lstm training failed on purpose")

    monkeypatch.setattr(evalreport.BASELINES["lstm"].module, "train_lstm", broken)
    with pytest.raises(DataError, match="^lstm training failed on purpose$"):
        run_experiment(windows, split, modes=(), configs=configs)
    assert multiprocessing.active_children() == []
