"""End-to-end acceptance gate, one numbered criterion per test.

Each test prints exactly one "[criterion N] PASS/FAIL" line with the
measured values before asserting, so a plain pytest run doubles as the
acceptance checklist. Tolerances are pinned in the assertions.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from imutrace.baselines.nn import (
    CnnConfig,
    LstmConfig,
    init_cnn_params,
    init_lstm_params,
)
from imutrace.baselines.svm import SvmConfig, train_svm
from imutrace.cli import main as cli_main
from imutrace.core import (
    Part,
    Scenario,
    TrajectoryLabel,
    downsample,
    split_dataset,
)
from imutrace.errors import AmbiguousLabelError, UnparseableLabelError
from imutrace.evalreport import (
    BASELINE_KINDS,
    ConfusionMatrix,
    confusion,
    metrics,
    per_class_metrics,
    run_experiment,
)
from imutrace.llm import classify_windows, parse_label
from imutrace.prompting import PromptMode
from imutrace.synth import (
    GeneratorConfig,
    ZERO_NOISE,
    generate_dataset,
    uniform_counts,
)

from conftest import gradient_errors, run_outputs, tiny_windows

DATA_DIR = Path(__file__).parent / "data"


def _verdict(n: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_oracle_pipeline_closure():
    start = time.monotonic()
    noise = {s: ZERO_NOISE for s in Scenario}
    counts = np.zeros((4, 4), dtype=np.int64)
    unparsed = np.zeros(4, dtype=np.int64)
    n_windows = 0
    for seed in range(20):
        windows, _ = generate_dataset(GeneratorConfig(seed=seed), uniform_counts(1), noise)
        down = [downsample(w, 3.0) for w in windows]
        batch = classify_windows(down, PromptMode.COT)
        assert not batch.failures
        cm = confusion(batch.predictions, windows)
        counts += cm.counts
        unparsed += cm.unparsed
        n_windows += len(windows)
    f1 = metrics(ConfusionMatrix(counts=counts, unparsed=unparsed)).f1
    elapsed = time.monotonic() - start
    ok = f1 == 1.0 and elapsed < 30.0
    assert _verdict(
        1,
        ok,
        f"mock CoT macro-F1 {f1} over {n_windows} noise-free windows "
        f"(20 seeds x 4 labels x 2 scenarios) in {elapsed:.1f}s "
        f"(need exactly 1.0, under 30 s)",
    )


def test_criterion_2_baseline_competence():
    start = time.monotonic()
    cfg = GeneratorConfig(seed=0, windows_per_group=2)
    counts = {(label, Scenario.INDOOR): 40 for label in TrajectoryLabel}
    windows, _ = generate_dataset(cfg, counts)  # default low indoor noise
    split = split_dataset(windows, seed=0)
    report = run_experiment(windows, split, modes=())
    scores = {
        kind: report.cells[(kind, Scenario.INDOOR, Part.SEEN_TEST)].metrics.f1
        for kind in BASELINE_KINDS
    }
    elapsed = time.monotonic() - start
    ok = all(v >= 0.90 for v in scores.values()) and elapsed < 120.0
    shown = ", ".join(f"{k} {v:.3f}" for k, v in scores.items())
    assert _verdict(
        2,
        ok,
        f"seen-test macro-F1 on 160 low-noise indoor windows: {shown} "
        f"in {elapsed:.1f}s (need >= 0.90 each, under 2 min)",
    )


def test_criterion_3_gradient_correctness():
    data_rng = np.random.default_rng(123)
    worst = {}
    for kind in ("cnn", "lstm"):
        cfg = CnnConfig() if kind == "cnn" else LstmConfig()
        x = data_rng.standard_normal((3, 9, 30))
        y = data_rng.integers(0, 4, size=3)
        params = init_cnn_params(cfg, 30) if kind == "cnn" else init_lstm_params(cfg)
        err_init, err_step = gradient_errors(
            kind, cfg, params, x, y, seeds=(7, 8), h=1e-5, samples_per_tensor=5
        )
        worst[kind] = max(err_init, err_step)
    ok = all(v < 1e-4 for v in worst.values())
    assert _verdict(
        3,
        ok,
        f"max relative gradient error vs central differences (h=1e-5): "
        f"cnn {worst['cnn']:.2e}, lstm {worst['lstm']:.2e} at init and "
        f"after one step (need < 1e-4)",
    )


def test_criterion_4_svm_optimality():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    cfg = SvmConfig(c=1.0, gamma=1.0, tol=1e-3)
    model = train_svm(x, y, cfg)
    per_class = model.manifest["classes"]
    max_viol = max(cl["max_kkt_violation"] for cl in per_class)
    converged = all(cl["converged"] for cl in per_class)
    accuracy = model.manifest["train_accuracy"]
    ok = converged and max_viol <= 1e-3 and accuracy == 1.0
    assert _verdict(
        4,
        ok,
        f"SMO on the 4-point XOR instance: converged {converged}, max KKT "
        f"violation {max_viol:.2e} (tol 1e-3), training accuracy "
        f"{accuracy:.0%} (need 100%)",
    )


def test_criterion_5_metrics_oracle_equivalence():
    rng = np.random.default_rng(29)
    worst = 0.0
    checked = 0
    for _ in range(100):
        cm = ConfusionMatrix(
            counts=rng.integers(0, 15, size=(4, 4)).astype(np.int64),
            unparsed=rng.integers(0, 5, size=4).astype(np.int64),
        )
        if cm.total == 0:
            continue
        ps, rs, fs = [], [], []
        for k in range(4):
            tp = int(cm.counts[k, k])
            fp = int(cm.counts[:, k].sum()) - tp
            fn = int(cm.counts[k, :].sum()) + int(cm.unparsed[k]) - tp
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            ps.append(p)
            rs.append(r)
            fs.append(2 * p * r / (p + r) if p + r else 0.0)
        got_p, got_r, got_f = per_class_metrics(cm)
        got = metrics(cm)
        worst = max(
            worst,
            float(np.max(np.abs(got_p - ps))),
            float(np.max(np.abs(got_r - rs))),
            float(np.max(np.abs(got_f - fs))),
            abs(got.precision - sum(ps) / 4),
            abs(got.recall - sum(rs) / 4),
            abs(got.f1 - sum(fs) / 4),
        )
        checked += 1
    ok = worst < 1e-12 and checked >= 99
    assert _verdict(
        5,
        ok,
        f"macro P/R/F1 vs brute-force recomputation on {checked} random "
        f"confusion matrices: max deviation {worst:.2e} (need < 1e-12)",
    )


def test_criterion_6_split_contract():
    rng = np.random.default_rng(2024)
    runs = 1000
    for _ in range(runs):
        n_in = int(rng.integers(12, 60))
        n_out = int(rng.integers(12, 60))
        g_in = -(-n_in // int(rng.integers(1, 3)))
        g_out = -(-n_out // int(rng.integers(1, 3)))
        windows = tiny_windows(n_in, groups=g_in, prefix="i") + tiny_windows(
            n_out, groups=g_out, scenario=Scenario.OUTDOOR, prefix="o"
        )
        split = split_dataset(windows, seed=int(rng.integers(0, 2**31)))
        # partition totality
        assert set(split.assignment) == {w.id for w in windows}
        # 3:1:1:1 within one window of each part's exact share
        n = len(windows)
        counts = split.counts()
        for part, share in (
            (Part.TRAIN, 3), (Part.VALIDATION, 1),
            (Part.SEEN_TEST, 1), (Part.UNSEEN_TEST, 1),
        ):
            assert abs(counts[part] - n * share / 6.0) <= 1.0 + 1e-9
        # unseen recording groups never leak into the other parts
        group_of = {w.id: w.recording_group for w in windows}
        unseen_groups = {group_of[i] for i in split.part_ids(Part.UNSEEN_TEST)}
        for part in (Part.TRAIN, Part.VALIDATION, Part.SEEN_TEST):
            assert all(group_of[i] not in unseen_groups for i in split.part_ids(part))
    assert _verdict(
        6,
        True,
        f"{runs}/{runs} randomized splits satisfy partition totality, "
        f"3:1:1:1 within one window, and unseen-group exclusion",
    )


def test_criterion_7_run_determinism(tmp_path):
    args = ["run", "--per-class", "6", "--out"]
    assert cli_main([*args, str(tmp_path / "a")]) == 0
    assert cli_main([*args, str(tmp_path / "b")]) == 0
    # every file a run writes but its timings
    a, b = run_outputs(tmp_path / "a"), run_outputs(tmp_path / "b")
    differing = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
    assert _verdict(
        7,
        bool(a) and not differing,
        "two identical mock runs produced byte-identical "
        + ", ".join(sorted(a))
        + (f" (differs: {differing})" if differing else ""),
    )


def test_criterion_8_parser_corpus():
    corpus = [
        json.loads(line)
        for line in (DATA_DIR / "cot_responses.jsonl").read_text().splitlines()
        if line.strip()
    ]
    wrong = [
        entry["text"][:50]
        for entry in corpus
        if parse_label(entry["text"], PromptMode.COT)
        is not TrajectoryLabel(entry["label"])
    ]
    has_required = any(
        "most likely a 'turn-left' trajectory" in entry["text"] for entry in corpus
    )
    with pytest.raises(UnparseableLabelError):
        parse_label("", PromptMode.COT)
    with pytest.raises(UnparseableLabelError):
        parse_label("the sensors recorded a maneuver", PromptMode.COT)
    overlapping = {TrajectoryLabel.TURN_RIGHT: ("sharp turn",), TrajectoryLabel.TURN_AROUND: ("turn",)}
    with pytest.raises(AmbiguousLabelError):
        parse_label("the robot made a sharp turn", PromptMode.COT, overlapping)
    ok = len(corpus) >= 40 and not wrong and has_required
    assert _verdict(
        8,
        ok,
        f"{len(corpus) - len(wrong)}/{len(corpus)} curated CoT responses "
        f"parsed correctly (need all of >= 40); empty and ambiguous inputs "
        f"raise the documented errors" + (f"; misparsed: {wrong}" if wrong else ""),
    )


def test_criterion_9_noise_trend():
    per_scenario: dict[Scenario, list[float]] = {s: [] for s in Scenario}
    for seed in range(10):
        windows, _ = generate_dataset(GeneratorConfig(seed=seed), uniform_counts(2))
        for scenario in Scenario:
            subset = [w for w in windows if w.scenario is scenario]
            down = [downsample(w, 3.0) for w in subset]
            batch = classify_windows(down, PromptMode.COT)
            assert not batch.failures
            cm = confusion(batch.predictions, subset)
            per_scenario[scenario].append(metrics(cm).f1)
    indoor = float(np.mean(per_scenario[Scenario.INDOOR]))
    outdoor = float(np.mean(per_scenario[Scenario.OUTDOOR]))
    ok = outdoor <= indoor + 1e-12
    assert _verdict(
        9,
        ok,
        f"mock CoT macro-F1 under default noise, 10-seed average: "
        f"indoor {indoor:.3f}, outdoor {outdoor:.3f} (need outdoor <= indoor)",
    )
