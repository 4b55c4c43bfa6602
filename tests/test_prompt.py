import hashlib
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imutrace.core import Scenario, TrajectoryLabel, downsample
from imutrace.errors import ConfigError
from imutrace.prompting import (
    CANDIDATE_LABELS,
    COT_CLOSER,
    DO_CLOSER,
    MAX_PROMPT_CHARS,
    PromptBundle,
    PromptMode,
    TemplateSet,
    build_prompt,
    serialize_window,
    validate_bundle,
)
from imutrace.synth import GeneratorConfig, ZERO_NOISE, generate_dataset, uniform_counts

from conftest import window_from_array

TEMPLATE_DIR = Path(__file__).resolve().parents[1] / "src" / "imutrace" / "templates"


def test_serialize_window_exact_lines(make_window):
    data = np.zeros((2, 9))
    data[0] = [1.0, -2.5, 0.1, 0.0, 3.0, -0.75, 30.0, 0.0, 40.0]
    data[1] = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.125]
    w = make_window(data, rate=10.0)
    assert serialize_window(w) == (
        "ax, ay, az, gx, gy, gz, mx, my, mz\n"
        "1.00, -2.50, 0.10, 0.00, 3.00, -0.75, 30.00, 0.00, 40.00\n"
        "0.50, 0.50, 0.50, 0.50, 0.50, 0.50, 0.50, 0.50, 0.12"
    )


def _serialize_per_value(w):
    """The serializer as once written: one format call per value."""
    rows = ["ax, ay, az, gx, gy, gz, mx, my, mz"]
    rows.extend(", ".join(f"{v:.2f}" for v in values) for values in w.data.tolist())
    return "\n".join(rows)


# finite values, with the ones fixed-point rounding is touchiest about:
# signed zeros, halves of the last place (x.xx5), and the extremes
_SAMPLE_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6).map(lambda k: (10 * k + 5) / 1000),
    st.sampled_from([0.0, -0.0, -0.004, 0.005, 2.675, 1e300, -1e300, 1e-300, -1e-300]),
)


@settings(deadline=None)
@given(
    data=st.integers(2, 6).flatmap(
        lambda n: st.lists(st.lists(_SAMPLE_VALUES, min_size=9, max_size=9), min_size=n, max_size=n)
    )
)
def test_serialize_window_matches_a_per_value_format(data):
    w = window_from_array(np.array(data))
    assert serialize_window(w) == _serialize_per_value(w)


def test_build_prompt_substitutes_everything(make_window):
    w = make_window(np.zeros((30, 9)), rate=3.0, window_id="probe")
    bundle = build_prompt(w, PromptMode.COT)
    assert bundle.window_id == "probe"
    assert bundle.mode is PromptMode.COT
    assert "downsampled to 3 Hz" in bundle.question
    assert "at 100 Hz" in bundle.question
    assert CANDIDATE_LABELS in bundle.question
    assert "{{" not in bundle.text
    # 30 data lines plus the channel-label header
    data_lines = [
        line for line in bundle.question.split("\n") if line.count(",") == 8
    ]
    assert len(data_lines) == 31


def test_prompt_modes_have_their_closers(make_window):
    w = make_window(np.zeros((30, 9)), rate=3.0)
    cot = build_prompt(w, PromptMode.COT)
    do = build_prompt(w, PromptMode.DO)
    assert cot.text.rstrip().endswith(COT_CLOSER)
    assert DO_CLOSER in do.text
    assert COT_CLOSER not in do.text
    assert do.text != cot.text


def test_prompt_mentions_each_label_exactly_once(make_window):
    w = make_window(np.zeros((30, 9)), rate=3.0)
    for mode in PromptMode:
        text = build_prompt(w, mode).text.lower()
        for label in TrajectoryLabel:
            assert text.count(label.value) == 1, label


def test_prompt_determinism_and_digest(make_window):
    w = make_window(np.arange(30 * 9, dtype=float).reshape(30, 9) / 100.0, rate=3.0)
    a = build_prompt(w, PromptMode.COT)
    b = build_prompt(w, PromptMode.COT)
    assert a.text == b.text
    assert a.digest() == b.digest()
    expected = hashlib.sha256(
        a.instruction.encode("utf-8") + b"\x00" + a.question.encode("utf-8")
    ).hexdigest()
    assert a.digest() == expected
    other = make_window(np.zeros((30, 9)), rate=3.0)
    assert build_prompt(other, PromptMode.COT).digest() != a.digest()


def test_default_budget_fits_30_sample_windows():
    # property: at default settings, every 30-sample prompt stays under
    # the 4,000-character budget, with real synthesized data
    windows, _ = generate_dataset(
        GeneratorConfig(seed=13), uniform_counts(2), None
    )
    assert MAX_PROMPT_CHARS == 4000
    for w in windows:
        d = downsample(w, 3.0)
        assert len(d) == 30
        for mode in PromptMode:
            bundle = build_prompt(d, mode)
            assert len(bundle.text) < 4000


def test_default_templates_are_loaded_once():
    assert TemplateSet.load_default() is TemplateSet.load_default()


def test_build_prompt_defaults_to_the_packaged_templates(make_window):
    w = make_window(np.arange(27, dtype=float).reshape(3, 9), rate=3.0)
    for mode in PromptMode:
        assert build_prompt(w, mode) == build_prompt(
            w, mode, templates=TemplateSet.from_dir(TEMPLATE_DIR)
        )


def test_over_budget_raises(make_window):
    w = make_window(np.zeros((1000, 9)), rate=100.0)
    with pytest.raises(ConfigError, match="over the 4000 budget"):
        build_prompt(w, PromptMode.COT)


def test_template_set_from_dir(tmp_path, make_window):
    for name in ("instruction.txt", "question_cot.txt", "question_do.txt"):
        shutil.copy(TEMPLATE_DIR / name, tmp_path / name)
    custom = TemplateSet.from_dir(tmp_path)
    assert custom.digest() == TemplateSet.load_default().digest()

    text = (tmp_path / "question_cot.txt").read_text(encoding="utf-8")
    (tmp_path / "question_cot.txt").write_text(
        text.replace("wheeled robot", "delivery cart"), encoding="utf-8"
    )
    changed = TemplateSet.from_dir(tmp_path)
    assert changed.digest() != custom.digest()
    w = make_window(np.zeros((30, 9)), rate=3.0)
    assert "delivery cart" in build_prompt(w, PromptMode.COT, templates=changed).text

    (tmp_path / "question_do.txt").unlink()
    with pytest.raises(ConfigError):
        TemplateSet.from_dir(tmp_path)


def test_a_template_that_starts_with_a_bom_reads_as_without_it(tmp_path, make_window):
    # an editor may save a UTF-8 file with a byte-order mark; it is not text
    for name in ("instruction.txt", "question_cot.txt", "question_do.txt"):
        (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (TEMPLATE_DIR / name).read_bytes())
    templates = TemplateSet.from_dir(tmp_path)
    assert templates.digest() == TemplateSet.load_default().digest()
    w = make_window(np.zeros((30, 9)), rate=3.0)
    for mode in PromptMode:
        assert build_prompt(w, mode, templates=templates) == build_prompt(w, mode)


def test_unknown_placeholder_rejected(tmp_path, make_window):
    for name in ("instruction.txt", "question_cot.txt", "question_do.txt"):
        shutil.copy(TEMPLATE_DIR / name, tmp_path / name)
    bad = (tmp_path / "question_do.txt").read_text(encoding="utf-8")
    (tmp_path / "question_do.txt").write_text(
        bad.replace("{{data}}", "{{datum}}"), encoding="utf-8"
    )
    # the set is checked when it is built, before any prompt renders
    with pytest.raises(ConfigError, match=re.escape("unknown placeholder {{datum}}")):
        TemplateSet.from_dir(tmp_path)


def test_a_placeholder_in_the_instruction_is_refused(tmp_path):
    for name in ("instruction.txt", "question_cot.txt", "question_do.txt"):
        shutil.copy(TEMPLATE_DIR / name, tmp_path / name)
    with open(tmp_path / "instruction.txt", "a", encoding="utf-8") as fh:
        fh.write(" Data arrive at {{sample_rate}} Hz.")
    # the instruction takes no placeholder, not even one a question takes
    with pytest.raises(ConfigError, match=re.escape("unknown placeholder {{sample_rate}}")):
        TemplateSet.from_dir(tmp_path)


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("instruction.txt", "9-axis IMU devices", "{{sample_rate}} Hz IMU devices"),
        ("question_cot.txt", "{{data}}", "the samples"),
        ("question_do.txt", "{{data}}", "the samples"),
        ("question_cot.txt", "step-by-step", "stepwise"),
        ("question_do.txt", "{{labels}}", "'straight'"),
        # the mock provider reads the rate from this sentence
        ("question_cot.txt", "downsampled to {{sample_rate}} Hz", "resampled to {{sample_rate}} Hz"),
        ("question_do.txt", "downsampled to {{sample_rate}} Hz", "resampled to {{sample_rate}} Hz"),
        ("question_do.txt", "{{sample_rate}} Hz", "3 Hz"),
        # text after the data on its last line would change the last sample
        ("question_cot.txt", "{{data}}", "{{data}} (end of data)"),
    ],
)
def test_template_set_is_checked_when_built(tmp_path, name, old, new):
    for file in ("instruction.txt", "question_cot.txt", "question_do.txt"):
        shutil.copy(TEMPLATE_DIR / file, tmp_path / file)
    text = (tmp_path / name).read_text(encoding="utf-8")
    assert old in text
    (tmp_path / name).write_text(text.replace(old, new), encoding="utf-8")
    with pytest.raises(ConfigError):
        TemplateSet.from_dir(tmp_path)


def test_validate_bundle_rejections():
    question = (
        f"The candidate trajectories are {CANDIDATE_LABELS}. {COT_CLOSER}"
    )
    good = PromptBundle(
        instruction="inst", question=question, mode=PromptMode.COT, window_id="w"
    )
    validate_bundle(good)

    missing_label = PromptBundle(
        instruction="inst",
        question=f"Only 'straight' here. {COT_CLOSER}",
        mode=PromptMode.COT,
        window_id="w",
    )
    with pytest.raises(ConfigError):
        validate_bundle(missing_label)

    twice = PromptBundle(
        instruction="inst",
        question=f"{CANDIDATE_LABELS} and again straight. {COT_CLOSER}",
        mode=PromptMode.COT,
        window_id="w",
    )
    with pytest.raises(ConfigError):
        validate_bundle(twice)

    no_closer = PromptBundle(
        instruction="inst",
        question=f"The candidate trajectories are {CANDIDATE_LABELS}.",
        mode=PromptMode.COT,
        window_id="w",
    )
    with pytest.raises(ConfigError):
        validate_bundle(no_closer)


def test_validate_bundle_rejects_a_direct_output_prompt_without_its_directive():
    labels = f"The candidate trajectories are {CANDIDATE_LABELS}."
    no_directive = PromptBundle(
        instruction="inst", question=labels, mode=PromptMode.DO, window_id="w"
    )
    with pytest.raises(ConfigError, match="must contain the answer-only directive"):
        validate_bundle(no_directive)
    asks_for_steps = PromptBundle(
        instruction="inst",
        question=f"{labels} {DO_CLOSER} {COT_CLOSER}",
        mode=PromptMode.DO,
        window_id="w",
    )
    with pytest.raises(ConfigError, match="must not request step-by-step reasoning"):
        validate_bundle(asks_for_steps)
    validate_bundle(
        PromptBundle(
            instruction="inst", question=f"{labels} {DO_CLOSER}", mode=PromptMode.DO, window_id="w"
        )
    )


def test_templates_keep_label_words_out_of_prose():
    # labels must reach the prompt only through the {{labels}} slot,
    # otherwise the exactly-once check cannot hold
    for name in ("instruction.txt", "question_cot.txt", "question_do.txt"):
        text = (TEMPLATE_DIR / name).read_text(encoding="utf-8").lower()
        for label in TrajectoryLabel:
            assert label.value not in text
