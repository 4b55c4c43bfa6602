import json
import math
import re
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imutrace.core import AXIS_NAMES, Scenario, TrajectoryLabel, downsample
from imutrace.errors import (
    AmbiguousLabelError,
    ConfigError,
    ProviderError,
    TransportError,
    UnparseableLabelError,
)
from imutrace.llm import (
    BatchResult,
    CompletionResult,
    LABEL_PHRASES,
    ProviderConfig,
    _Retry,
    _run_calls,
    classify_windows,
    mock_complete,
    parse_label,
)
from imutrace.prompting import PromptBundle, PromptMode, build_prompt, read_window
from imutrace.synth import GeneratorConfig, ZERO_NOISE, generate_dataset, uniform_counts

from conftest import window_from_array

CORPUS = Path(__file__).resolve().parent / "data" / "cot_responses.jsonl"

ZERO = {s: ZERO_NOISE for s in Scenario}


def _clean_windows(per_class=2, seed=5):
    windows, _ = generate_dataset(GeneratorConfig(seed=seed), uniform_counts(per_class), ZERO)
    return [downsample(w, 3.0) for w in windows]


def test_mock_do_returns_bare_label():
    for w in _clean_windows():
        result = mock_complete(build_prompt(w, PromptMode.DO))
        assert result.text == w.label.value


def test_mock_cot_structure_and_label():
    for w in _clean_windows():
        result = mock_complete(build_prompt(w, PromptMode.COT))
        for phase in ("Phase 1", "Phase 2", "Phase 3", "Phase 4"):
            assert phase in result.text
        hyphenated = w.label.value.replace(" ", "-")
        assert result.text.endswith(f"most likely a '{hyphenated}' trajectory.")
        assert parse_label(result.text, PromptMode.COT) is w.label


def test_mock_matches_independent_heading_oracle():
    # recompute the trapezoid integral of gyro z from the window itself
    # and apply the documented thresholds; the mock must agree even on
    # noisy data where the thresholds actually bite
    windows, _ = generate_dataset(GeneratorConfig(seed=21), uniform_counts(3), None)
    for w in windows:
        d = downsample(w, 3.0)
        gz = d.data[:, 5]
        dtheta = float(np.sum((gz[1:] + gz[:-1]) * 0.5) / d.rate)
        if abs(dtheta) < math.pi / 4:
            expected = TrajectoryLabel.STRAIGHT
        elif abs(dtheta) < 3 * math.pi / 4:
            expected = (
                TrajectoryLabel.TURN_LEFT if dtheta > 0 else TrajectoryLabel.TURN_RIGHT
            )
        else:
            expected = TrajectoryLabel.TURN_AROUND
        got = parse_label(
            mock_complete(build_prompt(d, PromptMode.COT)).text, PromptMode.COT
        )
        assert got is expected
        # serialization rounds to 2 decimals, which cannot move the
        # integral anywhere near a pi/4 threshold on these profiles
        assert got is d.label


def test_mock_deterministic_text():
    w = _clean_windows()[0]
    bundle = build_prompt(w, PromptMode.COT)
    assert mock_complete(bundle).text == mock_complete(bundle).text


HEADER = ", ".join(AXIS_NAMES)


def test_mock_needs_rate_sentence():
    bundle = PromptBundle(
        instruction="inst",
        question=f"{HEADER}\n1, 2, 3, 4, 5, 6, 7, 8, 9\n9, 8, 7, 6, 5, 4, 3, 2, 1",
        mode=PromptMode.DO,
        window_id="w",
    )
    with pytest.raises(ProviderError, match="rate"):
        mock_complete(bundle)


def test_mock_needs_sample_lines():
    bundle = PromptBundle(
        instruction="inst",
        question=f"downsampled to 3 Hz\n{HEADER}\n1, 2, 3, 4, 5, 6, 7, 8, 9",
        mode=PromptMode.DO,
        window_id="w",
    )
    with pytest.raises(ProviderError, match="sample lines"):
        mock_complete(bundle)


_SAMPLES = "\n1, 2, 3, 4, 5, 6, 7, 8, 9\n9, 8, 7, 6, 5, 4, 3, 2, 1"


@pytest.mark.parametrize(
    "header",
    ["", ", ".join(reversed(AXIS_NAMES)), "; ".join(AXIS_NAMES)],
    ids=["no-header", "permuted", "semicolon"],
)
def test_mock_needs_channel_header(header):
    # only the one fixed layout says which column is gz
    bundle = PromptBundle(
        instruction="inst",
        question=f"downsampled to 3 Hz\n{header}{_SAMPLES}",
        mode=PromptMode.DO,
        window_id="w",
    )
    with pytest.raises(ProviderError, match="header"):
        mock_complete(bundle)


_BOUNDED = st.floats(-1e3, 1e3, exclude_min=True, exclude_max=True)


@settings(max_examples=40, deadline=None)
@given(
    data=st.integers(2, 20).flatmap(
        lambda n: st.lists(st.lists(_BOUNDED, min_size=9, max_size=9), min_size=n, max_size=n)
    ),
    mode=st.sampled_from(PromptMode),
    rate=st.sampled_from([3.0, 100 / 3]),
)
def test_mock_reads_back_the_two_decimal_window(data, mode, rate):
    w = window_from_array(np.array(data), rate=rate)
    rows, read = read_window(build_prompt(w, mode).question)
    # the prompt quotes the rate to 6 significant digits: 33.3333 Hz
    assert read == float(f"{rate:g}")
    assert rows == [[float(f"{v:.2f}") for v in row] for row in data]
    gz = AXIS_NAMES.index("gz")
    assert [row[gz] for row in rows] == [float(f"{v:.2f}") for v in w.data[:, gz]]


def test_completion_result_rejects_empty_text():
    with pytest.raises(ValueError):
        CompletionResult(text="")


def test_parse_label_basics():
    assert parse_label("turn left", PromptMode.DO) is TrajectoryLabel.TURN_LEFT
    assert parse_label("Turn Right", PromptMode.DO) is TrajectoryLabel.TURN_RIGHT
    assert parse_label("TURN-AROUND", PromptMode.DO) is TrajectoryLabel.TURN_AROUND
    assert parse_label("straight", PromptMode.DO) is TrajectoryLabel.STRAIGHT
    assert parse_label("a U-turn", PromptMode.COT) is TrajectoryLabel.TURN_AROUND
    assert parse_label("it veers, veering right", PromptMode.COT) is TrajectoryLabel.TURN_RIGHT


def test_parse_label_takes_last_conclusion():
    text = (
        "At first the path looks straight, and one might suspect a turn right, "
        "but the full integral says the robot was turning left."
    )
    assert parse_label(text, PromptMode.COT) is TrajectoryLabel.TURN_LEFT


def test_parse_label_unparseable():
    with pytest.raises(UnparseableLabelError) as info:
        parse_label("the sensor data is inconclusive", PromptMode.COT)
    assert "cot" in str(info.value)
    with pytest.raises(UnparseableLabelError):
        parse_label("", PromptMode.DO)
    # an inflection the lexicon does not carry stays unparseable
    with pytest.raises(UnparseableLabelError):
        parse_label("the robot veers rightwards", PromptMode.DO)


def test_parse_label_ambiguous_with_custom_lexicon():
    # two labels whose phrases end at the same text position
    phrases = {
        TrajectoryLabel.TURN_RIGHT: ("sharp turn",),
        TrajectoryLabel.TURN_AROUND: ("turn",),
    }
    with pytest.raises(AmbiguousLabelError) as info:
        parse_label("the robot made a sharp turn", PromptMode.COT, phrases)
    assert "turn around" in str(info.value)
    assert "turn right" in str(info.value)
    assert "position 27" in str(info.value)


def test_every_label_has_phrases():
    assert list(LABEL_PHRASES) == list(TrajectoryLabel)
    for label, phrases in LABEL_PHRASES.items():
        assert isinstance(phrases, tuple) and phrases, label
        assert all(isinstance(p, str) and p.strip() for p in phrases), label
        # parse_label compares casefolded words, so a phrase in any other
        # form could never match
        for phrase in phrases:
            assert re.fullmatch(r"\w+( \w+)*", phrase) and phrase == phrase.casefold(), phrase


@pytest.mark.parametrize(
    "text, label",
    [
        ("a counterclockwise turn", TrajectoryLabel.TURN_LEFT),
        ("a counter-clockwise turn", TrajectoryLabel.TURN_LEFT),
        ("a counter clockwise turn", TrajectoryLabel.TURN_LEFT),
        ("a Counter-Clockwise turn", TrajectoryLabel.TURN_LEFT),
        ("an anticlockwise turn", TrajectoryLabel.TURN_LEFT),
        ("an anti-clockwise turn", TrajectoryLabel.TURN_LEFT),
        ("an anti clockwise turn", TrajectoryLabel.TURN_LEFT),
        ("a counter\u2013clockwise turn", TrajectoryLabel.TURN_LEFT),
        ("a counter\u2014clockwise turn", TrajectoryLabel.TURN_LEFT),
        ("a counter  clockwise turn", TrajectoryLabel.TURN_LEFT),
        ("a counter -clockwise turn", TrajectoryLabel.TURN_LEFT),
        ("an anti - clockwise turn", TrajectoryLabel.TURN_LEFT),
        ("a clockwise turn", TrajectoryLabel.TURN_RIGHT),
        # a hyphen before a phrase is not in itself a prefix
        ("a sharp-right turn", TrajectoryLabel.TURN_RIGHT),
        ("a hard-left turn", TrajectoryLabel.TURN_LEFT),
    ],
)
def test_clockwise_turns_by_every_spelling(text, label):
    # "clockwise turn" is a right turn, but not as the tail of
    # "counter-clockwise turn" or "anti clockwise turn"
    assert parse_label(text, PromptMode.COT) is label


# runs of what parse_label takes to join a phrase's words: whitespace,
# hyphens, the dashes U+2010 to U+2015 and the minus sign
SEPARATOR_RUNS = st.text(
    " \t\n\u00a0\u3000-\u2010\u2011\u2012\u2013\u2014\u2015\u2212", min_size=1, max_size=4
)


@settings(deadline=None)
@given(
    response=st.sampled_from(
        [json.loads(line)["text"] for line in CORPUS.read_text("utf-8").splitlines() if line]
    ),
    phrase=st.sampled_from([(label, p) for label, group in LABEL_PHRASES.items() for p in group]),
    data=st.data(),
)
def test_a_phrase_in_any_case_and_joined_any_way_concludes_a_response(response, phrase, data):
    label, text = phrase
    words = [
        "".join(data.draw(st.sampled_from((c.lower(), c.upper()))) for c in word)
        for word in text.split()
    ]
    spelt = words[0] + "".join(data.draw(SEPARATOR_RUNS) + word for word in words[1:])
    assert parse_label(response + ". " + spelt, PromptMode.COT) is label


def _parse_by_offsets(text, mode, phrases=LABEL_PHRASES):
    """The parser as once written: each match ranked by the character
    offset its last word ends at, not by that word's index."""
    by_first = {}
    for label, group in phrases.items():
        for phrase in group:
            first, *rest = phrase.split()
            by_first.setdefault(first, []).append((rest, label))
    words, ends = [], []
    for match in re.finditer(r"(\w+)|[^\w\s\-\u2010-\u2015\u2212]+", text):
        words.append(match[1] and match[1].casefold())
        ends.append(match.end())
    best_end, best_labels = -1, set()
    for i, word in enumerate(words):
        if i and words[i - 1] in ("counter", "anti"):
            continue
        for rest, label in by_first.get(word, ()):
            stop = i + 1 + len(rest)
            if words[i + 1 : stop] != rest:
                continue
            end = ends[stop - 1]
            if end > best_end:
                best_end, best_labels = end, {label}
            elif end == best_end:
                best_labels.add(label)
    if not best_labels:
        raise UnparseableLabelError(
            f"no trajectory label found in {mode.value} response: {text[:80]!r}"
        )
    if len(best_labels) > 1:
        names = ", ".join(sorted(lb.value for lb in best_labels))
        raise AmbiguousLabelError(f"labels {{{names}}} tie at text position {best_end}")
    return next(iter(best_labels))


def _outcome(parse, text, mode, phrases):
    try:
        return parse(text, mode, phrases)
    except (AmbiguousLabelError, UnparseableLabelError) as exc:
        return type(exc), str(exc)


# a lexicon whose labels tie at every "turn" not after "counter" or "anti"
_TIED_PHRASES = {
    TrajectoryLabel.TURN_RIGHT: ("sharp turn", "right"),
    TrajectoryLabel.TURN_LEFT: ("turn",),
    TrajectoryLabel.TURN_AROUND: ("turn", "u turn"),
}
_PIECES = st.one_of(
    st.sampled_from(sorted({w for group in LABEL_PHRASES.values() for p in group for w in p.split()})),
    st.sampled_from(["counter", "anti", "Counter", "ANTI", "sharp", "Turn", "robot"]),
    SEPARATOR_RUNS,
    st.sampled_from([". ", ", ", "(", ") ", "'", "\u2019"]),
)


@settings(deadline=None)
@given(
    pieces=st.lists(_PIECES, max_size=16),
    mode=st.sampled_from(PromptMode),
    phrases=st.sampled_from([LABEL_PHRASES, _TIED_PHRASES]),
)
def test_parse_label_matches_the_offset_parser(pieces, mode, phrases):
    text = "".join(pieces)
    assert _outcome(parse_label, text, mode, phrases) == _outcome(
        _parse_by_offsets, text, mode, phrases
    )


def test_parser_corpus_all_correct():
    entries = [json.loads(line) for line in CORPUS.read_text("utf-8").splitlines() if line]
    assert len(entries) >= 40
    by_label = {}
    for entry in entries:
        expected = TrajectoryLabel(entry["label"])
        got = parse_label(entry["text"], PromptMode.COT)
        assert got is expected, entry["text"]
        by_label[expected] = by_label.get(expected, 0) + 1
    assert set(by_label) == set(TrajectoryLabel)


def test_classify_windows_mock_end_to_end():
    windows = _clean_windows()
    batch = classify_windows(windows, PromptMode.COT)
    assert isinstance(batch, BatchResult)
    assert batch.failures == ()
    assert [p.window_id for p in batch.predictions] == sorted(w.id for w in windows)
    truth = {w.id: w.label for w in windows}
    for p in batch.predictions:
        assert p.label is truth[p.window_id]

    rows = batch.calls
    assert [r["window_id"] for r in rows] == [p.window_id for p in batch.predictions]
    for row in rows:
        assert set(row) == {
            "window_id", "bundle_sha256", "latency_s", "attempts", "prompt_tokens",
            "completion_tokens",
        }
        assert row["latency_s"] > 0 and row["attempts"] == 1
        # the mock counts no tokens
        assert row["prompt_tokens"] is None and row["completion_tokens"] is None


@pytest.mark.parametrize("mode", list(PromptMode))
def test_classify_windows_sends_a_bundle_as_the_window_it_came_from(mode):
    windows = _clean_windows()
    doomed = sorted(w.id for w in windows)[2]

    def completer(bundle):
        if bundle.window_id == doomed:
            raise TransportError("socket exploded")
        return mock_complete(bundle)

    def outcome(batch):
        return batch.predictions, batch.failures, batch.transcript

    from_windows = classify_windows(windows, mode, completer=completer)
    bundles = [build_prompt(w, mode) for w in windows]
    from_bundles = classify_windows(bundles, mode, completer=completer)
    assert outcome(from_bundles) == outcome(from_windows)
    assert len(from_windows.failures) == 1 and len(from_windows.predictions) == len(windows) - 1


def test_classify_windows_collects_failures():
    windows = _clean_windows()
    doomed = sorted(w.id for w in windows)[0]

    def completer(bundle):
        if bundle.window_id == doomed:
            raise TransportError("socket exploded")
        return mock_complete(bundle)

    batch = classify_windows(windows, PromptMode.DO, completer=completer)
    assert len(batch.failures) == 1
    assert batch.failures[0][0] == doomed
    assert "socket exploded" in batch.failures[0][1]
    assert len(batch.predictions) == len(windows) - 1


def test_classify_windows_config_error_aborts():
    windows = _clean_windows()

    def completer(bundle):
        raise ConfigError("missing auth token")

    with pytest.raises(ConfigError):
        classify_windows(windows, PromptMode.DO, completer=completer)


def test_classify_windows_unparseable_becomes_none():
    windows = _clean_windows()[:3]

    def completer(bundle):
        return CompletionResult(text="hmm, hard to say")

    batch = classify_windows(windows, PromptMode.COT, completer=completer)
    assert all(p.label is None for p in batch.predictions)
    assert batch.failures == ()


def test_classify_windows_concurrent_order_stable():
    windows = _clean_windows()
    lock = threading.Lock()
    seen = []

    def completer(bundle):
        # jitter completion order to prove output order is by id
        time.sleep(0.001 * (hash(bundle.window_id) % 7))
        with lock:
            seen.append(bundle.window_id)
        return mock_complete(bundle)

    cfg = ProviderConfig(endpoint="http://unused", model="fake", concurrency=8)
    batch = classify_windows(windows, PromptMode.DO, cfg=cfg, completer=completer)
    assert [p.window_id for p in batch.predictions] == sorted(w.id for w in windows)
    assert len(seen) == len(windows)
    truth = {w.id: w.label for w in windows}
    assert all(p.label is truth[p.window_id] for p in batch.predictions)


def test_transcript_records_failures_in_window_order():
    windows = _clean_windows()
    doomed = sorted(w.id for w in windows)[1]

    def completer(bundle):
        if bundle.window_id == doomed:
            raise TransportError("socket exploded")
        return mock_complete(bundle)

    batch = classify_windows(windows, PromptMode.DO, completer=completer)
    for rows in (batch.transcript, batch.calls):
        assert [r["window_id"] for r in rows] == sorted(w.id for w in windows)
    failed = [r for r in batch.transcript if "error" in r]
    head = {"window_id": doomed, "bundle_sha256": failed[0]["bundle_sha256"]}
    assert failed == [{**head, "error": "socket exploded"}]
    # an injected completer makes one attempt, never retried
    assert [r for r in batch.calls if r["window_id"] == doomed] == [{**head, "attempts": 1}]
    assert batch.failures == ((doomed, "socket exploded"),)


def test_a_batch_says_the_same_on_a_rerun_and_keeps_how_each_call_went_apart():
    windows = _clean_windows()
    doomed = sorted(w.id for w in windows)[1]

    def completer(bundle):
        if bundle.window_id == doomed:
            raise ProviderError("the provider said nothing")
        return mock_complete(bundle)

    first, again = (
        classify_windows(windows, PromptMode.COT, completer=completer) for _ in range(2)
    )
    # what was said is the same, field for field: no latency to blank
    assert first.transcript == again.transcript
    head = ["window_id", "bundle_sha256"]
    for row in first.transcript:
        assert list(row) == head + (["error"] if row["window_id"] == doomed else ["text"])
    for row in first.calls:
        if row["window_id"] == doomed:
            assert list(row) == head + ["attempts"]
        else:
            assert list(row) == head + [
                "latency_s", "attempts", "prompt_tokens", "completion_tokens"
            ]
            assert row["latency_s"] > 0
    assert [r["bundle_sha256"] for r in first.calls] == [
        r["bundle_sha256"] for r in first.transcript
    ]


def test_unexpected_error_stops_the_batch():
    windows = _clean_windows()
    first = windows[0].id
    started = []

    def completer(bundle):
        started.append(bundle.window_id)
        if bundle.window_id == first:
            raise RuntimeError("bug in the completer")
        time.sleep(0.05)
        return mock_complete(bundle)

    threads_before = threading.active_count()
    cfg = ProviderConfig(endpoint="http://unused", model="fake", concurrency=2)
    with pytest.raises(RuntimeError, match="bug in the completer"):
        classify_windows(windows, PromptMode.DO, cfg=cfg, completer=completer)
    assert len(started) <= 3 < len(windows)  # no attempt starts after the error
    assert threading.active_count() == threads_before  # every worker joined


def test_a_retry_due_past_the_longest_wait_does_not_stop_the_batch():
    # a Retry-After of 1e10 s is past threading.TIMEOUT_MAX; the worker that
    # waits on it must still see the other call's error and be joined
    bundles = [
        PromptBundle(instruction="i", question=f"q{i}", mode=PromptMode.DO, window_id=f"w{i}")
        for i in range(2)
    ]

    def attempt(bundle, session):
        if bundle.window_id == "w0":
            raise _Retry("HTTP 503", retry_after_s=1e10)
        time.sleep(0.05)
        raise RuntimeError("bug in the attempt")

    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="bug in the attempt"):
        _run_calls(bundles, attempt, workers=2, retries=1)
    assert threading.active_count() == threads_before


def test_zero_backoff_retries_past_1024_attempts_end_in_a_transport_error():
    # a zero base once went through 2 ** 1100, an int too large for a float
    bundle = PromptBundle(instruction="i", question="q", mode=PromptMode.DO, window_id="w0")

    def attempt(bundle, session):
        raise _Retry("HTTP 503")

    ((outcome, attempts, latency_s),) = _run_calls(
        [bundle], attempt, workers=1, retries=1100, backoff_base_s=0.0
    )
    assert isinstance(outcome, TransportError)
    assert str(outcome) == "retries exhausted after 1101 attempts (last failure: HTTP 503)"
    assert attempts == 1101 and latency_s is None


@settings(max_examples=40, deadline=None)
@given(
    failures=st.lists(st.integers(0, 4), max_size=12),
    retries=st.integers(0, 3),
    concurrency=st.integers(1, 5),
)
def test_scheduler_retries_and_limits_property(failures, retries, concurrency):
    bundles = [
        PromptBundle(instruction="i", question=f"q{i}", mode=PromptMode.DO, window_id=f"w{i:02d}")
        for i in range(len(failures))
    ]
    lock = threading.Lock()
    made = [0] * len(bundles)
    inflight = peak = 0

    def attempt(bundle, session):
        nonlocal inflight, peak
        index = int(bundle.window_id[1:])
        with lock:
            made[index] += 1
            number = made[index]
            inflight += 1
            peak = max(peak, inflight)
        try:
            time.sleep(0.0005)
            if number <= failures[index]:
                raise _Retry("HTTP 503")
            return CompletionResult(text=bundle.window_id)
        finally:
            with lock:
                inflight -= 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        calls = _run_calls(
            bundles, attempt, workers=min(concurrency, len(bundles)),
            retries=retries, backoff_base_s=0.0,
        )
    finally:
        sys.setswitchinterval(interval)

    assert peak <= concurrency
    assert sum(made) == sum(min(f, retries) + 1 for f in failures)
    assert len(calls) == len(bundles)
    for bundle, f, (outcome, attempts, latency_s) in zip(bundles, failures, calls):
        assert attempts == min(f, retries) + 1
        if f > retries:
            assert isinstance(outcome, TransportError)
            assert str(outcome) == (
                f"retries exhausted after {attempts} attempts (last failure: HTTP 503)"
            )
            assert latency_s is None
        else:
            assert outcome.text == bundle.window_id
            assert latency_s > 0
