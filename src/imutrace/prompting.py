"""Render a window into the two-part classification prompt, and read it back.

A prompt bundle is an instruction (role-play preamble that primes IMU
expertise) plus a question (acquisition context, the serialized sample
lines, the four candidate labels, and a mode-specific closing request).
Chain-of-thought bundles end with the verbatim step-by-step request;
direct-output bundles ask for the bare label.

Only this module knows a question's data layout (channel header, sample
lines, rate sentence); ``read_window``, its inverse, is how the offline
mock provider reads a prompt.

Templates are plain-text files with ``{{placeholder}}`` slots, loaded
from the packaged defaults or from a user directory, and hashed so a
report can pin the exact wording an experiment used.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

from importlib import resources

import numpy as np

from .core import AXIS_NAMES, LABEL_ORDER, Scenario, TrajectoryWindow
from .errors import ConfigError

COT_CLOSER = "I would appreciate a step-by-step analysis of your reasoning process."
DO_CLOSER = "Answer with exactly one of the candidate labels and nothing else."

# The original logging rate the context sentence quotes, Hz.
SOURCE_RATE_HZ = 100.0
MAX_PROMPT_CHARS = 4000

# The serialized window: this header line, then one line per sample with
# the nine values in AXIS_NAMES order, 2 decimals, joined the same way.
SAMPLE_DELIMITER = ", "
CHANNEL_HEADER = SAMPLE_DELIMITER.join(AXIS_NAMES)
SAMPLE_LINE = SAMPLE_DELIMITER.join(["%.2f"] * len(AXIS_NAMES))
# The context sentence that quotes the window's rate.
_RATE_PATTERN = re.compile(r"downsampled\s+to\s+([0-9]+(?:\.[0-9]+)?)\s*Hz", re.IGNORECASE)

TEMPLATE_FILES = ("instruction.txt", "question_cot.txt", "question_do.txt")
_PLACEHOLDER = re.compile(r"\{\{(\w+)\}\}")
_DEFAULT_TEMPLATES: list["TemplateSet"] = []


class PromptMode(Enum):
    DO = "do"
    COT = "cot"


@dataclass(frozen=True)
class PromptBundle:
    instruction: str
    question: str
    mode: PromptMode
    window_id: str

    @property
    def text(self) -> str:
        return f"{self.instruction}\n\n{self.question}"

    def digest(self) -> str:
        payload = f"{self.instruction}\0{self.question}".encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class TemplateSet:
    """The instruction and the two question templates of a prompt bundle.

    A set is checked when it is built, so a bad template directory is
    refused before a run reads any data: the instruction takes no
    placeholder, each question only known ones, and the prompt of each
    mode, rendered from a two-sample probe window, must pass
    ``validate_bundle`` and give back the probe's samples and rate through
    ``read_window``: each question needs ``{{data}}`` and the sentence
    "downsampled to {{sample_rate}} Hz". Sample lines hold only numbers,
    so every prompt ``build_prompt`` renders passes ``validate_bundle``.
    """

    instruction: str
    question_cot: str
    question_do: str

    def __post_init__(self):
        _render(self.instruction, {})  # refuses any placeholder in the instruction
        for mode in PromptMode:
            bundle = _bundle(self, mode, _PROBE.rate, serialize_window(_PROBE), _PROBE.id)
            validate_bundle(bundle)
            try:
                if read_window(bundle.question) != (_PROBE.data.tolist(), _PROBE.rate):
                    raise ValueError("read back other samples or another rate")
            except ValueError as exc:
                raise ConfigError(
                    f"the prompt of template question_{mode.value}.txt does not read back: "
                    f"{exc}; a question needs {{{{data}}}} on lines of its own and the "
                    f"sentence 'downsampled to {{{{sample_rate}}}} Hz'"
                ) from None

    @classmethod
    def load_default(cls) -> "TemplateSet":
        """The packaged set, read and checked once per process."""
        if not _DEFAULT_TEMPLATES:
            root = resources.files("imutrace").joinpath("templates")
            texts = [root.joinpath(name).read_text(encoding="utf-8") for name in TEMPLATE_FILES]
            _DEFAULT_TEMPLATES.append(cls(*texts))
        return _DEFAULT_TEMPLATES[0]

    @classmethod
    def from_dir(cls, path: str | Path) -> "TemplateSet":
        base = Path(path)
        texts = []
        for name in TEMPLATE_FILES:
            file = base / name
            if not file.is_file():
                raise ConfigError(f"template directory is missing {name}: {base}")
            try:
                texts.append(file.read_text(encoding="utf-8-sig"))
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read template {file}: {exc}") from None
        return cls(*texts)

    def digest(self) -> str:
        payload = "\0".join((self.instruction, self.question_cot, self.question_do))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def serialize_window(w: TrajectoryWindow) -> str:
    """``CHANNEL_HEADER``, then one ``SAMPLE_LINE`` per sample."""
    lines = "\n".join([CHANNEL_HEADER] + [SAMPLE_LINE] * len(w.data))
    return lines % tuple(w.data.ravel().tolist())


def read_window(question: str) -> tuple[list[list[float]], float]:
    """The sample rows and rate of the window a question serializes: the
    sample lines right after the first ``CHANNEL_HEADER`` line, and the
    rate of the first "downsampled to <rate> Hz". Raises ``ValueError``
    without the header (the column order is then unknown), with fewer
    than two sample lines, or without a positive rate."""
    lines = [line.strip() for line in question.splitlines()]
    if CHANNEL_HEADER not in lines:
        raise ValueError(f"found no channel header line {CHANNEL_HEADER!r}")
    rows: list[list[float]] = []
    for line in lines[lines.index(CHANNEL_HEADER) + 1 :]:
        tokens = line.split(SAMPLE_DELIMITER)
        if len(tokens) != len(AXIS_NAMES):
            break
        try:
            rows.append([float(t) for t in tokens])
        except ValueError:
            break
    if len(rows) < 2:
        raise ValueError(f"found {len(rows)} serialized sample lines, needs >= 2")
    match = _RATE_PATTERN.search(question)
    if match is None:
        raise ValueError("found no sentence quoting the rate as 'downsampled to <rate> Hz'")
    rate = float(match.group(1))
    if rate <= 0:
        raise ValueError(f"read a non-positive sample rate {rate}")
    return rows, rate


# The window a template set renders when it is built: distinct values that
# 2 decimals hold exactly, at a rate no template would write out by itself.
_PROBE = TrajectoryWindow(
    "template-check", Scenario.INDOOR, "template-check", 2.5,
    np.arange(2 * len(AXIS_NAMES)).reshape(2, -1) / 4 - 2,
)


def _render(template: str, values: dict[str, str]) -> str:
    def lookup(match: re.Match) -> str:
        name = match.group(1)
        if name not in values:
            raise ConfigError(f"template references unknown placeholder {{{{{name}}}}}")
        return values[name]

    return _PLACEHOLDER.sub(lookup, template)


CANDIDATE_LABELS = ", ".join(f"'{label.value}'" for label in LABEL_ORDER)


def validate_bundle(bundle: PromptBundle) -> None:
    """Enforce the bundle contract; raised violations point at the template."""
    text = bundle.text
    lowered = text.lower()
    for label in LABEL_ORDER:
        occurrences = lowered.count(label.value)
        if occurrences != 1:
            raise ConfigError(
                f"candidate label {label.value!r} must appear exactly once in the "
                f"prompt, found {occurrences}"
            )
    if bundle.mode is PromptMode.COT:
        if not text.rstrip().endswith(COT_CLOSER):
            raise ConfigError("chain-of-thought prompt must end with the step-by-step request")
    else:
        if DO_CLOSER not in text:
            raise ConfigError("direct-output prompt must contain the answer-only directive")
        if COT_CLOSER in text:
            raise ConfigError("direct-output prompt must not request step-by-step reasoning")


def _bundle(
    templates: TemplateSet, mode: PromptMode, sample_rate: float, data: str, window_id: str
) -> PromptBundle:
    question = templates.question_cot if mode is PromptMode.COT else templates.question_do
    values = {
        "source_rate": f"{SOURCE_RATE_HZ:g}",
        "sample_rate": f"{sample_rate:g}",
        "data": data,
        "labels": CANDIDATE_LABELS,
    }
    return PromptBundle(
        instruction=templates.instruction.strip(),
        question=_render(question, values).strip(),
        mode=mode,
        window_id=window_id,
    )


def build_prompt(
    w: TrajectoryWindow,
    mode: PromptMode,
    *,
    templates: Optional[TemplateSet] = None,
) -> PromptBundle:
    """Render ``w`` into a prompt bundle for ``mode``.

    The context sentence quotes ``SOURCE_RATE_HZ`` as the original
    logging rate and the window's own rate as the downsampled one.
    Deterministic: identical inputs render identical text. The template
    set was checked when it was built; a prompt over ``MAX_PROMPT_CHARS``
    is refused with ``ConfigError``.
    """
    if templates is None:
        templates = TemplateSet.load_default()
    bundle = _bundle(templates, mode, w.rate, serialize_window(w), w.id)
    if len(bundle.text) > MAX_PROMPT_CHARS:
        raise ConfigError(
            f"prompt for window {w.id!r} is {len(bundle.text)} characters, "
            f"over the {MAX_PROMPT_CHARS} budget; shrink the window"
        )
    return bundle
