"""Render a trajectory window into the two-part classification prompt.

A prompt bundle is an instruction (role-play preamble that primes IMU
expertise) plus a question (acquisition context, the serialized sample
lines, the four candidate labels, and a mode-specific closing request).
Chain-of-thought bundles end with the verbatim step-by-step request;
direct-output bundles ask for the bare label.

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

from .core import AXIS_NAMES, LABEL_ORDER, TrajectoryWindow
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

TEMPLATE_FILES = ("instruction.txt", "question_cot.txt", "question_do.txt")
_PLACEHOLDER = re.compile(r"\{\{(\w+)\}\}")


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
    placeholder, each question only known ones and ``{{data}}``, and the
    prompt of each mode, rendered with the channel header for its data,
    must pass ``validate_bundle``. Sample lines hold only numbers, so
    every prompt ``build_prompt`` renders from the set passes it too.
    """

    instruction: str
    question_cot: str
    question_do: str

    def __post_init__(self):
        for mode in PromptMode:
            validate_bundle(_bundle(self, mode, SOURCE_RATE_HZ, CHANNEL_HEADER, "template-check"))
        for name in ("question_cot", "question_do"):
            if "{{data}}" not in getattr(self, name):
                raise ConfigError(f"template {name}.txt has no {{{{data}}}} placeholder")

    @classmethod
    def load_default(cls) -> "TemplateSet":
        root = resources.files("imutrace").joinpath("templates")
        texts = [root.joinpath(name).read_text(encoding="utf-8") for name in TEMPLATE_FILES]
        return cls(*texts)

    @classmethod
    def from_dir(cls, path: str | Path) -> "TemplateSet":
        base = Path(path)
        texts = []
        for name in TEMPLATE_FILES:
            file = base / name
            if not file.is_file():
                raise ConfigError(f"template directory is missing {name}: {base}")
            texts.append(file.read_text(encoding="utf-8"))
        return cls(*texts)

    def digest(self) -> str:
        payload = "\0".join((self.instruction, self.question_cot, self.question_do))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def serialize_window(w: TrajectoryWindow) -> str:
    """``CHANNEL_HEADER``, then one fixed-point line per sample."""
    rows = [CHANNEL_HEADER]
    rows.extend(
        SAMPLE_DELIMITER.join(f"{v:.2f}" for v in values) for values in w.data.tolist()
    )
    return "\n".join(rows)


def _format_rate(rate: float) -> str:
    return f"{rate:g}"


def _render(template: str, values: dict[str, str]) -> str:
    def lookup(match: re.Match) -> str:
        name = match.group(1)
        if name not in values:
            raise ConfigError(f"template references unknown placeholder {{{{{name}}}}}")
        return values[name]

    return _PLACEHOLDER.sub(lookup, template)


def candidate_label_list() -> str:
    return ", ".join(f"'{label.value}'" for label in LABEL_ORDER)


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
        "source_rate": _format_rate(SOURCE_RATE_HZ),
        "sample_rate": _format_rate(sample_rate),
        "data": data,
        "labels": candidate_label_list(),
    }
    return PromptBundle(
        instruction=_render(templates.instruction, {}).strip(),
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
