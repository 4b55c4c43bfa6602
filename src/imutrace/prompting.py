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

DEFAULT_SOURCE_RATE_HZ = 100.0
DEFAULT_MAX_CHARS = 4000

TEMPLATE_FILES = ("instruction.txt", "question_cot.txt", "question_do.txt")
_PLACEHOLDER = re.compile(r"\{\{(\w+)\}\}")
# Characters a fixed-point sample value can be written with.
_NUMBER_CHARS = frozenset("0123456789.+-")


class PromptMode(Enum):
    DO = "do"
    COT = "cot"


@dataclass(frozen=True)
class SerializationOptions:
    """How sample lines are rendered inside the question."""

    decimals: int = 2
    axis_order: tuple[str, ...] = AXIS_NAMES
    sample_delimiter: str = ", "
    channel_labels: bool = True

    def __post_init__(self):
        if not 0 <= self.decimals <= 9:
            raise ConfigError(f"decimals must be in [0, 9], got {self.decimals}")
        if sorted(self.axis_order) != sorted(AXIS_NAMES):
            raise ConfigError(f"axis_order must be a permutation of {AXIS_NAMES}")
        # a sample line must split back into its nine numbers, one per line
        if not self.sample_delimiter or any(
            c in _NUMBER_CHARS or len(f"a{c}a".splitlines()) > 1
            for c in self.sample_delimiter
        ):
            raise ConfigError(
                "sample_delimiter must be non-empty and hold no digit, '.', '+', "
                f"'-' or line break, got {self.sample_delimiter!r}"
            )


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
    instruction: str
    question_cot: str
    question_do: str

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


def serialize_window(w: TrajectoryWindow, opts: SerializationOptions) -> str:
    """One fixed-point line per sample, nine values in ``opts.axis_order``."""
    rows = []
    if opts.channel_labels:
        rows.append(opts.sample_delimiter.join(opts.axis_order))
    indices = [AXIS_NAMES.index(a) for a in opts.axis_order]
    for values in w.data[:, indices].tolist():
        rows.append(
            opts.sample_delimiter.join(f"{v:.{opts.decimals}f}" for v in values)
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


def build_prompt(
    w: TrajectoryWindow,
    mode: PromptMode,
    opts: Optional[SerializationOptions] = None,
    *,
    templates: Optional[TemplateSet] = None,
    source_rate_hz: float = DEFAULT_SOURCE_RATE_HZ,
    max_chars: int = DEFAULT_MAX_CHARS,
) -> PromptBundle:
    """Render ``w`` into a prompt bundle for ``mode``.

    ``source_rate_hz`` is the original logging rate quoted in the
    context sentence; the downsampled rate is taken from the window
    itself. Deterministic: identical inputs render identical text.
    """
    if opts is None:
        opts = SerializationOptions()
    if templates is None:
        templates = TemplateSet.load_default()

    question_template = (
        templates.question_cot if mode is PromptMode.COT else templates.question_do
    )
    values = {
        "source_rate": _format_rate(source_rate_hz),
        "sample_rate": _format_rate(w.rate),
        "data": serialize_window(w, opts),
        "labels": candidate_label_list(),
    }
    bundle = PromptBundle(
        instruction=_render(templates.instruction, {}).strip(),
        question=_render(question_template, values).strip(),
        mode=mode,
        window_id=w.id,
    )
    if len(bundle.text) > max_chars:
        raise ConfigError(
            f"prompt for window {w.id!r} is {len(bundle.text)} characters, "
            f"over the {max_chars} budget; raise max_chars or shrink the window"
        )
    validate_bundle(bundle)
    return bundle
