"""Zero-shot IMU trajectory recognition testbed.

Synthesizes labeled 9-axis IMU windows, classifies them with
prompt-driven chat models (mock or live) and four from-scratch
baselines, and renders precision/recall/F1 comparison reports.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .core import (
    LABEL_ORDER,
    Part,
    Scenario,
    SplitAssignment,
    TrajectoryLabel,
    TrajectoryWindow,
    dataset_hash,
    downsample,
    ingest_csv,
    serialize_csv,
    split_dataset,
)
from .errors import (
    AmbiguousLabelError,
    ConfigError,
    DataError,
    ImutraceError,
    LabelParseError,
    ProviderError,
    TrainingDivergedError,
    TransportError,
    UnparseableLabelError,
)
from .evalreport import (
    ConfusionMatrix,
    EvalReport,
    Metrics,
    parse_report_jsonl,
    render_report,
    run_experiment,
)
from .llm import (
    BatchResult,
    LabelLexicon,
    Prediction,
    ProviderConfig,
    classify_windows,
    complete,
    mock_complete,
    parse_label,
)
from .prompting import (
    PromptBundle,
    PromptMode,
    TemplateSet,
    build_prompt,
    serialize_window,
)
from .synth import (
    GeneratorConfig,
    NoiseProfile,
    generate_dataset,
    uniform_counts,
)

__all__ = [
    "__version__",
    "LABEL_ORDER",
    "Part",
    "Scenario",
    "SplitAssignment",
    "TrajectoryLabel",
    "TrajectoryWindow",
    "dataset_hash",
    "downsample",
    "ingest_csv",
    "serialize_csv",
    "split_dataset",
    "AmbiguousLabelError",
    "ConfigError",
    "DataError",
    "ImutraceError",
    "LabelParseError",
    "ProviderError",
    "TrainingDivergedError",
    "TransportError",
    "UnparseableLabelError",
    "ConfusionMatrix",
    "EvalReport",
    "Metrics",
    "parse_report_jsonl",
    "render_report",
    "run_experiment",
    "BatchResult",
    "LabelLexicon",
    "Prediction",
    "ProviderConfig",
    "classify_windows",
    "complete",
    "mock_complete",
    "parse_label",
    "PromptBundle",
    "PromptMode",
    "TemplateSet",
    "build_prompt",
    "serialize_window",
    "GeneratorConfig",
    "NoiseProfile",
    "generate_dataset",
    "uniform_counts",
]
