"""Count tables, macro metrics, the experiment runner, and reports.

A scored cell's counts are one 4x5 table: rows are the truth label,
columns the four predicted labels (fixed label order), then "unparsed"
for responses that yielded no label. Unparsed counts never enter
precision denominators (nothing was predicted) but do enter recall
denominators (the truth instance existed), so refusals depress recall
instead of vanishing.

Reports render as an aligned text table and as JSON lines, one cell
per line, both referencing the run manifest by hash. All rendering is
deterministic: with the mock provider, rerunning a manifest reproduces
the report byte for byte.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import tempfile
import time
from contextlib import suppress
from dataclasses import asdict, astuple, dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .core import (
    N_CLASSES,
    Part,
    Scenario,
    SplitAssignment,
    TrajectoryWindow,
    dataset_hash,
    downsample,
)
from .errors import ConfigError, DataError
from .llm import MOCK_PROVIDER_ID, Prediction, ProviderConfig, classify_windows
from .prompting import PromptMode, TemplateSet, build_prompt
from .baselines import BASELINES
from .baselines.features import feature_matrix, label_vector

BASELINE_KINDS = tuple(BASELINES)

DEFAULT_TARGET_RATE_HZ = 3.0

# A prompt cell whose provider calls fail for more than this share of its
# windows is skipped rather than scored on the few that came back.
MAX_FAILED_SHARE = 0.5

# Published targets this testbed is benchmarked against (unseen split).
REFERENCE_TARGETS = {"indoor": 0.836, "outdoor": 0.767}

_TEST_NAMES = {Part.SEEN_TEST: "Seen", Part.UNSEEN_TEST: "Unseen"}

# The one file of a run that a rerun may change: times, and how each
# provider call went. Every other file a run writes is the same bytes on a
# rerun of the same configuration with the mock provider.
TIMINGS_FILE = "timings.json"

# run_experiment submits its pool tasks longest first, so the short ones
# fill in behind the long ones. The order is by single task, not by kind's
# total: in the timings.json of 24 pooled grid-mock runs (--per-class 12,
# gen seed 7, 2-core x86 VM) each LSTM took 0.26-0.57 s CPU, writing the
# 22 MB dataset CSV 0.26-0.40 s, each CNN 0.04-0.11 s, each SVM
# 0.01-0.08 s and each forest 0.04-0.09 s. With the LSTMs first, pool_s had
# a median of 0.68 s against 0.72 s with the CSV first (12 alternating runs
# each; lower in 24 of 38 such pairs in all).
_TASK_ORDER = ("lstm", "dataset", "cnn", "svm", "rf")


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True, eq=False)
class CellResult:
    """One grid cell: the counts it scored, or why it was skipped.

    ``counts``, the (4, 5) int64 table that ``confusion`` returns (None on
    a skipped cell), is the cell's only stored result; ``metrics`` derives
    the macro precision, recall and F1 from it. ``n_windows`` is the
    number of evaluation windows the cell ran on (0 when it was skipped
    before any ran), and ``n_failures`` the number of those whose provider
    call failed; a cell skipped on provider failures keeps both. A scored
    cell's ``n_windows`` is its table's total plus ``n_failures``.
    """

    counts: Optional[np.ndarray]
    skipped_reason: Optional[str] = None
    n_windows: int = 0
    n_failures: int = 0

    def __post_init__(self):
        if not 0 <= self.n_failures <= self.n_windows:
            raise DataError(
                f"a cell's failures must be in [0, n_windows], got "
                f"{self.n_failures} of {self.n_windows} windows"
            )
        if self.counts is None:
            return
        if self.counts.shape != (N_CLASSES, N_CLASSES + 1):
            raise DataError(f"a cell's counts must be 4x5, got {self.counts.shape}")
        if np.any(self.counts < 0):
            raise DataError("a cell's counts must be nonnegative")
        if self.n_windows != self.counts.sum() + self.n_failures:
            raise DataError(
                f"a scored cell's n_windows must be its {self.counts.sum()} counts plus "
                f"its {self.n_failures} failures, got {self.n_windows}"
            )

    @property
    def skipped(self) -> bool:
        return self.skipped_reason is not None

    @property
    def metrics(self) -> Optional[Metrics]:
        return None if self.counts is None else metrics(self.counts)


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Cells keyed by (model id, scenario, split part), plus the manifest.

    ``manifest_sha256`` is the ``canonical_digest`` of the run manifest,
    which the rendered reports cite. ``manifest`` is the manifest itself,
    or None on a report parsed back from JSONL, which carries only its
    digest. ``timings`` is what ``run_experiment`` writes to
    ``TIMINGS_FILE``: its pool's ``workers``, ``pool_s`` and ``tasks``
    (see ``_run_tasks``), and ``calls``, the ``BatchResult.calls`` rows
    of every provider call in grid order: how each call went. It is never
    rendered and never enters the manifest, so reruns stay
    byte-identical.
    """

    cells: Mapping[tuple[str, Scenario, Part], CellResult]
    manifest_sha256: str
    manifest: Optional[dict] = None
    timings: dict = field(default_factory=dict)


def json_line(obj: dict, sort_keys: bool = True) -> str:
    """``obj`` as one line of compact JSON, the form of each JSON file written."""
    return json.dumps(obj, sort_keys=sort_keys, separators=(",", ":")) + "\n"


def canonical_digest(obj: dict) -> str:
    """sha256 of the canonical (sorted, compact) JSON encoding."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def confusion(preds: Sequence[Prediction], truths: Sequence[TrajectoryWindow]) -> np.ndarray:
    """Count predictions against labeled truth windows by window_id, into a
    (4, 5) table: a row per truth label, a column per predicted label, and
    a last column for predictions without one."""
    truth_labels: dict[str, int] = {}
    for w in truths:
        if w.label is None:
            raise DataError(f"truth window {w.id!r} is unlabeled")
        truth_labels[w.id] = w.label.index
    counts = np.zeros((N_CLASSES, N_CLASSES + 1), dtype=np.int64)
    for pred in preds:
        if pred.window_id not in truth_labels:
            raise DataError(f"prediction for {pred.window_id!r} has no labeled truth")
        column = N_CLASSES if pred.label is None else pred.label.index
        counts[truth_labels[pred.window_id], column] += 1
    return counts


def per_class_metrics(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class (precision, recall, f1) arrays of a (4, 5) count table,
    with 0 on zero denominators."""
    tp = np.diag(counts).astype(np.float64)
    fp = counts[:, :N_CLASSES].sum(axis=0) - tp
    # row totals include the unparsed column: those truths existed
    fn = counts.sum(axis=1) - tp
    precision = np.divide(tp, tp + fp, out=np.zeros(N_CLASSES), where=(tp + fp) > 0)
    recall = np.divide(tp, tp + fn, out=np.zeros(N_CLASSES), where=(tp + fn) > 0)
    both = precision + recall
    f1 = np.divide(
        2.0 * precision * recall, both, out=np.zeros(N_CLASSES), where=both > 0
    )
    return precision, recall, f1


def metrics(counts: np.ndarray) -> Metrics:
    """Macro-averaged precision, recall, and F1 over the four classes."""
    if counts.sum() == 0:
        raise DataError("cannot compute metrics for an empty count table")
    precision, recall, f1 = per_class_metrics(counts)
    return Metrics(
        precision=float(precision.mean()),
        recall=float(recall.mean()),
        f1=float(f1.mean()),
    )


# --------------------------------------------------------------------------
# experiment runner


def _display_name(model_id: str) -> str:
    if model_id in BASELINES:
        return model_id.upper()
    if model_id.endswith("-cot"):
        return model_id[: -len("-cot")] + "-CoT"
    if model_id.endswith("-do"):
        return model_id[: -len("-do")] + "-DO"
    return model_id


def baseline_inputs(
    kind: str,
    windows: Sequence[TrajectoryWindow],
    downsampled: Callable[[TrajectoryWindow], TrajectoryWindow],
) -> tuple:
    """The positional inputs ``kind`` trains on, or predicts from (first
    element only): (feature matrix, label vector) of the full-rate
    ``windows``, or (their downsampled versions,)."""
    if BASELINES[kind].input == "features":
        return feature_matrix(windows), label_vector(windows)
    return ([downsampled(w) for w in windows],)


def train_baseline(kind: str, inputs: tuple, cfg):
    """Train ``kind`` on ``baseline_inputs`` with its config."""
    spec = BASELINES[kind]
    return getattr(spec.module, spec.train)(*inputs, cfg)


def validate_run(
    baselines: Sequence[str],
    modes: Sequence[PromptMode],
    configs: Mapping[str, object],
) -> None:
    """Refuse, with ``ConfigError``, an unknown baseline kind in
    ``baselines`` or ``configs``, a config that is not an instance of its
    kind's config class, and a kind or mode named twice."""
    for kind in (*baselines, *configs):
        if kind not in BASELINES:
            raise ConfigError(
                f"unknown baseline kind {kind!r}, expected one of {', '.join(BASELINE_KINDS)}"
            )
    for kind, cfg in configs.items():
        expected = BASELINES[kind].config
        if not isinstance(cfg, expected):
            raise ConfigError(
                f"config for {kind!r} must be a {expected.__name__}, "
                f"got {type(cfg).__name__}"
            )
    named = {"baseline kind": list(baselines), "prompt mode": [m.value for m in modes]}
    for what, names in named.items():
        if len(set(names)) != len(names):
            raise ConfigError(f"each {what} may be named once, got {', '.join(names)}")


# A pool worker's tasks, set by ``_adopt_tasks`` in the worker itself; the
# parent process never sets it.
_WORKER_TASKS: list[Callable[[], object]] = []


def _adopt_tasks(tasks: list[Callable[[], object]]) -> None:
    global _WORKER_TASKS
    _WORKER_TASKS = tasks


def _timed(task: Callable[[], object]) -> tuple:
    """``task()`` with the wall, CPU and system CPU seconds it took,
    measured in the process that ran it."""
    wall, cpu, system = time.perf_counter(), time.process_time(), os.times().system
    result = task()
    return (
        result,
        time.perf_counter() - wall,
        time.process_time() - cpu,
        os.times().system - system,
    )


def _timed_task(index: int) -> tuple:
    return _timed(_WORKER_TASKS[index])


def _run_tasks(tasks: Mapping[str, Callable[[], object]]) -> tuple[dict, dict]:
    """Run the named zero-argument ``tasks``, in order, on a ``fork`` pool of
    one worker per usable core (no more than there are tasks), or inline
    when that is one worker or the platform cannot fork. Returns the
    results by name, and timings: ``workers``, ``pool_s`` and each task's
    ``wall_s``, ``cpu_s`` and ``sys_s`` (the part of ``cpu_s`` spent in
    the kernel, where page faults land). A task's exception reaches the
    caller, and every worker has been reaped when this returns.

    A worker inherits the tasks, and the data they close over, when it
    forks (the pool's initializer arguments are not pickled under
    ``fork``); it receives only a task index and sends back only the
    result. Forking is safe here because the package has started no
    thread when ``run_experiment`` calls this.
    """
    # imported here, not at the top, so that what never runs a pool (the
    # other subcommands, a live-provider client) starts without it
    import multiprocessing

    fns = list(tasks.values())
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cores, len(fns))
    started = time.perf_counter()
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        workers = 1
        done = [_timed(fn) for fn in fns]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers, initializer=_adopt_tasks, initargs=(fns,)) as pool:
            done = pool.map(_timed_task, range(len(fns)), chunksize=1)
            pool.close()
            pool.join()
    timings = {
        "workers": workers,
        "pool_s": time.perf_counter() - started,
        "tasks": {
            name: {"wall_s": wall, "cpu_s": cpu, "sys_s": system}
            for name, (_, wall, cpu, system) in zip(tasks, done)
        },
    }
    return {name: result for name, (result, *_) in zip(tasks, done)}, timings


def run_experiment(
    windows: Sequence[TrajectoryWindow],
    split: SplitAssignment,
    *,
    baselines: Sequence[str] = BASELINE_KINDS,
    modes: Sequence[PromptMode] = (PromptMode.COT, PromptMode.DO),
    provider_cfg: Optional[ProviderConfig] = None,
    configs: Optional[Mapping[str, object]] = None,
    target_rate_hz: float = DEFAULT_TARGET_RATE_HZ,
    templates: Optional[TemplateSet] = None,
    manifest_extra: Optional[dict] = None,
    out: Optional[Path] = None,
    write_dataset: bool = False,
) -> EvalReport:
    """Fill the full (model, scenario, split) grid.

    The windows are taken in id order, so the order they come in changes
    no model, score or digest. Each baseline trains once per scenario on
    that scenario's Train windows, and that one model is evaluated on both
    SeenTest and UnseenTest; prompt modes are evaluated on UnseenTest
    only. The mock provider runs when no provider config is given.
    ``configs`` maps a baseline kind to its config; a kind it leaves out
    trains with its config class's defaults, and the manifest records the
    config of every kind. ``validate_run`` vets the kinds, modes and
    configs first.

    The grid is planned once: every cell in report order with the reason
    it is skipped before it runs, or None. A cell is skipped when its
    scenario has no windows in its test part, or, for a baseline, no
    Train windows. That plan drives the pre-flight checks, the training
    tasks and the scoring loop. Every cell is scored the same way, into
    its count table; a prompt cell is skipped after it runs, keeping
    its window and failure counts, when more than ``MAX_FAILED_SHARE`` of
    its provider calls fail.

    Before anything is written, a live run whose auth token is unset and
    an unseen-test prompt over the budget raise ConfigError, and a window
    without a label that a cell scores or a baseline trains on raises
    DataError. Then ``out``, when given, is made, and a staging directory
    in it.

    The trainings (one per kind and scenario with a cell that is not
    skipped) and one serialization of the dataset, which gives the
    manifest's ``dataset_sha256`` and is staged as ``dataset.csv`` when
    ``write_dataset`` is set, run as independent tasks on a ``fork`` pool
    with one worker per usable core, or inline on one core (see
    ``_run_tasks``). The pool is done before any prompt cell runs, and
    the report, the manifest, the CSV and every model are the same bytes
    either way; only the report's ``timings`` differ.

    Once the report is built, ``split.json``, ``run_manifest.json``, the
    two reports, ``transcript.jsonl`` (the ``BatchResult.transcript``
    rows of every provider call in grid order: what it asked, by bundle
    digest, and what came back) and ``TIMINGS_FILE`` (the report's
    ``timings``, whose ``calls`` are the ``BatchResult.calls`` rows) are
    staged too. Every file but ``TIMINGS_FILE`` is the same bytes on a
    rerun with the mock provider. Every staged file is moved into
    ``out``, after a check that no directory stands in any file's place.
    Any exception before the first move removes the staging directory
    and every directory the run made: a refused or interrupted run
    leaves an existing ``out`` as it was and makes no new one.
    """
    windows = sorted(windows, key=lambda w: w.id)
    configs = dict(configs or {})
    validate_run(baselines, modes, configs)
    split.validate(windows)
    if provider_cfg is not None and modes:
        provider_cfg.token()
    if templates is None:
        templates = TemplateSet.load_default()
    for kind, spec in BASELINES.items():
        configs.setdefault(kind, spec.config())
    provider = MOCK_PROVIDER_ID if provider_cfg is None else provider_cfg.model

    down = {w.id: downsample(w, target_rate_hz) for w in windows}
    by_part_scenario: dict[tuple[Part, Scenario], list[TrajectoryWindow]] = {}
    for w in windows:
        by_part_scenario.setdefault((split.assignment[w.id], w.scenario), []).append(w)

    # every cell in report order: (scenario, model, part, why it is skipped
    # before it runs or None), where a model is a baseline kind or a prompt mode
    grid = [(kind, part) for kind in baselines for part in _TEST_NAMES]
    grid += [(mode, Part.UNSEEN_TEST) for mode in modes]
    plan: list[tuple[Scenario, str | PromptMode, Part, Optional[str]]] = []
    for scenario in Scenario:
        for model, part in grid:
            reason = None
            if model in BASELINES and (Part.TRAIN, scenario) not in by_part_scenario:
                reason = "no training windows in scenario"
            elif (part, scenario) not in by_part_scenario:
                reason = "no evaluation windows in scenario"
            plan.append((scenario, model, part, reason))
    live = [(scenario, model, part) for scenario, model, part, reason in plan if reason is None]

    # the prompts sent, rendered now: one over the budget is refused before any baseline trains
    bundles = {
        (s, m): [build_prompt(down[w.id], m, templates=templates) for w in by_part_scenario[(p, s)]]
        for s, m, p in live
        if m not in BASELINES
    }
    for scenario, model, part in live:
        for p in (part, Part.TRAIN) if model in BASELINES else (part,):
            for w in by_part_scenario[(p, scenario)]:
                if w.label is None:
                    raise DataError(f"{p.value} window {w.id!r} is unlabeled")

    # RF and SVM share one feature matrix per (scenario, part), CNN and
    # LSTM one list of downsampled windows
    inputs: dict[tuple[Scenario, Part, str], tuple] = {}

    def inputs_for(kind: str, scenario: Scenario, part: Part) -> tuple:
        key = (scenario, part, BASELINES[kind].input)
        if key not in inputs:
            inputs[key] = baseline_inputs(
                kind, by_part_scenario[(part, scenario)], lambda w: down[w.id]
            )
        return inputs[key]

    tasks: dict[str, Callable[[], object]] = {}
    for scenario, kind, _ in live:
        name = f"{kind}/{scenario.value}"
        if kind in BASELINES and name not in tasks:
            train_inputs = inputs_for(kind, scenario, Part.TRAIN)
            tasks[name] = partial(train_baseline, kind, train_inputs, configs[kind])
    made, staging = [], None  # made: the directories the run makes, deepest first
    try:
        if out is not None:
            # abspath folds "..", through which one could name a path that exists
            out = Path(os.path.abspath(out))
            made = [p for p in (out, *out.parents) if not p.exists()]
            out.mkdir(parents=True, exist_ok=True)
            staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
        csv = staging / "dataset.csv" if write_dataset and staging else None
        tasks["dataset"] = partial(dataset_hash, windows, csv)
        results, timings = _run_tasks(
            dict(sorted(tasks.items(), key=lambda t: _TASK_ORDER.index(t[0].split("/")[0])))
        )

        cells: dict[tuple[str, Scenario, Part], CellResult] = {}
        transcript: list[dict] = []
        calls: list[dict] = []
        for scenario, model, part, reason in plan:
            model_id = model if model in BASELINES else f"{provider}-{model.value}"
            if reason is not None:
                cells[(model_id, scenario, part)] = CellResult(None, reason)
                continue
            eval_full = by_part_scenario[(part, scenario)]
            if model in BASELINES:
                spec = BASELINES[model]
                labels, _ = getattr(spec.module, spec.predict_batch)(
                    results[f"{model}/{scenario.value}"], inputs_for(model, scenario, part)[0]
                )
                preds, n_failed = [Prediction(w.id, lb) for w, lb in zip(eval_full, labels)], 0
            else:
                batch = classify_windows(bundles[(scenario, model)], model, cfg=provider_cfg)
                preds, n_failed = batch.predictions, len(batch.failures)
                transcript += batch.transcript
                calls += batch.calls
            n_total = len(eval_full)
            if n_failed > MAX_FAILED_SHARE * n_total:
                reason = f"{n_failed}/{n_total} provider calls failed"
            cells[(model_id, scenario, part)] = CellResult(
                None if reason else confusion(preds, eval_full), reason, n_total, n_failed
            )

        manifest = {
            "dataset_sha256": results["dataset"],
            "split_sha256": canonical_digest(split.to_json_dict()),
            "template_sha256": templates.digest(),
            "provider": provider,
            "provider_config_sha256": (
                MOCK_PROVIDER_ID
                if provider_cfg is None
                else canonical_digest(dict(provider_cfg.__dict__))
            ),
            "modes": [m.value for m in modes],
            "baselines": list(baselines),
            "baseline_configs": {k: asdict(configs[k]) for k in BASELINE_KINDS},
            "target_rate_hz": target_rate_hz,
            "reference_targets": dict(REFERENCE_TARGETS),
        }
        if manifest_extra:
            manifest.update(manifest_extra)
        timings["calls"] = calls
        report = EvalReport(cells, canonical_digest(manifest), manifest, timings)
        if staging is not None:
            # like the manifest, the split record names a seed only if it has one
            seed = {"seed": manifest["split_seed"]} if "split_seed" in manifest else {}
            staged = {
                "split.json": json_line({"assignment": split.to_json_dict(), **seed}),
                "run_manifest.json": json_line(manifest),
                "report.txt": render_report(report, "text"),
                "report.jsonl": render_report(report, "jsonl"),
                "transcript.jsonl": "".join(json.dumps(row) + "\n" for row in transcript),
                TIMINGS_FILE: json_line(timings, sort_keys=False),
            }
            for name, text in staged.items():
                (staging / name).write_text(text, encoding="utf-8")
            names = os.listdir(staging)
            # a directory in a file's place would fail its move; find it
            # before the first move, so a refused run moves nothing
            for target in (out / name for name in names):
                if target.is_dir():
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
            for name in names:
                os.replace(staging / name, out / name)
            staging.rmdir()
    except BaseException:
        # the staged files, then the directories; rmdir leaves one not empty
        for p in [*staging.iterdir(), staging, *made] if staging else made:
            with suppress(OSError):
                (p.rmdir if p.is_dir() else p.unlink)()
        raise
    return report


# --------------------------------------------------------------------------
# rendering


def _percent(value: float) -> str:
    # one decimal, halves away from zero, matching hand-rounded tables
    q = Decimal(value * 100).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
    return f"{q}%"


REFERENCE_FOOTER = "Reference targets: GPT4-CoT unseen F1 " + ", ".join(
    f"{_percent(f1)} ({scenario})" for scenario, f1 in REFERENCE_TARGETS.items()
) + "."


# baselines first, in their table's order, then prompt models by id
_MODEL_RANK = {kind: i for i, kind in enumerate(BASELINE_KINDS)}


def _cell_sort_key(key: tuple[str, Scenario, Part]):
    model_id, scenario, part = key
    rank = _MODEL_RANK.get(model_id, len(_MODEL_RANK))
    return (rank, model_id, list(Scenario).index(scenario), list(_TEST_NAMES).index(part))


def _sorted_cells(r: EvalReport):
    return sorted(r.cells.items(), key=lambda item: _cell_sort_key(item[0]))


def render_report(r: EvalReport, format: str = "text") -> str:
    if format == "text":
        return _render_text(r)
    if format == "jsonl":
        return _render_jsonl(r)
    raise ConfigError(f"unknown report format {format!r}, expected 'text' or 'jsonl'")


def _render_text(r: EvalReport) -> str:
    headers = ("Models", "Scenarios", "Test subject", "Precision", "Recall", "F1-Score", "Unparsed")
    rows = []
    for (model_id, scenario, part), cell in _sorted_cells(r):
        name = _display_name(model_id)
        scen = scenario.value.capitalize()
        test = _TEST_NAMES[part]
        if cell.skipped:
            rows.append((name, scen, test, f"skipped ({cell.skipped_reason})", "", "", ""))
        else:
            unparsed = str(int(cell.counts[:, N_CLASSES].sum()))
            rows.append((name, scen, test, *map(_percent, astuple(cell.metrics)), unparsed))
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip())
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))).rstrip())
    lines.append("")
    lines.append(REFERENCE_FOOTER)
    lines.append(f"Manifest sha256: {r.manifest_sha256}")
    return "\n".join(lines) + "\n"


def _cell_line(key: tuple[str, Scenario, Part], cell: CellResult) -> dict:
    """The JSONL line of one cell: its key, window and failure counts, and
    either its skip reason or its counts with the metrics they give."""
    model_id, scenario, part = key
    obj: dict = {
        "model": model_id,
        "scenario": scenario.value,
        "split": part.value,
        "n_windows": cell.n_windows,
        "n_failures": cell.n_failures,
    }
    if cell.skipped:
        obj["skipped"] = cell.skipped_reason
    else:
        obj.update(asdict(cell.metrics))
        obj["confusion"] = cell.counts[:, :N_CLASSES].tolist()
        obj["unparsed"] = cell.counts[:, N_CLASSES].tolist()
    return obj


def _render_jsonl(r: EvalReport) -> str:
    lines = [json.dumps({"manifest_sha256": r.manifest_sha256}, sort_keys=True)]
    for key, cell in _sorted_cells(r):
        lines.append(json.dumps(_cell_line(key, cell), sort_keys=True))
    return "\n".join(lines) + "\n"


def parse_report_jsonl(text: str) -> EvalReport:
    """Rebuild an EvalReport from its JSONL rendering.

    A scored cell is rebuilt from its ``confusion`` and ``unparsed``,
    stacked into its table, and ``n_failures`` (``n_windows`` is their
    total), a skipped cell from its ``skipped``, ``n_windows`` and
    ``n_failures``. ``DataError`` refuses a line that is not exactly
    ``_cell_line`` of its rebuilt cell, unknown and missing keys included,
    naming the first field that differs, and a second line for the same
    cell, and a header line that is not
    ``{"manifest_sha256": <64 lowercase hex digits>}``. The report keeps
    only the manifest's digest (``manifest`` is None); rendering it again
    gives the input bytes.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise DataError("empty JSONL report")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed JSONL report header: {exc}")
    digest = header.get("manifest_sha256") if isinstance(header, dict) else None
    # a string digest means the header is a dict; it may hold nothing else
    if not (isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest) and len(header) == 1):
        raise DataError(
            'JSONL report header must be {"manifest_sha256": <64 lowercase hex digits>}, '
            f"got {lines[0]}"
        )
    cells: dict[tuple[str, Scenario, Part], CellResult] = {}
    for line in lines[1:]:
        try:
            obj = json.loads(line)
            # values of the wrong type are coerced here and then refused
            # below, as fields that differ from the rebuilt line
            key = (str(obj["model"]), Scenario(obj["scenario"]), Part(obj["split"]))
            if key[2] not in _TEST_NAMES:
                raise ValueError(f"split {key[2].value!r} is not a test split")
            n_failures = int(obj["n_failures"])
            if "skipped" in obj:
                cell = CellResult(None, str(obj["skipped"]), int(obj["n_windows"]), n_failures)
            else:
                counts = np.column_stack(
                    [np.asarray(obj[k], dtype=np.int64) for k in ("confusion", "unparsed")]
                )
                cell = CellResult(counts, None, int(counts.sum()) + n_failures, n_failures)
            want = _cell_line(key, cell)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed JSONL report line: {exc}")
        name = f"JSONL report cell {key[0]!r}/{key[1].value}/{key[2].value}"
        for k in sorted(obj.keys() | want.keys()):
            got, given = (json.dumps(d[k]) if k in d else "no such field" for d in (obj, want))
            if got != given:
                raise DataError(
                    f"{name} field {k!r}: the line has {got}, but its counts give {given}"
                )
        if key in cells:
            raise DataError(f"{name} appears on more than one line")
        cells[key] = cell
    return EvalReport(cells, digest)
