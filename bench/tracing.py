"""Spans around imutrace's public functions, and the per-layer metrics built from them.

The traced run never edits the package. It replaces each public function
named in ``TARGETS`` with a wrapper, at every ``imutrace`` module attribute
that holds it (``imutrace.core.serialize_csv`` and ``imutrace.cli.serialize_csv``
alike), so each caller's own lookup finds the wrapper. A wrapper records one
span: name, start, end, parent and a few facts read from the arguments or
the result, such as the SVM sweeps in a model manifest. Spans stay in memory
until the op ends.

Run as a script, this module is the traced child process of a CLI workload::

    python3 bench/tracing.py SPANS_JSON -- run --per-class 12 --out DIR

It installs the wrappers, calls ``imutrace.cli.main(argv)`` in process,
writes the spans to SPANS_JSON and exits with main's exit code.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

# Percentiles offered for a tail figure, in per mille so the rank is exact.
TAIL_LADDER_PERMILLE = (500, 900, 950, 990, 999)
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    thread: int
    start: float
    end: float = 0.0
    error: Optional[str] = None
    attrs: dict = field(default_factory=dict)


class Recorder:
    """Collects spans from any number of threads.

    Each thread keeps its own stack of open spans. A span opened on a thread
    whose stack is empty (a worker of ``classify_windows``' thread pool) takes
    as parent the innermost span open on the first thread that recorded one,
    which is the thread that started the pool.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._origin_stack: Optional[list[int]] = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                if self._origin_stack is None:
                    self._origin_stack = stack
        return stack

    def _parent(self, stack: list[int]) -> Optional[int]:
        if stack:
            return stack[-1]
        if self._origin_stack is not None and self._origin_stack is not stack:
            try:
                return self._origin_stack[-1]
            except IndexError:
                return None
        return None

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = self._parent(stack)
        with self._lock:
            sp = Span(len(self.spans), parent, name, threading.get_ident(), time.perf_counter())
            self.spans.append(sp)
        stack.append(sp.id)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            stack.pop()


# --------------------------------------------------------------------------
# what each wrapper records besides its span


def _train_facts(args, kwargs, result) -> dict:
    manifest = result.manifest
    facts = {"data": manifest["data_sha256"]}
    if "classes" in manifest:
        machines = manifest["classes"]
        facts["sweeps"] = sum(m["sweeps"] for m in machines)
        facts["machines"] = len(machines)
        facts["converged"] = sum(1 for m in machines if m["converged"])
    if hasattr(result, "history"):
        facts["epochs"] = len(result.history)
    return facts


# (span name, module, attribute, inspect(args, kwargs, result))
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("synth.generate_dataset", "imutrace.synth", "generate_dataset",
     lambda a, k, r: {"windows": len(r[0])}),
    ("core.serialize_csv", "imutrace.core", "serialize_csv",
     lambda a, k, r: {"chars": len(r)}),
    ("core.downsample", "imutrace.core", "downsample", None),
    ("core.split_dataset", "imutrace.core", "split_dataset", None),
    ("features.feature_matrix", "imutrace.baselines.features", "feature_matrix",
     lambda a, k, r: {"ids": [w.id for w in a[0]]}),
    ("forest.train_rf", "imutrace.baselines.forest", "train_rf", _train_facts),
    ("forest.predict_rf_batch", "imutrace.baselines.forest", "predict_rf_batch", None),
    ("svm.train_svm", "imutrace.baselines.svm", "train_svm", _train_facts),
    ("svm.predict_svm_batch", "imutrace.baselines.svm", "predict_svm_batch", None),
    ("nn.train_cnn", "imutrace.baselines.nn", "train_cnn", _train_facts),
    ("nn.train_lstm", "imutrace.baselines.nn", "train_lstm", _train_facts),
    ("nn.predict_nn_batch", "imutrace.baselines.nn", "predict_nn_batch", None),
    ("prompting.build_prompt", "imutrace.prompting", "build_prompt",
     lambda a, k, r: {"chars": len(r.text)}),
    ("llm.classify_windows", "imutrace.llm", "classify_windows", None),
    ("llm.mock_complete", "imutrace.llm", "mock_complete", None),
    ("llm.complete", "imutrace.llm", "complete", None),
    ("llm.parse_label", "imutrace.llm", "parse_label", None),
    ("evalreport.run_experiment", "imutrace.evalreport", "run_experiment", None),
    ("evalreport.render_report", "imutrace.evalreport", "render_report", None),
    ("cli.main", "imutrace.cli", "main", None),
)

TRAIN_SPANS = ("forest.train_rf", "svm.train_svm", "nn.train_cnn", "nn.train_lstm")


def _wrap(recorder: Recorder, name: str, fn, inspect):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as sp:
            result = fn(*args, **kwargs)
        if inspect is not None:
            sp.attrs.update(inspect(args, kwargs, result))
        return result

    return wrapper


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Put a wrapper over every target; returns what ``uninstall`` restores."""
    import importlib

    importlib.import_module("imutrace.cli")  # loads every module the CLI uses
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "imutrace"]
    patched = []
    for name, module_name, attr, inspect in TARGETS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = _wrap(recorder, name, original, inspect)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    patched.append((module, key, original))
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for module, key, original in reversed(patched):
        setattr(module, key, original)


# --------------------------------------------------------------------------
# arithmetic over spans


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children on several threads may overlap one another; the part they
    cover is the union of their intervals, clipped to the parent's.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        clipped = [
            (max(c.start, sp.start), min(c.end, sp.end))
            for c in children.get(sp.id, ())
            if c.end > sp.start and c.start < sp.end
        ]
        out[sp.id] = (sp.end - sp.start) - union_length(clipped)
    return out


def tail_permille(n: int) -> Optional[int]:
    """Highest percentile on the ladder with at least MIN_BEYOND of n samples beyond it."""
    best = None
    for pm in TAIL_LADDER_PERMILLE:
        rank = -(-pm * n // 1000)  # nearest rank, 1-based: ceil(pm * n / 1000)
        if n - rank >= MIN_BEYOND:
            best = pm
    return best


def percentile(values, permille: int) -> float:
    """Nearest-rank percentile of ``values``, given in per mille."""
    ordered = sorted(values)
    rank = max(1, -(-permille * len(ordered) // 1000))
    return ordered[rank - 1]


def layer_metrics(spans: list[Span], specs: list[dict], wall_s: float,
                  untraced_median_s: float, stub: Optional[dict] = None) -> dict:
    """Per-layer metrics of one traced op, in the order and units of ``specs``.

    ``wall_s`` is the traced op's wall time as its caller measured it;
    ``stub`` holds the stub server's request counts for the op, if any.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)

    def total(name):
        return sum(sp.end - sp.start for sp in by_name[name])

    def own(name):
        return sum(selfs[sp.id] for sp in by_name[name])

    def calls(name):
        return len(by_name[name])

    def attr_sum(name, key):
        return sum(sp.attrs.get(key, 0) for sp in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    trains = [sp for name in TRAIN_SPANS for sp in by_name[name]]
    featured = [i for sp in by_name["features.feature_matrix"] for i in sp.attrs.get("ids", ())]
    complete_ms = [(sp.end - sp.start) * 1000.0 for sp in by_name["llm.complete"]]
    tail = tail_permille(len(complete_ms))
    parses = by_name["llm.parse_label"]
    nets = by_name["nn.train_cnn"] + by_name["nn.train_lstm"]
    machines = attr_sum("svm.train_svm", "machines")
    covered = union_length([(sp.start, sp.end) for sp in spans])

    values = {
        "synth.generate_dataset.s": total("synth.generate_dataset"),
        "synth.windows": attr_sum("synth.generate_dataset", "windows"),
        "core.serialize_csv.s": total("core.serialize_csv"),
        "core.serialize_csv.calls": calls("core.serialize_csv"),
        "core.serialize_csv.mb": attr_sum("core.serialize_csv", "chars") / 1e6,
        "core.downsample.s": total("core.downsample"),
        "core.downsample.calls": calls("core.downsample"),
        "core.split_dataset.s": total("core.split_dataset"),
        "features.feature_matrix.s": total("features.feature_matrix"),
        "features.rows_per_window": ratio(len(featured), len(set(featured))),
        "forest.train_rf.s": total("forest.train_rf"),
        "forest.predict_rf_batch.s": total("forest.predict_rf_batch"),
        "svm.train_svm.s": total("svm.train_svm"),
        "svm.predict_svm_batch.s": total("svm.predict_svm_batch"),
        "svm.sweeps": attr_sum("svm.train_svm", "sweeps"),
        "svm.converged_ratio": ratio(attr_sum("svm.train_svm", "converged"), machines),
        "nn.train_cnn.s": total("nn.train_cnn"),
        "nn.train_lstm.s": total("nn.train_lstm"),
        "nn.epochs": sum(sp.attrs.get("epochs", 0) for sp in nets),
        "nn.predict_nn_batch.s": total("nn.predict_nn_batch"),
        "baselines.trains_per_model": ratio(
            len(trains), len({(sp.name, sp.attrs.get("data")) for sp in trains})
        ),
        "prompting.build_prompt.s": total("prompting.build_prompt"),
        "prompting.build_prompt.calls": calls("prompting.build_prompt"),
        "prompting.prompt_kchars": attr_sum("prompting.build_prompt", "chars") / 1e3,
        "llm.classify_windows.self_s": own("llm.classify_windows"),
        "llm.mock_complete.s": total("llm.mock_complete"),
        "llm.complete.s": total("llm.complete"),
        "llm.complete.p50_ms": percentile(complete_ms, 500) if complete_ms else 0.0,
        "llm.complete.tail_ms": percentile(complete_ms, tail) if tail else 0.0,
        "llm.complete.tail_pct": tail / 10.0 if tail else 0.0,
        "llm.complete.calls": calls("llm.complete"),
        "llm.attempts_per_call": ratio(stub["requests"], calls("llm.complete")) if stub else 0.0,
        "llm.inflight_mean": ratio(total("llm.complete"), total("llm.classify_windows")),
        "llm.parse_label.s": total("llm.parse_label"),
        "llm.parsed_ratio": ratio(sum(1 for sp in parses if sp.error is None), len(parses)),
        "evalreport.run_experiment.self_s": own("evalreport.run_experiment"),
        "evalreport.render_report.s": total("evalreport.render_report"),
        "cli.main.self_s": own("cli.main"),
        "trace.op_s": wall_s,
        "trace.overhead_s": wall_s - untraced_median_s,
        "trace.unaccounted_s": wall_s - covered,
    }
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise KeyError(f"no value computed for per-layer metrics {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def accounting(spans: list[Span]) -> dict:
    """How the layers' self times add up against the time the spans cover.

    On one thread the self times sum to the covered time exactly; threads
    that overlap make the sum exceed it by the overlap.
    """
    selfs = self_times(spans)
    covered = union_length([(sp.start, sp.end) for sp in spans])
    self_sum = sum(selfs.values())
    return {"self_sum_s": self_sum, "covered_s": covered, "overlap_s": self_sum - covered}


def dump_spans(spans: list[Span], path: str, extra: Optional[dict] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": [asdict(sp) for sp in spans], **(extra or {})}, fh)


def load_spans(path: str) -> list[Span]:
    with open(path, "r", encoding="utf-8") as fh:
        return [Span(**sp) for sp in json.load(fh)["spans"]]


def _traced_cli(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    import imutrace.cli

    recorder = Recorder()
    patched = install(recorder)
    try:
        rc = imutrace.cli.main(cli_argv)
    finally:
        uninstall(patched)
        dump_spans(recorder.spans, spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1:]))
