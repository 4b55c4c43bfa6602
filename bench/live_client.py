"""The live-stub workload's child processes: preparing its inputs and running one op.

    python3 bench/live_client.py prepare SEED DIR
    python3 bench/live_client.py op DIR BASE_URL RESULT_JSON [SPANS_JSON]

``prepare`` generates the workload's windows from SEED, downsamples them and
pickles them to ``DIR/windows.pkl``. It builds every cot and do prompt, asks
the mock provider for its answer, and writes ``DIR/answers.json`` (prompt key
-> answer text) for the stub server and ``DIR/expected.json`` (mode -> window
id -> label) for the output check.

``op`` loads ``DIR/windows.pkl`` and sends every window through
``classify_windows`` against the stub at BASE_URL, cot then do, with the
package's default client settings except a concurrency of 2. It writes
RESULT_JSON: the wall and CPU time of the two calls, each prediction's label
and every failure. With SPANS_JSON it runs traced and writes the spans there.
Each op is a process of its own, so the peak memory its parent reads with
wait4 is the op's, not the benchmark's.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import sys
import time
from pathlib import Path

import tracing
from stub_server import COMPLETIONS_PATH, prompt_key

LIVE_PER_CLASS = 12
LIVE_CONCURRENCY = 2
STUB_TOKEN_ENV = "IMUTRACE_BENCH_TOKEN"


def prepare(seed: int, work: Path) -> None:
    from imutrace.core import downsample
    from imutrace.evalreport import DEFAULT_TARGET_RATE_HZ
    from imutrace.llm import mock_complete, parse_label
    from imutrace.prompting import PromptMode, TemplateSet, build_prompt
    from imutrace.synth import GeneratorConfig, generate_dataset, uniform_counts

    windows, _ = generate_dataset(GeneratorConfig(seed=seed), uniform_counts(LIVE_PER_CLASS))
    windows = [downsample(w, DEFAULT_TARGET_RATE_HZ) for w in windows]
    with open(work / "windows.pkl", "wb") as fh:
        pickle.dump(windows, fh)

    templates = TemplateSet.load_default()
    answers: dict[str, str] = {}
    expected: dict[str, dict[str, str]] = {}
    for mode in (PromptMode.COT, PromptMode.DO):
        labels = expected[mode.value] = {}
        for w in windows:
            bundle = build_prompt(w, mode, templates=templates)
            text = mock_complete(bundle).text
            answers[prompt_key(bundle.instruction, bundle.question)] = text
            labels[w.id] = parse_label(text, mode).value
    (work / "answers.json").write_text(json.dumps(answers), encoding="utf-8")
    (work / "expected.json").write_text(json.dumps(expected), encoding="utf-8")


def op(work: Path, base_url: str, result_path: str, spans_path: str | None) -> None:
    from imutrace import llm
    from imutrace.llm import ProviderConfig
    from imutrace.prompting import PromptMode, TemplateSet

    with open(work / "windows.pkl", "rb") as fh:
        windows = pickle.load(fh)  # written by this benchmark's own prepare step
    os.environ[STUB_TOKEN_ENV] = "stub-token"
    for var in ("no_proxy", "NO_PROXY"):  # requests must not send stub calls to a proxy
        hosts = [h for h in os.environ.get(var, "").split(",") if h]
        if "127.0.0.1" not in hosts:
            os.environ[var] = ",".join(hosts + ["127.0.0.1"])
    cfg = ProviderConfig(endpoint=base_url + COMPLETIONS_PATH, model="stub",
                         token_env=STUB_TOKEN_ENV, concurrency=LIVE_CONCURRENCY)
    templates = TemplateSet.load_default()
    modes = (PromptMode.COT, PromptMode.DO)

    recorder = tracing.Recorder() if spans_path else None
    patched = tracing.install(recorder) if spans_path else []
    try:
        before = resource.getrusage(resource.RUSAGE_SELF)
        started = time.perf_counter()
        batches = [llm.classify_windows(windows, mode, cfg=cfg, templates=templates)
                   for mode in modes]
        wall = time.perf_counter() - started
        after = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        tracing.uninstall(patched)
    if spans_path:
        tracing.dump_spans(recorder.spans, spans_path)

    result = {
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "predictions": {
            mode.value: {p.window_id: None if p.label is None else p.label.value
                         for p in batch.predictions}
            for mode, batch in zip(modes, batches)
        },
        "failures": {mode.value: [list(f) for f in batch.failures]
                     for mode, batch in zip(modes, batches)},
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "prepare":
        prepare(int(argv[1]), Path(argv[2]))
    elif len(argv) in (4, 5) and argv[0] == "op":
        op(Path(argv[1]), argv[2], argv[3], argv[4] if len(argv) == 5 else None)
    else:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
