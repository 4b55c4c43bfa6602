"""Tests of the benchmark's own arithmetic, tracer and stub server.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import threading
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

import tracing
from stub_server import STUB_FAIL_SHARE, StubState, failing_keys, make_handler, prompt_key

BENCH = Path(__file__).resolve().parent


def span(id, parent, start, end, name="x"):
    return tracing.Span(id=id, parent=parent, name=name, thread=0, start=start, end=end)


# --------------------------------------------------------------------------
# span self-time arithmetic


def test_union_length_merges_overlaps_and_gaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (2, 3)]) == 2.0
    assert tracing.union_length([(0, 2), (1, 3)]) == 3.0
    assert tracing.union_length([(0, 4), (1, 2), (3, 5)]) == 5.0
    assert tracing.union_length([(1, 2), (1, 2)]) == 1.0


def test_self_time_subtracts_nested_children():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 0, 5.0, 6.0),
        span(3, 1, 2.0, 3.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    # one thread: the self times add up to the root's wall time
    assert sum(selfs.values()) == 10.0
    acc = tracing.accounting(spans)
    assert acc["self_sum_s"] == acc["covered_s"] == 10.0
    assert acc["overlap_s"] == 0.0


def test_self_time_counts_overlapping_children_once():
    # two worker threads busy at once under one parent
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 6.0), span(2, 0, 2.0, 7.0)]
    selfs = tracing.self_times(spans)
    assert selfs[0] == 4.0  # 10 - |[1, 7]|
    acc = tracing.accounting(spans)
    assert acc["covered_s"] == 10.0
    assert acc["overlap_s"] == 4.0  # [2, 6] is counted by both children


def test_self_time_clips_children_to_the_parent():
    spans = [span(0, None, 0.0, 5.0), span(1, 0, 4.0, 8.0)]
    assert tracing.self_times(spans)[0] == 4.0


# --------------------------------------------------------------------------
# the percentile rule


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 500), (99, 500), (100, 900), (192, 900),
     (199, 900), (200, 950), (999, 950), (1000, 990), (10000, 999)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tracing.tail_permille(n) == expected
    if expected is not None:
        values = list(range(n))
        beyond = sum(1 for v in values if v > tracing.percentile(values, expected))
        assert beyond >= tracing.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert tracing.percentile(values, 500) == 3.0
    assert tracing.percentile(values, 900) == 5.0
    assert tracing.percentile(list(range(1, 101)), 900) == 90


# --------------------------------------------------------------------------
# the tracer


def test_worker_thread_spans_take_the_pool_owner_as_parent():
    rec = tracing.Recorder()
    with rec.span("outer") as outer:
        with ThreadPoolExecutor(max_workers=2) as pool:
            def work(_):
                with rec.span("inner") as sp:
                    return sp.parent
            parents = list(pool.map(work, range(6)))
    assert parents == [outer.id] * 6
    assert all(sp.end >= sp.start for sp in rec.spans)
    assert len({sp.id for sp in rec.spans}) == 7


def test_span_records_the_error_and_reraises():
    rec = tracing.Recorder()
    with pytest.raises(ValueError):
        with rec.span("boom"):
            raise ValueError("x")
    assert rec.spans[0].error == "ValueError"


def test_layer_metrics_cover_every_listed_metric():
    specs = json.loads((BENCH / "layers.json").read_text())["per_layer"]
    rec = tracing.Recorder()
    with rec.span("cli.main"):
        for data in ("a", "a", "b", "b"):
            with rec.span("forest.train_rf") as sp:
                pass
            sp.attrs["data"] = data
    out = tracing.layer_metrics(rec.spans, specs, wall_s=1.0, untraced_median_s=0.5)
    assert list(out) == [s["name"] for s in specs]
    assert out["baselines.trains_per_model"]["value"] == 2.0
    assert out["trace.overhead_s"]["value"] == 0.5


def test_benchmark_json_mirrors_the_layer_list():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    specs = json.loads((BENCH / "layers.json").read_text())["per_layer"]
    assert bench["per_layer"] == [
        {key: s[key] for key in ("name", "unit", "better")} for s in specs
    ]
    workloads = {w["name"] for w in bench["workloads"]}
    for s in specs:
        for metric, names in s["moves"].items():
            assert metric in {m["name"] for m in bench["end_to_end"]}
            assert set(names) <= workloads


# --------------------------------------------------------------------------
# the stub's fault schedule


def test_fault_schedule_is_prompt_keyed_with_a_fixed_count():
    for n in (192, 200):
        for seed in range(3):
            keys = [prompt_key("system", f"seed {seed} question {i}") for i in range(n)]
            failing = failing_keys(keys, 0.125)
            assert len(failing) == round(0.125 * n)
            assert failing == failing_keys(reversed(keys), 0.125)
            assert max(failing) < min(set(keys) - failing)
    # the workload's 192 prompts: six first attempts are rejected
    assert len(failing_keys(keys[:192], STUB_FAIL_SHARE)) == 6
    assert failing_keys(keys, 0.0) == frozenset()
    assert failing_keys(keys, 1.0) == frozenset(keys)


def test_stub_fails_only_first_attempts_and_repeats_after_reset():
    keys = [prompt_key("s", f"q{i}") for i in range(200)]
    state = StubState({k: "straight" for k in keys}, delay_s=0.0, fail_share=0.125)
    schedule = [k for k in keys if k in failing_keys(keys, 0.125)]
    assert len(schedule) == 25
    for _ in range(2):  # two ops
        first = [state.status_for(k) for k in keys]
        second = [state.status_for(k) for k in keys]
        assert [k for k, s in zip(keys, first) if s == 503] == schedule
        assert set(second) == {200}
        stats = state.stats(reset=True)
        assert stats == {"requests": 400, "rejected": len(schedule)}
    assert state.status_for(prompt_key("s", "unknown")) == 400


def test_stub_server_answers_without_retry_after():
    key = prompt_key("sys", "user")
    state = StubState({key: "turn left"}, delay_s=0.0, fail_share=1.0)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    url = f"http://127.0.0.1:{server.server_address[1]}"
    body = json.dumps({"messages": [{"role": "system", "content": "sys"},
                                    {"role": "user", "content": "user"}]}).encode()
    try:
        with pytest.raises(urllib.error.HTTPError) as err:
            opener.open(urllib.request.Request(url + "/v1/chat/completions", data=body), timeout=5)
        assert err.value.code == 503
        assert err.value.headers.get("Retry-After") is None
        err.value.close()
        with opener.open(urllib.request.Request(url + "/v1/chat/completions", data=body),
                         timeout=5) as resp:
            assert json.loads(resp.read())["choices"][0]["message"]["content"] == "turn left"
            assert resp.headers.get("Retry-After") is None
        with opener.open(url + "/stats", timeout=5) as resp:
            assert json.loads(resp.read()) == {"requests": 2, "rejected": 1}
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
