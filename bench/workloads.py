"""The benchmark's workloads: how each sets up, runs one op and checks its outputs.

Every op runs in a child process of its own, so the CPU time and peak memory
that wait4 reports for it are the op's. ``grid-mock`` runs the ``imutrace``
CLI there, with the workload's work directory as the current directory and
relative paths, so the paths the run records are the same on every run. ``live-stub`` runs ``bench/live_client.py`` there, which
calls ``classify_windows`` against a stub server that the benchmark starts in
a process of its own.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import tracing

BENCH = Path(__file__).resolve().parent
OP_TIMEOUT_S = 150.0

# grid-mock: the ROADMAP headline run
GRID_PER_CLASS = 12


@dataclass
class OpSample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: Optional[str] = None
    spans: Optional[list] = None
    stub: Optional[dict] = None


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_child(argv: list[str], env: dict, cwd: Path, log_path: Path) -> tuple[OpSample, int]:
    """Run one child process to its end; its CPU time and peak RSS come from wait4."""
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = OpSample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    return sample, proc.returncode


def _log_tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, work: Path) -> None:
        self.root = root
        self.seed = seed
        self.work = work
        self.digests: dict[str, str] = {}
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src if not old else f"{src}{os.pathsep}{old}")

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int, traced: bool) -> OpSample:
        raise NotImplementedError

    def close(self) -> None:
        pass


class GridMock(Workload):
    """``imutrace run --per-class 12`` with the mock provider: the whole grid.

    One op is one CLI invocation in a fresh process.
    """

    name = "grid-mock"

    def __init__(self, root: Path, seed: int, work: Path) -> None:
        super().__init__(root, seed, work)
        self.reference: Optional[tuple[bytes, bytes]] = None

    def setup(self) -> None:
        # The op makes its own data, so set-up is only the interpreter
        # starting and importing the CLI from source.
        _, rc = run_child(
            [sys.executable, "-m", "imutrace.cli", "--version"],
            self.env, self.work, self.work / "setup.log",
        )
        if rc != 0:
            raise RuntimeError(f"imutrace --version exited {rc}: {_log_tail(self.work / 'setup.log')}")

    def op(self, index: int, traced: bool) -> OpSample:
        out = self.work / f"op{index}"
        log = self.work / f"op{index}.log"
        args = ["run", "--per-class", str(GRID_PER_CLASS), "--gen-seed", str(self.seed),
                "--out", out.name]
        if traced:
            spans_path = self.work / f"spans{index}.json"
            argv = [sys.executable, str(BENCH / "tracing.py"), str(spans_path), "--", *args]
        else:
            argv = [sys.executable, "-m", "imutrace.cli", *args]
        try:
            sample, rc = run_child(argv, self.env, self.work, log)
            if rc != 0:
                sample.error = f"exit code {rc}: {_log_tail(log)}"
            else:
                sample.error = self.check(out)
            if traced:
                sample.spans = tracing.load_spans(str(spans_path))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return sample

    def check(self, out: Path) -> Optional[str]:
        from imutrace.evalreport import parse_report_jsonl, render_report

        report = (out / "report.jsonl").read_bytes()
        manifest = (out / "run_manifest.json").read_bytes()
        if self.reference is None:
            self.reference = (report, manifest)
            self.digests = {
                "report.jsonl": hashlib.sha256(report).hexdigest(),
                "run_manifest.json": hashlib.sha256(manifest).hexdigest(),
                "dataset.csv": sha256_file(out / "dataset.csv"),
            }
        elif (report, manifest) != self.reference:
            return "report.jsonl or run_manifest.json differs from the first op's bytes"
        text = report.decode("utf-8")
        parsed = parse_report_jsonl(text)
        if render_report(parsed, "jsonl") != text:
            return "report.jsonl does not round-trip through parse_report_jsonl and render_report"
        if len(parsed.cells) != 20:
            return f"report has {len(parsed.cells)} cells, expected 20"
        return None


class LiveStub(Workload):
    """96 downsampled windows through ``classify_windows`` against the stub, cot then do."""

    name = "live-stub"

    def __init__(self, root: Path, seed: int, work: Path) -> None:
        super().__init__(root, seed, work)
        self.server: Optional[subprocess.Popen] = None
        self.base_url = ""
        # urllib must reach the local stub directly, whatever proxy is configured
        self.opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def setup(self) -> None:
        self.close()
        log = self.work / "prepare.log"
        _, rc = run_child([sys.executable, str(BENCH / "live_client.py"), "prepare",
                           str(self.seed), str(self.work)], self.env, self.work, log)
        if rc != 0:
            raise RuntimeError(f"preparing the live-stub inputs failed: {_log_tail(log)}")
        answers_path = self.work / "answers.json"
        self.expected = json.loads((self.work / "expected.json").read_text(encoding="utf-8"))
        self.digests = {"answers.json": sha256_file(answers_path)}

        with open(self.work / "stub.log", "wb") as log:
            self.server = subprocess.Popen(
                [sys.executable, str(BENCH / "stub_server.py"), "--answers", str(answers_path)],
                stdout=subprocess.PIPE, stderr=log, text=True,
            )
        line = self.server.stdout.readline()
        if not line.startswith("port "):
            self.close()
            raise RuntimeError(f"stub server did not start: {_log_tail(self.work / 'stub.log')}")
        self.base_url = f"http://127.0.0.1:{int(line.split()[1])}"

    def _stub(self, path: str, post: bool = False) -> dict:
        req = urllib.request.Request(self.base_url + path, data=b"" if post else None,
                                     method="POST" if post else "GET")
        with self.opener.open(req, timeout=10) as resp:
            return json.loads(resp.read())

    def op(self, index: int, traced: bool) -> OpSample:
        """One op in a child; run_s and cpu_s are the two ``classify_windows`` calls, timed there."""
        self._stub("/reset", post=True)
        result_path = self.work / f"op{index}.json"
        spans_path = self.work / f"spans{index}.json"
        log = self.work / f"op{index}.log"
        argv = [sys.executable, str(BENCH / "live_client.py"), "op", str(self.work),
                self.base_url, str(result_path)]
        if traced:
            argv.append(str(spans_path))
        sample, rc = run_child(argv, self.env, self.work, log)
        sample.stub = self._stub("/stats")
        if rc != 0:
            sample.error = f"exit code {rc}: {_log_tail(log)}"
            return sample
        result = json.loads(result_path.read_text(encoding="utf-8"))
        sample.wall_s = result["wall_s"]
        sample.cpu_s = result["cpu_s"]
        if traced:
            sample.spans = tracing.load_spans(str(spans_path))
        sample.error = self.check(result)
        return sample

    def check(self, result: dict) -> Optional[str]:
        for mode, expected in self.expected.items():
            failures = result["failures"][mode]
            if failures:
                return f"{len(failures)} {mode} calls failed: {failures[0][1]}"
            labels = result["predictions"][mode]
            if len(labels) != len(expected):
                return f"{len(labels)} {mode} predictions for {len(expected)} windows"
            wrong = [wid for wid, label in expected.items() if labels.get(wid) != label]
            if wrong:
                return f"{len(wrong)} {mode} labels differ from the mock provider's, first {wrong[0]}"
        return None

    def close(self) -> None:
        if self.server is None:
            return
        self.server.terminate()
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None


WORKLOADS = {cls.name: cls for cls in (GridMock, LiveStub)}

