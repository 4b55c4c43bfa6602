"""Stub chat-completion endpoint for the live-stub workload.

It stands in for a provider: it answers every known prompt with the text
the mock provider gives for it, computed beforehand and read from a JSON
file, after a fixed delay of ``STUB_DELAY_MS``. On a fixed share
``STUB_FAIL_SHARE`` of the known prompts, chosen by their keys, it answers
the first attempt with HTTP 503, so the client's retries run. The count of
failing prompts depends only on the count of prompts, so retries cost the
same whatever the seed. The schedule restarts on ``POST /reset``, which the
benchmark sends before each op, so every op meets the same faults.
Responses carry no ``Retry-After`` header.

    python3 bench/stub_server.py --answers ANSWERS_JSON

prints ``port N`` once it listens on a free port of 127.0.0.1 and serves
until it is terminated. ``GET /stats`` returns the requests served and 503s
sent since the last reset; ``POST /reset`` returns the same and clears them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

COMPLETIONS_PATH = "/v1/chat/completions"
# Stand-in for a provider's response latency.
STUB_DELAY_MS = 20.0
# An assumption, not a measured provider error rate: one prompt in 32 has its
# first attempt rejected. Each rejection costs the client's default 0.5 s
# backoff, so at this share the backoff sleep stays under half of the op and
# the per-call path (HTTP, prompting, parsing) remains the larger part.
STUB_FAIL_SHARE = 1 / 32


def prompt_key(system: str, user: str) -> str:
    """Identity of one prompt: sha256 over its system and user messages."""
    return hashlib.sha256(f"{system}\n\x00{user}".encode("utf-8")).hexdigest()


def failing_keys(keys, share: float) -> frozenset[str]:
    """The prompts whose first attempt in an op gets a 503: the round(share * n) lowest keys."""
    ordered = sorted(keys)
    return frozenset(ordered[: round(share * len(ordered))])


class StubState:
    """Answers, the fault schedule and the request counts; shared by handler threads."""

    def __init__(self, answers: dict[str, str], delay_s: float, fail_share: float) -> None:
        self.answers = answers
        self.delay_s = delay_s
        self.failing = failing_keys(answers, fail_share)
        self._lock = threading.Lock()
        self._seen: set[str] = set()
        self._requests = 0
        self._rejected = 0

    def status_for(self, key: str) -> int:
        """Count one request for ``key`` and pick its HTTP status."""
        with self._lock:
            self._requests += 1
            first = key not in self._seen
            self._seen.add(key)
            if key not in self.answers:
                return 400
            if first and key in self.failing:
                self._rejected += 1
                return 503
            return 200

    def stats(self, reset: bool = False) -> dict:
        with self._lock:
            out = {"requests": self._requests, "rejected": self._rejected}
            if reset:
                self._seen.clear()
                self._requests = 0
                self._rejected = 0
        return out


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, format, *args):  # keep the benchmark's output clean
            pass

        def _send(self, status: int, obj: dict) -> None:
            body = json.dumps(obj).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, state.stats())
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            body = self.rfile.read(length)
            if self.path == "/reset":
                self._send(200, state.stats(reset=True))
                return
            if self.path != COMPLETIONS_PATH:
                self._send(404, {"error": "not found"})
                return
            try:
                messages = json.loads(body)["messages"]
                system = next(m["content"] for m in messages if m["role"] == "system")
                user = next(m["content"] for m in messages if m["role"] == "user")
            except (ValueError, KeyError, TypeError, StopIteration):
                self._send(400, {"error": "malformed chat-completion request"})
                return
            key = prompt_key(system, user)
            status = state.status_for(key)
            time.sleep(state.delay_s)
            if status == 200:
                text = state.answers[key]
                self._send(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})
            elif status == 503:
                self._send(503, {"error": "service unavailable"})
            else:
                self._send(status, {"error": "unknown prompt"})

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--answers", required=True, help="JSON object: prompt key -> answer text")
    args = parser.parse_args(argv)
    with open(args.answers, "r", encoding="utf-8") as fh:
        answers = json.load(fh)
    state = StubState(answers, STUB_DELAY_MS / 1000.0, STUB_FAIL_SHARE)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
