"""The chat-completion client against a local stub server."""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from imutrace.errors import ConfigError, ProviderError, TransportError
from imutrace.llm import ProviderConfig, complete
from imutrace.prompting import PromptBundle, PromptMode

TOKEN_ENV = "IMUTRACE_TEST_TOKEN"

BUNDLE = PromptBundle(
    instruction="system text",
    question="user question",
    mode=PromptMode.DO,
    window_id="w0",
)

OK_PAYLOAD = json.dumps(
    {
        "choices": [{"message": {"content": "turn left"}}],
        "usage": {"prompt_tokens": 12, "completion_tokens": 3},
    }
).encode()


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        self.server.requests.append(
            {"path": self.path, "headers": dict(self.headers), "body": body}
        )
        if self.server.sleep_s:
            time.sleep(self.server.sleep_s)
        script = self.server.script
        status, payload = script[min(len(self.server.requests) - 1, len(script) - 1)]
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *_args):
        pass


@pytest.fixture
def stub(monkeypatch):
    monkeypatch.setenv(TOKEN_ENV, "sesame")
    servers = []

    def make(script, sleep_s=0.0):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        server.script = script
        server.requests = []
        server.sleep_s = sleep_s
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
        return server, url

    yield make
    for server in servers:
        server.shutdown()
        server.server_close()


def _cfg(url, **kw):
    defaults = dict(
        endpoint=url,
        model="test-model",
        token_env=TOKEN_ENV,
        backoff_base_s=0.0,
    )
    defaults.update(kw)
    return ProviderConfig(**defaults)


def test_success_request_shape(stub):
    server, url = stub([(200, OK_PAYLOAD)])
    result = complete(_cfg(url, temperature=0.5, max_tokens=77), BUNDLE)
    assert result.text == "turn left"
    assert result.provider == "test-model"
    assert result.latency_s > 0
    assert result.prompt_tokens == 12
    assert result.completion_tokens == 3

    assert len(server.requests) == 1
    req = server.requests[0]
    assert req["headers"]["Authorization"] == "Bearer sesame"
    assert req["headers"]["Content-Type"] == "application/json"
    body = json.loads(req["body"])
    assert body["model"] == "test-model"
    assert body["temperature"] == 0.5
    assert body["max_tokens"] == 77
    assert body["messages"] == [
        {"role": "system", "content": "system text"},
        {"role": "user", "content": "user question"},
    ]


def test_retries_past_429_then_succeeds(stub):
    server, url = stub([(429, b"slow down"), (429, b"slow down"), (200, OK_PAYLOAD)])
    result = complete(_cfg(url, retries=3), BUNDLE)
    assert result.text == "turn left"
    assert len(server.requests) == 3


def test_retries_exhausted_on_500(stub):
    server, url = stub([(500, b"boom")])
    with pytest.raises(TransportError) as info:
        complete(_cfg(url, retries=2), BUNDLE)
    assert len(server.requests) == 3  # initial try plus two retries
    assert info.value.attempts == 3
    assert info.value.status == 500


def test_client_error_fails_fast(stub):
    server, url = stub([(404, b"nope")])
    with pytest.raises(TransportError) as info:
        complete(_cfg(url, retries=3), BUNDLE)
    assert len(server.requests) == 1
    assert info.value.status == 404


def test_non_json_body_is_provider_error(stub):
    server, url = stub([(200, b"<html>not json</html>")])
    with pytest.raises(ProviderError):
        complete(_cfg(url), BUNDLE)
    assert len(server.requests) == 1


def test_malformed_json_shape_is_provider_error(stub):
    _, url = stub([(200, json.dumps({"choices": []}).encode())])
    with pytest.raises(ProviderError):
        complete(_cfg(url), BUNDLE)
    _, url2 = stub([(200, json.dumps({"out": "x"}).encode())])
    with pytest.raises(ProviderError):
        complete(_cfg(url2), BUNDLE)


def test_non_object_usage_reads_as_absent(stub):
    for usage in ("n/a", [12, 3], 7, None):
        payload = json.dumps(
            {"choices": [{"message": {"content": "turn left"}}], "usage": usage}
        ).encode()
        _, url = stub([(200, payload)])
        result = complete(_cfg(url), BUNDLE)
        assert result.text == "turn left"
        assert result.prompt_tokens is None and result.completion_tokens is None


def test_empty_content_is_provider_error(stub):
    payload = json.dumps({"choices": [{"message": {"content": ""}}]}).encode()
    _, url = stub([(200, payload)])
    with pytest.raises(ProviderError):
        complete(_cfg(url), BUNDLE)


def test_missing_token_is_config_error(stub, monkeypatch):
    server, url = stub([(200, OK_PAYLOAD)])
    monkeypatch.delenv(TOKEN_ENV)
    with pytest.raises(ConfigError):
        complete(_cfg(url), BUNDLE)
    assert server.requests == []  # failed before any network traffic


def test_timeout_is_transport_error(stub):
    server, url = stub([(200, OK_PAYLOAD)], sleep_s=1.0)
    started = time.perf_counter()
    with pytest.raises(TransportError) as info:
        complete(_cfg(url, timeout_s=0.2, retries=0), BUNDLE)
    assert time.perf_counter() - started < 0.9
    assert info.value.attempts == 1
    assert info.value.status is None


def test_connection_refused_retries_then_fails(monkeypatch):
    monkeypatch.setenv(TOKEN_ENV, "sesame")
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens here now
    cfg = _cfg(f"http://127.0.0.1:{port}/v1", retries=1)
    with pytest.raises(TransportError) as info:
        complete(cfg, BUNDLE)
    assert info.value.attempts == 2


def test_provider_config_validation():
    with pytest.raises(ConfigError):
        ProviderConfig(endpoint="", model="m")
    with pytest.raises(ConfigError):
        ProviderConfig(endpoint="http://x", model="")
    with pytest.raises(ConfigError):
        ProviderConfig(endpoint="http://x", model="m", retries=-1)
    with pytest.raises(ConfigError):
        ProviderConfig(endpoint="http://x", model="m", timeout_s=0.0)
    with pytest.raises(ConfigError):
        ProviderConfig(endpoint="http://x", model="m", concurrency=0)
    with pytest.raises(ConfigError):
        ProviderConfig(endpoint="http://x", model="m", temperature=-0.1)
