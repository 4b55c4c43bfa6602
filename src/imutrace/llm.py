"""Chat-completion transport, the deterministic mock provider, and label parsing.

Three layers live here. `complete` is a thin provider-agnostic HTTP
client for chat-completion endpoints, with bounded retries on transient
failures; it and `classify_windows` run their calls through one small
scheduler, in which a call waiting to retry holds no worker. Each
worker posts over one persistent standard-library ``http.client``
connection, which the package imports only when a live batch starts.
`mock_complete` is an offline stand-in that reads the serialized window
back out of the prompt (``prompting.read_window``), integrates gyro-z,
and writes a four-phase reasoning text (chain-of-thought) or a bare
label (direct output); it doubles as the oracle generator for tests.
`parse_label` recovers a TrajectoryLabel from free-form response text:
it reads the text once as words and looks each word up among the first
words of the ``LABEL_PHRASES`` phrases.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence
from urllib.parse import SplitResult, unquote, urlsplit, urlunsplit

from . import __version__
from .core import AXIS_NAMES, TrajectoryLabel, TrajectoryWindow
from .errors import (
    AmbiguousLabelError,
    ConfigError,
    LabelParseError,
    ProviderError,
    TransportError,
    UnparseableLabelError,
)
from .prompting import PromptBundle, PromptMode, TemplateSet, build_prompt, read_window

MOCK_PROVIDER_ID = "mock"

# Mock classifier thresholds on |net heading change|, rad.
STRAIGHT_MAX_RAD = math.pi / 4
QUARTER_MAX_RAD = 3 * math.pi / 4

_GZ_COLUMN = AXIS_NAMES.index("gz")


@dataclass(frozen=True)
class ProviderConfig:
    """Connection settings for one chat-completion provider.

    ``endpoint`` is the final ``http://`` or ``https://`` URL the chat
    requests are posted to: a redirect fails the call. An endpoint the
    transport cannot use (another scheme, no host, a port that is not a
    number from 0 to 65535, or a character outside printable ASCII) is
    refused here, before any data is read, as is one with credentials
    before an ``@``, which no request would send as auth: the token
    comes only from ``token_env``.

    ``concurrency`` is the most requests a batch has in flight at once.
    A call waiting out its backoff holds no slot, so the limit holds
    while calls back off too, and other windows use the slots meanwhile.
    """

    endpoint: str
    model: str
    token_env: str = "IMUTRACE_API_TOKEN"
    temperature: float = 0.0
    max_tokens: int = 1024
    timeout_s: float = 30.0
    retries: int = 3
    backoff_base_s: float = 0.5
    concurrency: int = 4

    def __post_init__(self):
        if not self.endpoint:
            raise ConfigError("provider endpoint must be non-empty")
        if re.search(r"[^\x21-\x7e]", self.endpoint):
            raise ConfigError(
                f"provider endpoint must be printable ASCII without spaces, got {self.endpoint!r}"
            )
        try:
            url = urlsplit(self.endpoint)
            if url.username is not None:  # also for a bare "@" or ":password@"
                # checked before the port, and the message leaves the
                # endpoint out, so no password reaches stderr
                raise ConfigError(
                    "provider endpoint must not carry credentials before '@'; the auth token "
                    f"comes from the environment variable named by --token-env ({self.token_env})"
                )
            url.port  # raises ValueError for a port that is not a number up to 65535
        except ValueError as exc:
            raise ConfigError(f"provider endpoint {self.endpoint!r} is unreadable: {exc}") from None
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigError(
                f"provider endpoint must be an http:// or https:// URL with a host, "
                f"got {self.endpoint!r}"
            )
        if not self.model:
            raise ConfigError("provider model id must be non-empty")
        for name in ("temperature", "timeout_s", "backoff_base_s"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.temperature < 0:
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_tokens < 1:
            raise ConfigError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.concurrency < 1:
            raise ConfigError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.timeout_s <= 0:
            raise ConfigError(f"timeout must be positive, got {self.timeout_s}")
        if self.backoff_base_s < 0:
            raise ConfigError(f"backoff base must be >= 0, got {self.backoff_base_s}")

    def token(self) -> str:
        """The auth token from the ``token_env`` environment variable;
        ConfigError when that is empty or unset."""
        token = os.environ.get(self.token_env, "")
        if not token:
            raise ConfigError(
                f"auth token environment variable {self.token_env!r} is empty or unset"
            )
        return token


@dataclass(frozen=True)
class CompletionResult:
    """What the provider returned: the text and its token counts (None
    when it gave none). How the call went is ``_run_calls``'s record."""

    text: str
    prompt_tokens: Optional[int] = None
    completion_tokens: Optional[int] = None

    def __post_init__(self):
        if not self.text:
            raise ValueError("CompletionResult.text must be non-empty")


@dataclass(frozen=True)
class Prediction:
    """One classified window: its id and the label it was given.

    ``label`` is None when the response text yielded no usable label;
    evaluation scores such predictions as wrong and reports them in a
    dedicated unparsed column instead of dropping them. The trained
    baselines reuse this type. The response text is kept by the
    transcript, and the mode and provider belong to the batch.
    """

    window_id: str
    label: Optional[TrajectoryLabel]


@dataclass(frozen=True)
class BatchResult:
    """Outcome of classifying one batch of windows.

    ``predictions`` covers every window whose completion succeeded
    (label may still be None when the text was unparseable).
    ``transcript`` (what was said) and ``calls`` (how each call went)
    each have one row per call, in window_id order (see
    ``classify_windows``); ``run_experiment`` writes the first to its
    transcript and the second to its timings file.
    """

    predictions: tuple[Prediction, ...]
    transcript: tuple[dict, ...] = ()
    calls: tuple[dict, ...] = ()

    @property
    def failures(self) -> tuple[tuple[str, str], ...]:
        """(window_id, error message) of each call that raised a transport
        or provider error, read from the transcript's error rows."""
        return tuple((r["window_id"], r["error"]) for r in self.transcript if "error" in r)


def complete(cfg: ProviderConfig, bundle: PromptBundle) -> CompletionResult:
    """POST ``bundle`` to the provider and return the first choice's text.

    Retries transient failures (timeout, connection error, HTTP 429 and
    5xx) with exponential backoff, ``backoff_base_s * 2**attempt``
    between attempts, for at most ``retries`` extra attempts. A 429 or
    503 whose ``Retry-After`` header gives a number of seconds waits at
    least that long. A redirect, another 4xx or a server certificate
    that fails verification fails at once.
    """
    ((result, _attempts, _latency_s),) = _complete_batch(cfg, [bundle], workers=1)
    if isinstance(result, Exception):
        raise result
    return result


class _Retry(Exception):
    """One attempt failed in a way a later attempt may not: a timeout, a
    connection error, HTTP 429 or 5xx. ``detail`` names it (``timeout``,
    the exception's class or ``HTTP 503``); ``retry_after_s`` is the wait
    the provider asked for, else 0."""

    def __init__(self, detail: str, retry_after_s: float = 0.0):
        super().__init__(detail)
        self.detail = detail
        self.retry_after_s = retry_after_s


def _retry_after_s(value: Optional[str]) -> float:
    """Seconds a 429 or 503's ``Retry-After`` header asks the client to
    wait; 0 when the header is absent, an HTTP-date, or not a
    non-negative number."""
    try:
        seconds = float(value or "")
    except ValueError:
        return 0.0
    return seconds if math.isfinite(seconds) and seconds >= 0 else 0.0


class _Connection:
    """One worker's persistent connection to the provider's endpoint.

    The proxy comes from the environment (``HTTP_PROXY``, ``HTTPS_PROXY``,
    ``NO_PROXY``), read once when the worker opens its connection: an
    ``http`` endpoint is posted to the proxy in absolute form, an
    ``https`` one through a CONNECT tunnel, and credentials in the proxy
    URL become a ``Proxy-Authorization`` header. ``http.client`` closes
    the socket after a response that says it will close, and the next
    request opens a new one.
    """

    def __init__(self, url: SplitResult, timeout_s: float, context, headers: dict):
        import base64
        import http.client
        import urllib.request

        self.headers = headers
        self.target = urlunsplit(("", "", url.path or "/", url.query, ""))
        https = url.scheme == "https"
        host, port = url.hostname, url.port or (443 if https else 80)
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and urllib.request.proxy_bypass(host):
            proxy = None
        connect_to = (host, port)
        proxy_headers = {}
        if proxy:
            try:
                via = urlsplit(proxy if "://" in proxy else "http://" + proxy)
                connect_to = (via.hostname, via.port or 80)
            except ValueError as exc:
                raise ConfigError(f"{url.scheme} proxy {proxy!r} is unreadable: {exc}") from None
            if not via.hostname:
                raise ConfigError(f"{url.scheme} proxy {proxy!r} names no host")
            if via.username is not None:
                credentials = f"{unquote(via.username)}:{unquote(via.password or '')}"
                proxy_headers["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(credentials.encode()).decode("ascii")
                )
        if https:
            self.conn = http.client.HTTPSConnection(*connect_to, timeout=timeout_s, context=context)
            if proxy:
                self.conn.set_tunnel(host, port, headers=proxy_headers)
        else:
            self.conn = http.client.HTTPConnection(*connect_to, timeout=timeout_s)
            if proxy:
                self.target = urlunsplit(("http", url.netloc, url.path or "/", url.query, ""))
                self.headers = {**headers, **proxy_headers}

    def post(self, body: bytes) -> tuple["http.client.HTTPResponse", bytes]:
        """POST ``body`` and return the response and its whole body.

        A reused keep-alive connection the server has dropped fails
        before any status line arrives; the request then goes once more
        on a new connection.
        """
        reused = self.conn.sock is not None
        try:
            self.conn.request("POST", self.target, body, self.headers)
            resp = self.conn.getresponse()
        except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected is the former
            if not reused:
                raise
            self.conn.close()
            self.conn.request("POST", self.target, body, self.headers)
            resp = self.conn.getresponse()
        return resp, resp.read()

    def close(self) -> None:
        self.conn.close()


def _complete_batch(
    cfg: ProviderConfig, bundles: Sequence[PromptBundle], workers: int
) -> list[tuple[object, int, Optional[float]]]:
    """Send every bundle to the provider through ``_run_calls``, each
    worker posting over its own persistent ``_Connection``.

    Raises ConfigError before any traffic when the auth token is
    missing. One attempt raises ``_Retry`` on a timeout, a connection
    error, HTTP 429 or 5xx; TransportError on a redirect, another 4xx or
    a server certificate that fails verification, and ProviderError on a
    body without a completion, which no retry can mend. HTTPS verifies
    the server against the system's CA certificates
    (``ssl.create_default_context``). Redirects are not followed, and
    responses are requested uncompressed.
    """
    import http.client

    token = cfg.token()
    url = urlsplit(cfg.endpoint)
    context = None
    untrusted: tuple = ()  # the errors of a server certificate that fails verification
    if url.scheme == "https":
        import ssl

        context = ssl.create_default_context()
        untrusted = (ssl.SSLCertVerificationError,)
    headers = {
        "Authorization": f"Bearer {token}",
        "Content-Type": "application/json",
        "User-Agent": f"imutrace/{__version__}",
    }

    def attempt(bundle: PromptBundle, conn: _Connection) -> CompletionResult:
        body = {
            "model": cfg.model,
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_tokens,
            "messages": [
                {"role": "system", "content": bundle.instruction},
                {"role": "user", "content": bundle.question},
            ],
        }
        try:
            resp, payload = conn.post(json.dumps(body).encode())
        except untrusted as exc:
            conn.close()
            raise TransportError(
                f"provider's TLS certificate failed verification: {exc.verify_message}"
            ) from None
        except (OSError, http.client.HTTPException) as exc:  # timeouts are OSErrors
            conn.close()  # a half-done exchange leaves the connection unusable
            cause = "timeout" if isinstance(exc, TimeoutError) else type(exc).__name__
            raise _Retry(cause) from None
        status = resp.status
        if status == 429 or status >= 500:
            retry_after = resp.getheader("Retry-After") if status in (429, 503) else None
            raise _Retry(f"HTTP {status}", _retry_after_s(retry_after))
        if 300 <= status < 400:
            raise TransportError(
                f"provider redirected the request with HTTP {status} to "
                f"{resp.getheader('Location')!r}; the endpoint must be the final URL"
            )
        if status >= 400:
            raise TransportError(f"provider rejected the request with HTTP {status}")
        return _read_completion(payload)

    return _run_calls(
        bundles,
        attempt,
        workers=workers,
        retries=cfg.retries,
        backoff_base_s=cfg.backoff_base_s,
        open_session=lambda: _Connection(url, cfg.timeout_s, context, headers),
    )


def _run_calls(
    bundles: Sequence[PromptBundle],
    attempt: Callable[[PromptBundle, object], CompletionResult],
    *,
    workers: int,
    retries: int = 0,
    backoff_base_s: float = 0.0,
    open_session: Optional[Callable[[], object]] = None,
) -> list[tuple[object, int, Optional[float]]]:
    """Make one call per bundle, at most ``workers`` attempts at a time,
    counting, timing and recording each.

    ``attempt(bundle, session)`` makes one attempt; ``session`` is the
    worker's own ``open_session()`` (closed when the batch ends) or None.
    An attempt that raises ``_Retry`` frees its worker at once: the call
    is queued again, due after ``backoff_base_s * 2**k`` (k counts the
    call's earlier attempts) or the provider's Retry-After, whichever is
    longer, and a due retry goes ahead of calls not yet started. After
    ``retries`` retries the call fails with TransportError.

    Returns, in bundle order, ``(outcome, attempts, latency_s)`` for each
    call: its CompletionResult, or the TransportError or ProviderError
    that ended it; the attempts made, which only this tuple counts; and
    the seconds the attempt that returned a result took, or None. Any
    other exception stops the batch: no attempt starts after it, every
    worker is joined, and it is raised. With one worker everything runs
    in the caller's thread.
    """
    results: list[tuple[object, int, Optional[float]]] = [None] * len(bundles)
    attempts = [0] * len(bundles)
    fresh = deque(range(len(bundles)))
    due: list[tuple[float, int]] = []  # heap of (due time, index) of calls backing off
    open_calls = len(bundles)
    aborts: list[BaseException] = []
    cond = threading.Condition()

    def next_call() -> Optional[int]:
        # called with cond held; None once the batch is done or aborted
        while open_calls and not aborts:
            now = time.monotonic()
            if due and due[0][0] <= now:
                return heapq.heappop(due)[1]
            if fresh:
                return fresh.popleft()
            # a longer timeout overflows the platform's time_t; the loop
            # checks the due time again after each wait
            cond.wait(min(due[0][0] - now, threading.TIMEOUT_MAX) if due else None)
        return None

    def worker() -> None:
        nonlocal open_calls
        session = None
        try:
            session = open_session() if open_session is not None else None
            while True:
                with cond:
                    i = next_call()
                    if i is None:
                        return
                    attempts[i] += 1
                    number = attempts[i]
                started, latency_s = time.perf_counter(), None
                try:
                    outcome = attempt(bundles[i], session)
                    latency_s = time.perf_counter() - started
                except _Retry as exc:
                    if number <= retries:
                        # ldexp, unlike 2 ** k, takes a zero base past 1,024 attempts
                        delay = max(math.ldexp(backoff_base_s, number - 1), exc.retry_after_s)
                        with cond:
                            heapq.heappush(due, (time.monotonic() + delay, i))
                            cond.notify()
                        continue
                    outcome = TransportError(
                        f"retries exhausted after {number} attempts (last failure: {exc.detail})"
                    )
                except (TransportError, ProviderError) as exc:
                    outcome = exc
                with cond:
                    results[i] = (outcome, number, latency_s)
                    open_calls -= 1
                    if not open_calls:
                        cond.notify_all()
        except BaseException as exc:  # handed to the caller after every join
            with cond:
                aborts.append(exc)
                cond.notify_all()
        finally:
            if session is not None:
                session.close()

    threads = [threading.Thread(target=worker) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    worker()
    for thread in threads:
        thread.join()
    if aborts:
        raise aborts[0]
    return results


def _read_completion(body: bytes) -> CompletionResult:
    try:
        payload = json.loads(body)
    except ValueError:
        raise ProviderError("provider returned a non-JSON response body")
    try:
        text = payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        raise ProviderError("response JSON lacks choices[0].message.content")
    if not isinstance(text, str) or not text:
        raise ProviderError("provider returned empty response text")
    usage = payload.get("usage")
    if not isinstance(usage, dict):
        usage = {}  # absent or malformed: the token counts are unknown
    # a count that is not an int >= 0 is unknown too, and a bool is not an int here
    counts = (usage.get("prompt_tokens"), usage.get("completion_tokens"))
    return CompletionResult(text, *(n if type(n) is int and n >= 0 else None for n in counts))


def _classify_heading(dtheta: float) -> TrajectoryLabel:
    if abs(dtheta) < STRAIGHT_MAX_RAD:
        return TrajectoryLabel.STRAIGHT
    if abs(dtheta) < QUARTER_MAX_RAD:
        return TrajectoryLabel.TURN_LEFT if dtheta > 0 else TrajectoryLabel.TURN_RIGHT
    return TrajectoryLabel.TURN_AROUND


def mock_complete(bundle: PromptBundle) -> CompletionResult:
    """Deterministic offline provider.

    Reads the serialized window back out of the question with
    ``read_window`` (refusing one it cannot read with ``ProviderError``),
    integrates its gz column by the trapezoid rule, and classifies the net
    heading change: below pi/4 in magnitude is straight, up to 3pi/4 a
    quarter turn (sign picks the side, positive yaw is a left turn),
    beyond that a turn around. Chain-of-thought bundles get a four-phase
    reasoning text ending in the conclusion phrasing; direct-output
    bundles get the bare label.
    """
    try:
        rows, rate = read_window(bundle.question)
    except ValueError as exc:
        raise ProviderError(f"mock provider {exc}") from None
    gz = [row[_GZ_COLUMN] for row in rows]
    dt = 1.0 / rate
    dtheta = sum((gz[i] + gz[i + 1]) * 0.5 * dt for i in range(len(gz) - 1))
    label = _classify_heading(dtheta)
    if bundle.mode is PromptMode.DO:
        text = label.value
    else:
        hyphenated = label.value.replace(" ", "-")
        degrees = math.degrees(dtheta)
        text = (
            f"Phase 1, restating the problem: I am given {len(rows)} samples of "
            f"9-axis IMU data from a robot-mounted smartphone, downsampled to "
            f"{rate:g} Hz, and must identify the maneuver.\n"
            f"Phase 2, expert knowledge: the gyroscope z axis reads the yaw rate, "
            f"and its time integral is the net heading change. Near zero means an "
            f"unchanged course, about +90 degrees a counterclockwise quarter "
            f"rotation, about -90 degrees a clockwise quarter rotation, and near "
            f"180 degrees in magnitude a reversal of course.\n"
            f"Phase 3, data analysis: the trapezoidal integral of the gyro-z "
            f"column over these samples gives a net heading change of "
            f"{degrees:.1f} degrees.\n"
            f"Phase 4, conclusion: combining the measured heading change with the "
            f"knowledge above, the data is most likely a '{hyphenated}' trajectory."
        )
    return CompletionResult(text=text)


# The phrases a response may name each label by, each in lower-case words
# joined by single spaces; `parse_label` says how a response matches them.
LABEL_PHRASES: dict[TrajectoryLabel, tuple[str, ...]] = {
    TrajectoryLabel.STRAIGHT: (
        "straight",
        "go straight",
        "goes straight",
        "going straight",
        "went straight",
        "moving straight",
        "straight line",
        "straight ahead",
    ),
    TrajectoryLabel.TURN_RIGHT: (
        "turn right",
        "turns right",
        "turning right",
        "turned right",
        "right turn",
        "right hand turn",
        "rightward turn",
        "clockwise turn",
        "veer right",
        "veering right",
    ),
    TrajectoryLabel.TURN_LEFT: (
        "turn left",
        "turns left",
        "turning left",
        "turned left",
        "left turn",
        "left hand turn",
        "leftward turn",
        "counterclockwise turn",
        "counter clockwise turn",
        "anticlockwise turn",
        "anti clockwise turn",
        "veer left",
        "veering left",
    ),
    TrajectoryLabel.TURN_AROUND: (
        "turn around",
        "turns around",
        "turning around",
        "turned around",
        "turnaround",
        "u turn",
        "about face",
        "180 degree turn",
        "full reversal",
    ),
}


# A word of a response (group 1), or a run of other characters that are
# not separators, which no phrase spans (group 1 is empty).
_TOKEN = re.compile(r"(\w+)|[^\w\s\-\u2010-\u2015\u2212]+")


@functools.lru_cache(maxsize=8)
def _phrase_index(
    phrases: tuple[tuple[TrajectoryLabel, tuple[str, ...]], ...],
) -> dict[str, list[tuple[list[str], TrajectoryLabel]]]:
    """Each phrase's words after its first, with its label, keyed by that first word."""
    by_first: dict[str, list[tuple[list[str], TrajectoryLabel]]] = {}
    for label, group in phrases:
        for phrase in group:
            first, *rest = phrase.split()
            by_first.setdefault(first, []).append((rest, label))
    return by_first


def parse_label(
    text: str, mode: PromptMode, phrases: dict[TrajectoryLabel, tuple[str, ...]] = LABEL_PHRASES
) -> TrajectoryLabel:
    """Extract a TrajectoryLabel from free-form response text.

    The text is read once as words, maximal runs of ``\\w`` compared
    after ``casefold()``. A phrase of ``phrases`` matches where its words
    follow one another joined only by whitespace, hyphens, dashes
    (U+2010 to U+2015) or minus signs (U+2212), but never where its first
    word follows the word "counter" or "anti" joined that way: "a
    counter-clockwise turn" is no "clockwise turn". When several
    distinct labels match, the one ending closest to the end of the text
    wins, because chain-of-thought responses state their conclusion last.
    Direct-output responses are bare labels, which the same rule handles
    trivially, so ``mode`` only flavors error messages. Two different
    labels ending at the same position raise AmbiguousLabelError; no
    match raises UnparseableLabelError.
    """
    by_first = _phrase_index(tuple(phrases.items()))
    words = [word.casefold() for word in _TOKEN.findall(text)]

    # the index of the last word a best match ends on: a later word ends later in the text
    best_last = -1
    best_labels: set[TrajectoryLabel] = set()
    for i, word in enumerate(words):
        if i and words[i - 1] in ("counter", "anti"):
            continue
        for rest, label in by_first.get(word, ()):
            last = i + len(rest)
            if words[i + 1 : last + 1] != rest:
                continue
            if last > best_last:
                best_last = last
                best_labels = {label}
            elif last == best_last:
                best_labels.add(label)
    if not best_labels:
        raise UnparseableLabelError(
            f"no trajectory label found in {mode.value} response: {text[:80]!r}"
        )
    if len(best_labels) > 1:
        names = ", ".join(sorted(lb.value for lb in best_labels))
        end = [m.end() for m in _TOKEN.finditer(text)][best_last]
        raise AmbiguousLabelError(f"labels {{{names}}} tie at text position {end}")
    return next(iter(best_labels))


def classify_windows(
    windows: Sequence[TrajectoryWindow | PromptBundle],
    mode: PromptMode,
    *,
    cfg: Optional[ProviderConfig] = None,
    completer: Optional[Callable[[PromptBundle], CompletionResult]] = None,
    templates: Optional[TemplateSet] = None,
) -> BatchResult:
    """Classify every window through one provider, at most
    ``cfg.concurrency`` requests in flight (one at a time without
    ``cfg``). A window given as its ``PromptBundle`` is sent as it is.

    Predictions come back sorted by window_id regardless of completion
    order. A response whose text yields no label becomes a prediction
    with ``label=None``; a call that raises a transport or provider
    error becomes an error row of the transcript instead (read back as
    ``failures``), so one bad window cannot abort a batch. Config
    errors (bad templates, missing auth) do abort: they would fail
    every window the same way. An injected ``completer`` makes one
    attempt per window and is never retried.

    Each call is a row of the batch's ``transcript`` and of its
    ``calls``, in window_id order, each row starting with window_id and
    bundle hash. The transcript row has what was said: the text, or the
    error of a failure. The calls row has how the call went, as
    ``_run_calls`` recorded it: ``latency_s`` (successes only),
    ``attempts``, then the provider's ``prompt_tokens`` and
    ``completion_tokens`` (successes only; None when it gave none, as the
    mock does). No file is written.
    """
    bundles = [w if isinstance(w, PromptBundle) else build_prompt(w, mode, templates=templates)
               for w in windows]
    workers = min(cfg.concurrency if cfg is not None else 1, len(bundles))
    if completer is None and cfg is not None:
        outcomes = _complete_batch(cfg, bundles, workers)
    else:
        single = completer if completer is not None else mock_complete
        outcomes = _run_calls(bundles, lambda bundle, _session: single(bundle), workers=workers)

    paired = sorted(zip(bundles, outcomes), key=lambda pair: pair[0].window_id)
    predictions: list[Prediction] = []
    transcript: list[dict] = []
    calls: list[dict] = []
    for bundle, (result, attempts, latency_s) in paired:
        head = {"window_id": bundle.window_id, "bundle_sha256": bundle.digest()}
        if isinstance(result, Exception):
            transcript.append({**head, "error": str(result)})
            calls.append({**head, "attempts": attempts})
            continue
        try:
            label: Optional[TrajectoryLabel] = parse_label(result.text, mode)
        except LabelParseError:
            label = None
        predictions.append(Prediction(bundle.window_id, label))
        transcript.append({**head, "text": result.text})
        calls.append({**head, "latency_s": latency_s, "attempts": attempts,
                      "prompt_tokens": result.prompt_tokens,
                      "completion_tokens": result.completion_tokens})
    return BatchResult(tuple(predictions), tuple(transcript), tuple(calls))
