"""LLM provider layer: completions, embeddings, token budgeting, test doubles.

:class:`HttpProvider` holds the one ``complete`` and ``embed``.  They check
the token budget first (the estimated prompt plus the reserved output must
fit the context window less a margin, as the estimator is a heuristic, not a
tokenizer), then the response cache, and they parse and check every answer.
Only a cache miss reaches ``_post``, which answers in one of three ways:

* :class:`HttpProvider` — an OpenAI-compatible endpoint over HTTP, with
  bounded retries and a concurrency cap; answers are appended to the cache.
  The transport is the standard library's ``http.client``, over a pool of
  keep-alive connections, with the proxies of the environment and the CA
  bundle that ``requests`` would use.  A refusal's ``Retry-After`` sets the
  least wait before the next attempt.
* :class:`ReplayProvider` — raises :class:`ReplayMissError`: the cache is
  the only source, so replay needs no API key and no network.
* :class:`ScriptedProvider` — an ordered rule list and a stand-in embedder,
  for the test suite and hermetic demo runs.
"""

from __future__ import annotations

import atexit
import base64
import binascii
import dataclasses
import fcntl
import functools
import gzip
import hashlib
import http.client
import json
import logging
import os
import re
import select
import ssl
import threading
import time
import urllib.request
import weakref
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, Union
from urllib.parse import unquote, urlsplit

import numpy as np

logger = logging.getLogger(__name__)

# (status, parsed JSON body[, retry delay in seconds]) <- (url, payload,
# headers, timeout); the delay is the least wait before the next attempt
Transport = Callable[[str, dict, dict, float], Union[tuple[int, Any], tuple[int, Any, float]]]

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}

# a JSON body may escape one half of a surrogate pair on its own; no UTF-8
# encoder (cache keys, files, STIX ids) takes that, so it becomes U+FFFD
_LONE_SURROGATE_RE = re.compile("[\ud800-\udfff]")


class ProviderError(Exception):
    """Base class for provider failures."""


class BudgetError(ProviderError):
    """Prompt plus reserved output does not fit the context window."""


class TransportError(ProviderError):
    """The endpoint kept failing after all retries."""


class ScriptedMissError(ProviderError):
    """A scripted provider received a prompt no rule matches."""


class ReplayMissError(ProviderError):
    """A replay provider was asked for a prompt absent from its cache."""


def estimate_tokens(text: str) -> int:
    """Heuristic token count: ``max(ceil(words * 4/3), ceil(chars / 8))``.

    The word term matches the observed ~3 words per 4 tokens of English
    prose; the character term keeps long unbroken tokens (URLs, hex dumps,
    scripts without spaces) from being undercounted.  The estimate is 0 only
    for empty text, never decreases when text is extended, and is subadditive
    under concatenation.
    """
    return tokens_for_counts(len(text.split()), len(text))


def tokens_for_counts(words: int, chars: int) -> int:
    """:func:`estimate_tokens` of a text of *chars* characters that holds
    *words* whitespace-separated words."""
    return max((4 * words + 2) // 3, (chars + 7) // 8)


@dataclass
class ProviderConfig:
    """Connection and budgeting settings for one provider endpoint.

    Raises ``ValueError`` on an endpoint that is not an http or https URL
    with a host (and a valid port, if any), a count below one, a timeout
    that is not positive or a negative backoff."""

    endpoint: str = "https://api.openai.com/v1"
    api_key_env: str = "OPENAI_API_KEY"
    completion_model: str = "gpt-3.5-turbo"
    embedding_model: str = "text-embedding-ada-002"
    context_window: int = 4096
    max_concurrent: int = 4
    retry_attempts: int = 3
    retry_backoff: float = 0.5
    timeout: float = 60.0
    embed_batch_size: int = 100
    cache_path: str | None = None

    def __post_init__(self) -> None:
        try:
            endpoint = urlsplit(str(self.endpoint))
            endpoint.port  # raises on a port that is not a number in range
        except ValueError:
            endpoint = None
        if endpoint is None or endpoint.scheme not in ("http", "https") or not endpoint.hostname:
            raise ValueError(f"provider.endpoint: {self.endpoint!r} is not an http or https URL")
        for name in ("context_window", "max_concurrent", "retry_attempts", "embed_batch_size"):
            value = getattr(self, name)
            if not value >= 1:
                raise ValueError(f"provider.{name} must be at least 1, got {value!r}")
        if not self.timeout > 0:
            raise ValueError(f"provider.timeout must be positive, got {self.timeout!r}")
        if not self.retry_backoff >= 0:
            raise ValueError(
                f"provider.retry_backoff must not be negative, got {self.retry_backoff!r}")

    def usable_window(self) -> int:
        """Context window shrunk by the safety margin for estimation error."""
        return int(self.context_window * (1.0 - BUDGET_MARGIN))


@dataclass
class CompletionRequest:
    prompt: str
    max_output_tokens: int = 256


# share of the context window held back for the token estimator's error
BUDGET_MARGIN = 0.10


def check_budget(request: CompletionRequest, config: ProviderConfig) -> int:
    """Raise :class:`BudgetError` unless the request fits the margined window.

    Returns the prompt estimate so callers can log it.
    """
    estimate = estimate_tokens(request.prompt)
    usable = config.usable_window()
    if estimate + request.max_output_tokens > usable:
        raise BudgetError(
            f"prompt estimate {estimate} + reserved output {request.max_output_tokens} "
            f"exceeds usable window {usable} (context {config.context_window}, "
            f"margin {BUDGET_MARGIN:.0%})"
        )
    return estimate


def context_budget(config: ProviderConfig, empty_prompt: str, reserved_output: int) -> int:
    """Largest context, in estimated tokens, that a prompt rendered as
    *empty_prompt* with no context can carry and still pass
    :func:`check_budget` with *reserved_output* answer tokens.

    Raises :class:`BudgetError` when no context fits.
    """
    overhead = estimate_tokens(empty_prompt)
    budget = config.usable_window() - reserved_output - overhead
    if budget <= 0:
        raise BudgetError(
            f"no room for context: prompt overhead {overhead} + reserved output "
            f"{reserved_output} fill usable window {config.usable_window()} "
            f"(context {config.context_window}, margin {BUDGET_MARGIN:.0%})"
        )
    return budget


def _cache_key(kind: str, model: str, text: str) -> str:
    """Response-cache key of one prompt (*kind* "completion") or one
    embedded text (*kind* "embedding")."""
    return hashlib.sha256(f"{kind}\x00{model}\x00{text}".encode("utf-8")).hexdigest()


class ResponseCache:
    """Append-only JSONL cache of provider responses, keyed by prompt hash.

    Live runs write it through; its one reader is :class:`HttpProvider`, for
    live and replay runs alike.  Several processes may append to one file:
    each record is one write on an ``O_APPEND`` descriptor, made under an
    advisory ``flock`` of the file.

    An embedding record holds its vector in ``vector_f64``, the base64 of the
    vector's little-endian float64 bytes, so it round-trips bit for bit.
    Records that older versions wrote hold a ``vector`` list of numbers
    instead; both load, into one read-only float64 array per vector.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._completions: dict[str, str] = {}
        self._embeddings: dict[str, np.ndarray] = {}
        self._torn_at: int | None = None  # byte offset of an unparseable last line
        self._torn_tail = b""  # the file's bytes from there on, as loaded
        self._fd: int | None = None  # opened by the first append
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        """Read every record.  An unparseable *last* line is what a crash in
        the middle of an append leaves behind: it is skipped with a warning and
        cut off before the next append.  A corrupt line followed by more
        records is real damage and raises.  So does a record that parses but
        lacks a field it needs: ``ValueError`` naming the line."""
        offset = 0
        torn: ValueError | None = None
        with self.path.open("rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                line_start, offset = offset, offset + len(raw)
                line = raw.strip()
                if not line:
                    continue
                if torn is not None:
                    raise torn
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    exc.args = (f"line {lineno}, column {exc.colno}: {exc.msg}",)
                    torn, self._torn_at = exc, line_start
                    continue
                except ValueError as exc:  # bytes that are not UTF-8
                    torn, self._torn_at = ValueError(f"line {lineno}: {exc}"), line_start
                    continue
                try:
                    self._add(record)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
            if torn is not None:
                fh.seek(self._torn_at)
                self._torn_tail = fh.read()
        if torn is not None:
            logger.warning("%s: skipping unparseable last line (%s)", self.path, torn)

    def _add(self, record: Any) -> None:
        """Hold one parsed record; ``ValueError`` on one that is not whole."""
        if not isinstance(record, dict):
            raise ValueError("not a JSON object")
        kind = record.get("kind")
        if kind not in ("completion", "embedding"):
            return
        key = record.get("key")
        if not isinstance(key, str):
            raise ValueError(f"{kind} record without a string 'key'")
        if kind == "completion":
            response = record.get("response")
            if not isinstance(response, str):
                raise ValueError("completion record without a string 'response'")
            self._completions[key] = response
        elif "vector_f64" in record:
            self._embeddings[key] = _vector_from_base64(record["vector_f64"])
        elif "vector" in record:
            self._embeddings[key] = _vector_from_list(record["vector"])
        else:
            raise ValueError("embedding record without 'vector_f64' or 'vector'")

    def get_completion(self, key: str) -> str | None:
        return self._completions.get(key)

    def get_embedding(self, key: str) -> np.ndarray | None:
        """The cached vector, a read-only float64 array, or ``None``."""
        return self._embeddings.get(key)

    def put_completion(self, key: str, model: str, prompt: str, response: str) -> None:
        record = {"kind": "completion", "key": key, "model": model, "prompt": prompt, "response": response}
        with self._lock:
            if key in self._completions:
                return
            self._completions[key] = response
            self._append(record)

    def put_embedding(self, key: str, model: str, text: str, vector: Sequence[float]) -> None:
        data = np.asarray(vector, dtype="<f8").tobytes()
        with self._lock:
            if key in self._embeddings:
                return
            self._embeddings[key] = np.frombuffer(data, dtype="<f8")
            self._append({"kind": "embedding", "key": key, "model": model, "text": text,
                          "vector_f64": base64.b64encode(data).decode("ascii")})

    def _append(self, record: dict) -> None:
        data = (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            weakref.finalize(self, os.close, self._fd)
        fcntl.flock(self._fd, fcntl.LOCK_EX)
        try:
            if self._torn_at is not None:
                # cut the torn tail only if it is still the file's end: another
                # process may have cut it and appended since this one loaded
                tail = os.pread(self._fd, len(self._torn_tail) + 1, self._torn_at)
                if tail == self._torn_tail:
                    os.ftruncate(self._fd, self._torn_at)
                self._torn_at = None
            while data:  # one write, unless a signal or a full disk cuts it short
                data = data[os.write(self._fd, data):]
        finally:
            fcntl.flock(self._fd, fcntl.LOCK_UN)


def _vector_from_base64(encoded: Any) -> np.ndarray:
    """A ``vector_f64`` field as a read-only float64 array."""
    try:
        data = base64.b64decode(encoded, validate=True)
    except (binascii.Error, TypeError, ValueError) as exc:
        raise ValueError(f"'vector_f64' is not base64: {exc}") from None
    if len(data) % 8:
        raise ValueError(f"'vector_f64' holds {len(data)} bytes, not a whole number of float64s")
    return np.frombuffer(data, dtype="<f8")


def _vector_from_list(values: Any) -> np.ndarray:
    """An older record's ``vector`` list as a read-only float64 array."""
    try:
        array = np.array(values)
    except ValueError:  # ragged nesting
        array = None
    if array is None or array.ndim != 1 or array.dtype.kind not in "iuf":
        raise ValueError("'vector' is not a list of numbers")
    array = array.astype(np.float64, copy=False)
    array.flags.writeable = False
    return array


# idle keep-alive connections to model endpoints, by what each was opened
# with; a provider's semaphore keeps at most max_concurrent in use, and at
# most _MAX_IDLE per key stay open between calls, as in requests' pool
_MAX_IDLE = 10
_idle: dict[tuple, list[http.client.HTTPConnection]] = {}
_idle_lock = threading.Lock()

_USER_AGENT = "cti2stix/0.1"


def _requests_transport(url: str, payload: dict, headers: dict,
                        timeout: float) -> tuple[int, Any, float]:
    """POST *payload* as JSON to *url* on a pooled connection and read the
    whole answer; *timeout* bounds the connect and each read.

    The proxy is the environment's (``HTTP_PROXY``, ``HTTPS_PROXY``,
    ``ALL_PROXY``, less ``NO_PROXY``); an HTTPS endpoint is reached through a
    ``CONNECT`` tunnel, and the proxy URL's user and password become Basic
    proxy auth.  A body that is not JSON becomes ``{"error": {"message":
    text}}``.  Returns the status, the body and the retry delay the response
    asks for.  A connection that raised is closed, not pooled.
    """
    parts = urlsplit(url)  # ProviderConfig checked the scheme and host
    scheme, host = parts.scheme, parts.hostname
    port = parts.port or (443 if scheme == "https" else 80)
    proxies = urllib.request.getproxies()
    proxy = proxies.get(scheme) or proxies.get("all")
    if proxy and urllib.request.proxy_bypass(host):
        proxy = None
    elif proxy and "://" not in proxy:
        proxy = "http://" + proxy
    cafile = None
    if scheme == "https":
        cafile = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    key = (scheme, host, port, proxy, cafile)

    send_headers = {"User-Agent": _USER_AGENT, "Accept-Encoding": "gzip", **headers}
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    proxy_auth = _proxy_auth(proxy) if proxy else {}
    if proxy and scheme == "http":  # the proxy takes the whole URL
        target = url
        send_headers.update(proxy_auth)

    conn = _take(key, timeout) or _connect(key, proxy_auth, timeout)
    try:
        conn.request("POST", target, json.dumps(payload).encode("ascii"), send_headers)
        resp = conn.getresponse()
        data = resp.read()
    except BaseException:
        conn.close()
        raise
    if resp.will_close:
        conn.close()
    else:
        _give(key, conn)

    if resp.getheader("Content-Encoding", "").strip().lower() == "gzip":
        try:
            data = gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as exc:
            raise http.client.HTTPException(f"undecodable gzip body: {exc}") from None
    try:
        body = json.loads(data)
    except ValueError:
        body = {"error": {"message": data.decode("utf-8", "replace")[:500]}}
    return resp.status, body, _retry_after(resp.headers)


def _proxy_auth(proxy: str) -> dict[str, str]:
    """The ``Proxy-Authorization`` header of a proxy URL with user info."""
    parts = urlsplit(proxy)
    if parts.username is None:
        return {}
    creds = f"{unquote(parts.username)}:{unquote(parts.password or '')}".encode("latin-1")
    return {"Proxy-Authorization": "Basic " + base64.b64encode(creds).decode("ascii")}


def _connect(key: tuple, proxy_auth: dict[str, str], timeout: float) -> http.client.HTTPConnection:
    """A new connection for a pool *key*; it connects on its first request."""
    scheme, host, port, proxy, cafile = key
    context = _tls_context(cafile) if scheme == "https" else None
    if proxy:
        parts = urlsplit(proxy)
        if parts.scheme != "http":
            raise ValueError(f"proxy {proxy!r}: only http:// proxies are supported")
        if context is None:
            return http.client.HTTPConnection(parts.hostname, parts.port or 80, timeout=timeout)
        conn = http.client.HTTPSConnection(parts.hostname, parts.port or 80, timeout=timeout,
                                           context=context)
        conn.set_tunnel(host, port, headers=proxy_auth)
        return conn
    if context is None:
        return http.client.HTTPConnection(host, port, timeout=timeout)
    return http.client.HTTPSConnection(host, port, timeout=timeout, context=context)


@functools.lru_cache(maxsize=None)
def _tls_context(cafile: str | None) -> ssl.SSLContext:
    """The verifying TLS context of a CA bundle file or directory; with none,
    certifi's bundle when certifi is installed, else the system store.  Built
    on the first HTTPS connect that needs it."""
    if cafile is None:
        try:
            import certifi
        except ImportError:
            return ssl.create_default_context()
        cafile = certifi.where()
    if os.path.isdir(cafile):
        return ssl.create_default_context(capath=cafile)
    return ssl.create_default_context(cafile=cafile)


def _take(key: tuple, timeout: float) -> http.client.HTTPConnection | None:
    """The most recently pooled live connection for *key*, or ``None``.  One
    the server has closed while it sat idle reads as ready, and is dropped."""
    while True:
        with _idle_lock:
            conns = _idle.get(key)
            if not conns:
                return None
            conn = conns.pop()
        poller = select.poll()
        poller.register(conn.sock, select.POLLIN)
        if not poller.poll(0):
            conn.timeout = timeout
            conn.sock.settimeout(timeout)
            return conn
        conn.close()


def _give(key: tuple, conn: http.client.HTTPConnection) -> None:
    with _idle_lock:
        conns = _idle.setdefault(key, [])
        if len(conns) < _MAX_IDLE:
            conns.append(conn)
            return
    conn.close()


@atexit.register
def _close_idle() -> None:
    """Close every pooled connection."""
    with _idle_lock:
        conns = [conn for pooled in _idle.values() for conn in pooled]
        _idle.clear()
    for conn in conns:
        conn.close()


def _retry_after(headers: http.client.HTTPMessage) -> float:
    """The wait a response asks for before the next attempt, in seconds:
    ``retry-after-ms``, else ``Retry-After`` in seconds; 0 when it names none."""
    for name, scale in (("retry-after-ms", 0.001), ("retry-after", 1.0)):
        try:
            delay = float(headers.get(name, "")) * scale
        except ValueError:
            continue
        if delay >= 0:  # not NaN
            return delay
    return 0.0


class HttpProvider:
    """OpenAI-compatible completions + embeddings over HTTP.

    The API key is read from the environment variable named in the config and
    is never stored in config files.  Calls hold a semaphore so no more than
    ``max_concurrent`` requests are in flight, retry transient failures with
    exponential backoff, and (when a cache path is configured) log every
    response for later replay.
    """

    def __init__(
        self,
        config: ProviderConfig,
        transport: Transport | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.config = config
        self._transport = transport or _requests_transport
        self._sleep = sleep
        self._semaphore = threading.Semaphore(config.max_concurrent)
        self._cache = ResponseCache(config.cache_path) if config.cache_path else None

    def _headers(self) -> dict[str, str]:
        key = os.environ.get(self.config.api_key_env, "")
        if not key:
            raise ProviderError(
                f"no API key: set the {self.config.api_key_env} environment variable"
            )
        return {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

    def _post(self, path: str, payload: dict) -> dict:
        url = self.config.endpoint.rstrip("/") + path
        headers = self._headers()
        last_error = ""
        retry_after: list[float] = []  # the delay the last response asked for
        for attempt in range(self.config.retry_attempts):
            if attempt:
                backoff = self.config.retry_backoff * (2 ** (attempt - 1))
                wait = min(max([backoff, *retry_after]), 60.0)
                logger.warning("retrying %s after %s (wait %.1fs)", path, last_error, wait)
                self._sleep(wait)
            with self._semaphore:
                try:
                    status, body, *retry_after = self._transport(
                        url, payload, headers, self.config.timeout)
                except (OSError, http.client.HTTPException) as exc:
                    # HTTPException: a bad status line or a truncated body
                    last_error = f"connection error: {exc}"
                    retry_after = []
                    continue
            if status == 200:
                return body
            error = body.get("error", "") if isinstance(body, dict) else body
            if isinstance(error, dict):
                error = error.get("message", "")
            last_error = f"HTTP {status}: {error}"
            if status not in _RETRYABLE_STATUS:
                raise TransportError(f"{path} failed, {last_error}")
        raise TransportError(
            f"{path} failed after {self.config.retry_attempts} attempts, {last_error}")

    def complete(self, request: CompletionRequest) -> str:
        check_budget(request, self.config)
        model = self.config.completion_model
        key = _cache_key("completion", model, request.prompt)
        if self._cache is not None:
            hit = self._cache.get_completion(key)
            if hit is not None:
                return _LONE_SURROGATE_RE.sub("\ufffd", hit)
        body = self._post(
            "/chat/completions",
            {
                "model": model,
                "messages": [{"role": "user", "content": request.prompt}],
                "temperature": 0.0,
                "max_tokens": request.max_output_tokens,
            },
        )
        try:
            text = _LONE_SURROGATE_RE.sub("\ufffd", body["choices"][0]["message"]["content"])
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion response: {exc}") from exc
        if self._cache is not None:
            self._cache.put_completion(key, model, request.prompt, text)
        return text

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        """One float64 vector per text, in input order; a cache hit is the
        cache's read-only array.  Every vector of one call, cached or fresh,
        has one length."""
        model = self.config.embedding_model
        out: list[np.ndarray | None] = [None] * len(texts)
        pending: list[int] = []
        dims: set[int] = set()
        for i, text in enumerate(texts):
            if self._cache is not None:
                hit = self._cache.get_embedding(_cache_key("embedding", model, text))
                if hit is not None:
                    out[i] = hit
                    dims.add(len(hit))
                    continue
            pending.append(i)
        _check_one_length(dims)

        batch = self.config.embed_batch_size
        for start in range(0, len(pending), batch):
            idxs = pending[start : start + batch]
            body = self._post("/embeddings", {"model": model, "input": [texts[i] for i in idxs]})
            try:
                rows = sorted(body["data"], key=lambda r: r["index"])
                vectors = [np.asarray(r["embedding"], dtype=np.float64) for r in rows]
            except (KeyError, TypeError, ValueError) as exc:
                raise TransportError(f"malformed embedding response: {exc}") from exc
            # each vector goes to the text at its index: a repeated index
            # would give one text two vectors and another none
            if [r["index"] for r in rows] != list(range(len(idxs))):
                raise TransportError(f"embedding response returned {len(vectors)} vectors for "
                                     f"{len(idxs)} inputs, not one at each index 0 to "
                                     f"{len(idxs) - 1}")
            if any(vec.ndim != 1 for vec in vectors):
                raise TransportError("malformed embedding response: a row is not a 1-D array")
            dims.update(len(vec) for vec in vectors)
            _check_one_length(dims)
            for i, vec in zip(idxs, vectors):
                out[i] = vec
                if self._cache is not None:
                    key = _cache_key("embedding", model, texts[i])
                    self._cache.put_embedding(key, model, texts[i], vec)
        return out  # every slot is filled, or a call above raised


def _check_one_length(dims: set[int]) -> None:
    # callers stack one call's vectors into one matrix
    if len(dims) > 1:
        raise TransportError(
            f"malformed embedding response: rows of lengths {sorted(dims)} in one call")


class ReplayProvider(HttpProvider):
    """An :class:`HttpProvider` whose only source is the cache file at
    *cache_path*.  A miss raises :class:`ReplayMissError` in place of a
    request, so replay needs no API key and never retries."""

    def __init__(self, cache_path: Union[str, Path], config: ProviderConfig | None = None):
        super().__init__(dataclasses.replace(config or ProviderConfig(), cache_path=str(cache_path)))

    def _post(self, path: str, payload: dict) -> dict:
        if path == "/embeddings":
            raise ReplayMissError(
                f"no cached embedding for text starting {payload['input'][0][:80]!r}")
        raise ReplayMissError(
            f"no cached completion for model {payload['model']!r}, prompt starting "
            f"{payload['messages'][0]['content'][:80]!r}"
        )


class HashEmbedder:
    """Deterministic stand-in embedder: same text, same unit vector.

    Distinct texts land nearly orthogonal with high probability, so only
    exact repeats of catalog texts cross a high similarity threshold — which
    is exactly what hermetic fixtures rely on.
    """

    def __init__(self, dim: int = 32):
        self.dim = dim

    def embed_one(self, text: str) -> np.ndarray:
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        vec = rng.standard_normal(self.dim)
        return vec / np.linalg.norm(vec)

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        return [self.embed_one(t) for t in texts]


ScriptResponse = Union[str, Callable[[str], str]]
ScriptRule = tuple[Union[str, "re.Pattern[str]"], ScriptResponse]


class ScriptedProvider(HttpProvider):
    """Rule-driven provider for tests and offline demo runs.

    ``script`` is an ordered list of (matcher, response) pairs.  A matcher is
    a plain substring or a compiled regex; the first matching rule answers.
    A response may be a callable taking the full prompt, for rules whose
    output depends on it.  Prompts nothing matches raise
    :class:`ScriptedMissError` — a scripted run must never improvise.
    *embedder* answers embeddings.  No response cache is kept: scripted
    answers under a real model's keys would later be served to live runs.
    """

    def __init__(
        self,
        script: Iterable[ScriptRule],
        config: ProviderConfig | None = None,
        embedder: Any | None = None,
    ):
        super().__init__(dataclasses.replace(config or ProviderConfig(), cache_path=None))
        self.script = list(script)
        self.embedder = embedder or HashEmbedder()
        self.prompts: list[str] = []
        self.embedded: list[str] = []

    def _post(self, path: str, payload: dict) -> dict:
        if path == "/embeddings":
            self.embedded.extend(payload["input"])
            vectors = self.embedder.embed(payload["input"])
            return {"data": [{"index": i, "embedding": vec} for i, vec in enumerate(vectors)]}
        prompt = payload["messages"][0]["content"]
        self.prompts.append(prompt)
        for matcher, response in self.script:
            hit = matcher in prompt if isinstance(matcher, str) else matcher.search(prompt)
            if hit:
                answer = response(prompt) if callable(response) else response
                return {"choices": [{"message": {"content": answer}}]}
        raise ScriptedMissError(f"no scripted rule matches prompt starting {prompt[:80]!r}")


def load_script(path: Union[str, Path]) -> list[ScriptRule]:
    """Read a scripted-provider rule list from a JSON file.

    The file holds a list of ``{"match": substring, "response": text}``
    objects (``"regex": pattern`` may replace ``"match"``); order matters.
    Raises ``ValueError`` on a file that is not such a list, or on a
    ``"regex"`` that does not compile, naming the rule's index.
    """
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, list) or not all(
        isinstance(item, dict) and "response" in item and ("regex" in item or "match" in item)
        for item in raw
    ):
        raise ValueError('a script is a JSON list of {"match" or "regex", "response"} objects')
    rules: list[ScriptRule] = []
    for index, item in enumerate(raw):
        try:
            matcher = re.compile(item["regex"]) if "regex" in item else item["match"]
        except (re.error, TypeError) as exc:
            raise ValueError(f"rule {index}: bad regex {item['regex']!r}: {exc}") from exc
        rules.append((matcher, item["response"]))
    return rules
