"""LLM provider layer: completions, embeddings, token budgeting, test doubles.

Three providers share one interface (``complete`` / ``embed``):

* :class:`HttpProvider` — an OpenAI-compatible chat/embeddings endpoint over
  HTTP, with bounded retries, a concurrency cap, and an append-only response
  cache keyed by prompt hash.
* :class:`ReplayProvider` — serves answers from a previously written cache
  file and never touches the network.
* :class:`ScriptedProvider` — answers from an ordered rule list; used by the
  test suite and by hermetic demo runs.

All providers enforce the same token budget before doing any work: the
estimated prompt size plus the reserved output must fit the context window
with a safety margin, because the estimator is a heuristic, not a tokenizer.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import re
import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, Union

import numpy as np
import requests

logger = logging.getLogger(__name__)

# (status, parsed JSON body) <- (url, payload, headers, timeout)
Transport = Callable[[str, dict, dict, float], tuple[int, dict]]

_WORD_RE = re.compile(r"\S+")
_RETRYABLE_STATUS = {429, 500, 502, 503, 504}


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
    if not text:
        return 0
    words = len(_WORD_RE.findall(text))
    return max((4 * words + 2) // 3, (len(text) + 7) // 8)


@dataclass
class ProviderConfig:
    """Connection and budgeting settings for one provider endpoint."""

    endpoint: str = "https://api.openai.com/v1"
    api_key_env: str = "OPENAI_API_KEY"
    completion_model: str = "gpt-3.5-turbo"
    embedding_model: str = "text-embedding-ada-002"
    context_window: int = 4096
    budget_margin: float = 0.10
    max_concurrent: int = 4
    retry_attempts: int = 3
    retry_backoff: float = 0.5
    timeout: float = 60.0
    embed_batch_size: int = 100
    cache_path: str | None = None

    def usable_window(self) -> int:
        """Context window shrunk by the safety margin for estimation error."""
        return int(self.context_window * (1.0 - self.budget_margin))


@dataclass
class CompletionRequest:
    prompt: str
    max_output_tokens: int = 256
    temperature: float = 0.0
    model: str = ""


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
            f"margin {config.budget_margin:.0%})"
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
            f"(context {config.context_window}, margin {config.budget_margin:.0%})"
        )
    return budget


def _cache_key(kind: str, model: str, text: str) -> str:
    """Response-cache key of one prompt (*kind* "completion") or one
    embedded text (*kind* "embedding")."""
    return hashlib.sha256(f"{kind}\x00{model}\x00{text}".encode("utf-8")).hexdigest()


class ResponseCache:
    """Append-only JSONL cache of provider responses, keyed by prompt hash.

    The same file works as a write-through log for live runs and as the input
    of :class:`ReplayProvider`.  Several processes may append to one file:
    each record is one write on an ``O_APPEND`` descriptor, made under an
    advisory ``flock`` of the file.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._completions: dict[str, str] = {}
        self._embeddings: dict[str, list[float]] = {}
        self._torn_at: int | None = None  # byte offset of an unparseable last line
        self._torn_tail = b""  # the file's bytes from there on, as loaded
        self._fd: int | None = None  # opened by the first append
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        """Read every record.  An unparseable *last* line is what a crash in
        the middle of an append leaves behind: it is skipped with a warning and
        cut off before the next append.  A corrupt line followed by more
        records is real damage and raises."""
        offset = 0
        torn: ValueError | None = None
        with self.path.open("rb") as fh:
            for raw in fh:
                line_start, offset = offset, offset + len(raw)
                line = raw.strip()
                if not line:
                    continue
                if torn is not None:
                    raise torn
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    torn, self._torn_at = exc, line_start
                    continue
                if record.get("kind") == "completion":
                    self._completions[record["key"]] = record["response"]
                elif record.get("kind") == "embedding":
                    self._embeddings[record["key"]] = record["vector"]
            if torn is not None:
                fh.seek(self._torn_at)
                self._torn_tail = fh.read()
        if torn is not None:
            logger.warning("%s: skipping unparseable last line (%s)", self.path, torn)

    def get_completion(self, key: str) -> str | None:
        return self._completions.get(key)

    def get_embedding(self, key: str) -> list[float] | None:
        return self._embeddings.get(key)

    def put_completion(self, key: str, model: str, prompt: str, response: str) -> None:
        record = {"kind": "completion", "key": key, "model": model, "prompt": prompt, "response": response}
        with self._lock:
            if key in self._completions:
                return
            self._completions[key] = response
            self._append(record)

    def put_embedding(self, key: str, model: str, text: str, vector: Sequence[float]) -> None:
        record = {"kind": "embedding", "key": key, "model": model, "text": text, "vector": list(vector)}
        with self._lock:
            if key in self._embeddings:
                return
            self._embeddings[key] = list(vector)
            self._append(record)

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


def _requests_transport(url: str, payload: dict, headers: dict, timeout: float) -> tuple[int, dict]:
    resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
    try:
        body = resp.json()
    except ValueError:
        body = {"error": {"message": resp.text[:500]}}
    return resp.status_code, body


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
        # the semaphore admits max_concurrent holders, so counters need a lock
        self._counter_lock = threading.Lock()
        self.retries_total = 0
        self.calls_total = 0

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
        attempts = max(1, self.config.retry_attempts)
        last_error = ""
        for attempt in range(attempts):
            if attempt:
                wait = min(self.config.retry_backoff * (2 ** (attempt - 1)), 60.0)
                with self._counter_lock:
                    self.retries_total += 1
                logger.warning("retrying %s after %s (wait %.1fs)", path, last_error, wait)
                self._sleep(wait)
            with self._semaphore:
                with self._counter_lock:
                    self.calls_total += 1
                try:
                    status, body = self._transport(url, payload, headers, self.config.timeout)
                except (requests.ConnectionError, requests.Timeout, OSError) as exc:
                    last_error = f"connection error: {exc}"
                    continue
            if status == 200:
                return body
            last_error = f"HTTP {status}: {body.get('error', {}).get('message', '')}"
            if status not in _RETRYABLE_STATUS:
                raise TransportError(f"{path} failed, {last_error}")
        raise TransportError(f"{path} failed after {attempts} attempts, {last_error}")

    def complete(self, request: CompletionRequest) -> str:
        check_budget(request, self.config)
        model = request.model or self.config.completion_model
        key = _cache_key("completion", model, request.prompt)
        if self._cache is not None:
            hit = self._cache.get_completion(key)
            if hit is not None:
                return hit
        body = self._post(
            "/chat/completions",
            {
                "model": model,
                "messages": [{"role": "user", "content": request.prompt}],
                "temperature": request.temperature,
                "max_tokens": request.max_output_tokens,
            },
        )
        try:
            text = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion response: {exc}") from exc
        if self._cache is not None:
            self._cache.put_completion(key, model, request.prompt, text)
        return text

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        model = self.config.embedding_model
        out: list[np.ndarray | None] = [None] * len(texts)
        pending: list[int] = []
        for i, text in enumerate(texts):
            if self._cache is not None:
                hit = self._cache.get_embedding(_cache_key("embedding", model, text))
                if hit is not None:
                    out[i] = np.asarray(hit, dtype=np.float64)
                    continue
            pending.append(i)

        batch = max(1, self.config.embed_batch_size)
        dims: set[int] = set()
        for start in range(0, len(pending), batch):
            idxs = pending[start : start + batch]
            body = self._post("/embeddings", {"model": model, "input": [texts[i] for i in idxs]})
            try:
                rows = sorted(body["data"], key=lambda r: r["index"])
                vectors = [np.asarray(r["embedding"], dtype=np.float64) for r in rows]
            except (KeyError, TypeError, ValueError) as exc:
                raise TransportError(f"malformed embedding response: {exc}") from exc
            if len(vectors) != len(idxs):
                raise TransportError(
                    f"embedding response returned {len(vectors)} vectors for {len(idxs)} inputs"
                )
            # callers stack the rows into one matrix
            if any(vec.ndim != 1 for vec in vectors):
                raise TransportError("malformed embedding response: a row is not a 1-D array")
            dims.update(len(vec) for vec in vectors)
            if len(dims) > 1:
                raise TransportError(
                    f"malformed embedding response: rows of lengths {sorted(dims)} in one call"
                )
            for i, vec in zip(idxs, vectors):
                out[i] = vec
                if self._cache is not None:
                    key = _cache_key("embedding", model, texts[i])
                    self._cache.put_embedding(key, model, texts[i], vec)
        return out  # every slot is filled, or a call above raised


class ReplayProvider:
    """Serves completions and embeddings from a cache file; zero network use."""

    def __init__(self, cache_path: Union[str, Path], config: ProviderConfig | None = None):
        self.config = config or ProviderConfig()
        self._cache = ResponseCache(cache_path)

    def complete(self, request: CompletionRequest) -> str:
        check_budget(request, self.config)
        model = request.model or self.config.completion_model
        hit = self._cache.get_completion(_cache_key("completion", model, request.prompt))
        if hit is None:
            raise ReplayMissError(
                f"no cached completion for model {model!r}, prompt starting "
                f"{request.prompt[:80]!r}"
            )
        return hit

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        model = self.config.embedding_model
        out = []
        for text in texts:
            hit = self._cache.get_embedding(_cache_key("embedding", model, text))
            if hit is None:
                raise ReplayMissError(f"no cached embedding for text starting {text[:80]!r}")
            out.append(np.asarray(hit, dtype=np.float64))
        return out


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


class ScriptedProvider:
    """Rule-driven provider for tests and offline demo runs.

    ``script`` is an ordered list of (matcher, response) pairs.  A matcher is
    a plain substring or a compiled regex; the first matching rule answers.
    A response may be a callable taking the full prompt, for rules whose
    output depends on it.  Prompts nothing matches raise
    :class:`ScriptedMissError` — a scripted run must never improvise.
    """

    def __init__(
        self,
        script: Iterable[ScriptRule],
        config: ProviderConfig | None = None,
        embedder: Any | None = None,
    ):
        self.script = list(script)
        self.config = config or ProviderConfig()
        self.embedder = embedder or HashEmbedder()
        self.prompts: list[str] = []
        self.embedded: list[str] = []

    def complete(self, request: CompletionRequest) -> str:
        check_budget(request, self.config)
        self.prompts.append(request.prompt)
        for matcher, response in self.script:
            if isinstance(matcher, str):
                matched = matcher in request.prompt
            else:
                matched = bool(matcher.search(request.prompt))
            if matched:
                return response(request.prompt) if callable(response) else response
        raise ScriptedMissError(f"no scripted rule matches prompt starting {request.prompt[:80]!r}")

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        self.embedded.extend(texts)
        return self.embedder.embed(texts)


def load_script(path: Union[str, Path]) -> list[ScriptRule]:
    """Read a scripted-provider rule list from a JSON file.

    The file holds a list of ``{"match": substring, "response": text}``
    objects (``"regex": pattern`` may replace ``"match"``); order matters.
    """
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    rules: list[ScriptRule] = []
    for item in raw:
        if "regex" in item:
            rules.append((re.compile(item["regex"]), item["response"]))
        else:
            rules.append((item["match"], item["response"]))
    return rules
