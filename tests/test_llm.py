"""Provider-layer tests: token estimator, budgets, retries, caching, doubles."""

import json
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cti2stix
from cti2stix.llm import (
    BudgetError,
    CompletionRequest,
    HashEmbedder,
    HttpProvider,
    ProviderConfig,
    ProviderError,
    ReplayMissError,
    ReplayProvider,
    ResponseCache,
    ScriptedMissError,
    ScriptedProvider,
    TransportError,
    _cache_key,
    check_budget,
    context_budget,
    estimate_tokens,
    load_script,
)

LOREM = (
    "Lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do eiusmod "
    "tempor incididunt ut labore et dolore magna aliqua. Ut enim ad minim "
    "veniam, quis nostrud exercitation ullamco laboris nisi ut aliquip ex ea "
    "commodo consequat. Duis aute irure dolor in reprehenderit in voluptate "
    "velit esse cillum dolore eu fugiat nulla pariatur. Excepteur sint "
    "occaecat cupidatat non proident, sunt in culpa qui officia deserunt "
    "mollit anim id est laborum."
)


def lorem_words(n: int) -> str:
    words = LOREM.split()
    reps = (n // len(words)) + 1
    return " ".join((words * reps)[:n])


# ---------------------------------------------------------------------------
# token estimator


def test_estimate_empty_is_zero():
    assert estimate_tokens("") == 0


def test_estimate_three_thousand_words_in_expected_band():
    text = lorem_words(3000)
    assert 3300 <= estimate_tokens(text) <= 4600


def test_estimate_counts_long_unbroken_tokens_by_chars():
    blob = "a" * 8000
    assert estimate_tokens(blob) >= 1000


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=400), st.text(max_size=400))
def test_estimate_monotone_and_subadditive(a, b):
    joined = estimate_tokens(a + b)
    assert joined >= max(estimate_tokens(a), estimate_tokens(b))
    assert joined <= estimate_tokens(a) + estimate_tokens(b) + 1


@given(st.text(min_size=1, max_size=200))
def test_estimate_positive_for_nonempty(text):
    assert estimate_tokens(text) >= 1


# ---------------------------------------------------------------------------
# budget checks


def test_check_budget_accepts_small_prompt():
    config = ProviderConfig(context_window=4096)
    assert check_budget(CompletionRequest("short prompt", max_output_tokens=256), config) > 0


def test_check_budget_rejects_oversized_prompt():
    config = ProviderConfig(context_window=4096)
    request = CompletionRequest(lorem_words(6000), max_output_tokens=256)
    with pytest.raises(BudgetError):
        check_budget(request, config)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 400), st.integers(1, 600))
def test_context_budget_fits_check_budget(overhead_words, reserved):
    config = ProviderConfig(context_window=1024)
    empty = lorem_words(overhead_words)
    room = config.usable_window() - reserved - estimate_tokens(empty)
    if room <= 0:
        with pytest.raises(BudgetError, match="no room for context"):
            context_budget(config, empty, reserved)
        return
    assert context_budget(config, empty, reserved) == room
    if room >= 2:  # no non-empty text estimates below 2 tokens
        # a context of exactly that estimate still fits, because the estimate
        # of a concatenation is at most the sum of the parts'
        context = "x" * (8 * room)
        assert estimate_tokens(context) == room
        check_budget(CompletionRequest(empty + context, max_output_tokens=reserved), config)


def test_usable_window_applies_ten_percent_margin():
    assert ProviderConfig(context_window=4096).usable_window() == int(4096 * 0.9)


def test_oversized_request_never_reaches_transport(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append(url)
        return 200, {}

    provider = HttpProvider(ProviderConfig(context_window=1024), transport=transport)
    with pytest.raises(BudgetError):
        provider.complete(CompletionRequest(lorem_words(2000)))
    assert calls == []


# ---------------------------------------------------------------------------
# HttpProvider


def _ok_completion(text="fine"):
    return 200, {"choices": [{"message": {"content": text}}]}


def test_complete_posts_expected_payload(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "secret-key")
    seen = {}

    def transport(url, payload, headers, timeout):
        seen.update(url=url, payload=payload, headers=headers)
        return _ok_completion("the answer")

    provider = HttpProvider(ProviderConfig(), transport=transport)
    out = provider.complete(CompletionRequest("a question", max_output_tokens=128))
    assert out == "the answer"
    assert seen["url"].endswith("/chat/completions")
    assert seen["payload"]["model"] == "gpt-3.5-turbo"
    assert seen["payload"]["temperature"] == 0.0
    assert seen["payload"]["max_tokens"] == 128
    assert seen["payload"]["messages"] == [{"role": "user", "content": "a question"}]
    assert seen["headers"]["Authorization"] == "Bearer secret-key"


def test_missing_api_key_is_a_clear_error(monkeypatch):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    provider = HttpProvider(ProviderConfig(), transport=lambda *a: _ok_completion())
    with pytest.raises(ProviderError, match="OPENAI_API_KEY"):
        provider.complete(CompletionRequest("q"))


def test_rate_limit_retried_once_then_succeeds(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    statuses = iter([(429, {"error": {"message": "slow down"}}), _ok_completion("ok")])
    waits = []
    provider = HttpProvider(
        ProviderConfig(retry_backoff=0.25),
        transport=lambda *a: next(statuses),
        sleep=waits.append,
    )
    assert provider.complete(CompletionRequest("q")) == "ok"
    assert waits == [0.25]
    assert next(statuses, None) is None  # one retry: both answers were read


def test_non_retryable_status_fails_fast(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append(1)
        return 401, {"error": {"message": "bad key"}}

    provider = HttpProvider(ProviderConfig(), transport=transport)
    with pytest.raises(TransportError, match="401"):
        provider.complete(CompletionRequest("q"))
    assert len(calls) == 1


def test_retries_exhausted_raises(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    provider = HttpProvider(
        ProviderConfig(retry_attempts=3, retry_backoff=0.0),
        transport=lambda *a: (503, {"error": {"message": "down"}}),
        sleep=lambda s: None,
    )
    with pytest.raises(TransportError, match="after 3 attempts"):
        provider.complete(CompletionRequest("q"))


def test_error_body_whose_error_is_a_string_is_retried(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    answers = iter([(503, {"error": "model overloaded"}), _ok_completion("ok")])
    attempts = []

    def transport(url, payload, headers, timeout):
        attempts.append(url)
        return next(answers)

    provider = HttpProvider(ProviderConfig(), transport=transport, sleep=lambda s: None)
    assert provider._post("/chat/completions", {}) == _ok_completion("ok")[1]
    assert len(attempts) == 2


@pytest.mark.parametrize("body", [["bad", "request"], "bad request", None])
def test_error_body_of_any_json_names_its_status(monkeypatch, body):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    provider = HttpProvider(ProviderConfig(), transport=lambda *a: (400, body))
    with pytest.raises(TransportError, match="HTTP 400"):
        provider._post("/chat/completions", {})


def test_concurrency_never_exceeds_bound(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    lock = threading.Lock()
    state = {"active": 0, "peak": 0, "calls": 0}

    def transport(url, payload, headers, timeout):
        with lock:
            state["calls"] += 1
            state["active"] += 1
            state["peak"] = max(state["peak"], state["active"])
        time.sleep(0.01)
        with lock:
            state["active"] -= 1
        return _ok_completion()

    provider = HttpProvider(ProviderConfig(max_concurrent=2), transport=transport)
    threads = [
        threading.Thread(target=provider.complete, args=(CompletionRequest(f"q{i}"),))
        for i in range(16)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert state["peak"] <= 2
    assert state["calls"] == 16


def test_embeddings_restore_request_order(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "k")

    def transport(url, payload, headers, timeout):
        data = [
            {"index": i, "embedding": [float(i), 0.0]}
            for i in reversed(range(len(payload["input"])))
        ]
        return 200, {"data": data}

    provider = HttpProvider(ProviderConfig(), transport=transport)
    vectors = provider.embed(["a", "b", "c"])
    assert [v[0] for v in vectors] == [0.0, 1.0, 2.0]


@pytest.mark.parametrize("indices", [[1, 1], [0, 0], [1, 2], [-1, 0], [0], [0, 1, 2]])
def test_embedding_indices_other_than_each_input_once_rejected(monkeypatch, indices):
    monkeypatch.setenv("OPENAI_API_KEY", "k")

    def transport(url, payload, headers, timeout):
        return 200, {"data": [{"index": i, "embedding": [float(i), 0.0]} for i in indices]}

    provider = HttpProvider(ProviderConfig(), transport=transport)
    with pytest.raises(TransportError, match=f"returned {len(indices)} vectors for 2 inputs, "
                                             f"not one at each index 0 to 1"):
        provider.embed(["a", "b"])


@pytest.mark.parametrize("embedding", [None, [[1.0, 2.0]], ["x", "y"]])
def test_embedding_row_not_a_numeric_vector_rejected(monkeypatch, embedding):
    monkeypatch.setenv("OPENAI_API_KEY", "k")

    def transport(url, payload, headers, timeout):
        return 200, {"data": [{"index": 0, "embedding": embedding}]}

    provider = HttpProvider(ProviderConfig(), transport=transport)
    with pytest.raises(TransportError, match="malformed embedding response"):
        provider.embed(["a"])


@pytest.mark.parametrize("batch_size", [2, 1])
def test_embedding_rows_of_different_lengths_rejected(monkeypatch, batch_size):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    lengths = iter([1, 3])

    def transport(url, payload, headers, timeout):
        data = [{"index": i, "embedding": [1.0] * next(lengths)}
                for i in range(len(payload["input"]))]
        return 200, {"data": data}

    provider = HttpProvider(ProviderConfig(embed_batch_size=batch_size), transport=transport)
    with pytest.raises(TransportError, match=r"lengths \[1, 3\]"):
        provider.embed(["a", "b"])


def _length_transport(sent, dim=2):
    """An embeddings endpoint that records each request's texts and answers
    each text with ``[len(text), 1.0, ...]`` of *dim* values."""
    def transport(url, payload, headers, timeout):
        sent.append(list(payload["input"]))
        data = [{"index": i, "embedding": [float(len(t))] + [1.0] * (dim - 1)}
                for i, t in enumerate(payload["input"])]
        return 200, {"data": data}
    return transport


def test_cache_hit_is_returned_as_it_is(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    sent = []
    provider = HttpProvider(ProviderConfig(cache_path=str(tmp_path / "cache.jsonl")),
                            transport=_length_transport(sent))
    first = provider.embed(["a"])[0]
    again = provider.embed(["a", "a"])
    assert again[0] is again[1] and again[0].tobytes() == first.tobytes()
    assert provider.embed(["a"])[0] is again[0]
    assert not again[0].flags.writeable and sent == [["a"]]


def test_cached_and_fresh_vectors_of_different_lengths_rejected(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    path = tmp_path / "cache.jsonl"
    model = ProviderConfig.embedding_model
    ResponseCache(path).put_embedding(_cache_key("embedding", model, "old"), model, "old",
                                      [1.0, 0.0])
    sent = []
    provider = HttpProvider(ProviderConfig(cache_path=str(path)),
                            transport=_length_transport(sent, dim=3))
    with pytest.raises(TransportError, match=re.escape("rows of lengths [2, 3] in one call")):
        provider.embed(["old", "new"])
    assert sent == [["new"]]
    # the refused vector is not cached, so the next call asks again
    assert ResponseCache(path).get_embedding(_cache_key("embedding", model, "new")) is None
    assert provider.embed(["new"])[0].tolist() == [3.0, 1.0, 1.0]


def test_cached_vectors_of_different_lengths_rejected_before_any_request(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    path = tmp_path / "cache.jsonl"
    model = ProviderConfig.embedding_model
    cache = ResponseCache(path)
    for text, vector in (("two", [1.0, 0.0]), ("three", [1.0, 0.0, 0.0])):
        cache.put_embedding(_cache_key("embedding", model, text), model, text, vector)
    sent = []
    provider = HttpProvider(ProviderConfig(cache_path=str(path)), transport=_length_transport(sent))
    with pytest.raises(TransportError, match=re.escape("rows of lengths [2, 3] in one call")):
        provider.embed(["two", "three", "fresh"])
    assert sent == []


def test_embeddings_batched(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    batches = []

    def transport(url, payload, headers, timeout):
        batches.append(list(payload["input"]))
        data = [{"index": i, "embedding": [1.0]} for i in range(len(payload["input"]))]
        return 200, {"data": data}

    provider = HttpProvider(ProviderConfig(embed_batch_size=2), transport=transport)
    provider.embed([f"t{i}" for i in range(5)])
    assert [len(b) for b in batches] == [2, 2, 1]


def test_lone_surrogate_in_answer_becomes_replacement_character(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    cache_file = tmp_path / "cache.jsonl"
    provider = HttpProvider(ProviderConfig(cache_path=str(cache_file)),
                            transport=lambda *a: _ok_completion("HelloXD\ud800"))
    assert provider.complete(CompletionRequest("which malware?")) == "HelloXD\ufffd"
    assert "\ufffd" in cache_file.read_text(encoding="utf-8")

    # a cache line written elsewhere may hold the escape itself
    key = _cache_key("completion", "gpt-3.5-turbo", "old prompt")
    record = {"kind": "completion", "key": key, "response": "\udfffX"}
    cache_file.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert ReplayProvider(cache_file).complete(CompletionRequest("old prompt")) == "\ufffdX"


# ---------------------------------------------------------------------------
# the default transport, against a loopback HTTP/1.1 server


class _LoopbackHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body go out as two writes
    timeout = 5  # an idle keep-alive connection ends its thread after this

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            drop, self.server.drop_next = self.server.drop_next, False
        if drop:  # as a server does when a keep-alive connection times out
            self.close_connection = True
            return
        answer = payload["messages"][0]["content"].upper()
        body = json.dumps({"choices": [{"message": {"content": answer}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    server = ThreadingHTTPServer(("127.0.0.1", 0), _LoopbackHandler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.connections = 0
    server.drop_next = False
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


def _loopback_provider(server, max_concurrent, sleep=lambda s: None):
    endpoint = f"http://127.0.0.1:{server.server_address[1]}/v1"
    return HttpProvider(ProviderConfig(endpoint=endpoint, max_concurrent=max_concurrent),
                        sleep=sleep)


@pytest.mark.parametrize("max_concurrent", [1, 2])
def test_default_transport_reuses_connections(loopback, max_concurrent):
    provider = _loopback_provider(loopback, max_concurrent)
    prompts = [f"prompt {i}" for i in range(50)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        answers = list(pool.map(lambda p: provider.complete(CompletionRequest(p)), prompts))
    assert answers == [p.upper() for p in prompts]
    assert 1 <= loopback.connections <= max_concurrent


def test_default_transport_retries_a_connection_the_server_closed(loopback):
    waits = []
    provider = _loopback_provider(loopback, 1, sleep=waits.append)
    assert provider.complete(CompletionRequest("first")) == "FIRST"
    loopback.drop_next = True
    assert provider.complete(CompletionRequest("second")) == "SECOND"
    assert (len(waits), loopback.connections) == (1, 2)


# ---------------------------------------------------------------------------
# cache + replay


def test_cache_write_through_and_replay(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    cache_file = tmp_path / "cache.jsonl"
    network = []

    def transport(url, payload, headers, timeout):
        network.append(url)
        if url.endswith("/embeddings"):
            return 200, {"data": [{"index": i, "embedding": [0.5, 0.5]} for i in range(len(payload["input"]))]}
        return _ok_completion("cached answer")

    live = HttpProvider(ProviderConfig(cache_path=str(cache_file)), transport=transport)
    request = CompletionRequest("what is this")
    assert live.complete(request) == "cached answer"
    assert live.complete(request) == "cached answer"
    live.embed(["one text"])
    assert len([u for u in network if u.endswith("/chat/completions")]) == 1

    replay_calls = []
    replay = ReplayProvider(cache_file)
    assert replay.complete(CompletionRequest("what is this")) == "cached answer"
    assert np.allclose(replay.embed(["one text"])[0], [0.5, 0.5])
    assert replay_calls == []  # replay has no transport at all
    with pytest.raises(ReplayMissError):
        replay.complete(CompletionRequest("never asked"))
    with pytest.raises(ReplayMissError):
        replay.embed(["never embedded"])


def test_one_implementation_of_complete_and_embed():
    for double in (ReplayProvider, ScriptedProvider):
        assert double.complete is HttpProvider.complete
        assert double.embed is HttpProvider.embed


def test_replay_needs_no_api_key(monkeypatch, tmp_path):
    cache_file = tmp_path / "cache.jsonl"
    monkeypatch.setenv("OPENAI_API_KEY", "k")

    def transport(url, payload, headers, timeout):
        if url.endswith("/embeddings"):
            return 200, {"data": [{"index": 0, "embedding": [0.5, 0.5]}]}
        return _ok_completion("cached answer")

    live = HttpProvider(ProviderConfig(cache_path=str(cache_file)), transport=transport)
    live.complete(CompletionRequest("what is this"))
    live.embed(["one text"])

    def no_network(*args):
        raise AssertionError("replay contacted the endpoint")

    monkeypatch.delenv("OPENAI_API_KEY")
    monkeypatch.setattr("cti2stix.llm._requests_transport", no_network)
    replay = ReplayProvider(cache_file)
    assert replay.complete(CompletionRequest("what is this")) == "cached answer"
    assert replay.embed(["one text"])[0].tolist() == [0.5, 0.5]


def test_replay_miss_needs_no_api_key_and_is_not_retried(monkeypatch, tmp_path):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    sent = []
    monkeypatch.setattr("cti2stix.llm._requests_transport", lambda *a: sent.append(a))
    cache_file = tmp_path / "cache.jsonl"
    replay = ReplayProvider(cache_file)
    slept = []
    replay._sleep = slept.append
    with pytest.raises(ReplayMissError, match=re.escape(
            "no cached completion for model 'gpt-3.5-turbo', prompt starting 'never asked'")):
        replay.complete(CompletionRequest("never asked"))
    with pytest.raises(ReplayMissError,
                       match=re.escape("no cached embedding for text starting 'never embedded'")):
        replay.embed(["never embedded"])
    assert (sent, slept) == ([], [])
    assert not cache_file.exists()


def test_cache_survives_reload(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put_completion("k1", "m", "p", "r")
    cache.put_embedding("k2", "m", "t", [1.0, 2.0])
    again = ResponseCache(path)
    assert again.get_completion("k1") == "r"
    vector = again.get_embedding("k2")
    assert vector.tolist() == [1.0, 2.0] and vector.dtype == np.float64


def test_cache_mixes_list_and_base64_records(tmp_path):
    # "old" is an embedding record as versions before base64 records wrote it
    vector = np.array([0.1, -2.5e-300, 1e308, -0.0, 3.0, float("inf")])
    path = tmp_path / "cache.jsonl"
    ResponseCache(path).put_embedding("new", "m", "t", vector)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "embedding", "key": "old", "model": "m", "text": "t",
                             "vector": list(vector)}, ensure_ascii=False) + "\n")
        fh.write(json.dumps({"kind": "embedding", "key": "ints", "model": "m", "text": "t",
                             "vector": [1, -2]}) + "\n")
    ResponseCache(path).put_embedding("newer", "m", "t", vector)
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert [sorted(r) for r in records if r["key"].startswith("new")] == [
        ["key", "kind", "model", "text", "vector_f64"]] * 2

    cache = ResponseCache(path)
    for key in ("new", "old", "newer"):
        loaded = cache.get_embedding(key)
        assert loaded.tobytes() == vector.tobytes()
        assert loaded.dtype == np.float64 and not loaded.flags.writeable
    assert cache.get_embedding("ints").tolist() == [1.0, -2.0]


# every float64 bit pattern: signed zeros, subnormals, infinities, NaN payloads
_FLOAT64_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.floats().map(lambda f: int(np.float64(f).view(np.uint64))),
)

_EMBEDDING_READER = """
import sys
from cti2stix.llm import ResponseCache

for path in sys.stdin:
    print(ResponseCache(path.strip()).get_embedding("k").tobytes().hex(), flush=True)
"""


def _child_env():
    """The environment of a child process that imports this checkout's cti2stix."""
    src = str(Path(cti2stix.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture(scope="module")
def embedding_reader():
    """A child process that prints, for each cache path it reads on stdin,
    the hex bytes of the embedding under key ``k``."""
    with subprocess.Popen([sys.executable, "-c", _EMBEDDING_READER], env=_child_env(),
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as child:
        yield child
        child.stdin.close()
        assert child.wait(timeout=60) == 0


@settings(max_examples=60, deadline=None)
@given(bits=st.lists(_FLOAT64_BITS, max_size=24))
@example(bits=[])
@example(bits=[0x8000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF,
               0x7FF0000000000000, 0xFFF0000000000000, 0x7FF0000000000001,
               0xFFF8000000000123])
def test_embedding_bytes_survive_reload_in_two_processes(embedding_reader, tmp_path_factory, bits):
    vector = np.array(bits, dtype=np.uint64).view(np.float64)
    path = tmp_path_factory.mktemp("cache") / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put_embedding("k", "m", "t", vector)
    for held in (cache.get_embedding("k"), ResponseCache(path).get_embedding("k")):
        assert held.tobytes() == vector.tobytes()
        assert held.dtype == np.float64 and not held.flags.writeable
    embedding_reader.stdin.write(f"{path}\n")
    embedding_reader.stdin.flush()
    assert embedding_reader.stdout.readline().strip() == vector.tobytes().hex()


_GOOD_LINE = json.dumps({"kind": "completion", "key": "k0", "model": "m", "prompt": "p",
                         "response": "r"})


@pytest.mark.parametrize("line, message", [
    ("[1]", "line 2: not a JSON object"),
    ('"completion"', "line 2: not a JSON object"),
    ('{"kind": "completion"}', "line 2: completion record without a string 'key'"),
    ('{"kind": "completion", "key": "k"}',
     "line 2: completion record without a string 'response'"),
    ('{"kind": "completion", "key": "k", "response": null}',
     "line 2: completion record without a string 'response'"),
    ('{"kind": "embedding", "key": ["k"], "vector": [0.5]}',
     "line 2: embedding record without a string 'key'"),
    ('{"kind": "embedding", "key": "k"}',
     "line 2: embedding record without 'vector_f64' or 'vector'"),
    ('{"kind": "embedding", "key": "k", "vector": "0.5"}',
     "line 2: 'vector' is not a list of numbers"),
    ('{"kind": "embedding", "key": "k", "vector": [0.5, "1.5"]}',
     "line 2: 'vector' is not a list of numbers"),
    ('{"kind": "embedding", "key": "k", "vector": [true]}',
     "line 2: 'vector' is not a list of numbers"),
    ('{"kind": "embedding", "key": "k", "vector": [null]}',
     "line 2: 'vector' is not a list of numbers"),
    ('{"kind": "embedding", "key": "k", "vector": [[0.5]]}',
     "line 2: 'vector' is not a list of numbers"),
    ('{"kind": "embedding", "key": "k", "vector": [[0.5], [0.5, 1.0]]}',
     "line 2: 'vector' is not a list of numbers"),
    ('{"kind": "embedding", "key": "k", "vector_f64": "not base64!"}',
     "line 2: 'vector_f64' is not base64"),
    ('{"kind": "embedding", "key": "k", "vector_f64": "AAAA AAAAAAA="}',
     "line 2: 'vector_f64' is not base64"),
    ('{"kind": "embedding", "key": "k", "vector_f64": 7}', "line 2: 'vector_f64' is not base64"),
    ('{"kind": "embedding", "key": "k", "vector_f64": "AAAA"}',
     "line 2: 'vector_f64' holds 3 bytes, not a whole number of float64s"),
], ids=[
    "array", "string", "no-key", "no-response", "null-response", "list-key", "no-vector",
    "vector-string", "vector-mixed", "vector-bool", "vector-null", "vector-nested",
    "vector-ragged", "f64-not-base64", "f64-stray-space", "f64-number", "f64-partial",
])
@pytest.mark.parametrize("last", [False, True], ids=["middle", "last"])
def test_cache_record_that_is_not_whole_raises(tmp_path, line, message, last):
    path = tmp_path / "cache.jsonl"
    path.write_text("\n".join([_GOOD_LINE, line] + ([] if last else [_GOOD_LINE])) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(message)):
        ResponseCache(path)


def test_cache_ignores_records_of_other_kinds(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(_GOOD_LINE + '\n{"kind": "usage", "tokens": 3}\n{"key": "x"}\n',
                    encoding="utf-8")
    assert ResponseCache(path).get_completion("k0") == "r"


def _torn_cache(path):
    cache = ResponseCache(path)
    cache.put_completion("k1", "m", "p", "r1")
    cache.put_completion("k2", "m", "p", "r2")
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) - 12])  # crash in the middle of the second append
    return whole


def test_cache_skips_torn_last_line(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    _torn_cache(path)
    with caplog.at_level("WARNING", logger="cti2stix.llm"):
        cache = ResponseCache(path)
    assert cache.get_completion("k1") == "r1"
    assert cache.get_completion("k2") is None
    assert any("unparseable last line" in r.getMessage() for r in caplog.records)


def test_cache_corrupt_middle_line_raises(tmp_path):
    path = tmp_path / "cache.jsonl"
    whole = _torn_cache(path)
    lines = whole.decode("utf-8").splitlines(keepends=True)
    path.write_text(lines[0][:-12] + "\n" + lines[1], encoding="utf-8")
    with pytest.raises(json.JSONDecodeError):
        ResponseCache(path)


def test_replay_after_torn_tail(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    path = tmp_path / "cache.jsonl"
    live = HttpProvider(
        ProviderConfig(cache_path=str(path)), transport=lambda *a: _ok_completion("answer")
    )
    live.complete(CompletionRequest("what is this"))
    path.write_bytes(path.read_bytes() + b'{"kind": "completion", "key": "tr')
    replay = ReplayProvider(path)
    assert replay.complete(CompletionRequest("what is this")) == "answer"


def test_cache_append_after_torn_tail_stays_loadable(tmp_path):
    path = tmp_path / "cache.jsonl"
    _torn_cache(path)
    cache = ResponseCache(path)
    cache.put_completion("k2", "m", "p", "r2 again")
    cache.put_completion("k3", "m", "p", "r3")
    again = ResponseCache(path)
    assert [again.get_completion(k) for k in ("k1", "k2", "k3")] == ["r1", "r2 again", "r3"]


def test_torn_tail_cut_once_by_two_writers(tmp_path):
    # both writers loaded the torn file; the second must not cut at the old
    # offset again, which now holds the first writer's record
    path = tmp_path / "cache.jsonl"
    _torn_cache(path)
    first, second = ResponseCache(path), ResponseCache(path)
    first.put_completion("k3", "m", "p", "r3")
    second.put_completion("k4", "m", "p", "r4")
    again = ResponseCache(path)
    assert [again.get_completion(k) for k in ("k1", "k2", "k3", "k4")] == ["r1", None, "r3", "r4"]


def test_cache_keys_are_stable():
    # existing response caches replay only while these digests hold
    prompt = "Write a concise summary of the following:\nHelloXD\nCONCISE SUMMARY:"
    assert _cache_key("completion", "gpt-3.5-turbo", prompt) == (
        "f4b67ecf59ecf3bdecee7d878dc9783dd4a7909711988dbe29b282c95942e21e"
    )
    text = "The encryptor derives file keys locally."
    assert _cache_key("embedding", "text-embedding-ada-002", text) == (
        "8f33b5c6a92a4c68dfc82222c4b22f859dfa46ac48edf4ac92349492a85cc3dc"
    )


# ---------------------------------------------------------------------------
# scripted provider


def test_scripted_first_match_wins():
    provider = ScriptedProvider(
        [
            ("Question: Who/which is the target", "Windows and Linux systems"),
            ("Question:", "fallback"),
        ]
    )
    out = provider.complete(
        CompletionRequest("context...\nQuestion: Who/which is the target of the described attack?")
    )
    assert out == "Windows and Linux systems"
    assert provider.complete(CompletionRequest("Question: anything else")) == "fallback"


def test_scripted_regex_and_callable_rules():
    provider = ScriptedProvider(
        [
            (re.compile(r"summary of the following", re.I), lambda p: p.splitlines()[1]),
        ]
    )
    out = provider.complete(CompletionRequest("Write a concise summary of the following:\nBODY\nCONCISE SUMMARY:"))
    assert out == "BODY"


def test_scripted_miss_raises():
    provider = ScriptedProvider([("only this", "x")])
    with pytest.raises(ScriptedMissError):
        provider.complete(CompletionRequest("something else entirely"))


def test_scripted_provider_enforces_budget():
    provider = ScriptedProvider([("", "x")], config=ProviderConfig(context_window=64))
    with pytest.raises(BudgetError):
        provider.complete(CompletionRequest(lorem_words(200)))


def test_scripted_provider_writes_no_cache(tmp_path):
    cache_file = tmp_path / "cache.jsonl"
    provider = ScriptedProvider([("", "answer")], config=ProviderConfig(cache_path=str(cache_file)))
    assert provider.complete(CompletionRequest("question")) == "answer"
    provider.embed(["text"])
    assert (provider.prompts, provider.embedded) == (["question"], ["text"])
    assert not cache_file.exists()


def test_scripted_embeddings_pass_the_response_checks():
    class Ragged:
        def embed(self, texts):
            return [np.ones(i + 1) for i in range(len(texts))]

    provider = ScriptedProvider([], embedder=Ragged())
    with pytest.raises(TransportError, match="rows of lengths"):
        provider.embed(["a", "b"])


def test_load_script(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(
        json.dumps(
            [
                {"match": "alpha", "response": "one"},
                {"regex": "bet+a", "response": "two"},
            ]
        )
    )
    provider = ScriptedProvider(load_script(path))
    assert provider.complete(CompletionRequest("alpha question")) == "one"
    assert provider.complete(CompletionRequest("a bettta question")) == "two"


# ---------------------------------------------------------------------------
# hash embedder


def test_hash_embedder_deterministic_unit_vectors():
    emb = HashEmbedder(dim=16)
    a1, a2 = emb.embed(["same text", "same text"])
    b = emb.embed_one("different text")
    assert np.array_equal(a1, a2)
    assert a1.shape == (16,)
    assert np.isclose(np.linalg.norm(a1), 1.0)
    assert not np.array_equal(a1, b)


_APPENDER = """
import sys, time
from pathlib import Path
from cti2stix.llm import ResponseCache, _cache_key

path, tag, go = sys.argv[1], sys.argv[2], Path(sys.argv[3])
cache = ResponseCache(path)
deadline = time.monotonic() + 30
while not go.exists() and time.monotonic() < deadline:
    time.sleep(0.001)
for i in range(200):
    prompt = f"{tag}-{i}"
    cache.put_completion(_cache_key("completion", "m", prompt), "m", prompt,
                         prompt + "x" * (70_000 if i % 10 == 0 else 100))
"""


def test_two_processes_append_to_one_cache(tmp_path):
    path = tmp_path / "cache.jsonl"
    go = tmp_path / "go"
    children = [subprocess.Popen([sys.executable, "-c", _APPENDER, str(path), tag, str(go)],
                                 env=_child_env(), stderr=subprocess.PIPE, text=True)
                for tag in ("a", "b")]
    go.touch()
    for child in children:
        _, err = child.communicate(timeout=60)
        assert child.returncode == 0, err

    replay = ReplayProvider(path, ProviderConfig(completion_model="m"))
    for tag in ("a", "b"):
        for i in range(200):
            prompt = f"{tag}-{i}"
            expected = prompt + "x" * (70_000 if i % 10 == 0 else 100)  # 20 over 64 KB each
            assert replay.complete(CompletionRequest(prompt)) == expected
    assert len(path.read_bytes().splitlines()) == 400
