"""Provider-layer tests: token estimator, budgets, retries, caching, doubles."""

import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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


def test_request_defaults_to_temperature_zero():
    assert CompletionRequest("hi").temperature == 0.0


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
    assert provider.retries_total == 1
    assert waits == [0.25]


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


def test_concurrency_never_exceeds_bound(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    lock = threading.Lock()
    state = {"active": 0, "peak": 0}

    def transport(url, payload, headers, timeout):
        with lock:
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
    assert provider.calls_total == 16


@pytest.mark.parametrize("fail_first", [False, True])
def test_counters_exact_under_threads(monkeypatch, fail_first):
    monkeypatch.setenv("OPENAI_API_KEY", "k")
    n_threads, n_calls = 8, 50
    lock = threading.Lock()
    seen = set()

    def transport(url, payload, headers, timeout):
        prompt = payload["messages"][0]["content"]
        with lock:
            first = prompt not in seen
            seen.add(prompt)
        if fail_first and first:
            return 429, {"error": {"message": "slow down"}}
        return _ok_completion()

    provider = HttpProvider(
        ProviderConfig(max_concurrent=n_threads, retry_backoff=0.0),
        transport=transport,
        sleep=lambda s: None,
    )

    def worker(t):
        for i in range(n_calls):
            provider.complete(CompletionRequest(f"q{t}-{i}"))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so lost updates would show
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    requests_made = n_threads * n_calls
    assert provider.retries_total == (requests_made if fail_first else 0)
    assert provider.calls_total == requests_made + provider.retries_total


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


def test_cache_survives_reload(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put_completion("k1", "m", "p", "r")
    cache.put_embedding("k2", "m", "t", [1.0, 2.0])
    again = ResponseCache(path)
    assert again.get_completion("k1") == "r"
    assert again.get_embedding("k2") == [1.0, 2.0]


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
    src = str(Path(cti2stix.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    children = [subprocess.Popen([sys.executable, "-c", _APPENDER, str(path), tag, str(go)],
                                 env=env, stderr=subprocess.PIPE, text=True)
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
