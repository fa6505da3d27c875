"""Deterministic stand-in for an OpenAI-compatible endpoint.

An :class:`Endpoint` is a ``Transport`` (``(url, payload, headers, timeout)
-> (status, body)``) for :class:`cti2stix.llm.HttpProvider`.  Installed at
``cti2stix.llm._requests_transport`` it replaces only the HTTP client: the
provider's budget check, semaphore, retry loop and response cache all run as
in live use.

Answers come from the generator's rules (see ``corpus.py``):

* summaries keep every sentence that names a planted entity or technique and
  every second other sentence, so each pass shrinks a chunk by a fixed ratio;
* entity questions list the planted names of the asked kind found in the
  context, rewording some and adding decoys as the rules say;
* yes/no verification and relation questions answer from the same rules;
* the relevant-text and step-by-step strategies return the planted catalog
  sentences found in the chunk;
* ``/embeddings`` returns 1536-dimension hash embeddings, the same function
  the catalog was built with, so verbatim catalog sentences score 1.0.

Each request takes ``fixed_s + prompt_token_s * estimate_tokens(prompt) +
answer_token_s * estimate_tokens(answer)`` of wall time (sleeping for whatever
the answer computation did not use), so the number of calls, the prompt sizes
and the answer sizes all show up in wall time.  A seeded share of
first attempts is refused with HTTP 429; the choice hashes the request, so
it does not depend on how threads interleave.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
from collections import defaultdict

from cti2stix.llm import HashEmbedder, estimate_tokens

from corpus import CATALOG_DIM

_SUMMARY = re.compile(r"\AWrite a concise summary of the following:\n(.*)\nCONCISE SUMMARY:\Z", re.S)
_ENTITY = re.compile(r"\nQuestion: Who/which is the (malware|threat actor|target) ")
_VERIFY = re.compile(r'\nQuestion: Is "(.*)" mentioned in the text above\? Answer yes or no\.\Z', re.S)
_RELATION = re.compile(r'\nQuestion: What is the relation between "(.*)" and "(.*)"\? '
                       r"Answer with one of: (.*), or none\.\Z", re.S)
_VTE = re.compile(r"\AUse the following portion of a long document to see if any of the text "
                  r"is relevant.*?\n(.*)\nQuestion: Which techniques", re.S)
_SBSA = re.compile(r"\ADescribe step by step the key facts in the following text:\n(.*)\nKEY FACTS:\Z", re.S)
_SENTENCE_END = re.compile(r"(?<=[.!?)])\s+")

_KIND_BY_QUESTION = {"malware": "malware", "threat actor": "threat_actor", "target": "target"}


class Endpoint:
    """Transport callable with an answer model, a latency model, seeded 429s
    and per-report, per-stage counters."""

    def __init__(self, rules: dict, seed: int, fixed_s: float, prompt_token_s: float,
                 answer_token_s: float, refuse_share: float):
        self.fixed_s = fixed_s
        self.prompt_token_s = prompt_token_s
        self.answer_token_s = answer_token_s
        self.refuse_share = refuse_share
        self.salt = f"perfbench:{seed}".encode()
        self.embedder = HashEmbedder(CATALOG_DIM)
        self.kinds: dict[str, str] = rules["kinds"]
        self.answer_as: dict[str, str] = rules["answer_as"]
        self.canonical = {alias: name for name, alias in self.answer_as.items()}
        self.missed = set(rules["missed"])
        self.relations = {tuple(p) for p in rules["relations"]}
        self.technique_sentences = rules["technique_sentences"]
        self.paraphrase_sentences = rules["paraphrase_sentences"]
        names = sorted(self.kinds, key=len, reverse=True)
        self._names_re = re.compile(r"\b(?:" + "|".join(map(re.escape, names)) + r")\b")
        self._special_re = re.compile(
            "|".join(map(re.escape, [*names, *self.technique_sentences,
                                     *self.paraphrase_sentences]))
        )
        # the report a thread is working on, set by the benchmark around each
        # report; requests outside a report are booked under "-"
        self.context = threading.local()
        self._lock = threading.Lock()
        self._attempted: set[bytes] = set()
        self.counters: dict[tuple[str, str], dict[str, float]] = defaultdict(
            lambda: defaultdict(float))

    # -- bookkeeping --------------------------------------------------------

    def _refuse(self, key: bytes) -> bool:
        """True for a seeded share of first attempts, chosen by request hash."""
        with self._lock:
            first = key not in self._attempted
            self._attempted.add(key)
        if not first:
            return False
        return int.from_bytes(key[:4], "big") / 2**32 < self.refuse_share

    def reset(self) -> dict[tuple[str, str], dict[str, float]]:
        """Start afresh, as for a new run against a new endpoint session;
        returns the counters gathered so far."""
        with self._lock:
            counters, self.counters = self.counters, defaultdict(lambda: defaultdict(float))
            self._attempted.clear()
        return counters

    def _count(self, stage: str, **values: float) -> None:
        report = getattr(self.context, "report", "-")
        with self._lock:
            row = self.counters[(report, stage)]
            for name, value in values.items():
                row[name] += value

    # -- transport ----------------------------------------------------------

    def __call__(self, url: str, payload: dict, headers: dict, timeout: float) -> tuple[int, dict]:
        start = time.perf_counter()
        if url.endswith("/embeddings"):
            texts = list(payload["input"])
            stage, tokens = "embed", sum(estimate_tokens(t) for t in texts)
            key_text = "\x00".join(texts)
        else:
            prompt = payload["messages"][0]["content"]
            stage, tokens = self._stage(prompt), estimate_tokens(prompt)
            key_text = prompt
        key = hashlib.sha256(self.salt + key_text.encode("utf-8")).digest()

        if self._refuse(key):
            self._count(stage, requests=1, refused=1)
            self._sleep_until(start + self.fixed_s)
            return 429, {"error": {"message": "rate limit reached (stand-in)"}}

        answer_tokens = 0
        if stage == "embed":
            rows = [{"index": i, "embedding": self.embedder.embed_one(t).tolist()}
                    for i, t in enumerate(texts)]
            body = {"data": rows}
            self._count(stage, requests=1, answered=1, prompt_tokens=tokens, texts=len(texts))
        else:
            answer, useful = self._answer(stage, prompt)
            answer_tokens = estimate_tokens(answer)
            body = {"choices": [{"message": {"role": "assistant", "content": answer}}]}
            self._count(stage, requests=1, answered=1, prompt_tokens=tokens, useful=useful,
                        answer_tokens=answer_tokens)
        self._sleep_until(start + self.fixed_s + self.prompt_token_s * tokens
                          + self.answer_token_s * answer_tokens)
        return 200, body

    @staticmethod
    def _sleep_until(deadline: float) -> None:
        remaining = deadline - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)

    # -- answer model -------------------------------------------------------

    @staticmethod
    def _stage(prompt: str) -> str:
        if prompt.startswith("Write a concise summary"):
            return "condense"
        if prompt.startswith("Describe step by step"):
            return "sbsa"
        if "Report only Relevant text" in prompt:
            return "vte"
        if "Answer yes or no." in prompt:
            return "verify"
        if "Question: What is the relation between" in prompt:
            return "relate"
        if "Answer with one name per line" in prompt:
            return "extract"
        raise ValueError(f"stand-in cannot classify prompt starting {prompt[:60]!r}")

    def _answer(self, stage: str, prompt: str) -> tuple[str, int]:
        """(answer text, 1 when the answer carries information else 0)."""
        if stage == "condense":
            return self._summarize(_SUMMARY.match(prompt).group(1)), 1
        if stage == "extract":
            kind = _KIND_BY_QUESTION[_ENTITY.search(prompt).group(1)]
            names: list[str] = []
            for m in self._names_re.finditer(prompt):
                name = m.group(0)
                found = self.kinds[name]
                if found == "decoy" and kind == "malware":
                    found = "malware"
                if found != kind or name in self.missed:
                    continue
                answer = self.answer_as.get(name, name)
                if answer not in names:
                    names.append(answer)
            return ("\n".join(names), 1) if names else ("none", 0)
        if stage == "verify":
            m = _VERIFY.search(prompt)
            name = self.canonical.get(m.group(1), m.group(1))
            grounded = name in prompt[: m.start()]
            return ("Yes." if grounded else "No."), int(grounded)
        if stage == "relate":
            m = _RELATION.search(prompt)
            source = self.canonical.get(m.group(1), m.group(1))
            target = self.canonical.get(m.group(2), m.group(2))
            if (source, target) in self.relations and "uses" in m.group(3).split(", "):
                return "uses", 1
            return "none", 0
        if stage == "vte":
            chunk = _VTE.match(prompt).group(1)
            quotes = [s for s in self.technique_sentences if s in chunk]
            return ("\n\n".join(quotes), 1) if quotes else ("No relevant text.", 0)
        if stage == "sbsa":
            chunk = _SBSA.match(prompt).group(1)
            steps = [s for s in (*self.technique_sentences, *self.paraphrase_sentences)
                     if s in chunk]
            if not steps:
                return "none", 0
            return "\n".join(f"{n}. {s}" for n, s in enumerate(steps, 1)), 1
        raise ValueError(stage)

    def _summarize(self, text: str) -> str:
        kept: list[str] = []
        other = 0
        for sentence in _SENTENCE_END.split(text.strip()):
            if not sentence:
                continue
            if self._special_re.search(sentence):
                kept.append(sentence)
            else:
                if other % 2 == 0:
                    kept.append(sentence)
                other += 1
        return " ".join(kept)
