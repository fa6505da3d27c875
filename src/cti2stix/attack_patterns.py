"""Attack-pattern (technique) extraction.

Three candidate-generation strategies feed one embedding classifier:

* ``vte`` — ask the model to quote report text relevant to attacker
  techniques, verbatim; quoted paragraphs become candidates.  A guard drops
  any response text that is not actually a substring of the chunk (the model
  paraphrased), because a non-verbatim "quote" can smuggle in hallucinated
  behavior.
* ``sbsa`` — ask for a step-by-step restatement of key facts; each step is a
  candidate.  Steps are model prose, not quotes, so no verbatim guard.
* ``ot`` — no model at all: every sentence of the report is a candidate.

Each unique candidate text is embedded once, and all of a report's candidate
vectors are compared (cosine) against every catalog example in one matrix
product; a technique matches when its best example scores at or above the
threshold.  Explicit technique ids written in the report (T1059,
T1027.002, ...) are unioned in regardless of scores.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

import numpy as np

from .catalog import TECHNIQUE_ID_RE, TechniqueCatalog, parent_technique, row_norms
from .audit import AuditTrail, ask
from .entity_pipeline import chunk_text
from .ingest import Report, collapse_whitespace, segment_sentences
from .llm import context_budget

logger = logging.getLogger(__name__)

VTE_PROMPT = (
    "Use the following portion of a long document to see if any of the text is "
    "relevant to answer the question. Return any relevant text verbatim.\n"
    "{text}\n"
    "Question: Which techniques are used by the attacker?\n"
    "Report only Relevant text, if any"
)

SBSA_PROMPT = (
    "Describe step by step the key facts in the following text:\n"
    "{text}\n"
    "KEY FACTS:"
)

_NEGATIVE_RESPONSES = frozenset(
    {"", "none", "none.", "no", "no relevant text", "no relevant text.", "n/a",
     "no relevant text found", "no relevant text found.", "there is no relevant text."}
)
_STEP_PREFIX_RE = re.compile(r"^\s*(?:\d+[.):]\s*|[-*•]\s+|step\s+\d+\s*[:.]\s*)", re.IGNORECASE)


@dataclass
class AttackPatternConfig:
    strategies: tuple[str, ...] = ("vte", "sbsa", "ot")
    threshold: float = 0.80
    chunk_tokens: int = 1024
    strategy_output_tokens: int = 512
    include_explicit: bool = True


@dataclass
class Candidate:
    text: str
    origin: str  # "vte" | "sbsa" | "ot"
    source_id: str


@dataclass
class TechniqueMatch:
    technique_id: str
    name: Optional[str]
    score: Optional[float]  # None for matches from explicit ids only
    example_id: Optional[str]
    candidate: Optional[Candidate]
    explicit: bool = False
    supporting: list[str] = field(default_factory=list)


@dataclass
class AttackPatternResult:
    report_id: str
    matches: list[TechniqueMatch]
    candidate_counts: dict[str, int]
    warnings: list[dict[str, Any]]
    audit: AuditTrail

    def technique_ids(self) -> list[str]:
        return [m.technique_id for m in self.matches]


def _strategy_chunks(report: Report, config: AttackPatternConfig, provider: Any,
                     prompt_template: str) -> list[str]:
    budget = context_budget(provider.config, prompt_template.format(text=""),
                            config.strategy_output_tokens)
    return chunk_text(report.text, min(config.chunk_tokens, budget))


def strategy_vte(report: Report, provider: Any, config: AttackPatternConfig,
                 audit: AuditTrail, warnings: list[dict[str, Any]]) -> list[Candidate]:
    """Verbatim-text-extraction: quote relevant passages, one candidate per
    quoted paragraph, with a whitespace-insensitive substring guard."""
    candidates: list[Candidate] = []
    for i, chunk in enumerate(_strategy_chunks(report, config, provider, VTE_PROMPT)):
        response = ask(provider, audit, "attack-pattern", VTE_PROMPT.format(text=chunk),
                       config.strategy_output_tokens, strategy="vte", chunk=i)
        if response.strip().casefold() in _NEGATIVE_RESPONSES:
            continue
        squashed_chunk = collapse_whitespace(chunk).casefold()
        for para in re.split(r"\n\s*\n", response):
            para = para.strip()
            if not para or para.casefold() in _NEGATIVE_RESPONSES:
                continue
            if collapse_whitespace(para).casefold() in squashed_chunk:
                candidates.append(Candidate(text=para, origin="vte", source_id=f"chunk-{i}"))
            else:
                warnings.append({
                    "kind": "non-verbatim",
                    "strategy": "vte",
                    "chunk": i,
                    "text": para,
                })
                logger.warning("vte response not verbatim in chunk %d; dropped: %.60s", i, para)
    return candidates


def strategy_sbsa(report: Report, provider: Any, config: AttackPatternConfig,
                  audit: AuditTrail) -> list[Candidate]:
    """Step-by-step abstraction: each step line of the response is a candidate."""
    candidates: list[Candidate] = []
    for i, chunk in enumerate(_strategy_chunks(report, config, provider, SBSA_PROMPT)):
        response = ask(provider, audit, "attack-pattern", SBSA_PROMPT.format(text=chunk),
                       config.strategy_output_tokens, strategy="sbsa", chunk=i)
        for n, line in enumerate(response.splitlines()):
            step = _STEP_PREFIX_RE.sub("", line).strip()
            if not step or step.casefold() in _NEGATIVE_RESPONSES:
                continue
            candidates.append(Candidate(text=step, origin="sbsa", source_id=f"chunk-{i}-step-{n}"))
    return candidates


def strategy_ot(report: Report) -> list[Candidate]:
    """One-sentence-at-a-time: every sentence is a candidate, no model calls."""
    sentences = report.sentences or segment_sentences(report.text)
    out = []
    for s in sentences:
        text = s.text.strip()
        if text:
            out.append(Candidate(text=text, origin="ot", source_id=f"sentence-{s.index}"))
    return out


# below this norm the squared components are subnormal or zero, so the norm
# has lost precision
_TINY_NORM = float(np.sqrt(np.finfo(np.float64).tiny))


# queries scored per matrix product: bounds the (queries, catalog rows) score
# arrays of a report with thousands of candidates to a fraction of the catalog
_QUERY_BLOCK = 128


def _peak_scaled(rows: np.ndarray) -> np.ndarray:
    peak = np.abs(rows).max(axis=1, keepdims=True, initial=0.0)
    return rows / np.where(peak > 0.0, peak, 1.0)


def cosine_scores(queries: np.ndarray, rows: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Cosine of each query with each row, as a ``(len(queries), len(rows))``
    array; 0.0 where either has zero norm.

    ``norms`` are the rows' norms from :func:`row_norms`, computed once per
    catalog.  A query or row too small for an exact norm is first divided by
    its largest magnitude, which keeps its direction.
    """
    q = np.asarray(queries, dtype=np.float64)
    q_norms = row_norms(q)
    tiny_q = q_norms < _TINY_NORM
    if tiny_q.any():
        q = np.where(tiny_q[:, np.newaxis], _peak_scaled(q), q)
        q_norms = row_norms(q)
    dots = q @ rows.T
    denominators = np.multiply.outer(q_norms, norms)
    tiny = np.flatnonzero(norms < _TINY_NORM)
    if tiny.size:
        scaled = _peak_scaled(rows[tiny])  # copies only the tiny rows
        dots[:, tiny] = q @ scaled.T
        denominators[:, tiny] = np.multiply.outer(q_norms, row_norms(scaled))
    return np.divide(dots, denominators, out=np.zeros_like(dots), where=denominators != 0.0)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors: the one-by-one case of
    :func:`cosine_scores`."""
    rows = np.asarray(b, dtype=np.float64)[np.newaxis]
    return float(cosine_scores(np.asarray(a, dtype=np.float64)[np.newaxis], rows,
                               row_norms(rows))[0, 0])


def classify_vectors(
    vectors: np.ndarray, catalog: TechniqueCatalog, threshold: float
) -> list[list[tuple[str, float, str]]]:
    """For each row of ``vectors``, all techniques whose best catalog example
    scores >= threshold.

    Each row's hits are ``(technique_id, best_score, best_example_id)`` tuples
    sorted by technique id; the best example is the first of a technique's
    top scorers in catalog order.  Multi-label on purpose: one sentence can
    exhibit several techniques.
    """
    queries = np.asarray(vectors, dtype=np.float64)
    if not catalog.entries:
        return [[] for _ in range(len(queries))]
    ends = np.append(catalog.starts[1:], len(catalog.order))
    out: list[list[tuple[str, float, str]]] = []
    for lo in range(0, len(queries), _QUERY_BLOCK):
        block = queries[lo:lo + _QUERY_BLOCK]
        scores = cosine_scores(block, catalog.vectors, catalog.norms)[:, catalog.order]
        best = np.maximum.reduceat(scores, catalog.starts, axis=1)
        for row_scores, row_best in zip(scores, best):
            hits = []
            for s in np.flatnonzero(row_best >= threshold):
                j = catalog.starts[s] + int(np.argmax(row_scores[catalog.starts[s]:ends[s]]))
                entry = catalog.entries[catalog.order[j]]
                hits.append((entry.technique_id, float(row_scores[j]), entry.example_id))
            out.append(hits)
    return out


def classify_vector(
    vector: np.ndarray, catalog: TechniqueCatalog, threshold: float
) -> list[tuple[str, float, str]]:
    """The one-vector case of :func:`classify_vectors`."""
    return classify_vectors(np.asarray(vector, dtype=np.float64)[np.newaxis], catalog,
                            threshold)[0]


def detect_explicit_techniques(text: str) -> list[str]:
    """Technique ids written out in the text, collapsed to parents, first
    occurrence order, deduplicated."""
    seen: list[str] = []
    for match in TECHNIQUE_ID_RE.finditer(text):
        parent = parent_technique(match.group(0))
        if parent not in seen:
            seen.append(parent)
    return seen


def run_attack_pattern_pipeline(
    report: Report,
    catalog: Union[TechniqueCatalog, Future[TechniqueCatalog]],
    provider: Any,
    config: Optional[AttackPatternConfig] = None,
) -> AttackPatternResult:
    """Gather, embed and score *report*'s technique candidates.

    *catalog* may be a future of one still loading: the pipeline waits for it
    only after the candidates are gathered and embedded, just before scoring,
    and re-raises the load's exception.
    """
    config = config or AttackPatternConfig()
    audit = AuditTrail(report.id)
    warnings: list[dict[str, Any]] = []

    candidates: list[Candidate] = []
    counts: dict[str, int] = {}
    for strategy in config.strategies:
        if strategy == "vte":
            found = strategy_vte(report, provider, config, audit, warnings)
        elif strategy == "sbsa":
            found = strategy_sbsa(report, provider, config, audit)
        elif strategy == "ot":
            found = strategy_ot(report)
        else:
            raise ValueError(f"unknown strategy: {strategy!r}")
        counts[strategy] = len(found)
        candidates.extend(found)
    audit.record("attack-pattern", "decision", rule="candidates", counts=dict(counts))

    unique_texts: list[str] = []
    seen_texts: set[str] = set()
    for c in candidates:
        if c.text not in seen_texts:
            seen_texts.add(c.text)
            unique_texts.append(c.text)
    vectors = np.asarray(provider.embed(unique_texts), dtype=np.float64) if unique_texts else None
    if isinstance(catalog, Future):
        catalog = catalog.result()
    hits_by_text: dict[str, list[tuple[str, float, str]]] = {}
    if unique_texts:
        hits_by_text = dict(zip(unique_texts,
                                classify_vectors(vectors, catalog, config.threshold)))

    names = catalog.technique_names()
    matches: dict[str, TechniqueMatch] = {}
    for candidate in candidates:
        for tid, score, example_id in hits_by_text[candidate.text]:
            current = matches.get(tid)
            if current is None:
                matches[tid] = TechniqueMatch(
                    technique_id=tid, name=names.get(tid), score=score,
                    example_id=example_id, candidate=candidate,
                    supporting=[candidate.text],
                )
            else:
                if candidate.text not in current.supporting:
                    current.supporting.append(candidate.text)
                if current.score is None or score > current.score:
                    current.score = score
                    current.example_id = example_id
                    current.candidate = candidate

    if config.include_explicit:
        for tid in detect_explicit_techniques(report.text):
            if tid in matches:
                matches[tid].explicit = True
            else:
                matches[tid] = TechniqueMatch(
                    technique_id=tid, name=names.get(tid), score=None,
                    example_id=None, candidate=None, explicit=True,
                )
            audit.record("attack-pattern", "decision", rule="explicit-id", technique=tid)

    ordered = [matches[tid] for tid in sorted(matches)]
    return AttackPatternResult(
        report_id=report.id,
        matches=ordered,
        candidate_counts=counts,
        warnings=warnings,
        audit=audit,
    )
