"""Attack-pattern (technique) extraction.

Three candidate-generation strategies feed one embedding classifier:

* ``vte`` — ask the model to quote report text relevant to attacker
  techniques, verbatim; quoted paragraphs become candidates.  A guard drops
  any response text that is not actually a substring of the chunk (the model
  paraphrased), because a non-verbatim "quote" can smuggle in hallucinated
  behavior; each drop is a decision with a warning on the audit trail.
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
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .catalog import CatalogError, TechniqueCatalog, row_norms
from .audit import AuditTrail, ask, is_negative_answer
from .ingest import CHUNK_TOKENS, Report, chunk_text, collapse_whitespace
from .ingest import segment_sentences  # noqa: F401  perfbench's traced pass wraps this binding
from .llm import context_budget
from .stix import TECHNIQUE_ID_RE, parent_technique

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

# tokens reserved for a vte or sbsa answer
STRATEGY_OUTPUT_TOKENS = 512

# the candidate strategies a config may name
STRATEGIES = ("vte", "sbsa", "ot")

_STEP_PREFIX_RE = re.compile(r"^\s*(?:\d+[.):]\s*|[-*•]\s+|step\s+\d+\s*[:.]\s*)", re.IGNORECASE)


@dataclass
class AttackPatternConfig:
    strategies: tuple[str, ...] = STRATEGIES
    threshold: float = 0.80

    def __post_init__(self) -> None:
        # a repeat would ask every vte or sbsa prompt again
        for i, strategy in enumerate(self.strategies):
            if strategy not in STRATEGIES:
                raise ValueError(f"attack_patterns.strategies: unknown strategy {strategy!r}; "
                                 f"choose from {', '.join(STRATEGIES)}")
            if strategy in self.strategies[:i]:
                raise ValueError(f"attack_patterns.strategies: {strategy!r} is named twice")
        if not (isinstance(self.threshold, (int, float)) and -1.0 <= self.threshold <= 1.0):
            raise ValueError(f"attack_patterns.threshold: {self.threshold!r} is not a "
                             f"cosine in [-1, 1]")


@dataclass
class TechniqueMatch:
    technique_id: str
    name: Optional[str]
    score: Optional[float]  # None for matches from explicit ids only


def _strategy_chunks(report: Report, provider: Any, prompt_template: str) -> list[str]:
    """The chunks a strategy prompt carries: none for a blank report."""
    budget = context_budget(provider.config, prompt_template.format(text=""), STRATEGY_OUTPUT_TOKENS)
    return chunk_text(report.text, min(CHUNK_TOKENS, budget)) if report.text.strip() else []


def strategy_vte(report: Report, provider: Any, audit: AuditTrail) -> list[str]:
    """Verbatim-text-extraction: quote relevant passages, one candidate per
    quoted paragraph, with a whitespace-insensitive substring guard."""
    candidates: list[str] = []
    for i, chunk in enumerate(_strategy_chunks(report, provider, VTE_PROMPT)):
        response = ask(provider, audit, "attack-pattern", VTE_PROMPT.format(text=chunk),
                       STRATEGY_OUTPUT_TOKENS, strategy="vte", chunk=i)
        if is_negative_answer(response):
            continue
        squashed_chunk = collapse_whitespace(chunk).casefold()
        for para in re.split(r"\n\s*\n", response):
            para = para.strip()
            if is_negative_answer(para):
                continue
            if collapse_whitespace(para).casefold() in squashed_chunk:
                candidates.append(para)
            else:
                audit.record("attack-pattern", "decision", rule="non-verbatim", strategy="vte",
                             chunk=i, text=para, warning="quote is not verbatim in its chunk")
                logger.warning("vte response not verbatim in chunk %d; dropped: %.60s", i, para)
    return candidates


def strategy_sbsa(report: Report, provider: Any, audit: AuditTrail) -> list[str]:
    """Step-by-step abstraction: each step line of the response is a candidate."""
    candidates: list[str] = []
    for i, chunk in enumerate(_strategy_chunks(report, provider, SBSA_PROMPT)):
        response = ask(provider, audit, "attack-pattern", SBSA_PROMPT.format(text=chunk),
                       STRATEGY_OUTPUT_TOKENS, strategy="sbsa", chunk=i)
        for line in response.splitlines():
            step = _STEP_PREFIX_RE.sub("", line).strip()
            if not is_negative_answer(step):
                candidates.append(step)
    return candidates


def strategy_ot(report: Report) -> list[str]:
    """One-sentence-at-a-time: every sentence is a candidate, no model calls."""
    return [text for text in (s.strip() for s in report.sentences) if text]


# the float32 norms below which squared components are subnormal or zero, so
# the norm has lost precision, and above which their sum overflows
_TINY_NORM = float(np.sqrt(np.finfo(np.float32).tiny))
_HUGE_NORM = float(np.sqrt(np.finfo(np.float32).max))


# queries scored per matrix product: bounds the (queries, catalog rows) score
# arrays of a report with thousands of candidates to a fraction of the catalog
_QUERY_BLOCK = 128


def _peak_scaled(rows: np.ndarray) -> np.ndarray:
    peak = np.abs(rows).max(axis=1, keepdims=True, initial=0.0)
    return rows / np.where(peak > 0.0, peak, 1.0)


def cosine_scores(queries: np.ndarray, rows: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Cosine of each query with each row, as a ``(len(queries), len(rows))``
    array; 0.0 where either has zero norm.

    ``rows`` are a catalog's float32 matrix, and ``norms`` their norms from
    :func:`row_norms`, computed once per catalog.  Scores are computed in
    float32: only the queries are cast, since a mixed-dtype product would
    copy the whole of ``rows``.  A query or row too small or too large for an
    exact float32 norm is first divided by its largest magnitude, which keeps
    its direction.
    """
    q = np.asarray(queries, dtype=np.float64)
    q_norms = row_norms(q)
    inexact_q = (q_norms < _TINY_NORM) | (q_norms > _HUGE_NORM)
    if inexact_q.any():
        q = np.where(inexact_q[:, np.newaxis], _peak_scaled(q), q)
    q = q.astype(np.float32)
    q_norms = row_norms(q)
    # a product with a row of norm above _HUGE_NORM may overflow; that
    # column is recomputed from the scaled row below
    with np.errstate(over="ignore"):
        dots = q @ rows.T
    with np.errstate(invalid="ignore"):  # 0 * inf, in columns replaced below
        denominators = np.multiply.outer(q_norms, norms)
    inexact = np.flatnonzero((norms < _TINY_NORM) | (norms > _HUGE_NORM))
    if inexact.size:
        scaled = _peak_scaled(rows[inexact])  # copies only those rows
        dots[:, inexact] = q @ scaled.T
        denominators[:, inexact] = np.multiply.outer(q_norms, row_norms(scaled))
    return np.divide(dots, denominators, out=np.zeros_like(dots), where=denominators != 0.0)


def classify_vectors(
    vectors: np.ndarray, catalog: TechniqueCatalog, threshold: float
) -> dict[str, float]:
    """``{technique_id: best score}`` over every technique whose best catalog
    example scores >= threshold against any row of ``vectors``, in
    technique-id order.

    Multi-label on purpose: one sentence can exhibit several techniques.  A
    row whose scores are NaN (a NaN embedding) scores nothing and hides no
    other row's hits.  A score is compared with the threshold as a float64,
    the value returned.
    """
    queries = np.asarray(vectors, dtype=np.float64)
    if not len(catalog.vectors) or not len(queries):
        return {}
    best = None
    for lo in range(0, len(queries), _QUERY_BLOCK):
        scores = cosine_scores(queries[lo:lo + _QUERY_BLOCK], catalog.vectors, catalog.norms)
        # each technique's best row, then its best query; fmax skips a NaN
        # query, where a plain maximum would wipe out every hit
        block_best = np.fmax.reduce(np.maximum.reduceat(scores, catalog.starts, axis=1), axis=0)
        best = block_best if best is None else np.fmax(best, block_best)
    # as float64: against float32 scores a Python float is rounded
    return {tid: score for tid, score in zip(catalog.technique_names(),
                                             best.astype(np.float64).tolist())
            if score >= threshold}


def classify_vector(
    vector: np.ndarray, catalog: TechniqueCatalog, threshold: float
) -> dict[str, float]:
    """The one-vector case of :func:`classify_vectors`."""
    return classify_vectors(np.asarray(vector, dtype=np.float64)[np.newaxis], catalog,
                            threshold)


def detect_explicit_techniques(text: str) -> list[str]:
    """Technique ids written out in the text, collapsed to parents, first
    occurrence order, deduplicated."""
    return list(dict.fromkeys(parent_technique(m.group(0))
                              for m in TECHNIQUE_ID_RE.finditer(text)))


def run_attack_pattern_pipeline(
    report: Report,
    catalog: TechniqueCatalog,
    provider: Any,
    audit: AuditTrail,
    config: Optional[AttackPatternConfig] = None,
) -> list[TechniqueMatch]:
    """Gather, embed and score *report*'s technique candidates, recording on
    *audit*, and return the matches in technique-id order: the model stage
    :func:`embed_candidates`, then the scoring stage :func:`score_candidates`.
    """
    config = config or AttackPatternConfig()
    vectors = embed_candidates(report, provider, audit, config)
    return score_candidates(report, vectors, catalog, config)


def embed_candidates(report: Report, provider: Any, audit: AuditTrail,
                     config: AttackPatternConfig) -> Optional[np.ndarray]:
    """The model stage: gather *report*'s candidates with each configured
    strategy and embed each unique candidate text once, recording on *audit*
    everything the technique pipeline records, the technique ids written in
    *report* included.  Returns the ``(texts, dim)`` float64 vectors, or None
    for no candidate."""
    candidates: list[str] = []
    counts: dict[str, int] = {}
    for strategy in config.strategies:
        if strategy == "vte":
            found = strategy_vte(report, provider, audit)
        elif strategy == "sbsa":
            found = strategy_sbsa(report, provider, audit)
        else:
            found = strategy_ot(report)
        counts[strategy] = len(found)
        candidates.extend(found)
    audit.record("attack-pattern", "decision", rule="candidates", counts=counts)
    for tid in detect_explicit_techniques(report.text):
        audit.record("attack-pattern", "decision", rule="explicit-id", technique=tid)

    unique_texts = list(dict.fromkeys(candidates))
    return np.asarray(provider.embed(unique_texts), dtype=np.float64) if unique_texts else None


def score_candidates(
    report: Report,
    vectors: Optional[np.ndarray],
    catalog: TechniqueCatalog,
    config: AttackPatternConfig,
) -> list[TechniqueMatch]:
    """The scoring stage: score the candidate *vectors* from
    :func:`embed_candidates` against *catalog*, union in the technique ids
    written in *report*, and return the matches in technique-id order.  It
    asks the model nothing and records nothing.  Raises
    :class:`CatalogError` when the vectors and the catalog differ in
    dimension."""
    # each technique's best score over the unique candidate texts
    best: dict[str, Optional[float]] = {}
    if vectors is not None:
        if vectors.shape[1] != catalog.vectors.shape[1]:
            raise CatalogError(f"the provider embeds in {vectors.shape[1]} dimensions, "
                               f"the catalog in {catalog.vectors.shape[1]}")
        best.update(classify_vectors(vectors, catalog, config.threshold))

    for tid in detect_explicit_techniques(report.text):
        best.setdefault(tid, None)

    names = catalog.technique_names()
    return [TechniqueMatch(tid, names.get(tid), best[tid]) for tid in sorted(best)]
