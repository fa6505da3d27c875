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

Each unique candidate text is embedded once and scaled to a unit vector, and
all of a report's candidate vectors are compared (cosine) against every
catalog example, whose rows the catalog stores as unit vectors: one product
per block of the catalog's rows, each block read once.  A technique matches
when its best example scores at or above the threshold.  Explicit technique
ids written in the report (T1059, T1027.002, ...) are unioned in regardless
of scores.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .catalog import CatalogError, TechniqueCatalog, unit_rows
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


# catalog rows scored per product: whole technique segments, 1.5 MB of a
# 1536-dimension float32 matrix.  A mapped catalog keeps the block's pages
# resident while it scores, in whole page-cache folios of up to 2 MB: a block
# under 2 MB lies in at most two of them.  Every query scores against a block
# in one product: at 1536 dimensions its (queries, block rows) score arrays
# take a twelfth of the float64 queries' bytes
_ROW_BLOCK = 256

# query counts up to this one are scored one dot product at a time (see
# _dots).  Whole calls over the 10,000-row bench catalog, warm, on a 2-vCPU
# host: the two kernels tie up to 6 queries; from 7 on the matrix product is
# faster, and the dot products take 6-11% longer at 7 and 1.3-1.7 times as
# long at 8 to 12
_FEW_QUERIES = 6


def _dots(q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``q @ rows.T``.  Up to ``_FEW_QUERIES`` queries are taken one dot
    product per (query, row) pair, which BLAS runs on the calling thread.
    BLAS splits a matrix product across its worker threads, and when a
    worker shares the caller's CPU, as it may just after the host idled,
    each hand-off waits out a time slice: a product per row block then
    stalled a 6-query report for 0.7 s.  With more queries the matrix
    product is the faster, though its first call in a fresh process just
    out of idle still pays that stall."""
    if len(q) <= _FEW_QUERIES:
        # each (1, dim) @ (dim, 1) item of the stack is one dot product; the
        # stack runs row-major, so each row is read from memory once
        return np.matmul(rows[:, np.newaxis, np.newaxis], q[:, :, np.newaxis])[..., 0, 0].T
    return q @ rows.T


def _row_blocks(starts: np.ndarray, rows: int):
    """``(first, end, lo, hi)`` for each row block of a catalog whose
    segments begin at *starts*: techniques ``first:end``, rows ``lo:hi``.  A
    block holds whole segments, at most ``_ROW_BLOCK`` rows, or one segment
    alone when it is longer."""
    ends = np.append(starts[1:], rows)  # each segment's end row
    first = 0
    while first < len(starts):
        lo = int(starts[first])
        end = max(first + 1, int(np.searchsorted(ends, lo + _ROW_BLOCK, side="right")))
        yield first, end, lo, int(ends[end - 1])
        first = end


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

    The catalog is read once per call, one row block at a time, every query
    scored against a block in one product, and each block is released once
    scored, so a mapped catalog keeps at most one block resident.
    """
    queries = np.asarray(vectors, dtype=np.float64)
    if not len(catalog.vectors) or not len(queries):
        return {}
    # the catalog's rows are unit vectors, so with unit queries each dot
    # product is a cosine; a zero query scores 0.0 and a NaN one NaN
    q = unit_rows(queries)
    best = np.empty(len(catalog.starts), dtype=np.float32)
    for first, end, lo, hi in _row_blocks(catalog.starts, len(catalog.vectors)):
        scores = _dots(q, catalog.vectors[lo:hi])
        catalog.release_rows(lo, hi)
        # each technique's best row, then its best query; fmax skips a NaN
        # query, where a plain maximum would wipe out every hit
        best[first:end] = np.fmax.reduce(
            np.maximum.reduceat(scores, catalog.starts[first:end] - lo, axis=1), axis=0)
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
