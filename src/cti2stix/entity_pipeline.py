"""The named-entity pipeline: condense, extract, verify, relate, assemble.

The flow for one report.  Prompts carry the report's *prompt text*
(:attr:`cti2stix.ingest.Report.prompt_text`): the original with every
observable the IoC regexes find replaced by a type marker such as
``[ipv4]``, since those values become entities without the model, and each
run of lines with nothing but markers and type labels (a masked IoC table)
folded into one count line such as ``[2000 observables: 1600 sha256, ...]``.

1. **Condense** — if the report does not fit the prompt budget, summarize it
   chunk by chunk and re-join, repeating until it fits (iterative
   summarization).  Reports that already fit pass through verbatim.
2. **Extract** — one question per entity kind, asked against the condensed
   text (or against every chunk when preprocessing is ablated), each with a
   short definition of the kind.
3. **Verify** — every candidate name must be grounded in the *original*
   report: first a literal substring check, then a yes/no question per chunk
   for names the model may have reworded.  Unverifiable names are dropped,
   and their decision carries a warning; this is the hallucination guard.
4. **Relate** — for each ordered pair of verified entities with at least one
   admissible relation kind, ask one direct question whose answer is
   constrained to those kinds (or "none").  Extracted target names become
   Identity entities and receive a Targets edge from each principal Malware
   and ThreatActor; that edge is implied by the target question itself, so it
   is attached without an extra query.
5. **IoCs** — regex indicators and CVEs from the original text.  Their
   Indicates edges to each malware are structural, so assembly derives them
   (:mod:`cti2stix.exporter`).

Every prompt, response, and decision is recorded on the caller's audit
trail so runs can be replayed and inspected; every question to the model
goes through :func:`cti2stix.audit.ask`, which records it and its answer.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Any, Sequence

from .audit import AuditTrail, ask, is_negative_answer
from .ingest import CHUNK_TOKENS, Report, chunk_text, collapse_whitespace
from .ingest import segment_sentences  # noqa: F401  perfbench's traced pass wraps this binding
from .iocs import ioc_entities
from .llm import ProviderConfig, context_budget, estimate_tokens
from .stix import (
    PRINCIPAL_KINDS,
    EntityKind,
    RelationKind,
    StixBundle,
    StixEntity,
    StixRelation,
    admissible_relations,
    new_bundle,
)

logger = logging.getLogger(__name__)

SUMMARY_PROMPT = "Write a concise summary of the following:\n{text}\nCONCISE SUMMARY:"

ENTITY_PROMPT = (
    "Use the following pieces of context to answer the question at the end.\n"
    "{context}\n"
    "{definition}\n"
    "Question: {question}\n"
    "Answer with one name per line; write none if absent."
)

VERIFY_PROMPT = (
    "Use the following portion of a long document to answer the question at the end.\n"
    "{text}\n"
    'Question: Is "{name}" mentioned in the text above? Answer yes or no.'
)

RELATION_PROMPT = (
    "Use the following pieces of context to answer the question at the end.\n"
    "{context}\n"
    'Question: What is the relation between "{source}" and "{target}"? '
    "Answer with one of: {options}, or none."
)

# prompt shapes, sized for a GPT-3.5-class window: the tokens reserved for a
# summary and for a short answer, how many summarization rounds condensation
# may take, and the context held back from the extraction budget for the
# longer relation wording
SUMMARY_OUTPUT_TOKENS = 512
ANSWER_OUTPUT_TOKENS = 256
CONDENSE_ITERATION_CAP = 3
RELATION_PROMPT_SLACK = 160

_BULLET_RE = re.compile(r"^\s*(?:[-*•]|\d{1,2}[.)])\s+")
_ANSWER_PREFIX_RE = re.compile(r"^\s*answer\s*:\s*", re.IGNORECASE)


class CondensationError(Exception):
    """Iterative summarization could not reach the token budget."""


@dataclass
class EntityQuery:
    """One extraction question: which kind to look for, how it is defined,
    and what to ask."""

    name: str
    entity_kind: EntityKind
    definition: str
    question: str


# The questions asked of every report, in this order; the definitions
# paraphrase the STIX 2.1 vocabulary.
QUERIES: tuple[EntityQuery, ...] = (
    EntityQuery(
        name="malware",
        entity_kind=EntityKind.MALWARE,
        definition=(
            "Malware is malicious software or code — such as ransomware, a trojan, "
            "a backdoor, or a worm — inserted into a system to compromise the "
            "confidentiality, integrity, or availability of data or applications."
        ),
        question="Who/which is the malware used in the described attack?",
    ),
    EntityQuery(
        name="threat_actor",
        entity_kind=EntityKind.THREAT_ACTOR,
        definition=(
            "A threat actor is an individual, group, or organization believed to be "
            "operating with malicious intent, such as a cybercriminal crew or an "
            "espionage group."
        ),
        question="Who/which is the threat actor performing the described attack?",
    ),
    EntityQuery(
        name="target",
        entity_kind=EntityKind.IDENTITY,
        definition=(
            "A target is the individual, organization, sector, or class of systems "
            "that the described attack is directed against."
        ),
        question="Who/which is the target of the described attack?",
    ),
)


@dataclass
class EntityPipelineConfig:
    preprocessing: bool = True


# ---------------------------------------------------------------------------
# prompt budgets


def extraction_budget(provider_config: ProviderConfig) -> int:
    """Largest context (in estimated tokens) that still leaves room for the
    biggest extraction prompt plus the reserved answer inside the margined
    window, less the slack relation prompts need for their longer wording."""
    reserved = ANSWER_OUTPUT_TOKENS + RELATION_PROMPT_SLACK
    return min(
        context_budget(provider_config, ENTITY_PROMPT.format(
            context="", definition=q.definition, question=q.question), reserved)
        for q in QUERIES
    )


# ---------------------------------------------------------------------------
# condensation


def condense(
    report: Report, provider: Any, audit: AuditTrail, target_tokens: int | None = None
) -> str:
    """Shrink a report's text under *target_tokens* by iterative chunk
    summarization, and return it.

    The report's prompt text is what shrinks; reports already under budget
    pass through verbatim.  The audit records one ``condense`` decision for a
    pass-through and one per iteration, each with the text's estimated
    tokens.  Raises :class:`CondensationError` when the iteration cap is
    reached with the text still over budget (e.g. a summarizer that refuses
    to compress).
    """
    if target_tokens is None:
        target_tokens = extraction_budget(provider.config)
    current = report.prompt_text
    tokens = estimate_tokens(current)
    if tokens <= target_tokens:
        audit.record("condense", "decision", outcome="pass-through", tokens=tokens)
        return current

    chunk_budget = min(CHUNK_TOKENS, context_budget(
        provider.config, SUMMARY_PROMPT.format(text=""), SUMMARY_OUTPUT_TOKENS))
    iterations = 0
    while iterations < CONDENSE_ITERATION_CAP:
        iterations += 1
        chunks = chunk_text(current, chunk_budget)
        summaries = []
        for i, chunk in enumerate(chunks):
            response = ask(provider, audit, "condense", SUMMARY_PROMPT.format(text=chunk),
                           SUMMARY_OUTPUT_TOKENS, iteration=iterations, chunk=i)
            summaries.append(response.strip())
        current = "\n\n".join(s for s in summaries if s)
        tokens = estimate_tokens(current)
        audit.record("condense", "decision", outcome="iteration", iteration=iterations, tokens=tokens)
        if tokens <= target_tokens:
            return current
    raise CondensationError(
        f"report {report.id}: {tokens} estimated tokens still exceed "
        f"budget {target_tokens} after {iterations} summarization iterations"
    )


# ---------------------------------------------------------------------------
# extraction


def parse_name_lines(response: str) -> list[str]:
    """Turn a model answer into a clean, order-preserving list of names.

    Strips bullets, numbering, quotes, an ``Answer:`` prefix, and one
    trailing period; negative answers ("none", "n/a", ...) yield no names.
    """
    names: list[str] = []
    seen: set[str] = set()
    for line in response.splitlines():
        line = _ANSWER_PREFIX_RE.sub("", _BULLET_RE.sub("", line.strip())).strip()
        if not line:
            continue
        if len(line) > 1 and line.endswith(".") and not line.endswith(".."):
            line = line[:-1]
        line = line.strip("\"'“”‘’ ").strip()
        if is_negative_answer(line):
            continue
        key = collapse_whitespace(line).casefold()
        if key in seen:
            continue
        seen.add(key)
        names.append(line)
    return names


def extract_entities(
    context: str,
    query: EntityQuery,
    provider: Any,
    audit: AuditTrail,
    context_id: str = "condensed",
) -> list[str]:
    """Ask one entity question against one context; return candidate names."""
    prompt = ENTITY_PROMPT.format(context=context, definition=query.definition, question=query.question)
    response = ask(provider, audit, "extract", prompt, ANSWER_OUTPUT_TOKENS,
                   query=query.name, context_id=context_id)
    names = parse_name_lines(response)
    audit.record("extract", "decision", query=query.name, names=names, context_id=context_id)
    return names


def verify_entity(name: str, report: Report, provider: Any, audit: AuditTrail) -> bool:
    """Ground a candidate name in the original report: a substring hit, or
    else a per-chunk yes/no question that confirms a reworded mention.  The
    audit's ``verify`` decision records which (``literal``, ``llm`` or
    ``unverified``)."""
    squashed = collapse_whitespace(name).casefold()
    if squashed and squashed in report.squashed_text:
        audit.record("verify", "decision", name=name, outcome="literal")
        return True

    budget = context_budget(provider.config, VERIFY_PROMPT.format(text="", name=name),
                            ANSWER_OUTPUT_TOKENS)
    for i, chunk in enumerate(chunk_text(report.prompt_text, budget)):
        response = ask(provider, audit, "verify", VERIFY_PROMPT.format(text=chunk, name=name),
                       ANSWER_OUTPUT_TOKENS, name=name, chunk=i)
        if response.strip().casefold().startswith("yes"):
            audit.record("verify", "decision", name=name, outcome="llm")
            return True
    audit.record("verify", "decision", name=name, outcome="unverified",
                 warning=f"{name!r} is not grounded in the report")
    return False


# ---------------------------------------------------------------------------
# relations


def _parse_relation_answer(response: str, options: dict[str, RelationKind]) -> tuple[RelationKind | None, str]:
    lowered = response.casefold()
    hits: list[tuple[int, RelationKind]] = []
    for token, kind in options.items():
        m = re.search(rf"\b{re.escape(token)}\b", lowered)
        if m:
            hits.append((m.start(), kind))
    if not hits:
        if re.search(r"\bnone\b", lowered) or is_negative_answer(collapse_whitespace(response)):
            return None, ""
        return None, f"unparseable relation answer: {response[:80]!r}"
    distinct = {kind for _, kind in hits}
    if len(distinct) > 1:
        return None, f"ambiguous relation answer: {response[:80]!r}"
    return hits[0][1], ""


def extract_relations(
    contexts: Sequence[str],
    entities: Sequence[StixEntity],
    provider: Any,
    audit: AuditTrail,
) -> list[StixRelation]:
    """One direct relation question per ordered pair of *entities* with a
    non-empty admissible kind set; return the relations the model confirmed.
    Answers outside that set parse to none, and the pair's decision carries
    a warning.  With several contexts (ablated preprocessing) the first
    non-none answer wins."""
    pairs = [
        (a, b)
        for a in entities
        for b in entities
        if a.id != b.id and admissible_relations(a.kind, b.kind)
    ]
    relations: list[StixRelation] = []
    for a, b in pairs:
        kinds = admissible_relations(a.kind, b.kind)
        options = {k.value: k for k in sorted(kinds, key=lambda r: r.value)}
        found: RelationKind | None = None
        warning = ""
        for ctx_index, context in enumerate(contexts):
            prompt = RELATION_PROMPT.format(
                context=context, source=a.name, target=b.name, options=", ".join(options),
            )
            response = ask(provider, audit, "relations", prompt, ANSWER_OUTPUT_TOKENS,
                           source=a.name, target=b.name, context_id=str(ctx_index))
            found, warning = _parse_relation_answer(response, options)
            if found is not None:
                break
        audit.record(
            "relations", "decision", source=a.name, target=b.name,
            outcome=found.value if found else "none", warning=warning,
        )
        if found is not None:
            relations.append(StixRelation(found, a.id, b.id))
    return relations


# ---------------------------------------------------------------------------
# the full pipeline


def run_entity_pipeline(
    report: Report,
    provider: Any,
    audit: AuditTrail,
    config: EntityPipelineConfig | None = None,
) -> StixBundle:
    """Run the complete entity flow for one report, recording on *audit*,
    and return the partial bundle (entities, Targets and LLM-answered
    relations, IoCs)."""
    config = config or EntityPipelineConfig()

    if not report.text.strip():
        audit.record("ingest", "decision", outcome="empty", warning="the report has no text")
        return new_bundle(report.id)

    budget = extraction_budget(provider.config)
    if config.preprocessing:
        contexts = [condense(report, provider, audit, target_tokens=budget)]
        context_ids = ["condensed"]
    else:
        contexts = chunk_text(report.prompt_text, budget)
        context_ids = [f"chunk-{i}" for i in range(len(contexts))]
        audit.record("condense", "decision", outcome="ablated", chunks=len(contexts))

    # extract + verify per query; the first entity with an id is kept
    unique: dict[str, StixEntity] = {}
    for query in QUERIES:
        candidates: dict[str, str] = {}  # squashed name -> first spelling seen
        for context, context_id in zip(contexts, context_ids):
            for name in extract_entities(context, query, provider, audit, context_id):
                candidates.setdefault(collapse_whitespace(name).casefold(), name)
        for name in candidates.values():
            if verify_entity(name, report, provider, audit):
                entity = StixEntity(query.entity_kind, name)
                unique.setdefault(entity.id, entity)

    entities = list(unique.values())
    principals = [e for e in entities if e.kind in PRINCIPAL_KINDS]
    target_identities = [e for e in entities if e.kind is EntityKind.IDENTITY]

    relations: list[StixRelation] = []

    # the target question already asserts the Targets relation; attach it
    # from every principal without a second query
    for identity in target_identities:
        for principal in principals:
            if RelationKind.TARGETS in admissible_relations(principal.kind, identity.kind):
                relations.append(StixRelation(RelationKind.TARGETS, principal.id, identity.id))
                audit.record(
                    "relations", "decision", source=principal.name, target=identity.name,
                    outcome="targets", rule="principal-target",
                )

    # LLM relation queries among the remaining (non-identity) verified pairs
    queryable = [e for e in entities if e.kind is not EntityKind.IDENTITY]
    relations += extract_relations(contexts, queryable, provider, audit)

    # IoCs from the spans found in the original text; assembly draws their
    # indicates edges
    iocs = ioc_entities(report.ioc_spans)
    existing_ids = {e.id for e in entities}
    iocs = [e for e in iocs if e.id not in existing_ids]
    refused = len(report.refused_domains)
    folded = report.folded_observables
    audit.record("iocs", "decision", count=len(iocs),
                 masked=sum(m.ioc_type != "cve" for m in report.ioc_spans),
                 tokens=estimate_tokens(report.text),
                 prompt_tokens=estimate_tokens(report.prompt_text),
                 **({"refused": refused} if refused else {}),
                 **({"folded": folded} if folded else {}))

    bundle = new_bundle(report.id)
    bundle.entities = entities + iocs
    bundle.relations = relations
    return bundle
