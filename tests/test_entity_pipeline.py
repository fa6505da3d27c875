"""Entity-pipeline tests: chunking, condensation, extraction, verification,
relation queries, and the assembled partial bundle."""

import hashlib
import re
import time
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cti2stix import ingest
from cti2stix.audit import AuditTrail
from cti2stix.entity_pipeline import (
    ANSWER_OUTPUT_TOKENS,
    CondensationError,
    ENTITY_PROMPT,
    EntityPipelineConfig,
    EntityQuery,
    QUERIES,
    RELATION_PROMPT,
    SUMMARY_PROMPT,
    VERIFY_PROMPT,
    condense,
    extract_entities,
    extract_relations,
    extraction_budget,
    parse_name_lines,
    run_entity_pipeline,
    verify_entity,
)
from cti2stix.exporter import assemble_bundle
from cti2stix.ingest import chunk_text, make_report, segment_sentences
from cti2stix.iocs import ioc_entities, scan_iocs
from cti2stix.llm import ProviderConfig, ScriptedProvider, estimate_tokens
from cti2stix.stix import (
    EntityKind,
    RelationKind,
    StixEntity,
    StixRelation,
    save_bundle,
    validate_bundle,
)


def scripted(script, window=4096):
    return ScriptedProvider(script, config=ProviderConfig(context_window=window))


def audit():
    return AuditTrail("t")


def run_pipeline(report, provider, config=None):
    """(bundle, trail) of one pipeline run on a fresh trail."""
    trail = AuditTrail(report.id)
    return run_entity_pipeline(report, provider, trail, config), trail


def decisions(trail, stage):
    return [e.data for e in trail.events if e.stage == stage and e.event == "decision"]


def outcomes(trail, stage):
    return [d["outcome"] for d in decisions(trail, stage)]


# ---------------------------------------------------------------------------
# chunking


TEN_SENTENCES = " ".join(
    "Alpha beta gamma delta epsilon zeta eta theta iota kappa." for _ in range(10)
)


def brute_force_chunk_boundaries(text: str, budget: int) -> list[str]:
    """Independent greedy reference: extend the current chunk sentence by
    sentence while the estimate stays within budget."""
    chunks, current = [], ""
    for piece in segment_sentences(text):
        if current and estimate_tokens(current + piece) > budget:
            chunks.append(current)
            current = piece
        else:
            current += piece
    if current:
        chunks.append(current)
    return chunks


def test_ten_sentences_pack_into_three_chunks():
    budget = estimate_tokens(" ".join(["Alpha beta gamma delta epsilon zeta eta theta iota kappa."] * 4))
    chunks = chunk_text(TEN_SENTENCES, budget)
    assert chunks == brute_force_chunk_boundaries(TEN_SENTENCES, budget)
    assert len(chunks) == 3
    assert "".join(chunks) == TEN_SENTENCES
    sentence_ends = set(accumulate(map(len, segment_sentences(TEN_SENTENCES))))
    cursor = 0
    for chunk in chunks:
        assert estimate_tokens(chunk) <= budget
        cursor += len(chunk)
        assert cursor in sentence_ends


def test_single_oversized_sentence_splits_on_words():
    words = " ".join(f"word{i}" for i in range(3600))  # ~4800 estimated tokens
    sentence = words + "."
    chunks = chunk_text(sentence, 1000)
    assert len(chunks) > 1
    assert "".join(chunks) == sentence
    for chunk in chunks:
        assert estimate_tokens(chunk) <= 1000
    # word-boundary splits: no chunk may cut a word in half
    for left, right in zip(chunks, chunks[1:]):
        assert left[-1].isspace() or not right[:1].isalnum() or not left[-1].isalnum()


def test_unbroken_word_cut_into_budget_sized_chunks():
    chunks = chunk_text("x" * 1000, 30)
    assert "".join(chunks) == "x" * 1000
    assert [estimate_tokens(chunk) for chunk in chunks] == [30, 30, 30, 30, 5]


# one unbroken token (a hex dump, a URL list without spaces) longer than any prompt
HEX_DUMP_REPORT = "GrimVault drops a payload. " + "ab" * 30_000 + " It beacons home."


def test_verify_keeps_unbroken_token_chunks_in_budget():
    report = make_report(HEX_DUMP_REPORT, report_id="r-hex")
    provider = scripted([('Is "SpectralKit" mentioned', "No.")])
    ok = verify_entity("SpectralKit", report, provider, audit())
    assert not ok
    assert len(provider.prompts) > 1


def test_ablated_pipeline_keeps_unbroken_token_chunks_in_budget():
    report = make_report(HEX_DUMP_REPORT, report_id="r-hex")
    provider = scripted([
        ("Question: Who/which is the malware", "GrimVault"),
        ("Question: Who/which is the", "none"),
    ])
    bundle, trail = run_pipeline(report, provider, EntityPipelineConfig(preprocessing=False))
    assert [e.name for e in bundle.entities_of_kind(EntityKind.MALWARE)] == ["GrimVault"]


def test_chunk_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        chunk_text("text", 0)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=400), st.integers(min_value=8, max_value=64))
def test_chunks_always_concatenate_to_input(text, budget):
    assert "".join(chunk_text(text, budget)) == text


def reference_estimate_tokens(text: str) -> int:
    """``estimate_tokens`` as first written, counting words with a regex."""
    if not text:
        return 0
    words = len(re.findall(r"\S+", text))
    return max((4 * words + 2) // 3, (len(text) + 7) // 8)


def reference_split_oversized(piece: str, budget: int) -> list[str]:
    """``_split_oversized`` as first written: one estimate of the whole
    chunk so far per word."""
    tokens = re.findall(r"\S+\s*|\s+", piece)
    out: list[str] = []
    current = ""
    for token in tokens:
        if current and reference_estimate_tokens(current + token) > budget:
            out.append(current)
            current = token
        else:
            current += token
    if current:
        out.append(current)
    final: list[str] = []
    for part in out:
        while reference_estimate_tokens(part) > budget and len(part) > 8 * budget:
            final.append(part[:8 * budget])
            part = part[8 * budget:]
        final.append(part)
    return [p for p in final if p]


def reference_chunk_text(text: str, budget: int) -> list[str]:
    """``chunk_text`` as first written: one estimate of the whole chunk so
    far per sentence, so O(text x budget)."""
    if not text:
        return []
    chunks: list[str] = []
    current = ""
    for piece in segment_sentences(text):
        if reference_estimate_tokens(piece) > budget:
            if current:
                chunks.append(current)
                current = ""
            chunks.extend(reference_split_oversized(piece, budget))
            continue
        if current and reference_estimate_tokens(current + piece) > budget:
            chunks.append(current)
            current = piece
        else:
            current += piece
    if current:
        chunks.append(current)
    return chunks


# sentences that end glued to the next one ("a.B"), blank pieces, long words
_CHUNK_TEXT = st.lists(
    st.one_of(
        st.text(st.sampled_from(list("ab .!?\n\t\xa0\u2028\"')")), max_size=30),
        st.sampled_from(["Word. ", "Next sentence here. ", "x" * 90, "\n\n", " " * 40, "e.g. ", "A."]),
    ),
    max_size=30,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(_CHUNK_TEXT | st.text(max_size=300), st.integers(min_value=1, max_value=40))
def test_chunk_text_matches_reference(text, budget):
    assert chunk_text(text, budget) == reference_chunk_text(text, budget)


@given(st.text(st.characters() | st.sampled_from(list(" \t\n\x0b\x1c\x85\xa0\u2028\u3000"))))
def test_estimate_tokens_matches_regex_word_count(text):
    assert estimate_tokens(text) == reference_estimate_tokens(text)


def test_chunk_text_is_linear_in_unpunctuated_words():
    text = " ".join(f"w{i}" for i in range(80_000))
    start = time.perf_counter()
    chunks = chunk_text(text, 3000)
    assert time.perf_counter() - start < 2.0
    assert "".join(chunks) == text
    assert all(estimate_tokens(chunk) <= 3000 for chunk in chunks)


# ---------------------------------------------------------------------------
# condensation


def halving_summarizer(prompt: str) -> str:
    body = prompt.split("Write a concise summary of the following:\n", 1)[1]
    body = body.rsplit("\nCONCISE SUMMARY:", 1)[0]
    words = body.split()
    return " ".join(words[: max(1, len(words) // 2)])


def test_short_report_passes_through_verbatim():
    report = make_report("A short report. Nothing to shrink here.")
    provider = scripted([])
    trail = audit()
    assert condense(report, provider, trail) == report.text
    assert outcomes(trail, "condense") == ["pass-through"]
    assert provider.prompts == []


def test_oversized_report_halves_into_budget_in_one_iteration():
    text = " ".join(f"token{i}" for i in range(6446)) + "."
    report = make_report(text)
    provider = ScriptedProvider(
        [("CONCISE SUMMARY:", halving_summarizer)],
        config=ProviderConfig(context_window=8192),
    )
    trail = audit()
    condensed = condense(report, provider, trail)
    (iteration,) = decisions(trail, "condense")
    assert (iteration["outcome"], iteration["iteration"]) == ("iteration", 1)
    assert iteration["tokens"] == estimate_tokens(condensed)
    assert estimate_tokens(condensed) <= extraction_budget(provider.config)
    assert estimate_tokens(report.text) > estimate_tokens(condensed)


def test_non_progress_summarizer_fails_at_cap():
    text = " ".join(f"token{i}" for i in range(6446)) + "."
    report = make_report(text)
    provider = ScriptedProvider(
        [("CONCISE SUMMARY:", lambda p: p.split(":\n", 1)[1].rsplit("\nCONCISE", 1)[0])],
        config=ProviderConfig(context_window=4096),
    )
    with pytest.raises(CondensationError, match="after 3"):
        condense(report, provider, audit())


# ---------------------------------------------------------------------------
# answer parsing


@pytest.mark.parametrize(
    "response,expected",
    [
        ("HelloXD", ["HelloXD"]),
        ("none", []),
        ("None.", []),
        ("N/A", []),
        ("LockBit 2.0\nBabuk", ["LockBit 2.0", "Babuk"]),
        ("- HelloXD\n- x4k", ["HelloXD", "x4k"]),
        ("1. First Actor\n2. Second Actor", ["First Actor", "Second Actor"]),
        ('"Quoted Name"', ["Quoted Name"]),
        ("Answer: HelloXD.", ["HelloXD"]),
        ("HelloXD\nhelloxd\nHELLOXD", ["HelloXD"]),
        ("", []),
        ("none\nHelloXD", ["HelloXD"]),
        ("No relevant text.", []),
    ],
)
def test_parse_name_lines(response, expected):
    assert parse_name_lines(response) == expected


# ---------------------------------------------------------------------------
# extraction + verification


def test_extract_entities_prompt_assembly_and_answer():
    provider = scripted([("Question: Who/which is the target", "Windows and Linux systems")])
    query = QUERIES[2]
    names = extract_entities("some condensed context", query, provider, audit())
    assert names == ["Windows and Linux systems"]
    assert provider.prompts[0] == ENTITY_PROMPT.format(
        context="some condensed context",
        definition=query.definition,
        question=query.question,
    )


def test_verify_literal_is_case_and_whitespace_insensitive(helloxd_report):
    provider = scripted([])
    trail = audit()
    assert verify_entity("hello xd".replace(" ", ""), helloxd_report, provider, trail)
    assert verify_entity("WINDOWS AND  LINUX SYSTEMS", helloxd_report, provider, trail)
    assert outcomes(trail, "verify") == ["literal", "literal"]
    assert provider.prompts == []


def test_report_text_is_folded_once_for_all_names(helloxd_report, golden_script, monkeypatch):
    squashes = []
    squash = ingest.collapse_whitespace

    def counting(text):
        if text == helloxd_report.text:
            squashes.append(text)
        return squash(text)

    monkeypatch.setattr(ingest, "collapse_whitespace", counting)
    bundle, trail = run_pipeline(helloxd_report, scripted(golden_script), EntityPipelineConfig())
    verified = [o for o in outcomes(trail, "verify") if o != "unverified"]
    assert len(verified) >= 3
    assert len(squashes) == 1


def test_verify_falls_back_to_llm_confirmation(helloxd_report):
    provider = scripted([('Is "the Tox messenger" mentioned', "Yes, it is.")])
    trail = audit()
    assert verify_entity("the Tox messenger", helloxd_report, provider, trail)
    assert outcomes(trail, "verify") == ["llm"]
    assert provider.prompts[0].startswith("Use the following portion of a long document")


def test_verify_rejects_ungrounded_name(helloxd_report):
    provider = scripted([('Is "SpectralKit" mentioned', "No.")])
    trail = audit()
    assert not verify_entity("SpectralKit", helloxd_report, provider, trail)
    assert outcomes(trail, "verify") == ["unverified"]
    assert [w["name"] for w in trail.warnings()] == ["SpectralKit"]


def shared_through(prompts, context):
    """Whether every prompt opens with the same text up to and including
    *context*, as the first one has it."""
    first = prompts[0]
    prefix = first[:first.index(context) + len(context)]
    return all(p.startswith(prefix) for p in prompts)


def test_prompts_on_one_context_share_it_as_a_prefix(helloxd_report):
    """An endpoint's prefix cache serves the repeated part of a prompt only
    when nothing that varies comes before it: every entity and relation
    prompt on one context, and every verify prompt on one chunk, is the same
    text up to and including that context."""
    context = helloxd_report.prompt_text
    provider = scripted([(re.compile("Question"), "none")])
    trail = audit()
    for query in QUERIES:
        extract_entities(context, query, provider, trail)
    extract_relations([context], [StixEntity(EntityKind.THREAT_ACTOR, "x4k"),
                                  StixEntity(EntityKind.MALWARE, "HelloXD"),
                                  StixEntity(EntityKind.IDENTITY, "Windows users")],
                      provider, trail)
    assert len(provider.prompts) == len(QUERIES) + 3
    assert shared_through(provider.prompts, context)

    provider = scripted([(re.compile("Question"), "no")])
    for name in ("SpectralKit", "a much longer unlisted name"):
        assert not verify_entity(name, helloxd_report, provider, trail)
    assert len(provider.prompts) == 2
    assert shared_through(provider.prompts, helloxd_report.prompt_text)


# ---------------------------------------------------------------------------
# relations


def entities_for_relations():
    mal = StixEntity(EntityKind.MALWARE, "HelloXD")
    actor = StixEntity(EntityKind.THREAT_ACTOR, "x4k")
    return mal, actor


def test_relation_query_uses_admissible_options():
    mal, actor = entities_for_relations()
    provider = scripted([('between "x4k" and "HelloXD"', "uses")])
    relations = extract_relations(["ctx"], [actor, mal], provider, audit())
    # (mal, actor) has no admissible kinds; skipped
    assert relations == [StixRelation(RelationKind.USES, actor.id, mal.id)]
    assert provider.prompts[0] == RELATION_PROMPT.format(
        context="ctx", source="x4k", target="HelloXD", options="uses"
    )


def test_relation_answer_outside_admissible_set_warns():
    mal, actor = entities_for_relations()
    provider = scripted([('between "x4k" and "HelloXD"', "mitigates")])
    trail = audit()
    assert extract_relations(["ctx"], [actor, mal], provider, trail) == []
    (warning,) = trail.warnings()
    assert warning["stage"] == "relations" and warning["outcome"] == "none"
    assert "relation answer" in warning["warning"]


def test_relation_none_answer_is_silent():
    mal, actor = entities_for_relations()
    for answer in ("none", "No relevant text."):
        provider = scripted([('between "x4k" and "HelloXD"', answer)])
        trail = audit()
        assert extract_relations(["ctx"], [actor, mal], provider, trail) == []
        assert outcomes(trail, "relations") == ["none"]
        assert trail.warnings() == []


def test_malware_malware_pair_issues_no_prompt():
    a = StixEntity(EntityKind.MALWARE, "A")
    b = StixEntity(EntityKind.MALWARE, "B")
    provider = scripted([])
    assert extract_relations(["ctx"], [a, b], provider, audit()) == []
    assert provider.prompts == []


def test_relations_enumerate_only_admissible_pairs():
    malware = [StixEntity(EntityKind.MALWARE, f"Strain{i}") for i in range(30)]
    tool = StixEntity(EntityKind.TOOL, "QuickConsole")
    provider = scripted([(re.compile("between"), "uses")])
    trail = audit()
    relations = extract_relations(["ctx"], [*malware, tool], provider, trail)
    # 30 x 29 malware pairs and the 30 tool -> malware pairs have no admissible kind
    assert [e.data["target"] for e in trail.events if e.event == "decision"] == ["QuickConsole"] * 30
    assert provider.prompts == [
        RELATION_PROMPT.format(context="ctx", source=m.name, target="QuickConsole", options="uses")
        for m in malware
    ]
    assert relations == [StixRelation(RelationKind.USES, m.id, tool.id) for m in malware]


def test_relation_first_non_none_context_wins():
    mal, actor = entities_for_relations()
    provider = scripted(
        [
            (re.compile(r"CTX-A.*x4k", re.S), "none"),
            (re.compile(r"CTX-B.*x4k", re.S), "uses"),
        ]
    )
    relations = extract_relations(["CTX-A", "CTX-B"], [actor, mal], provider, audit())
    assert relations == [StixRelation(RelationKind.USES, actor.id, mal.id)]
    assert len(provider.prompts) == 2


# ---------------------------------------------------------------------------
# the full pipeline


def test_full_pipeline_on_small_report(helloxd_report, golden_script):
    provider = scripted(golden_script)
    bundle, trail = run_pipeline(helloxd_report, provider, EntityPipelineConfig())

    by_kind = {k: [e.name for e in bundle.entities_of_kind(k)] for k in EntityKind}
    assert by_kind[EntityKind.MALWARE] == ["HelloXD"]
    assert by_kind[EntityKind.THREAT_ACTOR] == ["x4k"]
    assert by_kind[EntityKind.IDENTITY] == ["Windows and Linux systems"]
    assert by_kind[EntityKind.INDICATOR] == []

    rel_kinds = sorted(r.kind.value for r in bundle.relations)
    assert rel_kinds == ["targets", "targets", "uses"]
    assert validate_bundle(bundle) == []
    assert outcomes(trail, "condense") == ["pass-through"]
    assert trail.warnings() == []


def test_pipeline_output_is_deterministic(helloxd_report, golden_script):
    first, _ = run_pipeline(helloxd_report, scripted(golden_script), EntityPipelineConfig())
    second, _ = run_pipeline(helloxd_report, scripted(golden_script), EntityPipelineConfig())
    assert save_bundle(first) == save_bundle(second)


def test_fabricated_entity_dropped_with_single_warning(helloxd_report, golden_script):
    script = [("Question: Who/which is the malware", "HelloXD\nSpectralKit")] + golden_script[1:]
    script.append(('Is "SpectralKit" mentioned', "No."))
    bundle, trail = run_pipeline(helloxd_report, scripted(script), EntityPipelineConfig())
    names = [e.name for e in bundle.entities_of_kind(EntityKind.MALWARE)]
    assert names == ["HelloXD"]
    (warning,) = trail.warnings()
    assert warning["stage"] == "verify" and warning["outcome"] == "unverified"
    assert "SpectralKit" in warning["warning"]


def test_indicates_edges_come_from_assembly():
    text = (
        "GrimVault malware beacons to 92.118.188[.]78 for tasking. "
        "The implant encrypts payloads before staging."
    )
    report = make_report(text, report_id="r-ioc")
    script = [
        ("Question: Who/which is the malware", "GrimVault"),
        ("Question: Who/which is the threat actor", "none"),
        ("Question: Who/which is the target", "none"),
    ]
    bundle, trail = run_pipeline(report, scripted(script), EntityPipelineConfig())
    indicators = bundle.entities_of_kind(EntityKind.INDICATOR)
    assert [e.name for e in indicators] == ["92.118.188.78"]
    assert bundle.relations == []

    assembled = assemble_bundle(bundle)
    (malware,) = assembled.entities_of_kind(EntityKind.MALWARE)
    indicates = [r for r in assembled.relations if r.kind is RelationKind.INDICATES]
    assert [(r.source_ref, r.target_ref) for r in indicates] == [(indicators[0].id, malware.id)]
    assert validate_bundle(assembled) == []


def test_same_malware_from_two_contexts_is_one_entity():
    first = "GrimVault malware beacons to 92.118.188[.]78 for tasking. "
    filler = "The implant encrypts payloads before staging them for exfiltration. " * 30
    second = "Later builds of GrimVault add a wiper module."
    report = make_report(first + filler + second, report_id="r-twice")

    def malware_answer(prompt):
        # the second context quotes the name as code, which only id
        # normalization sees through
        return "GrimVault" if "beacons to" in prompt else "`GrimVault`"

    script = [
        ("Question: Who/which is the malware", malware_answer),
        ("Question: Who/which is the threat actor", "none"),
        ("Question: Who/which is the target", "none"),
        ("mentioned in the text above", "yes"),
    ]
    provider = scripted(script, window=900)
    bundle, trail = run_pipeline(report, provider, EntityPipelineConfig(preprocessing=False))
    malware_prompts = [p for p in provider.prompts if "Who/which is the malware" in p]
    assert len(malware_prompts) == 2

    assert [e.name for e in bundle.entities_of_kind(EntityKind.MALWARE)] == ["GrimVault"]
    assembled = assemble_bundle(bundle)
    assert len(assembled.relations) == 1
    codes = [v.code for v in validate_bundle(assembled)]
    assert "duplicate-id" not in codes


# ---------------------------------------------------------------------------
# prompts carry the observables as type markers


def ioc_table_report(rows=500):
    """An HTML report whose IoC table of *rows* rows (four fifths hashes, the
    rest addresses and domains) outweighs its prose, as vendors publish."""
    rows = (
        [("SHA-256", hashlib.sha256(f"sample {i}".encode()).hexdigest())
         for i in range(rows * 4 // 5)]
        + [("IP", f"45.61.{i}.{i + 7}") for i in range(rows // 10)]
        + [("Domain", f"cdn{i}.grimvault-c2[.]net") for i in range(rows // 10)]
    )
    table = "".join(f"<tr><td>{kind}</td><td>{value}</td></tr>" for kind, value in rows)
    html = (
        "<html><head><title>GrimVault</title></head><body>"
        "<p>GrimVault malware beacons to 45.61.0.7 for tasking. "
        "The operators exploit CVE-2023-1234 on exposed servers.</p>"
        f"<table>{table}</table></body></html>"
    )
    return make_report(ingest.extract_article(html), report_id="r-table")


GRIMVAULT_SCRIPT = [
    ("Write a concise summary", halving_summarizer),
    ("Question: Who/which is the malware", "GrimVault\nGrim Vault loader"),
    ("Question: Who/which is the threat actor", "Ember Bear"),
    ("Question: Who/which is the target", "none"),
    ("mentioned in the text above", "no"),
    ("What is the relation between", "uses"),
]


def test_ioc_table_report_fits_the_default_window_unsummarized():
    report = ioc_table_report()
    budget = extraction_budget(ProviderConfig())
    assert estimate_tokens(report.text) > budget >= estimate_tokens(report.prompt_text)

    provider = scripted(GRIMVAULT_SCRIPT)
    bundle, trail = run_pipeline(report, provider, EntityPipelineConfig())
    assert outcomes(trail, "condense") == ["pass-through"]
    assert not [p for p in provider.prompts if p.startswith("Write a concise summary")]
    indicators = bundle.entities_of_kind(EntityKind.INDICATOR)
    assert len(indicators) == 500


def test_ioc_table_of_2000_rows_folds_and_makes_no_condense_call():
    # masked, the table alone is over the default extraction budget; folded,
    # it is one count line
    report = ioc_table_report(rows=2000)
    budget = extraction_budget(ProviderConfig())
    assert report.folded_observables == 2000
    assert estimate_tokens(report.prompt_text) < 100 < budget

    provider = scripted(GRIMVAULT_SCRIPT)
    bundle, trail = run_pipeline(report, provider, EntityPipelineConfig())
    assert outcomes(trail, "condense") == ["pass-through"]
    assert not [p for p in provider.prompts if p.startswith("Write a concise summary")]
    assert all("[2000 observables: 1600 sha256, 200 ipv4, 200 domain]" in prompt
               for prompt in provider.prompts)
    assert len(bundle.entities_of_kind(EntityKind.INDICATOR)) == 2000
    (decision,) = decisions(trail, "iocs")
    assert decision["folded"] == 2000 and decision["masked"] == 2001
    assert decision["prompt_tokens"] == estimate_tokens(report.prompt_text)


GRIMVAULT_TEXT = (
    "Ember Bear deployed GrimVault against logistics firms. "
    "GrimVault beacons to 92.118.188[.]78 and to update.badcdn[.]net for tasking. "
    f"Its dropper, sha256 {'ab12' * 16}, fetched hxxp://update.badcdn[.]net/stage2.bin. "
    "The operators exploited CVE-2021-44228 on exposed servers. "
    + "The implant encrypts payloads before staging them for exfiltration. " * 30
    + f"Later samples still beacon to 92.118.188.78; one more dropper has md5 {'c0ffee' * 5}ab."
)


@pytest.mark.parametrize("preprocessing", [True, False])
def test_no_prompt_carries_an_observable(preprocessing):
    report = make_report(GRIMVAULT_TEXT, report_id="r-masked")
    provider = scripted(GRIMVAULT_SCRIPT, window=900)
    bundle, trail = run_pipeline(report, provider, EntityPipelineConfig(preprocessing=preprocessing))

    stages = {e.stage for e in trail.events if e.event == "prompt"}
    assert stages >= {"extract", "verify", "relations"}
    assert ("condense" in stages) is preprocessing
    observables = [m for m in scan_iocs(report.text) if m.ioc_type != "cve"]
    assert len(observables) == 6
    prompts = [prompt for prompt, _ in trail.prompts()]
    for prompt in prompts:
        assert not [m for m in observables if m.original in prompt or m.value in prompt]
    assert any("CVE-2021-44228" in prompt for prompt in prompts)

    kinds = (EntityKind.INDICATOR, EntityKind.VULNERABILITY)
    assert [e for e in bundle.entities if e.kind in kinds] == ioc_entities(scan_iocs(report.text))
    (decision,) = decisions(trail, "iocs")
    assert decision == {"count": 6, "masked": 6, "tokens": estimate_tokens(report.text),
                        "prompt_tokens": estimate_tokens(report.prompt_text)}


def test_av_style_malware_names_reach_the_prompts_and_verify():
    text = ("The loader drops Trojan.Win32.Agent, which pulls Cobalt.Strike beacons "
            "from update.badcdn[.]net and invoice.exe from 92.118.188.78.")
    report = make_report(text, report_id="r-av-names")
    assert "Trojan.Win32.Agent" in report.prompt_text
    assert "Cobalt.Strike" in report.prompt_text
    provider = scripted([
        ("Question: Who/which is the malware", "Trojan.Win32.Agent\nCobalt.Strike"),
        ("Question:", "none"),
    ])
    bundle, trail = run_pipeline(report, provider, EntityPipelineConfig())
    assert [e.name for e in bundle.entities_of_kind(EntityKind.MALWARE)] == [
        "Trojan.Win32.Agent", "Cobalt.Strike"]
    assert outcomes(trail, "verify") == ["literal", "literal"]
    assert [e.name for e in bundle.entities_of_kind(EntityKind.INDICATOR)] == [
        "update.badcdn.net", "92.118.188.78"]
    (decision,) = decisions(trail, "iocs")
    assert decision["count"] == 2 and decision["refused"] == 3


def test_pipeline_without_preprocessing_unions_chunks(helloxd_report, golden_script):
    config = EntityPipelineConfig(preprocessing=False)
    provider = scripted(golden_script)
    bundle, trail = run_pipeline(helloxd_report, provider, config)
    assert outcomes(trail, "condense") == ["ablated"]
    assert [e.name for e in bundle.entities_of_kind(EntityKind.MALWARE)] == ["HelloXD"]


def test_empty_report_yields_empty_bundle_and_warning():
    report = make_report("   ", report_id="empty")
    bundle, trail = run_pipeline(report, scripted([]), EntityPipelineConfig())
    assert bundle.entities == []
    assert trail.warnings() == [{"seq": 0, "stage": "ingest", "outcome": "empty",
                                 "warning": "the report has no text"}]


def test_audit_trail_records_prompts_and_serializes(helloxd_report, golden_script):
    provider = scripted(golden_script)
    bundle, trail = run_pipeline(helloxd_report, provider, EntityPipelineConfig())
    prompts = trail.prompts()
    assert len(prompts) == len(provider.prompts)
    jsonl = trail.to_jsonl()
    assert jsonl.count("\n") == len(trail.events)
    assert '"stage": "extract"' in jsonl


def test_extraction_budget_leaves_room_for_prompts():
    provider_config = ProviderConfig(context_window=4096)
    budget = extraction_budget(provider_config)
    query = max(QUERIES, key=lambda q: len(q.definition) + len(q.question))
    prompt = ENTITY_PROMPT.format(context="x" * (budget * 4), definition=query.definition, question=query.question)
    assert estimate_tokens(prompt) + ANSWER_OUTPUT_TOKENS <= provider_config.usable_window()
