"""The model-call protocol: every completion goes through ``audit.ask``, is
recorded as a prompt event directly followed by its response event, and
every stage sizes its context with ``llm.context_budget``."""

import ast
import json
from pathlib import Path

import pytest

import cti2stix
from cti2stix.attack_patterns import run_attack_pattern_pipeline, strategy_sbsa, strategy_vte
from cti2stix.audit import AuditTrail
from cti2stix.entity_pipeline import (
    EntityPipelineConfig,
    condense,
    extraction_budget,
    run_entity_pipeline,
    verify_entity,
)
from cti2stix.llm import BudgetError, ProviderConfig, ScriptedProvider

from conftest import GOLDEN_SCRIPT

# the golden answers, plus a summary, a reworded malware name that only the
# model can verify, and "none" for the relation pairs the reworded name adds
SCRIPT = [
    ("Write a concise summary", "HelloXD is ransomware run by x4k."),
    ("mentioned in the text above", "yes"),
    ("Question: Who/which is the malware", "HelloXD\nHello-XD loader"),
    *GOLDEN_SCRIPT[1:],
    ("What is the relation between", "none"),
]

# small enough that the golden report is condensed before extraction
CONDENSING_WINDOW = 650


def assert_prompts_answered_in_place(trail):
    events = trail.events
    for prompt, response in zip(events, events[1:]):
        if prompt.event != "prompt":
            assert response.event != "response"
            continue
        assert response.event == "response"
        assert response.stage == prompt.stage
        fields = {k: v for k, v in prompt.data.items() if k not in ("text", "reserved_output")}
        assert {k: v for k, v in response.data.items() if k != "text"} == fields
    assert events[-1].event != "prompt"
    for line in trail.to_jsonl().splitlines():
        record = json.loads(line)
        if record["event"] == "prompt":
            assert list(record)[:6] == ["seq", "report", "stage", "event", "text",
                                        "reserved_output"]
        elif record["event"] == "response":
            assert list(record)[:5] == ["seq", "report", "stage", "event", "text"]


@pytest.mark.parametrize("window", [4096, CONDENSING_WINDOW])
@pytest.mark.parametrize("preprocessing", [True, False])
def test_trail_holds_every_prompt_in_order(helloxd_report, mini_catalog, preprocessing,
                                           window):
    provider = ScriptedProvider(SCRIPT, config=ProviderConfig(context_window=window))
    trail = AuditTrail(helloxd_report.id)
    run_entity_pipeline(helloxd_report, provider, trail,
                        EntityPipelineConfig(preprocessing=preprocessing))
    run_attack_pattern_pipeline(helloxd_report, mini_catalog, provider, trail)

    assert [t for t, _ in trail.prompts()] == provider.prompts
    assert_prompts_answered_in_place(trail)

    sites = {(e.stage, e.data.get("strategy")) for e in trail.events if e.event == "prompt"}
    expected = {("extract", None), ("verify", None), ("relations", None),
                ("attack-pattern", "vte"), ("attack-pattern", "sbsa")}
    if preprocessing and window == CONDENSING_WINDOW:
        expected.add(("condense", None))
    assert sites == expected


# the margined window (180 tokens) is smaller than any stage's reserved answer
TINY = ProviderConfig(context_window=200)

STAGES = {
    "extract": lambda report, provider: extraction_budget(TINY),
    "summary": lambda report, provider: condense(report, provider, AuditTrail("t"),
                                                 target_tokens=10),
    "verify": lambda report, provider: verify_entity(
        "Hello-XD loader", report, provider, AuditTrail("t")),
    "vte": lambda report, provider: strategy_vte(report, provider, AuditTrail("t")),
    "sbsa": lambda report, provider: strategy_sbsa(report, provider, AuditTrail("t")),
}


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_window_without_room_for_context_raises_budget_error(helloxd_report, stage):
    provider = ScriptedProvider(SCRIPT, config=TINY)
    with pytest.raises(BudgetError, match="no room for context"):
        STAGES[stage](helloxd_report, provider)
    assert provider.prompts == []


# ---------------------------------------------------------------------------
# tooling guard: audit.ask is the only place a completion is made or recorded


def model_call_sites(tree):
    """(line, what) for each completion call, request construction, and
    prompt or response event recorded in *tree*."""
    sites = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name == "complete" and isinstance(func, ast.Attribute):
            sites.append((node.lineno, ".complete("))
        elif name == "CompletionRequest":
            sites.append((node.lineno, "CompletionRequest("))
        elif name == "record" and isinstance(func, ast.Attribute):
            events = [a.value for a in node.args[1:2] if isinstance(a, ast.Constant)]
            events += [k.value.value for k in node.keywords
                       if k.arg == "event" and isinstance(k.value, ast.Constant)]
            sites += [(node.lineno, f"record {e!r}") for e in events
                      if e in ("prompt", "response")]
    return sites


PACKAGE = Path(cti2stix.__file__).parent


def test_only_audit_ask_calls_the_model():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "audit.py":
            continue
        sites = model_call_sites(ast.parse(path.read_text(encoding="utf-8")))
        if sites:
            offenders[path.name] = sites
    assert offenders == {}


def test_guard_finds_the_sites_in_audit_ask():
    tree = ast.parse((PACKAGE / "audit.py").read_text(encoding="utf-8"))
    assert sorted(what for _, what in model_call_sites(tree)) == [
        ".complete(", "CompletionRequest(", "record 'prompt'", "record 'response'"]
