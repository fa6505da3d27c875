"""Acceptance gate: ten checks, one printed verdict line each (run with -s).

Each test prints ``[PASS]``/``[FAIL]``/``[SKIP] C<n>: <summary>`` so the gate
reads as a checklist.  Everything here is hermetic except C10, which talks to
a live endpoint and only runs when CTI2STIX_LIVE_SMOKE=1.
"""

import functools
import json
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from cti2stix.attack_patterns import (
    TechniqueMatch,
    classify_vector,
    run_attack_pattern_pipeline,
)
from cti2stix.audit import AuditTrail
from cti2stix.catalog import TechniqueCatalog
from cti2stix.cli import main
from cti2stix.entity_pipeline import (
    EntityPipelineConfig,
    run_entity_pipeline,
)
from cti2stix.evaluation import (
    GroundTruth,
    GroundTruthEntity,
    GroundTruthRelation,
    MatchSets,
    Scores,
    match_entities,
    score_bundle,
    score_matches,
)
from cti2stix.exporter import assemble_and_validate
from cti2stix.ingest import make_report
from cti2stix.llm import ProviderConfig, ScriptedProvider, estimate_tokens
from cti2stix.stix import (
    ADMISSIBLE_TRIPLES,
    EntityKind,
    RelationKind,
    StixEntity,
    StixRelation,
    load_bundle,
    new_bundle,
    save_bundle,
    validate_bundle,
)

from conftest import GOLDEN_SCRIPT, HELLOXD_TEXT
from test_attack_patterns import assert_matches_reference
from test_cli import write_ground_truth
from test_evaluation import benchmark_truth, brute_force_match


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                label = "SKIP" if type(exc).__name__ == "Skipped" else "FAIL"
                print(f"\n[{label}] C{number}: {title}")
                raise
            print(f"\n[PASS] C{number}: {title}")
            return result

        return wrapper

    return decorate


@criterion(1, "metrics match the brute-force oracle on 1,000 instances in <5s")
def test_c1_metrics_oracle():
    rng = random.Random(1234)
    started = time.perf_counter()
    for _ in range(1000):
        n_truth = rng.randint(0, 10)
        truth = [
            GroundTruthEntity(
                f"gt{i} name",
                tuple(f"gt{i} alias{k}" for k in range(rng.randint(0, 2))),
            )
            for i in range(n_truth)
        ]
        extracted = []
        for _ in range(rng.randint(0, 10)):
            if truth and rng.random() < 0.6:
                gt = rng.choice(truth)
                pick = rng.choice(gt.all_names())
                extracted.append(pick.upper() if rng.random() < 0.5 else f"  {pick}  ")
            else:
                extracted.append(f"junk {rng.randint(0, 30)}")

        fast = match_entities(extracted, truth)
        slow = brute_force_match(extracted, truth)
        assert fast == slow
        assert score_matches(fast) == score_matches(slow)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"oracle loop took {elapsed:.2f}s"


@criterion(2, "F1 arithmetic is exact on the two pinned cases")
def test_c2_f1_arithmetic():
    balanced = score_matches(
        MatchSets(frozenset({"a"}), frozenset({"b"}), frozenset({"c"}))
    )
    assert balanced == Scores(0.5, 0.5, 0.5)

    skewed = score_matches(
        MatchSets(frozenset({"a"}), frozenset(), frozenset({"b", "c"}))
    )
    assert abs(skewed.recall - 1 / 3) <= 1e-12
    assert skewed.precision == 1.0
    assert abs(skewed.f1 - 0.5) <= 1e-12


@criterion(3, "classification equals exhaustive cosine on 500 catalogs; "
              "thresholds nest")
def test_c3_classification_oracle():
    rng = random.Random(20240)
    dim = 8
    for _ in range(500):
        n_entries = rng.randint(1, 50)
        rows = []
        vectors = []
        for _ in range(n_entries):
            rows.append((f"T1{rng.randint(0, 9):03d}", "stub"))
            vectors.append([rng.gauss(0, 1) for _ in range(dim)])
        catalog = TechniqueCatalog.from_rows("stub", "s", rows,
                                             np.array(vectors, dtype=np.float32))
        candidate = np.array([rng.gauss(0, 1) for _ in range(dim)])
        threshold = rng.uniform(0.1, 0.9)

        hits = classify_vector(candidate, catalog, threshold)
        assert_matches_reference(hits, [candidate], catalog, threshold)

        sets = [set(classify_vector(candidate, catalog, t0)) for t0 in (0.2, 0.4, 0.6, 0.8)]
        for looser, stricter in zip(sets, sets[1:]):
            assert stricter <= looser
    # 500 instances checked; any failure would have asserted above


def _golden_run(helloxd_report, mini_catalog):
    trail = AuditTrail(helloxd_report.id)
    entity_bundle = run_entity_pipeline(
        helloxd_report, ScriptedProvider(script=GOLDEN_SCRIPT), trail
    )
    matches = run_attack_pattern_pipeline(
        helloxd_report, mini_catalog, ScriptedProvider(script=GOLDEN_SCRIPT), trail
    )
    return assemble_and_validate(entity_bundle, matches)


@criterion(4, "golden end-to-end bundle is exact and byte-stable over 3 runs")
def test_c4_golden_end_to_end(helloxd_report, mini_catalog):
    serialized = []
    for _ in range(3):
        bundle, violations = _golden_run(helloxd_report, mini_catalog)
        assert violations == []
        serialized.append(save_bundle(bundle))

        by_kind = {
            kind.value: sorted(e.name for e in bundle.entities_of_kind(kind))
            for kind in EntityKind
            if bundle.entities_of_kind(kind)
        }
        assert by_kind == {
            "malware": ["HelloXD"],
            "threat-actor": ["x4k"],
            "identity": ["Windows and Linux systems"],
            "attack-pattern": ["Encrypted Channel"],
        }
        technique = bundle.entities_of_kind(EntityKind.ATTACK_PATTERN)[0]
        assert technique.technique_id == "T1573"

        identity = bundle.entities_of_kind(EntityKind.IDENTITY)[0]
        targets = [
            r for r in bundle.relations
            if r.kind == RelationKind.TARGETS and r.target_ref == identity.id
        ]
        assert targets, "no targets edge onto the identity"

    assert serialized[0] == serialized[1] == serialized[2]


@criterion(5, "fabricated malware is dropped with exactly one unverified decision, "
              "which warns")
def test_c5_hallucination_guard(helloxd_report):
    script = [
        ("Question: Who/which is the malware", "HelloXD\nSpectralKit"),
        ('Is "SpectralKit" mentioned', "no"),
        *GOLDEN_SCRIPT[1:],
    ]
    trail = AuditTrail(helloxd_report.id)
    bundle = run_entity_pipeline(helloxd_report, ScriptedProvider(script=script), trail)
    names = {e.name for e in bundle.entities}
    assert "SpectralKit" not in names
    assert "HelloXD" in names
    unverified = [e.data for e in trail.events if e.stage == "verify"
                  and e.event == "decision" and e.data["outcome"] == "unverified"]
    assert len(unverified) == 1
    assert unverified[0]["name"] == "SpectralKit"
    assert "SpectralKit" in unverified[0]["warning"]
    assert [w["name"] for w in trail.warnings()] == ["SpectralKit"]


@criterion(6, "6,446-word report: every prompt obeys the 10% budget margin; "
              "halving condenses in one iteration")
def test_c6_budget_safety():
    words = [f"w{i % 997}" for i in range(6446)]
    text = " ".join(words)
    report = make_report(text, report_id="oversized")

    def halve(prompt: str) -> str:
        # recover the chunk from the summary prompt and halve its words
        body = prompt.split("Write a concise summary of the following:\n", 1)[1]
        body = body.rsplit("\nCONCISE SUMMARY:", 1)[0]
        tokens = body.split()
        return " ".join(tokens[: len(tokens) // 2])

    provider = ScriptedProvider(
        script=[
            ("CONCISE SUMMARY:", halve),
            ("Question: Who/which", "none"),
        ],
        config=ProviderConfig(context_window=8192),
    )
    trail = AuditTrail(report.id)
    run_entity_pipeline(report, provider, trail, EntityPipelineConfig())

    iterations = [e for e in trail.events if e.stage == "condense"
                  and e.event == "decision" and e.data["outcome"] == "iteration"]
    assert len(iterations) == 1

    usable = provider.config.usable_window()
    prompts = trail.prompts()
    assert prompts, "no prompts audited"
    for prompt_text, reserved in prompts:
        assert estimate_tokens(prompt_text) + reserved <= usable, (
            f"prompt of ~{estimate_tokens(prompt_text)} tokens + {reserved} "
            f"reserved exceeds usable window {usable}"
        )


@criterion(7, "subset rule scores attack patterns on exactly 7 of 10 reports")
def test_c7_subset_rule(tmp_path):
    extracted = tmp_path / "extracted"
    extracted.mkdir()
    gt_dir = tmp_path / "gt"
    for i in range(10):
        rid = f"r{i}"
        text = f"Analyst tagged this with T10{59 + i}." if i < 3 else "Plain prose."
        write_ground_truth(gt_dir, rid, text, attack_pattern=())
        (extracted / f"{rid}.bundle.json").write_text(
            save_bundle(new_bundle(rid)), encoding="utf-8"
        )

    out_dir = tmp_path / "eval"
    code = main([
        "eval",
        "--extracted", str(extracted),
        "--gt", str(gt_dir),
        "--out-dir", str(out_dir),
        "--subset-rule", "on",
    ])
    assert code == 0
    scores = json.loads((out_dir / "scores.json").read_text(encoding="utf-8"))
    assert scores["aggregate"]["attack_pattern"]["f1"]["n"] == 7
    assert scores["aggregate"]["malware"]["f1"]["n"] == 10


@criterion(8, "relation kind: golden edges F1=1, no edges R=0 P=1, aliases on either "
              "end match, a missed entity costs its edges, structural edges ignored")
def test_c8_relation_benchmark(helloxd_report):
    gt = benchmark_truth()

    def relation(bundle, truth=gt):
        return score_bundle(bundle, truth, ["relation"])["relation"][1]

    # the golden run answers every relation the ground truth lists
    golden = run_entity_pipeline(helloxd_report, ScriptedProvider(script=GOLDEN_SCRIPT),
                                 AuditTrail(helloxd_report.id))
    assert relation(golden) == relation(golden) == Scores(1.0, 1.0, 1.0)

    bare = new_bundle(golden.id)
    bare.entities = list(golden.entities)
    assert relation(bare) == Scores(0.0, 1.0, 0.0)

    # ground truth spelled otherwise, with the extracted names as aliases
    aliased = GroundTruth(
        report_id=gt.report_id,
        entities={
            "malware": [GroundTruthEntity("HelloXD ransomware", ("HelloXD",))],
            "threat_actor": [GroundTruthEntity("The x4k crew", ("x4k",))],
            "target": [GroundTruthEntity("Windows and Linux", ("Windows and Linux systems",))],
        },
        relations=[
            GroundTruthRelation("The x4k crew", EntityKind.THREAT_ACTOR, RelationKind.USES,
                                "HelloXD ransomware", EntityKind.MALWARE),
            GroundTruthRelation("HelloXD ransomware", EntityKind.MALWARE, RelationKind.TARGETS,
                                "Windows and Linux", EntityKind.IDENTITY),
            GroundTruthRelation("The x4k crew", EntityKind.THREAT_ACTOR, RelationKind.TARGETS,
                                "Windows and Linux", EntityKind.IDENTITY),
        ],
    )
    assert relation(golden, aliased) == Scores(1.0, 1.0, 1.0)

    # without the actor: its two edges are missed, the third still scores
    actor = next(e for e in golden.entities if e.kind is EntityKind.THREAT_ACTOR)
    no_actor = new_bundle(golden.id)
    no_actor.entities = [e for e in golden.entities if e is not actor]
    no_actor.relations = [r for r in golden.relations if actor.id not in (r.source_ref, r.target_ref)]
    assert relation(no_actor).recall == 1 / 3 and relation(no_actor).precision == 1.0

    # assembly's indicates and uses -> attack-pattern edges are not scored
    golden.entities.append(StixEntity(EntityKind.INDICATOR, "evil.example"))
    matches = [TechniqueMatch("T1573", "Encrypted Channel", 0.9)]
    assembled, _ = assemble_and_validate(golden, matches)
    assert len(assembled.relations) == len(golden.relations) + 3
    assert relation(assembled) == Scores(1.0, 1.0, 1.0)


@criterion(9, "1,000 generated bundles round-trip byte-identically")
def test_c9_round_trip():
    rng = random.Random(99)
    kinds = list(EntityKind)
    admissible_pairs = sorted(
        {(s.value, t.value) for s, _, t in ADMISSIBLE_TRIPLES}
    )
    for i in range(1000):
        bundle = new_bundle(f"report-{i}")
        by_kind = {}
        for j in range(rng.randint(1, 8)):
            kind = rng.choice(kinds)
            name = f"{kind.value} {j}"
            entity = StixEntity(kind=kind, name=name)
            if kind is EntityKind.ATTACK_PATTERN and rng.random() < 0.5:
                entity.technique_id = f"T1{rng.randint(0, 599):03d}"
            bundle.entities.append(entity)
            by_kind.setdefault(kind.value, []).append(entity)

        for source_kind, target_kind in admissible_pairs:
            sources = by_kind.get(source_kind, [])
            targets = by_kind.get(target_kind, [])
            if sources and targets and rng.random() < 0.4:
                source = rng.choice(sources)
                target = rng.choice(targets)
                if source.id == target.id:
                    continue
                relation_kinds = sorted(
                    {
                        r.value
                        for s, r, t in ADMISSIBLE_TRIPLES
                        if s.value == source_kind and t.value == target_kind
                    }
                )
                bundle.relations.append(
                    StixRelation(
                        kind=RelationKind(rng.choice(relation_kinds)),
                        source_ref=source.id,
                        target_ref=target.id,
                    )
                )
        # drop duplicate ids introduced by colliding (kind, name) picks
        seen = set()
        bundle.entities = [
            e for e in bundle.entities if not (e.id in seen or seen.add(e.id))
        ]
        seen = set()
        bundle.relations = [
            r for r in bundle.relations if not (r.id in seen or seen.add(r.id))
        ]

        assert validate_bundle(bundle) == []
        first = save_bundle(bundle)
        second = save_bundle(load_bundle(first))
        assert second == first, f"bundle {i} not byte-stable"


@criterion(10, "live smoke: extraction on public reports (opt-in)")
@pytest.mark.live
def test_c10_live_smoke(tmp_path):
    if os.environ.get("CTI2STIX_LIVE_SMOKE") != "1":
        pytest.skip("set CTI2STIX_LIVE_SMOKE=1 to run the live smoke test")
    if not os.environ.get("OPENAI_API_KEY"):
        pytest.skip("OPENAI_API_KEY not set")

    urls = [
        u.strip()
        for u in os.environ.get("CTI2STIX_SMOKE_URLS", "").split(",")
        if u.strip()
    ]
    if len(urls) < 5:
        pytest.skip("set CTI2STIX_SMOKE_URLS to >=5 comma-separated report URLs")

    out_dir = tmp_path / "live"
    code = main(["extract", *urls, "--out-dir", str(out_dir)])
    assert code in (0, 1)

    bundles = sorted(out_dir.glob("*.bundle.json"))
    assert bundles, "live run produced no bundles"
    gt_dir = os.environ.get("CTI2STIX_SMOKE_GT", "")
    recalls = []
    for path in bundles:
        bundle = load_bundle(path)
        assert validate_bundle(bundle) == []
        malware = [e.name for e in bundle.entities_of_kind(EntityKind.MALWARE)]
        print(f"{path.name}: malware extracted for manual review: {malware}")
        if gt_dir:
            from cti2stix.evaluation import load_ground_truth_file, truth_for_kind

            gt_file = Path(gt_dir) / (path.name.replace(".bundle.json", "") + ".json")
            if gt_file.exists():
                gt = load_ground_truth_file(gt_file)
                match = match_entities(malware, truth_for_kind(gt, "malware"))
                recalls.append(score_matches(match).recall)
    if recalls:
        mean_recall = sum(recalls) / len(recalls)
        print(f"malware recall over {len(recalls)} labelled reports: {mean_recall:.3f} "
              "(manual reference point: 0.77)")
    else:
        print("no ground truth supplied (CTI2STIX_SMOKE_GT); "
              "recall reference point for manual comparison: 0.77")
