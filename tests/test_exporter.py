import pytest

from cti2stix.attack_patterns import TechniqueMatch, run_attack_pattern_pipeline
from cti2stix.audit import AuditTrail
from cti2stix.entity_pipeline import run_entity_pipeline
from cti2stix.exporter import assemble_and_validate, assemble_bundle, technique_entity
from cti2stix.ingest import make_report
from cti2stix.llm import ScriptedProvider
from cti2stix.stix import (
    EntityKind,
    RelationKind,
    StixEntity,
    StixRelation,
    new_bundle,
    save_bundle,
    validate_bundle,
)


def entity_result_bundle(helloxd_report, golden_script):
    provider = ScriptedProvider(script=golden_script)
    return run_entity_pipeline(helloxd_report, provider, AuditTrail(helloxd_report.id))


def matches_for(helloxd_report, golden_script, mini_catalog):
    provider = ScriptedProvider(script=golden_script)
    return run_attack_pattern_pipeline(helloxd_report, mini_catalog, provider,
                                       AuditTrail(helloxd_report.id))


class TestTechniqueEntity:
    def test_named_from_catalog(self):
        e = technique_entity("T1573", "Encrypted Channel")
        assert e.kind is EntityKind.ATTACK_PATTERN
        assert e.name == "Encrypted Channel"
        assert e.technique_id == "T1573"

    def test_name_falls_back_to_id(self):
        e = technique_entity("T9999", None)
        assert e.name == "T9999"
        assert e.technique_id == "T9999"

    def test_deterministic_id(self):
        assert technique_entity("T1573", "Encrypted Channel").id == technique_entity(
            "T1573", "Encrypted Channel"
        ).id


class TestAssembly:
    def test_golden_merge(self, helloxd_report, golden_script, mini_catalog):
        entity_bundle = entity_result_bundle(helloxd_report, golden_script)
        ap = matches_for(helloxd_report, golden_script, mini_catalog)
        bundle, violations = assemble_and_validate(entity_bundle, ap)

        assert violations == []
        aps = bundle.entities_of_kind(EntityKind.ATTACK_PATTERN)
        assert [e.technique_id for e in aps] == ["T1573"]
        assert aps[0].name == "Encrypted Channel"

        uses_to_ap = [
            r for r in bundle.relations
            if r.kind == RelationKind.USES and r.target_ref == aps[0].id
        ]
        by_id = {e.id: e for e in bundle.entities}
        sources = {by_id[r.source_ref].kind for r in uses_to_ap}
        assert sources == {EntityKind.MALWARE, EntityKind.THREAT_ACTOR}

    def test_inputs_not_mutated(self, helloxd_report, golden_script, mini_catalog):
        entity_bundle = entity_result_bundle(helloxd_report, golden_script)
        before_entities = list(entity_bundle.entities)
        before_relations = list(entity_bundle.relations)
        assemble_bundle(entity_bundle, matches_for(helloxd_report, golden_script,
                                                     mini_catalog))
        assert entity_bundle.entities == before_entities
        assert entity_bundle.relations == before_relations

    def test_idempotent_on_own_output(self, helloxd_report, golden_script, mini_catalog):
        entity_bundle = entity_result_bundle(helloxd_report, golden_script)
        ap = matches_for(helloxd_report, golden_script, mini_catalog)
        once = assemble_bundle(entity_bundle, ap)
        twice = assemble_bundle(once, ap)
        assert save_bundle(twice) == save_bundle(once)

    def test_byte_identical_across_runs(self, helloxd_report, golden_script,
                                        mini_catalog):
        first = save_bundle(
            assemble_bundle(
                entity_result_bundle(helloxd_report, golden_script),
                matches_for(helloxd_report, golden_script, mini_catalog),
            )
        )
        second = save_bundle(
            assemble_bundle(
                entity_result_bundle(helloxd_report, golden_script),
                matches_for(helloxd_report, golden_script, mini_catalog),
            )
        )
        assert first == second

    def test_edge_order(self, helloxd_report, golden_script, mini_catalog):
        report = make_report(
            helloxd_report.text + "\n\nThe HelloXD samples beacon to 92.118.188[.]78.",
            report_id="helloxd-ioc",
        )
        entity_bundle = run_entity_pipeline(report, ScriptedProvider(script=golden_script),
                                            AuditTrail(report.id))
        ap = run_attack_pattern_pipeline(report, mini_catalog,
                                         ScriptedProvider(script=golden_script),
                                         AuditTrail(report.id))
        bundle = assemble_bundle(entity_bundle, ap)
        # targets, then model-answered relations, then indicates, then
        # technique uses; the ids predate assembly owning indicates edges
        assert [(r.kind.value, r.id) for r in bundle.relations] == [
            ("targets", "relationship--309706bd-2477-5582-bbcd-84e095722279"),
            ("targets", "relationship--6c67a991-cd62-53f3-a203-e613ffca6fb6"),
            ("uses", "relationship--35bff0d1-3701-51f0-b59a-afe15132df2a"),
            ("indicates", "relationship--8ba29e57-b7ef-5c9a-91b0-5e1f6a9a7386"),
            ("uses", "relationship--3325a0fb-d938-552e-a980-f6b8a52a4b50"),
            ("uses", "relationship--a777e802-a386-5af4-8b1d-c94c79538e03"),
        ]

    def test_no_principals_still_adds_technique(self, helloxd_report, golden_script,
                                                mini_catalog):
        ap = matches_for(helloxd_report, golden_script, mini_catalog)
        bundle = assemble_bundle(new_bundle("empty"), ap)
        assert len(bundle.entities_of_kind(EntityKind.ATTACK_PATTERN)) == 1
        assert bundle.relations == []

    def test_without_ap_result_is_passthrough_plus_indicates(self):
        base = new_bundle("r")
        mal = StixEntity(kind=EntityKind.MALWARE, name="GrimVault")
        ind = StixEntity(kind=EntityKind.INDICATOR, name="92.118.188.78")
        base.entities += [mal, ind]
        bundle = assemble_bundle(base)
        assert [r.kind for r in bundle.relations] == [RelationKind.INDICATES]
        assert bundle.relations[0].source_ref == ind.id
        assert bundle.relations[0].target_ref == mal.id

    def test_indicator_without_malware_kept_with_warning(self, caplog):
        base = new_bundle("r")
        ind = StixEntity(kind=EntityKind.INDICATOR, name="bad.example.org")
        base.entities.append(ind)
        with caplog.at_level("WARNING", logger="cti2stix.exporter"):
            bundle = assemble_bundle(base)
        assert bundle.entities_of_kind(EntityKind.INDICATOR) == [ind]
        assert bundle.relations == []
        assert any("no malware" in r.getMessage() for r in caplog.records)

    def test_indicates_restored_when_missing(self):
        base = new_bundle("r")
        mal = StixEntity(kind=EntityKind.MALWARE, name="GrimVault")
        ind = StixEntity(kind=EntityKind.INDICATOR, name="bad.example.org")
        base.entities += [mal, ind]
        once = assemble_bundle(base)
        assert len(once.relations) == 1

        # same edge already present: nothing duplicated
        again = assemble_bundle(once)
        assert len(again.relations) == 1
        assert validate_bundle(again) == []

    def test_existing_relation_not_duplicated(self):
        base = new_bundle("r")
        actor = StixEntity(kind=EntityKind.THREAT_ACTOR, name="x4k")
        base.entities.append(actor)
        ap_entity = technique_entity("T1573", "Encrypted Channel")
        base.entities.append(ap_entity)
        base.relations.append(
            StixRelation(
                kind=RelationKind.USES, source_ref=actor.id, target_ref=ap_entity.id
            )
        )

        bundle = assemble_bundle(base, [TechniqueMatch("T1573", "Encrypted Channel", 0.9)])
        assert len(bundle.relations) == 1
        assert len(bundle.entities) == 2

    def test_duplicate_input_relations_kept_as_they_are(self):
        base = new_bundle("r")
        mal = StixEntity(kind=EntityKind.MALWARE, name="GrimVault")
        ind = StixEntity(kind=EntityKind.INDICATOR, name="bad.example.org")
        actor = StixEntity(kind=EntityKind.THREAT_ACTOR, name="x4k")
        base.entities += [mal, ind, actor]
        indicates = StixRelation(
            kind=RelationKind.INDICATES, source_ref=ind.id, target_ref=mal.id
        )
        uses = StixRelation(kind=RelationKind.USES, source_ref=actor.id, target_ref=mal.id)
        base.relations += [indicates, uses, indicates]

        bundle = assemble_bundle(base)
        assert [r.id for r in bundle.relations] == [indicates.id, uses.id, indicates.id]

    def test_idempotent_at_ioc_scale(self):
        base = new_bundle("r")
        malware = [StixEntity(kind=EntityKind.MALWARE, name=f"family-{i}") for i in range(3)]
        indicators = [
            StixEntity(kind=EntityKind.INDICATOR, name=f"host-{i}.example.org")
            for i in range(500)
        ]
        base.entities += malware + indicators
        once = assemble_bundle(base)
        assert len(once.relations) == 500 * 3
        assert [(r.source_ref, r.target_ref) for r in once.relations] == [
            (ind.id, mal.id) for ind in indicators for mal in malware
        ]
        assert assemble_bundle(once) == once
        assert save_bundle(assemble_bundle(once)) == save_bundle(once)
