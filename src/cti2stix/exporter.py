"""Final bundle assembly: merge extracted entities with classified
techniques and wire up the edges that follow from structure alone.

The entity pipeline produces malware / threat-actor / target / indicator
entities with their targets and model-answered relations; the attack-pattern
pipeline produces technique matches but no graph.  Assembly derives
``indicates`` edges from every indicator to every malware, turns each matched
technique into an attack-pattern entity and draws a ``uses`` edge from every
principal (malware or threat actor) to it.  All ids are content-derived, so
assembly is idempotent: running it twice, or re-running it on its own output,
changes nothing.
"""

from __future__ import annotations

import logging
from typing import Optional, Sequence

from .attack_patterns import TechniqueMatch
from .stix import (
    PRINCIPAL_KINDS,
    EntityKind,
    RelationKind,
    StixBundle,
    StixEntity,
    StixRelation,
    Violation,
    validate_bundle,
)

logger = logging.getLogger(__name__)

def _add_entity(bundle: StixBundle, ids: set[str], entity: StixEntity) -> None:
    if entity.id not in ids:
        ids.add(entity.id)
        bundle.entities.append(entity)


def _add_relation(bundle: StixBundle, ids: set[str], relation: StixRelation) -> None:
    if relation.id not in ids:
        ids.add(relation.id)
        bundle.relations.append(relation)


def technique_entity(technique_id: str, name: Optional[str]) -> StixEntity:
    return StixEntity(EntityKind.ATTACK_PATTERN, name or technique_id, technique_id=technique_id)


def assemble_bundle(
    entity_bundle: StixBundle, matches: Sequence[TechniqueMatch] = ()
) -> StixBundle:
    """One merged bundle; the inputs are not modified."""
    bundle = StixBundle(
        id=entity_bundle.id,
        entities=list(entity_bundle.entities),
        relations=list(entity_bundle.relations),
        extra=dict(entity_bundle.extra),
    )
    # duplicates already in the input are kept; only new objects are deduped
    entity_ids = {e.id for e in bundle.entities}
    relation_ids = {r.id for r in bundle.relations}

    # structural edge: every indicator indicates every malware in the bundle
    indicators = bundle.entities_of_kind(EntityKind.INDICATOR)
    malware = bundle.entities_of_kind(EntityKind.MALWARE)
    if indicators and not malware:
        logger.warning(
            "bundle %s has %d indicator(s) but no malware; keeping them with no indicates edge",
            bundle.id,
            len(indicators),
        )
    for indicator in indicators:
        for mal in malware:
            _add_relation(bundle, relation_ids,
                          StixRelation(RelationKind.INDICATES, indicator.id, mal.id))

    principals = [e for e in bundle.entities if e.kind in PRINCIPAL_KINDS]
    for match in matches:
        ap = technique_entity(match.technique_id, match.name)
        _add_entity(bundle, entity_ids, ap)
        for principal in principals:
            _add_relation(bundle, relation_ids,
                          StixRelation(RelationKind.USES, principal.id, ap.id))

    return bundle


def assemble_and_validate(
    entity_bundle: StixBundle, matches: Sequence[TechniqueMatch] = ()
) -> tuple[StixBundle, list[Violation]]:
    bundle = assemble_bundle(entity_bundle, matches)
    violations = validate_bundle(bundle)
    for v in violations:
        logger.warning("bundle %s: %s (%s)", bundle.id, v.message, v.code)
    return bundle, violations
