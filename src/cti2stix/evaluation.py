"""Scoring extracted entities, techniques, and relations against ground truth.

Name matching is alias-aware and normalization-insensitive: an extracted name
counts as a hit if it normalizes to any alias of a ground-truth entity, and a
ground-truth entity can be hit at most once no matter how many of its aliases
were extracted.  Per-report recall/precision/F1 use the usual conventions for
empty sides — a report with nothing to find and nothing found is perfect, a
report with nothing to find but spurious output has precision 0.

Relations are scored the same way: each edge between two malware,
threat-actor or identity entities is a (source, kind, target) triple, and a
ground-truth triple's aliases are every pairing of its two ends' aliases.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from .attack_patterns import detect_explicit_techniques
from .stix import (
    EntityKind,
    RelationKind,
    StixBundle,
    normalize_name,
    parent_technique,
    replacing,
)

# entity kinds a ground-truth file lists names for
_ENTITY_KINDS = ("malware", "threat_actor", "target", "attack_pattern")
#: evaluation kinds -> how names are pulled out of a bundle
EVAL_KINDS = (*_ENTITY_KINDS, "relation")

_KIND_TO_ENTITY = {
    "malware": EntityKind.MALWARE,
    "threat_actor": EntityKind.THREAT_ACTOR,
}

# the entities whose edges the ``relation`` kind scores, and the entity kind
# of each in ground truth; assembly draws every other edge (``indicates``,
# ``uses`` an attack pattern), not the model
_RELATION_ENDS = {
    EntityKind.MALWARE: "malware",
    EntityKind.THREAT_ACTOR: "threat_actor",
    EntityKind.IDENTITY: "target",
}


@dataclass(frozen=True)
class GroundTruthEntity:
    name: str
    aliases: tuple[str, ...] = ()

    def all_names(self) -> tuple[str, ...]:
        return (self.name, *self.aliases)

    def canonical(self) -> str:
        return normalize_name(self.name)


@dataclass(frozen=True)
class GroundTruthRelation:
    source: str
    source_kind: EntityKind
    relation: RelationKind
    target: str
    target_kind: EntityKind


@dataclass
class GroundTruth:
    report_id: str
    entities: dict[str, list[GroundTruthEntity]] = field(default_factory=dict)
    relations: list[GroundTruthRelation] = field(default_factory=list)
    text: Optional[str] = None


@dataclass(frozen=True)
class MatchSets:
    """Outcome of alias-aware matching: canonical ground-truth names hit and
    missed, plus normalized extracted names with no counterpart."""

    tp: frozenset[str]
    fp: frozenset[str]
    fn: frozenset[str]


@dataclass(frozen=True)
class Scores:
    recall: float
    precision: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> Scores:
        """Recall and precision are 1.0 when their denominator is empty; F1
        is 0.0 when both are zero."""
        recall = tp / (tp + fn) if tp + fn else 1.0
        precision = tp / (tp + fp) if tp + fp else 1.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return cls(recall=recall, precision=precision, f1=f1)


def match_entities(
    extracted: Iterable[str], truth: Iterable[GroundTruthEntity]
) -> MatchSets:
    alias_to_canonical: dict[str, str] = {}
    canonicals: set[str] = set()
    for gt in truth:
        canonical = gt.canonical()
        canonicals.add(canonical)
        for name in gt.all_names():
            alias_to_canonical.setdefault(normalize_name(name), canonical)

    tp: set[str] = set()
    fp: set[str] = set()
    for name in extracted:
        norm = normalize_name(name)
        if not norm:
            continue
        canonical = alias_to_canonical.get(norm)
        if canonical is None:
            fp.add(norm)
        else:
            tp.add(canonical)
    return MatchSets(tp=frozenset(tp), fp=frozenset(fp), fn=frozenset(canonicals - tp))


def score_matches(match: MatchSets) -> Scores:
    return Scores.from_counts(len(match.tp), len(match.fp), len(match.fn))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ceil(q*n)-th smallest value."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def summarize(values: Sequence[float]) -> dict[str, float]:
    if not values:
        return {"n": 0}
    return {
        "n": len(values),
        "mean": sum(values) / len(values),
        "p25": percentile(values, 0.25),
        "p75": percentile(values, 0.75),
    }


# --- pulling comparable names out of a bundle ------------------------------


def extracted_names(bundle: StixBundle, kind: str) -> list[str]:
    """Names for one evaluation kind, in bundle order, deduplicated.

    ``target`` means identities that something targets — an identity entity
    that never appears on the receiving end of a targets edge is not a
    target.  ``attack_pattern`` yields parent technique ids.  ``relation``
    yields one :func:`_relation_key` per edge between two malware,
    threat-actor or identity entities.
    """
    if kind in _KIND_TO_ENTITY:
        names = [e.name for e in bundle.entities_of_kind(_KIND_TO_ENTITY[kind])]
    elif kind == "target":
        targeted = {
            r.target_ref for r in bundle.relations if r.kind == RelationKind.TARGETS
        }
        names = [
            e.name
            for e in bundle.entities
            if e.kind in (EntityKind.IDENTITY, EntityKind.VULNERABILITY)
            and e.id in targeted
        ]
    elif kind == "attack_pattern":
        names = [
            parent_technique(e.technique_id)
            for e in bundle.entities_of_kind(EntityKind.ATTACK_PATTERN)
            if e.technique_id
        ]
    elif kind == "relation":
        ends = {e.id: e.name for e in bundle.entities if e.kind in _RELATION_ENDS}
        names = [
            _relation_key(ends[r.source_ref], r.kind, ends[r.target_ref])
            for r in bundle.relations
            if r.source_ref in ends and r.target_ref in ends
        ]
    else:
        raise ValueError(f"unknown evaluation kind: {kind!r}")
    return list(dict.fromkeys(names))


def _relation_key(source: str, relation: RelationKind, target: str) -> str:
    """One edge as a name :func:`match_entities` can compare; the ends are
    normalized, and :func:`normalize_name` leaves the key as it is."""
    return f"({normalize_name(source)}) {relation.value} ({normalize_name(target)})"


def _aliases(gt: GroundTruth, kind: EntityKind, name: str) -> tuple[str, ...]:
    """Every name of the ground-truth entity of *kind* called *name*."""
    norm = normalize_name(name)
    for entity in gt.entities.get(_RELATION_ENDS[kind], []):
        if norm in map(normalize_name, entity.all_names()):
            return entity.all_names()
    return (name,)


def truth_for_kind(gt: GroundTruth, kind: str) -> list[GroundTruthEntity]:
    if kind == "relation":
        return [
            GroundTruthEntity(
                name=_relation_key(r.source, r.relation, r.target),
                aliases=tuple(
                    _relation_key(source, r.relation, target)
                    for source in _aliases(gt, r.source_kind, r.source)
                    for target in _aliases(gt, r.target_kind, r.target)
                ),
            )
            for r in gt.relations
            if r.source_kind in _RELATION_ENDS and r.target_kind in _RELATION_ENDS
        ]
    entries = gt.entities.get(kind, [])
    if kind == "attack_pattern":
        parents = dict.fromkeys(parent_technique(e.name) for e in entries)
        return [GroundTruthEntity(name=parent) for parent in parents]
    return entries


def score_bundle(
    bundle: StixBundle, gt: GroundTruth, kinds: Sequence[str] = EVAL_KINDS
) -> dict[str, tuple[MatchSets, Scores]]:
    out: dict[str, tuple[MatchSets, Scores]] = {}
    for kind in kinds:
        match = match_entities(extracted_names(bundle, kind), truth_for_kind(gt, kind))
        out[kind] = (match, score_matches(match))
    return out


# --- ground-truth loading ---------------------------------------------------


def _parse_gt_entity(item: Union[str, dict]) -> GroundTruthEntity:
    if isinstance(item, str):
        return GroundTruthEntity(name=item)
    return GroundTruthEntity(
        name=item["name"], aliases=tuple(item.get("aliases", []))
    )


def _parse_gt_relation(r: dict) -> GroundTruthRelation:
    return GroundTruthRelation(
        source=r["source"],
        source_kind=EntityKind(r["source_kind"]),
        relation=RelationKind(r["relation"]),
        target=r["target"],
        target_kind=EntityKind(r["target_kind"]),
    )


def _parse_gt_list(path: Path, raw: dict, key: str, parse: Callable[[Any], Any]) -> list:
    items = raw.get(key) or []
    if not isinstance(items, list):
        raise ValueError(f"ground truth {path}: {key} must be a list")
    out = []
    for item in items:
        try:
            out.append(parse(item))
        except KeyError as exc:
            raise ValueError(f"ground truth {path}: {key} entry {item!r} "
                             f"has no key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"ground truth {path}: {key} entry {item!r}: {exc}") from None
    return out


def load_ground_truth_file(path: Union[str, Path]) -> GroundTruth:
    """Read one ground-truth file, and the report text beside it if any.

    Raises ``ValueError`` naming *path*, and the bad entry if one is at
    fault, on a file that is not JSON, not a mapping, gives a report id that
    is not a string, or lists an entity or relation that does not parse."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes included
        raise ValueError(f"ground truth {path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"ground truth {path}: the top level must be a mapping")
    entities = {kind: _parse_gt_list(path, raw, kind, _parse_gt_entity)
                for kind in _ENTITY_KINDS if raw.get(kind)}
    relations = _parse_gt_list(path, raw, "relations", _parse_gt_relation)
    report_id = raw.get("report_id", path.stem)
    if not isinstance(report_id, str):
        raise ValueError(f"ground truth {path}: report_id {report_id!r} is not a string")
    gt = GroundTruth(report_id=report_id, entities=entities, relations=relations)
    text_path = path.with_suffix(".txt")
    if text_path.exists():
        gt.text = text_path.read_text(encoding="utf-8")
    return gt


def load_ground_truth_dir(path: Union[str, Path]) -> dict[str, GroundTruth]:
    """Every ground-truth file in *path* but ``index.json``, by report id.

    Raises ``ValueError`` as :func:`load_ground_truth_file` does, and naming
    both files when two give the same report id."""
    out: dict[str, GroundTruth] = {}
    files: dict[str, Path] = {}
    for json_path in sorted(Path(path).glob("*.json")):
        if json_path.name == "index.json":
            continue
        gt = load_ground_truth_file(json_path)
        if gt.report_id in files:
            raise ValueError(f"ground truth {json_path}: report id {gt.report_id!r} "
                             f"is already taken by {files[gt.report_id]}")
        files[gt.report_id] = json_path
        out[gt.report_id] = gt
    return out


def filter_without_explicit_ids(texts: Mapping[str, str]) -> list[str]:
    """Report ids whose text contains no written-out technique ids.

    Embedding-based technique scores are only meaningful where the answer is
    not literally printed in the input, so the attack-pattern evaluation
    subset keeps exactly these reports.
    """
    return [rid for rid, text in texts.items() if not detect_explicit_techniques(text)]


# --- score output ------------------------------------------------------------


def scores_payload(
    per_report: Mapping[str, Mapping[str, Scores]],
    subset_ids: Optional[Mapping[str, Sequence[str]]] = None,
) -> dict[str, Any]:
    """JSON-ready structure: per-report metrics plus per-kind summaries."""
    kinds = list(dict.fromkeys(kind for report_scores in per_report.values()
                               for kind in report_scores))

    aggregate: dict[str, Any] = {}
    for kind in kinds:
        rows = {
            rid: s[kind] for rid, s in per_report.items() if kind in s
        }
        if subset_ids and kind in subset_ids:
            keep = set(subset_ids[kind])
            rows = {rid: s for rid, s in rows.items() if rid in keep}
        aggregate[kind] = {
            "recall": summarize([s.recall for s in rows.values()]),
            "precision": summarize([s.precision for s in rows.values()]),
            "f1": summarize([s.f1 for s in rows.values()]),
        }

    return {
        "per_report": {
            rid: {
                kind: {"recall": s.recall, "precision": s.precision, "f1": s.f1}
                for kind, s in sorted(report_scores.items())
            }
            for rid, report_scores in sorted(per_report.items())
        },
        "aggregate": aggregate,
    }


def write_scores(payload: Mapping[str, Any], json_path: Union[str, Path],
                 csv_path: Union[str, Path]) -> None:
    """Replace *json_path*, then *csv_path*; their directories must exist."""
    with replacing(json_path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n")

    with replacing(csv_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["report", "kind", "metric", "value"])
        for rid, report_scores in sorted(payload.get("per_report", {}).items()):
            for kind, metrics in sorted(report_scores.items()):
                for metric, value in sorted(metrics.items()):
                    writer.writerow([rid, kind, metric, f"{value:.6f}"])
        for kind, metrics in sorted(payload.get("aggregate", {}).items()):
            for metric, stats in sorted(metrics.items()):
                for stat, value in sorted(stats.items()):
                    writer.writerow(
                        ["__aggregate__", kind, f"{metric}.{stat}", f"{value:.6f}"]
                    )
