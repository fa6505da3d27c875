"""STIX 2.1 domain model: typed entities, relations, bundles, and graph validation.

The subset modelled here is the one produced and consumed by the extraction
pipelines: nine SDO kinds, five SRO kinds, and an explicit admissibility table
saying which (source kind, relation kind, target kind) triples may appear in a
bundle.  Everything else found in a bundle file is preserved (per-object
unknown properties ride along in ``extra``) or skipped with a warning (unknown
object types).

Identifiers are deterministic: the same (kind, normalized name) always yields
the same STIX id, a UUIDv5 in one fixed namespace, so re-running an extraction
produces byte-identical output.

An IoC-rich report makes thousands of ids, edges and bundle members, so the
per-object paths read an enum member's value as ``kind._value_``: on
Python 3.11 ``kind.value`` and ``hash(kind)`` are Python-level calls.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring as _encode_str
from pathlib import Path
from typing import IO, Any, Iterator, Union

logger = logging.getLogger(__name__)

SPEC_VERSION = "2.1"
MITRE_SOURCE_NAME = "mitre-attack"
# the namespace of every generated id, and a SHA-1 that has already read it
_NAMESPACE = uuid.uuid5(uuid.NAMESPACE_DNS, "cti2stix")
_NAMESPACE_SHA1 = hashlib.sha1(_NAMESPACE.bytes)

_WS_RE = re.compile(r"\s+")
# an ATT&CK technique or sub-technique id, such as T1059 or T1027.002; the
# digits are ASCII (``\d`` would also take other scripts' digits)
TECHNIQUE_ID_RE = re.compile(r"\bT[0-9]{4}(?:\.[0-9]{3})?\b")


class EntityKind(Enum):
    """SDO kinds understood by the pipeline, valued by their JSON type string."""

    MALWARE = "malware"
    THREAT_ACTOR = "threat-actor"
    ATTACK_PATTERN = "attack-pattern"
    IDENTITY = "identity"
    INDICATOR = "indicator"
    CAMPAIGN = "campaign"
    VULNERABILITY = "vulnerability"
    TOOL = "tool"
    COURSE_OF_ACTION = "course-of-action"


class RelationKind(Enum):
    """SRO kinds understood by the pipeline, valued by their relationship_type string."""

    USES = "uses"
    INDICATES = "indicates"
    TARGETS = "targets"
    ATTRIBUTED_TO = "attributed-to"
    MITIGATES = "mitigates"


_K = EntityKind
_R = RelationKind

# the kinds that act in a report: each receives a targets edge to every
# target identity and a uses edge to every attack pattern
PRINCIPAL_KINDS = (EntityKind.MALWARE, EntityKind.THREAT_ACTOR)

# Admissible (source, relation, target) triples.  This is data, not code: the
# table enumerates which edges a bundle may carry, restricted to the entity
# and relation kinds above.  Anything absent is inadmissible — e.g. there is
# no admissible relation in either direction between two Malware entities,
# and Indicator can never be the source of a "targets" edge.
ADMISSIBLE_TRIPLES: frozenset[tuple[EntityKind, RelationKind, EntityKind]] = frozenset(
    {
        # uses
        (_K.THREAT_ACTOR, _R.USES, _K.MALWARE),
        (_K.THREAT_ACTOR, _R.USES, _K.TOOL),
        (_K.THREAT_ACTOR, _R.USES, _K.ATTACK_PATTERN),
        (_K.CAMPAIGN, _R.USES, _K.MALWARE),
        (_K.CAMPAIGN, _R.USES, _K.TOOL),
        (_K.CAMPAIGN, _R.USES, _K.ATTACK_PATTERN),
        (_K.MALWARE, _R.USES, _K.ATTACK_PATTERN),
        (_K.MALWARE, _R.USES, _K.TOOL),
        # targets
        (_K.MALWARE, _R.TARGETS, _K.IDENTITY),
        (_K.MALWARE, _R.TARGETS, _K.VULNERABILITY),
        (_K.THREAT_ACTOR, _R.TARGETS, _K.IDENTITY),
        (_K.THREAT_ACTOR, _R.TARGETS, _K.VULNERABILITY),
        (_K.CAMPAIGN, _R.TARGETS, _K.IDENTITY),
        (_K.CAMPAIGN, _R.TARGETS, _K.VULNERABILITY),
        (_K.TOOL, _R.TARGETS, _K.IDENTITY),
        (_K.TOOL, _R.TARGETS, _K.VULNERABILITY),
        (_K.ATTACK_PATTERN, _R.TARGETS, _K.IDENTITY),
        (_K.ATTACK_PATTERN, _R.TARGETS, _K.VULNERABILITY),
        # indicates
        (_K.INDICATOR, _R.INDICATES, _K.MALWARE),
        (_K.INDICATOR, _R.INDICATES, _K.THREAT_ACTOR),
        (_K.INDICATOR, _R.INDICATES, _K.CAMPAIGN),
        (_K.INDICATOR, _R.INDICATES, _K.TOOL),
        (_K.INDICATOR, _R.INDICATES, _K.ATTACK_PATTERN),
        # attributed-to
        (_K.CAMPAIGN, _R.ATTRIBUTED_TO, _K.THREAT_ACTOR),
        # mitigates
        (_K.COURSE_OF_ACTION, _R.MITIGATES, _K.ATTACK_PATTERN),
        (_K.COURSE_OF_ACTION, _R.MITIGATES, _K.INDICATOR),
        (_K.COURSE_OF_ACTION, _R.MITIGATES, _K.MALWARE),
        (_K.COURSE_OF_ACTION, _R.MITIGATES, _K.TOOL),
        (_K.COURSE_OF_ACTION, _R.MITIGATES, _K.VULNERABILITY),
    }
)

_ADMISSIBLE_BY_PAIR: dict[tuple[EntityKind, EntityKind], frozenset[RelationKind]] = {}
for _src, _rel, _dst in ADMISSIBLE_TRIPLES:
    _key = (_src, _dst)
    _ADMISSIBLE_BY_PAIR[_key] = _ADMISSIBLE_BY_PAIR.get(_key, frozenset()) | {_rel}


# the same table keyed by the kinds' JSON strings, which hash without a call
_ADMISSIBLE_TYPES: frozenset[tuple[str, str, str]] = frozenset(
    (src.value, rel.value, dst.value) for src, rel, dst in ADMISSIBLE_TRIPLES
)


def admissible_relations(source: EntityKind, target: EntityKind) -> frozenset[RelationKind]:
    """Relation kinds allowed from *source* to *target* (possibly empty)."""
    return _ADMISSIBLE_BY_PAIR.get((source, target), frozenset())


def is_admissible(source: EntityKind, relation: RelationKind, target: EntityKind) -> bool:
    return (source, relation, target) in ADMISSIBLE_TRIPLES


def normalize_name(name: str) -> str:
    """Canonical form of an entity name: trim, strip wrapping quotes, collapse
    internal whitespace, casefold.

    Used both for name matching in evaluation and as the basis of
    deterministic entity ids.
    """
    quote_pairs = {('"', '"'), ("'", "'"), ("“", "”"), ("‘", "’"), ("`", "`")}
    out = name.strip()
    while len(out) >= 2 and (out[0], out[-1]) in quote_pairs:
        out = out[1:-1].strip()
    out = _WS_RE.sub(" ", out)
    return out.casefold()


# hex digit of the UUID variant nibble (bits 10xx) for each digit of the digest
_VARIANT_DIGIT = {d: "89ab"[int(d, 16) & 3] for d in "0123456789abcdef"}


def _uuid5(name: str) -> str:
    """``str(uuid.uuid5(_NAMESPACE, name))`` from one SHA-1 digest, formatted
    directly instead of through a ``UUID`` object."""
    sha1 = _NAMESPACE_SHA1.copy()
    sha1.update(name.encode("utf-8"))
    h = sha1.hexdigest()
    return f"{h[:8]}-{h[8:12]}-5{h[13:16]}-{_VARIANT_DIGIT[h[16]]}{h[17:20]}-{h[20:32]}"


def entity_id(kind: EntityKind, name: str) -> str:
    """Deterministic STIX id for an entity: stable across runs and processes."""
    kind_type = kind._value_
    return f"{kind_type}--{_uuid5(f'entity|{kind_type}|{normalize_name(name)}')}"


def relation_id(kind: RelationKind, source_ref: str, target_ref: str) -> str:
    return f"relationship--{_uuid5(f'relation|{kind._value_}|{source_ref}|{target_ref}')}"


def bundle_id(report_id: str) -> str:
    return f"bundle--{_uuid5(f'bundle|{report_id}')}"


@dataclass(slots=True)
class StixEntity:
    """One SDO node.  ``extra`` carries unrecognized JSON properties verbatim
    so that load → save round-trips do not lose information."""

    kind: EntityKind
    name: str
    id: str = ""
    aliases: list[str] = field(default_factory=list)
    technique_id: str | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            self.id = entity_id(self.kind, self.name)


@dataclass(slots=True)
class StixRelation:
    """One SRO edge between two entities, referenced by id."""

    kind: RelationKind
    source_ref: str
    target_ref: str
    id: str = ""
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            self.id = relation_id(self.kind, self.source_ref, self.target_ref)


@dataclass
class StixBundle:
    """A bundle is a flat graph: entity nodes plus relation edges.

    ``skipped`` records objects the loader did not understand; it is excluded
    from equality so a loaded bundle compares equal to its re-loaded copy.
    """

    id: str
    entities: list[StixEntity] = field(default_factory=list)
    relations: list[StixRelation] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)
    skipped: list[dict[str, Any]] = field(default_factory=list, compare=False)

    def entities_of_kind(self, kind: EntityKind) -> list[StixEntity]:
        return [e for e in self.entities if e.kind == kind]


@dataclass(frozen=True)
class Violation:
    """One validation failure, machine-checkable by code."""

    code: str
    message: str
    subject: str


_ENTITY_KIND_BY_TYPE = {k.value: k for k in EntityKind}
_RELATION_KIND_BY_TYPE = {r.value: r for r in RelationKind}


def _minimal_technique_ref(technique_id: str) -> dict[str, str]:
    return {"source_name": MITRE_SOURCE_NAME, "external_id": technique_id}


def parent_technique(technique_id: str) -> str:
    return technique_id.split(".", 1)[0]


def external_technique_id(obj: dict[str, Any]) -> str | None:
    """The first ATT&CK technique id among *obj*'s external references."""
    refs = obj.get("external_references")
    for ref in refs if isinstance(refs, list) else ():
        if isinstance(ref, dict) and ref.get("source_name") == MITRE_SOURCE_NAME:
            ext = str(ref.get("external_id", ""))
            if TECHNIQUE_ID_RE.fullmatch(ext):
                return ext
    return None


def _entity_from_obj(obj: dict[str, Any]) -> StixEntity:
    data = dict(obj)
    kind = _ENTITY_KIND_BY_TYPE[data.pop("type")]
    ident = data.pop("id", "") or ""
    name = data.pop("name", "") or ""
    aliases = data.pop("aliases", []) or []
    if not isinstance(aliases, list) or not all(
            isinstance(value, str) for value in (ident, name, *aliases)):
        raise ValueError(f"{kind.value} {ident!r} has an id, name or alias that is not a string")
    data.pop("spec_version", None)

    technique_id = external_technique_id(data)
    # Drop the reference list from extra only when it carries nothing
    # beyond the technique id we just lifted out; save() regenerates it.
    if technique_id is not None:
        refs = data["external_references"]
        if len(refs) == 1 and set(refs[0]) <= {"source_name", "external_id"}:
            data.pop("external_references")

    return StixEntity(kind=kind, name=name, id=ident, aliases=list(aliases),
                      technique_id=technique_id, extra=data)


# the members save_bundle writes for a relation with no extra
_RELATION_MEMBERS = frozenset(
    {"type", "spec_version", "id", "relationship_type", "source_ref", "target_ref"}
)


def _relation_from_obj(obj: dict[str, Any]) -> StixRelation | None:
    kind = _RELATION_KIND_BY_TYPE.get(obj.get("relationship_type"))
    if kind is None:
        return None
    refs = (obj.get("id"), obj.get("source_ref"), obj.get("target_ref"))
    if not all(isinstance(ref or "", str) for ref in refs):
        raise ValueError(f"relationship {refs[0]!r} has an id or ref that is not a string")
    if obj.keys() == _RELATION_MEMBERS:  # no extra: nothing to copy
        return StixRelation(kind, obj["source_ref"] or "", obj["target_ref"] or "",
                            obj["id"] or "")
    data = dict(obj)
    del data["type"], data["relationship_type"]
    ident = data.pop("id", "") or ""
    source_ref = data.pop("source_ref", "") or ""
    target_ref = data.pop("target_ref", "") or ""
    data.pop("spec_version", None)
    return StixRelation(kind=kind, source_ref=source_ref, target_ref=target_ref, id=ident,
                        extra=data)


def load_bundle(source: Union[str, Path, dict]) -> StixBundle:
    """Parse a STIX bundle from a dict, JSON string, or file path.

    Objects of unknown type (and relationships of unknown relationship_type)
    are skipped with a warning and collected on ``bundle.skipped``.  Raises
    :class:`ValueError` when the text is not JSON, the document is not an
    object whose ``objects`` is a list, or an entity's id, name or alias, or a
    relationship's id or ref, is not a string.
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        raw: dict = json.loads(source)
    elif isinstance(source, (str, Path)):
        raw = json.loads(Path(source).read_text(encoding="utf-8"))
    else:
        raw = source

    if not isinstance(raw, dict):
        raise ValueError("the bundle is not a JSON object")
    data = dict(raw)
    objects = data.pop("objects", []) or []
    if not isinstance(objects, list):
        raise ValueError('the bundle\'s "objects" is not a list')
    data.pop("type", None)
    ident = data.pop("id", "") or bundle_id("")
    bundle = StixBundle(id=ident, extra=data)

    for obj in objects:
        if not isinstance(obj, dict) or "type" not in obj:
            logger.warning("skipping malformed bundle object: %r", obj)
            bundle.skipped.append(obj if isinstance(obj, dict) else {"object": obj})
            continue
        otype = obj["type"]
        if otype in _ENTITY_KIND_BY_TYPE:
            bundle.entities.append(_entity_from_obj(obj))
        elif otype == "relationship":
            rel = _relation_from_obj(obj)
            if rel is None:
                logger.warning(
                    "skipping relationship with unknown relationship_type %r",
                    obj.get("relationship_type"),
                )
                bundle.skipped.append(obj)
            else:
                bundle.relations.append(rel)
        else:
            logger.warning("skipping object of unknown type %r", otype)
            bundle.skipped.append(obj)
    return bundle


def _entity_to_obj(ent: StixEntity) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "type": ent.kind._value_,
        "spec_version": SPEC_VERSION,
        "id": ent.id,
        "name": ent.name,
    }
    if ent.aliases:
        obj["aliases"] = list(ent.aliases)
    if ent.technique_id is not None and "external_references" not in ent.extra:
        obj["external_references"] = [_minimal_technique_ref(ent.technique_id)]
    if ent.extra:  # usually empty; skip the sort
        for key in sorted(ent.extra):
            obj[key] = ent.extra[key]
    return obj


def _relation_to_obj(rel: StixRelation) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "type": "relationship",
        "spec_version": SPEC_VERSION,
        "id": rel.id,
        "relationship_type": rel.kind._value_,
        "source_ref": rel.source_ref,
        "target_ref": rel.target_ref,
    }
    if rel.extra:
        for key in sorted(rel.extra):
            obj[key] = rel.extra[key]
    return obj


def _member_lines(obj: dict[str, Any], indent: str) -> list[str]:
    """The ``"key": value`` lines of *obj*'s members, each starting at
    *indent*, as ``json.dumps(..., indent=2, ensure_ascii=False)`` writes
    them.  String members go straight through the C string encoder."""
    return [
        f"{indent}{_encode_str(key)}: {_encode_str(value)}"
        if type(key) is str and type(value) is str
        else _nested_member(key, value, indent)
        for key, value in obj.items()
    ]


def _nested_member(key: Any, value: Any, indent: str) -> str:
    # json.dumps writes the member two spaces deep between "{\n" and "\n}";
    # every line of it moves right by what *indent* adds to those two spaces
    text = json.dumps({key: value}, indent=2, ensure_ascii=False)[2:-2]
    shift = indent[2:]
    return shift + text.replace("\n", "\n" + shift)


# An object's members, one per line, as they sit in the bundle's "objects"
# array.  The two common shapes go through one f-string each; any value that
# is not a str makes _encode_str raise TypeError, and the object then takes
# the general path, as does every other shape.

# the members save_bundle always writes for an entity
_ENTITY_HEAD = frozenset({"type", "spec_version", "id", "name"})


def _entity_members(ent: StixEntity) -> str:
    extra = ent.extra
    # an indicator's shape: a fixed head, then its extras in key order
    if not ent.aliases and ent.technique_id is None and _ENTITY_HEAD.isdisjoint(extra):
        try:
            return (
                f'      "type": "{ent.kind._value_}",\n'
                f'      "spec_version": "{SPEC_VERSION}",\n'
                f'      "id": {_encode_str(ent.id)},\n'
                f'      "name": {_encode_str(ent.name)}'
            ) + "".join([f",\n      {_encode_str(key)}: {_encode_str(extra[key])}"
                         for key in sorted(extra)])
        except TypeError:
            pass
    return ",\n".join(_member_lines(_entity_to_obj(ent), "      "))


def _relation_members(rel: StixRelation) -> str:
    if not rel.extra:
        try:
            return (
                f'      "type": "relationship",\n'
                f'      "spec_version": "{SPEC_VERSION}",\n'
                f'      "id": {_encode_str(rel.id)},\n'
                f'      "relationship_type": "{rel.kind._value_}",\n'
                f'      "source_ref": {_encode_str(rel.source_ref)},\n'
                f'      "target_ref": {_encode_str(rel.target_ref)}'
            )
        except TypeError:
            pass
    return ",\n".join(_member_lines(_relation_to_obj(rel), "      "))


def save_bundle(bundle: StixBundle) -> str:
    """Serialize to deterministic JSON: stable key order, stable object order
    (entities first, then relations, each in list order), 2-space indent.

    The text equals ``json.dumps(doc, indent=2, ensure_ascii=False)`` of the
    bundle document plus a final newline.  It is written through json's C
    string encoder, one template per common object shape and one member at
    a time otherwise, because any ``indent`` puts ``json.dumps`` on its
    pure-Python encoder."""
    doc: dict[str, Any] = {"type": "bundle", "id": bundle.id}
    for key in sorted(bundle.extra):
        doc[key] = bundle.extra[key]
    doc["objects"] = []  # written as "[]"; a non-empty array replaces its line
    members = _member_lines(doc, "  ")
    objects = [_entity_members(e) for e in bundle.entities] + [
        _relation_members(r) for r in bundle.relations
    ]
    if objects:
        # one join makes the whole text: each copy of a text this large
        # costs about as much as writing its objects
        at = list(doc).index("objects")
        before = "".join(m + ",\n" for m in members[:at])
        after = "".join(",\n" + m for m in members[at + 1:])
        objects[0] = "{\n" + before + '  "objects": [\n    {\n' + objects[0]
        objects[-1] += "\n    }\n  ]" + after + "\n}\n"
        return "\n    },\n    {\n".join(objects)
    return "{\n" + ",\n".join(members) + "\n}\n"


@contextmanager
def replacing(path: Union[str, Path], binary: bool = False) -> Iterator[IO]:
    """Yield a new temporary file beside *path* (UTF-8 text without newline
    translation, or binary) and rename it over *path* when the block ends; a
    block or rename that fails leaves *path* as it was, and no temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def validate_bundle(bundle: StixBundle) -> list[Violation]:
    """Structural checks: unique ids, resolvable refs, admissible triples,
    id prefixes matching kinds, non-empty names.  Empty result means valid."""
    violations: list[Violation] = []
    seen: dict[str, str] = {}
    by_id: dict[str, StixEntity] = {}

    for ent in bundle.entities:
        if ent.id in seen:
            violations.append(Violation("duplicate-id", f"id {ent.id} appears more than once", ent.id))
        seen[ent.id] = "entity"
        by_id[ent.id] = ent
        if not ent.name.strip():
            violations.append(Violation("empty-name", f"entity {ent.id} has an empty name", ent.id))
        prefix = ent.id.split("--", 1)[0]
        if prefix != ent.kind._value_:
            violations.append(
                Violation(
                    "id-kind-mismatch",
                    f"entity {ent.id} has kind {ent.kind._value_} but id prefix {prefix}",
                    ent.id,
                )
            )

    for rel in bundle.relations:
        if rel.id in seen:
            violations.append(Violation("duplicate-id", f"id {rel.id} appears more than once", rel.id))
        seen[rel.id] = "relation"
        src = by_id.get(rel.source_ref)
        dst = by_id.get(rel.target_ref)
        if src is None:
            violations.append(
                Violation("dangling-ref", f"relation {rel.id} source {rel.source_ref} not in bundle", rel.id)
            )
        if dst is None:
            violations.append(
                Violation("dangling-ref", f"relation {rel.id} target {rel.target_ref} not in bundle", rel.id)
            )
        if src is None or dst is None:
            continue
        triple = (src.kind._value_, rel.kind._value_, dst.kind._value_)
        if triple not in _ADMISSIBLE_TYPES:
            violations.append(
                Violation("inadmissible-triple", "{} -{}-> {} is not admissible".format(*triple),
                          rel.id)
            )
    return violations


def new_bundle(report_id: str) -> StixBundle:
    return StixBundle(id=bundle_id(report_id))
