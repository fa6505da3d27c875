"""Model-layer tests: admissibility table, ids, load/save round-trips, validation."""

import copy
import dataclasses
import json
import pickle
import uuid

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cti2stix import stix
from cti2stix.stix import (
    ADMISSIBLE_TRIPLES,
    EntityKind,
    RelationKind,
    StixBundle,
    StixEntity,
    StixRelation,
    Violation,
    admissible_relations,
    bundle_id,
    entity_id,
    external_technique_id,
    is_admissible,
    load_bundle,
    normalize_name,
    relation_id,
    replacing,
    save_bundle,
    validate_bundle,
)

K = EntityKind
R = RelationKind


# ---------------------------------------------------------------------------
# admissibility table


@pytest.mark.parametrize(
    "src,rel,dst",
    [
        (K.THREAT_ACTOR, R.USES, K.MALWARE),
        (K.MALWARE, R.TARGETS, K.IDENTITY),
        (K.INDICATOR, R.INDICATES, K.MALWARE),
        (K.CAMPAIGN, R.ATTRIBUTED_TO, K.THREAT_ACTOR),
        (K.COURSE_OF_ACTION, R.MITIGATES, K.ATTACK_PATTERN),
        (K.THREAT_ACTOR, R.USES, K.ATTACK_PATTERN),
        (K.MALWARE, R.USES, K.ATTACK_PATTERN),
        (K.THREAT_ACTOR, R.TARGETS, K.IDENTITY),
    ],
)
def test_admissible_triples(src, rel, dst):
    assert is_admissible(src, rel, dst)


@pytest.mark.parametrize(
    "src,rel,dst",
    [
        (K.INDICATOR, R.TARGETS, K.IDENTITY),
        (K.MALWARE, R.USES, K.MALWARE),
        (K.MALWARE, R.TARGETS, K.MALWARE),
        (K.THREAT_ACTOR, R.MITIGATES, K.MALWARE),
        (K.IDENTITY, R.USES, K.MALWARE),
        (K.MALWARE, R.INDICATES, K.INDICATOR),
    ],
)
def test_inadmissible_triples(src, rel, dst):
    assert not is_admissible(src, rel, dst)


def test_malware_malware_pair_has_no_admissible_relations():
    assert admissible_relations(K.MALWARE, K.MALWARE) == frozenset()


def test_threat_actor_malware_pair_admits_only_uses():
    assert admissible_relations(K.THREAT_ACTOR, K.MALWARE) == frozenset({R.USES})


def test_mitigates_only_from_course_of_action():
    sources = {src for src, rel, _ in ADMISSIBLE_TRIPLES if rel is R.MITIGATES}
    assert sources == {K.COURSE_OF_ACTION}


def test_indicator_never_a_target_and_only_indicates():
    assert all(dst is not K.INDICATOR for _, rel, dst in ADMISSIBLE_TRIPLES if rel is not R.MITIGATES)
    assert {rel for src, rel, _ in ADMISSIBLE_TRIPLES if src is K.INDICATOR} == {R.INDICATES}


def test_admissible_relations_consistent_with_table():
    for src in K:
        for dst in K:
            expected = {rel for s, rel, d in ADMISSIBLE_TRIPLES if s is src and d is dst}
            assert admissible_relations(src, dst) == frozenset(expected)


# ---------------------------------------------------------------------------
# names and ids


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("  HelloXD ", "helloxd"),
        ('"x4k"', "x4k"),
        ("Windows  and\tLinux   systems", "windows and linux systems"),
        ("'APT 41'", "apt 41"),
        ("“Quoted”", "quoted"),
        ("", ""),
    ],
)
def test_normalize_name(raw, expected):
    assert normalize_name(raw) == expected


def test_entity_ids_deterministic_and_kind_prefixed():
    a = entity_id(K.MALWARE, "HelloXD")
    b = entity_id(K.MALWARE, "  helloxd ")
    assert a == b
    assert a.startswith("malware--")
    assert entity_id(K.THREAT_ACTOR, "HelloXD") != a


def reference_uuid5(name: str) -> str:
    return str(uuid.uuid5(uuid.uuid5(uuid.NAMESPACE_DNS, "cti2stix"), name))


@given(st.text())
@example("entity|malware|\U0001f600 \U00010348 \u00e9")
@example("")
def test_uuid5_matches_uuid_module(name):
    assert stix._uuid5(name) == reference_uuid5(name)


@given(st.sampled_from(list(K)), st.text(), st.sampled_from(list(R)), st.text(), st.text())
def test_ids_match_uuid_module(kind, name, rel_kind, source, target):
    assert entity_id(kind, name) == (
        f"{kind.value}--{reference_uuid5(f'entity|{kind.value}|{normalize_name(name)}')}")
    assert relation_id(rel_kind, source, target) == (
        f"relationship--{reference_uuid5(f'relation|{rel_kind.value}|{source}|{target}')}")
    assert bundle_id(name) == f"bundle--{reference_uuid5(f'bundle|{name}')}"


def test_bundle_without_id_loads_with_the_empty_report_id():
    assert load_bundle({"type": "bundle", "objects": []}).id == (
        f"bundle--{reference_uuid5('bundle|')}")


@pytest.mark.parametrize("name", ["\ud800", "entity|malware|a\udfffb"])
def test_uuid5_lone_surrogate_raises_like_uuid_module(name):
    with pytest.raises(Exception) as expected:
        reference_uuid5(name)
    with pytest.raises(Exception) as got:
        stix._uuid5(name)
    assert got.type is expected.type


# ---------------------------------------------------------------------------
# load / save


def _sample_bundle() -> StixBundle:
    mal = StixEntity(K.MALWARE, "HelloXD", aliases=["Hello XD"])
    actor = StixEntity(K.THREAT_ACTOR, "x4k", extra={"description": "developer and operator"})
    ident = StixEntity(K.IDENTITY, "Windows and Linux systems")
    ap = StixEntity(K.ATTACK_PATTERN, "Encrypted Channel", technique_id="T1573")
    bundle = StixBundle(id=bundle_id("sample"))
    bundle.entities += [mal, actor, ident, ap]
    bundle.relations += [
        StixRelation(R.USES, actor.id, mal.id),
        StixRelation(R.TARGETS, mal.id, ident.id),
        StixRelation(R.USES, mal.id, ap.id),
    ]
    return bundle


def test_round_trip_sample():
    bundle = _sample_bundle()
    again = load_bundle(json.loads(save_bundle(bundle)))
    assert again == bundle


def test_save_is_stable_across_repeated_saves(tmp_path):
    bundle = _sample_bundle()
    path = tmp_path / "b.json"
    first = save_bundle(bundle)
    with replacing(path) as fh:  # the way every command writes a bundle
        fh.write(first)
    second = save_bundle(load_bundle(path))
    assert first == second


def test_technique_external_reference_round_trip():
    text = save_bundle(_sample_bundle())
    raw = json.loads(text)
    ap = [o for o in raw["objects"] if o["type"] == "attack-pattern"][0]
    assert ap["external_references"] == [{"source_name": "mitre-attack", "external_id": "T1573"}]
    assert load_bundle(raw).entities_of_kind(K.ATTACK_PATTERN)[0].technique_id == "T1573"


def test_technique_id_with_trailing_newline_is_not_an_id():
    # the catalog refuses this id; the bundle reader must read it the same way
    refs = [{"source_name": "mitre-attack", "external_id": "T1059\n"}]
    doc = {
        "type": "bundle",
        "id": "bundle--00000000-0000-5000-8000-000000000000",
        "objects": [{"type": "attack-pattern", "spec_version": "2.1",
                     "id": "attack-pattern--00000000-0000-5000-8000-000000000001",
                     "name": "Command and Scripting Interpreter",
                     "external_references": refs}],
    }
    bundle = load_bundle(doc)
    ap = bundle.entities[0]
    assert ap.technique_id is None
    assert ap.extra == {"external_references": refs}
    text = save_bundle(bundle)
    assert json.loads(text) == doc
    assert save_bundle(load_bundle(json.loads(text))) == text


@pytest.mark.parametrize("external_id,expected", [
    ("T1059", "T1059"), ("T1027.002", "T1027.002"), ("T1059\n", None), (" T1059", None),
    ("T1059.1", None), ("T10590", None), ("T\uff11\uff10\uff15\uff19", None),
    ("T\u0661\u0660\u0665\u0669", None),
])
def test_external_technique_id(external_id, expected):
    obj = {"external_references": [{"source_name": "other", "external_id": "T1000"},
                                   {"source_name": "mitre-attack", "external_id": external_id}]}
    assert external_technique_id(obj) == expected


def test_unknown_object_types_skipped_with_warning(caplog):
    doc = {
        "type": "bundle",
        "id": "bundle--00000000-0000-5000-8000-000000000000",
        "objects": [
            {"type": "malware", "id": "malware--00000000-0000-5000-8000-000000000001", "name": "A"},
            {"type": "marking-definition", "id": "marking-definition--x"},
            {"type": "report", "id": "report--y", "name": "weekly roundup"},
        ],
    }
    with caplog.at_level("WARNING"):
        bundle = load_bundle(doc)
    assert len(bundle.entities) == 1
    assert len(bundle.skipped) == 2
    assert sum("unknown type" in r.message for r in caplog.records) == 2


def test_unknown_relationship_type_skipped():
    doc = {
        "type": "bundle",
        "id": "bundle--00000000-0000-5000-8000-000000000000",
        "objects": [
            {
                "type": "relationship",
                "id": "relationship--00000000-0000-5000-8000-00000000000a",
                "relationship_type": "related-to",
                "source_ref": "a",
                "target_ref": "b",
            }
        ],
    }
    bundle = load_bundle(doc)
    assert bundle.relations == []
    assert len(bundle.skipped) == 1


def test_unknown_entity_properties_survive_round_trip():
    doc = {
        "type": "bundle",
        "id": "bundle--00000000-0000-5000-8000-000000000000",
        "objects": [
            {
                "type": "malware",
                "spec_version": "2.1",
                "id": "malware--00000000-0000-5000-8000-000000000001",
                "name": "A",
                "is_family": True,
                "created": "2022-06-01T00:00:00.000Z",
            }
        ],
    }
    bundle = load_bundle(doc)
    ent = bundle.entities[0]
    assert ent.extra["is_family"] is True
    again = json.loads(save_bundle(bundle))["objects"][0]
    assert again["is_family"] is True
    assert again["created"] == "2022-06-01T00:00:00.000Z"


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_sample():
    assert validate_bundle(_sample_bundle()) == []


def test_validate_flags_inadmissible_triple():
    ind = StixEntity(K.INDICATOR, "203.0.113.9")
    ident = StixEntity(K.IDENTITY, "ACME Corp")
    bundle = StixBundle(id=bundle_id("bad"), entities=[ind, ident])
    bundle.relations.append(StixRelation(R.TARGETS, ind.id, ident.id))
    violations = validate_bundle(bundle)
    assert [v.code for v in violations] == ["inadmissible-triple"]


def test_validate_flags_dangling_ref():
    mal = StixEntity(K.MALWARE, "A")
    bundle = StixBundle(id=bundle_id("dangling"), entities=[mal])
    bundle.relations.append(StixRelation(R.USES, "threat-actor--missing", mal.id))
    codes = [v.code for v in validate_bundle(bundle)]
    assert codes == ["dangling-ref"]


def test_validate_flags_duplicate_id_and_empty_name():
    a = StixEntity(K.MALWARE, "dup")
    b = StixEntity(K.MALWARE, "dup")
    empty = StixEntity(K.IDENTITY, "   ")
    bundle = StixBundle(id=bundle_id("dups"), entities=[a, b, empty])
    codes = sorted(v.code for v in validate_bundle(bundle))
    assert codes == ["duplicate-id", "empty-name"]


def test_validate_flags_id_kind_mismatch():
    ent = StixEntity(K.MALWARE, "A")
    ent.id = "tool--00000000-0000-5000-8000-000000000001"
    bundle = StixBundle(id=bundle_id("mismatch"), entities=[ent])
    assert [v.code for v in validate_bundle(bundle)] == ["id-kind-mismatch"]


def test_violation_is_frozen():
    v = Violation("x", "y", "z")
    with pytest.raises(Exception):
        v.code = "other"  # type: ignore[misc]


# ---------------------------------------------------------------------------
# property: generated bundles round-trip and stay byte-stable

_NAME_ALPHABET = st.characters(
    whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" -._"
)
_names = st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=24).filter(
    lambda s: s.strip() and normalize_name(s)
)


@st.composite
def bundles(draw) -> StixBundle:
    n = draw(st.integers(min_value=1, max_value=8))
    entities: list[StixEntity] = []
    used_ids: set[str] = set()
    for _ in range(n):
        kind = draw(st.sampled_from(list(K)))
        name = draw(_names)
        ent = StixEntity(kind, name, aliases=draw(st.lists(_names, max_size=2)))
        if ent.id in used_ids:
            continue
        used_ids.add(ent.id)
        if kind is K.ATTACK_PATTERN:
            ent.technique_id = f"T{draw(st.integers(min_value=1000, max_value=1999))}"
        if draw(st.booleans()):
            ent.extra["description"] = draw(_names)
        entities.append(ent)

    relations: list[StixRelation] = []
    seen_rel: set[str] = set()
    for src in entities:
        for dst in entities:
            if src.id == dst.id:
                continue
            for rel_kind in sorted(admissible_relations(src.kind, dst.kind), key=lambda r: r.value):
                if draw(st.booleans()):
                    rel = StixRelation(rel_kind, src.id, dst.id)
                    if rel.id not in seen_rel:
                        seen_rel.add(rel.id)
                        relations.append(rel)
    return StixBundle(id=bundle_id("prop"), entities=entities, relations=relations)


@settings(max_examples=120, deadline=None)
@given(bundles())
def test_round_trip_property(bundle):
    text = save_bundle(bundle)
    loaded = load_bundle(json.loads(text))
    assert loaded == bundle
    assert save_bundle(loaded) == text
    assert validate_bundle(loaded) == []


# ---------------------------------------------------------------------------
# property: the member-by-member writer equals one json.dumps of the document


def reference_save(bundle: StixBundle) -> str:
    """The writer's former body: the whole document through ``json.dumps``."""
    doc = {"type": "bundle", "id": bundle.id}
    for key in sorted(bundle.extra):
        doc[key] = bundle.extra[key]
    doc["objects"] = [stix._entity_to_obj(e) for e in bundle.entities] + [
        stix._relation_to_obj(r) for r in bundle.relations
    ]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


_json_text = st.text(
    st.characters() | st.sampled_from(list('\x00\x07\n\t\x1f\x7f"\\/\u2028\U0001f600')),
    max_size=8,
)
# an empty id is derived from these, and a lone surrogate has no UTF-8 form
# (see test_uuid5_lone_surrogate_raises_like_uuid_module)
_name_text = st.text(
    st.characters(exclude_categories=["Cs"])
    | st.sampled_from(list('\x00\x07\n\t\x1f\x7f"\\/\u2028\U0001f600')),
    max_size=8,
)
# member names the writer itself emits, so extras can shadow them
_keys = _json_text | st.sampled_from(
    ["type", "id", "name", "aliases", "spec_version", "external_references", "objects"])
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | _json_text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_keys | st.integers(), inner, max_size=3),
    max_leaves=10,
)
_extras = st.dictionaries(_keys, _json_values, max_size=3)

_writer_entities = st.builds(
    StixEntity,
    kind=st.sampled_from(list(K)),
    name=_name_text,
    id=_json_text,
    aliases=st.lists(_json_text, max_size=3),
    technique_id=st.none() | st.sampled_from(["T1573", "T1059.001"]) | _json_text,
    extra=_extras,
)
_writer_relations = st.builds(
    StixRelation,
    kind=st.sampled_from(list(R)),
    source_ref=_name_text,
    target_ref=_name_text,
    id=_json_text,
    extra=_extras,
)
_writer_bundles = st.builds(
    StixBundle,
    id=_json_text,
    entities=st.lists(_writer_entities, max_size=3),
    relations=st.lists(_writer_relations, max_size=3),
    extra=_extras,
)


_INDICATOR = StixEntity(K.INDICATOR, "evil.com", extra={
    "pattern_type": "stix", "indicator_type": "domain",
    "pattern": "[domain-name:value = 'evil.com']"})
_MALWARE = StixEntity(K.MALWARE, "GrimVault")
_ODD = '\x00\x07\n\t\x1f\x7f"\\/\u2028\u00e9\U0001f600'


@settings(max_examples=100, deadline=None)
@given(_writer_bundles)
@example(StixBundle(id="bundle--empty"))
@example(_sample_bundle())
@example(StixBundle(id="b", entities=_sample_bundle().entities,
                    extra={"objects": "shadowed", "x_after": [{"k": [1, None, "\u00e9\U0001f600"]}],
                           "a": {}}))
# the writer's one-template shapes: an indicator and an edge with no extra
@example(StixBundle(id="b", entities=[_INDICATOR, _MALWARE],
                    relations=[StixRelation(R.INDICATES, _INDICATOR.id, _MALWARE.id)]))
# str extras that shadow written members keep their place and take its value
@example(StixBundle(id="b", entities=[
    StixEntity(K.INDICATOR, "x", id="indicator--x", extra={"id": "shadow", "type": "tool", "b": "c"}),
    StixEntity(K.TOOL, "y", extra={"name": "z", "spec_version": "9", "aliases": "a"})],
    relations=[StixRelation(R.USES, "a", "b", id="r", extra={"type": "x", "id": "y"})]))
# a value that is not a str, in an extra or in a written member
@example(StixBundle(id="b", entities=[
    StixEntity(K.INDICATOR, "x", extra={"pattern": "p", "x_score": 5, "x_list": ["a"]}),
    StixEntity(K.MALWARE, "y", id=7)],
    relations=[StixRelation(R.USES, "a", None, id="r"), StixRelation(R.USES, "a", "b", id=3)]))
# control and non-ASCII characters in ids, names, refs, extra keys and values
@example(StixBundle(id=_ODD, entities=[
    StixEntity(K.INDICATOR, _ODD, id=_ODD, extra={_ODD: _ODD, "pattern": _ODD})],
    relations=[StixRelation(R.INDICATES, _ODD, "\u00e9" + _ODD, id="\x1f" + _ODD)]))
def test_save_matches_json_dumps_of_the_document(bundle):
    assert save_bundle(bundle) == reference_save(bundle)


# ---------------------------------------------------------------------------
# the string-keyed admissibility table and the slotted objects


def test_validate_checks_every_kind_triple_against_the_table():
    for src_kind in K:
        for rel_kind in R:
            for dst_kind in K:
                admissible = is_admissible(src_kind, rel_kind, dst_kind)
                triple = (src_kind.value, rel_kind.value, dst_kind.value)
                assert (triple in stix._ADMISSIBLE_TYPES) is admissible
                src, dst = StixEntity(src_kind, "a"), StixEntity(dst_kind, "b")
                rel = StixRelation(rel_kind, src.id, dst.id)
                bundle = StixBundle(id="b", entities=[src, dst], relations=[rel])
                expected = [] if admissible else [Violation(
                    "inadmissible-triple",
                    f"{src_kind.value} -{rel_kind.value}-> {dst_kind.value} is not admissible",
                    rel.id)]
                assert validate_bundle(bundle) == expected
    assert len(stix._ADMISSIBLE_TYPES) == len(ADMISSIBLE_TRIPLES)


@pytest.mark.parametrize("obj", [
    StixEntity(K.ATTACK_PATTERN, "Encrypted Channel", aliases=["C2 crypto"],
               technique_id="T1573", extra={"x": [1, {"y": None}]}),
    StixRelation(R.USES, "threat-actor--a", "attack-pattern--b", extra={"x": {"y": [2]}}),
], ids=["entity", "relation"])
def test_slotted_objects_compare_copy_pickle_and_replace(obj):
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        obj.undeclared = 1
    twin = copy.deepcopy(obj)
    assert twin == obj and twin.extra is not obj.extra
    assert pickle.loads(pickle.dumps(obj)) == obj
    assert copy.copy(obj) == obj
    renamed = dataclasses.replace(obj, id="other--id")
    assert renamed.id == "other--id" and renamed != obj
    assert dataclasses.replace(renamed, id=obj.id) == obj
