import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cti2stix.evaluation import (
    EVAL_KINDS,
    GroundTruth,
    GroundTruthEntity,
    GroundTruthRelation,
    MatchSets,
    Scores,
    extracted_names,
    filter_without_explicit_ids,
    load_ground_truth_dir,
    load_ground_truth_file,
    match_entities,
    percentile,
    score_bundle,
    score_matches,
    scores_payload,
    summarize,
    write_scores,
)
from cti2stix.stix import (
    EntityKind,
    RelationKind,
    StixEntity,
    StixRelation,
    new_bundle,
    normalize_name,
)


def brute_force_match(extracted, truth):
    """Reference matcher: nested loops, no maps."""
    tp, fp, fn = set(), set(), set()
    for gt in truth:
        aliases = {normalize_name(n) for n in gt.all_names()}
        if any(normalize_name(x) in aliases for x in extracted):
            tp.add(normalize_name(gt.name))
        else:
            fn.add(normalize_name(gt.name))
    for x in extracted:
        nx = normalize_name(x)
        if not nx:
            continue
        if not any(
            nx in {normalize_name(n) for n in gt.all_names()} for gt in truth
        ):
            fp.add(nx)
    return MatchSets(frozenset(tp), frozenset(fp), frozenset(fn))


class TestMatching:
    def test_alias_hit_counts_once(self):
        truth = [GroundTruthEntity("LockBit 2.0", aliases=("LockBit", "ABCD"))]
        match = match_entities(["lockbit", "LockBit 2.0", "ABCD"], truth)
        assert match.tp == {"lockbit 2.0"}
        assert match.fp == frozenset()
        assert match.fn == frozenset()

    def test_unmatched_extraction_is_fp(self):
        truth = [GroundTruthEntity("HelloXD")]
        match = match_entities(["HelloXD", "SpectralKit"], truth)
        assert match.tp == {"helloxd"}
        assert match.fp == {"spectralkit"}

    def test_missed_truth_is_fn(self):
        truth = [GroundTruthEntity("HelloXD"), GroundTruthEntity("x4k")]
        match = match_entities(["x4k"], truth)
        assert match.fn == {"helloxd"}

    def test_normalization_applies_to_both_sides(self):
        truth = [GroundTruthEntity('  "Emotet"  ')]
        match = match_entities(["EMOTET"], truth)
        assert match.tp == {"emotet"}

    def test_empty_extracted_names_ignored(self):
        match = match_entities(["", "   "], [GroundTruthEntity("A")])
        assert match.fp == frozenset()
        assert match.fn == {"a"}

    def test_permutation_and_duplication_invariant(self):
        truth = [GroundTruthEntity("Alpha", aliases=("A1",)), GroundTruthEntity("Beta")]
        a = match_entities(["alpha", "Beta", "junk"], truth)
        b = match_entities(["junk", "Beta", "Beta", "A1", "alpha", "junk"], truth)
        assert a == b

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 5), st.integers(0, 2)),
            max_size=12,
        ),
        st.integers(0, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, picks, n_truth):
        truth = [
            GroundTruthEntity(f"gt{i} name", aliases=(f"gt{i} alias0", f"gt{i} alias1"))
            for i in range(n_truth)
        ]
        extracted = []
        for use_alias, idx, alias_no in picks:
            if use_alias and idx < n_truth:
                extracted.append(f"GT{idx} ALIAS{alias_no % 2}")
            else:
                extracted.append(f"noise {idx}.{alias_no}")
        assert match_entities(extracted, truth) == brute_force_match(extracted, truth)


class TestScores:
    def test_balanced_half(self):
        s = score_matches(MatchSets(frozenset({"a"}), frozenset({"b"}), frozenset({"c"})))
        assert (s.recall, s.precision, s.f1) == (0.5, 0.5, 0.5)

    def test_perfect_precision_low_recall(self):
        s = score_matches(
            MatchSets(frozenset({"a"}), frozenset(), frozenset({"b", "c"}))
        )
        assert s.recall == pytest.approx(1 / 3)
        assert s.precision == 1.0
        assert s.f1 == pytest.approx(0.5)

    def test_vacuous_perfect(self):
        s = score_matches(MatchSets(frozenset(), frozenset(), frozenset()))
        assert (s.recall, s.precision, s.f1) == (1.0, 1.0, 1.0)

    def test_all_spurious(self):
        s = score_matches(MatchSets(frozenset(), frozenset({"x"}), frozenset()))
        assert s.recall == 1.0
        assert s.precision == 0.0
        assert s.f1 == 0.0

    def test_all_missed(self):
        s = score_matches(MatchSets(frozenset(), frozenset(), frozenset({"x"})))
        assert (s.recall, s.precision, s.f1) == (0.0, 1.0, 0.0)

    @given(
        tp=st.integers(min_value=0, max_value=20),
        fp=st.integers(min_value=0, max_value=20),
        fn=st.integers(min_value=0, max_value=20),
    )
    def test_f1_bounds(self, tp, fp, fn):
        match = MatchSets(
            frozenset(f"t{i}" for i in range(tp)),
            frozenset(f"p{i}" for i in range(fp)),
            frozenset(f"n{i}" for i in range(fn)),
        )
        s = score_matches(match)
        assert s.f1 <= (s.precision + s.recall) / 2 + 1e-12
        if tp + fp + fn > 0:  # non-vacuous: something was extracted or expected
            assert (s.f1 == 0.0) == (tp == 0)


class TestSummaries:
    def test_mean(self):
        stats = summarize([21, 22, 23, 21, 22])
        assert stats["mean"] == pytest.approx(21.8)
        assert stats["n"] == 5

    @pytest.mark.parametrize(
        "q,expected", [(0.25, 21), (0.5, 22), (0.75, 22), (1.0, 23), (0.01, 21)]
    )
    def test_nearest_rank(self, q, expected):
        assert percentile([21, 22, 23, 21, 22], q) == expected

    def test_single_value(self):
        assert percentile([7.0], 0.25) == 7.0
        assert percentile([7.0], 1.0) == 7.0

    def test_percentile_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)

    def test_empty_summary(self):
        assert summarize([]) == {"n": 0}


def sample_bundle():
    bundle = new_bundle("r1")
    malware = StixEntity(kind=EntityKind.MALWARE, name="HelloXD")
    actor = StixEntity(kind=EntityKind.THREAT_ACTOR, name="x4k")
    target = StixEntity(kind=EntityKind.IDENTITY, name="Windows and Linux systems")
    bystander = StixEntity(kind=EntityKind.IDENTITY, name="CERT-EU")
    ap = StixEntity(
        kind=EntityKind.ATTACK_PATTERN, name="Software Packing", technique_id="T1027.002"
    )
    bundle.entities += [malware, actor, target, bystander, ap]
    bundle.relations += [
        StixRelation(kind=RelationKind.TARGETS, source_ref=malware.id, target_ref=target.id),
        StixRelation(kind=RelationKind.USES, source_ref=actor.id, target_ref=malware.id),
    ]
    return bundle


class TestBundleExtraction:
    def test_kind_names(self):
        bundle = sample_bundle()
        assert extracted_names(bundle, "malware") == ["HelloXD"]
        assert extracted_names(bundle, "threat_actor") == ["x4k"]

    def test_target_requires_targets_edge(self):
        names = extracted_names(sample_bundle(), "target")
        assert names == ["Windows and Linux systems"]  # CERT-EU untargeted

    def test_attack_pattern_names_are_parent_ids(self):
        assert extracted_names(sample_bundle(), "attack_pattern") == ["T1027"]

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown evaluation kind"):
            extracted_names(sample_bundle(), "campaign")

    def test_score_bundle_against_truth(self):
        gt = GroundTruth(
            report_id="r1",
            entities={
                "malware": [GroundTruthEntity("helloxd")],
                "threat_actor": [GroundTruthEntity("X4K")],
                "target": [GroundTruthEntity("Windows and Linux systems")],
                "attack_pattern": [GroundTruthEntity("T1027.002")],
            },
            relations=[
                GroundTruthRelation("HelloXD", EntityKind.MALWARE, RelationKind.TARGETS,
                                    "Windows and Linux systems", EntityKind.IDENTITY),
                GroundTruthRelation("x4k", EntityKind.THREAT_ACTOR, RelationKind.USES,
                                    "helloxd", EntityKind.MALWARE),
            ],
        )
        scored = score_bundle(sample_bundle(), gt)
        for kind in EVAL_KINDS:
            assert scored[kind][1] == Scores(1.0, 1.0, 1.0), kind


class TestGroundTruthIO:
    def test_file_round_trip(self, tmp_path):
        (tmp_path / "r7.txt").write_text("Report text.", encoding="utf-8")
        (tmp_path / "r7.json").write_text(
            json.dumps(
                {
                    "malware": ["HelloXD", {"name": "LockBit 2.0", "aliases": ["LockBit"]}],
                    "threat_actor": [{"name": "x4k"}],
                    "relations": [
                        {
                            "source": "x4k",
                            "source_kind": "threat-actor",
                            "relation": "uses",
                            "target": "HelloXD",
                            "target_kind": "malware",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        gt = load_ground_truth_file(tmp_path / "r7.json")
        assert gt.report_id == "r7"
        assert gt.text == "Report text."
        assert gt.entities["malware"][1].aliases == ("LockBit",)
        assert gt.relations == [
            GroundTruthRelation(
                "x4k", EntityKind.THREAT_ACTOR, RelationKind.USES,
                "HelloXD", EntityKind.MALWARE,
            )
        ]

    def test_dir_load_skips_index(self, tmp_path):
        for rid in ("a", "b"):
            (tmp_path / f"{rid}.json").write_text(
                json.dumps({"malware": ["X"]}), encoding="utf-8"
            )
        (tmp_path / "index.json").write_text("{}", encoding="utf-8")
        loaded = load_ground_truth_dir(tmp_path)
        assert sorted(loaded) == ["a", "b"]

    def test_dir_load_refuses_a_repeated_report_id(self, tmp_path):
        for name in ("first", "second"):
            (tmp_path / f"{name}.json").write_text(
                json.dumps({"report_id": "r1", "malware": [name]}), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_ground_truth_dir(tmp_path)
        assert str(err.value) == (f"ground truth {tmp_path / 'second.json'}: report id 'r1' "
                                  f"is already taken by {tmp_path / 'first.json'}")


class TestSubsetFilter:
    def test_drops_reports_with_written_ids(self):
        texts = {f"r{i}": "plain prose only" for i in range(7)}
        texts["x1"] = "mapped to T1059 by the analyst"
        texts["x2"] = "uses T1027.002 packing"
        texts["x3"] = "see T1566."
        kept = filter_without_explicit_ids(texts)
        assert sorted(kept) == sorted(f"r{i}" for i in range(7))
        assert len(kept) == 7


def benchmark_truth():
    return GroundTruth(
        report_id="bench-1",
        entities={
            "malware": [GroundTruthEntity("HelloXD"), GroundTruthEntity("GrimVault")],
            "threat_actor": [GroundTruthEntity("x4k")],
            "target": [GroundTruthEntity("Windows and Linux systems")],
        },
        relations=[
            GroundTruthRelation(
                "x4k", EntityKind.THREAT_ACTOR, RelationKind.USES,
                "HelloXD", EntityKind.MALWARE,
            ),
            GroundTruthRelation(
                "HelloXD", EntityKind.MALWARE, RelationKind.TARGETS,
                "Windows and Linux systems", EntityKind.IDENTITY,
            ),
            GroundTruthRelation(
                "x4k", EntityKind.THREAT_ACTOR, RelationKind.TARGETS,
                "Windows and Linux systems", EntityKind.IDENTITY,
            ),
        ],
    )


def benchmark_bundle(gt):
    """A bundle holding *gt*'s malware, actors and targets, and its relations."""
    bundle = new_bundle(gt.report_id)
    by_name = {}
    for kind, entity_kind in (("malware", EntityKind.MALWARE),
                              ("threat_actor", EntityKind.THREAT_ACTOR),
                              ("target", EntityKind.IDENTITY)):
        for entry in gt.entities.get(kind, []):
            by_name[entry.name] = StixEntity(entity_kind, entry.name)
    bundle.entities = list(by_name.values())
    bundle.relations = [
        StixRelation(r.relation, by_name[r.source].id, by_name[r.target].id)
        for r in gt.relations
    ]
    return bundle


def relation_scores(bundle, gt):
    return score_bundle(bundle, gt, ["relation"])["relation"][1]


class TestRelationKind:
    def test_edge_keys_are_normalized_triples(self):
        bundle = sample_bundle()
        assert extracted_names(bundle, "relation") == [
            "(helloxd) targets (windows and linux systems)",
            "(x4k) uses (helloxd)",
        ]

    @pytest.mark.parametrize("source,target", [
        ("The x4k crew", "HelloXD"),
        ("x4k", "HelloXD ransomware"),
        ("The x4k crew", "HelloXD ransomware"),
    ])
    def test_alias_on_either_end_matches(self, source, target):
        gt = GroundTruth(
            report_id="aliases",
            entities={
                "malware": [GroundTruthEntity("HelloXD", ("HelloXD ransomware",))],
                "threat_actor": [GroundTruthEntity("x4k", ("The x4k crew",))],
            },
            relations=[GroundTruthRelation("x4k", EntityKind.THREAT_ACTOR, RelationKind.USES,
                                           "HelloXD", EntityKind.MALWARE)],
        )
        actor = StixEntity(EntityKind.THREAT_ACTOR, source)
        malware = StixEntity(EntityKind.MALWARE, target)
        bundle = new_bundle("aliases")
        bundle.entities = [actor, malware]
        bundle.relations = [StixRelation(RelationKind.USES, actor.id, malware.id)]
        assert relation_scores(bundle, gt) == Scores(1.0, 1.0, 1.0)

    def test_wrong_kind_or_direction_is_a_miss_and_a_false_positive(self):
        gt = benchmark_truth()
        bundle = benchmark_bundle(gt)
        uses = bundle.relations[0]
        assert uses.kind is RelationKind.USES
        bundle.relations[0] = StixRelation(RelationKind.TARGETS, uses.source_ref, uses.target_ref)
        match, _ = score_bundle(bundle, gt, ["relation"])["relation"]
        assert (len(match.tp), len(match.fp), len(match.fn)) == (2, 1, 1)

    def test_misnamed_entity_costs_its_edges(self):
        gt = benchmark_truth()
        bundle = benchmark_bundle(gt)
        renamed = StixEntity(EntityKind.THREAT_ACTOR, "x4k operators")
        old = next(e for e in bundle.entities if e.name == "x4k")
        bundle.entities[bundle.entities.index(old)] = renamed
        for r in bundle.relations:
            if r.source_ref == old.id:
                r.source_ref = renamed.id
        match, _ = score_bundle(bundle, gt, ["relation"])["relation"]
        assert (len(match.tp), len(match.fp), len(match.fn)) == (1, 2, 2)

    def test_ground_truth_edges_to_other_kinds_are_not_scored(self):
        gt = benchmark_truth()
        gt.relations.append(GroundTruthRelation("HelloXD", EntityKind.MALWARE, RelationKind.USES,
                                                "T1573", EntityKind.ATTACK_PATTERN))
        assert relation_scores(benchmark_bundle(benchmark_truth()), gt) == Scores(1.0, 1.0, 1.0)


class TestScoreOutput:
    def payload(self):
        per_report = {
            "r1": {"malware": Scores(1.0, 1.0, 1.0), "target": Scores(0.5, 0.5, 0.5)},
            "r2": {"malware": Scores(0.0, 1.0, 0.0)},
        }
        return scores_payload(per_report)

    def test_payload_shape(self):
        payload = self.payload()
        assert payload["per_report"]["r1"]["malware"]["f1"] == 1.0
        agg = payload["aggregate"]["malware"]
        assert agg["f1"]["mean"] == pytest.approx(0.5)
        assert agg["f1"]["n"] == 2

    def test_subset_restricts_aggregate_only(self):
        per_report = {
            "r1": {"attack_pattern": Scores(1.0, 1.0, 1.0)},
            "r2": {"attack_pattern": Scores(0.0, 1.0, 0.0)},
        }
        payload = scores_payload(per_report, subset_ids={"attack_pattern": ["r1"]})
        assert payload["aggregate"]["attack_pattern"]["f1"]["n"] == 1
        assert payload["aggregate"]["attack_pattern"]["f1"]["mean"] == 1.0
        assert set(payload["per_report"]) == {"r1", "r2"}

    def test_write_scores_files(self, tmp_path):
        payload = self.payload()
        json_path = tmp_path / "scores.json"
        csv_path = tmp_path / "scores.csv"
        write_scores(payload, json_path, csv_path)

        reloaded = json.loads(json_path.read_text(encoding="utf-8"))
        assert reloaded["per_report"]["r2"]["malware"]["recall"] == 0.0

        rows = csv_path.read_text(encoding="utf-8").strip().splitlines()
        assert rows[0] == "report,kind,metric,value"
        assert "r1,malware,f1,1.000000" in rows
        assert any(row.startswith("__aggregate__,malware,f1.mean,") for row in rows)
