import json
import logging
import zipfile

import numpy as np
import pytest

from cti2stix.catalog import (
    CatalogEntry,
    CatalogError,
    TechniqueCatalog,
    build_catalog,
    catalog_content_hash,
    load_catalog,
    parent_technique,
    parse_attack_export,
    save_catalog,
)
from cti2stix.llm import ScriptedProvider

from conftest import MITRE_SAMPLE, VTE_CANDIDATE


def test_parent_technique():
    assert parent_technique("T1027.002") == "T1027"
    assert parent_technique("T1573") == "T1573"


class TestParse:
    def test_sample_techniques(self):
        parsed = parse_attack_export(MITRE_SAMPLE)
        assert sorted(parsed) == ["T1027", "T1573"]
        assert parsed["T1573"]["name"] == "Encrypted Channel"
        assert parsed["T1027"]["name"] == "Obfuscated Files or Information"

    def test_subtechnique_collapses_into_parent(self):
        parsed = parse_attack_export(MITRE_SAMPLE)
        examples = parsed["T1027"]["examples"]
        # The sub-technique's own description and the procedure example that
        # targeted it both land under the parent.
        assert any("pack an executable" in e for e in examples)
        assert "A packed loader hides the second stage from static analysis." in examples

    def test_procedure_example_attached(self):
        parsed = parse_attack_export(MITRE_SAMPLE)
        assert parsed["T1573"]["examples"] == [VTE_CANDIDATE]

    def test_non_attack_pattern_objects_ignored(self):
        parsed = parse_attack_export(MITRE_SAMPLE)
        for entry in parsed.values():
            assert "MITRE Corporation" not in entry["name"]

    def test_revoked_and_deprecated_skipped(self):
        export = {
            "objects": [
                {
                    "type": "attack-pattern",
                    "id": "attack-pattern--aaaa0000-0000-4000-8000-000000000001",
                    "name": "Old",
                    "description": "gone",
                    "revoked": True,
                    "external_references": [
                        {"source_name": "mitre-attack", "external_id": "T1001"}
                    ],
                },
                {
                    "type": "attack-pattern",
                    "id": "attack-pattern--aaaa0000-0000-4000-8000-000000000002",
                    "name": "Older",
                    "description": "also gone",
                    "x_mitre_deprecated": True,
                    "external_references": [
                        {"source_name": "mitre-attack", "external_id": "T1002"}
                    ],
                },
            ]
        }
        assert parse_attack_export(export) == {}

    def test_no_examples_warns(self, caplog):
        export = {
            "objects": [
                {
                    "type": "attack-pattern",
                    "id": "attack-pattern--aaaa0000-0000-4000-8000-000000000003",
                    "name": "Lonely",
                    "description": "a technique nobody exercised",
                    "external_references": [
                        {"source_name": "mitre-attack", "external_id": "T1003"}
                    ],
                }
            ]
        }
        with caplog.at_level(logging.WARNING, logger="cti2stix.catalog"):
            parsed = parse_attack_export(export)
        assert parsed["T1003"]["examples"] == []
        assert any("no procedure examples" in r.message for r in caplog.records)

    def test_reads_from_path(self, mitre_sample_path):
        assert parse_attack_export(mitre_sample_path) == parse_attack_export(MITRE_SAMPLE)


class TestBuild:
    def test_entries_have_vectors(self, mini_catalog):
        assert mini_catalog.dim == 32
        assert mini_catalog.vectors.shape == (len(mini_catalog.entries), 32)
        assert mini_catalog.vectors.dtype == np.float64
        assert np.isfinite(mini_catalog.vectors).all()

    def test_description_entries_present(self, mini_catalog):
        names = mini_catalog.technique_names()
        assert names == {
            "T1573": "Encrypted Channel",
            "T1027": "Obfuscated Files or Information",
        }

    def test_t1573_example_is_fixture_sentence(self, mini_catalog):
        texts = [e.text for e in mini_catalog.entries if e.technique_id == "T1573"]
        assert VTE_CANDIDATE in texts

    def test_deterministic_order(self):
        a = build_catalog(MITRE_SAMPLE, ScriptedProvider(script=[]))
        b = build_catalog(MITRE_SAMPLE, ScriptedProvider(script=[]))
        assert [e.technique_id for e in a.entries] == [e.technique_id for e in b.entries]
        assert a.entries == b.entries
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_content_hash_changes_with_content(self):
        parsed = parse_attack_export(MITRE_SAMPLE)
        altered = json.loads(json.dumps(parsed))
        altered["T1573"]["examples"].append("extra")
        assert catalog_content_hash(parsed) != catalog_content_hash(altered)


class TestCache:
    def test_round_trip(self, mini_catalog, tmp_path):
        path = tmp_path / "catalog.npz"
        save_catalog(mini_catalog, path)
        loaded = load_catalog(path)
        assert loaded.model == mini_catalog.model
        assert loaded.dim == mini_catalog.dim
        assert loaded.content_hash == mini_catalog.content_hash
        assert loaded.entries == mini_catalog.entries
        np.testing.assert_array_equal(loaded.vectors, mini_catalog.vectors)

    def test_compressed_catalog_still_loads(self, mini_catalog, tmp_path):
        # earlier versions wrote the same arrays with savez_compressed
        path = tmp_path / "compressed.npz"
        meta = {
            "model": mini_catalog.model,
            "dim": mini_catalog.dim,
            "content_hash": mini_catalog.content_hash,
            "entries": [
                {"technique_id": e.technique_id, "name": e.name,
                 "example_id": e.example_id, "text": e.text}
                for e in mini_catalog.entries
            ],
        }
        with path.open("wb") as fh:
            np.savez_compressed(fh, meta=json.dumps(meta), vectors=mini_catalog.vectors)
        loaded = load_catalog(path)
        assert loaded.entries == mini_catalog.entries
        np.testing.assert_array_equal(loaded.vectors, mini_catalog.vectors)

    def test_saved_uncompressed(self, mini_catalog, tmp_path):
        path = tmp_path / "catalog.npz"
        save_catalog(mini_catalog, path)
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}

    def test_second_build_uses_cache(self, tmp_path):
        path = tmp_path / "catalog.npz"
        first = ScriptedProvider(script=[])
        build_catalog(MITRE_SAMPLE, first, cache_path=path)
        assert len(first.embedded) > 0

        second = ScriptedProvider(script=[])
        catalog = build_catalog(MITRE_SAMPLE, second, cache_path=path)
        assert second.embedded == []
        assert len(catalog.entries) == len(first.embedded)

    def test_stale_content_rebuilds(self, tmp_path):
        path = tmp_path / "catalog.npz"
        build_catalog(MITRE_SAMPLE, ScriptedProvider(script=[]), cache_path=path)

        altered = json.loads(json.dumps(MITRE_SAMPLE))
        altered["objects"][0]["description"] += " More text."
        provider = ScriptedProvider(script=[])
        build_catalog(altered, provider, cache_path=path)
        assert provider.embedded != []

    def test_different_model_rebuilds(self, tmp_path):
        from cti2stix.llm import ProviderConfig

        path = tmp_path / "catalog.npz"
        build_catalog(MITRE_SAMPLE, ScriptedProvider(script=[]), cache_path=path)

        other = ScriptedProvider(
            script=[], config=ProviderConfig(embedding_model="hash-32")
        )
        build_catalog(MITRE_SAMPLE, other, cache_path=path)
        assert other.embedded != []
        # cache now carries the new model id
        assert load_catalog(path).model == "hash-32"

    def test_empty_catalog_round_trips(self, tmp_path):
        empty = TechniqueCatalog(model="hash-32", content_hash="x", entries=[],
                                 vectors=np.zeros((0, 0)))
        path = tmp_path / "empty.npz"
        save_catalog(empty, path)
        assert load_catalog(path).entries == []


def write_catalog_file(path, entries, dim, vectors):
    meta = {"model": "stub", "dim": dim, "content_hash": "x",
            "entries": [{"technique_id": tid, "name": "n", "example_id": "description",
                         "text": tid} for tid in entries]}
    with path.open("wb") as fh:
        np.savez(fh, meta=json.dumps(meta), vectors=vectors)


class TestMalformedFile:
    def test_fewer_rows_than_entries(self, tmp_path):
        path = tmp_path / "short.npz"
        write_catalog_file(path, ["T1001", "T1002", "T1003"], 3, np.ones((2, 3)))
        with pytest.raises(CatalogError, match=r"shape \(2, 3\).*\(3, 3\)"):
            load_catalog(path)

    def test_rows_wider_than_metadata_dim(self, tmp_path):
        path = tmp_path / "wide.npz"
        write_catalog_file(path, ["T1001", "T1002"], 3, np.ones((2, 5)))
        with pytest.raises(CatalogError, match=r"shape \(2, 5\).*\(2, 3\)"):
            load_catalog(path)

    def test_not_a_catalog(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(CatalogError, match="cannot read catalog"):
            load_catalog(path)


class TestSegments:
    def test_interleaved_ids_group_stably(self):
        ids = ["T1002", "T1001", "T1002", "T1003", "T1001"]
        catalog = TechniqueCatalog(
            model="stub", content_hash="x",
            entries=[CatalogEntry(tid, "n", f"e{i}", "t") for i, tid in enumerate(ids)],
            vectors=np.eye(5),
        )
        assert catalog.order.tolist() == [1, 4, 0, 2, 3]
        assert catalog.starts.tolist() == [0, 2, 4]

    def test_row_count_must_match_entries(self):
        with pytest.raises(CatalogError):
            TechniqueCatalog(model="stub", content_hash="x",
                             entries=[CatalogEntry("T1001", "n", "description", "t")],
                             vectors=np.ones((2, 3)))
