import json
import logging
import struct
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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

    def test_failed_save_keeps_previous_file(self, mini_catalog, tmp_path, monkeypatch):
        path = tmp_path / "catalog.npz"
        save_catalog(mini_catalog, path)
        before = path.read_bytes()

        def write_part_then_fail(fp, array, *args, **kwargs):
            fp.write(b"\x93NUMPY" + bytes(100))
            raise OSError("disk full")

        monkeypatch.setattr(np.lib.format, "write_array", write_part_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_catalog(mini_catalog, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_catalog(path).entries == mini_catalog.entries
        assert [p.name for p in tmp_path.iterdir()] == ["catalog.npz"]

    def test_loaded_catalog_survives_resave(self, mini_catalog, tmp_path):
        path = tmp_path / "catalog.npz"
        save_catalog(mini_catalog, path)
        loaded = load_catalog(path)
        old_rows = mini_catalog.vectors.copy()
        replacement = TechniqueCatalog(model="other", content_hash="y",
                                       entries=mini_catalog.entries,
                                       vectors=-2 * mini_catalog.vectors)
        save_catalog(replacement, path)
        np.testing.assert_array_equal(loaded.vectors, old_rows)
        np.testing.assert_array_equal(load_catalog(path).vectors, replacement.vectors)

    def test_unreadable_cache_rebuilds(self, tmp_path, caplog):
        path = tmp_path / "catalog.npz"
        build_catalog(MITRE_SAMPLE, ScriptedProvider(script=[]), cache_path=path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        provider = ScriptedProvider(script=[])
        with caplog.at_level(logging.WARNING, logger="cti2stix.catalog"):
            catalog = build_catalog(MITRE_SAMPLE, provider, cache_path=path)
        assert provider.embedded != []
        assert any("rebuilding" in r.message for r in caplog.records)
        assert load_catalog(path).entries == catalog.entries

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


def npy_data_offset(path, member):
    """File offset of the array data of a ``.npy`` member, read with plain
    file I/O: the zip directory, the local header and the ``.npy`` header."""
    with zipfile.ZipFile(path) as zf:
        header_offset = zf.getinfo(member).header_offset
    with open(path, "rb") as fh:
        fh.seek(header_offset)
        name_len, extra_len = struct.unpack("<26xHH", fh.read(30))
        fh.seek(name_len + extra_len, 1)
        version = np.lib.format.read_magic(fh)
        {(1, 0): np.lib.format.read_array_header_1_0,
         (2, 0): np.lib.format.read_array_header_2_0}[version](fh)
        return fh.tell()


def make_catalog(vectors):
    entries = [CatalogEntry(f"T{1000 + i}", "n", "description", f"text {i}")
               for i in range(len(vectors))]
    return TechniqueCatalog(model="stub", content_hash="x", entries=entries, vectors=vectors)


def write_legacy(path, catalog, writer=np.savez):
    """A catalog as earlier versions wrote it."""
    meta = {"model": catalog.model, "dim": catalog.dim, "content_hash": catalog.content_hash,
            "entries": [{"technique_id": e.technique_id, "name": e.name,
                         "example_id": e.example_id, "text": e.text} for e in catalog.entries]}
    with path.open("wb") as fh:
        writer(fh, meta=json.dumps(meta, ensure_ascii=False), vectors=catalog.vectors)


class TestMappedFile:
    @settings(max_examples=40, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(0, 5), st.integers(0, 7)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(np.zeros((0, 0)))
    @example(np.array([[-0.0, 5e-324, -2.2250738585072014e-308, 1.5]]))
    def test_round_trip_is_an_aligned_read_only_view(self, vectors):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "catalog.npz"
            save_catalog(make_catalog(vectors), path)
            loaded = load_catalog(path)
            with np.load(path, allow_pickle=False) as data:
                reference = data["vectors"]
            assert npy_data_offset(path, "vectors.npy") % 64 == 0
        assert loaded.vectors.shape == vectors.shape == reference.shape
        assert loaded.vectors.tobytes() == vectors.tobytes() == reference.tobytes()
        flags = loaded.vectors.flags
        assert flags.aligned and flags.c_contiguous
        assert not flags.writeable and not flags.owndata

    @pytest.mark.parametrize("member", ["meta.npy", "vectors.npy"])
    @pytest.mark.parametrize("where", ["header", "data"])
    def test_flipped_byte_fails_crc(self, mini_catalog, tmp_path, member, where):
        path = tmp_path / "catalog.npz"
        save_catalog(mini_catalog, path)
        offset = npy_data_offset(path, member)
        raw = bytearray(path.read_bytes())
        raw[offset - 60 if where == "header" else offset + 3] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(CatalogError, match=f"{member} fails its CRC-32 check"):
            load_catalog(path)

    def test_truncated_inside_vectors(self, mini_catalog, tmp_path):
        path = tmp_path / "catalog.npz"
        save_catalog(mini_catalog, path)
        keep = npy_data_offset(path, "vectors.npy") + 100
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(CatalogError, match="cannot read catalog"):
            load_catalog(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.npz"
        path.write_bytes(b"")
        with pytest.raises(CatalogError, match="cannot read catalog"):
            load_catalog(path)

    @pytest.mark.parametrize("member", ["meta", "vectors"])
    def test_object_array_refused(self, tmp_path, member):
        path = tmp_path / "pickled.npz"
        members = {"meta": json.dumps({"model": "stub", "dim": 1, "content_hash": "x",
                                       "entries": []}),
                   "vectors": np.zeros((0, 1))}
        members[member] = np.asarray(members[member], dtype=object)
        with path.open("wb") as fh:
            np.savez(fh, **members)  # pickles the object array
        with pytest.raises(CatalogError, match="object arrays are refused"):
            load_catalog(path)

    @pytest.mark.parametrize("text_len", range(0, 64, 9))
    def test_savez_catalog_loads_equal(self, tmp_path, text_len):
        # metadata of varying length puts the matrix at varying offsets
        catalog = make_catalog(np.arange(12.0).reshape(3, 4) / 7)
        catalog.entries[0].text = "x" * text_len
        path = tmp_path / "legacy.npz"
        write_legacy(path, catalog)
        loaded = load_catalog(path)
        assert loaded.entries == catalog.entries
        assert loaded.vectors.tobytes() == catalog.vectors.tobytes()
        assert loaded.vectors.flags.aligned
        if npy_data_offset(path, "vectors.npy") % 8:
            assert loaded.vectors.flags.owndata  # the one copy

    def test_cache_hit_rewrites_savez_file_for_mapping(self, tmp_path):
        path = tmp_path / "catalog.npz"
        write_legacy(path, build_catalog(MITRE_SAMPLE, ScriptedProvider(script=[])))
        assert load_catalog(path).vectors.flags.owndata  # loads by copying

        provider = ScriptedProvider(script=[])
        build_catalog(MITRE_SAMPLE, provider, cache_path=path)
        assert provider.embedded == []
        assert npy_data_offset(path, "vectors.npy") % 64 == 0
        assert not load_catalog(path).vectors.flags.owndata

    def test_cache_hit_rewrites_compressed_file_for_mapping(self, tmp_path):
        # the inflated matrix is a view of fresh bytes, so it owns no data
        # either, yet every load inflates it again
        path = tmp_path / "catalog.npz"
        write_legacy(path, build_catalog(MITRE_SAMPLE, ScriptedProvider(script=[])),
                     np.savez_compressed)

        provider = ScriptedProvider(script=[])
        build_catalog(MITRE_SAMPLE, provider, cache_path=path)
        assert provider.embedded == []
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}
        assert npy_data_offset(path, "vectors.npy") % 64 == 0
        before = path.stat().st_mtime_ns, path.stat().st_ino
        build_catalog(MITRE_SAMPLE, ScriptedProvider(script=[]), cache_path=path)
        assert (path.stat().st_mtime_ns, path.stat().st_ino) == before  # mapped: kept


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
