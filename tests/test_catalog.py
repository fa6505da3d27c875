import json
import logging
import os
import re
import struct
import tempfile
import threading
import zlib
from pathlib import Path
from types import SimpleNamespace

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
    parse_attack_export,
    save_catalog,
)
from cti2stix.llm import HashEmbedder, HttpProvider, ProviderConfig, ScriptedProvider
from cti2stix.stix import parent_technique

from conftest import (
    MITRE_SAMPLE,
    VTE_CANDIDATE,
    catalog_file_contents,
    savez_aligned,
    write_legacy_catalog,
    write_raw_catalog,
    write_unchecked_catalog,
)


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
        assert mini_catalog.vectors.dtype == np.float32
        assert np.isfinite(mini_catalog.vectors).all()

    def test_description_entries_present(self, mini_catalog):
        names = mini_catalog.technique_names()
        assert names == {
            "T1573": "Encrypted Channel",
            "T1027": "Obfuscated Files or Information",
        }

    def test_technique_without_description_is_named(self):
        # a technique whose ATT&CK description is empty is still named by
        # its ATT&CK name, and counted, when procedure examples embed it
        export = {"objects": [
            {"type": "attack-pattern", "id": "attack-pattern--1", "name": "Phishing",
             "description": "", "external_references": [
                 {"source_name": "mitre-attack", "external_id": "T1566"}]},
            {"type": "relationship", "relationship_type": "uses",
             "source_ref": "intrusion-set--1", "target_ref": "attack-pattern--1",
             "description": "The group mailed lures to staff."},
        ]}
        catalog = build_catalog(export, ScriptedProvider(script=[]))
        assert [(e.technique_id, e.example_id) for e in catalog.entries] == [
            ("T1566", "procedure-0")]
        assert catalog.technique_names() == {"T1566": "Phishing"}
        assert four_entry_catalog().technique_names() == {
            "T1001": "Alpha", "T1002": "Bravo", "T1003": "Charlie"}

    def test_t1573_example_is_fixture_sentence(self, mini_catalog):
        texts = [e.text for e in mini_catalog.entries if e.technique_id == "T1573"]
        assert VTE_CANDIDATE in texts

    def test_deterministic_order(self):
        a = build_catalog(MITRE_SAMPLE, ScriptedProvider(script=[]))
        b = build_catalog(MITRE_SAMPLE, ScriptedProvider(script=[]))
        assert [e.technique_id for e in a.entries] == [e.technique_id for e in b.entries]
        assert list(a.entries) == list(b.entries)
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
        assert list(loaded.entries) == list(mini_catalog.entries)
        np.testing.assert_array_equal(loaded.vectors, mini_catalog.vectors)

    def test_saved_uncompressed(self, mini_catalog, tmp_path):
        path = tmp_path / "catalog.npz"
        save_catalog(mini_catalog, path)
        raw = path.read_bytes()
        header, offset = read_header(path)
        assert raw.startswith(b"cti2stix-catalog 2\n")
        assert raw[offset:offset + mini_catalog.vectors.nbytes] == mini_catalog.vectors.tobytes()
        assert header["dtype"] == "<f4" and header["shape"] == list(mini_catalog.vectors.shape)
        assert header["dim"] == mini_catalog.dim and header["model"] == mini_catalog.model

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

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", fail)  # after the new file is written
        with pytest.raises(OSError, match="disk full"):
            save_catalog(mini_catalog, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(load_catalog(path).entries) == list(mini_catalog.entries)
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
        assert list(load_catalog(path).entries) == list(catalog.entries)

    def test_empty_catalog_round_trips(self, tmp_path):
        empty = TechniqueCatalog(model="hash-32", content_hash="x", entries=[],
                                 vectors=np.zeros((0, 0), dtype=np.float32))
        path = tmp_path / "empty.npz"
        save_catalog(empty, path)
        assert list(load_catalog(path).entries) == []


def write_catalog_file(path, entries, dim, vectors):
    write_unchecked_catalog(path, SimpleNamespace(
        model="stub", dim=dim, content_hash="x", vectors=vectors,
        entries=[CatalogEntry(tid, "n", "description", tid) for tid in entries]))


class TestMalformedFile:
    def test_fewer_rows_than_entries(self, tmp_path):
        path = tmp_path / "short.npz"
        write_catalog_file(path, ["T1001", "T1002", "T1003"], 3, np.ones((2, 3), np.float32))
        with pytest.raises(CatalogError, match=r"shape \(2, 3\).*\(3, 3\)"):
            load_catalog(path)

    def test_rows_wider_than_metadata_dim(self, tmp_path):
        path = tmp_path / "wide.npz"
        write_catalog_file(path, ["T1001", "T1002"], 3, np.ones((2, 5), np.float32))
        with pytest.raises(CatalogError, match=r"shape \(2, 5\).*\(2, 3\)"):
            load_catalog(path)

    def test_not_a_catalog(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(CatalogError, match="cannot read catalog"):
            load_catalog(path)


def read_header(path):
    """The parsed header of a catalog file and the file offset of its matrix,
    read as the layout gives them: a magic line, the header's length and
    CRC-32 (``<QI``), then the header."""
    raw = path.read_bytes()
    start = raw.index(b"\n") + 1 + 12
    (length,) = struct.unpack_from("<Q", raw, start - 12)
    return json.loads(raw[start:start + length]), start + length


def make_catalog(vectors):
    entries = [CatalogEntry(f"T{1000 + i}", "n", "description", f"text {i}")
               for i in range(len(vectors))]
    return TechniqueCatalog(model="stub", content_hash="x", entries=entries, vectors=vectors)


class TestMappedFile:
    @settings(max_examples=80, deadline=None)
    @given(arrays(np.float32, st.tuples(st.integers(0, 5), st.integers(0, 7)),
                  elements=st.floats(allow_nan=False, allow_infinity=False, width=32)))
    @example(np.zeros((0, 0), dtype=np.float32))
    @example(np.array([[-0.0, 1e-45, -1.1754944e-38, 1.5]], dtype=np.float32))
    def test_round_trip_is_an_aligned_read_only_view(self, vectors):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "catalog.npz"
            save_catalog(make_catalog(vectors), path)
            loaded = load_catalog(path)
            header, offset = read_header(path)
            assert offset % 64 == 0
            assert path.read_bytes()[offset:offset + vectors.nbytes] == vectors.tobytes()
        assert header["dtype"] == vectors.dtype.str
        assert loaded.vectors.shape == vectors.shape
        assert loaded.vectors.dtype == vectors.dtype
        assert loaded.vectors.tobytes() == vectors.tobytes()
        assert loaded.vectors.ctypes.data % 64 == 0
        flags = loaded.vectors.flags
        assert flags.aligned and flags.c_contiguous
        assert not flags.writeable and not flags.owndata

    # The cases keep the names of the older zip layout's regions; each flips a
    # byte where that region's content now lives, under the CRC that covers it:
    # the metadata's framing is the stored header CRC-32, the metadata is the
    # JSON header's entries, the matrix's .npy header is the JSON header's
    # dtype, and the matrix's data is the matrix.
    @pytest.mark.parametrize("where, member", [
        ("header", "meta.npy"), ("data", "meta.npy"),
        ("header", "vectors.npy"), ("data", "vectors.npy"),
    ], ids=["header-meta.npy", "data-meta.npy", "header-vectors.npy", "data-vectors.npy"])
    def test_flipped_byte_fails_crc(self, mini_catalog, tmp_path, where, member):
        path = tmp_path / "catalog.npz"
        save_catalog(mini_catalog, path)
        _, offset = read_header(path)
        raw = bytearray(path.read_bytes())
        at, part = {
            ("header", "meta.npy"): (raw.index(b"\n") + 1 + 8, "header"),
            ("data", "meta.npy"): (raw.index(b'"entries"') + 20, "header"),
            ("header", "vectors.npy"): (raw.index(b'"dtype": "') + 11, "header"),
            ("data", "vectors.npy"): (offset + 3, "matrix"),
        }[where, member]
        assert at < offset or part == "matrix"
        raw[at] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(CatalogError, match=f"{part} fails its CRC-32 check"):
            load_catalog(path)

    def test_matrix_crc_runs_on_a_helper_thread(self, mini_catalog, tmp_path, monkeypatch):
        """The header's CRC-32 is checked on the calling thread, the matrix's
        and every other part's on the helper."""
        path = tmp_path / "catalog.npz"
        save_catalog(mini_catalog, path)
        header, offset = read_header(path)
        crc32 = zlib.crc32
        checked = []

        def spy(data, *args):
            checked.append((len(data), threading.current_thread() is threading.main_thread()))
            return crc32(data, *args)

        monkeypatch.setattr(zlib, "crc32", spy)
        load_catalog(path)
        parts = [(size, False) for size, _ in header["parts"].values()]
        assert (mini_catalog.vectors.nbytes, False) in parts
        assert sorted(checked) == sorted([(offset - 31, True)] + parts)

    def test_truncated_inside_vectors(self, mini_catalog, tmp_path):
        path = tmp_path / "catalog.npz"
        save_catalog(mini_catalog, path)
        _, offset = read_header(path)
        path.write_bytes(path.read_bytes()[:offset + 100])
        with pytest.raises(CatalogError, match="cannot read catalog.*matrix holds 100 bytes"):
            load_catalog(path)

    @pytest.mark.parametrize("cut", ["length", "header"])
    def test_truncated_before_the_matrix(self, mini_catalog, tmp_path, cut):
        path = tmp_path / "catalog.npz"
        save_catalog(mini_catalog, path)
        _, offset = read_header(path)
        keep = len(b"cti2stix-catalog 1\n") + 5 if cut == "length" else offset - 100
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
        # a pickled array is refused with the rest of the zip, never unpickled
        path = tmp_path / "pickled.npz"
        members = {"meta": json.dumps({"model": "stub", "dim": 1, "content_hash": "x",
                                       "entries": []}),
                   "vectors": np.zeros((0, 1))}
        members[member] = np.asarray(members[member], dtype=object)
        with path.open("wb") as fh:
            np.savez(fh, **members)  # pickles the object array
        with pytest.raises(CatalogError, match="older version"):
            load_catalog(path)

    @pytest.mark.parametrize("dtype", ["|O", "<f2", ">f4", ">f8"])
    def test_header_dtype_refused(self, tmp_path, dtype):
        path = tmp_path / "odd.npz"
        header, parts = catalog_file_contents(SimpleNamespace(
            model="stub", dim=3, content_hash="x", vectors=np.zeros((1, 3)),
            entries=[CatalogEntry("T1001", "n", "d", "t")]))
        write_raw_catalog(path, dict(header, dtype=dtype), parts)
        with pytest.raises(CatalogError, match=re.escape(f"vectors have dtype {dtype}, ")):
            load_catalog(path)

    def test_older_file_refused(self, mini_catalog, tmp_path, legacy_writer):
        path = tmp_path / "legacy.npz"
        write_legacy_catalog(path, mini_catalog, legacy_writer)
        with pytest.raises(CatalogError, match="older version.*`cti2stix catalog build`"):
            load_catalog(path)

    def test_cache_hit_on_older_file_rebuilds(self, tmp_path, legacy_writer, caplog):
        path = tmp_path / "catalog.npz"
        write_legacy_catalog(path, build_catalog(MITRE_SAMPLE, ScriptedProvider(script=[])),
                             legacy_writer)
        provider = ScriptedProvider(script=[])
        with caplog.at_level(logging.WARNING, logger="cti2stix.catalog"):
            build_catalog(MITRE_SAMPLE, provider, cache_path=path)
        assert provider.embedded != []
        assert any("older version" in r.message and "rebuilding" in r.message
                   for r in caplog.records)
        assert read_header(path)[1] % 64 == 0
        assert not load_catalog(path).vectors.flags.owndata

    def test_rebuild_of_older_file_reads_the_response_cache(self, tmp_path, monkeypatch):
        """``catalog build`` over a zip-layout file re-embeds through the
        response cache: with the embeddings cached, no request is sent."""
        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        requests = []

        def transport(url, payload, headers, timeout):
            requests.append(payload)
            vectors = HashEmbedder().embed(payload["input"])
            return 200, {"data": [{"index": i, "embedding": v.tolist()}
                                  for i, v in enumerate(vectors)]}

        config = ProviderConfig(cache_path=str(tmp_path / "responses.jsonl"))
        first = build_catalog(MITRE_SAMPLE, HttpProvider(config, transport=transport))
        assert requests
        path = tmp_path / "catalog.npz"
        write_legacy_catalog(path, first, savez_aligned)

        requests.clear()
        rebuilt = build_catalog(MITRE_SAMPLE, HttpProvider(config, transport=transport),
                                cache_path=path)
        assert requests == []
        assert path.read_bytes().startswith(b"cti2stix-catalog 2\n")
        loaded = load_catalog(path)
        assert list(loaded.entries) == list(rebuilt.entries) == list(first.entries)
        np.testing.assert_array_equal(loaded.vectors, first.vectors)


class TestDtype:
    def test_build_rebuilds_a_float64_file_as_float32(self, mini_catalog, tmp_path, caplog):
        """Older versions saved this layout with a float64 matrix; ``catalog
        build`` re-embeds it once, as it does an older zip file."""
        path = tmp_path / "catalog.npz"
        write_unchecked_catalog(path, TechniqueCatalog(
            model=mini_catalog.model, content_hash=mini_catalog.content_hash,
            entries=mini_catalog.entries, vectors=mini_catalog.vectors.astype(np.float64)))
        provider = ScriptedProvider(script=[])
        with caplog.at_level(logging.WARNING, logger="cti2stix.catalog"):
            rebuilt = build_catalog(MITRE_SAMPLE, provider, cache_path=path)
        assert provider.embedded == [e.text for e in mini_catalog.entries]
        assert any("dtype <f8" in r.message and "rebuilding" in r.message
                   for r in caplog.records)
        reloaded = load_catalog(path)
        assert reloaded.vectors.dtype == np.float32 and not reloaded.vectors.flags.owndata
        assert list(reloaded.entries) == list(rebuilt.entries) == list(mini_catalog.entries)
        np.testing.assert_array_equal(reloaded.vectors, mini_catalog.vectors)

    @pytest.mark.parametrize("vectors", [np.ones((1, 3)), np.array([[1e300, 0.0, 0.0]])])
    def test_save_refuses_a_float64_matrix(self, tmp_path, vectors):
        # a cast would write 1e300 as inf
        path = tmp_path / "catalog.npz"
        with pytest.raises(CatalogError, match="cannot save a float64 matrix, need float32"):
            save_catalog(make_catalog(vectors), path)
        assert list(tmp_path.iterdir()) == []

    def test_catalog_keeps_float32_and_widens_the_rest(self):
        assert make_catalog(np.ones((1, 2), dtype=np.float32)).vectors.dtype == np.float32
        for rows in (np.ones((1, 2), dtype=np.int64), [[1.0, 2.0]], np.ones((1, 2), np.float16)):
            assert make_catalog(rows).vectors.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, "<f8", ">f4", ">f8", np.complex64])
    def test_other_dtypes_refused(self, tmp_path, dtype):
        path = tmp_path / "odd.npz"
        write_catalog_file(path, ["T1001", "T1002"], 3, np.ones((2, 3), dtype=dtype))
        with pytest.raises(CatalogError, match=f"vectors have dtype {np.dtype(dtype).str}, "
                                               r"need float32 \(<f4\)"):
            load_catalog(path)


class TestSegments:
    def test_interleaved_ids_group_stably(self):
        ids = ["T1002", "T1001", "T1002", "T1003", "T1001"]
        catalog = TechniqueCatalog(
            model="stub", content_hash="x",
            entries=[CatalogEntry(tid, "n", f"e{i}", "t") for i, tid in enumerate(ids)],
            vectors=np.eye(5),
        )
        # the rows are sorted with their entries
        assert [(e.technique_id, e.example_id) for e in catalog.entries] == [
            ("T1001", "e1"), ("T1001", "e4"), ("T1002", "e0"), ("T1002", "e2"), ("T1003", "e3")]
        np.testing.assert_array_equal(catalog.vectors, np.eye(5)[[1, 4, 0, 2, 3]])
        assert catalog.starts.tolist() == [0, 2, 4]

    def test_row_count_must_match_entries(self):
        with pytest.raises(CatalogError):
            TechniqueCatalog(model="stub", content_hash="x",
                             entries=[CatalogEntry("T1001", "n", "description", "t")],
                             vectors=np.ones((2, 3)))


def four_entry_catalog():
    return TechniqueCatalog(
        model="stub", content_hash="x",
        entries=[CatalogEntry("T1001", "Alpha", "description", "alpha"),
                 CatalogEntry("T1001", "Alpha", "procedure-0", "alpha two"),
                 CatalogEntry("T1002", "Bravo", "description", "bravo"),
                 CatalogEntry("T1003", "Charlie", "procedure-0", "charlie")],
        vectors=np.arange(12, dtype=np.float32).reshape(4, 3))


def int64s(*values):
    return struct.pack(f"<{len(values)}q", *values)


class TestDerivedParts:
    """A file whose every CRC-32 holds but whose parts disagree with its
    header or with each other is refused."""

    def write(self, path, header_changes=None, **part_changes):
        header, parts = catalog_file_contents(four_entry_catalog())
        write_raw_catalog(path, dict(header, **(header_changes or {})),
                          dict(parts, **part_changes))

    def test_unchanged_parts_load(self, tmp_path):
        path = tmp_path / "catalog.bin"
        self.write(path)
        assert list(load_catalog(path).entries) == list(four_entry_catalog().entries)

    @pytest.mark.parametrize("starts", [(1, 2, 3), (0, 2, 2), (0, 3, 2), (0, 2, 4)],
                             ids=["not-from-0", "repeated", "decreasing", "past-the-entries"])
    def test_bad_segment_starts(self, tmp_path, starts):
        path = tmp_path / "catalog.bin"
        self.write(path, starts=int64s(*starts))
        with pytest.raises(CatalogError, match="segment starts do not begin at 0"):
            load_catalog(path)

    def test_starts_without_techniques(self, tmp_path):
        path = tmp_path / "catalog.bin"
        self.write(path, {"techniques": []}, starts=b"")
        with pytest.raises(CatalogError, match="segment starts"):
            load_catalog(path)

    def test_technique_ids_out_of_order(self, tmp_path):
        path = tmp_path / "catalog.bin"
        self.write(path, {"techniques": [["T1002", "Bravo"], ["T1001", "Alpha"],
                                         ["T1003", "Charlie"]]})
        with pytest.raises(CatalogError, match="technique ids do not strictly increase"):
            load_catalog(path)

    @pytest.mark.parametrize("part, offsets", [
        ("text_offsets", (0, 9, 5, 19, 26)),  # rises to 9, then falls back to 5
        ("text_offsets", (0, 5, 14, 19, 25)),  # one byte short of the texts
        ("text_offsets", (1, 5, 14, 19, 26)),
        ("example_offsets", (0, 11, 22, 33, 45)),  # one byte past the example ids
    ], ids=["text-going-back", "text-short-of-the-end", "text-not-from-0", "example-past-the-end"])
    def test_bad_offsets(self, tmp_path, part, offsets):
        path = tmp_path / "catalog.bin"
        self.write(path, **{part: int64s(*offsets)})
        with pytest.raises(CatalogError, match="offsets do not rise from 0"):
            load_catalog(path)

    @pytest.mark.parametrize("part, data", [
        ("matrix", bytes(4 * 13)), ("norms", bytes(4 * 5)), ("starts", int64s(0, 2, 3, 4)),
        ("text_offsets", int64s(0, 5, 14, 19)), ("example_offsets", int64s(0, 11, 22, 33, 44, 44)),
    ])
    def test_part_of_the_wrong_size(self, tmp_path, part, data):
        path = tmp_path / "catalog.bin"
        self.write(path, **{part: data})
        with pytest.raises(CatalogError, match=f"its {part} part holds {len(data)} bytes, need "):
            load_catalog(path)

    def test_offsets_that_split_a_character(self, tmp_path):
        path = tmp_path / "catalog.bin"
        texts = "alphaé".encode() + b"alpha two" + b"bravo" + b"charlie"
        # the first text ends inside the two bytes of "é"
        self.write(path, texts=texts, text_offsets=int64s(0, 6, 16, 21, 28))
        with pytest.raises(CatalogError, match="split a UTF-8 character"):
            load_catalog(path)

    def test_texts_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "catalog.bin"
        self.write(path, texts=b"alph\xff" + b"alpha two" + b"bravo" + b"charlie")
        with pytest.raises(CatalogError, match="cannot read catalog.*utf-8"):
            load_catalog(path)

    def test_bytes_past_the_last_part(self, tmp_path):
        path = tmp_path / "catalog.bin"
        self.write(path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(CatalogError, match="1 bytes past its last part"):
            load_catalog(path)

    @pytest.mark.parametrize("part", ["norms", "starts", "text_offsets", "texts",
                                      "example_offsets", "example_ids"])
    def test_flipped_byte_fails_its_part_crc(self, tmp_path, part):
        path = tmp_path / "catalog.bin"
        save_catalog(four_entry_catalog(), path)
        header, offset = read_header(path)
        raw = bytearray(path.read_bytes())
        for name, (size, _) in header["parts"].items():
            offset += -offset % 64
            if name == part:
                raw[offset + size - 1] ^= 0x01
                break
            offset += size
        path.write_bytes(bytes(raw))
        with pytest.raises(CatalogError, match=f": {part} fails its CRC-32 check"):
            load_catalog(path)


class TestLazyEntries:
    def test_load_builds_no_entry_until_one_is_indexed(self, tmp_path, monkeypatch):
        """Loading does per-technique work, not per-entry: a 6,000-entry
        catalog loads without building one ``CatalogEntry``, and its
        technique names equal the ones worked out entry by entry."""
        entries = [CatalogEntry(f"T{1000 + i // 30}", f"Name {i // 30}",
                                "description" if i % 30 == 0 else f"procedure-{i % 30}",
                                f"text {i} é")
                   for i in range(6000) if i % 60 != 0 or i % 120 == 0]
        path = tmp_path / "catalog.bin"
        save_catalog(TechniqueCatalog(model="stub", content_hash="x", entries=entries,
                                      vectors=np.ones((len(entries), 4), np.float32)), path)
        built = []
        init = CatalogEntry.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CatalogEntry, "__init__", counting_init)
        loaded = load_catalog(path)
        assert built == []
        assert loaded.technique_names() == {e.technique_id: e.name for e in entries}
        assert len(loaded.entries) == len(entries) and built == []
        assert loaded.entries[1234] == entries[1234] and len(built) == 1

    def test_entries_index_like_a_list(self):
        catalog = four_entry_catalog()
        listed = [CatalogEntry("T1001", "Alpha", "description", "alpha"),
                  CatalogEntry("T1001", "Alpha", "procedure-0", "alpha two"),
                  CatalogEntry("T1002", "Bravo", "description", "bravo"),
                  CatalogEntry("T1003", "Charlie", "procedure-0", "charlie")]
        assert list(catalog.entries) == listed
        assert catalog.entries[-1] == listed[-1] and catalog.entries[-4] == listed[0]
        with pytest.raises(IndexError):
            catalog.entries[4]
        with pytest.raises(TypeError):
            catalog.entries[1] = listed[0]

    def test_one_technique_has_one_name(self):
        with pytest.raises(CatalogError, match="T1001 has entries named 'A' and 'B'"):
            TechniqueCatalog(model="stub", content_hash="x",
                             entries=[CatalogEntry("T1001", "A", "description", "a"),
                                      CatalogEntry("T1001", "B", "procedure-0", "b")],
                             vectors=np.ones((2, 2)))
