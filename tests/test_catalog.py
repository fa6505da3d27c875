import dataclasses
import json
import logging
import mmap
import os
import re
import struct
import subprocess
import sys
import tempfile
import threading
import warnings
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cti2stix.catalog as catalog_module
from cti2stix.attack_patterns import classify_vectors
from cti2stix.catalog import (
    CatalogError,
    TechniqueCatalog,
    build_catalog,
    catalog_content_hash,
    load_catalog,
    parse_attack_export,
    save_catalog,
    unit_rows,
)
from cti2stix.llm import (
    HashEmbedder,
    HttpProvider,
    ProviderConfig,
    ScriptedProvider,
    TransportError,
)
from cti2stix.stix import parent_technique

from conftest import (
    MITRE_SAMPLE,
    VTE_CANDIDATE,
    catalog_file_contents,
    child_env,
    row_technique_ids,
    write_flat_v3,
    write_legacy_catalog,
    write_raw_catalog,
    write_unchecked_catalog,
)


def export_texts(export):
    """The texts ``build_catalog`` embeds for *export*, in row order, taken
    from the export: each technique's description, if it has one, then its
    procedure examples, techniques in id order."""
    parsed = parse_attack_export(export)
    return [text for tid in sorted(parsed)
            for text in [parsed[tid]["description"]] + parsed[tid]["examples"] if text]


def assert_same_catalog(a, b):
    assert (a.model, a.content_hash, list(a.techniques)) == (
        b.model, b.content_hash, list(b.techniques))
    np.testing.assert_array_equal(a.starts, b.starts)
    np.testing.assert_array_equal(a.vectors, b.vectors)


def test_every_older_version_is_refused():
    """The older magics name every version of the flat layout before this
    one's, so a format bump refuses the version it replaces."""
    version = int(catalog_module._MAGIC.split()[-1])
    older = {b"cti2stix-catalog %d\n" % v for v in range(1, version)}
    assert older <= set(catalog_module._OLDER_MAGICS)


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

    def test_null_name_reads_as_empty(self):
        export = json.loads(json.dumps(MITRE_SAMPLE))
        export["objects"][0]["name"] = None
        assert parse_attack_export(export)["T1573"]["name"] == ""
        catalog = build_catalog(export, ScriptedProvider(script=[]))
        assert catalog.technique_names() == {"T1027": "Obfuscated Files or Information",
                                             "T1573": ""}

    @pytest.mark.parametrize("index, key", [(0, "name"), (0, "description"), (3, "description")],
                             ids=["technique-name", "technique-description", "example"])
    def test_text_that_is_not_a_string_refused(self, index, key):
        # a name of 5 would be written into the header, whose load refuses it
        export = json.loads(json.dumps(MITRE_SAMPLE))
        export["objects"][index][key] = 5
        with pytest.raises(CatalogError, match=f"has a {key} that is not a string"):
            parse_attack_export(export)

    @pytest.mark.parametrize("text", ["{oops", "[]", '"objects"', '{"type": "bundle"}',
                                      '{"objects": {}}', '{"objects": [1]}'])
    def test_malformed_export_refused(self, tmp_path, text):
        path = tmp_path / "export.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CatalogError, match=f"ATT&CK export {re.escape(str(path))} is not"):
            parse_attack_export(path)


class TestBuild:
    def test_entries_have_vectors(self, mini_catalog):
        assert mini_catalog.dim == 32
        assert mini_catalog.vectors.shape == (len(export_texts(MITRE_SAMPLE)), 32)
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
        provider = ScriptedProvider(script=[])
        catalog = build_catalog(export, provider)
        assert provider.embedded == ["The group mailed lures to staff."]
        assert catalog.techniques == [("T1566", "Phishing")]
        assert catalog.starts.tolist() == [0] and len(catalog.vectors) == 1
        assert catalog.technique_names() == {"T1566": "Phishing"}
        assert four_entry_catalog().technique_names() == {
            "T1001": "Alpha", "T1002": "Bravo", "T1003": "Charlie"}

    def test_t1573_example_is_fixture_sentence(self, mini_catalog):
        # the one row embedding the fixture sentence lies in T1573's segment
        fixture = HashEmbedder().embed_one(VTE_CANDIDATE).astype(np.float32)
        assert [tid for tid, row in zip(row_technique_ids(mini_catalog), mini_catalog.vectors)
                if np.array_equal(row, fixture)] == ["T1573"]
        assert VTE_CANDIDATE in export_texts(MITRE_SAMPLE)

    def test_deterministic_order(self):
        first, second = ScriptedProvider(script=[]), ScriptedProvider(script=[])
        a = build_catalog(MITRE_SAMPLE, first)
        b = build_catalog(MITRE_SAMPLE, second)
        assert first.embedded == second.embedded == export_texts(MITRE_SAMPLE)
        assert_same_catalog(a, b)

    def test_content_hash_changes_with_content(self):
        parsed = parse_attack_export(MITRE_SAMPLE)
        altered = json.loads(json.dumps(parsed))
        altered["T1573"]["examples"].append("extra")
        assert catalog_content_hash(parsed) != catalog_content_hash(altered)


def sliced_provider(batch, embedder=None):
    """A scripted provider whose ``embed_batch_size`` is *batch*; its
    ``calls`` list how many texts each ``embed`` call asked for."""
    provider = ScriptedProvider(script=[], config=ProviderConfig(embed_batch_size=batch),
                                embedder=embedder)
    provider.calls = []
    embed = provider.embed

    def counted(texts):
        provider.calls.append(len(texts))
        return embed(texts)

    provider.embed = counted
    return provider


class TestBuildInSlices:
    """``build_catalog`` embeds ``embed_batch_size`` texts at a time and casts
    each slice into the float32 matrix as it comes."""

    def test_file_equals_a_build_over_the_whole_float64_list(self, tmp_path):
        provider = sliced_provider(2)
        build_catalog(MITRE_SAMPLE, provider, cache_path=tmp_path / "sliced.bin")
        texts = export_texts(MITRE_SAMPLE)
        assert provider.calls == [2, 2, 1]

        parsed = parse_attack_export(MITRE_SAMPLE)
        rows = [(tid, parsed[tid]["name"]) for tid in sorted(parsed)
                for text in [parsed[tid]["description"]] + parsed[tid]["examples"] if text]
        whole = [np.asarray(v, dtype=np.float64) for v in HashEmbedder().embed(texts)]
        save_catalog(TechniqueCatalog.from_rows(ProviderConfig.embedding_model,
                                                catalog_content_hash(parsed), rows, whole),
                     tmp_path / "whole.bin")
        assert (tmp_path / "sliced.bin").read_bytes() == (tmp_path / "whole.bin").read_bytes()

    def test_beyond_float32_in_the_last_slice_writes_no_file(self, tmp_path):
        last = export_texts(MITRE_SAMPLE)[-1]
        embedder = SimpleNamespace(embed=lambda texts: [
            np.array([1e300 if text == last else 1.0, 0.0]) for text in texts])
        provider = sliced_provider(2, embedder)
        with pytest.raises(CatalogError, match=r"1e\+300, beyond float32's range"):
            build_catalog(MITRE_SAMPLE, provider, cache_path=tmp_path / "catalog.bin")
        assert provider.calls == [2, 2, 1]
        assert list(tmp_path.iterdir()) == []

    def test_slices_of_two_lengths_write_no_file(self, tmp_path):
        second_slice = export_texts(MITRE_SAMPLE)[2:4]
        embedder = SimpleNamespace(embed=lambda texts: [
            np.ones(3 if text in second_slice else 2) for text in texts])
        provider = sliced_provider(2, embedder)
        with pytest.raises(TransportError, match=re.escape(
                "2 catalog texts embed as shape (2, 3), not (2, 2)")):
            build_catalog(MITRE_SAMPLE, provider, cache_path=tmp_path / "catalog.bin")
        assert provider.calls == [2, 2]
        assert list(tmp_path.iterdir()) == []


class TestCache:
    def test_round_trip(self, mini_catalog, tmp_path):
        path = tmp_path / "catalog.npz"
        save_catalog(mini_catalog, path)
        loaded = load_catalog(path)
        assert loaded.model == mini_catalog.model
        assert loaded.dim == mini_catalog.dim
        assert loaded.content_hash == mini_catalog.content_hash
        assert_same_catalog(loaded, mini_catalog)
        assert loaded.entries == range(len(mini_catalog.vectors))

    def test_saved_uncompressed(self, mini_catalog, tmp_path):
        path = tmp_path / "catalog.npz"
        save_catalog(mini_catalog, path)
        raw = path.read_bytes()
        header, offset = read_header(path)
        assert raw.startswith(b"cti2stix-catalog 4\n")
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
        assert len(catalog.vectors) == len(first.embedded)

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
        assert_same_catalog(load_catalog(path), mini_catalog)
        assert [p.name for p in tmp_path.iterdir()] == ["catalog.npz"]

    def test_save_syncs_the_new_file_before_renaming_it(self, mini_catalog, tmp_path,
                                                        monkeypatch):
        path = tmp_path / "catalog.npz"
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_size))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_size))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_catalog(mini_catalog, path)
        size = path.stat().st_size
        assert events == [("fsync", size), ("replace", size)]

    def test_loaded_catalog_survives_resave(self, mini_catalog, tmp_path):
        path = tmp_path / "catalog.npz"
        save_catalog(mini_catalog, path)
        loaded = load_catalog(path)
        old_rows = mini_catalog.vectors.copy()
        replacement = dataclasses.replace(mini_catalog, model="other", content_hash="y",
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
        assert_same_catalog(load_catalog(path), catalog)

    def test_empty_catalog_round_trips(self, tmp_path):
        empty = TechniqueCatalog.from_rows("hash-32", "x", [],
                                           np.zeros((0, 0), dtype=np.float32))
        path = tmp_path / "empty.npz"
        save_catalog(empty, path)
        loaded = load_catalog(path)
        assert loaded.techniques == [] and loaded.vectors.shape == (0, 0)
        assert_same_catalog(loaded, empty)


def write_catalog_file(path, technique_ids, dim, vectors):
    """A file whose technique i has one row, starting at row i."""
    write_unchecked_catalog(path, SimpleNamespace(
        model="stub", dim=dim, content_hash="x", vectors=vectors,
        techniques=[(tid, "n") for tid in technique_ids], starts=range(len(technique_ids))))


class TestMalformedFile:
    def test_fewer_rows_than_entries(self, tmp_path):
        # three one-row techniques, two rows: the last segment starts past them
        path = tmp_path / "short.npz"
        write_catalog_file(path, ["T1001", "T1002", "T1003"], 3, np.ones((2, 3), np.float32))
        with pytest.raises(CatalogError, match="segment starts .* below its 2 rows"):
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

    def test_unopenable_path(self, tmp_path):
        with pytest.raises(CatalogError, match="cannot read catalog.*Is a directory"):
            load_catalog(tmp_path)
        with pytest.raises(CatalogError, match="cannot read catalog.*No such file"):
            load_catalog(tmp_path / "missing.bin")


def read_header(path):
    """The parsed header of a catalog file and the file offset of its matrix,
    read as the layout gives them: a magic line, the header's length and
    CRC-32 (``<QI``), then the header."""
    raw = path.read_bytes()
    start = raw.index(b"\n") + 1 + 12
    (length,) = struct.unpack_from("<Q", raw, start - 12)
    return json.loads(raw[start:start + length]), start + length


def make_catalog(vectors):
    return TechniqueCatalog.from_rows("stub", "x", [(f"T{1000 + i}", "n")
                                                     for i in range(len(vectors))], vectors)


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
            stored = unit_rows(vectors)  # the catalog's rows
            assert path.read_bytes()[offset:offset + vectors.nbytes] == stored.tobytes()
        assert header["dtype"] == vectors.dtype.str
        assert loaded.vectors.shape == vectors.shape
        assert loaded.vectors.dtype == vectors.dtype
        assert loaded.vectors.tobytes() == stored.tobytes()
        assert loaded.vectors.ctypes.data % 64 == 0
        flags = loaded.vectors.flags
        assert flags.aligned and flags.c_contiguous
        assert not flags.writeable and not flags.owndata

    # The cases keep the names of the older zip layout's regions; each flips a
    # byte where that region's content now lives, under the CRC that covers it:
    # the metadata's framing is the stored header CRC-32, the metadata is the
    # JSON header's technique names, the matrix's .npy header is the JSON
    # header's dtype, and the matrix's data is the matrix.
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
            ("data", "meta.npy"): (raw.index(b'"techniques"') + 20, "header"),
            ("header", "vectors.npy"): (raw.index(b'"dtype": "') + 11, "header"),
            ("data", "vectors.npy"): (offset + 3, "matrix"),
        }[where, member]
        assert at < offset or part == "matrix"
        raw[at] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(CatalogError, match=f"{part} fails its CRC-32 check"):
            load_catalog(path)

    def test_every_crc_is_checked_on_the_calling_thread(self, mini_catalog, tmp_path,
                                                        monkeypatch):
        """The header's CRC-32 and every part's are checked on the calling
        thread before ``load_catalog`` returns, and the load starts no thread."""
        path = tmp_path / "catalog.npz"
        save_catalog(mini_catalog, path)
        header, offset = read_header(path)
        crc32, start, caller = zlib.crc32, threading.Thread.start, threading.current_thread()
        checked, started = [], []

        def spy(data, *args):
            checked.append((len(data), threading.current_thread() is caller))
            return crc32(data, *args)

        monkeypatch.setattr(zlib, "crc32", spy)
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        load_catalog(path)
        assert started == []
        parts = [(size, True) for size, _ in header["parts"].values()]
        assert (mini_catalog.vectors.nbytes, True) in parts
        assert sorted(checked) == sorted([(offset - 31, True)] + parts)

    @pytest.mark.parametrize("where", ["last-slice", "slice-boundary"])
    def test_flipped_byte_in_a_crc_slice_fails_the_check(self, tmp_path, monkeypatch, where):
        """With slices ending at multiples of 256 bytes in the file, a
        1,000-byte matrix is checked in at least four: it loads whole, and a
        byte flipped in the last slice, or one either side of a slice
        boundary, fails it."""
        monkeypatch.setattr(catalog_module, "_CRC_SLICE", 256)
        vectors = np.arange(250, dtype=np.float32).reshape(10, 25)
        path = tmp_path / "catalog.bin"
        save_catalog(make_catalog(vectors), path)
        assert_same_catalog(load_catalog(path), make_catalog(vectors))
        _, offset = read_header(path)
        boundary = offset - offset % 256 + 512  # one inside the matrix
        flips = {"last-slice": [offset + 999], "slice-boundary": [boundary - 1, boundary]}
        raw = bytearray(path.read_bytes())
        for at in flips[where]:
            raw[at] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CatalogError, match=": matrix fails its CRC-32 check"):
            load_catalog(path)

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
            techniques=[("T1001", "n")], starts=[0]))
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
        """``catalog build`` over a version-3 file, the layout before unit
        rows, re-embeds through the response cache: with the embeddings
        cached, no request is sent."""
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
        write_legacy_catalog(path, first, write_flat_v3)

        requests.clear()
        rebuilt = build_catalog(MITRE_SAMPLE, HttpProvider(config, transport=transport),
                                cache_path=path)
        assert requests == []
        assert path.read_bytes().startswith(b"cti2stix-catalog 4\n")
        loaded = load_catalog(path)
        assert_same_catalog(loaded, rebuilt)
        assert_same_catalog(loaded, first)


class TestDtype:
    def test_build_rebuilds_a_float64_file_as_float32(self, mini_catalog, tmp_path, caplog):
        """Older versions saved this layout with a float64 matrix; ``catalog
        build`` re-embeds it once, as it does an older zip file."""
        path = tmp_path / "catalog.npz"
        write_unchecked_catalog(path, dataclasses.replace(
            mini_catalog, vectors=mini_catalog.vectors.astype(np.float64)))
        provider = ScriptedProvider(
            script=[], config=ProviderConfig(embedding_model=mini_catalog.model))
        with caplog.at_level(logging.WARNING, logger="cti2stix.catalog"):
            rebuilt = build_catalog(MITRE_SAMPLE, provider, cache_path=path)
        assert provider.embedded == export_texts(MITRE_SAMPLE)
        assert any("dtype <f8" in r.message and "rebuilding" in r.message
                   for r in caplog.records)
        reloaded = load_catalog(path)
        assert reloaded.vectors.dtype == np.float32 and not reloaded.vectors.flags.owndata
        assert_same_catalog(reloaded, rebuilt)
        assert_same_catalog(reloaded, mini_catalog)

    def test_catalog_stores_float32(self):
        for rows in (np.ones((1, 2), dtype=np.int64), [[1.0, 2.0]], np.ones((1, 2), np.float16),
                     np.array([[3.4e38, -np.inf, np.nan]])):
            catalog = make_catalog(rows)
            assert catalog.vectors.dtype == np.float32
            # the unit rows of the float32 cast
            np.testing.assert_array_equal(
                catalog.vectors, unit_rows(np.asarray(rows, np.float32)))

    @pytest.mark.parametrize("value", [3.5e38, -1e300])
    def test_value_beyond_float32_refused(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no overflow warning
            with pytest.raises(CatalogError, match=re.escape(
                    f"vectors hold {value!r}, beyond float32's range")):
                make_catalog(np.array([[0.0, np.inf], [value, 1.0]]))

    def test_build_refuses_an_embedding_beyond_float32(self, tmp_path):
        # a cast would write 1e300 as inf, which no unit row can hold
        provider = ScriptedProvider(script=[], embedder=SimpleNamespace(
            embed=lambda texts: [np.array([1e300, 0.0]) for _ in texts]))
        with pytest.raises(CatalogError, match=r"1e\+300, beyond float32's range"):
            build_catalog(MITRE_SAMPLE, provider, cache_path=tmp_path / "catalog.npz")
        assert provider.embedded and list(tmp_path.iterdir()) == []

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
        catalog = TechniqueCatalog.from_rows("stub", "x", [(tid, "n") for tid in ids],
                                             np.eye(5))
        # the rows are sorted stably by technique id
        np.testing.assert_array_equal(catalog.vectors, np.eye(5)[[1, 4, 0, 2, 3]])
        assert catalog.techniques == [("T1001", "n"), ("T1002", "n"), ("T1003", "n")]
        assert catalog.starts.tolist() == [0, 2, 4]

    def test_row_count_must_match_entries(self):
        with pytest.raises(CatalogError, match=r"need one row per \(id, name\) pair \(1\)"):
            TechniqueCatalog.from_rows("stub", "x", [("T1001", "n")], np.ones((2, 3)))


def four_entry_catalog():
    return TechniqueCatalog.from_rows(
        "stub", "x",
        [("T1001", "Alpha"), ("T1001", "Alpha"), ("T1002", "Bravo"), ("T1003", "Charlie")],
        np.arange(12, dtype=np.float32).reshape(4, 3))


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
        assert_same_catalog(load_catalog(path), four_entry_catalog())

    def test_saved_file_holds_matrix_and_starts(self, tmp_path):
        path = tmp_path / "catalog.bin"
        save_catalog(four_entry_catalog(), path)
        header, offset = read_header(path)
        assert list(header["parts"]) == ["matrix", "starts"]
        assert header["techniques"] == [["T1001", "Alpha"], ["T1002", "Bravo"],
                                        ["T1003", "Charlie"]]
        # the parts are each 64-byte aligned and end the file
        for size, _ in header["parts"].values():
            offset += -offset % 64 + size
        assert offset == path.stat().st_size

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

    @pytest.mark.parametrize("technique", [["T1001", None], ["T1001"], ["T1001", "A", "x"],
                                           "T1001", {"T1001": "Alpha"}])
    def test_technique_that_is_not_a_pair_of_strings(self, tmp_path, technique):
        path = tmp_path / "catalog.bin"
        self.write(path, {"techniques": [technique, ["T1002", "Bravo"], ["T1003", "Charlie"]]})
        with pytest.raises(CatalogError, match="not all \\[id, name\\] pairs of strings"):
            load_catalog(path)

    def test_a_part_of_an_older_layout(self, tmp_path):
        path = tmp_path / "catalog.bin"
        self.write(path, texts=b"alpha")
        with pytest.raises(CatalogError, match="its parts are .*'texts'.*, need"):
            load_catalog(path)

    @pytest.mark.parametrize("part, data", [
        ("matrix", bytes(4 * 13)), ("starts", int64s(0, 2, 3, 4)),
    ])
    def test_part_of_the_wrong_size(self, tmp_path, part, data):
        path = tmp_path / "catalog.bin"
        self.write(path, **{part: data})
        with pytest.raises(CatalogError, match=f"its {part} part holds {len(data)} bytes, need "):
            load_catalog(path)

    def test_bytes_past_the_last_part(self, tmp_path):
        path = tmp_path / "catalog.bin"
        self.write(path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(CatalogError, match="1 bytes past its last part"):
            load_catalog(path)

    @pytest.mark.parametrize("part", ["header", "matrix", "starts"])
    def test_flipped_byte_fails_its_part_crc(self, tmp_path, part):
        path = tmp_path / "catalog.bin"
        save_catalog(four_entry_catalog(), path)
        header, offset = read_header(path)
        raw = bytearray(path.read_bytes())
        if part == "header":
            raw[offset - 1] ^= 0x01  # its last byte
        for name, (size, _) in header["parts"].items():
            offset += -offset % 64
            if name == part:
                raw[offset + size - 1] ^= 0x01
                break
            offset += size
        path.write_bytes(bytes(raw))
        with pytest.raises(CatalogError, match=f": {part} fails its CRC-32 check"):
            load_catalog(path)


# VmHWM is the peak resident set of the child's own address space, in kB;
# ru_maxrss would also count the address space it was started from
_RESIDENT_CHILD = """
import re, sys
import numpy as np
from cti2stix.attack_patterns import classify_vectors
from cti2stix.catalog import TechniqueCatalog, load_catalog

def peak():
    with open("/proc/self/status") as fh:
        return 1024 * int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))

queries = np.random.default_rng(2).standard_normal((6, int(sys.argv[2])))
# scoring a one-row catalog first maps the library code that scoring runs
classify_vectors(queries, TechniqueCatalog.from_rows("stub", "x", [("T1", "n")], queries[:1]), 0.5)
before = peak()
classify_vectors(queries, load_catalog(sys.argv[1]), 0.5)
print(peak() - before)
"""


class TestResidentPages:
    """A loaded catalog's matrix stays mapped, but the load and each scoring
    pass let go of the pages they read."""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_load_and_scoring_keep_a_fraction_of_the_matrix_resident(self, tmp_path):
        """In a process of its own, loading a 24 MB catalog and scoring 6
        queries against it raises the peak by less than a quarter of the
        matrix."""
        rows, dim = 4000, 1536
        vectors = np.random.default_rng(1).standard_normal((rows, dim), dtype=np.float32)
        path = tmp_path / "catalog.bin"
        save_catalog(TechniqueCatalog.from_rows(
            "stub", "x", [(f"T{1000 + i // 50}", "n") for i in range(rows)], vectors), path)
        child = subprocess.run([sys.executable, "-c", _RESIDENT_CHILD, str(path), str(dim)],
                               env=child_env(), capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        # read 4.7 MB of the 6.1 MB bound on Linux 6.18, ext4, where a read
        # maps a whole page-cache folio of up to 2 MB: the load's 1 MiB CRC
        # slices and the 1.5 MB row blocks each stay within two folios.  A
        # tmp_path whose pages come in larger folios (tmpfs with huge pages)
        # would hold more resident per block than this bound assumes
        assert int(child.stdout) < vectors.nbytes // 4

    @pytest.mark.skipif(not hasattr(mmap, "MADV_DONTNEED"), reason="no madvise")
    def test_a_release_starts_on_a_page(self):
        calls = []
        mapping = SimpleNamespace(madvise=lambda *args: calls.append(args))
        catalog_module._release(mapping, mmap.PAGESIZE + 10, 100)
        catalog_module._release(mapping, mmap.PAGESIZE, 0)
        assert calls == [(mmap.MADV_DONTNEED, mmap.PAGESIZE, 110)]

    def test_a_platform_without_madvise_releases_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delattr(mmap, "MADV_DONTNEED", raising=False)
        calls = []
        catalog_module._release(SimpleNamespace(madvise=calls.append), 0, 100)
        assert calls == []
        catalog = four_entry_catalog()
        path = tmp_path / "catalog.bin"
        save_catalog(catalog, path)
        loaded = load_catalog(path)
        assert_same_catalog(loaded, catalog)
        queries = np.random.default_rng(4).standard_normal((3, catalog.dim))
        assert classify_vectors(queries, loaded, 0.0) == classify_vectors(queries, catalog, 0.0)


class TestLazyEntries:
    """A catalog keeps nothing per row but its matrix of unit rows: names are
    kept once per technique, and ``entries`` is a range of row numbers, kept
    only so that the benchmark's traced pass can count rows."""

    def test_load_builds_no_entry_until_one_is_indexed(self, tmp_path):
        """Loading does per-technique work, not per-row: a 6,000-row catalog
        loads the technique names its rows were built with, and its entries
        are a range, whose items are row numbers made when indexed."""
        rows = [(f"T{1000 + i // 30}", f"Name {i // 30} é")
                for i in range(6000) if i % 60 != 0 or i % 120 == 0]
        path = tmp_path / "catalog.bin"
        save_catalog(TechniqueCatalog.from_rows("stub", "x", rows,
                                                np.ones((len(rows), 4), np.float32)), path)
        loaded = load_catalog(path)
        assert loaded.technique_names() == dict(rows)
        assert len(loaded.techniques) == 200
        assert loaded.entries == range(len(rows)) and loaded.entries[1234] == 1234

    def test_entries_index_like_a_list(self):
        catalog = four_entry_catalog()
        assert list(catalog.entries) == [0, 1, 2, 3]
        assert catalog.entries[-1] == 3 and catalog.entries[-4] == 0
        with pytest.raises(IndexError):
            catalog.entries[4]
        with pytest.raises(TypeError):
            catalog.entries[1] = 0
        with pytest.raises(AttributeError):
            catalog.entries = range(4)

    def test_one_technique_has_one_name(self):
        with pytest.raises(CatalogError, match="T1001 has rows named 'A' and 'B'"):
            TechniqueCatalog.from_rows("stub", "x", [("T1001", "A"), ("T1001", "B")],
                                       np.ones((2, 2)))
