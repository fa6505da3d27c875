"""Shared fixtures: a small ransomware report, scripted LLM rules, and a
matching technique-catalog fixture for hermetic end-to-end runs."""

import json
import os
import struct
import zipfile
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cti2stix
from cti2stix.ingest import Report, make_report

# One short report with a known entity set: malware HelloXD, threat actor
# x4k, target "Windows and Linux systems".  Deliberately free of IoCs and of
# literal technique ids, so attack patterns can only arrive via embedding
# classification.
HELLOXD_TEXT = """HelloXD Ransomware Analysis

HelloXD is a ransomware family that surfaced in November 2021 and runs double extortion operations, impacting Windows and Linux systems alike.

Unlike most crews, the operators do not host a leak site. The ransom note instead directs victims to negotiate through the Tox peer-to-peer messenger. One observed sample also deployed an open-source backdoor alongside the encryptor.

Infrastructure overlap and forum activity link the operation to a developer using the alias x4k. The encryptor derives file keys locally and secures its command and control traffic using a custom encryption scheme."""

# The sentence the relevant-text strategy returns; also the text of the
# catalog example for T1573, so the hash embedder scores it 1.0.
VTE_CANDIDATE = (
    "The encryptor derives file keys locally and secures its command and "
    "control traffic using a custom encryption scheme."
)

SBSA_RESPONSE = (
    "1. HelloXD encrypts victim files on Windows and Linux hosts.\n"
    "2. The malware talks to its operators over a custom encrypted channel.\n"
    "3. Victims negotiate through the Tox messenger."
)

GOLDEN_SCRIPT = [
    ("Question: Who/which is the malware", "HelloXD"),
    ("Question: Who/which is the threat actor", "x4k"),
    ("Question: Who/which is the target", "Windows and Linux systems"),
    ('relation between "x4k" and "HelloXD"', "uses"),
    ("Return any relevant text verbatim", VTE_CANDIDATE),
    ("Describe step by step the key facts", SBSA_RESPONSE),
]


@pytest.fixture
def helloxd_report() -> Report:
    return make_report(HELLOXD_TEXT, report_id="helloxd-2022")


@pytest.fixture
def golden_script():
    return list(GOLDEN_SCRIPT)


# A miniature MITRE-style technique export: two techniques, one
# sub-technique that must collapse into its parent, and one procedure-example
# relationship.  Shaped like the real enterprise-attack bundle.
MITRE_SAMPLE = {
    "type": "bundle",
    "id": "bundle--11111111-1111-4111-8111-111111111111",
    "objects": [
        {
            "type": "attack-pattern",
            "id": "attack-pattern--aaaa1111-0000-4000-8000-000000000001",
            "name": "Encrypted Channel",
            "description": "Adversaries may protect command and control traffic with an encryption scheme so defenders cannot read it.",
            "external_references": [
                {"source_name": "mitre-attack", "external_id": "T1573"}
            ],
        },
        {
            "type": "attack-pattern",
            "id": "attack-pattern--aaaa1111-0000-4000-8000-000000000002",
            "name": "Obfuscated Files or Information",
            "description": "Adversaries may encode or encrypt files to make payloads hard to discover or analyze.",
            "external_references": [
                {"source_name": "mitre-attack", "external_id": "T1027"}
            ],
        },
        {
            "type": "attack-pattern",
            "id": "attack-pattern--aaaa1111-0000-4000-8000-000000000003",
            "name": "Software Packing",
            "description": "Adversaries may compress or pack an executable to hide its code from scanners.",
            "x_mitre_is_subtechnique": True,
            "external_references": [
                {"source_name": "mitre-attack", "external_id": "T1027.002"}
            ],
        },
        {
            "type": "relationship",
            "id": "relationship--bbbb1111-0000-4000-8000-000000000001",
            "relationship_type": "uses",
            "source_ref": "malware--cccc1111-0000-4000-8000-000000000001",
            "target_ref": "attack-pattern--aaaa1111-0000-4000-8000-000000000001",
            "description": VTE_CANDIDATE,
        },
        {
            "type": "relationship",
            "id": "relationship--bbbb1111-0000-4000-8000-000000000002",
            "relationship_type": "uses",
            "source_ref": "malware--cccc1111-0000-4000-8000-000000000002",
            "target_ref": "attack-pattern--aaaa1111-0000-4000-8000-000000000003",
            "description": "A packed loader hides the second stage from static analysis.",
        },
        {
            "type": "identity",
            "id": "identity--dddd1111-0000-4000-8000-000000000001",
            "name": "The MITRE Corporation",
        },
    ],
}


@pytest.fixture
def mitre_sample_path(tmp_path):
    path = tmp_path / "enterprise-attack-sample.json"
    path.write_text(json.dumps(MITRE_SAMPLE), encoding="utf-8")
    return path


@pytest.fixture
def mini_catalog():
    """The sample export embedded by the hash embedder, under the model name
    the CLI's scripted provider embeds with."""
    from cti2stix.catalog import build_catalog
    from cti2stix.llm import ProviderConfig, ScriptedProvider

    provider = ScriptedProvider(script=[], config=ProviderConfig(embedding_model="hash-32"))
    return build_catalog(MITRE_SAMPLE, provider)


def savez_aligned(fh, **arrays):
    """The zip layout of the last version before the flat file: ``np.savez``'s
    stored members, each padded, as Android's zipalign pads, with an extra
    field so that its ``.npy`` bytes start at a multiple of 64 into the file."""
    with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
        for name, array in arrays.items():
            info = zipfile.ZipInfo(f"{name}.npy")
            # the local header's fixed part, the name, and force_zip64's size block
            pad = -(fh.tell() + 30 + len(info.filename) + 20) % 64
            if pad:
                pad += 64 if pad < 6 else 0
                info.extra = struct.pack("<HHH", 0xD935, pad - 4, 64) + bytes(pad - 6)
            with zf.open(info, "w", force_zip64=True) as out:
                np.lib.format.write_array(out, np.asarray(array), allow_pickle=False)


def write_flat_v1(fh, meta, vectors):
    """Version 1 of the flat layout, which came after the zip: a magic line,
    the header's length and CRC-32, a JSON header that holds every entry and
    the matrix's CRC-32, padded to 64 bytes, then the matrix."""
    matrix = np.ascontiguousarray(vectors)
    meta = json.loads(meta)
    header = json.dumps({"model": meta["model"], "dim": meta["dim"],
                         "content_hash": meta["content_hash"], "dtype": matrix.dtype.str,
                         "shape": list(matrix.shape), "matrix_crc32": zlib.crc32(matrix),
                         "entries": meta["entries"]}).encode()
    header += b" " * (-(19 + 12 + len(header)) % 64)
    fh.write(b"cti2stix-catalog 1\n" + struct.pack("<QI", len(header), zlib.crc32(header))
             + header + matrix.tobytes())


def flat_v3_contents(meta, vectors):
    """The header (less its parts) and the parts of version 3 of the flat
    layout, for a JSON metadata string that lists one entry per row: the
    matrix as embedded, its row norms and the segment starts."""
    meta = json.loads(meta)
    entries = meta["entries"]
    starts = [i for i, e in enumerate(entries)
              if i == 0 or e["technique_id"] != entries[i - 1]["technique_id"]]
    header, parts = catalog_file_contents(SimpleNamespace(
        model=meta["model"], dim=meta["dim"], content_hash=meta["content_hash"],
        vectors=vectors, starts=starts,
        techniques=[(entries[i]["technique_id"], entries[i]["name"]) for i in starts]))
    matrix = np.asarray(vectors)
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix)).astype(matrix.dtype)
    return header, {"matrix": parts["matrix"], "norms": norms.tobytes(),
                    "starts": parts["starts"]}


def write_flat_v2(fh, meta, vectors):
    """Version 2 of the flat layout: the magic line, the header's length and
    CRC-32, a JSON header that names each technique, then seven 64-byte-aligned
    parts: the matrix, the row norms, the segment starts, and the entries'
    texts and example ids, each as int64 offsets then UTF-8 bytes end to end."""
    header, parts = flat_v3_contents(meta, vectors)
    entries = json.loads(meta)["entries"]
    text_offsets, texts = packed_strings([e["text"] for e in entries])
    example_offsets, example_ids = packed_strings([e["example_id"] for e in entries])
    parts.update(text_offsets=text_offsets, texts=texts,
                 example_offsets=example_offsets, example_ids=example_ids)
    fh.write(raw_catalog_bytes(dict(header, entries=len(entries)), parts,
                               magic=b"cti2stix-catalog 2\n"))


def write_flat_v3(fh, meta, vectors):
    """Version 3 of the flat layout: this one's, with the rows as embedded,
    not unit rows, and a third part, the row norms, between the matrix and
    the segment starts."""
    fh.write(raw_catalog_bytes(*flat_v3_contents(meta, vectors),
                               magic=b"cti2stix-catalog 3\n"))


@pytest.fixture(params=[savez_aligned, np.savez, np.savez_compressed, write_flat_v1,
                        write_flat_v2, write_flat_v3],
                ids=["aligned_zip", "savez", "savez_compressed", "flat_v1", "flat_v2",
                     "flat_v3"])
def legacy_writer(request):
    """How older versions wrote a catalog."""
    return request.param


def child_env():
    """The environment of a child process that imports this checkout's cti2stix."""
    src = str(Path(cti2stix.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def row_technique_ids(catalog):
    """Each row's technique id, read from the catalog's segments."""
    ends = [*catalog.starts[1:], len(catalog.vectors)]
    return [tid for (tid, _), start, end in zip(catalog.techniques, catalog.starts, ends)
            for _ in range(start, end)]


def write_legacy_catalog(path, catalog, writer):
    """*catalog* as older versions wrote it: *writer* (:func:`savez_aligned`,
    ``np.savez``, ``np.savez_compressed``, :func:`write_flat_v1`,
    :func:`write_flat_v2` or :func:`write_flat_v3`) over a JSON metadata
    string, which lists one entry per row, and the matrix.  The entries'
    texts and example ids are left empty: a catalog no longer keeps them,
    and a loader refuses these files by their first bytes."""
    names = catalog.technique_names()
    entries = [{"technique_id": tid, "name": names[tid], "example_id": "", "text": ""}
               for tid in row_technique_ids(catalog)]
    meta = {"model": catalog.model, "dim": catalog.dim, "content_hash": catalog.content_hash,
            "entries": entries}
    with path.open("wb") as fh:
        writer(fh, meta=json.dumps(meta, ensure_ascii=False), vectors=catalog.vectors)


def raw_catalog_bytes(header, parts, magic=b"cti2stix-catalog 4\n"):
    """A file in the flat catalog layout around *header* and *parts* (part
    name -> bytes, in file order): the header gains each part's length and
    CRC-32, its own CRC-32 is correct and every part starts 64-byte aligned."""
    header = dict(header, parts={name: [len(data), zlib.crc32(data)]
                                 for name, data in parts.items()})
    blob = json.dumps(header).encode()
    blob += b" " * (-(len(magic) + 12 + len(blob)) % 64)
    out = magic + struct.pack("<QI", len(blob), zlib.crc32(blob)) + blob
    for data in parts.values():
        out += bytes(-len(out) % 64) + data
    return out


def write_raw_catalog(path, header, parts):
    """:func:`raw_catalog_bytes` written to *path*."""
    path.write_bytes(raw_catalog_bytes(header, parts))


def packed_strings(values):
    """Strings as version 2 of the catalog file stored them: their int64
    offsets, then their UTF-8 bytes end to end."""
    encoded = [v.encode() for v in values]
    offsets = [0]
    for data in encoded:
        offsets.append(offsets[-1] + len(data))
    return struct.pack(f"<{len(offsets)}q", *offsets), b"".join(encoded)


def catalog_file_contents(catalog):
    """The header (less its parts) and the parts that :func:`save_catalog`
    writes for *catalog* (anything with a model, dim, content hash, matrix,
    techniques and segment starts), in its matrix's own dtype and shape."""
    matrix = np.ascontiguousarray(catalog.vectors)
    starts = [int(start) for start in catalog.starts]
    header = {"model": catalog.model, "dim": catalog.dim, "content_hash": catalog.content_hash,
              "dtype": matrix.dtype.str, "shape": list(matrix.shape),
              "techniques": [list(t) for t in catalog.techniques]}
    parts = {"matrix": matrix.tobytes(), "starts": struct.pack(f"<{len(starts)}q", *starts)}
    return header, parts


def write_unchecked_catalog(path, catalog):
    """The file :func:`save_catalog` writes for *catalog*, in the matrix's own
    dtype and shape: ``TechniqueCatalog.from_rows`` stores only float32, and
    refuses a row count that disagrees with its rows."""
    write_raw_catalog(path, *catalog_file_contents(catalog))


def cosine(a, b):
    """Cosine of two vectors, as scoring takes it: *a* the query and *b* the
    one row of a catalog, which stores it as a float32 unit vector."""
    from cti2stix.attack_patterns import classify_vectors
    from cti2stix.catalog import TechniqueCatalog

    catalog = TechniqueCatalog.from_rows("stub", "x", [("T1", "n")],
                                         np.asarray(b, dtype=np.float32)[np.newaxis])
    # at -inf every score but a NaN is kept
    return classify_vectors(np.asarray(a, dtype=np.float64)[np.newaxis], catalog,
                            -np.inf)["T1"]
