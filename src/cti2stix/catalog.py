"""Technique catalog: names, descriptions, and example embeddings per
MITRE ATT&CK technique.

Built from the enterprise ATT&CK STIX export: ``attack-pattern`` objects give
ids, names, and descriptions; ``uses`` relationships pointing at them carry
procedure-example texts.  Sub-techniques are collapsed into their parent —
T1027.002's description and examples all land under T1027 — because the
pipeline classifies at technique granularity.

The embeddings form one float64 matrix, row i embedding ``entries[i].text``;
it is held, saved and loaded whole.  Scoring takes its row norms and its
technique segments (entries grouped by technique id), so the catalog works
them out once, when it is built or loaded.

Embedding a full catalog costs real API calls, so the result is cached on
disk, keyed by the content hash of the parsed catalog plus the embedding model
id; a stale, foreign-model or unreadable cache is rebuilt, never trusted.  The
file is a plain ``.npz`` (``np.load`` reads it): a JSON metadata blob and the
matrix, both stored uncompressed, with the matrix data at a multiple of 64
bytes into the file.  Loading maps the file read-only and uses the matrix in
place, so concurrent processes share one copy in the page cache; every
member's CRC-32 is still checked before a catalog is returned.  Because the
matrix is the file, a catalog file is replaced (written beside it, then
renamed), never rewritten in place: truncating a mapped file would crash the
processes reading it.  Files written by earlier versions (``np.savez``,
compressed or not) still load, with one copy of the matrix.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import math
import mmap
import os
import re
import struct
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Union

import numpy as np

logger = logging.getLogger(__name__)

TECHNIQUE_ID_RE = re.compile(r"\bT\d{4}(?:\.\d{3})?\b")
_MITRE_SOURCE = "mitre-attack"

_ALIGN = 64  # file offset alignment of each saved .npy member, hence of the matrix
_PAD_ID = 0xD935  # extra-field id of Android zipalign's alignment padding
_PAD_BLOCK = struct.Struct("<HHH")  # id, data size, alignment; zero bytes follow
_LOCAL_HEADER = struct.Struct("<4s22xHH")  # signature, ..., name length, extra length
_ZIP64_EXTRA_SIZE = 20  # size block zipfile appends to a local header under force_zip64
# magic, version and length field, then the longest header np.load reads by default
_NPY_HEADER_MAX = 12 + 10_000
_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


class CatalogError(ValueError):
    """A catalog file that cannot be read, or whose matrix disagrees with its
    metadata."""


@dataclass
class CatalogEntry:
    technique_id: str
    name: str
    example_id: str  # "description" or "procedure-N"
    text: str


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array."""
    # einsum allocates only the result; np.linalg.norm(rows, axis=1) would
    # first square the whole matrix into a copy
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


@dataclass(eq=False)
class TechniqueCatalog:
    """Catalog entries and their embedding matrix.

    ``norms`` holds the row norms.  ``order`` lists the row indices stably
    sorted by technique id, so each technique's rows form one segment in
    catalog order; ``starts`` gives where each segment begins in ``order``.
    """

    model: str
    content_hash: str
    entries: list[CatalogEntry]
    vectors: np.ndarray  # float64 (len(entries), dim); row i embeds entries[i].text
    norms: np.ndarray = field(init=False, repr=False)
    order: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or len(self.vectors) != len(self.entries):
            raise CatalogError(
                f"vectors have shape {self.vectors.shape}, "
                f"need one row per entry ({len(self.entries)})"
            )
        self.norms = row_norms(self.vectors)
        ids = [e.technique_id for e in self.entries]
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.order = np.array(order, dtype=np.intp)
        self.starts = np.array(
            [k for k, i in enumerate(order) if k == 0 or ids[i] != ids[order[k - 1]]],
            dtype=np.intp,
        )

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def technique_names(self) -> dict[str, str]:
        return {e.technique_id: e.name for e in self.entries if e.example_id == "description"}


def parent_technique(technique_id: str) -> str:
    return technique_id.split(".", 1)[0]


def _external_technique_id(obj: dict[str, Any]) -> str | None:
    for ref in obj.get("external_references", []) or []:
        if isinstance(ref, dict) and ref.get("source_name") == _MITRE_SOURCE:
            ext = str(ref.get("external_id", ""))
            if TECHNIQUE_ID_RE.fullmatch(ext):
                return ext
    return None


def parse_attack_export(source: Union[str, Path, dict]) -> dict[str, dict[str, Any]]:
    """Parse an ATT&CK STIX export into ``{technique_id: {name, description,
    examples}}`` with sub-techniques collapsed into their parents.

    Revoked and deprecated objects are ignored.  Techniques that end up with
    zero procedure examples are kept (the description still gets embedded)
    with a warning, since they will match only near-verbatim text.
    """
    if isinstance(source, (str, Path)):
        raw = json.loads(Path(source).read_text(encoding="utf-8"))
    else:
        raw = source
    objects = raw.get("objects", [])

    stix_to_tid: dict[str, str] = {}
    techniques: dict[str, dict[str, Any]] = {}
    sub_descriptions: list[tuple[str, str]] = []

    for obj in objects:
        if obj.get("type") != "attack-pattern":
            continue
        if obj.get("revoked") or obj.get("x_mitre_deprecated"):
            continue
        tid = _external_technique_id(obj)
        if tid is None:
            logger.warning("attack-pattern %s has no technique id; skipped", obj.get("id"))
            continue
        stix_to_tid[obj["id"]] = tid
        parent = parent_technique(tid)
        description = (obj.get("description") or "").strip()
        if tid == parent:
            entry = techniques.setdefault(parent, {"name": "", "description": "", "examples": []})
            entry["name"] = obj.get("name", "")
            entry["description"] = description
        elif description:
            sub_descriptions.append((parent, description))

    for parent, description in sub_descriptions:
        entry = techniques.setdefault(parent, {"name": parent, "description": "", "examples": []})
        entry["examples"].append(description)

    for obj in objects:
        if obj.get("type") != "relationship" or obj.get("relationship_type") != "uses":
            continue
        tid = stix_to_tid.get(obj.get("target_ref", ""))
        if tid is None:
            continue
        text = (obj.get("description") or "").strip()
        if not text:
            continue
        parent = parent_technique(tid)
        if parent in techniques:
            techniques[parent]["examples"].append(text)

    for tid, entry in techniques.items():
        if not entry["examples"]:
            logger.warning(
                "technique %s (%s) has no procedure examples; description-only matching",
                tid,
                entry["name"],
            )
    return techniques


def catalog_content_hash(techniques: dict[str, dict[str, Any]]) -> str:
    blob = json.dumps(techniques, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build_catalog(
    source: Union[str, Path, dict],
    provider: Any,
    cache_path: Union[str, Path, None] = None,
) -> TechniqueCatalog:
    """Parse, embed, and return the catalog, reusing a valid cache if given.

    The cache is valid only when both the embedding model id and the content
    hash of the parsed export match; an unreadable cache is rebuilt too.
    """
    techniques = parse_attack_export(source)
    content_hash = catalog_content_hash(techniques)
    model = provider.config.embedding_model

    if cache_path is not None and Path(cache_path).exists():
        try:
            cached = load_catalog(cache_path)
        except CatalogError as exc:
            logger.warning("%s; rebuilding", exc)
        else:
            if cached.content_hash == content_hash and cached.model == model:
                logger.info("catalog cache hit (%d entries)", len(cached.entries))
                if not _maps_file(cached.vectors):
                    # an older file the matrix could not be mapped from
                    # (misaligned or compressed): rewrite it so later loads map it
                    save_catalog(cached, cache_path)
                return cached
            logger.info(
                "catalog cache stale (model %s vs %s); rebuilding", cached.model, model
            )

    texts: list[str] = []
    meta: list[tuple[str, str, str]] = []  # (tid, name, example_id)
    for tid in sorted(techniques):
        entry = techniques[tid]
        if entry["description"]:
            texts.append(entry["description"])
            meta.append((tid, entry["name"], "description"))
        for n, example in enumerate(entry["examples"]):
            texts.append(example)
            meta.append((tid, entry["name"], f"procedure-{n}"))

    vectors = np.asarray(provider.embed(texts), dtype=np.float64) if texts else np.zeros((0, 0))
    entries = [CatalogEntry(tid, name, example_id, text)
               for (tid, name, example_id), text in zip(meta, texts)]
    catalog = TechniqueCatalog(model=model, content_hash=content_hash, entries=entries,
                               vectors=vectors)
    if cache_path is not None:
        save_catalog(catalog, cache_path)
    return catalog


def save_catalog(catalog: TechniqueCatalog, path: Union[str, Path]) -> None:
    """Write *catalog* to *path* as an uncompressed ``.npz`` whose matrix data
    starts at a multiple of 64 bytes into the file.

    The file is written beside *path* and then renamed over it, so *path*
    never holds a torn catalog, and processes that have the old file mapped
    keep reading it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "model": catalog.model,
        "dim": catalog.dim,
        "content_hash": catalog.content_hash,
        "entries": [asdict(e) for e in catalog.entries],
    }
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with tmp.open("xb") as fh:
            # uncompressed: embeddings barely compress, and a stored member maps
            with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
                _write_npy_member(zf, fh, "meta.npy",
                                  np.asarray(json.dumps(meta, ensure_ascii=False)))
                _write_npy_member(zf, fh, "vectors.npy", catalog.vectors)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_npy_member(zf: zipfile.ZipFile, fh: Any, name: str, array: np.ndarray) -> None:
    """Add *array* to *zf* as the stored member *name*, its ``.npy`` bytes
    starting at a multiple of ``_ALIGN`` into the file.

    The ``.npy`` header pads itself to a multiple of 64 bytes, so the array
    data is aligned too.  The gap is closed the way Android's zipalign does
    it: a padding block in the local header's extra field, which readers skip.
    """
    info = zipfile.ZipInfo(name)
    # where the .npy bytes would start without padding: after the next local
    # header's fixed part, the name and the size block force_zip64 appends
    npy_start = fh.tell() + _LOCAL_HEADER.size + len(name.encode()) + _ZIP64_EXTRA_SIZE
    pad = -npy_start % _ALIGN
    if pad:
        pad += _ALIGN if pad < _PAD_BLOCK.size else 0
        info.extra = _PAD_BLOCK.pack(_PAD_ID, pad - 4, _ALIGN) + bytes(pad - _PAD_BLOCK.size)
    # force_zip64 as np.savez does: the header length must not depend on size
    with zf.open(info, "w", force_zip64=True) as out:
        np.lib.format.write_array(out, array, allow_pickle=False)


def load_catalog(path: Union[str, Path]) -> TechniqueCatalog:
    """Read a catalog written by :func:`save_catalog`, or by earlier versions
    (``np.savez``, compressed or not).

    The file is mapped read-only and the matrix is a view of the mapping, not
    a copy; a matrix that is compressed, or not aligned for float64, is copied
    once.  Every member's CRC-32 is checked against the zip directory on a
    helper thread while the entries, norms and segments are built, and the
    catalog is returned only once that check has passed.

    Raises :class:`CatalogError` when the file is not a catalog, fails its
    CRC-32 check, holds an object array, or when its matrix is not
    ``(len(entries), dim)`` as its metadata says.
    """
    try:
        members = _read_members(path)
        with ThreadPoolExecutor(max_workers=1) as pool:
            crc_check = pool.submit(_check_crcs, members, path)
            try:
                catalog = _catalog_from(members, path)
            finally:
                # a CRC failure is the root cause of any parse error it comes with
                crc_check.result()
        return catalog
    except CatalogError:
        raise
    except (ValueError, KeyError, TypeError, EOFError, struct.error, zlib.error,
            zipfile.BadZipFile) as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc


def _read_members(path: Union[str, Path]) -> dict[str, tuple[int, Any]]:
    """Each member's name -> (CRC-32 from the zip directory, uncompressed
    bytes).  The bytes of a stored member are a view of a read-only mapping
    of the file, which stays mapped while any view of it is alive; a
    deflated member is inflated into a copy."""
    with open(path, "rb") as fh:
        with zipfile.ZipFile(fh) as zf:
            infos = zf.infolist()
        view = memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))
    members = {}
    for info in infos:
        signature, name_len, extra_len = _LOCAL_HEADER.unpack_from(view, info.header_offset)
        if signature != b"PK\x03\x04":
            raise ValueError(f"member {info.filename} has no local header")
        start = info.header_offset + _LOCAL_HEADER.size + name_len + extra_len
        data = view[start:start + info.compress_size]
        if info.compress_type == zipfile.ZIP_DEFLATED:
            data = zlib.decompress(data, -15)
        elif info.compress_type != zipfile.ZIP_STORED:
            raise ValueError(f"member {info.filename} uses compression {info.compress_type}")
        if len(data) != info.file_size:
            raise ValueError(f"member {info.filename} is truncated")
        members[info.filename] = (info.CRC, data)
    return members


def _maps_file(array: np.ndarray) -> bool:
    """Whether *array* is a view of a file mapping made by :func:`_read_members`."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)


def _check_crcs(members: dict[str, tuple[int, Any]], path: Union[str, Path]) -> None:
    for name, (crc, data) in members.items():
        if zlib.crc32(data) != crc:
            raise CatalogError(f"catalog {path}: member {name} fails its CRC-32 check")


def _catalog_from(members: dict[str, tuple[int, Any]],
                  path: Union[str, Path]) -> TechniqueCatalog:
    meta = json.loads(_npy_array(members["meta.npy"][1]).item())
    entries = [CatalogEntry(**item) for item in meta["entries"]]
    expected = (len(entries), meta["dim"])
    vectors = _npy_array(members["vectors.npy"][1])
    if vectors.shape != expected:
        raise CatalogError(
            f"catalog {path}: vectors have shape {vectors.shape}, its metadata says {expected}"
        )
    if not (vectors.dtype == np.float64 and vectors.flags.c_contiguous
            and vectors.flags.aligned):
        vectors = np.array(vectors, dtype=np.float64, order="C")
    return TechniqueCatalog(model=meta["model"], content_hash=meta["content_hash"],
                            entries=entries, vectors=vectors)


def _npy_array(data: Any) -> np.ndarray:
    """The array a ``.npy`` file's bytes hold, as a read-only view of *data*.
    Object arrays are refused, as ``np.load(..., allow_pickle=False)`` does."""
    header = io.BytesIO(data[:_NPY_HEADER_MAX])  # copies the header, not the data
    version = np.lib.format.read_magic(header)
    if version not in _NPY_HEADER_READERS:
        raise ValueError(f"unsupported .npy version {version}")
    shape, fortran_order, dtype = _NPY_HEADER_READERS[version](header)
    if dtype.hasobject:
        raise ValueError("object arrays are refused")
    array = np.frombuffer(data, dtype=dtype, count=math.prod(shape), offset=header.tell())
    return array.reshape(shape, order="F" if fortran_order else "C")
