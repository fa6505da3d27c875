"""Technique catalog: names, descriptions, and example embeddings per
MITRE ATT&CK technique.

Built from the enterprise ATT&CK STIX export: ``attack-pattern`` objects give
ids, names, and descriptions; ``uses`` relationships pointing at them carry
procedure-example texts.  Sub-techniques are collapsed into their parent —
T1027.002's description and examples all land under T1027 — because the
pipeline classifies at technique granularity.

The embeddings form one matrix, row i embedding ``entries[i].text``; it is
held, saved and loaded whole.  :func:`build_catalog` makes it float32, the
precision embedding endpoints return, so the file, its CRC pass and every
scoring product read half the bytes float64 would.  Scoring takes its row
norms and its technique segments (entries grouped by technique id), so the
catalog works them out once, when it is built or loaded, and scores in the
matrix's own dtype.

Embedding a full catalog costs real API calls, so the result is cached on
disk, keyed by the content hash of the parsed catalog plus the embedding model
id; a stale, foreign-model or unreadable cache is rebuilt, never trusted.  The
file is one flat layout, in this order:

1. the magic line ``cti2stix-catalog 1``, whose number is the format version;
2. the header's length and its CRC-32, as little-endian uint64 and uint32;
3. the header: UTF-8 JSON with the model, dim, content hash, the matrix's
   dtype string, shape and CRC-32, and the entries, padded with spaces so
   that the matrix starts at a multiple of 64 bytes into the file;
4. the matrix bytes, in C order and the matrix's own dtype.

Loading maps the file read-only and uses the matrix in place, so concurrent
processes share one copy in the page cache; both CRC-32s are still checked
before a catalog is returned, the matrix's on a helper thread.  Because the
matrix is the file, a catalog file is replaced (written beside it, then
renamed), never rewritten in place: truncating a mapped file would crash the
processes reading it.  Only float32 files in this layout load: an older
version's zip (``.npz``) file or a matrix of any other dtype is refused, and
``cti2stix catalog build`` rebuilds it once, re-embedding through the
provider (free when its response cache holds the embeddings).
"""

from __future__ import annotations

import hashlib
import json
import logging
import mmap
import os
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Union

import numpy as np

from .stix import external_technique_id, parent_technique

logger = logging.getLogger(__name__)

_MAGIC = b"cti2stix-catalog 1\n"  # the number is the format version
_LENGTHS = struct.Struct("<QI")  # the header's length and CRC-32
_HEADER_START = len(_MAGIC) + _LENGTHS.size
_ALIGN = 64  # file offset alignment of the matrix
_ZIP_MAGIC = b"PK\x03\x04"  # older versions wrote a zip (.npz) file
_REBUILD = "written by an older version; rebuild it with `cti2stix catalog build`"
_DTYPE = np.dtype(np.float32)  # the one dtype a catalog file holds


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
    vectors: np.ndarray  # float32 or float64 (len(entries), dim); row i embeds entries[i].text
    norms: np.ndarray = field(init=False, repr=False)
    order: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # float32 stays float32; anything else is taken as float64
        vectors = np.asarray(self.vectors)
        if vectors.dtype != _DTYPE:
            vectors = vectors.astype(np.float64, copy=False)
        self.vectors = vectors
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
        tid = external_technique_id(obj)
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
            if cached.content_hash != content_hash or cached.model != model:
                logger.info(
                    "catalog cache stale (model %s vs %s); rebuilding", cached.model, model
                )
            else:
                logger.info("catalog cache hit (%d entries)", len(cached.entries))
                return cached

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

    vectors = (np.asarray(provider.embed(texts), dtype=_DTYPE) if texts
               else np.zeros((0, 0), dtype=_DTYPE))
    entries = [CatalogEntry(tid, name, example_id, text)
               for (tid, name, example_id), text in zip(meta, texts)]
    catalog = TechniqueCatalog(model=model, content_hash=content_hash, entries=entries,
                               vectors=vectors)
    if cache_path is not None:
        save_catalog(catalog, cache_path)
    return catalog


def save_catalog(catalog: TechniqueCatalog, path: Union[str, Path]) -> None:
    """Write *catalog* to *path* in the layout the module docstring gives.

    The file is written beside *path* and then renamed over it, so *path*
    never holds a torn catalog, and processes that have the old file mapped
    keep reading it.  Raises :class:`CatalogError` when the matrix is not
    float32: a cast could turn values beyond float32's range into ``inf``.
    """
    if catalog.vectors.dtype != _DTYPE:
        raise CatalogError(f"cannot save a {catalog.vectors.dtype} matrix, need {_DTYPE}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    matrix = np.ascontiguousarray(catalog.vectors)
    header = json.dumps({
        "model": catalog.model,
        "dim": catalog.dim,
        "content_hash": catalog.content_hash,
        "dtype": matrix.dtype.str,
        "shape": matrix.shape,
        "matrix_crc32": zlib.crc32(matrix),
        "entries": [asdict(e) for e in catalog.entries],
    }, ensure_ascii=False).encode("utf-8")
    # JSON ignores trailing whitespace, so spaces pad the matrix into alignment
    header += b" " * (-(_HEADER_START + len(header)) % _ALIGN)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with tmp.open("xb") as fh:
            fh.write(_MAGIC + _LENGTHS.pack(len(header), zlib.crc32(header)) + header)
            fh.write(matrix)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_catalog(path: Union[str, Path]) -> TechniqueCatalog:
    """Read a catalog written by :func:`save_catalog`, its matrix a view of a
    read-only mapping of the file.  The matrix's CRC-32 is computed on a
    helper thread while the header is checked and parsed and the entries,
    norms and segments are built.

    Raises :class:`CatalogError` when the file is not a catalog, is
    truncated, fails a CRC-32 check, when its matrix is not float32 (native
    byte order) or not ``(len(entries), dim)`` as its header says, or when
    it was written by an older version: ``cti2stix catalog build`` rebuilds
    such a file.
    """
    try:
        with open(path, "rb") as fh:
            view = memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))
        if view[:len(_MAGIC)] != _MAGIC:
            if view[:len(_ZIP_MAGIC)] == _ZIP_MAGIC:
                raise CatalogError(f"catalog {path} was {_REBUILD}")
            raise ValueError("not a catalog file")
        header_size, header_crc = _LENGTHS.unpack_from(view, len(_MAGIC))
        offset = _HEADER_START + header_size
        if offset > len(view) or offset % _ALIGN:
            raise ValueError(f"its {header_size}-byte header runs past the end of the file "
                             f"or leaves the matrix unaligned")
        with ThreadPoolExecutor(max_workers=1) as pool:
            matrix_crc = pool.submit(zlib.crc32, view[offset:])
            if zlib.crc32(view[_HEADER_START:offset]) != header_crc:
                raise CatalogError(f"catalog {path}: header fails its CRC-32 check")
            meta = json.loads(bytes(view[_HEADER_START:offset]))
            entries = [CatalogEntry(**item) for item in meta["entries"]]
            if meta["dtype"] != _DTYPE.str:
                raise CatalogError(f"catalog {path}: vectors have dtype {meta['dtype']}, "
                                   f"need float32 ({_DTYPE.str})")
            shape = tuple(meta["shape"])
            if shape != (len(entries), meta["dim"]):
                raise CatalogError(f"catalog {path}: vectors have shape {shape}, "
                                   f"its metadata says {(len(entries), meta['dim'])}")
            count = shape[0] * shape[1]
            if len(view) - offset != count * _DTYPE.itemsize:
                raise ValueError(f"its matrix holds {len(view) - offset} bytes, "
                                 f"its header says {count * _DTYPE.itemsize}")
            vectors = np.frombuffer(view, _DTYPE, count, offset).reshape(shape)
            catalog = TechniqueCatalog(model=meta["model"], content_hash=meta["content_hash"],
                                       entries=entries, vectors=vectors)
            if matrix_crc.result() != meta["matrix_crc32"]:
                raise CatalogError(f"catalog {path}: matrix fails its CRC-32 check")
        return catalog
    except CatalogError:
        raise
    except (ValueError, KeyError, TypeError, struct.error) as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
