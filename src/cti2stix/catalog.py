"""Technique catalog: names, descriptions, and example embeddings per
MITRE ATT&CK technique.

Built from the enterprise ATT&CK STIX export: ``attack-pattern`` objects give
ids, names, and descriptions; ``uses`` relationships pointing at them carry
procedure-example texts.  Sub-techniques are collapsed into their parent —
T1027.002's description and examples all land under T1027 — because the
pipeline classifies at technique granularity.

The embeddings form one matrix, each row embedding one text of one technique;
it is held, saved and loaded whole.  :func:`build_catalog` makes it float32,
the precision embedding endpoints return, so the file, its CRC pass and every
scoring product read half the bytes float64 would.  Rows are kept stably
sorted by technique id, so each technique's rows form one segment.  Scoring
takes the row norms and the segment starts, which the catalog works out when
it is built and the file stores, and scores in the matrix's own dtype.  The
catalog keeps only what scoring reads, so it cannot list the texts it
embedded: ``catalog build`` counts them, and the export stays their source.

Embedding a full catalog costs real API calls, so the result is cached on
disk, keyed by the content hash of the parsed catalog plus the embedding model
id; a stale, foreign-model or unreadable cache is rebuilt, never trusted.  The
file is one flat layout, in this order:

1. the magic line ``cti2stix-catalog 3``, whose number is the format version;
2. the header's length and its CRC-32, as little-endian uint64 and uint32;
3. the header: UTF-8 JSON with the model, dim, content hash, the matrix's
   dtype string and shape, each technique's id and name in id order, and each
   part's byte length and CRC-32, padded with spaces so that the first part
   starts at a multiple of 64 bytes into the file;
4. the parts, each starting at the next multiple of 64 bytes after the one
   before, zero bytes between them: the matrix (C order, its own dtype), the
   row norms (the matrix's dtype) and the segment starts (int64).

Loading maps the file read-only and uses every part in place, so concurrent
processes share one copy in the page cache and a load does Python work per
technique, not per row.  Every CRC-32 is still checked before a catalog is
returned, the parts' on a helper thread, and the parts are checked against
the header and each other with whole-array numpy operations.  Because the
parts are the file, a catalog file is replaced (written beside it, then
renamed), never rewritten in place: truncating a mapped file would crash the
processes reading it.  Only float32 files in this layout load: an older
version's file (a zip, ``.npz``, version 1 of this layout, which kept the
entries in its header, or version 2, which also stored every text and example
id) or a matrix of any other dtype is refused, and ``cti2stix catalog build``
rebuilds it once, re-embedding through the provider (free when its response
cache holds the embeddings).
"""

from __future__ import annotations

import hashlib
import json
import logging
import mmap
import os
import struct
import zlib
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Union

import numpy as np

from .stix import external_technique_id, parent_technique

logger = logging.getLogger(__name__)

_MAGIC = b"cti2stix-catalog 3\n"  # the number is the format version
# older versions wrote a zip (.npz) file, then versions 1 and 2 of this layout
_OLDER_MAGICS = (b"PK\x03\x04", b"cti2stix-catalog 1\n", b"cti2stix-catalog 2\n")
_LENGTHS = struct.Struct("<QI")  # the header's length and CRC-32
_HEADER_START = len(_MAGIC) + _LENGTHS.size
_ALIGN = 64  # file offset alignment of every part
_PARTS = ("matrix", "norms", "starts")  # in file order
_REBUILD = "written by an older version; rebuild it with `cti2stix catalog build`"
_DTYPE = np.dtype(np.float32)  # the one dtype a catalog file holds
_INDEX = np.dtype("<i8")  # segment starts


class CatalogError(ValueError):
    """A catalog file or ATT&CK export that cannot be read, or a catalog whose
    parts disagree with its metadata."""


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array."""
    # einsum allocates only the result; np.linalg.norm(rows, axis=1) would
    # first square the whole matrix into a copy
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


@dataclass(eq=False)
class TechniqueCatalog:
    """An embedding matrix whose rows are grouped by technique, in id order.

    ``techniques`` lists each technique's ``(id, name)`` in id order, and
    ``starts`` the row where its segment begins.  Build one with
    :meth:`from_rows`; :func:`load_catalog` fills the fields from a file.
    """

    model: str
    content_hash: str
    techniques: Sequence[tuple[str, str]]
    starts: np.ndarray  # int64, one per technique
    vectors: np.ndarray  # float32 or float64 (rows, dim)
    norms: np.ndarray  # each row's norm, in the matrix's dtype

    @classmethod
    def from_rows(cls, model: str, content_hash: str, rows: Sequence[tuple[str, str]],
                  vectors: Any) -> TechniqueCatalog:
        """A catalog whose row i embeds a text of technique ``rows[i]``, an
        ``(id, name)`` pair.  The rows are stably sorted by technique id.

        A float32 matrix stays float32; any other is taken as float64.
        Raises :class:`CatalogError` when there is not one row per pair, or
        when one technique has two names.
        """
        vectors = np.asarray(vectors)
        if vectors.dtype != _DTYPE:
            vectors = vectors.astype(np.float64, copy=False)
        if vectors.ndim != 2 or len(vectors) != len(rows):
            raise CatalogError(f"vectors have shape {vectors.shape}, "
                               f"need one row per (id, name) pair ({len(rows)})")
        order = sorted(range(len(rows)), key=lambda i: rows[i][0])
        if order != list(range(len(rows))):
            vectors = vectors[order]
        techniques: list[tuple[str, str]] = []
        starts: list[int] = []
        for row, i in enumerate(order):
            technique_id, name = rows[i]
            if not techniques or techniques[-1][0] != technique_id:
                techniques.append((technique_id, name))
                starts.append(row)
            elif techniques[-1][1] != name:
                raise CatalogError(f"technique {technique_id} has rows named "
                                   f"{techniques[-1][1]!r} and {name!r}")
        return cls(model, content_hash, techniques, np.array(starts, dtype=_INDEX),
                   vectors, row_norms(vectors))

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def entries(self) -> range:
        # kept only for the benchmark's traced pass, which counts rows with
        # len(catalog.entries); it goes once that count reads len(catalog.vectors)
        return range(len(self.vectors))

    def technique_names(self) -> dict[str, str]:
        """``{technique id: name}`` over every technique, in id order."""
        return dict(self.techniques)


def parse_attack_export(source: Union[str, Path, dict]) -> dict[str, dict[str, Any]]:
    """Parse an ATT&CK STIX export into ``{technique_id: {name, description,
    examples}}`` with sub-techniques collapsed into their parents.

    Revoked and deprecated objects are ignored.  Techniques that end up with
    zero procedure examples are kept (the description still gets embedded)
    with a warning, since they will match only near-verbatim text.  Raises
    :class:`CatalogError` when the export is not JSON, not an object whose
    ``objects`` is a list of objects, or gives a name or description that is
    neither a string nor null.
    """
    where = f"ATT&CK export {source}" if isinstance(source, (str, Path)) else "ATT&CK export"
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise CatalogError(f"{where} is not JSON: {exc}") from exc
    else:
        raw = source
    objects = raw.get("objects") if isinstance(raw, dict) else None
    if not isinstance(objects, list) or not all(isinstance(obj, dict) for obj in objects):
        raise CatalogError(f'{where} is not an object whose "objects" is a list of objects')

    def text(obj: dict[str, Any], key: str) -> str:
        value = obj.get(key) or ""  # null reads as empty
        if not isinstance(value, str):
            raise CatalogError(f"{where}: {obj.get('id')} has a {key} that is not a string")
        return value

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
        description = text(obj, "description").strip()
        if tid == parent:
            entry = techniques.setdefault(parent, {"name": "", "description": "", "examples": []})
            entry["name"] = text(obj, "name")
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
        example = text(obj, "description").strip()
        if not example:
            continue
        parent = parent_technique(tid)
        if parent in techniques:
            techniques[parent]["examples"].append(example)

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

    Each technique's description, if any, then its procedure examples are
    embedded, techniques in id order.  The cache is valid only when both the
    embedding model id and the content hash of the parsed export match; an
    unreadable cache is rebuilt too.
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
                logger.info("catalog cache hit (%d rows)", len(cached.vectors))
                return cached

    texts: list[str] = []
    rows: list[tuple[str, str]] = []  # (tid, name) of each text
    for tid in sorted(techniques):
        entry = techniques[tid]
        for text in ([entry["description"]] if entry["description"] else []) + entry["examples"]:
            texts.append(text)
            rows.append((tid, entry["name"]))

    vectors = (np.asarray(provider.embed(texts), dtype=_DTYPE) if texts
               else np.zeros((0, 0), dtype=_DTYPE))
    catalog = TechniqueCatalog.from_rows(model, content_hash, rows, vectors)
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
    parts = [np.ascontiguousarray(part).reshape(-1).view(np.uint8) for part in (
        catalog.vectors, catalog.norms, catalog.starts)]
    header = json.dumps({
        "model": catalog.model,
        "dim": catalog.dim,
        "content_hash": catalog.content_hash,
        "dtype": catalog.vectors.dtype.str,
        "shape": catalog.vectors.shape,
        "techniques": catalog.techniques,
        "parts": {name: [len(part), zlib.crc32(part)] for name, part in zip(_PARTS, parts)},
    }, ensure_ascii=False).encode("utf-8")
    # JSON ignores trailing whitespace, so spaces pad the first part into alignment
    header += b" " * (-(_HEADER_START + len(header)) % _ALIGN)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with tmp.open("xb") as fh:
            fh.write(_MAGIC + _LENGTHS.pack(len(header), zlib.crc32(header)) + header)
            for part in parts:
                fh.write(bytes(-fh.tell() % _ALIGN))
                fh.write(part)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_catalog(path: Union[str, Path]) -> TechniqueCatalog:
    """Read a catalog written by :func:`save_catalog`, each of its parts a
    view of a read-only mapping of the file.  The parts' CRC-32s are computed
    on a helper thread while the header is checked.

    Raises :class:`CatalogError` when the file cannot be opened or mapped, is
    not a catalog, is truncated, fails a CRC-32 check, when its matrix is not
    float32 (native byte order) or not ``(rows, dim)`` as its header says,
    when a part's size or content disagrees with the header or with another
    part, or when it was written by an older version: ``cti2stix catalog
    build`` rebuilds such a file.
    """
    try:
        with open(path, "rb") as fh:
            view = memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))
        if view[:len(_MAGIC)] != _MAGIC:
            if any(view[:len(magic)] == magic for magic in _OLDER_MAGICS):
                raise CatalogError(f"catalog {path} was {_REBUILD}")
            raise ValueError("not a catalog file")
        header_size, header_crc = _LENGTHS.unpack_from(view, len(_MAGIC))
        at = _HEADER_START + header_size
        if at > len(view) or at % _ALIGN:
            raise ValueError(f"its {header_size}-byte header runs past the end of the file "
                             f"or leaves its parts unaligned")
        if zlib.crc32(view[_HEADER_START:at]) != header_crc:
            raise CatalogError(f"catalog {path}: header fails its CRC-32 check")
        meta = json.loads(bytes(view[_HEADER_START:at]))
        if list(meta["parts"]) != list(_PARTS):
            raise ValueError(f"its parts are {list(meta['parts'])}, need {list(_PARTS)}")
        spans = {}  # part name -> (file offset, byte length)
        for name in _PARTS:
            size = meta["parts"][name][0]
            at += -at % _ALIGN
            if at + size > len(view):
                raise ValueError(f"its {name} holds {max(0, len(view) - at)} bytes, "
                                 f"its header says {size}")
            spans[name] = (at, size)
            at += size
        if at != len(view):
            raise ValueError(f"it holds {len(view) - at} bytes past its last part")
        with ThreadPoolExecutor(max_workers=1) as pool:
            crcs = pool.submit(lambda: [zlib.crc32(view[a:a + n]) for a, n in spans.values()])
            if meta["dtype"] != _DTYPE.str:
                raise CatalogError(f"catalog {path}: vectors have dtype {meta['dtype']}, "
                                   f"need float32 ({_DTYPE.str})")
            shape, techniques = tuple(meta["shape"]), meta["techniques"]
            if len(shape) != 2 or shape[1] != meta["dim"]:
                raise CatalogError(f"catalog {path}: vectors have shape {shape}, "
                                   f"its metadata says {(shape[0], meta['dim'])}")
            if not all(isinstance(t, list) and len(t) == 2 and all(isinstance(s, str) for s in t)
                       for t in techniques):
                raise ValueError("its techniques are not all [id, name] pairs of strings")
            rows = shape[0]
            need = {"matrix": rows * shape[1] * _DTYPE.itemsize,
                    "norms": rows * _DTYPE.itemsize,
                    "starts": len(techniques) * _INDEX.itemsize}
            for name, size in need.items():
                if spans[name][1] != size:
                    raise CatalogError(f"catalog {path}: its {name} part holds "
                                       f"{spans[name][1]} bytes, need {size}")
            for name, crc in zip(_PARTS, crcs.result()):
                if crc != meta["parts"][name][1]:
                    raise CatalogError(f"catalog {path}: {name} fails its CRC-32 check")

        def part(name: str, dtype: np.dtype) -> np.ndarray:
            at, size = spans[name]
            return np.frombuffer(view, dtype, size // dtype.itemsize, at)

        starts = part("starts", _INDEX)
        ids = [technique_id for technique_id, _ in techniques]
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError("its technique ids do not strictly increase")
        if not (rows == 0 if len(starts) == 0 else
                starts[0] == 0 and starts[-1] < rows and bool((np.diff(starts) > 0).all())):
            raise ValueError(f"its segment starts do not begin at 0 and strictly "
                             f"increase below its {rows} rows")
        return TechniqueCatalog(meta["model"], meta["content_hash"],
                                [(technique_id, name) for technique_id, name in techniques],
                                starts, part("matrix", _DTYPE).reshape(shape),
                                part("norms", _DTYPE))
    except CatalogError:
        raise
    except (OSError, ValueError, KeyError, TypeError, struct.error) as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
