"""Technique catalog: names, descriptions, and example embeddings per
MITRE ATT&CK technique.

Built from the enterprise ATT&CK STIX export: ``attack-pattern`` objects give
ids, names, and descriptions; ``uses`` relationships pointing at them carry
procedure-example texts.  Sub-techniques are collapsed into their parent —
T1027.002's description and examples all land under T1027 — because the
pipeline classifies at technique granularity.

The embeddings form one float32 matrix, each row embedding one text of one
technique; it is held, saved and loaded whole.  float32 is the precision
embedding endpoints return and the one dtype a catalog holds, so the file,
its CRC pass and every scoring product read half the bytes float64 would.
Each row is stored as a unit vector (see :func:`unit_rows`), normalized
once when the catalog is built, so scoring a query is one dot product per
row.  Rows are kept stably sorted by technique id, so each technique's rows
form one segment.  Scoring takes the segment starts, which the catalog works
out when it is built and the file stores.  The catalog keeps only what
scoring reads, so it cannot list the texts it embedded: ``catalog build``
counts them, and the export stays their source.

Embedding a full catalog costs real API calls, so the result is cached on
disk, keyed by the content hash of the parsed catalog plus the embedding model
id; a stale, foreign-model or unreadable cache is rebuilt, never trusted.  The
file is one flat layout, in this order:

1. the magic line ``cti2stix-catalog 4``, whose number is the format version;
2. the header's length and its CRC-32, as little-endian uint64 and uint32;
3. the header: UTF-8 JSON with the model, dim, content hash, the matrix's
   dtype string and shape, each technique's id and name in id order, and each
   part's byte length and CRC-32, padded with spaces so that the first part
   starts at a multiple of 64 bytes into the file;
4. the parts, each starting at the next multiple of 64 bytes after the one
   before, zero bytes between them: the matrix of unit rows (C order,
   float32) and the segment starts (int64).

Loading maps the file read-only and uses the matrix in place, so concurrent
processes share one copy in the page cache and a load does Python work per
technique, not per row; the segment starts, a few bytes a technique, are
copied.  Every CRC-32 is checked, on the calling thread, before a catalog is
returned, one slice of at most ``_CRC_SLICE`` bytes at a time, and the parts
are checked against the header and each other with whole-array numpy
operations.  The mapping keeps few of the file's pages resident: the load
releases each slice once its CRC is taken, and scoring reads the matrix one
row block at a time and releases each block once it is scored (see
:meth:`TechniqueCatalog.release_rows`), so at most one block is resident per
scoring pass.  Releasing drops only this process's page-table entries; the
page cache keeps the file, so reading a released row again is a minor fault,
never a disk read.  Because the parts are the
file, a catalog file is replaced (written beside it, then renamed), never
rewritten in place: truncating a mapped file would crash the processes
reading it.  Only float32 files in this layout load: an older version's file
(a zip, ``.npz``, version 1 of this layout, which kept the entries in its
header, version 2, which also stored every text and example id, or version
3, which stored the rows as embedded and their norms) or a matrix of any
other dtype is refused, and ``cti2stix catalog build`` rebuilds
it once, re-embedding through the provider (free when its response cache
holds the embeddings).
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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from .llm import TransportError
from .stix import external_technique_id, parent_technique, replacing

logger = logging.getLogger(__name__)

_MAGIC = b"cti2stix-catalog 4\n"  # the number is the format version
# older versions wrote a zip (.npz) file, then versions 1 to 3 of this layout
_OLDER_MAGICS = (b"PK\x03\x04", b"cti2stix-catalog 1\n", b"cti2stix-catalog 2\n",
                 b"cti2stix-catalog 3\n")
_LENGTHS = struct.Struct("<QI")  # the header's length and CRC-32
_HEADER_START = len(_MAGIC) + _LENGTHS.size
_ALIGN = 64  # file offset alignment of every part
_PARTS = ("matrix", "starts")  # in file order
_REBUILD = "written by an older version; rebuild it with `cti2stix catalog build`"
_DTYPE = np.dtype(np.float32)  # the one dtype a catalog holds
_INDEX = np.dtype("<i8")  # segment starts
_CRC_SLICE = 1 << 20  # bytes of a part read, then released, per CRC-32 step
# rows that unit_rows normalizes per step: a float64 copy of 64 rows of 1536
# dimensions takes 0.8 MB
_UNIT_BLOCK = 64


class CatalogError(ValueError):
    """A catalog file or ATT&CK export that cannot be read, or a catalog whose
    parts disagree with its metadata."""


def unit_rows(rows: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Each row of the 2-D array *rows* divided by its norm, as float32, in
    *out* (a new array when None; it may be *rows* itself).  Each row is
    first divided by its largest magnitude, so that no square overflows or
    underflows, then by its norm, both in float64, and only the quotient is
    rounded to float32.  A zero row stays zero, and a row holding a NaN
    keeps it.  Rows are taken ``_UNIT_BLOCK`` at a time, so the float64
    copies stay small."""
    if out is None:
        out = np.empty(rows.shape, dtype=_DTYPE)
    for lo in range(0, len(rows), _UNIT_BLOCK):
        block = np.array(rows[lo:lo + _UNIT_BLOCK], dtype=np.float64)
        peak = np.abs(block).max(axis=1, keepdims=True, initial=0.0)
        block /= np.where(peak > 0.0, peak, 1.0)
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        np.divide(block, np.where(norms > 0.0, norms, 1.0), out=out[lo:lo + _UNIT_BLOCK])
    return out


def _as_float32(vectors: Any) -> np.ndarray:
    """*vectors* as a float32 array, not copied when it is one already.
    Raises :class:`CatalogError` when a finite value lies beyond float32's
    range, which the cast would store as ``inf``."""
    given = np.asarray(vectors)
    if given.dtype == _DTYPE:
        return given
    with np.errstate(over="ignore"):  # numpy >= 1.24 warns; checked below
        matrix = given.astype(_DTYPE)
    inf = np.isinf(matrix)
    if inf.any():  # an inf may be an overflow
        beyond = given[inf & np.isfinite(given)]
        if beyond.size:
            raise CatalogError(f"vectors hold {float(beyond[0])!r}, beyond float32's range")
    return matrix


def _release(mapping: mmap.mmap, at: int, size: int) -> None:
    """Drop this process's page-table entries for bytes ``at:at + size`` of
    the read-only *mapping*, and so their share of its resident set.  The
    page cache keeps them, and a later read maps them again from it.  Does
    nothing where the platform has no ``madvise`` or ``MADV_DONTNEED``:
    Python defines the ``MADV_`` constants only where ``mmap`` has
    ``madvise``."""
    advice = getattr(mmap, "MADV_DONTNEED", None)
    if advice is None or size <= 0:
        return
    start = at - at % mmap.PAGESIZE  # madvise takes page-aligned starts
    mapping.madvise(advice, start, at + size - start)


def _crc32(view: memoryview, mapping: mmap.mmap, at: int, size: int) -> int:
    """The CRC-32 of ``view[at:at + size]``, a part of *mapping*, taken one
    slice at a time and each slice released once it is read, so that the
    check never holds the whole part resident.  Slices end at multiples of
    ``_CRC_SLICE`` in the file: a read maps a whole page-cache folio (up to
    2 MB, aligned in the file), and an aligned slice lies in one folio."""
    crc, lo = 0, at
    while lo < at + size:
        hi = min(lo - lo % _CRC_SLICE + _CRC_SLICE, at + size)
        crc = zlib.crc32(view[lo:hi], crc)
        _release(mapping, lo, hi - lo)
        lo = hi
    return crc


@dataclass(eq=False)
class TechniqueCatalog:
    """An embedding matrix whose rows are grouped by technique, in id order.

    ``techniques`` lists each technique's ``(id, name)`` in id order, and
    ``starts`` the row where its segment begins.  Build one with
    :meth:`from_rows`; :func:`load_catalog` fills the fields from a file,
    and the ``mapping`` that ``vectors`` views from ``matrix_at`` on.
    """

    model: str
    content_hash: str
    techniques: Sequence[tuple[str, str]]
    starts: np.ndarray  # int64, one per technique
    vectors: np.ndarray  # float32 (rows, dim), unit rows
    mapping: Optional[mmap.mmap] = field(default=None, repr=False)  # None when built in memory
    matrix_at: int = 0  # the matrix's offset in mapping

    @classmethod
    def from_rows(cls, model: str, content_hash: str, rows: Sequence[tuple[str, str]],
                  vectors: Any) -> TechniqueCatalog:
        """A catalog whose row i embeds a text of technique ``rows[i]``, an
        ``(id, name)`` pair.  The rows are stably sorted by technique id.

        Each row is cast to float32, then stored as a float32 unit vector
        (see :func:`unit_rows`) in a new array: *vectors* is left as it is.
        Raises :class:`CatalogError` when there is not one row per pair, a
        finite value lies beyond float32's range, or one technique has two
        names.
        """
        matrix = _as_float32(vectors)
        if matrix.ndim != 2 or len(matrix) != len(rows):
            raise CatalogError(f"vectors have shape {matrix.shape}, "
                               f"need one row per (id, name) pair ({len(rows)})")
        return cls._of_unit_rows(model, content_hash, rows, unit_rows(matrix))

    @classmethod
    def _of_unit_rows(cls, model: str, content_hash: str, rows: Sequence[tuple[str, str]],
                      matrix: np.ndarray) -> TechniqueCatalog:
        """:meth:`from_rows` over a float32 *matrix* of unit rows, one per
        pair, which the catalog keeps unless it must sort them."""
        order = sorted(range(len(rows)), key=lambda i: rows[i][0])
        if order != list(range(len(rows))):
            matrix = matrix[order]
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
        return cls(model, content_hash, techniques, np.array(starts, dtype=_INDEX), matrix)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def entries(self) -> range:
        # kept only for the benchmark's traced pass, which counts rows with
        # len(catalog.entries); it goes once that count reads len(catalog.vectors)
        return range(len(self.vectors))

    def release_rows(self, lo: int, hi: int) -> None:
        """Let go of the pages of matrix rows ``lo:hi`` that reading them made
        resident (see :func:`_release`); a later read, on any thread, maps
        them again from the page cache.  Does nothing for a catalog built in
        memory."""
        if self.mapping is not None:
            row = self.vectors.strides[0]
            _release(self.mapping, self.matrix_at + lo * row, (hi - lo) * row)

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
    embedded, techniques in id order, one embedding batch at a time (see
    :func:`_embed_float32`).  The cache is valid only when both the
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

    # normalized in place: from_rows would hold a normalized copy beside it
    matrix = _embed_float32(provider, texts)
    catalog = TechniqueCatalog._of_unit_rows(model, content_hash, rows,
                                             unit_rows(matrix, out=matrix))
    if cache_path is not None:
        save_catalog(catalog, cache_path)
    return catalog


def _embed_float32(provider: Any, texts: list[str]) -> np.ndarray:
    """The ``(len(texts), dim)`` float32 matrix of *texts*' embeddings.  The
    texts go to ``provider.embed`` in slices of ``embed_batch_size``, and each
    slice is cast into the matrix as it comes, so that no float64 copy of the
    whole matrix is held."""
    if not texts:
        return np.zeros((0, 0), dtype=_DTYPE)
    batch = provider.config.embed_batch_size
    matrix = None
    for lo in range(0, len(texts), batch):
        part = texts[lo:lo + batch]
        rows = _as_float32(provider.embed(part))
        if matrix is None:  # the first slice gives the dimension
            matrix = np.empty((len(texts), rows.shape[-1]), dtype=_DTYPE)
        if rows.shape != (len(part), matrix.shape[1]):
            raise TransportError(f"malformed embedding response: {len(part)} catalog texts "
                                 f"embed as shape {rows.shape}, not "
                                 f"{(len(part), matrix.shape[1])}")
        matrix[lo:lo + len(part)] = rows
    return matrix


def save_catalog(catalog: TechniqueCatalog, path: Union[str, Path]) -> None:
    """Write *catalog* to *path* in the layout the module docstring gives.
    The file is synced before it replaces *path*, so that a crash leaves a
    whole catalog there."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    parts = [np.ascontiguousarray(part).reshape(-1).view(np.uint8) for part in (
        catalog.vectors, catalog.starts)]
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
    with replacing(path, binary=True) as fh:
        fh.write(_MAGIC + _LENGTHS.pack(len(header), zlib.crc32(header)) + header)
        for part in parts:
            fh.write(bytes(-fh.tell() % _ALIGN))
            fh.write(part)
        fh.flush()
        os.fsync(fh.fileno())


def load_catalog(path: Union[str, Path]) -> TechniqueCatalog:
    """Read a catalog written by :func:`save_catalog`: its matrix is a view
    of a read-only mapping of the file, and its segment starts are copied
    from it.  The CRC checks release each slice of a part once it is
    read (see :func:`_crc32`).

    Raises :class:`CatalogError` when the file cannot be opened or mapped, is
    not a catalog, is truncated, fails a CRC-32 check, when its matrix is not
    float32 (native byte order) or not ``(rows, dim)`` as its header says,
    when a part's size or content disagrees with the header or with another
    part, or when it was written by an older version: ``cti2stix catalog
    build`` rebuilds such a file.
    """
    try:
        with open(path, "rb") as fh:
            mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        view = memoryview(mapping)
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
                "starts": len(techniques) * _INDEX.itemsize}
        for name, size in need.items():
            if spans[name][1] != size:
                raise CatalogError(f"catalog {path}: its {name} part holds "
                                   f"{spans[name][1]} bytes, need {size}")

        def part(name: str, dtype: np.dtype) -> np.ndarray:
            at, size = spans[name]
            return np.frombuffer(view, dtype, size // dtype.itemsize, at)

        # a few bytes a technique, copied so that the CRC pass releases their pages too
        starts = part("starts", _INDEX).copy()
        for name, (at, size) in spans.items():
            if _crc32(view, mapping, at, size) != meta["parts"][name][1]:
                raise CatalogError(f"catalog {path}: {name} fails its CRC-32 check")
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
                                mapping, spans["matrix"][0])
    except CatalogError:
        raise
    except (OSError, ValueError, KeyError, TypeError, struct.error) as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
