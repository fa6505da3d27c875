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
scoring product read half the bytes float64 would.  Rows are kept stably
sorted by technique id, so each technique's rows form one segment.  Scoring
takes the row norms and the segment starts, which the catalog works out when
it is built and the file stores, and scores in the matrix's own dtype.

Embedding a full catalog costs real API calls, so the result is cached on
disk, keyed by the content hash of the parsed catalog plus the embedding model
id; a stale, foreign-model or unreadable cache is rebuilt, never trusted.  The
file is one flat layout, in this order:

1. the magic line ``cti2stix-catalog 2``, whose number is the format version;
2. the header's length and its CRC-32, as little-endian uint64 and uint32;
3. the header: UTF-8 JSON with the model, dim, content hash, the matrix's
   dtype string and shape, the entry count, each technique's id and name in
   id order, and each part's byte length and CRC-32, padded with spaces so
   that the first part starts at a multiple of 64 bytes into the file;
4. the parts, each starting at the next multiple of 64 bytes after the one
   before, zero bytes between them: the matrix (C order, its own dtype), the
   row norms (the matrix's dtype), the segment starts (int64), then the
   entries' texts and example ids, each as the int64 offsets of every string
   followed by the strings' UTF-8 bytes end to end.

Loading maps the file read-only and uses every part in place, so concurrent
processes share one copy in the page cache and a load does Python work per
technique, not per entry: ``entries`` is a read-only sequence that builds a
:class:`CatalogEntry` only when one is indexed.  Every CRC-32 is still
checked before a catalog is returned, the parts' on a helper thread, and the
parts are checked against the header and each other with whole-array numpy
operations.  Because the parts are the file, a catalog file is replaced
(written beside it, then renamed), never rewritten in place: truncating a
mapped file would crash the processes reading it.  Only float32 files in this
layout load: an older version's file (a zip, ``.npz``, or version 1 of this
layout, which kept the entries in its header) or a matrix of any other dtype
is refused, and ``cti2stix catalog build`` rebuilds it once, re-embedding
through the provider (free when its response cache holds the embeddings).
"""

from __future__ import annotations

import hashlib
import json
import logging
import mmap
import operator
import os
import struct
import zlib
from bisect import bisect_right
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from .stix import external_technique_id, parent_technique

logger = logging.getLogger(__name__)

_MAGIC = b"cti2stix-catalog 2\n"  # the number is the format version
# older versions wrote a zip (.npz) file, then version 1 of this layout
_OLDER_MAGICS = (b"PK\x03\x04", b"cti2stix-catalog 1\n")
_LENGTHS = struct.Struct("<QI")  # the header's length and CRC-32
_HEADER_START = len(_MAGIC) + _LENGTHS.size
_ALIGN = 64  # file offset alignment of every part
_PARTS = ("matrix", "norms", "starts", "text_offsets", "texts",
          "example_offsets", "example_ids")  # in file order
_REBUILD = "written by an older version; rebuild it with `cti2stix catalog build`"
_DTYPE = np.dtype(np.float32)  # the one dtype a catalog file holds
_INDEX = np.dtype("<i8")  # segment starts and string offsets
_BYTE = np.dtype(np.uint8)


class CatalogError(ValueError):
    """A catalog file that cannot be read, or whose parts disagree with its
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


@dataclass(frozen=True)
class _Strings:
    """Strings stored end to end as UTF-8 bytes: string i is
    ``data[offsets[i]:offsets[i + 1]]``, decoded when it is read."""

    data: np.ndarray  # uint8
    offsets: np.ndarray  # int64, one more than there are strings

    @classmethod
    def pack(cls, strings: Sequence[str]) -> _Strings:
        encoded = [s.encode("utf-8") for s in strings]
        offsets = np.zeros(len(encoded) + 1, dtype=_INDEX)
        offsets[1:] = np.cumsum([len(b) for b in encoded], dtype=_INDEX)
        return cls(np.frombuffer(b"".join(encoded), dtype=_BYTE), offsets)

    def __getitem__(self, i: int) -> str:
        return str(self.data[self.offsets[i]:self.offsets[i + 1]], "utf-8")

    def check(self, name: str) -> None:
        """Raise ValueError unless the offsets run from 0 to the end of the
        data without going back, and each string is whole UTF-8."""
        offsets = self.offsets
        if offsets[0] != 0 or offsets[-1] != len(self.data) or (np.diff(offsets) < 0).any():
            raise ValueError(f"its {name} offsets do not rise from 0 to its "
                             f"{len(self.data)} bytes of strings")
        str(self.data, "utf-8")  # raises UnicodeDecodeError, a ValueError
        inside = offsets[offsets < len(self.data)]
        if ((self.data[inside] & 0xC0) == 0x80).any():
            raise ValueError(f"its {name} offsets split a UTF-8 character")


class CatalogEntries(Sequence):
    """A catalog's entries, grouped by technique, each built as a
    :class:`CatalogEntry` only when it is indexed.

    ``techniques`` lists each technique's ``(id, name)`` in id order, and
    ``starts`` the index of its first entry; the entries' example ids and
    texts are stored as packed strings.
    """

    def __init__(self, techniques: Sequence[Sequence[str]], starts: np.ndarray,
                 example_ids: _Strings, texts: _Strings) -> None:
        self.techniques = techniques
        self.starts = starts
        self._starts = starts.tolist()
        self.example_ids = example_ids
        self.texts = texts

    @classmethod
    def pack(cls, entries: Sequence[CatalogEntry]) -> CatalogEntries:
        """*entries*, which must be grouped by technique id in id order.

        Raises :class:`CatalogError` when one technique's entries carry two
        names: a technique has one name.
        """
        techniques: list[tuple[str, str]] = []
        starts: list[int] = []
        for i, entry in enumerate(entries):
            if not techniques or techniques[-1][0] != entry.technique_id:
                techniques.append((entry.technique_id, entry.name))
                starts.append(i)
            elif techniques[-1][1] != entry.name:
                raise CatalogError(f"technique {entry.technique_id} has entries named "
                                   f"{techniques[-1][1]!r} and {entry.name!r}")
        return cls(techniques, np.array(starts, dtype=_INDEX),
                   _Strings.pack([e.example_id for e in entries]),
                   _Strings.pack([e.text for e in entries]))

    def __len__(self) -> int:
        return len(self.texts.offsets) - 1

    def __getitem__(self, i: int) -> CatalogEntry:
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("catalog entry index out of range")
        technique_id, name = self.techniques[bisect_right(self._starts, i) - 1]
        return CatalogEntry(technique_id, name, self.example_ids[i], self.texts[i])

    def check(self) -> None:
        """Raise ValueError unless the technique ids strictly increase, the
        segment starts begin at 0 and strictly increase below the entry count,
        and the packed strings are whole (:meth:`_Strings.check`)."""
        ids = [technique_id for technique_id, _ in self.techniques]
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError("its technique ids do not strictly increase")
        starts = self.starts
        if len(starts) == 0:
            segmented = len(self) == 0
        else:
            segmented = (starts[0] == 0 and starts[-1] < len(self)
                         and bool((np.diff(starts) > 0).all()))
        if not segmented:
            raise ValueError(f"its segment starts do not begin at 0 and strictly "
                             f"increase below its {len(self)} entries")
        self.example_ids.check("example id")
        self.texts.check("text")


@dataclass(eq=False)
class TechniqueCatalog:
    """Catalog entries and their embedding matrix, in technique order.

    Entries given in another order are stably sorted by technique id, their
    rows with them, so each technique's rows form one segment in catalog
    order; ``starts`` gives where each segment begins.  ``entries`` becomes a
    :class:`CatalogEntries`.  ``norms`` holds the row norms, computed unless
    given with entries already in that form, as :func:`load_catalog` does.
    """

    model: str
    content_hash: str
    entries: Sequence[CatalogEntry]
    vectors: np.ndarray  # float32 or float64 (len(entries), dim); row i embeds entries[i].text
    norms: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # float32 stays float32; anything else is taken as float64
        vectors = np.asarray(self.vectors)
        if vectors.dtype != _DTYPE:
            vectors = vectors.astype(np.float64, copy=False)
        if vectors.ndim != 2 or len(vectors) != len(self.entries):
            raise CatalogError(
                f"vectors have shape {vectors.shape}, "
                f"need one row per entry ({len(self.entries)})"
            )
        if not isinstance(self.entries, CatalogEntries):
            entries = list(self.entries)
            order = sorted(range(len(entries)), key=lambda i: entries[i].technique_id)
            if order != list(range(len(entries))):
                entries = [entries[i] for i in order]
                vectors = vectors[order]
            self.entries = CatalogEntries.pack(entries)
            self.norms = None
        self.vectors = vectors
        if self.norms is None:
            self.norms = row_norms(vectors)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def starts(self) -> np.ndarray:
        return self.entries.starts

    def technique_names(self) -> dict[str, str]:
        """``{technique id: name}`` over every technique, in id order."""
        return dict(self.entries.techniques)


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
    entries = catalog.entries
    parts = [np.ascontiguousarray(part).reshape(-1).view(_BYTE) for part in (
        catalog.vectors, catalog.norms, entries.starts,
        entries.texts.offsets, entries.texts.data,
        entries.example_ids.offsets, entries.example_ids.data,
    )]
    header = json.dumps({
        "model": catalog.model,
        "dim": catalog.dim,
        "content_hash": catalog.content_hash,
        "dtype": catalog.vectors.dtype.str,
        "shape": catalog.vectors.shape,
        "entries": len(entries),
        "techniques": entries.techniques,
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

    Raises :class:`CatalogError` when the file is not a catalog, is
    truncated, fails a CRC-32 check, when its matrix is not float32 (native
    byte order) or not ``(entries, dim)`` as its header says, when a part's
    size or content disagrees with the header or with another part, or when
    it was written by an older version: ``cti2stix catalog build`` rebuilds
    such a file.
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
            rows, techniques = meta["entries"], meta["techniques"]
            shape = tuple(meta["shape"])
            if shape != (rows, meta["dim"]):
                raise CatalogError(f"catalog {path}: vectors have shape {shape}, "
                                   f"its metadata says {(rows, meta['dim'])}")
            need = {"matrix": shape[0] * shape[1] * _DTYPE.itemsize,
                    "norms": rows * _DTYPE.itemsize,
                    "starts": len(techniques) * _INDEX.itemsize,
                    "text_offsets": (rows + 1) * _INDEX.itemsize,
                    "example_offsets": (rows + 1) * _INDEX.itemsize}
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

        entries = CatalogEntries(
            [(technique_id, name) for technique_id, name in techniques],
            part("starts", _INDEX),
            _Strings(part("example_ids", _BYTE), part("example_offsets", _INDEX)),
            _Strings(part("texts", _BYTE), part("text_offsets", _INDEX)))
        entries.check()
        return TechniqueCatalog(model=meta["model"], content_hash=meta["content_hash"],
                                entries=entries, vectors=part("matrix", _DTYPE).reshape(shape),
                                norms=part("norms", _DTYPE))
    except CatalogError:
        raise
    except (ValueError, KeyError, TypeError, struct.error) as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
