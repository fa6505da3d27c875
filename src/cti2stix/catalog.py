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
disk (the matrix in an uncompressed ``.npz`` with a JSON metadata blob) keyed
by the content hash of the parsed catalog plus the embedding model id; a
stale or foreign-model cache is rebuilt, never trusted.  Compressed files
written by earlier versions still load.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Union

import numpy as np

logger = logging.getLogger(__name__)

TECHNIQUE_ID_RE = re.compile(r"\bT\d{4}(?:\.\d{3})?\b")
_MITRE_SOURCE = "mitre-attack"


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
    hash of the parsed export match.
    """
    techniques = parse_attack_export(source)
    content_hash = catalog_content_hash(techniques)
    model = provider.config.embedding_model if hasattr(provider, "config") else "stub"

    if cache_path is not None and Path(cache_path).exists():
        cached = load_catalog(cache_path)
        if cached.content_hash == content_hash and cached.model == model:
            logger.info("catalog cache hit (%d entries)", len(cached.entries))
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "model": catalog.model,
        "dim": catalog.dim,
        "content_hash": catalog.content_hash,
        "entries": [asdict(e) for e in catalog.entries],
    }
    # uncompressed: embeddings barely compress, and inflating them dominated loads
    with path.open("wb") as fh:
        np.savez(fh, meta=json.dumps(meta, ensure_ascii=False), vectors=catalog.vectors)


def load_catalog(path: Union[str, Path]) -> TechniqueCatalog:
    """Read a catalog written by :func:`save_catalog`, or a compressed one from
    earlier versions.

    Raises :class:`CatalogError` when the file is not a catalog, or when its
    matrix is not ``(len(entries), dim)`` as its metadata says.
    """
    try:
        # our own handle: np.load leaves the file it opened open when the zip is bad
        with Path(path).open("rb") as fh, np.load(fh, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            vectors = np.asarray(data["vectors"], dtype=np.float64)
        entries = [CatalogEntry(**item) for item in meta["entries"]]
        expected = (len(entries), meta["dim"])
    except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
    if vectors.shape != expected:
        raise CatalogError(
            f"catalog {path}: vectors have shape {vectors.shape}, its metadata says {expected}"
        )
    return TechniqueCatalog(model=meta["model"], content_hash=meta["content_hash"],
                            entries=entries, vectors=vectors)
