"""cti2stix: turn prose threat-intelligence reports into STIX 2.1 bundles.

The package is organized around two LLM pipelines — one for named entities and
their relations, one for MITRE ATT&CK technique mentions — plus the plumbing
around them: report ingestion, an LLM provider layer with token budgeting, a
technique catalog with embedding classification, an exporter that assembles
validated bundles, and an evaluation harness that scores extractions against
analyst ground truth.
"""

__version__ = "0.1.0"

from .stix import (  # noqa: F401
    ADMISSIBLE_TRIPLES,
    EntityKind,
    RelationKind,
    StixBundle,
    StixEntity,
    StixRelation,
    admissible_relations,
    is_admissible,
    load_bundle,
    normalize_name,
    save_bundle,
    validate_bundle,
)

from .attack_patterns import run_attack_pattern_pipeline  # noqa: F401
from .audit import AuditTrail  # noqa: F401
from .catalog import build_catalog, load_catalog, save_catalog  # noqa: F401
from .config import AppConfig, load_config, make_provider  # noqa: F401
from .entity_pipeline import run_entity_pipeline  # noqa: F401
from .exporter import assemble_and_validate, assemble_bundle  # noqa: F401
from .ingest import make_report, report_from_path, report_from_url  # noqa: F401
