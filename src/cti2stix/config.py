"""Run configuration: one YAML file, strict keys, flat flag overrides.

A config file has up to five sections — ``provider``, ``pipeline``,
``attack_patterns``, ``eval``, ``paths`` — each mapping onto a dataclass.
Unknown sections or keys are errors, not warnings: a typo that silently used
a default once cost someone an afternoon.  Command-line overrides arrive as
dotted keys (``provider.context_window=8192``) and win over the file.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Optional, Union

import yaml

from .attack_patterns import AttackPatternConfig
from .entity_pipeline import EntityPipelineConfig
from .evaluation import EVAL_KINDS
from .llm import HttpProvider, ProviderConfig, ReplayProvider, ScriptedProvider, load_script

logger = logging.getLogger(__name__)

PROVIDER_KINDS = ("live", "replay", "scripted")


class ConfigError(ValueError):
    pass


@dataclass
class EvalConfig:
    kinds: tuple[str, ...] = EVAL_KINDS
    subset_rule: bool = True

    def __post_init__(self) -> None:
        unknown = [kind for kind in self.kinds if kind not in EVAL_KINDS]
        if unknown:
            raise ValueError(f"eval.kinds: unknown kind {unknown[0]!r}; "
                             f"choose from {', '.join(EVAL_KINDS)}")


@dataclass
class PathsConfig:
    catalog: Optional[str] = None
    script: Optional[str] = None
    plugins: Optional[str] = None


@dataclass
class AppConfig:
    provider_kind: str = "live"
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    pipeline: EntityPipelineConfig = field(default_factory=EntityPipelineConfig)
    attack_patterns: AttackPatternConfig = field(default_factory=AttackPatternConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)


_SECTION_TYPES = {
    "provider": ProviderConfig,
    "pipeline": EntityPipelineConfig,
    "attack_patterns": AttackPatternConfig,
    "eval": EvalConfig,
    "paths": PathsConfig,
}

def _coerce(section: str, name: str, current: Any, value: Any) -> Any:
    """*value* converted to the type of the field's *current* value; raises
    :class:`ConfigError` on a string that does not parse as that type."""
    if isinstance(current, tuple):
        if isinstance(value, (list, tuple)):
            return tuple(value)
        if isinstance(value, str):
            return tuple(v.strip() for v in value.split(",") if v.strip())
    if isinstance(current, bool) and isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "on", "yes", "1"):
            return True
        if lowered in ("false", "off", "no", "0"):
            return False
        raise ConfigError(f"{section}.{name}: expected a boolean, got {value!r}")
    if isinstance(current, (int, float)) and isinstance(value, str):
        number = type(current)
        try:
            return number(value)
        except ValueError:
            expected = "an integer" if number is int else "a number"
            raise ConfigError(f"{section}.{name}: expected {expected}, got {value!r}") from None
    return value


def _apply_section(obj: Any, section: str, data: Mapping[str, Any]) -> Any:
    known = {f.name for f in fields(obj)}
    updates: dict[str, Any] = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key: {section}.{key}")
        updates[key] = _coerce(section, key, getattr(obj, key), value)
    try:
        return dataclasses.replace(obj, **updates)
    except (TypeError, ValueError) as exc:  # a section's own checks
        raise ConfigError(str(exc)) from exc


def _apply_mapping(config: AppConfig, data: Mapping[str, Any]) -> AppConfig:
    for section, content in data.items():
        if section == "provider_kind":
            if content not in PROVIDER_KINDS:
                raise ConfigError(
                    f"provider_kind must be one of {', '.join(PROVIDER_KINDS)}; got {content!r}"
                )
            config.provider_kind = content
            continue
        if section not in _SECTION_TYPES:
            raise ConfigError(f"unknown config section: {section}")
        if not isinstance(content, Mapping):
            raise ConfigError(f"config section {section} must be a mapping")
        setattr(config, section, _apply_section(getattr(config, section), section, content))
    return config


def load_config(
    path: Union[str, Path, None] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> AppConfig:
    """Defaults, then the YAML file, then dotted-key overrides."""
    config = AppConfig()
    if path is not None:
        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
        if raw is None:
            raw = {}
        if not isinstance(raw, Mapping):
            raise ConfigError("config file must contain a mapping at the top level")
        config = _apply_mapping(config, raw)
    if overrides:
        nested: dict[str, Any] = {}
        for dotted, value in overrides.items():
            if dotted == "provider_kind":
                nested[dotted] = value
                continue
            if "." not in dotted:
                raise ConfigError(f"override must look like section.key=value: {dotted!r}")
            section, key = dotted.split(".", 1)
            nested.setdefault(section, {})[key] = value
        config = _apply_mapping(config, nested)
    return config


def make_provider(config: AppConfig) -> Any:
    """Build the provider the run will talk to.

    Scripted runs default the embedding model id to the hash embedder's so a
    shared catalog cache can never mix stub vectors with real ones.  A
    response cache or script that cannot be read raises :class:`ConfigError`.
    """
    kind = config.provider_kind
    if kind in ("live", "replay"):
        path = config.provider.cache_path
        if kind == "replay" and not path:
            raise ConfigError("replay provider needs provider.cache_path")
        try:  # the response cache loads here
            if kind == "live":
                return HttpProvider(config.provider)
            return ReplayProvider(path, config.provider)
        except ValueError as exc:  # JSON syntax errors included
            raise ConfigError(f"response cache {path}: {exc}") from exc
    if kind == "scripted":
        if not config.paths.script:
            raise ConfigError("scripted provider needs paths.script")
        provider_config = config.provider
        if provider_config.embedding_model == ProviderConfig.embedding_model:
            provider_config = dataclasses.replace(provider_config, embedding_model="hash-32")
        try:
            script = load_script(config.paths.script)
        except ValueError as exc:  # JSON syntax errors included
            raise ConfigError(f"script {config.paths.script}: {exc}") from exc
        return ScriptedProvider(script, config=provider_config)
    raise ConfigError(f"unknown provider kind: {kind!r}")


def dump_config(config: AppConfig) -> str:
    """Effective configuration as YAML, round-trippable through load_config."""
    data: dict[str, Any] = {"provider_kind": config.provider_kind}
    for section in _SECTION_TYPES:
        obj = getattr(config, section)
        content = {}
        for f in fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, tuple):
                value = list(value)
            content[f.name] = value
        data[section] = content
    return yaml.safe_dump(data, sort_keys=False, default_flow_style=False)
