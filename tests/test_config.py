import ast
import dataclasses
import json
import re
from pathlib import Path

import pytest
import yaml

import cti2stix
from cti2stix.config import (
    _SECTION_TYPES,
    AppConfig,
    ConfigError,
    dump_config,
    load_config,
    make_provider,
)
from cti2stix.llm import HttpProvider, ReplayProvider, ScriptedProvider

# prompt shapes, the id namespace and the budget margin are module constants,
# and explicit technique ids are always unioned, so these keys are refused as
# unknown
FIXED_KEYS = (
    "attack_patterns.include_explicit",
    "provider.budget_margin",
    "pipeline.chunk_tokens",
    "pipeline.summary_output_tokens",
    "pipeline.answer_output_tokens",
    "pipeline.condense_iteration_cap",
    "pipeline.relation_prompt_slack",
    "pipeline.namespace_seed",
    "attack_patterns.chunk_tokens",
    "attack_patterns.strategy_output_tokens",
)


def write_yaml(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_defaults_without_file(self):
        config = load_config()
        assert config.provider_kind == "live"
        assert config.provider.context_window == 4096
        assert config.pipeline.preprocessing is True
        assert config.attack_patterns.threshold == 0.80
        assert config.eval.subset_rule is True

    def test_file_sections_applied(self, tmp_path):
        path = write_yaml(
            tmp_path,
            """
provider_kind: scripted
provider:
  context_window: 8192
  completion_model: test-model
pipeline:
  preprocessing: false
attack_patterns:
  strategies: [vte, ot]
  threshold: 0.9
eval:
  kinds: [malware]
paths:
  plugins: sources.yaml
""",
        )
        config = load_config(path)
        assert config.provider_kind == "scripted"
        assert config.provider.context_window == 8192
        assert config.provider.completion_model == "test-model"
        assert config.pipeline.preprocessing is False
        assert config.attack_patterns.strategies == ("vte", "ot")
        assert config.attack_patterns.threshold == 0.9
        assert config.eval.kinds == ("malware",)
        assert config.paths.plugins == "sources.yaml"

    def test_unknown_key_rejected(self, tmp_path):
        path = write_yaml(tmp_path, "provider:\n  contxt_window: 8192\n")
        with pytest.raises(ConfigError, match="provider.contxt_window"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_yaml(tmp_path, "providr:\n  context_window: 8192\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(path)

    def test_queries_not_settable_from_yaml(self, tmp_path):
        path = write_yaml(tmp_path, "pipeline:\n  queries: []\n")
        with pytest.raises(ConfigError, match="pipeline.queries"):
            load_config(path)

    @pytest.mark.parametrize("dotted", FIXED_KEYS)
    def test_fixed_keys_are_unknown(self, tmp_path, dotted):
        section, key = dotted.split(".")
        path = write_yaml(tmp_path, f"{section}:\n  {key}: 1\n")
        with pytest.raises(ConfigError, match=f"unknown config key: {dotted}"):
            load_config(path)
        with pytest.raises(ConfigError, match=f"unknown config key: {dotted}"):
            load_config(overrides={dotted: "1"})

    def test_empty_file_is_defaults(self, tmp_path):
        path = write_yaml(tmp_path, "")
        assert load_config(path) == AppConfig()

    def test_bad_provider_kind(self, tmp_path):
        path = write_yaml(tmp_path, "provider_kind: psychic\n")
        with pytest.raises(ConfigError, match="provider_kind"):
            load_config(path)


class TestOverrides:
    def test_override_beats_file(self, tmp_path):
        path = write_yaml(tmp_path, "provider:\n  context_window: 8192\n")
        config = load_config(path, overrides={"provider.context_window": "16384"})
        assert config.provider.context_window == 16384

    def test_string_coercion(self):
        config = load_config(
            overrides={
                "pipeline.preprocessing": "off",
                "attack_patterns.threshold": "0.85",
                "eval.subset_rule": "on",
            }
        )
        assert config.pipeline.preprocessing is False
        assert config.attack_patterns.threshold == 0.85
        assert config.eval.subset_rule is True

    def test_bad_boolean_string(self):
        with pytest.raises(ConfigError, match="expected a boolean"):
            load_config(overrides={"pipeline.preprocessing": "maybe"})

    @pytest.mark.parametrize("dotted,value,expected", [
        ("provider.context_window", "abc", "expected an integer, got 'abc'"),
        ("provider.context_window", "8192.5", "expected an integer"),
        ("provider.retry_backoff", "soon", "expected a number, got 'soon'"),
        ("attack_patterns.threshold", "high", "expected a number"),
    ])
    def test_unparseable_number_string(self, dotted, value, expected):
        with pytest.raises(ConfigError, match=f"{dotted}: {expected}"):
            load_config(overrides={dotted: value})

    @pytest.mark.parametrize("key,value", [
        ("context_window", "0"),
        ("max_concurrent", "0"),
        ("max_concurrent", "-1"),
        ("retry_attempts", "0"),
        ("embed_batch_size", "0"),
        ("timeout", "0"),
        ("timeout", "nan"),
        ("retry_backoff", "-0.5"),
    ])
    def test_provider_numbers_out_of_range(self, key, value):
        with pytest.raises(ConfigError, match=f"provider.{key} must"):
            load_config(overrides={f"provider.{key}": value})

    def test_provider_numbers_at_their_limits(self):
        config = load_config(overrides={
            "provider.max_concurrent": "1", "provider.retry_attempts": "1",
            "provider.embed_batch_size": "1", "provider.context_window": "1",
            "provider.timeout": "0.001", "provider.retry_backoff": "0",
        })
        assert config.provider.max_concurrent == 1
        assert config.provider.retry_backoff == 0

    def test_override_needs_dot(self):
        with pytest.raises(ConfigError, match="section.key"):
            load_config(overrides={"context_window": 8192})

    def test_comma_list_override(self):
        config = load_config(overrides={"attack_patterns.strategies": "vte, ot"})
        assert config.attack_patterns.strategies == ("vte", "ot")


class TestMakeProvider:
    def test_live(self):
        provider = make_provider(load_config())
        assert isinstance(provider, HttpProvider)

    def test_replay_needs_cache_path(self):
        config = load_config(overrides={"provider_kind": "replay"})
        with pytest.raises(ConfigError, match="cache_path"):
            make_provider(config)

    def test_replay(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text("", encoding="utf-8")
        config = load_config(
            overrides={
                "provider_kind": "replay",
                "provider.cache_path": str(cache),
            }
        )
        assert isinstance(make_provider(config), ReplayProvider)

    def test_scripted_needs_script(self):
        config = load_config(overrides={"provider_kind": "scripted"})
        with pytest.raises(ConfigError, match="paths.script"):
            make_provider(config)

    def test_scripted_gets_hash_model_id(self, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{"match": "x", "response": "y"}]), encoding="utf-8")
        config = load_config(
            overrides={"provider_kind": "scripted", "paths.script": str(script)}
        )
        provider = make_provider(config)
        assert isinstance(provider, ScriptedProvider)
        assert provider.config.embedding_model == "hash-32"

    def test_scripted_keeps_explicit_model_id(self, tmp_path):
        script = tmp_path / "script.json"
        script.write_text("[]", encoding="utf-8")
        config = load_config(
            overrides={
                "provider_kind": "scripted",
                "paths.script": str(script),
                "provider.embedding_model": "custom-embedder",
            }
        )
        assert make_provider(config).config.embedding_model == "custom-embedder"


class TestDump:
    def test_round_trip(self, tmp_path):
        original = load_config(
            overrides={
                "provider.context_window": "8192",
                "attack_patterns.strategies": "vte",
            }
        )
        # strategies override via string becomes a 1-tuple through YAML round trip
        text = dump_config(original)
        path = tmp_path / "dumped.yaml"
        path.write_text(text, encoding="utf-8")
        reloaded = load_config(path)
        assert reloaded.provider.context_window == 8192

    def test_dump_contains_every_section(self):
        text = dump_config(AppConfig())
        for section in ("provider:", "pipeline:", "attack_patterns:", "eval:", "paths:"):
            assert section in text
        assert "queries" not in text

    def test_dump_holds_every_key(self):
        keys = dotted_keys(yaml.safe_load(dump_config(AppConfig())))
        assert len(keys) == 20
        assert not set(FIXED_KEYS) & set(keys)

    def test_readme_shows_the_default_config(self):
        """README's default-config block, comments and all, loads as the
        dump of the defaults, and has as many keys as the sentence above it
        says."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        found = re.search(r"printed by `config show`, has (\d+) keys:\n\n```yaml\n(.*?)```",
                          readme, re.DOTALL)
        assert found, "README has no default-config block"
        stated, block = int(found.group(1)), yaml.safe_load(found.group(2))
        assert block == yaml.safe_load(dump_config(AppConfig()))
        assert len(dotted_keys(block)) == stated


def dotted_keys(data: dict) -> list[str]:
    """``section.key`` for each key of a dumped config, and the bare name of
    each top-level scalar."""
    return [f"{section}.{key}" if isinstance(content, dict) else section
            for section, content in data.items()
            for key in (content if isinstance(content, dict) else [None])]


def _attributes_read_in_src() -> set[str]:
    names: set[str] = set()
    for path in Path(cti2stix.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_config_key_is_read():
    """A settable key that no code reads is a setting that does nothing."""
    read = _attributes_read_in_src()
    unread = [f"{section}.{f.name}" for section, cls in _SECTION_TYPES.items()
              for f in dataclasses.fields(cls) if f.name not in read]
    assert unread == []
