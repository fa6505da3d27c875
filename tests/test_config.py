import json

import pytest

from cti2stix.config import (
    AppConfig,
    ConfigError,
    dump_config,
    load_config,
    make_provider,
)
from cti2stix.llm import HttpProvider, ReplayProvider, ScriptedProvider


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
  chunk_tokens: 256
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
        assert config.pipeline.chunk_tokens == 256
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
