import ast
import base64
import dataclasses
import json
import logging
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from cti2stix.catalog import CatalogError, load_catalog, parse_attack_export
from cti2stix.cli import main
from cti2stix.stix import EntityKind, load_bundle

from conftest import (
    GOLDEN_SCRIPT,
    HELLOXD_TEXT,
    MITRE_SAMPLE,
    SBSA_RESPONSE,
    VTE_CANDIDATE,
    cosine,
    write_legacy_catalog,
    write_unchecked_catalog,
)


def write_script(path, rules):
    path.write_text(json.dumps([{"match": m, "response": r} for m, r in rules]),
                    encoding="utf-8")
    return path


@pytest.fixture
def script_path(tmp_path):
    return write_script(tmp_path / "golden-script.json", GOLDEN_SCRIPT)


@pytest.fixture
def catalog_path(tmp_path, mini_catalog):
    from cti2stix.catalog import save_catalog

    path = tmp_path / "catalog.npz"
    save_catalog(mini_catalog, path)
    return path


@pytest.fixture
def report_path(tmp_path):
    path = tmp_path / "helloxd-2022.txt"
    path.write_text(HELLOXD_TEXT, encoding="utf-8")
    return path


def audit_warnings(path):
    """The decisions in an audit file that carry a warning, in order, less
    ``report`` and ``event``."""
    events = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return [{k: v for k, v in e.items() if k not in ("report", "event")}
            for e in events if e["event"] == "decision" and e.get("warning")]


@pytest.fixture
def no_model_calls(monkeypatch):
    import cti2stix.llm as llm

    def refuse(*args, **kwargs):
        raise AssertionError("the model must not be asked")

    monkeypatch.setattr(llm.ScriptedProvider, "_post", refuse)


def run_extract(tmp_path, script_path, catalog_path, inputs, *extra):
    out_dir = tmp_path / "out"
    argv = [
        "extract", *[str(i) for i in inputs],
        "--out-dir", str(out_dir),
        "--provider", "scripted",
        "--script", str(script_path),
        "--catalog", str(catalog_path),
        *extra,
    ]
    return main(argv), out_dir


class TestExtract:
    def test_golden_run(self, tmp_path, script_path, catalog_path, report_path):
        code, out_dir = run_extract(tmp_path, script_path, catalog_path, [report_path])
        assert code == 0

        bundle = load_bundle(out_dir / "helloxd-2022.bundle.json")
        by_kind = {
            kind: [e.name for e in bundle.entities_of_kind(kind)]
            for kind in (EntityKind.MALWARE, EntityKind.THREAT_ACTOR,
                         EntityKind.IDENTITY, EntityKind.ATTACK_PATTERN)
        }
        assert by_kind[EntityKind.MALWARE] == ["HelloXD"]
        assert by_kind[EntityKind.THREAT_ACTOR] == ["x4k"]
        assert by_kind[EntityKind.IDENTITY] == ["Windows and Linux systems"]
        assert by_kind[EntityKind.ATTACK_PATTERN] == ["Encrypted Channel"]

        audit = (out_dir / "helloxd-2022.audit.jsonl").read_text(encoding="utf-8")
        assert audit.strip()
        for line in audit.strip().splitlines():
            json.loads(line)

        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert summary["failed"] == {}
        record = summary["reports"][str(report_path)]
        assert record["techniques"] == ["T1573"]
        assert record["violations"] == []

    def test_audit_file_numbers_its_events_once(self, tmp_path, script_path, catalog_path,
                                                report_path):
        code, out_dir = run_extract(tmp_path, script_path, catalog_path, [report_path])
        assert code == 0
        lines = (out_dir / "helloxd-2022.audit.jsonl").read_text(encoding="utf-8").splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["seq"] for e in events] == list(range(len(events)))
        stages = [e["stage"] for e in events]
        assert "attack-pattern" in stages and "extract" in stages
        # the technique stage first, as its calls are made
        assert max(i for i, stage in enumerate(stages) if stage == "attack-pattern") < min(
            i for i, stage in enumerate(stages) if stage != "attack-pattern")

    def test_summary_warnings_are_the_audit_warning_decisions(self, tmp_path, catalog_path,
                                                             report_path):
        # an empty report, an unverified name, an unparseable relation answer
        # and a non-verbatim vte quote, in one batch
        empty = tmp_path / "empty.txt"
        empty.write_text("  \n", encoding="utf-8")
        invented = "The malware encrypts absolutely everything it can reach."
        script = write_script(tmp_path / "warnings.json", [
            ("Question: Who/which is the malware", "HelloXD\nSpectralKit"),
            ('Is "SpectralKit" mentioned', "no"),
            *GOLDEN_SCRIPT[1:3],
            ('relation between "x4k" and "HelloXD"', "they are old friends"),
            ("Return any relevant text verbatim", f"{VTE_CANDIDATE}\n\n{invented}"),
            ("Describe step by step the key facts", SBSA_RESPONSE),
        ])
        code, out_dir = run_extract(tmp_path, script, catalog_path, [report_path, empty])
        assert code == 0

        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert summary["failed"] == {}
        warnings = {}
        for record in summary["reports"].values():
            rid = record["report_id"]
            assert record["warnings"] == audit_warnings(out_dir / f"{rid}.audit.jsonl")
            warnings[rid] = record["warnings"]

        assert [(w["stage"], w["outcome"]) for w in warnings["empty"]] == [("ingest", "empty")]
        empty_audit = (out_dir / "empty.audit.jsonl").read_text(encoding="utf-8")
        assert '"event": "prompt"' not in empty_audit  # a blank report asks nothing
        quote, unverified, relation = warnings["helloxd-2022"]
        assert (unverified["stage"], unverified["name"]) == ("verify", "SpectralKit")
        assert (relation["stage"], relation["source"], relation["target"]) == (
            "relations", "x4k", "HelloXD")
        assert relation["warning"].startswith("unparseable relation answer")
        assert (quote["stage"], quote["rule"], quote["text"]) == (
            "attack-pattern", "non-verbatim", invented)

    def test_failure_is_partial_not_fatal(self, tmp_path, script_path, catalog_path,
                                          report_path):
        missing = tmp_path / "nope.txt"
        code, out_dir = run_extract(
            tmp_path, script_path, catalog_path, [report_path, missing]
        )
        assert code == 1
        assert (out_dir / "helloxd-2022.bundle.json").exists()
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert str(missing) in summary["failed"]

    @pytest.mark.parametrize("failure", ["write", "rename"])
    def test_failed_write_keeps_the_previous_bundle(self, tmp_path, script_path, catalog_path,
                                                    report_path, monkeypatch, failure):
        import os

        import cti2stix.cli as cli

        code, out_dir = run_extract(tmp_path, script_path, catalog_path, [report_path])
        assert code == 0
        bundle = out_dir / "helloxd-2022.bundle.json"
        previous = bundle.read_bytes()
        if failure == "write":
            # a lone surrogate cannot be encoded: the write fails once its
            # file is open
            real_save = cli.save_bundle
            monkeypatch.setattr(cli, "save_bundle", lambda b: real_save(b) + "\ud800")
        else:
            real_replace = os.replace

            def replace(src, dst):
                if str(dst).endswith(".bundle.json"):
                    raise OSError(28, "No space left on device")
                return real_replace(src, dst)

            monkeypatch.setattr(os, "replace", replace)
        code, _ = run_extract(tmp_path, script_path, catalog_path, [report_path])
        assert code == 1
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert list(summary["failed"]) == [str(report_path)] and summary["ok"] == []
        assert bundle.read_bytes() == previous
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "helloxd-2022.audit.jsonl", "helloxd-2022.bundle.json", "summary.json"]

    def test_without_catalog_skips_techniques(self, tmp_path, script_path, report_path):
        out_dir = tmp_path / "out"
        code = main([
            "extract", str(report_path),
            "--out-dir", str(out_dir),
            "--provider", "scripted",
            "--script", str(script_path),
        ])
        assert code == 0
        bundle = load_bundle(out_dir / "helloxd-2022.bundle.json")
        assert bundle.entities_of_kind(EntityKind.ATTACK_PATTERN) == []

    def test_parallel_jobs(self, tmp_path, script_path, catalog_path):
        a = tmp_path / "report-a.txt"
        b = tmp_path / "report-b.txt"
        a.write_text(HELLOXD_TEXT, encoding="utf-8")
        b.write_text(HELLOXD_TEXT, encoding="utf-8")
        code, out_dir = run_extract(
            tmp_path, script_path, catalog_path, [a, b], "--jobs", "2"
        )
        assert code == 0
        assert (out_dir / "report-a.bundle.json").exists()
        assert (out_dir / "report-b.bundle.json").exists()

    def test_deeply_nested_html_does_not_sink_parallel_batch(
        self, tmp_path, script_path, catalog_path, report_path
    ):
        deep = tmp_path / "deep.html"
        deep.write_text(
            "<html><body>" + "<div>" * 5000 + f"<p>{HELLOXD_TEXT}</p>"
            + "</div>" * 5000 + "</body></html>",
            encoding="utf-8",
        )
        code, out_dir = run_extract(
            tmp_path, script_path, catalog_path, [deep, report_path], "--jobs", "2"
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert summary["failed"] == {}
        assert (out_dir / "deep.bundle.json").exists()
        assert (out_dir / "helloxd-2022.bundle.json").exists()

    def test_unexpected_exception_fails_one_report(self, tmp_path, script_path, catalog_path,
                                                   monkeypatch):
        import cti2stix.cli as cli

        a = tmp_path / "report-a.txt"
        b = tmp_path / "report-b.txt"
        a.write_text(HELLOXD_TEXT, encoding="utf-8")
        b.write_text(HELLOXD_TEXT, encoding="utf-8")
        real = cli.run_entity_pipeline

        def flaky(report, *args, **kwargs):
            if report.id == "report-a":
                raise KeyError("boom")
            return real(report, *args, **kwargs)

        monkeypatch.setattr(cli, "run_entity_pipeline", flaky)
        code, out_dir = run_extract(
            tmp_path, script_path, catalog_path, [a, b], "--jobs", "2"
        )
        assert code == 1
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert summary["ok"] == [str(b)]
        assert summary["failed"] == {str(a): "KeyError: 'boom'"}

    def test_lone_surrogate_in_an_answer_does_not_fail_the_report(self, tmp_path):
        report = tmp_path / "r.txt"
        report.write_text("HelloXD encrypts files.", encoding="utf-8")
        script = tmp_path / "script.json"
        script.write_text(json.dumps([  # json.dumps escapes the surrogate as \ud800
            {"match": "Question: Who/which is the malware", "response": "HelloXD\ud800"},
            {"match": "Question: Who/which is", "response": "none"},
            {"match": "mentioned in the text above", "response": "yes"},
        ]), encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main(["extract", str(report), "--out-dir", str(out_dir),
                     "--provider", "scripted", "--script", str(script)])
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert (code, summary["failed"]) == (0, {})
        bundle = load_bundle(out_dir / "r.bundle.json")
        assert [e.name for e in bundle.entities_of_kind(EntityKind.MALWARE)] == ["HelloXD\ufffd"]

    def test_report_id_collision_fails(self, tmp_path, script_path, catalog_path):
        first = tmp_path / "a" / "r.txt"
        second = tmp_path / "b" / "r.txt"
        for path in (first, second):
            path.parent.mkdir()
            path.write_text(HELLOXD_TEXT, encoding="utf-8")
        code, out_dir = run_extract(
            tmp_path, script_path, catalog_path, [first, second, first]
        )
        assert code == 1
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert summary["ok"] == [str(first)]
        assert summary["failed"] == {str(second): f"report id collision with {first}"}
        assert sorted(p.name for p in out_dir.glob("*.bundle.json")) == ["r.bundle.json"]

    def test_repeat_runs_are_byte_identical(self, tmp_path, script_path, catalog_path,
                                            report_path):
        _, first_dir = run_extract(tmp_path / "1", script_path, catalog_path,
                                   [report_path])
        _, second_dir = run_extract(tmp_path / "2", script_path, catalog_path,
                                    [report_path])
        first = (first_dir / "helloxd-2022.bundle.json").read_bytes()
        second = (second_dir / "helloxd-2022.bundle.json").read_bytes()
        assert first == second

    def test_missing_catalog_file_is_usage_error(self, tmp_path, script_path,
                                                 report_path):
        code = main([
            "extract", str(report_path),
            "--out-dir", str(tmp_path / "out"),
            "--provider", "scripted",
            "--script", str(script_path),
            "--catalog", str(tmp_path / "ghost.npz"),
        ])
        assert code == 2

    def test_replay_without_cache_is_usage_error(self, tmp_path, report_path):
        code = main([
            "extract", str(report_path),
            "--out-dir", str(tmp_path / "out"),
            "--provider", "replay",
        ])
        assert code == 2

    def test_strategy_flag_limits_prompts(self, tmp_path, script_path, catalog_path,
                                          report_path):
        code, out_dir = run_extract(
            tmp_path, script_path, catalog_path, [report_path], "--strategies", "vte"
        )
        assert code == 0
        audit = (out_dir / "helloxd-2022.audit.jsonl").read_text(encoding="utf-8")
        assert "Return any relevant text verbatim" in audit
        assert "Describe step by step the key facts" not in audit

    @pytest.mark.parametrize("strategies, message", [
        ("vte,bogus", "unknown strategy 'bogus'"),
        ("vte,sbsa,vte", "'vte' is named twice"),
    ])
    def test_bad_strategy_list_is_usage_error(self, tmp_path, script_path, catalog_path,
                                              report_path, no_model_calls, capsys,
                                              strategies, message):
        code, out_dir = run_extract(tmp_path, script_path, catalog_path, [report_path],
                                    "--strategies", strategies)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: attack_patterns.strategies: ") and message in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_bad_set_flag_is_usage_error(self, tmp_path, script_path, report_path):
        code = main([
            "extract", str(report_path),
            "--out-dir", str(tmp_path / "out"),
            "--provider", "scripted",
            "--script", str(script_path),
            "--set", "nonsense",
        ])
        assert code == 2


class TestCatalogOverlap:
    """``extract`` loads the catalog on the main thread while the first
    reports run; only the scoring thread waits for it."""

    @pytest.fixture
    def spy(self, monkeypatch):
        """Records each prompt the run's provider answers, and makes
        ``load_catalog`` start only once the first prompt is answered (or 10 s
        have passed), recording which."""
        import cti2stix.cli as cli

        spy = SimpleNamespace(answered=threading.Event(), prompts=[], load_waited=[])
        real_make_provider, real_load = cli.make_provider, cli.load_catalog

        def make_provider(config):
            provider = real_make_provider(config)
            real_complete = provider.complete

            def complete(request):
                answer = real_complete(request)
                spy.prompts.append(request.prompt)
                spy.answered.set()
                return answer

            provider.complete = complete
            return provider

        def load_catalog(path):
            spy.load_waited.append(spy.answered.wait(timeout=10))
            return real_load(path)

        monkeypatch.setattr(cli, "make_provider", make_provider)
        monkeypatch.setattr(cli, "load_catalog", load_catalog)
        return spy

    @staticmethod
    def three_reports(tmp_path):
        paths = [tmp_path / f"report-{n}.txt" for n in "abc"]
        for path in paths:
            path.write_text(HELLOXD_TEXT, encoding="utf-8")
        return paths

    def test_catalog_loads_while_first_report_runs(self, tmp_path, script_path, catalog_path,
                                                   report_path, spy):
        code, out_dir = run_extract(tmp_path, script_path, catalog_path, [report_path])
        assert spy.load_waited == [True]  # a report asked the model before the load began
        assert code == 0
        bundle = load_bundle(out_dir / "helloxd-2022.bundle.json")
        assert bundle.entities_of_kind(EntityKind.ATTACK_PATTERN)

    def test_jobs_one_and_two_write_identical_files(self, tmp_path, script_path,
                                                    catalog_path):
        inputs = self.three_reports(tmp_path)
        outputs = []
        for jobs in ("1", "2"):
            code, out_dir = run_extract(tmp_path / jobs, script_path, catalog_path, inputs,
                                        "--jobs", jobs)
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert len(outputs[0]) == 7  # a bundle and an audit file per report, one summary
        assert outputs[0] == outputs[1]

    def test_failed_load_stops_the_batch(self, tmp_path, script_path, catalog_path,
                                         mini_catalog, report_path, spy, capsys, caplog):
        run_extract(tmp_path / "one", script_path, catalog_path, [report_path])
        one_report = list(spy.prompts)
        spy.prompts.clear()

        bad = tmp_path / "flipped.npz"
        raw = bytearray(catalog_path.read_bytes())
        raw[raw.find(mini_catalog.vectors.tobytes()) + 3] ^= 0x10
        bad.write_bytes(bytes(raw))
        capsys.readouterr()

        code, out_dir = run_extract(tmp_path, script_path, bad, self.three_reports(tmp_path),
                                    "--jobs", "1")
        err = capsys.readouterr().err
        assert code == 2
        assert "error: catalog" in err and "fails its CRC-32 check" in err
        assert "Traceback" not in err
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
        assert list(out_dir.iterdir()) == []  # no bundle, audit or summary file
        # the first report's prompts only, in order: once the load has failed
        # it asks no entity prompt, so it may stop short of them
        assert spy.prompts and spy.prompts == one_report[:len(spy.prompts)]


# golden_transport embeds with the hash embedder: a live provider that uses
# it names the model the catalog fixture was built with
HASH_EMBEDDINGS = ("--set", "provider.embedding_model=hash-32")


def golden_transport(calls):
    """An endpoint that answers completions from GOLDEN_SCRIPT and embeds with
    the hash embedder, counting each request in ``calls["n"]``."""
    from cti2stix.llm import HashEmbedder

    embedder = HashEmbedder()

    def transport(url, payload, headers, timeout):
        calls["n"] += 1
        if url.endswith("/chat/completions"):
            prompt = payload["messages"][0]["content"]
            for needle, response in GOLDEN_SCRIPT:
                if needle in prompt:
                    return 200, {"choices": [{"message": {"content": response}}]}
            return 200, {"choices": [{"message": {"content": "none"}}]}
        assert url.endswith("/embeddings")
        data = [{"index": i, "embedding": [float(x) for x in embedder.embed_one(t)]}
                for i, t in enumerate(payload["input"])]
        return 200, {"data": data}

    return transport


class TestReplay:
    def test_replay_performs_zero_network_calls(self, tmp_path, monkeypatch,
                                                catalog_path, report_path):
        """A cached live run replays byte-for-byte without touching the network."""
        import cti2stix.config as config_mod
        from cti2stix.llm import HttpProvider

        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        calls = {"n": 0}
        monkeypatch.setattr(
            config_mod, "HttpProvider",
            lambda cfg: HttpProvider(cfg, transport=golden_transport(calls)),
        )
        cache = tmp_path / "cache.jsonl"
        live_dir = tmp_path / "live"
        code = main([
            "extract", str(report_path),
            "--out-dir", str(live_dir),
            "--provider", "live",
            "--catalog", str(catalog_path),
            "--set", f"provider.cache_path={cache}",
            *HASH_EMBEDDINGS,
        ])
        assert code == 0
        assert calls["n"] > 0
        live_bundle = (live_dir / "helloxd-2022.bundle.json").read_bytes()

        # replay leg: constructing an HTTP provider at all would be a bug
        calls["n"] = 0

        def no_http(cfg):
            raise AssertionError("HttpProvider constructed during replay")

        monkeypatch.setattr(config_mod, "HttpProvider", no_http)
        replay_dir = tmp_path / "replay"
        code = main([
            "extract", str(report_path),
            "--out-dir", str(replay_dir),
            "--provider", "replay",
            "--replay-cache", str(cache),
            "--catalog", str(catalog_path),
            *HASH_EMBEDDINGS,
        ])
        assert code == 0
        assert calls["n"] == 0
        replay_bundle = (replay_dir / "helloxd-2022.bundle.json").read_bytes()
        assert replay_bundle == live_bundle


def write_report(path, size, text=HELLOXD_TEXT):
    """*text* cut or padded with filler sentences to exactly *size* bytes."""
    filler = " Nothing further is known about the campaign."
    body = text + filler * (size // len(filler) + 1)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(body[:size], encoding="ascii")
    return path


class TestDispatchOrder:
    """``extract`` starts the largest size class (the bit length of a file's
    size) first; a URL or a path it cannot stat goes before every class, and
    inputs of one class keep their input order."""

    @pytest.fixture
    def spy(self, monkeypatch):
        """Records each source ``_extract_one`` starts, in order, and keeps the
        one each worker thread runs in ``spy.current.source``; URLs fetch
        HELLOXD_TEXT."""
        import cti2stix.cli as cli
        from cti2stix.ingest import make_report

        spy = SimpleNamespace(started=[], current=threading.local())
        real = cli._extract_one

        def extract_one(source, *args):
            spy.started.append(source)
            spy.current.source = source
            return real(source, *args)

        monkeypatch.setattr(cli, "_extract_one", extract_one)
        monkeypatch.setattr(cli, "report_from_url",
                            lambda url, plugins=(): make_report(HELLOXD_TEXT, report_id="fetched"))
        return spy

    def test_unknown_sizes_then_largest_class_first(self, tmp_path, script_path, catalog_path,
                                                    spy):
        small = write_report(tmp_path / "small.txt", 700)    # class 10
        mid_1 = write_report(tmp_path / "mid-1.txt", 1100)   # class 11
        mid_2 = write_report(tmp_path / "mid-2.txt", 1900)   # class 11, larger but later
        large = write_report(tmp_path / "large.txt", 5000)   # class 13
        url = "https://reports.example/helloxd"
        missing = tmp_path / "missing.txt"
        code, out_dir = run_extract(tmp_path, script_path, catalog_path,
                                    [small, missing, mid_1, url, large, mid_2], "--jobs", "1")
        assert spy.started == [str(p) for p in (missing, url, large, mid_1, mid_2, small)]
        assert code == 1
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert summary["failed"] == {
            str(missing): f"FileNotFoundError: no such report file: {missing}"}
        assert summary["ok"] == sorted(str(p) for p in (small, mid_1, url, large, mid_2))

    def test_stem_stays_with_the_earlier_input_when_the_later_is_larger(
            self, tmp_path, script_path, catalog_path, spy):
        earlier = write_report(tmp_path / "a" / "r.txt", 700)
        later = write_report(tmp_path / "b" / "r.txt", 5000)
        code, out_dir = run_extract(tmp_path, script_path, catalog_path, [earlier, later])
        assert code == 1
        assert spy.started == [str(earlier)]
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert summary["ok"] == [str(earlier)]
        assert summary["failed"] == {str(later): f"report id collision with {earlier}"}

    def test_later_duplicate_is_answered_from_the_response_cache(self, tmp_path, monkeypatch,
                                                                 spy):
        import cti2stix.llm as llm

        # the duplicates share class 10 with a larger report; a plain size sort
        # would start them back to back, the second while the first still runs
        first = write_report(tmp_path / "dup-1.txt", 700)
        same_class = write_report(tmp_path / "same-class.txt", 1000)
        larger = write_report(tmp_path / "larger.txt", 1300)   # class 11
        smaller = write_report(tmp_path / "smaller.txt", 400)  # class 9
        last = tmp_path / "dup-2.txt"
        last.write_bytes(first.read_bytes())
        inputs = [first, same_class, larger, smaller, last]
        sizes = {str(p): p.stat().st_size for p in inputs}

        calls = {str(p): 0 for p in inputs}
        golden = golden_transport({"n": 0})

        def transport(url, payload, headers, timeout):
            source = spy.current.source
            calls[source] += 1
            time.sleep(sizes[source] * 5e-5)  # model time grows with the report
            return golden(url, payload, headers, timeout)

        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        monkeypatch.setattr(llm, "_requests_transport", transport)
        code = main(["extract", *map(str, inputs), "--out-dir", str(tmp_path / "out"),
                     "--jobs", "2", "--set", f"provider.cache_path={tmp_path / 'cache.jsonl'}"])
        assert code == 0
        assert spy.started == [str(p) for p in (larger, first, same_class, last, smaller)]
        assert calls[str(first)] > 0
        assert calls[str(last)] == 0

    def test_outputs_do_not_depend_on_input_order_or_jobs(self, tmp_path, script_path,
                                                          catalog_path):
        inputs = [write_report(tmp_path / "small.txt", 700),
                  write_report(tmp_path / "mid-1.txt", 1100),
                  tmp_path / "missing.txt",
                  write_report(tmp_path / "large.txt", 5000),
                  write_report(tmp_path / "mid-2.txt", 1900)]
        outputs = []
        for jobs in ("1", "2"):
            for order, sources in (("forward", inputs), ("reverse", inputs[::-1])):
                code, out_dir = run_extract(tmp_path / jobs / order, script_path, catalog_path,
                                            sources, "--jobs", jobs)
                assert code == 1  # the missing path
                outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert len(outputs[0]) == 9  # a bundle and an audit file per report, one summary
        assert all(output == outputs[0] for output in outputs)


class TestUrlCollision:
    """Two URLs whose pages give one text share a content-hash report id: the
    first to load claims it, and the other fails before any model call."""

    @pytest.fixture
    def pages(self, monkeypatch):
        """Serves ``pages[url]`` as plain text from a stubbed ``ingest.fetch``."""
        import cti2stix.ingest as ingest

        pages = {}
        monkeypatch.setattr(ingest, "fetch", lambda url: ingest.FetchResult(
            final_url=url, content_type="text/plain", text=pages[url]))
        return pages

    @staticmethod
    def extract(tmp_path, monkeypatch, name, urls, *extra):
        """Runs ``extract`` over *urls* against a counting live endpoint;
        (exit code, output dir, requests made)."""
        import cti2stix.llm as llm

        calls = {"n": 0}
        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        monkeypatch.setattr(llm, "_requests_transport", golden_transport(calls))
        out_dir = tmp_path / name
        return main(["extract", *urls, "--out-dir", str(out_dir), *extra]), out_dir, calls["n"]

    def test_second_url_with_one_text_fails_without_asking_the_model(self, tmp_path,
                                                                     monkeypatch, pages):
        first, second = "https://a.example/post", "https://a.example/post/"
        pages.update({first: HELLOXD_TEXT, second: HELLOXD_TEXT})
        code, _, alone = self.extract(tmp_path, monkeypatch, "alone", [first])
        assert code == 0 and alone > 0
        code, out_dir, calls = self.extract(tmp_path, monkeypatch, "both", [first, second])
        assert code == 1
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert summary["ok"] == [first]
        assert summary["failed"] == {second: f"report id collision with {first}"}
        assert len(list(out_dir.glob("*.bundle.json"))) == 1
        assert calls == alone

    def test_one_claim_per_id_under_many_workers(self, tmp_path, monkeypatch, pages):
        import sys

        texts = [HELLOXD_TEXT, HELLOXD_TEXT + " The group was last seen in 2023."]
        urls = [f"https://mirror-{i}.example/post" for i in range(8)]
        pages.update({url: texts[i % 2] for i, url in enumerate(urls)})
        _, _, alone = self.extract(tmp_path, monkeypatch, "alone", urls[:2])
        result = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: result.update(zip(
                ("code", "out_dir", "calls"),
                self.extract(tmp_path, monkeypatch, "all", urls, "--jobs", "8"))))
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert result["code"] == 1
        summary = json.loads((result["out_dir"] / "summary.json").read_text(encoding="utf-8"))
        assert len(summary["ok"]) == 2
        assert sorted(pages[url] for url in summary["ok"]) == sorted(texts)
        owner = {pages[url]: url for url in summary["ok"]}
        assert summary["failed"] == {url: f"report id collision with {owner[pages[url]]}"
                                     for url in urls if url not in summary["ok"]}
        assert len(list(result["out_dir"].glob("*.bundle.json"))) == 2
        assert result["calls"] == alone


class TestOutputPathCheck:
    """An output path that is, or lies under, a file is a usage error, found
    before any fetch, model call or bundle load, and nothing is made."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts the requests a live provider makes."""
        import cti2stix.llm as llm

        calls = {"n": 0}
        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        monkeypatch.setattr(llm, "_requests_transport", golden_transport(calls))
        return calls

    @pytest.fixture
    def blocker(self, tmp_path):
        path = tmp_path / "blocker"
        path.write_text("a file\n", encoding="utf-8")
        return path

    def assert_refused(self, code, capsys, blocker):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out") and err.count("\n") == 1
        assert err.endswith(f": {blocker} is not a directory\n")
        assert blocker.read_text(encoding="utf-8") == "a file\n"

    def test_extract(self, tmp_path, report_path, calls, blocker, capsys):
        code = main(["extract", str(report_path), "--out-dir", str(blocker)])
        self.assert_refused(code, capsys, blocker)
        assert calls["n"] == 0

    def test_eval(self, tmp_path, monkeypatch, blocker, capsys):
        import cti2stix.cli as cli
        from cti2stix.stix import new_bundle, save_bundle

        extracted = tmp_path / "extracted"
        extracted.mkdir()
        (extracted / "r1.bundle.json").write_text(save_bundle(new_bundle("r1")),
                                                  encoding="utf-8")
        write_ground_truth(tmp_path / "gt", "r1", "Plain prose.")
        loads, real_load = [], cli.load_bundle

        def load_bundle(path):
            loads.append(path)
            return real_load(path)

        monkeypatch.setattr(cli, "load_bundle", load_bundle)
        code = main(["eval", "--extracted", str(extracted), "--gt", str(tmp_path / "gt"),
                     "--out-dir", str(blocker / "scores")])
        self.assert_refused(code, capsys, blocker)
        assert loads == []

    def test_calibrate(self, tmp_path, catalog_path, calls, blocker, capsys):
        write_ground_truth(tmp_path / "gt", "helloxd-2022", HELLOXD_TEXT)
        code = main(["calibrate", "--gt", str(tmp_path / "gt"), "--catalog", str(catalog_path),
                     "--out-dir", str(blocker)])
        self.assert_refused(code, capsys, blocker)
        assert calls["n"] == 0

    def test_catalog_build(self, tmp_path, mitre_sample_path, calls, blocker, capsys):
        code = main(["catalog", "build", "--attack-json", str(mitre_sample_path),
                     "--out", str(blocker / "catalog.bin")])
        self.assert_refused(code, capsys, blocker)
        assert calls["n"] == 0


class TestReplacedOutputs:
    """Each output file is written beside its path and renamed over it: a
    rename that fails keeps the file an earlier run left, byte for byte, and
    leaves no temporary file."""

    @staticmethod
    def run(command, tmp_path, script_path, catalog_path, report_path, out_dir):
        gt_dir = tmp_path / "gt"
        write_ground_truth(gt_dir, "helloxd-2022", HELLOXD_TEXT)
        if command == "extract":
            return main(["extract", str(report_path), "--out-dir", str(out_dir),
                         "--provider", "scripted", "--script", str(script_path)])
        if command == "eval":
            assert run_extract(tmp_path, script_path, catalog_path, [report_path])[0] == 0
            return main(["eval", "--extracted", str(tmp_path / "out"), "--gt", str(gt_dir),
                         "--out-dir", str(out_dir)])
        return main(["calibrate", "--gt", str(gt_dir), "--catalog", str(catalog_path),
                     "--out-dir", str(out_dir), "--provider", "scripted",
                     "--script", str(script_path), "--set", "attack_patterns.strategies=ot"])

    @pytest.mark.parametrize("command, name", [
        ("extract", "summary.json"), ("eval", "scores.json"), ("eval", "scores.csv"),
        ("calibrate", "calibration.json")])
    def test_failed_rename_keeps_the_previous_file(self, tmp_path, script_path, catalog_path,
                                                   report_path, monkeypatch, capsys,
                                                   command, name):
        import os

        out_dir = tmp_path / "results"
        out_dir.mkdir()
        previous = b'{"written": "by an earlier run"}\n'
        (out_dir / name).write_bytes(previous)
        real_replace = os.replace

        def replace(src, dst):
            if str(dst).endswith(name):
                raise OSError(28, "No space left on device")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        code = self.run(command, tmp_path, script_path, catalog_path, report_path, out_dir)
        assert code == 1
        assert capsys.readouterr().err.endswith("error: OSError: [Errno 28] "
                                                "No space left on device\n")
        assert (out_dir / name).read_bytes() == previous
        assert [p.name for p in out_dir.iterdir() if p.name.endswith(".tmp")] == []


@pytest.mark.parametrize("jobs", ["1", "2"])
class TestScoringBesideEntities:
    """With a catalog, ``extract`` asks the technique prompts and embeds the
    candidates first, then scores them on another thread while the entity
    pipeline runs; every model call stays on the report's thread, and the
    report's audit file records its prompts in the order they are sent."""

    @staticmethod
    def reports(tmp_path):
        return [write_report(tmp_path / "in" / "large.txt", 5000),
                write_report(tmp_path / "in" / "ids.txt", 1900,
                             HELLOXD_TEXT + " It also ran scripts (T1059, T1027.002)."),
                write_report(tmp_path / "in" / "small.txt", 700)]

    @pytest.fixture
    def spy(self, monkeypatch):
        """Keeps the source each report thread runs in ``spy.current.source``
        and the ids of the threads that score candidates in ``spy.scorers``."""
        import cti2stix.cli as cli

        spy = SimpleNamespace(current=threading.local(), scorers=set(), reporters=set())
        real_extract_one, real_score = cli._extract_one, cli.score_candidates

        def extract_one(source, *args):
            spy.current.source = source
            spy.reporters.add(threading.get_ident())
            try:
                return real_extract_one(source, *args)
            finally:
                spy.current.source = None

        def score_candidates(*args):
            spy.scorers.add(threading.get_ident())
            return real_score(*args)

        monkeypatch.setattr(cli, "_extract_one", extract_one)
        monkeypatch.setattr(cli, "score_candidates", score_candidates)
        return spy

    def test_model_calls_stay_on_the_report_thread(self, tmp_path, monkeypatch, catalog_path,
                                                   spy, jobs):
        import cti2stix.llm as llm

        golden = golden_transport({"n": 0})
        # the report the calling thread runs, and the prompt (None for an
        # embedding request), per request
        calls = []

        def transport(url, payload, headers, timeout):
            prompt = payload["messages"][0]["content"] if "messages" in payload else None
            calls.append((getattr(spy.current, "source", None), prompt))
            return golden(url, payload, headers, timeout)

        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        monkeypatch.setattr(llm, "_requests_transport", transport)
        inputs = self.reports(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["extract", *map(str, inputs), "--out-dir", str(out_dir),
                     "--catalog", str(catalog_path), "--jobs", jobs, *HASH_EMBEDDINGS])
        assert code == 0
        sources = [source for source, _ in calls]
        assert calls and None not in sources
        assert set(sources) == {str(p) for p in inputs}
        assert spy.scorers and not spy.scorers & spy.reporters
        for path in inputs:
            sent = [prompt for source, prompt in calls if source == str(path) and prompt]
            lines = (out_dir / f"{path.stem}.audit.jsonl").read_text(encoding="utf-8")
            events = map(json.loads, lines.splitlines())
            assert [e["text"] for e in events if e["event"] == "prompt"] == sent

    def test_outputs_equal_the_sequential_pipelines(self, tmp_path, script_path, catalog_path,
                                                    jobs):
        from cti2stix.attack_patterns import run_attack_pattern_pipeline
        from cti2stix.audit import AuditTrail
        from cti2stix.config import load_config, make_provider
        from cti2stix.entity_pipeline import run_entity_pipeline
        from cti2stix.exporter import assemble_and_validate
        from cti2stix.ingest import report_from_path
        from cti2stix.stix import save_bundle

        inputs = self.reports(tmp_path)
        config = load_config(None, {"provider_kind": "scripted", "paths.script": str(script_path)})
        provider, catalog = make_provider(config), load_catalog(catalog_path)
        expected = {}
        for path in inputs:
            report = report_from_path(path)
            trail = AuditTrail(report.id)
            matches = run_attack_pattern_pipeline(report, catalog, provider, trail,
                                                  config.attack_patterns)
            entity_bundle = run_entity_pipeline(report, provider, trail, config.pipeline)
            bundle, _ = assemble_and_validate(entity_bundle, matches)
            expected[f"{report.id}.bundle.json"] = save_bundle(bundle).encode()
            expected[f"{report.id}.audit.jsonl"] = trail.to_jsonl().encode()
        assert b'"rule": "explicit-id"' in expected["ids.audit.jsonl"]

        code, out_dir = run_extract(tmp_path, script_path, catalog_path, inputs, "--jobs", jobs)
        assert code == 0
        written = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.name != "summary.json"}
        assert written == expected

    def test_failed_catalog_load_ends_the_run_once(self, tmp_path, script_path, catalog_path,
                                                   monkeypatch, spy, capsys, jobs):
        import cti2stix.cli as cli
        import cti2stix.llm as llm

        from concurrent.futures import wait

        from cti2stix.attack_patterns import SBSA_PROMPT, VTE_PROMPT

        # ("start", source, None) per report, ("call", source, stage) per
        # model request and ("failed", None, None) at the failure
        events = []
        first_call = threading.Event()
        catalogs = []  # the catalog future each report was given
        technique_prompts = tuple(p[:p.index("{text}")] for p in (VTE_PROMPT, SBSA_PROMPT))
        real_extract_one, real_post = cli._extract_one, llm.ScriptedProvider._post
        real_embed = cli.embed_candidates

        def extract_one(source, config, provider, catalog, *args):
            events.append(("start", source, None))
            catalogs.append(catalog)
            return real_extract_one(source, config, provider, catalog, *args)

        def post(self, path, payload):
            prompt = "" if path == "/embeddings" else payload["messages"][0]["content"]
            stage = "entity" if prompt and not prompt.startswith(technique_prompts) else "technique"
            events.append(("call", spy.current.source, stage))
            first_call.set()
            return real_post(self, path, payload)

        def embed_candidates(*args):
            vectors = real_embed(*args)
            # a report that has embedded its candidates waits here until the
            # load has failed, so that any entity prompt it asks follows the
            # failure
            assert not wait(catalogs, timeout=10).not_done
            return vectors

        def load_catalog(path):
            assert first_call.wait(timeout=10)
            events.append(("failed", None, None))
            raise CatalogError(f"catalog {path}: damaged")

        monkeypatch.setattr(cli, "_extract_one", extract_one)
        monkeypatch.setattr(llm.ScriptedProvider, "_post", post)
        monkeypatch.setattr(cli, "embed_candidates", embed_candidates)
        monkeypatch.setattr(cli, "load_catalog", load_catalog)
        capsys.readouterr()
        code, out_dir = run_extract(tmp_path, script_path, catalog_path, self.reports(tmp_path),
                                    "--jobs", jobs)
        assert code == 2
        assert capsys.readouterr().err.count("error:") == 1
        assert list(out_dir.iterdir()) == []
        failed_at = events.index(("failed", None, None))
        started = {source for event, source, _ in events[:failed_at] if event == "start"}
        # no report starts after the failure; those running finish their
        # technique calls, and ask no condense, extract, verify or relation
        # prompt
        assert {source for _, source, _ in events[failed_at + 1:]} <= started
        assert "entity" not in {stage for _, _, stage in events[failed_at + 1:]}
        assert 1 <= len(started) <= int(jobs)

    def test_entity_failure_while_scoring_fails_only_that_report(
            self, tmp_path, script_path, catalog_path, monkeypatch, jobs):
        import cti2stix.cli as cli

        failed, scored = threading.Event(), []
        real_entities, real_score = cli.run_entity_pipeline, cli.score_candidates

        def score_candidates(report, *args):
            if report.id == "large":  # still scoring when its entity pipeline fails
                assert failed.wait(timeout=10)
            matches = real_score(report, *args)
            scored.append(report.id)
            return matches

        def run_entity_pipeline(report, *args):
            if report.id == "large":
                failed.set()
                raise KeyError("boom")
            return real_entities(report, *args)

        monkeypatch.setattr(cli, "score_candidates", score_candidates)
        monkeypatch.setattr(cli, "run_entity_pipeline", run_entity_pipeline)
        inputs = self.reports(tmp_path)
        code, out_dir = run_extract(tmp_path, script_path, catalog_path, inputs, "--jobs", jobs)
        assert code == 1
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert summary["failed"] == {str(inputs[0]): "KeyError: 'boom'"}
        assert summary["ok"] == sorted(str(p) for p in inputs[1:])
        assert sorted(scored) == ["ids", "large", "small"]  # drained before extract returned

    def test_vte_miss_fails_only_that_report(self, tmp_path, catalog_path, monkeypatch, jobs):
        import re

        import cti2stix.cli as cli

        rules = [(m, r) for m, r in GOLDEN_SCRIPT if m != "Return any relevant text verbatim"]
        script = tmp_path / "script.json"
        script.write_text(json.dumps(
            [{"match": m, "response": r} for m, r in rules]
            # the vte prompt of each report but the one that mentions Zebra
            + [{"regex": r"(?s)verbatim\.\n(?!.*Zebra)", "response": VTE_CANDIDATE}]),
            encoding="utf-8")
        entity_runs = []
        real_entities = cli.run_entity_pipeline

        def run_entity_pipeline(report, *args):
            entity_runs.append(report.id)
            return real_entities(report, *args)

        monkeypatch.setattr(cli, "run_entity_pipeline", run_entity_pipeline)
        inputs = self.reports(tmp_path)
        zebra = write_report(tmp_path / "in" / "zebra.txt", 1300, HELLOXD_TEXT + " Zebra.")
        code, out_dir = run_extract(tmp_path, script, catalog_path, [*inputs, zebra],
                                    "--jobs", jobs)
        assert code == 1
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert list(summary["failed"]) == [str(zebra)]
        assert re.match("ScriptedMissError: no scripted rule matches", summary["failed"][str(zebra)])
        assert summary["ok"] == sorted(str(p) for p in inputs)
        assert sorted(entity_runs) == ["ids", "large", "small"]  # not run after the miss


class TestResponseCacheFormat:
    def test_list_form_cache_replays_byte_for_byte(self, tmp_path, monkeypatch, catalog_path,
                                                   report_path):
        """A cache whose embeddings are JSON lists, as versions before base64
        records wrote them, replays a run with a catalog as its own cache does."""
        import cti2stix.llm as llm

        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        calls = {"n": 0}
        monkeypatch.setattr(llm, "_requests_transport", golden_transport(calls))
        cache = tmp_path / "cache.jsonl"
        live = tmp_path / "live"
        assert main(["extract", str(report_path), "--out-dir", str(live),
                     "--catalog", str(catalog_path), *HASH_EMBEDDINGS,
                     "--set", f"provider.cache_path={cache}"]) == 0
        records = [json.loads(line) for line in cache.read_text(encoding="utf-8").splitlines()]
        embeddings = [r for r in records if r["kind"] == "embedding"]
        assert embeddings and all("vector_f64" in r and "vector" not in r for r in embeddings)

        # the record each older version wrote: list() of the float64 vector
        legacy = tmp_path / "legacy.jsonl"
        with legacy.open("w", encoding="utf-8") as fh:
            for r in records:
                if r["kind"] == "embedding":
                    vector = np.frombuffer(base64.b64decode(r.pop("vector_f64")), dtype="<f8")
                    r["vector"] = list(vector)
                fh.write(json.dumps(r, ensure_ascii=False) + "\n")

        calls["n"] = 0
        outputs = {}
        for name, path in (("replay", cache), ("legacy", legacy)):
            out = tmp_path / name
            assert main(["extract", str(report_path), "--out-dir", str(out),
                         "--catalog", str(catalog_path), *HASH_EMBEDDINGS,
                         "--provider", "replay", "--replay-cache", str(path)]) == 0
            outputs[name] = {f: (out / f).read_bytes()
                             for f in ("helloxd-2022.bundle.json", "helloxd-2022.audit.jsonl")}
        assert calls["n"] == 0
        assert outputs["legacy"] == outputs["replay"] == {
            f: (live / f).read_bytes() for f in outputs["replay"]}

    def test_catalog_build_with_cached_vectors_of_another_length(self, tmp_path, monkeypatch,
                                                                 mitre_sample_path, capsys):
        import cti2stix.llm as llm
        from cti2stix.llm import ProviderConfig, ResponseCache, _cache_key

        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        cache = tmp_path / "cache.jsonl"
        # the first text the catalog embeds
        text = parse_attack_export(MITRE_SAMPLE)["T1027"]["description"]
        model = ProviderConfig.embedding_model
        ResponseCache(cache).put_embedding(_cache_key("embedding", model, text), model, text,
                                           [1.0, 0.0])
        monkeypatch.setattr(llm, "_requests_transport", lambda url, payload, *a: (200, {
            "data": [{"index": i, "embedding": [1.0, 0.0, 0.0]}
                     for i in range(len(payload["input"]))]}))
        out = tmp_path / "catalog.npz"
        code = main(["catalog", "build", "--attack-json", str(mitre_sample_path),
                     "--out", str(out), "--set", f"provider.cache_path={cache}"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: TransportError: malformed embedding response: "
            "rows of lengths [2, 3] in one call\n")
        assert not out.exists()


_GOOD_RECORD = json.dumps({"kind": "completion", "key": "k0", "model": "m", "prompt": "p",
                           "response": "r"})


class TestDamagedResponseCache:
    """A response cache that cannot be read is a usage error for every command
    that opens one, live or replay: one ``error:`` line and exit 2."""

    @pytest.fixture(params=[
        ("[1]", "line 2: not a JSON object"),
        ('{"kind": "completion"}', "line 2: completion record without a string 'key'"),
        (None, "line 1, column 66: Unterminated string"),
        ('{"kind": "embedding", "key": "k", "model": "m", "text": "t", "vector": "0.5"}',
         "line 2: 'vector' is not a list of numbers"),
    ], ids=["array", "no-key", "corrupt-middle-line", "vector-string"])
    def damaged(self, request, tmp_path):
        line, message = request.param
        lines = [_GOOD_RECORD[:-12], _GOOD_RECORD] if line is None else [_GOOD_RECORD, line]
        path = tmp_path / "cache.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path, message

    @pytest.fixture(params=["extract-live", "extract-replay", "catalog-build-live",
                            "calibrate-replay"])
    def argv(self, request, tmp_path, damaged, report_path, catalog_path, mitre_sample_path):
        cache = str(damaged[0])
        gt_dir = tmp_path / "gt"
        write_ground_truth(gt_dir, "helloxd-2022", HELLOXD_TEXT)
        out = str(tmp_path / "out")
        return {
            "extract-live": ["extract", str(report_path), "--out-dir", out,
                             "--set", f"provider.cache_path={cache}"],
            "extract-replay": ["extract", str(report_path), "--out-dir", out,
                               "--provider", "replay", "--replay-cache", cache],
            "catalog-build-live": ["catalog", "build", "--attack-json", str(mitre_sample_path),
                                   "--out", str(tmp_path / "built.npz"),
                                   "--set", f"provider.cache_path={cache}"],
            "calibrate-replay": ["calibrate", "--gt", str(gt_dir), "--catalog", str(catalog_path),
                                 "--out-dir", out, "--provider", "replay",
                                 "--replay-cache", cache],
        }[request.param]

    def test_usage_error(self, tmp_path, monkeypatch, capsys, damaged, argv):
        import cti2stix.llm as llm

        def no_network(*args, **kwargs):
            raise AssertionError("the endpoint must not be contacted")

        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        monkeypatch.setattr(llm, "_requests_transport", no_network)
        path, message = damaged
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: response cache {path}: {message}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "built.npz").exists()


def write_ground_truth(gt_dir, report_id, text, attack_pattern=("T1573",)):
    gt_dir.mkdir(parents=True, exist_ok=True)
    (gt_dir / f"{report_id}.txt").write_text(text, encoding="utf-8")
    (gt_dir / f"{report_id}.json").write_text(
        json.dumps(
            {
                "malware": ["HelloXD"],
                "threat_actor": ["x4k"],
                "target": ["Windows and Linux systems"],
                "attack_pattern": list(attack_pattern),
                "relations": [
                    {"source": source, "source_kind": source_kind, "relation": relation,
                     "target": target, "target_kind": target_kind}
                    for source, source_kind, relation, target, target_kind in (
                        ("x4k", "threat-actor", "uses", "HelloXD", "malware"),
                        ("x4k", "threat-actor", "targets", "Windows and Linux systems",
                         "identity"),
                        ("HelloXD", "malware", "targets", "Windows and Linux systems",
                         "identity"),
                    )
                ],
            }
        ),
        encoding="utf-8",
    )


class TestEval:
    def test_scores_extracted_bundles(self, tmp_path, script_path, catalog_path,
                                      report_path, capsys):
        _, out_dir = run_extract(tmp_path, script_path, catalog_path, [report_path])
        gt_dir = tmp_path / "gt"
        write_ground_truth(gt_dir, "helloxd-2022", HELLOXD_TEXT)

        eval_dir = tmp_path / "eval"
        code = main([
            "eval",
            "--extracted", str(out_dir),
            "--gt", str(gt_dir),
            "--out-dir", str(eval_dir),
        ])
        assert code == 0

        scores = json.loads((eval_dir / "scores.json").read_text(encoding="utf-8"))
        report_scores = scores["per_report"]["helloxd-2022"]
        for kind in ("malware", "threat_actor", "target", "attack_pattern", "relation"):
            assert report_scores[kind]["f1"] == 1.0, kind
        assert (eval_dir / "scores.csv").exists()
        assert "malware: mean F1 1.000" in capsys.readouterr().out

    def test_holds_one_loaded_bundle_at_a_time(self, tmp_path, monkeypatch):
        import weakref

        import cti2stix.cli as cli
        from cti2stix.stix import new_bundle, save_bundle

        extracted, gt_dir = tmp_path / "extracted", tmp_path / "gt"
        extracted.mkdir()
        # "a-b.bundle.json" sorts before "a.bundle.json"
        for rid in ("a", "a-b", "b", "no-truth"):
            (extracted / f"{rid}.bundle.json").write_text(save_bundle(new_bundle(rid)),
                                                          encoding="utf-8")
            if rid != "no-truth":
                write_ground_truth(gt_dir, rid, "Plain prose.")
        loaded, alive, scored = [], [], []
        real_load, real_score = cli.load_bundle, cli.score_bundle

        def load_bundle(path):
            alive.append(sum(ref() is not None for ref in loaded))
            bundle = real_load(path)
            loaded.append(weakref.ref(bundle))
            return bundle

        def score_bundle(bundle, gt, kinds):
            scored.append(gt.report_id)
            return real_score(bundle, gt, kinds)

        monkeypatch.setattr(cli, "load_bundle", load_bundle)
        monkeypatch.setattr(cli, "score_bundle", score_bundle)
        code = main(["eval", "--extracted", str(extracted), "--gt", str(gt_dir),
                     "--out-dir", str(tmp_path / "eval")])
        assert code == 0
        assert alive == [0, 0, 0, 0]  # no bundle outlives its scoring
        assert sorted(scored) == ["a", "a-b", "b"]  # once each
        scores = json.loads((tmp_path / "eval" / "scores.json").read_text(encoding="utf-8"))
        assert list(scores["per_report"]) == ["a", "a-b", "b"]
        csv_ids = [line.split(",")[0] for line in
                   (tmp_path / "eval" / "scores.csv").read_text(encoding="utf-8").splitlines()]
        assert list(dict.fromkeys(csv_ids[1:])) == ["a", "a-b", "b", "__aggregate__"]

    def test_subset_rule_shrinks_attack_pattern_aggregate(self, tmp_path):
        # ten reports; three carry explicit technique ids and leave the
        # attack-pattern aggregate under the subset rule
        from cti2stix.stix import new_bundle, save_bundle

        extracted = tmp_path / "extracted"
        extracted.mkdir()
        gt_dir = tmp_path / "gt"
        for i in range(10):
            rid = f"r{i}"
            text = "Plain prose." if i >= 3 else f"Analyst mapped this to T10{59 + i}."
            write_ground_truth(gt_dir, rid, text, attack_pattern=())
            (extracted / f"{rid}.bundle.json").write_text(
                save_bundle(new_bundle(rid)), encoding="utf-8"
            )
        # ground truth entities exist but bundles are empty: scores are 0,
        # which is fine — this test only counts the aggregate population
        eval_dir = tmp_path / "eval"
        code = main([
            "eval",
            "--extracted", str(extracted),
            "--gt", str(gt_dir),
            "--out-dir", str(eval_dir),
        ])
        assert code == 0
        scores = json.loads((eval_dir / "scores.json").read_text(encoding="utf-8"))
        assert scores["aggregate"]["attack_pattern"]["f1"]["n"] == 7
        assert scores["aggregate"]["malware"]["f1"]["n"] == 10

    def test_subset_rule_off(self, tmp_path):
        from cti2stix.stix import new_bundle, save_bundle

        extracted = tmp_path / "extracted"
        extracted.mkdir()
        gt_dir = tmp_path / "gt"
        for i in range(4):
            rid = f"r{i}"
            text = "Uses T1059." if i == 0 else "Plain."
            write_ground_truth(gt_dir, rid, text, attack_pattern=())
            (extracted / f"{rid}.bundle.json").write_text(
                save_bundle(new_bundle(rid)), encoding="utf-8"
            )
        eval_dir = tmp_path / "eval"
        code = main([
            "eval",
            "--extracted", str(extracted),
            "--gt", str(gt_dir),
            "--out-dir", str(eval_dir),
            "--subset-rule", "off",
        ])
        assert code == 0
        scores = json.loads((eval_dir / "scores.json").read_text(encoding="utf-8"))
        assert scores["aggregate"]["attack_pattern"]["f1"]["n"] == 4

    def test_no_overlap_is_usage_error(self, tmp_path):
        from cti2stix.stix import new_bundle, save_bundle

        extracted = tmp_path / "extracted"
        extracted.mkdir()
        (extracted / "other.bundle.json").write_text(
            save_bundle(new_bundle("other")), encoding="utf-8"
        )
        gt_dir = tmp_path / "gt"
        write_ground_truth(gt_dir, "helloxd-2022", "text")
        code = main([
            "eval",
            "--extracted", str(extracted),
            "--gt", str(gt_dir),
            "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == 2


    def test_unknown_kind_is_usage_error(self, tmp_path, capsys):
        extracted = tmp_path / "extracted"
        extracted.mkdir()
        write_ground_truth(tmp_path / "gt", "helloxd-2022", "text")
        code = main([
            "eval", "--extracted", str(extracted), "--gt", str(tmp_path / "gt"),
            "--out-dir", str(tmp_path / "eval"), "--kinds", "malware,bogus",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: eval.kinds: unknown kind 'bogus'")
        assert "Traceback" not in err


GOOD_RELATION = {"source": "x4k", "source_kind": "threat-actor", "relation": "uses",
                 "target": "HelloXD", "target_kind": "malware"}

# malformed ground-truth files, and what the error line must name
MALFORMED_TRUTH = {
    "truncated": ('{"malware": ["HelloXD"', "not valid JSON"),
    "not-a-mapping": ('["HelloXD"]', "the top level must be a mapping"),
    "unknown-relation": (
        json.dumps({"relations": [{**GOOD_RELATION, "relation": "communicates-with"}]}),
        "'communicates-with' is not a valid RelationKind"),
    "unknown-entity-kind": (
        json.dumps({"relations": [{**GOOD_RELATION, "source_kind": "botnet"}]}),
        "'botnet' is not a valid EntityKind"),
    "missing-key": (
        json.dumps({"relations": [{k: v for k, v in GOOD_RELATION.items() if k != "target"}]}),
        "has no key 'target'"),
    "entity-without-name": (json.dumps({"malware": [{"aliases": ["HXD"]}]}),
                            "malware entry {'aliases': ['HXD']} has no key 'name'"),
    "report-id-not-a-string": (json.dumps({"report_id": ["r1"]}),
                               "report_id ['r1'] is not a string"),
    "repeated-report-id": (json.dumps({"report_id": "a-good-one", "malware": ["HelloXD"]}),
                           "report id 'a-good-one' is already taken by "),
}


@pytest.mark.parametrize("command", ["eval", "calibrate"])
@pytest.mark.parametrize("case", sorted(MALFORMED_TRUTH))
def test_malformed_ground_truth_is_usage_error(tmp_path, catalog_path, no_model_calls,
                                               capsys, command, case):
    content, message = MALFORMED_TRUTH[case]
    gt_dir = tmp_path / "gt"
    write_ground_truth(gt_dir, "a-good-one", HELLOXD_TEXT)
    bad = gt_dir / "helloxd-2022.json"
    bad.write_text(content, encoding="utf-8")
    (gt_dir / "helloxd-2022.txt").write_text(HELLOXD_TEXT, encoding="utf-8")
    extracted = tmp_path / "extracted"
    extracted.mkdir()
    script = write_script(tmp_path / "empty.json", [])
    argv = {
        "eval": ["eval", "--extracted", str(extracted)],
        "calibrate": ["calibrate", "--catalog", str(catalog_path), "--provider", "scripted",
                      "--script", str(script)],
    }[command]
    code = main([*argv, "--gt", str(gt_dir), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: ground truth {bad}: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


class TestMalformedBundle:
    @pytest.mark.parametrize("text, message", [
        ('{"type": "bundle", "objects": [', "Expecting value"),
        ("[1, 2]", "the bundle is not a JSON object"),
        ('{"type": "bundle", "objects": 5}', 'the bundle\'s "objects" is not a list'),
        (json.dumps({"type": "bundle", "objects": [
            {"type": "malware", "id": "malware--1", "name": 5}]}),
         "malware 'malware--1' has an id, name or alias that is not a string"),
        (json.dumps({"type": "bundle", "objects": [
            {"type": "malware", "id": "malware--1", "name": "HelloXD", "aliases": [5]}]}),
         "malware 'malware--1' has an id, name or alias that is not a string"),
        (json.dumps({"type": "bundle", "objects": [
            {"type": "malware", "id": ["malware--1"], "name": "HelloXD"}]}),
         "malware ['malware--1'] has an id, name or alias that is not a string"),
        (json.dumps({"type": "bundle", "objects": [
            {"type": "relationship", "id": "relationship--1", "relationship_type": "uses",
             "source_ref": ["threat-actor--1"], "target_ref": "malware--1"}]}),
         "relationship 'relationship--1' has an id or ref that is not a string"),
    ], ids=["torn", "array", "objects-not-a-list", "name-not-a-string", "alias-not-a-string",
            "id-not-a-string", "ref-not-a-string"])
    def test_is_usage_error(self, tmp_path, capsys, text, message):
        extracted = tmp_path / "extracted"
        extracted.mkdir()
        bundle = extracted / "r1.bundle.json"
        bundle.write_text(text, encoding="utf-8")
        write_ground_truth(tmp_path / "gt", "r1", "Plain prose.")
        code = main(["eval", "--extracted", str(extracted), "--gt", str(tmp_path / "gt"),
                     "--out-dir", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: bundle {bundle}: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "eval").exists()


class TestCatalogBuild:
    def test_builds_npz(self, tmp_path, mitre_sample_path):
        script = tmp_path / "empty.json"
        script.write_text("[]", encoding="utf-8")
        out = tmp_path / "catalog.npz"
        code = main([
            "catalog", "build",
            "--attack-json", str(mitre_sample_path),
            "--out", str(out),
            "--provider", "scripted",
            "--script", str(script),
        ])
        assert code == 0
        catalog = load_catalog(out)
        assert sorted(catalog.technique_names()) == ["T1027", "T1573"]

    def test_missing_export_is_usage_error(self, tmp_path):
        script = tmp_path / "empty.json"
        script.write_text("[]", encoding="utf-8")
        code = main([
            "catalog", "build",
            "--attack-json", str(tmp_path / "ghost.json"),
            "--out", str(tmp_path / "catalog.npz"),
            "--provider", "scripted",
            "--script", str(script),
        ])
        assert code == 2

    @pytest.mark.parametrize("text", ["{oops", "[]", '{"objects": null}', '{"objects": [[]]}'])
    def test_malformed_export_is_usage_error(self, tmp_path, capsys, text):
        export = tmp_path / "export.json"
        export.write_text(text, encoding="utf-8")
        script = tmp_path / "empty.json"
        script.write_text("[]", encoding="utf-8")
        code = main([
            "catalog", "build", "--attack-json", str(export),
            "--out", str(tmp_path / "catalog.npz"),
            "--provider", "scripted", "--script", str(script),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: ATT&CK export {export} is not") and err.count("\n") == 1
        assert not (tmp_path / "catalog.npz").exists()

    def test_directory_out_is_usage_error_before_any_embedding(self, tmp_path, monkeypatch,
                                                               mitre_sample_path, capsys):
        import cti2stix.llm as llm

        calls = {"n": 0}
        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        monkeypatch.setattr(llm, "_requests_transport", golden_transport(calls))
        out = tmp_path / "catalogs"
        out.mkdir()
        code = main(["catalog", "build", "--attack-json", str(mitre_sample_path),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: --out {out} is a directory\n"
        assert calls["n"] == 0
        assert list(out.iterdir()) == []

    def test_embedding_beyond_float32_is_usage_error(self, tmp_path, monkeypatch,
                                                     mitre_sample_path, capsys):
        import cti2stix.llm as llm

        def transport(url, payload, headers, timeout):
            return 200, {"data": [{"index": i, "embedding": [1e300, 0.0]}
                                  for i in range(len(payload["input"]))]}

        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        monkeypatch.setattr(llm, "_requests_transport", transport)
        out = tmp_path / "catalog.npz"
        code = main(["catalog", "build", "--attack-json", str(mitre_sample_path),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: vectors hold 1e+300, beyond float32's range\n"
        assert not out.exists()


class TestCalibrate:
    def test_sweep_picks_strictest_tied_threshold(self, tmp_path, catalog_path):
        script = tmp_path / "empty.json"
        script.write_text("[]", encoding="utf-8")
        gt_dir = tmp_path / "gt"
        write_ground_truth(gt_dir, "helloxd-2022", HELLOXD_TEXT)

        out_dir = tmp_path / "cal"
        code = main([
            "calibrate",
            "--gt", str(gt_dir),
            "--catalog", str(catalog_path),
            "--out-dir", str(out_dir),
            "--provider", "scripted",
            "--script", str(script),
            "--set", "attack_patterns.strategies=ot",
        ])
        assert code == 0
        payload = json.loads((out_dir / "calibration.json").read_text(encoding="utf-8"))
        # the only candidate match is an exact text hit at cosine 1.0, so
        # every threshold scores the same and the tie breaks upward
        assert payload["best_threshold"] == 0.95
        assert payload["best_mean_f1"] == 1.0
        assert payload["thresholds"]["0.70"] == 1.0

    def test_explicit_only_id_leaves_calibration_unchanged(self, tmp_path, catalog_path):
        """An id the text writes but no candidate scores carries no score, so
        it changes no threshold's F1: the output equals that of the same text
        without the id."""
        script = write_script(tmp_path / "vte.json",
                              [("Return any relevant text verbatim", VTE_CANDIDATE)])
        outputs = []
        for name, tail in (("with-id", " Scripts ran through T1059."),
                           ("without-id", " Scripts ran through.")):
            gt_dir, out_dir = tmp_path / name / "gt", tmp_path / name / "cal"
            write_ground_truth(gt_dir, "helloxd-2022", HELLOXD_TEXT + tail)
            assert main([
                "calibrate", "--gt", str(gt_dir), "--catalog", str(catalog_path),
                "--out-dir", str(out_dir), "--provider", "scripted", "--script", str(script),
                "--set", "attack_patterns.strategies=vte", "--set", "eval.subset_rule=false",
            ]) == 0
            outputs.append((out_dir / "calibration.json").read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["best_mean_f1"] == 1.0

    def test_failed_report_leaves_the_sweep(self, tmp_path, catalog_path, capsys):
        # the script answers the vte prompt of the HelloXD report only
        script = write_script(tmp_path / "vte.json", [("HelloXD", VTE_CANDIDATE)])
        other = "Another intrusion set was seen this spring. Its tooling is unknown."

        def calibrate(name, reports):
            gt_dir, out_dir = tmp_path / name / "gt", tmp_path / name / "cal"
            for report_id, text in reports:
                write_ground_truth(gt_dir, report_id, text)
            code = main(["calibrate", "--gt", str(gt_dir), "--catalog", str(catalog_path),
                         "--out-dir", str(out_dir), "--provider", "scripted",
                         "--script", str(script), "--set", "attack_patterns.strategies=vte"])
            return code, out_dir / "calibration.json"

        code, path = calibrate("alone", [("helloxd-2022", HELLOXD_TEXT)])
        alone = json.loads(path.read_text(encoding="utf-8"))
        assert code == 0 and "failed" not in alone
        capsys.readouterr()
        code, path = calibrate("both", [("helloxd-2022", HELLOXD_TEXT), ("other", other)])
        both = json.loads(path.read_text(encoding="utf-8"))
        assert code == 1
        assert list(both.pop("failed")) == ["other"]
        assert both == alone
        assert "FAILED other: ScriptedMissError: no scripted rule matches" in (
            capsys.readouterr().out)
        # with no report left to sweep, no file is written
        code, path = calibrate("none", [("other", other)])
        assert code == 1 and not path.exists()

    def test_unique_argmax_reported(self, tmp_path):
        """With a true match at cosine ~0.80 and a spurious one at ~0.79,
        0.80 is the only threshold on the grid that scores F1=1."""
        from cti2stix.attack_patterns import strategy_ot
        from cti2stix.catalog import TechniqueCatalog, save_catalog
        from cti2stix.ingest import make_report
        from cti2stix.llm import HashEmbedder

        text = ("The loader unpacked its payload into memory. "
                "The actor tunneled traffic through the proxy.")
        candidates = strategy_ot(make_report(text, report_id="argmax"))
        assert len(candidates) == 2
        embedder = HashEmbedder()
        h = [embedder.embed_one(c) for c in candidates]

        def vector_at(cosine, toward, rng):
            u = toward / np.linalg.norm(toward)
            r = rng.normal(size=u.shape)
            w = r - (r @ u) * u
            w /= np.linalg.norm(w)
            return cosine * u + float(np.sqrt(1.0 - cosine**2)) * w

        rng = np.random.default_rng(7)
        e1 = vector_at(0.8005, h[0], rng)
        e2 = vector_at(0.7905, h[1], rng)
        # construction sanity: scores land in the intended 0.01-wide bins and
        # the cross pairings stay far below the sweep floor
        assert 0.80 < cosine(e1, h[0]) < 0.81
        assert 0.79 < cosine(e2, h[1]) < 0.80
        assert abs(cosine(e1, h[1])) < 0.65
        assert abs(cosine(e2, h[0])) < 0.65

        catalog = TechniqueCatalog.from_rows("hash-32", "fixture",
                                             [("T1001", "Alpha"), ("T1002", "Beta")],
                                             np.array([e1, e2], dtype=np.float32))
        catalog_file = tmp_path / "argmax-catalog.npz"
        save_catalog(catalog, catalog_file)

        gt_dir = tmp_path / "gt"
        write_ground_truth(gt_dir, "argmax", text, attack_pattern=("T1001",))
        script = tmp_path / "empty.json"
        script.write_text("[]", encoding="utf-8")
        out_dir = tmp_path / "cal"
        code = main([
            "calibrate",
            "--gt", str(gt_dir),
            "--catalog", str(catalog_file),
            "--out-dir", str(out_dir),
            "--provider", "scripted",
            "--script", str(script),
            "--set", "attack_patterns.strategies=ot",
        ])
        assert code == 0
        payload = json.loads((out_dir / "calibration.json").read_text(encoding="utf-8"))
        assert payload["best_threshold"] == pytest.approx(0.80)
        assert payload["best_mean_f1"] == 1.0
        assert payload["thresholds"]["0.79"] == pytest.approx(2 / 3)
        assert payload["thresholds"]["0.81"] == 0.0

    def test_explicit_id_reports_excluded(self, tmp_path, catalog_path):
        script = tmp_path / "empty.json"
        script.write_text("[]", encoding="utf-8")
        gt_dir = tmp_path / "gt"
        write_ground_truth(gt_dir, "tagged", f"Uses T1573. {VTE_CANDIDATE}")
        out_dir = tmp_path / "cal"
        code = main([
            "calibrate",
            "--gt", str(gt_dir),
            "--catalog", str(catalog_path),
            "--out-dir", str(out_dir),
            "--provider", "scripted",
            "--script", str(script),
            "--set", "attack_patterns.strategies=ot",
        ])
        assert code == 2  # nothing left to calibrate on

    @pytest.mark.parametrize("bounds,message", [
        (["--step", "0"], "--step must be positive"),
        (["--step", "-0.01"], "--step must be positive"),
        (["--low", "0.9", "--high", "0.7"], "--low 0.9 is above --high 0.7"),
        (["--high", "inf"], "must be finite"),
        (["--step", "nan"], "must be finite"),
        (["--low", "-1.5"], "cosine range [-1, 1]"),
        (["--high", "1.5"], "cosine range [-1, 1]"),
        (["--step", "0.001"], "more than 201 thresholds"),
        (["--low", "0", "--high", "1", "--step", "1e-6"], "more than 201 thresholds"),
        (["--low", "0.005", "--step", "0.01"], "share the key 0.01"),
    ])
    def test_bad_sweep_bounds_are_rejected_before_any_work(
            self, tmp_path, catalog_path, monkeypatch, capsys, bounds, message):
        import cti2stix.cli as cli

        def forbidden(*args, **kwargs):
            raise AssertionError("calibrate did work before checking its bounds")

        monkeypatch.setattr(cli, "load_catalog", forbidden)
        monkeypatch.setattr(cli, "make_provider", forbidden)
        script = tmp_path / "empty.json"
        script.write_text("[]", encoding="utf-8")
        gt_dir = tmp_path / "gt"
        write_ground_truth(gt_dir, "helloxd-2022", HELLOXD_TEXT)
        code = main([
            "calibrate",
            "--gt", str(gt_dir),
            "--catalog", str(catalog_path),
            "--out-dir", str(tmp_path / "cal"),
            "--provider", "scripted",
            "--script", str(script),
            *bounds,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "cal").exists()

    def test_widest_grid_keys_every_threshold(self):
        from cti2stix.cli import _calibration_grid

        grid = _calibration_grid(-1.0, 1.0, 0.01)
        assert len(grid) == len({f"{t:.2f}" for t in grid}) == 201


class TestMalformedCatalog:
    """A catalog whose matrix has fewer rows than its technique segments
    need, a torn file or a path that cannot be opened is a usage error for
    every command that reads one, reported without a traceback; ``catalog
    build`` rebuilds such a file."""

    @pytest.fixture
    def short_catalog(self, tmp_path, mini_catalog):
        path = tmp_path / "short.npz"
        # the last technique's segment starts at the row the matrix ends
        last = int(mini_catalog.starts[-1])
        write_unchecked_catalog(path, dataclasses.replace(mini_catalog,
                                                          vectors=mini_catalog.vectors[:last]))
        return path

    @pytest.fixture
    def legacy_catalog(self, tmp_path, mini_catalog, legacy_writer):
        path = tmp_path / "legacy.npz"
        write_legacy_catalog(path, mini_catalog, legacy_writer)
        return path

    @pytest.fixture
    def float64_catalog(self, tmp_path, mini_catalog):
        # the flat layout as versions before float32 files wrote it
        path = tmp_path / "float64.npz"
        write_unchecked_catalog(path, dataclasses.replace(
            mini_catalog, vectors=mini_catalog.vectors.astype(np.float64)))
        return path

    def assert_usage_error(self, code, capsys,
                           says=("error: cannot read catalog", "segment starts", "rows")):
        err = capsys.readouterr().err
        assert code == 2
        assert all(words in err for words in says)
        assert "Traceback" not in err

    def run_calibrate(self, tmp_path, catalog):
        script = tmp_path / "empty.json"
        script.write_text("[]", encoding="utf-8")
        gt_dir = tmp_path / "gt"
        write_ground_truth(gt_dir, "helloxd-2022", HELLOXD_TEXT)
        return main([
            "calibrate", "--gt", str(gt_dir), "--catalog", str(catalog),
            "--out-dir", str(tmp_path / "cal"),
            "--provider", "scripted", "--script", str(script),
        ])

    def test_extract(self, tmp_path, script_path, short_catalog, report_path, capsys):
        code, _ = run_extract(tmp_path, script_path, short_catalog, [report_path])
        self.assert_usage_error(code, capsys)

    def test_calibrate(self, tmp_path, short_catalog, capsys):
        self.assert_usage_error(self.run_calibrate(tmp_path, short_catalog), capsys)

    def test_extract_directory(self, tmp_path, script_path, report_path, capsys):
        code, _ = run_extract(tmp_path, script_path, tmp_path, [report_path])
        self.assert_usage_error(code, capsys,
                                says=("error: cannot read catalog", "Is a directory"))

    def test_calibrate_directory(self, tmp_path, capsys):
        self.assert_usage_error(self.run_calibrate(tmp_path, tmp_path), capsys,
                                says=("error: cannot read catalog", "Is a directory"))

    def test_extract_older_file(self, tmp_path, script_path, legacy_catalog, report_path,
                                capsys):
        code, _ = run_extract(tmp_path, script_path, legacy_catalog, [report_path])
        self.assert_usage_error(code, capsys, says=("older version", "catalog build"))

    def test_calibrate_older_file(self, tmp_path, legacy_catalog, capsys):
        self.assert_usage_error(self.run_calibrate(tmp_path, legacy_catalog), capsys,
                                says=("older version", "catalog build"))

    def test_extract_float64_file(self, tmp_path, script_path, float64_catalog, report_path,
                                  capsys):
        code, _ = run_extract(tmp_path, script_path, float64_catalog, [report_path])
        self.assert_usage_error(code, capsys, says=("error: catalog", "dtype <f8, need float32"))

    def test_calibrate_float64_file(self, tmp_path, float64_catalog, capsys):
        self.assert_usage_error(self.run_calibrate(tmp_path, float64_catalog), capsys,
                                says=("error: catalog", "dtype <f8, need float32"))

    def test_extract_truncated(self, tmp_path, script_path, short_catalog, report_path,
                               capsys):
        short_catalog.write_bytes(short_catalog.read_bytes()[:1000])
        code, _ = run_extract(tmp_path, script_path, short_catalog, [report_path])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: cannot read catalog" in err and "Traceback" not in err

    def assert_rebuilds(self, tmp_path, mitre_sample_path, cache):
        # the output is a cache: an unreadable one is rebuilt, not an error
        script = tmp_path / "empty.json"
        script.write_text("[]", encoding="utf-8")
        code = main([
            "catalog", "build", "--attack-json", str(mitre_sample_path),
            "--out", str(cache),
            "--provider", "scripted", "--script", str(script),
        ])
        assert code == 0
        assert sorted(load_catalog(cache).technique_names()) == ["T1027", "T1573"]

    def test_catalog_build_rebuilds_malformed_cache(self, tmp_path, mitre_sample_path,
                                                    short_catalog):
        self.assert_rebuilds(tmp_path, mitre_sample_path, short_catalog)

    def test_catalog_build_rebuilds_truncated_cache(self, tmp_path, mitre_sample_path,
                                                    short_catalog):
        short_catalog.write_bytes(short_catalog.read_bytes()[:1000])
        self.assert_rebuilds(tmp_path, mitre_sample_path, short_catalog)

    def test_catalog_build_rebuilds_older_file(self, tmp_path, mitre_sample_path,
                                               legacy_catalog):
        self.assert_rebuilds(tmp_path, mitre_sample_path, legacy_catalog)
        flags = load_catalog(legacy_catalog).vectors.flags
        assert flags.aligned and not flags.writeable and not flags.owndata

    def test_catalog_build_rebuilds_float64_file(self, tmp_path, mitre_sample_path,
                                                 float64_catalog, mini_catalog):
        self.assert_rebuilds(tmp_path, mitre_sample_path, float64_catalog)
        rebuilt = load_catalog(float64_catalog)
        assert rebuilt.vectors.dtype == np.float32
        np.testing.assert_array_equal(rebuilt.vectors, mini_catalog.vectors)


class TestCatalogOfAnotherEmbedder:
    """A catalog scores only the embeddings of the model that built it: one
    built by another model is a usage error for ``extract`` and
    ``calibrate``, and so are vectors of another dimension, which end the
    run at the first report that embeds, with a message that names both
    dimensions."""

    @pytest.fixture
    def other_model(self, tmp_path, mini_catalog):
        from cti2stix.catalog import save_catalog

        path = tmp_path / "other-model.npz"
        save_catalog(dataclasses.replace(mini_catalog, model="other-model"), path)
        return path

    @staticmethod
    def assert_names_both_models(code, capsys):
        err = capsys.readouterr().err
        assert code == 2
        assert "error: catalog" in err and "built with other-model" in err
        assert "embeds with hash-32" in err and "Traceback" not in err

    def test_extract(self, tmp_path, script_path, other_model, report_path, capsys):
        code, out_dir = run_extract(tmp_path, script_path, other_model, [report_path])
        self.assert_names_both_models(code, capsys)
        assert list(out_dir.iterdir()) == []

    def test_calibrate_before_any_model_call(self, tmp_path, script_path, other_model,
                                             no_model_calls, capsys):
        gt_dir = tmp_path / "gt"
        write_ground_truth(gt_dir, "helloxd-2022", HELLOXD_TEXT)
        code = main(["calibrate", "--gt", str(gt_dir), "--catalog", str(other_model),
                     "--out-dir", str(tmp_path / "cal"),
                     "--provider", "scripted", "--script", str(script_path)])
        self.assert_names_both_models(code, capsys)
        assert not (tmp_path / "cal").exists()

    @pytest.mark.parametrize("command", ["extract", "calibrate"])
    def test_another_dimension_ends_the_run_once(self, tmp_path, script_path, monkeypatch,
                                                 capsys, command):
        import cti2stix.cli as cli
        from cti2stix.catalog import build_catalog
        from cti2stix.llm import HashEmbedder, ProviderConfig, ScriptedProvider

        catalog = tmp_path / "16-dims.npz"
        build_catalog(MITRE_SAMPLE, ScriptedProvider(
            script=[], config=ProviderConfig(embedding_model="hash-32"),
            embedder=HashEmbedder(16)), cache_path=catalog)
        started = []
        real_trail = cli.AuditTrail

        def trail(report_id):  # each command makes one per report it starts
            started.append(report_id)
            return real_trail(report_id)

        monkeypatch.setattr(cli, "AuditTrail", trail)
        capsys.readouterr()
        if command == "extract":
            inputs = [write_report(tmp_path / "in" / f"r{i}.txt", 700) for i in range(3)]
            code, out_dir = run_extract(tmp_path, script_path, catalog, inputs, "--jobs", "1")
        else:
            gt_dir, out_dir = tmp_path / "gt", tmp_path / "cal"
            for i in range(3):
                write_ground_truth(gt_dir, f"r{i}", HELLOXD_TEXT)
            code = main(["calibrate", "--gt", str(gt_dir), "--catalog", str(catalog),
                         "--out-dir", str(out_dir),
                         "--provider", "scripted", "--script", str(script_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("error:") == 1 and "Traceback" not in err
        assert "error: the provider embeds in 32 dimensions, the catalog in 16\n" in err
        assert started == ["r0"]  # the reports after it never start
        assert list(out_dir.glob("*")) == []


@pytest.mark.parametrize("command", ["extract", "calibrate"])
def test_failed_report_is_recorded_printed_and_partial(tmp_path, script_path, catalog_path,
                                                       monkeypatch, capsys, caplog, command):
    """Both batch commands record a report that raises as ``"<Type>: <message>"``,
    log it once, print ``FAILED <key>: <error>``, and exit 1."""
    import cti2stix.cli as cli

    real_trail = cli.AuditTrail

    def trail(report_id):  # each command makes one per report
        if report_id == "bad":
            raise KeyError("boom")
        return real_trail(report_id)

    monkeypatch.setattr(cli, "AuditTrail", trail)
    if command == "extract":
        bad = write_report(tmp_path / "in" / "bad.txt", 700)
        code, out_dir = run_extract(tmp_path, script_path, catalog_path,
                                    [write_report(tmp_path / "in" / "good.txt", 700), bad])
        key, record = str(bad), out_dir / "summary.json"
    else:
        gt_dir = tmp_path / "gt"
        for report_id in ("bad", "good"):
            write_ground_truth(gt_dir, report_id, HELLOXD_TEXT)
        code = main(["calibrate", "--gt", str(gt_dir), "--catalog", str(catalog_path),
                     "--out-dir", str(tmp_path / "cal"),
                     "--provider", "scripted", "--script", str(script_path)])
        key, record = "bad", tmp_path / "cal" / "calibration.json"
    assert code == 1
    assert json.loads(record.read_text(encoding="utf-8"))["failed"] == {key: "KeyError: 'boom'"}
    assert f"FAILED {key}: KeyError: 'boom'\n" in capsys.readouterr().out
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == [
        f"{key} failed: 'boom'"]


def broad_handlers(tree):
    """``(function, caught)`` of each ``except`` clause under a module-level
    function of *tree* that catches ``Exception``, ``BaseException`` or
    anything: the clauses that can catch whatever a report raises."""
    found = []
    for function in tree.body:
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for name in ("bare" if c is None else getattr(c, "id", "") for c in caught):
                if name in ("bare", "Exception", "BaseException"):
                    found.append((function.name, name))
    return found


def test_only_the_batch_runner_catches_a_report_failure():
    import cti2stix.cli as cli

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    assert sorted(broad_handlers(tree)) == [("_run_batch", "BaseException"),
                                           ("_run_batch", "Exception")]
    planted = ast.parse("def cmd_x():\n    try:\n        pass\n    except:\n        pass\n"
                        "    try:\n        pass\n    except (OSError, Exception):\n        pass\n")
    assert broad_handlers(planted) == [("cmd_x", "bare"), ("cmd_x", "Exception")]


class TestConfigShow:
    def test_prints_effective_config(self, capsys):
        code = main(["config", "show", "--set", "provider.context_window=9999"])
        assert code == 0
        out = capsys.readouterr().out
        assert "context_window: 9999" in out
        assert "provider_kind: live" in out

    def test_flag_overrides_visible(self, capsys, tmp_path):
        config_file = tmp_path / "c.yaml"
        config_file.write_text("attack_patterns:\n  threshold: 0.33\n", encoding="utf-8")
        code = main(["config", "show", "--config", str(config_file)])
        assert code == 0
        assert "threshold: 0.33" in capsys.readouterr().out


    def test_prints_twenty_keys(self, capsys):
        assert main(["config", "show"]) == 0
        data = yaml.safe_load(capsys.readouterr().out)
        assert sum(len(v) if isinstance(v, dict) else 1 for v in data.values()) == 20

    @pytest.mark.parametrize("command, flag, value, key", [
        ("extract", "--provider", "scripted", "provider_kind"),
        ("extract", "--script", "rules.json", "paths.script"),
        ("extract", "--replay-cache", "cache.jsonl", "provider.cache_path"),
        ("extract", "--catalog", "catalog.npz", "paths.catalog"),
        ("extract", "--plugins", "sites.yaml", "paths.plugins"),
        ("extract", "--preprocessing", "off", "pipeline.preprocessing"),
        ("extract", "--strategies", "ot", "attack_patterns.strategies"),
        ("extract", "--threshold", "0", "attack_patterns.threshold"),
        ("eval", "--subset-rule", "off", "eval.subset_rule"),
        ("eval", "--kinds", "malware", "eval.kinds"),
    ])
    def test_each_flag_sets_its_key(self, capsys, command, flag, value, key):
        from cti2stix.cli import _config_from_args, build_parser
        from cti2stix.config import AppConfig, dump_config

        required = {"extract": ["r.txt", "--out-dir", "out"],
                    "eval": ["--extracted", "x", "--gt", "gt", "--out-dir", "out"]}[command]
        from_flag = dump_config(_config_from_args(
            build_parser().parse_args([command, *required, flag, value])))
        assert from_flag != dump_config(AppConfig())
        assert main(["config", "show", "--set", f"{key}={value}"]) == 0
        assert capsys.readouterr().out == from_flag

    @pytest.mark.parametrize("flag", ["--script", "--replay-cache", "--catalog", "--plugins",
                                      "--strategies"])
    def test_empty_flag_is_ignored(self, flag):
        from cti2stix.cli import _config_from_args, build_parser
        from cti2stix.config import AppConfig, dump_config

        args = build_parser().parse_args(["extract", "r.txt", "--out-dir", "out", flag, ""])
        assert dump_config(_config_from_args(args)) == dump_config(AppConfig())

    @pytest.mark.parametrize("value", ["nan", "inf", "7", "-1.5"])
    def test_threshold_outside_the_cosine_range_is_usage_error(self, capsys, value):
        assert main(["config", "show", "--set", f"attack_patterns.threshold={value}"]) == 2
        assert capsys.readouterr().err == (
            f"error: attack_patterns.threshold: {float(value)!r} is not a cosine in [-1, 1]\n")

    def test_include_explicit_is_unknown(self, capsys):
        assert main(["config", "show", "--set", "attack_patterns.include_explicit=true"]) == 2
        assert "unknown config key: attack_patterns.include_explicit" in capsys.readouterr().err


class TestUsage:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_unknown_command_exits_2(self):
        assert main(["transmogrify"]) == 2

    def test_extract_requires_out_dir(self, tmp_path):
        assert main(["extract", str(tmp_path / "r.txt")]) == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, script_path, report_path, jobs,
                                           capsys):
        code = main([
            "extract", str(report_path), "--out-dir", str(tmp_path / "out"),
            "--provider", "scripted", "--script", str(script_path), "--jobs", jobs,
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: --jobs must be at least 1, got {jobs}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("threshold", ["7", "nan"])
    def test_threshold_outside_the_cosine_range_is_usage_error(self, tmp_path, script_path,
                                                                report_path, capsys, threshold):
        code = main([
            "extract", str(report_path), "--out-dir", str(tmp_path / "out"),
            "--provider", "scripted", "--script", str(script_path), "--threshold", threshold,
        ])
        assert code == 2
        assert capsys.readouterr().err == (f"error: attack_patterns.threshold: "
                                           f"{float(threshold)!r} is not a cosine in [-1, 1]\n")
        assert not (tmp_path / "out").exists()

    def test_unparseable_override_is_usage_error(self, capsys):
        code = main(["config", "show", "--set", "provider.context_window=abc"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: provider.context_window: expected an integer, got 'abc'" in err
        assert "Traceback" not in err

    def test_malformed_config_file_is_usage_error(self, tmp_path, capsys):
        config_file = tmp_path / "broken.yaml"
        config_file.write_text("provider: [unclosed\n", encoding="utf-8")
        code = main(["config", "show", "--config", str(config_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "not valid YAML" in err

    @pytest.mark.parametrize("plugins", [
        "- hosts: [example.com]\n  selectors: [article]\n",  # an item without a name
        "name: vendor-blog\nhosts: [example.com]\n",          # a mapping, not a list
    ])
    def test_malformed_plugin_file_is_usage_error(self, tmp_path, script_path, report_path,
                                                  capsys, plugins):
        plugin_file = tmp_path / "sites.yaml"
        plugin_file.write_text(plugins, encoding="utf-8")
        code = main([
            "extract", str(report_path), "--out-dir", str(tmp_path / "out"),
            "--provider", "scripted", "--script", str(script_path),
            "--plugins", str(plugin_file),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: plugins ") and "each with a name" in err
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_script_that_is_not_json_is_usage_error(self, tmp_path, report_path, capsys):
        script = tmp_path / "rules.json"
        script.write_text("match: HelloXD\n", encoding="utf-8")
        code = main([
            "extract", str(report_path), "--out-dir", str(tmp_path / "out"),
            "--provider", "scripted", "--script", str(script),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: script {script}: ")
        assert "Traceback" not in err

    def test_script_with_bad_regex_is_usage_error(self, tmp_path, report_path, capsys):
        script = tmp_path / "rules.json"
        script.write_text(json.dumps([{"match": "HelloXD", "response": "x"},
                                      {"regex": "(", "response": "x"}]), encoding="utf-8")
        code = main([
            "extract", str(report_path), "--out-dir", str(tmp_path / "out"),
            "--provider", "scripted", "--script", str(script),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: script {script}: rule 1: bad regex '('")
        assert "Traceback" not in err

    @pytest.mark.parametrize("plugins, message", [
        ('- name: vendor-blog\n  hosts: "blog.example.com"\n  selectors: [article]\n',
         "plugin 'vendor-blog': hosts must be a list of strings"),
        ("- name: vendor-blog\n  hosts: [blog.example.com]\n  selectors: ['article > p']\n",
         "plugin 'vendor-blog': unsupported selector: 'article > p'"),
        ("- name: vendor-blog\n  hosts: [blog.example.com]\n  selector: [article]\n",
         "plugin 'vendor-blog': unknown key 'selector'; use name, hosts, selectors"),
    ], ids=["hosts-string", "unsupported-selector", "misspelt-key"])
    def test_plugin_that_cannot_work_is_usage_error(self, tmp_path, script_path, report_path,
                                                    capsys, plugins, message):
        plugin_file = tmp_path / "sites.yaml"
        plugin_file.write_text(plugins, encoding="utf-8")
        code = main([
            "extract", str(report_path), "--out-dir", str(tmp_path / "out"),
            "--provider", "scripted", "--script", str(script_path),
            "--plugins", str(plugin_file),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: plugins {plugin_file}: {message}\n"
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_zero_concurrency_is_usage_error_not_a_hang(self, tmp_path, report_path,
                                                      monkeypatch, capsys):
        import cti2stix.llm as llm

        def no_network(*args, **kwargs):
            raise AssertionError("the endpoint must not be contacted")

        # with a key set, a zero-permit semaphore would block the first call
        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        monkeypatch.setattr(llm, "_requests_transport", no_network)
        codes = []
        run = threading.Thread(target=lambda: codes.append(main([
            "extract", str(report_path), "--out-dir", str(tmp_path / "out"),
            "--set", "provider.max_concurrent=0",
        ])), daemon=True)
        run.start()
        run.join(timeout=20)
        assert codes == [2], "extract with provider.max_concurrent=0 did not return"
        assert "error: provider.max_concurrent must be at least 1, got 0" in capsys.readouterr().err
