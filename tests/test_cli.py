import json
import logging
import threading
from types import SimpleNamespace

import pytest

from cti2stix.catalog import load_catalog
from cti2stix.cli import main
from cti2stix.stix import EntityKind, load_bundle

from conftest import GOLDEN_SCRIPT, HELLOXD_TEXT, MITRE_SAMPLE, VTE_CANDIDATE


@pytest.fixture
def script_path(tmp_path):
    path = tmp_path / "golden-script.json"
    rules = [{"match": m, "response": r} for m, r in GOLDEN_SCRIPT]
    path.write_text(json.dumps(rules), encoding="utf-8")
    return path


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
    reports run; each report waits for it only when it scores."""

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
        assert one_report and spy.prompts == one_report  # the first report's prompts only


class TestReplay:
    def test_replay_performs_zero_network_calls(self, tmp_path, monkeypatch,
                                                catalog_path, report_path):
        """A cached live run replays byte-for-byte without touching the network."""
        import cti2stix.config as config_mod
        from cti2stix.llm import HashEmbedder, HttpProvider

        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        calls = {"n": 0}
        embedder = HashEmbedder()

        def counting_transport(url, payload, headers, timeout):
            calls["n"] += 1
            if url.endswith("/chat/completions"):
                prompt = payload["messages"][0]["content"]
                for needle, response in GOLDEN_SCRIPT:
                    if needle in prompt:
                        return 200, {"choices": [{"message": {"content": response}}]}
                return 200, {"choices": [{"message": {"content": "none"}}]}
            assert url.endswith("/embeddings")
            data = [
                {"index": i, "embedding": [float(x) for x in embedder.embed_one(t)]}
                for i, t in enumerate(payload["input"])
            ]
            return 200, {"data": data}

        monkeypatch.setattr(
            config_mod, "HttpProvider",
            lambda cfg: HttpProvider(cfg, transport=counting_transport),
        )
        cache = tmp_path / "cache.jsonl"
        live_dir = tmp_path / "live"
        code = main([
            "extract", str(report_path),
            "--out-dir", str(live_dir),
            "--provider", "live",
            "--catalog", str(catalog_path),
            "--set", f"provider.cache_path={cache}",
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
        ])
        assert code == 0
        assert calls["n"] == 0
        replay_bundle = (replay_dir / "helloxd-2022.bundle.json").read_bytes()
        assert replay_bundle == live_bundle


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
        for kind in ("malware", "threat_actor", "target", "attack_pattern"):
            assert report_scores[kind]["f1"] == 1.0, kind
        assert (eval_dir / "scores.csv").exists()
        assert "malware: mean F1 1.000" in capsys.readouterr().out

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

    def test_unique_argmax_reported(self, tmp_path):
        """With a true match at cosine ~0.80 and a spurious one at ~0.79,
        0.80 is the only threshold on the grid that scores F1=1."""
        import numpy as np

        from cti2stix.attack_patterns import cosine_similarity, strategy_ot
        from cti2stix.catalog import CatalogEntry, TechniqueCatalog, save_catalog
        from cti2stix.ingest import make_report
        from cti2stix.llm import HashEmbedder

        text = ("The loader unpacked its payload into memory. "
                "The actor tunneled traffic through the proxy.")
        candidates = strategy_ot(make_report(text, report_id="argmax"))
        assert len(candidates) == 2
        embedder = HashEmbedder()
        h = [embedder.embed_one(c.text) for c in candidates]

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
        assert 0.80 < cosine_similarity(e1, h[0]) < 0.81
        assert 0.79 < cosine_similarity(e2, h[1]) < 0.80
        assert abs(cosine_similarity(e1, h[1])) < 0.65
        assert abs(cosine_similarity(e2, h[0])) < 0.65

        catalog = TechniqueCatalog(model="hash-32", content_hash="fixture", entries=[
            CatalogEntry("T1001", "Alpha", "description", "alpha"),
            CatalogEntry("T1002", "Beta", "description", "beta"),
        ], vectors=np.array([e1, e2]))
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


class TestMalformedCatalog:
    """A catalog whose matrix has fewer rows than entries, or a torn file, is a
    usage error for every command that reads one, reported without a
    traceback; ``catalog build`` rebuilds it."""

    @pytest.fixture
    def short_catalog(self, tmp_path, mini_catalog):
        import numpy as np

        from cti2stix.catalog import save_catalog

        path = tmp_path / "short.npz"
        save_catalog(mini_catalog, path)
        with np.load(path) as data:
            meta = str(data["meta"])
            vectors = data["vectors"]
        with path.open("wb") as fh:
            np.savez(fh, meta=meta, vectors=vectors[:-1])
        return path

    def assert_usage_error(self, code, capsys):
        err = capsys.readouterr().err
        assert code == 2
        assert "error: catalog" in err and "shape" in err
        assert "Traceback" not in err

    def test_extract(self, tmp_path, script_path, short_catalog, report_path, capsys):
        code, _ = run_extract(tmp_path, script_path, short_catalog, [report_path])
        self.assert_usage_error(code, capsys)

    def test_calibrate(self, tmp_path, short_catalog, capsys):
        script = tmp_path / "empty.json"
        script.write_text("[]", encoding="utf-8")
        gt_dir = tmp_path / "gt"
        write_ground_truth(gt_dir, "helloxd-2022", HELLOXD_TEXT)
        code = main([
            "calibrate", "--gt", str(gt_dir), "--catalog", str(short_catalog),
            "--out-dir", str(tmp_path / "cal"),
            "--provider", "scripted", "--script", str(script),
        ])
        self.assert_usage_error(code, capsys)

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


class TestConfigShow:
    def test_prints_effective_config(self, capsys):
        code = main(["config", "show", "--set", "provider.context_window=9999"])
        assert code == 0
        out = capsys.readouterr().out
        assert "context_window: 9999" in out
        assert "provider_kind: live" in out

    def test_flag_overrides_visible(self, capsys, tmp_path):
        config_file = tmp_path / "c.yaml"
        config_file.write_text("pipeline:\n  chunk_tokens: 333\n", encoding="utf-8")
        code = main(["config", "show", "--config", str(config_file)])
        assert code == 0
        assert "chunk_tokens: 333" in capsys.readouterr().out


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
