"""One measuring pass of one workload, in one process.

``run.py`` starts this file as a child process (so its peak memory is the
workload's alone) with a JSON spec naming the workload, its fixture
directory, the number of rounds and whether to trace.  Each round runs the
real CLI, in process:

    cti2stix extract <corpus> --out-dir ... --jobs 2   (fresh, empty response cache)
    cti2stix eval --extracted ... --gt ...

and, for technique-dense when tracing, one ``cti2stix calibrate`` over the
same labelled reports after the rounds.  Every round checks its outputs.  The pass writes
its samples, counters, check failures and (when tracing) per-layer numbers
to the output JSON named in the spec, and its spans next to it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

import numpy

from corpus import observables_digest

# Latency model of the endpoint stand-in, per request: a fixed term (round
# trip and time to the first token), a term per estimated prompt token and a
# term per estimated answer token.  Unscaled, the terms are 0.4 s, 0.1 ms and
# 12.5 ms, round figures for a hosted gpt-3.5-turbo-class endpoint (sources in
# README.md, "Endpoint stand-in").  All of them, and the provider's default
# retry backoff of 0.5 s, are divided by TIME_SCALE so that a run fits in
# seconds; the ratios between them are kept.  A share of first attempts is
# refused with HTTP 429.
TIME_SCALE = 50
FIXED_S = 0.4 / TIME_SCALE
PROMPT_TOKEN_S = 1e-4 / TIME_SCALE
ANSWER_TOKEN_S = 0.0125 / TIME_SCALE
RETRY_BACKOFF_S = 0.5 / TIME_SCALE
REFUSE_SHARE = 0.015
JOBS = 2
RESIDUAL_TOLERANCE = 0.10  # unattributed share of report wall time in traces
EVAL_MIN_S = 1.0  # eval repeats within a round until it has run this long


def _extract_flags(workload: str, catalog: str) -> list[str]:
    if workload == "ioc-heavy":
        # a long-context deployment: the IoC tables fit one prompt, so model
        # calls stay few and local CPU dominates
        return ["--set", "provider.context_window=32768"]
    if workload == "technique-dense":
        return ["--catalog", catalog]
    return []


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _audit_events(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


class Pass:
    def __init__(self, spec: dict):
        self.spec = spec
        self.workload = spec["workload"]
        self.fixtures = Path(spec["fixtures"])
        self.work = Path(spec["work"])
        self.manifest = json.loads((self.fixtures / "manifest.json").read_text(encoding="utf-8"))
        self.inputs = [str(self.fixtures / p) for p in self.manifest["inputs"]]
        self.report_ids = [Path(p).stem for p in self.inputs]
        self.failures: list[str] = []

        from cti2stix import cli
        from endpoint import Endpoint
        from tracer import Tracer

        self.cli = cli
        self.rules = json.loads((self.fixtures / "rules.json").read_text(encoding="utf-8"))
        self.endpoint = Endpoint(self.rules, spec["seed"], FIXED_S, PROMPT_TOKEN_S,
                                 ANSWER_TOKEN_S, REFUSE_SHARE)
        self.tracer = Tracer()
        self._install(spec["trace"])

    # -- instrumentation ------------------------------------------------------

    def _install(self, trace: bool) -> None:
        from cti2stix import attack_patterns, cli, entity_pipeline, exporter, ingest, llm

        t = self.tracer
        endpoint = self.endpoint

        def set_report(source: str, *args: Any, **kwargs: Any) -> None:
            endpoint.context.report = Path(source).stem

        llm._requests_transport = endpoint
        # the one timer untraced passes carry: each report's unit of work
        t.wrap(cli, "_extract_one", "report",
               report=lambda source, *a, **k: Path(source).stem, before=set_report)
        if not trace:
            return

        t.wrap(llm, "_requests_transport", "llm.wait")
        t.wrap(cli, "report_from_path", "ingest",
               counts=lambda r, *a, **k: {"sentences": len(r.sentences)})
        t.wrap(ingest, "extract_article", "ingest.html")
        for module in (ingest, entity_pipeline, attack_patterns):
            t.wrap(module, "segment_sentences", "ingest.segment")
        t.wrap(cli, "run_entity_pipeline", "entity_pipeline")
        t.wrap(entity_pipeline, "condense", "condense")
        t.wrap(entity_pipeline, "extract_entities", "extract")
        t.wrap(entity_pipeline, "verify_entity", "verify")
        t.wrap(entity_pipeline, "extract_relations", "relate")
        t.wrap(entity_pipeline, "ioc_entities", "iocs",
               counts=lambda r, *a, **k: {"matches": len(r)})
        t.wrap(llm.HttpProvider, "complete", "llm.complete")
        t.wrap(llm.HttpProvider, "embed", "llm.embed",
               counts=lambda r, self, texts, *a, **k: {"texts": len(texts)})
        for method in ("get_completion", "get_embedding"):
            t.wrap_counter(llm.ResponseCache, method,
                           lambda r, *a, **k: {"cache_hits" if r is not None else "cache_misses": 1})
        t.wrap(cli, "load_catalog", "catalog.load",
               counts=lambda r, path, *a, **k: {"entries": len(r.entries),
                                                "mb": os.path.getsize(path) / 1e6})
        t.wrap(cli, "run_attack_pattern_pipeline", "attack_patterns")
        for strategy in ("vte", "sbsa", "ot"):
            t.wrap(attack_patterns, f"strategy_{strategy}", f"strategy.{strategy}",
                   counts=lambda r, *a, **k: {"candidates": len(r)})
        t.wrap(attack_patterns, "classify_vector", "classify",
               counts=lambda r, vector, catalog, *a, **k: {"pairs": len(catalog.entries)})
        t.wrap(cli, "assemble_and_validate", "exporter")
        t.wrap(exporter, "assemble_bundle", "assemble")
        t.wrap(exporter, "validate_bundle", "validate")
        t.wrap(cli, "save_bundle", "serialize",
               counts=lambda r, bundle, *a, **k: {
                   "objects": len(bundle.entities) + len(bundle.relations),
                   "mb": len(r.encode("utf-8")) / 1e6})
        t.wrap(entity_pipeline.AuditTrail, "to_jsonl", "audit",
               counts=lambda r, self, *a, **k: {"events": len(self.events)})
        t.wrap(cli, "load_bundle", "eval.load")
        t.wrap(cli, "score_bundle", "eval.score")

    # -- one round --------------------------------------------------------------

    def _command(self, name: str, argv: list[str]) -> tuple[int, float, float]:
        """Run one CLI command in process; (exit code, start, seconds).  The
        heap is collected first, outside the timer, so that a command does not
        pay for the garbage of the ones before it, as a fresh process would
        not; without it ioc-heavy rounds after the first ran 20-30% slower."""
        gc.collect()
        start = time.perf_counter()
        with self.tracer.span(f"cmd.{name}"):
            code = self.cli.main(argv)
        return code, start, time.perf_counter() - start

    def _provider_flags(self, cache: Path) -> list[str]:
        return ["--set", f"provider.cache_path={cache}",
                "--set", f"provider.retry_backoff={RETRY_BACKOFF_S}"]

    def run_round(self, n: int) -> dict:
        rd = self.work / f"round-{n}"
        if rd.exists():
            shutil.rmtree(rd)
        out = rd / "out"
        argv = ["extract", *self.inputs, "--out-dir", str(out), "--jobs", str(JOBS),
                *self._provider_flags(rd / "cache.jsonl"),
                *_extract_flags(self.workload, self.spec.get("catalog", ""))]
        mark = len(self.tracer.spans)
        code, t0, extract_s = self._command("extract", argv)
        counters = self.endpoint.reset()

        reports = {s.report: s.duration for s in self.tracer.spans[mark:] if s.name == "report"}
        starts = [s.start for s in self.tracer.spans[mark:] if s.name == "report"]
        setup_s = (min(starts) - t0) if starts else extract_s

        # eval takes milliseconds on small bundles, so when tracing (eval_s is
        # a per-layer metric) it repeats until it has run for EVAL_MIN_S;
        # every repeat reads the same bundles
        eval_argv = ["eval", "--extracted", str(out), "--gt", str(self.fixtures / "gt"),
                     "--out-dir", str(rd / "scores")]
        ecode, _, eval_s = self._command("eval", eval_argv)
        eval_samples = [eval_s]
        while self.spec["trace"] and sum(eval_samples) < EVAL_MIN_S:
            eval_samples.append(self._command("eval", eval_argv)[2])
        self.endpoint.reset()

        result = {
            "setup_s": setup_s, "extract_s": extract_s, "eval_s": eval_samples,
            "report_s": reports, "counters": counters,
        }
        self._check_round(n, code, ecode, out, rd / "scores" / "scores.json", counters, result)
        return result

    # -- checks ----------------------------------------------------------------

    def _fail(self, message: str) -> None:
        if len(self.failures) < 50:
            self.failures.append(message)

    def _check_round(self, n: int, code: int, ecode: int, out: Path, scores_path: Path,
                     counters: dict, result: dict) -> None:
        if code != 0:
            self._fail(f"round {n}: extract exited {code}")
        if ecode != 0:
            self._fail(f"round {n}: eval exited {ecode}")
        summary_path = out / "summary.json"
        if not summary_path.exists():
            self._fail(f"round {n}: no summary.json")
            return
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        result["ok"] = len(summary["ok"])
        result["failed"] = len(summary["failed"])
        if summary["failed"] or sorted(summary["ok"]) != sorted(self.inputs):
            self._fail(f"round {n}: summary.json failed={sorted(summary['failed'])[:3]}")
        for source, entry in summary["reports"].items():
            if entry["violations"]:
                self._fail(f"round {n}: {Path(source).stem} has violations {entry['violations'][:3]}")

        # byte-identical bundles across rounds (and, in run.py, across passes)
        digests = {}
        for rid in self.report_ids:
            path = out / f"{rid}.bundle.json"
            if not path.exists():
                self._fail(f"round {n}: missing bundle {path.name}")
                continue
            digests[rid] = _sha256(path)
        result["digests"] = digests

        # exactly the planted indicators and CVEs, refanged and normalized
        for rid, expected in self.manifest["expected_observables"].items():
            path = out / f"{rid}.bundle.json"
            if path.exists():
                objects = json.loads(path.read_text(encoding="utf-8"))["objects"]
                found = [o["name"] for o in objects if o["type"] in ("indicator", "vulnerability")]
                if observables_digest(found) != expected["sha256"]:
                    self._fail(f"round {n}: the {len(found)} indicators and vulnerabilities "
                               f"of {rid} differ from the {expected['count']} planted")

        # audit prompts = answered completions + response-cache hits, per report;
        # a hit is a prompt already issued earlier in input order
        seen: set[str] = set()
        audit_stats = defaultdict(float)
        for rid in self.report_ids:
            path = out / f"{rid}.audit.jsonl"
            if not path.exists():
                self._fail(f"round {n}: missing audit {path.name}")
                continue
            events = _audit_events(path)
            prompts = [e["text"] for e in events if e["event"] == "prompt"]
            fresh = 0
            for text in prompts:
                if text not in seen:
                    fresh += 1
                    seen.add(text)
            answered = sum(row.get("answered", 0) for (report, stage), row in counters.items()
                           if report == rid and stage != "embed")
            if answered != fresh:
                self._fail(f"round {n}: {rid} audit has {len(prompts)} prompts ({fresh} uncached) "
                           f"but the endpoint answered {answered}")
            audit_stats["prompts"] += len(prompts)
            audit_stats["cache_hits"] += len(prompts) - fresh
            for e in events:
                if e["event"] != "decision":
                    continue
                if e["stage"] == "condense" and e.get("outcome") == "iteration":
                    audit_stats["condense_iterations"] += 1
                elif e["stage"] == "verify":
                    audit_stats["verify_checked"] += 1
                    audit_stats["verify_literal"] += e.get("outcome") == "literal"
                elif e["stage"] == "relations" and "rule" not in e and \
                        e.get("outcome") != "skipped-no-admissible-kinds":
                    audit_stats["relation_pairs"] += 1
                    audit_stats["relation_useful"] += e.get("outcome") != "none"
        result["audit"] = dict(audit_stats)

        # scores equal the generator's expectation
        if scores_path.exists():
            aggregate = json.loads(scores_path.read_text(encoding="utf-8"))["aggregate"]
            f1 = {kind: aggregate[kind]["f1"]["mean"] for kind in aggregate if aggregate[kind]["f1"].get("n")}
            result["f1"] = f1
            for kind, expected in self.manifest["expected_f1"].items():
                if abs(f1.get(kind, -1.0) - expected) > 1e-9:
                    self._fail(f"round {n}: f1.{kind} = {f1.get(kind)}, expected {expected:.6f}")
        else:
            self._fail(f"round {n}: eval wrote no scores.json")

    def calibrate(self) -> dict:
        rd = self.work / "calibrate"
        if rd.exists():
            shutil.rmtree(rd)
        code, _, seconds = self._command(
            "calibrate", ["calibrate", "--gt", str(self.fixtures / "gt"),
                          "--catalog", self.spec["catalog"], "--out-dir", str(rd),
                          *self._provider_flags(rd / "cache.jsonl")])
        counters = self.endpoint.reset()
        if code != 0:
            self._fail(f"calibrate exited {code}")
        else:
            payload = json.loads((rd / "calibration.json").read_text(encoding="utf-8"))
            expected = self.manifest["expected_f1"]["attack_pattern"]
            # verbatim examples score 1.0 and everything else far below 0.70,
            # so every threshold ties and the strictest one wins
            if payload["best_threshold"] != 0.95 or abs(payload["best_mean_f1"] - expected) > 1e-9:
                self._fail(f"calibrate: best {payload['best_threshold']} "
                           f"(mean F1 {payload['best_mean_f1']}), expected 0.95 ({expected:.6f})")
        return {"calibrate_s": seconds, "counters": counters}

    # -- the pass ------------------------------------------------------------------

    def run(self) -> dict:
        rounds = []
        for n in range(self.spec["rounds"]):
            rounds.append(self.run_round(n))
            if n:
                shutil.rmtree(self.work / f"round-{n}", ignore_errors=True)
        # calibration feeds per-layer numbers only, so untraced passes skip it
        calibration = (self.calibrate() if self.workload == "technique-dense"
                       and self.spec["trace"] else None)

        for n, r in enumerate(rounds[1:], 1):
            if r.get("digests") != rounds[0].get("digests"):
                self._fail(f"round {n}: bundles differ from round 0")
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out = {
            "rounds": [{k: v for k, v in r.items() if k not in ("counters", "digests")}
                       for r in rounds],
            "digests": rounds[0].get("digests", {}),
            "counters": _sum_counters(r["counters"] for r in rounds),
            "calibrate_s": calibration["calibrate_s"] if calibration else None,
            "peak_rss_mb": rss_mb,
            "failures": self.failures,
        }
        if self.spec["trace"]:
            out["layers"] = self.layers(rounds, calibration)
            self.tracer.write(self.work / "spans.jsonl")
        self.tracer.restore()
        return out

    # -- per-layer numbers -------------------------------------------------------------

    def layers(self, rounds: list[dict], calibration: dict | None) -> dict[str, float]:
        spans = self.tracer.spans
        selfs = self.tracer.self_times()
        roots = self.tracer.roots()
        n_reports = sum(len(r["report_s"]) for r in rounds) or 1

        self_s: dict[str, float] = defaultdict(float)  # report scope, summed
        incl_s: dict[str, float] = defaultdict(float)
        calls: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        per_command: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(spans):
            root = spans[roots[i]]
            if root.name == "report":
                self_s[s.name] += selfs[i]
                incl_s[s.name] += s.duration
                calls[s.name] += 1
                for key, value in s.counts.items():
                    counts[f"{s.name}.{key}"] += value
            else:
                bucket = per_command[roots[i]]
                bucket[s.name + ".self"] += selfs[i]
                bucket[s.name + ".incl"] += s.duration
                for key, value in s.counts.items():
                    bucket[f"{s.name}.{key}"] += value

        def by_command(cmd: str, key: str) -> list[float]:
            return [b.get(key, 0.0) for i, b in per_command.items() if spans[i].name == cmd]

        from tracer import median

        stage = _sum_counters(r["counters"] for r in rounds)
        by_stage: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (report, st), row in stage.items():
            if report != "-":
                for k, v in row.items():
                    by_stage[st][k] += v
        audit = defaultdict(float)
        for r in rounds:
            for k, v in r.get("audit", {}).items():
                audit[k] += v

        def per_report(value: float) -> float:
            return value / n_reports

        def share(num: float, den: float) -> float:
            return num / den if den else 0.0

        candidates = sum(counts[f"strategy.{s}.candidates"] for s in ("vte", "sbsa", "ot"))
        requests = sum(row["requests"] for row in by_stage.values())
        refused = sum(row.get("refused", 0) for row in by_stage.values())
        report_wall = sum(sum(r["report_s"].values()) for r in rounds)
        m = {
            "ingest.s": per_report(self_s["ingest"]),
            "ingest.html_s": per_report(self_s["ingest.html"]),
            "ingest.segment_s": per_report(self_s["ingest.segment"]),
            "ingest.sentences": per_report(counts["ingest.sentences"]),
            "condense.s": per_report(self_s["condense"]),
            "condense.calls": per_report(by_stage["condense"]["answered"]),
            "condense.prompt_tokens": per_report(by_stage["condense"]["prompt_tokens"]),
            "condense.iterations": per_report(audit["condense_iterations"]),
            "extract.s": per_report(self_s["extract"]),
            "extract.calls": per_report(by_stage["extract"]["answered"]),
            "extract.prompt_tokens": per_report(by_stage["extract"]["prompt_tokens"]),
            "verify.s": per_report(self_s["verify"]),
            "verify.calls": per_report(by_stage["verify"]["answered"]),
            "verify.literal_share": share(audit["verify_literal"], audit["verify_checked"]),
            "relate.s": per_report(self_s["relate"]),
            "relate.calls": per_report(by_stage["relate"]["answered"]),
            "relate.useful_share": share(audit["relation_useful"], audit["relation_pairs"]),
            "entity_pipeline.self_s": per_report(self_s["entity_pipeline"]),
            "iocs.s": per_report(self_s["iocs"]),
            "iocs.matches": per_report(counts["iocs.matches"]),
            "llm.requests": per_report(requests),
            "llm.wait_s": per_report(self_s["llm.wait"]),
            "llm.overhead_s": per_report(self_s["llm.complete"] + self_s["llm.embed"]),
            "llm.retries": per_report(refused),
            "llm.cache_hits": per_report(counts["llm.complete.cache_hits"] + counts["llm.embed.cache_hits"]),
            "llm.cache_misses": per_report(counts["llm.complete.cache_misses"] + counts["llm.embed.cache_misses"]),
            "llm.answer_tokens": per_report(sum(row.get("answer_tokens", 0)
                                                for row in by_stage.values())),
            "llm.embed_requests": per_report(by_stage["embed"]["answered"]),
            "llm.embed_texts": per_report(by_stage["embed"]["texts"]),
            "catalog.load_s": median(by_command("cmd.extract", "catalog.load.incl")),
            "catalog.entries": median(by_command("cmd.extract", "catalog.load.entries")),
            "catalog.mb": median(by_command("cmd.extract", "catalog.load.mb")),
            "strategy.vte.s": per_report(self_s["strategy.vte"]),
            "strategy.sbsa.s": per_report(self_s["strategy.sbsa"]),
            "strategy.ot.s": per_report(self_s["strategy.ot"]),
            "candidates.vte": per_report(counts["strategy.vte.candidates"]),
            "candidates.sbsa": per_report(counts["strategy.sbsa.candidates"]),
            "candidates.ot": per_report(counts["strategy.ot.candidates"]),
            "candidates.unique_share": share(counts["llm.embed.texts"], candidates),
            "embed.s": per_report(incl_s["llm.embed"]),
            "embed.texts": per_report(counts["llm.embed.texts"]),
            "classify.s": per_report(self_s["classify"]),
            "classify.calls": per_report(calls["classify"]),
            "classify.pairs": per_report(counts["classify.pairs"]),
            "assemble.s": per_report(self_s["assemble"]),
            "validate.s": per_report(self_s["validate"]),
            "serialize.s": per_report(self_s["serialize"]),
            "bundle.objects": per_report(counts["serialize.objects"]),
            "bundle.mb": per_report(counts["serialize.mb"]),
            "audit.s": per_report(self_s["audit"]),
            "audit.events": per_report(counts["audit.events"]),
            "cli.self_s": per_report(self_s["report"]),
            "eval.load_s": median(by_command("cmd.eval", "eval.load.self")),
            "eval.score_s": median(by_command("cmd.eval", "eval.score.self")),
            "trace.residual_share": share(self_s["report"], report_wall),
        }
        if calibration is not None:
            pipeline = median(by_command("cmd.calibrate", "attack_patterns.incl"))
            load = median(by_command("cmd.calibrate", "catalog.load.incl"))
            m["calibrate.pipeline_s"] = pipeline
            m["calibrate.sweep_s"] = calibration["calibrate_s"] - pipeline - load
        else:
            m["calibrate.pipeline_s"] = 0.0
            m["calibrate.sweep_s"] = 0.0
        if m["trace.residual_share"] > RESIDUAL_TOLERANCE:
            self._fail(f"traced stages leave {m['trace.residual_share']:.1%} of report wall time "
                       f"unattributed (tolerance {RESIDUAL_TOLERANCE:.0%})")
        return m


def _sum_counters(rows) -> dict:
    total: dict = defaultdict(lambda: defaultdict(float))
    for counters in rows:
        for key, row in counters.items():
            for name, value in row.items():
                total[key][name] += value
    return total


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    os.environ.setdefault("OPENAI_API_KEY", "stand-in-key")
    result = Pass(spec).run()
    result["numpy"] = numpy.__version__
    # counters are keyed by (report, stage); JSON needs string keys
    result["counters"] = {f"{r}|{s}": row for (r, s), row in result["counters"].items()}
    Path(spec["out"]).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
