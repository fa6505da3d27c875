#!/usr/bin/env python3
"""Hermetic benchmark of the report -> STIX pipeline.

    python3 perfbench/run.py --workload batch-prose --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed (cached under ``.perfbench/``,
outside every timed region), runs the real CLI against a deterministic model
endpoint stand-in in a child process, checks the outputs, and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with no instrumentation but one timer around each report.  With
``--trace 1`` the run makes an untraced pass and a traced pass of half the
length each; the metrics are the per-layer ones from the traced pass, plus
the tracing overhead against the untraced pass.  Any failed output check
makes the exit code 1.  See perfbench/README.md for workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
TIME_LIMIT_S = 170.0
MIN_ROUNDS = 3  # untraced passes: at least three set-ups and eval runs
# Seconds one round (extract + eval over the corpus) takes on a 2-vCPU x86
# machine.  --seconds fixes the number of rounds through these, so the same
# --seconds always measures the same work on every commit.
NOMINAL_ROUND_S = {"batch-prose": 11.0, "ioc-heavy": 10.0, "technique-dense": 7.0}
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail value


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _provenance(seed: int, manifest: dict, catalog: Optional[Path],
                numpy_version: str) -> dict[str, Any]:
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src_hash.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():  # a directory, or a file in a worktree
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git rev-parse failed)"
    sizes = dict(manifest["sizes"])
    if catalog is not None:
        sizes["catalog_mb"] = round(catalog.stat().st_size / 1e6, 3)
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "inputs": sizes,
    }


def _run_pass(name: str, spec: dict, deadline: float) -> dict:
    """Run one worker process to completion (or kill it at the deadline)."""
    work = Path(spec["work"])
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
    log_path = work.parent / f"{name}.log"
    with log_path.open("w", encoding="utf-8") as log:
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
                                cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"failures": [f"{name}: worker exceeded the time limit"], "log": str(log_path)}
    out = Path(spec["out"])
    if code != 0 or not out.exists():
        tail = log_path.read_text(encoding="utf-8", errors="replace").splitlines()[-15:]
        return {"failures": [f"{name}: worker exited {code}"] + tail, "log": str(log_path)}
    result = json.loads(out.read_text(encoding="utf-8"))
    result["log"] = str(log_path)
    return result


def _tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest sample with TAIL_BEYOND samples beyond
    it, i.e. the 11th largest, when that lies above the median; with too few
    samples for that (21 or fewer), the largest."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1
    if k <= (n - 1) / 2:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / n


def _report_samples(result: dict) -> list[float]:
    return [t for r in result.get("rounds", []) for t in r["report_s"].values()]


def end_to_end(result: dict) -> tuple[dict[str, float], dict[str, Any]]:
    rounds = result["rounds"]
    samples = _report_samples(result)
    n_reports = len(samples)
    answered = tokens = 0.0
    for key, row in result["counters"].items():
        report, stage = key.split("|")
        if report != "-" and stage != "embed":
            answered += row.get("answered", 0)
            tokens += row.get("prompt_tokens", 0)
    tail, tail_pct = _tail(samples)
    f1 = rounds[-1].get("f1", {})
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "reports_per_s": n_reports / sum(r["extract_s"] for r in rounds),
        "report_s.p50": statistics.median(samples),
        "report_s.tail": tail,
        "completion_calls_per_report": answered / n_reports,
        "prompt_tokens_per_report": tokens / n_reports,
        "ok_share": sum(r.get("ok", 0) for r in rounds) / n_reports,
        # a mean, not a median: eval runs in short bursts after each round,
        # and on a shared host CPU speed drifts in phases of seconds; the
        # median of a two-phase mixture jumps between phases, the mean moves
        # with the mixture
        "eval_s": statistics.mean(t for r in rounds for t in r["eval_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "f1.malware": f1.get("malware", 0.0),
        "f1.threat_actor": f1.get("threat_actor", 0.0),
        "f1.target": f1.get("target", 0.0),
    }
    notes = {"rounds": len(rounds), "report_samples": n_reports,
             "tail_percentile": round(tail_pct, 2)}
    return metrics, notes


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small reports, for the structure self-check")
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S

    src = ROOT / "src"
    if not (src / "cti2stix" / "cli.py").is_file():
        return _fail_usage(f"no program sources at {src / 'cti2stix'}; "
                           "run from a checkout of the repository")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in workloads:
        return _fail_usage(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    if args.seconds <= 0:
        return _fail_usage("--seconds must be positive")
    # this process imports neither numpy nor the program: a child inherits
    # its parent's peak RSS, and the worker's peak RSS is a metric
    generated = subprocess.run(
        [sys.executable, str(BENCH_DIR / "corpus.py"), "--src", str(src),
         *(["--tiny"] if args.size == "tiny" else []), str(STATE), args.workload, str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=deadline - time.monotonic())
    if generated.returncode != 0:
        print(generated.stderr[-3000:], file=sys.stderr)
        return _fail_usage("fixture generation failed")
    located = json.loads(generated.stdout.strip().splitlines()[-1])
    fixtures = Path(located["fixtures"])
    catalog = Path(located["catalog"]) if "catalog" in located else None
    manifest = json.loads((fixtures / "manifest.json").read_text(encoding="utf-8"))

    # keep only this run's working files for the workload: bundles of
    # ioc-heavy rounds run to megabytes
    for old in (STATE / "work").glob(f"{args.workload}-*"):
        shutil.rmtree(old)
    run_dir = STATE / "work" / f"{args.workload}-s{args.seed}-t{args.trace}"

    def spec(name: str, seconds: float, trace: bool, min_rounds: int) -> dict:
        rounds = max(min_rounds, round(seconds / NOMINAL_ROUND_S[args.workload]))
        return {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                "trace": trace, "src": str(src),
                "fixtures": str(fixtures), "catalog": str(catalog) if catalog else "",
                "work": str(run_dir / name), "out": str(run_dir / name / "result.json")}

    if args.trace:
        passes = {"untraced": _run_pass("untraced", spec("untraced", args.seconds / 2, False, 1), deadline)}
        passes["traced"] = _run_pass("traced", spec("traced", args.seconds / 2, True, 1), deadline)
    else:
        passes = {"untraced": _run_pass("untraced", spec("untraced", args.seconds, False, MIN_ROUNDS),
                                        deadline)}

    failures = [f"{name}: {f}" for name, r in passes.items() for f in r.get("failures", [])]
    complete = all("rounds" in r for r in passes.values())
    if complete and args.trace and passes["traced"]["digests"] != passes["untraced"]["digests"]:
        failures.append("traced and untraced passes wrote different bundles")

    attempted = sum(len(r.get("rounds", [])) * len(manifest["inputs"]) for r in passes.values())
    failed = sum(rd.get("failed", 0) for r in passes.values() for rd in r.get("rounds", []))
    metrics: dict[str, float] = {}
    notes: dict[str, Any] = {}
    if complete:
        untraced, notes = end_to_end(passes["untraced"])
        if args.trace:
            traced_e2e, traced_notes = end_to_end(passes["traced"])
            layers = dict(passes["traced"]["layers"])
            calibrate_s = passes["traced"]["calibrate_s"]
            layers["calibrate_s"] = calibrate_s if calibrate_s is not None else 0.0
            layers["f1.attack_pattern"] = passes["traced"]["rounds"][-1].get("f1", {}).get(
                "attack_pattern", 0.0)
            layers["eval_s"] = traced_e2e["eval_s"]
            layers["trace.report_s.p50"] = traced_e2e["report_s.p50"]
            layers["trace.overhead_share"] = (
                traced_e2e["report_s.p50"] / untraced["report_s.p50"] - 1.0)
            metrics = layers
            notes = {"untraced": notes, "traced": traced_notes,
                     "untraced_end_to_end": untraced, "traced_end_to_end": traced_e2e}
        else:
            metrics = untraced

    specs = {m["name"]: m for m in benchmark["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(specs) - set(metrics))
    if complete and missing:
        failures.append(f"metrics missing from the result: {', '.join(missing)}")
    correct = complete and not failures

    provenance = _provenance(args.seed, manifest, catalog,
                             passes["untraced"].get("numpy", "unknown"))
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "size": args.size, "provenance": provenance, "notes": notes,
              "metrics": metrics, "failures": failures,
              "wall_s": time.monotonic() - started}
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{json.dumps(notes, sort_keys=True)}")
    print(f"provenance: {json.dumps(provenance, sort_keys=True)}")
    if args.trace and complete:
        _print_layers(metrics, statistics.mean(_report_samples(passes["traced"])))
    for name in specs:
        if name in metrics:
            print(f"  {name:<28} {metrics[name]:>14.6g} {specs[name]['unit']}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")

    result = {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": specs[name]["unit"]}
                    for name in specs if name in metrics},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def _print_layers(m: dict[str, float], wall: float) -> None:
    """Where report time went in the traced pass, as shares of mean report
    wall time."""
    groups = {
        "model wait (llm.wait_s)": m["llm.wait_s"],
        "local CPU (entity_pipeline.self_s + iocs.s + assemble.s + validate.s)":
            m["entity_pipeline.self_s"] + m["iocs.s"] + m["assemble.s"] + m["validate.s"],
        "classification (classify.s)": m["classify.s"],
    }
    print("report time shares (traced pass):")
    for label, value in sorted(groups.items(), key=lambda kv: -kv[1]):
        print(f"  {value / wall:6.1%}  {label}")
    print(f"  tracing overhead on report_s.p50: {m['trace.overhead_share']:+.1%}")


if __name__ == "__main__":
    sys.exit(main())
