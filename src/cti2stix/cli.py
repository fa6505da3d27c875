"""Command-line front end.

Subcommands:

* ``extract``        — reports (files or URLs) -> STIX bundles + audit logs
* ``eval``           — extracted bundles vs ground truth -> scores.json/.csv
* ``catalog build``  — ATT&CK export -> embedded technique catalog file, in
  the layout :mod:`cti2stix.catalog` gives; an older version's file is
  refused by ``extract`` and ``calibrate`` (exit 2), and rebuilt by this
* ``calibrate``      — sweep the similarity threshold against ground truth
* ``config show``    — print the effective configuration

Exit codes: 0 everything worked, 1 the run finished but some reports failed
(or produced validation violations), 2 the invocation itself was wrong —
bad flags, bad config, missing files, an unreadable or malformed catalog, or
one built by another embedding model than the provider's.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import threading
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from .attack_patterns import (
    TechniqueMatch,
    embed_candidates,
    run_attack_pattern_pipeline,
    score_candidates,
)
from .audit import AuditTrail
from .catalog import CatalogError, TechniqueCatalog, build_catalog, load_catalog
from .config import PROVIDER_KINDS, AppConfig, ConfigError, dump_config, load_config, make_provider
from .entity_pipeline import CondensationError, run_entity_pipeline
from .evaluation import (
    GroundTruth,
    filter_without_explicit_ids,
    load_ground_truth_dir,
    match_entities,
    score_bundle,
    score_matches,
    scores_payload,
    summarize,
    truth_for_kind,
    write_scores,
)
from .exporter import assemble_and_validate
from .ingest import FetchError, load_plugins, make_report, report_from_path, report_from_url
from .llm import ProviderError
from .stix import load_bundle, replacing, save_bundle

logger = logging.getLogger(__name__)

OK, PARTIAL, USAGE = 0, 1, 2

_URL_PREFIXES = ("http://", "https://")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config value (repeatable)",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")


def _provider_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--provider", choices=PROVIDER_KINDS, help="provider kind")
    parser.add_argument("--script", help="scripted-provider rules (JSON)")
    parser.add_argument("--replay-cache", help="response cache for replay runs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cti2stix",
        description="threat-report text -> STIX 2.1 bundles, plus evaluation tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="extract entities and techniques")
    p_extract.add_argument("inputs", nargs="+", metavar="FILE_OR_URL")
    p_extract.add_argument("--out-dir", required=True)
    p_extract.add_argument("--catalog",
                           help="technique catalog file from `catalog build`; omit to skip techniques")
    p_extract.add_argument("--plugins", help="site plugin YAML for HTML extraction")
    p_extract.add_argument("--preprocessing", choices=("on", "off"))
    p_extract.add_argument("--strategies", help="comma list: vte,sbsa,ot")
    p_extract.add_argument("--threshold", type=float, help="similarity threshold")
    p_extract.add_argument("--jobs", type=int, default=1, help="parallel reports (at least 1)")
    _provider_flags(p_extract)
    _add_common(p_extract)

    p_eval = sub.add_parser("eval", help="score extracted bundles against ground truth")
    p_eval.add_argument("--extracted", required=True, help="directory of *.bundle.json")
    p_eval.add_argument("--gt", required=True, help="ground-truth directory")
    p_eval.add_argument("--out-dir", required=True)
    p_eval.add_argument("--kinds", help="comma list of evaluation kinds")
    p_eval.add_argument("--subset-rule", choices=("on", "off"))
    _add_common(p_eval)

    p_catalog = sub.add_parser("catalog", help="technique catalog operations")
    catalog_sub = p_catalog.add_subparsers(dest="action", required=True)
    p_build = catalog_sub.add_parser(
        "build", help="embed an ATT&CK export into a catalog file (rebuilds an older one)")
    p_build.add_argument("--attack-json", required=True)
    p_build.add_argument("--out", required=True)
    _provider_flags(p_build)
    _add_common(p_build)

    p_cal = sub.add_parser("calibrate", help="sweep the similarity threshold")
    p_cal.add_argument("--gt", required=True, help="ground truth with report texts")
    p_cal.add_argument("--catalog", required=True)
    p_cal.add_argument("--out-dir", required=True)
    p_cal.add_argument("--low", type=float, default=0.70)
    p_cal.add_argument("--high", type=float, default=0.95)
    p_cal.add_argument("--step", type=float, default=0.01)
    _provider_flags(p_cal)
    _add_common(p_cal)

    p_config = sub.add_parser("config", help="configuration helpers")
    config_sub = p_config.add_subparsers(dest="action", required=True)
    p_show = config_sub.add_parser("show", help="print the effective configuration")
    _add_common(p_show)

    return parser


# (argparse dest, config key) of each flag that overrides a config key; a
# flag wins over --set
_FLAG_KEYS = (
    ("provider", "provider_kind"),
    ("script", "paths.script"),
    ("replay_cache", "provider.cache_path"),
    ("catalog", "paths.catalog"),
    ("plugins", "paths.plugins"),
    ("preprocessing", "pipeline.preprocessing"),
    ("strategies", "attack_patterns.strategies"),
    ("threshold", "attack_patterns.threshold"),
    ("subset_rule", "eval.subset_rule"),
    ("kinds", "eval.kinds"),
)


def _config_from_args(args: argparse.Namespace) -> AppConfig:
    overrides: dict[str, Any] = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs SECTION.KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()

    for dest, key in _FLAG_KEYS:
        value = getattr(args, dest, None)
        if value is not None and value != "":  # an empty flag is ignored; 0 applies
            overrides[key] = value

    return load_config(args.config, overrides)


def _load_report(source: str, plugins: Sequence) -> Any:
    if source.startswith(_URL_PREFIXES):
        return report_from_url(source, plugins=plugins)
    path = Path(source)
    if not path.exists():
        raise FileNotFoundError(f"no such report file: {source}")
    return report_from_path(path, plugins=plugins)


def _size_class(source: str) -> float:
    """The bit length of a local file's size in bytes; infinite for a URL or
    a path that cannot be stat-ed, whose size is unknown."""
    if source.startswith(_URL_PREFIXES):
        return math.inf
    try:
        return os.stat(source).st_size.bit_length()
    except OSError:
        return math.inf


def _out_dir(value: str | Path, flag: str = "--out-dir") -> Path:
    """*value* as a path, checked before any work and creating nothing:
    :class:`ConfigError` unless it or its nearest existing ancestor is a directory."""
    path = Path(value)
    at = next(p for p in (path, *path.parents) if p.exists())
    if not at.is_dir():
        raise ConfigError(f"{flag}: {at} is not a directory")
    return path


def _extract_one(source: str, config: AppConfig, provider: Any,
                 catalog: Optional[Future[TechniqueCatalog]], scoring: Executor,
                 plugins: Sequence, out_dir: Path,
                 claim: Callable[[str, str], bool]) -> Optional[dict[str, Any]]:
    report = _load_report(source, plugins)
    if not claim(report.id, source):  # before any model call
        return None  # an earlier input holds the id; claim records the failure
    # one trail holds both pipelines' events, numbered once
    audit = AuditTrail(report.id)
    scored: Optional[Future[list[TechniqueMatch]]] = None
    if catalog is not None:
        # every model call stays on this thread: the technique prompts and
        # embedding come first, then *scoring* waits for the catalog and
        # scores the candidates while the entity pipeline runs.  The
        # technique events go on a trail of their own, appended after the
        # entity pipeline's
        techniques = AuditTrail(report.id)
        vectors = embed_candidates(report, provider, techniques, config.attack_patterns)
        if catalog.done() and catalog.exception() is not None:
            raise catalog.exception()  # the run is ending: skip the entity prompts
        scored = scoring.submit(lambda: score_candidates(
            report, vectors, catalog.result(), techniques, config.attack_patterns))
    entity_bundle = run_entity_pipeline(report, provider, audit, config.pipeline)
    matches = []
    if scored is not None:
        matches = scored.result()
        audit.extend(techniques)

    bundle, violations = assemble_and_validate(entity_bundle, matches)

    # the audit file first: a bundle on disk has its audit file beside it
    with replacing(out_dir / f"{report.id}.audit.jsonl") as fh:
        fh.write(audit.to_jsonl())
    bundle_path = out_dir / f"{report.id}.bundle.json"
    with replacing(bundle_path) as fh:
        fh.write(save_bundle(bundle))

    return {
        "report_id": report.id,
        "source": source,
        "bundle": bundle_path.name,
        "entities": len(bundle.entities),
        "relations": len(bundle.relations),
        "techniques": [m.technique_id for m in matches],
        "warnings": audit.warnings(),
        "violations": [v.code for v in violations],
    }


def _catalog_for(path: str | Path, provider: Any) -> TechniqueCatalog:
    """The catalog at *path*; :class:`CatalogError` when *provider* embeds
    with another model than the one that built it, whose scores would mean
    nothing."""
    catalog = load_catalog(path)
    model = provider.config.embedding_model
    if catalog.model != model:
        raise CatalogError(f"catalog {path} was built with {catalog.model}, but the provider "
                           f"embeds with {model}; rebuild it with `cti2stix catalog build`")
    return catalog


def _run_batch(keys: Sequence[str], work: Callable[[str], Any], jobs: int,
               fill: Optional[Future] = None, load: Optional[Callable[[], Any]] = None,
               ) -> tuple[dict[str, Any], dict[str, str]]:
    """``work(key)`` for each of *keys*, started in order on *jobs* threads, as
    ``(results, failures)``: each result but None, and each error as
    ``"<Type>: <message>"``.  Meanwhile this thread sets *fill*, a future the
    work may wait on, to ``load()``; if that raises, the keys not started are
    cancelled, and that error alone ends the run."""
    results: dict[str, Any] = {}
    failures: dict[str, str] = {}

    def run(key: str) -> None:
        try:
            result = work(key)
            if result is not None:
                results[key] = result
        except Exception as exc:  # one bad report must not sink the batch
            if fill is not None and fill.done() and fill.exception():
                return  # the load failed: that error ends the run, once
            logger.exception("%s failed: %s", key, exc)
            failures[key] = f"{type(exc).__name__}: {exc}"

    if fill is None and jobs == 1:  # nothing to do meanwhile: no thread of its own
        for key in keys:
            run(key)
        return results, failures
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        runs = [pool.submit(run, key) for key in keys]
        if fill is not None:
            try:
                fill.set_result(load())
            except BaseException as exc:
                # cancel the keys not yet started before releasing the
                # running ones, so that no further key asks the model
                pool.shutdown(wait=False, cancel_futures=True)
                fill.set_exception(exc)
                raise
    for done in runs:
        done.result()
    return results, failures


def _print_failures(failures: dict[str, str]) -> None:
    for key in sorted(failures):
        print(f"FAILED {key}: {failures[key]}")


def cmd_extract(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    config = _config_from_args(args)
    provider = make_provider(config)

    plugins: list = []
    if config.paths.plugins:
        try:
            plugins = load_plugins(config.paths.plugins)
        except ValueError as exc:
            raise ConfigError(f"plugins {config.paths.plugins}: {exc}") from exc
    # the catalog loads on this thread while the first reports run; only the
    # scoring thread waits for it
    catalog: Optional[Future[TechniqueCatalog]] = None
    if config.paths.catalog:
        catalog_path = Path(config.paths.catalog)
        if not catalog_path.exists():
            raise ConfigError(f"catalog not found: {catalog_path}")
        catalog = Future()
    else:
        logger.warning("no catalog configured; skipping technique extraction")

    out_dir = _out_dir(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # a report id names its output files, so the first input to claim it keeps it:
    # a local file claims its stem before any report starts, a URL its id once loaded
    collisions: dict[str, str] = {}
    claims: dict[str, str] = {}
    claims_lock = threading.Lock()

    def claim(report_id: str, source: str) -> bool:
        with claims_lock:
            owner = claims.setdefault(report_id, source)
        if owner != source:
            collisions[source] = f"report id collision with {owner}"
        return owner == source

    inputs = [source for source in dict.fromkeys(args.inputs)
              if source.startswith(_URL_PREFIXES) or claim(Path(source).stem, source)]
    # largest first, so that no long report starts last and runs alone
    # (Graham's LPT rule).  Sorting by size class, not size, keeps input order
    # among reports of about the same cost: a plain size sort would put
    # byte-identical inputs side by side, to run at once and both miss the
    # response cache.  The sort is stable, also under reverse.
    inputs.sort(key=_size_class, reverse=True)

    # one scoring thread: scoring passes over the catalog matrix contend for
    # memory bandwidth, so two at once take about as long as one after the
    # other.  The reports end first, and a failed report's scoring is
    # drained last
    with ThreadPoolExecutor(max_workers=1) as scoring:
        results, failures = _run_batch(inputs, lambda source: _extract_one(
            source, config, provider, catalog, scoring, plugins, out_dir, claim),
            args.jobs, catalog, lambda: _catalog_for(catalog_path, provider))
    failures.update(collisions)

    # the text before the file: made inside the block, it raised batch-prose's
    # peak RSS by about 0.5 MB (perfbench seed 5, 2-vCPU host)
    summary = {"ok": sorted(results), "failed": failures, "reports": results}
    text = json.dumps(summary, indent=2, ensure_ascii=False, sort_keys=True) + "\n"
    with replacing(out_dir / "summary.json") as fh:
        fh.write(text)

    for source in sorted(results):
        r = results[source]
        flags = ""
        if r["warnings"]:
            flags += f", {len(r['warnings'])} warnings"
        if r["violations"]:
            flags += f", VIOLATIONS: {','.join(r['violations'])}"
        print(
            f"{r['report_id']}: {r['entities']} entities, {r['relations']} relations"
            f"{flags} -> {r['bundle']}"
        )
    _print_failures(failures)

    if failures or any(r["violations"] for r in results.values()):
        return PARTIAL
    return OK


def _load_truth(gt_dir: str) -> dict[str, GroundTruth]:
    try:
        return load_ground_truth_dir(gt_dir)
    except ValueError as exc:  # a malformed file, named in the message
        raise ConfigError(str(exc)) from exc


def cmd_eval(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    extracted_dir = Path(args.extracted)
    if not extracted_dir.is_dir():
        raise ConfigError(f"not a directory: {extracted_dir}")
    out_dir = _out_dir(args.out_dir)
    truth = _load_truth(args.gt)
    if not truth:
        raise ConfigError(f"no ground truth found under {args.gt}")

    # each bundle is scored as it loads and dropped before the next loads,
    # so memory holds one bundle however many there are
    kinds = list(config.eval.kinds)
    bundle_ids = set()
    scores = {}
    for path in sorted(extracted_dir.glob("*.bundle.json")):
        report_id = path.name[: -len(".bundle.json")]
        bundle_ids.add(report_id)
        try:
            bundle = load_bundle(path)
        except ValueError as exc:  # JSON syntax errors included
            raise ConfigError(f"bundle {path}: {exc}") from exc
        if report_id in truth:
            scores[report_id] = {kind: s for kind, (_, s) in
                                 score_bundle(bundle, truth[report_id], kinds).items()}
        del bundle  # before the next one loads
    if not scores:
        raise ConfigError("no report ids shared between extracted bundles and ground truth")
    # in report-id order: path order differs ("a-b.bundle.json" sorts before
    # "a.bundle.json")
    per_report = dict(sorted(scores.items()))

    subset_ids = None
    if config.eval.subset_rule and "attack_pattern" in kinds:
        texts = {rid: truth[rid].text or "" for rid in per_report}
        subset_ids = {"attack_pattern": filter_without_explicit_ids(texts)}

    payload = scores_payload(per_report, subset_ids=subset_ids)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_scores(payload, out_dir / "scores.json", out_dir / "scores.csv")

    skipped = sorted(set(truth) ^ bundle_ids)
    if skipped:
        logger.warning("%d report ids had no counterpart: %s", len(skipped),
                       ", ".join(skipped[:5]))
    for kind, metrics in payload["aggregate"].items():
        f1 = metrics["f1"]
        if f1.get("n"):
            print(f"{kind}: mean F1 {f1['mean']:.3f} over {f1['n']} reports "
                  f"(p25 {f1['p25']:.3f}, p75 {f1['p75']:.3f})")
        else:
            print(f"{kind}: no reports in scope")
    print(f"wrote {out_dir / 'scores.json'} and {out_dir / 'scores.csv'}")
    return OK


def cmd_catalog_build(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    attack_json = Path(args.attack_json)
    if not attack_json.exists():
        raise ConfigError(f"no such file: {attack_json}")
    # before any embedding: save_catalog cannot replace a directory
    if Path(args.out).is_dir():
        raise ConfigError(f"--out {args.out} is a directory")
    _out_dir(Path(args.out).parent, "--out")
    provider = make_provider(config)
    catalog = build_catalog(attack_json, provider, cache_path=args.out)
    techniques = len(catalog.technique_names())
    print(f"catalog: {techniques} techniques, {len(catalog.vectors)} embedded texts "
          f"-> {args.out}")
    return OK


def _sweep(low: float, high: float, step: float) -> list[float]:
    out = []
    n = 0
    while True:
        t = round(low + n * step, 10)
        if t > high + 1e-9:
            break
        out.append(round(t, 4))
        n += 1
    return out


# calibration.json keys each threshold by two decimals, so a grid over the
# cosine range [-1, 1] holds at most this many distinct thresholds
_MAX_THRESHOLDS = 201


def _threshold_key(threshold: float) -> str:
    return f"{threshold:.2f}"


def _calibration_grid(low: float, high: float, step: float) -> list[float]:
    """The thresholds ``calibrate`` sweeps; raises :class:`ConfigError` on
    bounds that are not finite or leave the cosine range, a step that is not
    positive, or a grid whose thresholds would share a key."""
    if not all(map(math.isfinite, (low, high, step))):
        raise ConfigError("--low, --high and --step must be finite numbers")
    if step <= 0:
        raise ConfigError(f"--step must be positive, got {step}")
    if low > high:
        raise ConfigError(f"--low {low} is above --high {high}")
    if low < -1 or high > 1:
        raise ConfigError(f"--low {low} and --high {high} must lie in the cosine range [-1, 1]")
    if (high - low) / step >= _MAX_THRESHOLDS:
        raise ConfigError(f"--step {step} from {low} to {high} gives more than "
                          f"{_MAX_THRESHOLDS} thresholds")
    thresholds = _sweep(low, high, step)
    keys: dict[str, float] = {}
    for t in thresholds:
        other = keys.setdefault(_threshold_key(t), t)
        if other != t:
            raise ConfigError(f"thresholds {other} and {t} share the key {_threshold_key(t)} "
                              f"of calibration.json; use a coarser --step")
    return thresholds


def cmd_calibrate(args: argparse.Namespace) -> int:
    thresholds = _calibration_grid(args.low, args.high, args.step)
    config = _config_from_args(args)
    out_dir = _out_dir(args.out_dir)
    provider = make_provider(config)
    catalog = _catalog_for(args.catalog, provider)
    truth = _load_truth(args.gt)

    eligible: dict[str, GroundTruth] = {}
    for report_id, gt in truth.items():
        if gt.text and gt.entities.get("attack_pattern"):
            eligible[report_id] = gt
    if config.eval.subset_rule:
        keep = set(filter_without_explicit_ids({rid: gt.text for rid, gt in eligible.items()}))
        eligible = {rid: gt for rid, gt in eligible.items() if rid in keep}
    if not eligible:
        raise ConfigError("no ground-truth reports with text and technique labels")

    # score candidates once per report at threshold 0; re-threshold in memory.
    # An id only written in the text carries no score, so it is left out.
    zero = dataclasses.replace(config.attack_patterns, threshold=0.0)

    def score(report_id: str) -> list[TechniqueMatch]:
        report = make_report(eligible[report_id].text, report_id=report_id)
        return run_attack_pattern_pipeline(report, catalog, provider, AuditTrail(report_id), zero)

    scored, failures = _run_batch(sorted(eligible), score, jobs=1)
    _print_failures(failures)
    if not scored:
        logger.error("no report was scored; calibration.json not written")
        return PARTIAL

    means: dict[float, float] = {}
    for threshold in thresholds:
        f1s = []
        for report_id, gt in eligible.items():
            if report_id in failures:
                continue
            predicted = [m.technique_id for m in scored[report_id]
                         if m.score is not None and m.score >= threshold]
            match = match_entities(predicted, truth_for_kind(gt, "attack_pattern"))
            f1s.append(score_matches(match).f1)
        means[threshold] = sum(f1s) / len(f1s)

    # argmax; ties break toward the stricter threshold
    best = max(thresholds, key=lambda t: (means[t], t))
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "reports": sorted(scored),
        "thresholds": {_threshold_key(t): means[t] for t in thresholds},
        "best_threshold": best,
        "best_mean_f1": means[best],
        "summary": summarize(list(means.values())),
    }
    if failures:
        payload["failed"] = failures
    with replacing(out_dir / "calibration.json") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"best threshold {best:.2f} (mean F1 {means[best]:.3f} "
          f"over {len(scored)} reports)")
    return PARTIAL if failures else OK


def cmd_config_show(args: argparse.Namespace) -> int:
    print(dump_config(_config_from_args(args)), end="")
    return OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage already
        return int(exc.code or 0)

    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    try:
        if args.command == "extract":
            return cmd_extract(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "catalog" and args.action == "build":
            return cmd_catalog_build(args)
        if args.command == "calibrate":
            return cmd_calibrate(args)
        if args.command == "config" and args.action == "show":
            return cmd_config_show(args)
        parser.error(f"unhandled command {args.command!r}")
        return USAGE
    except (ConfigError, CatalogError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (ProviderError, FetchError, CondensationError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return PARTIAL


if __name__ == "__main__":
    sys.exit(main())
