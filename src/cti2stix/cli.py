"""Command-line front end.

Subcommands:

* ``extract``        — reports (files or URLs) -> STIX bundles + audit logs
* ``eval``           — extracted bundles vs ground truth -> scores.json/.csv
* ``catalog build``  — ATT&CK export -> embedded technique catalog: a magic
  line, a CRC-checked JSON header that names each technique, then three
  64-byte-aligned parts: the float32 matrix, its row norms and the technique
  segment starts.  The file does not keep the texts it embedded; the export
  stays their source.  An older version's file (an ``.npz`` zip, or version
  1 or 2 of this layout) is refused by ``extract`` and ``calibrate`` (exit
  2); ``catalog build`` rebuilds it once, re-embedding, which costs nothing
  when the response cache holds the embeddings
* ``calibrate``      — sweep the similarity threshold against ground truth
* ``config show``    — print the effective configuration

Exit codes: 0 everything worked, 1 the run finished but some reports failed
(or produced validation violations), 2 the invocation itself was wrong —
bad flags, bad config, missing files, an unreadable or malformed catalog.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Any, Optional, Sequence

from .attack_patterns import run_attack_pattern_pipeline
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
from .stix import load_bundle, save_bundle

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


def _config_from_args(args: argparse.Namespace) -> AppConfig:
    overrides: dict[str, Any] = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs SECTION.KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()

    if getattr(args, "provider", None):
        overrides["provider_kind"] = args.provider
    if getattr(args, "script", None):
        overrides["paths.script"] = args.script
    if getattr(args, "replay_cache", None):
        overrides["provider.cache_path"] = args.replay_cache
    if getattr(args, "catalog", None):
        overrides["paths.catalog"] = args.catalog
    if getattr(args, "plugins", None):
        overrides["paths.plugins"] = args.plugins
    if getattr(args, "preprocessing", None):
        overrides["pipeline.preprocessing"] = args.preprocessing
    if getattr(args, "strategies", None):
        overrides["attack_patterns.strategies"] = args.strategies
    if getattr(args, "threshold", None) is not None:
        overrides["attack_patterns.threshold"] = args.threshold
    if getattr(args, "subset_rule", None):
        overrides["eval.subset_rule"] = args.subset_rule
    if getattr(args, "kinds", None):
        overrides["eval.kinds"] = args.kinds

    return load_config(args.config, overrides)


def _load_report(source: str, plugins: Sequence) -> Any:
    if source.startswith(_URL_PREFIXES):
        return report_from_url(source, plugins=plugins)
    path = Path(source)
    if not path.exists():
        raise FileNotFoundError(f"no such report file: {source}")
    return report_from_path(path, plugins=plugins)


def _extract_one(source: str, config: AppConfig, provider: Any,
                 catalog: Optional[Future[TechniqueCatalog]], plugins: Sequence,
                 out_dir: Path) -> dict[str, Any]:
    report = _load_report(source, plugins)
    # one trail holds both pipelines' events, numbered once
    audit = AuditTrail(report.id)
    entity_bundle = run_entity_pipeline(report, provider, audit, config.pipeline)
    matches = []
    if catalog is not None:
        matches = run_attack_pattern_pipeline(report, catalog, provider, audit,
                                              config.attack_patterns)

    bundle, violations = assemble_and_validate(entity_bundle, matches)

    bundle_path = out_dir / f"{report.id}.bundle.json"
    bundle_path.write_text(save_bundle(bundle), encoding="utf-8")
    audit_path = out_dir / f"{report.id}.audit.jsonl"
    audit_path.write_text(audit.to_jsonl(), encoding="utf-8")

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
    # the catalog loads while the first reports run; each report waits for it
    # only when it scores its candidates
    catalog: Optional[Future[TechniqueCatalog]] = None
    if config.paths.catalog:
        catalog_path = Path(config.paths.catalog)
        if not catalog_path.exists():
            raise ConfigError(f"catalog not found: {catalog_path}")
        catalog = Future()
    else:
        logger.warning("no catalog configured; skipping technique extraction")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results: dict[str, dict[str, Any]] = {}
    failures: dict[str, str] = {}

    # a local file's stem is its report id, and so names its output files
    inputs: list[str] = []
    stem_owners: dict[str, str] = {}
    for source in dict.fromkeys(args.inputs):
        if not source.startswith(_URL_PREFIXES):
            owner = stem_owners.setdefault(Path(source).stem, source)
            if owner != source:
                failures[source] = f"report id collision with {owner}"
                continue
        inputs.append(source)

    def run(source: str) -> None:
        try:
            results[source] = _extract_one(source, config, provider, catalog,
                                           plugins, out_dir)
        except Exception as exc:  # one bad report must not sink the batch
            if catalog is not None and catalog.done() and catalog.exception():
                return  # the catalog did not load: that error ends the run, once
            logger.exception("extraction failed for %s: %s", source, exc)
            failures[source] = f"{type(exc).__name__}: {exc}"

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        reports = [pool.submit(run, source) for source in inputs]
        if catalog is not None:
            try:
                catalog.set_result(load_catalog(catalog_path))
            except BaseException as exc:
                # cancel the reports not yet started before releasing the
                # running ones, so that no further report asks the model
                pool.shutdown(wait=False, cancel_futures=True)
                catalog.set_exception(exc)
                raise
    for report in reports:
        report.result()

    summary = {
        "ok": sorted(results),
        "failed": {k: failures[k] for k in sorted(failures)},
        "reports": {src: results[src] for src in sorted(results)},
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, ensure_ascii=False, sort_keys=True) + "\n",
        encoding="utf-8",
    )

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
    for source in sorted(failures):
        print(f"FAILED {source}: {failures[source]}")

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
    truth = _load_truth(args.gt)
    if not truth:
        raise ConfigError(f"no ground truth found under {args.gt}")

    bundles = {}
    for path in sorted(extracted_dir.glob("*.bundle.json")):
        report_id = path.name[: -len(".bundle.json")]
        bundles[report_id] = load_bundle(path)
    overlap = sorted(set(bundles) & set(truth))
    if not overlap:
        raise ConfigError("no report ids shared between extracted bundles and ground truth")

    kinds = list(config.eval.kinds)
    per_report = {}
    for report_id in overlap:
        scored = score_bundle(bundles[report_id], truth[report_id], kinds)
        per_report[report_id] = {kind: s for kind, (_, s) in scored.items()}

    subset_ids = None
    if config.eval.subset_rule and "attack_pattern" in kinds:
        texts = {rid: truth[rid].text or "" for rid in overlap}
        subset_ids = {"attack_pattern": filter_without_explicit_ids(texts)}

    payload = scores_payload(per_report, subset_ids=subset_ids)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_scores(payload, out_dir / "scores.json", out_dir / "scores.csv")

    skipped = sorted(set(truth) ^ set(bundles))
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
    catalog = load_catalog(args.catalog)
    provider = make_provider(config)
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
    best_scores: dict[str, dict[str, float]] = {}
    for report_id in sorted(eligible):
        report = make_report(eligible[report_id].text, report_id=report_id)
        matches = run_attack_pattern_pipeline(report, catalog, provider,
                                              AuditTrail(report_id), zero)
        best_scores[report_id] = {m.technique_id: m.score for m in matches
                                  if m.score is not None}

    means: dict[float, float] = {}
    for threshold in thresholds:
        f1s = []
        for report_id, gt in eligible.items():
            predicted = [tid for tid, score in best_scores[report_id].items()
                         if score >= threshold]
            match = match_entities(predicted, truth_for_kind(gt, "attack_pattern"))
            f1s.append(score_matches(match).f1)
        means[threshold] = sum(f1s) / len(f1s)

    # argmax; ties break toward the stricter threshold
    best = max(thresholds, key=lambda t: (means[t], t))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "reports": sorted(eligible),
        "thresholds": {_threshold_key(t): means[t] for t in thresholds},
        "best_threshold": best,
        "best_mean_f1": means[best],
        "summary": summarize(list(means.values())),
    }
    (out_dir / "calibration.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"best threshold {best:.2f} (mean F1 {means[best]:.3f} "
          f"over {len(eligible)} reports)")
    return OK


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
