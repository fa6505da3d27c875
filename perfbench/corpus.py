"""Seeded generators for the benchmark's inputs.

One call to :func:`ensure_fixtures` writes everything a workload needs into a
directory keyed by workload and seed:

* ``reports/`` — the corpus the program receives (``.txt`` and ``.html``);
* ``gt/`` — ground truth in the format ``cti2stix eval`` reads, with aliases
  for the names the model stand-in rewords (plus report texts where
  ``calibrate`` needs them);
* ``rules.json`` — the endpoint stand-in's answer rules;
* ``manifest.json`` — input order, expected F1 per kind, expected indicator
  counts and input sizes.

The corpus *shape* (how many reports of each kind, how many names, sentences
and IoCs each carries) is fixed per workload; the seed only chooses words,
names, IoC values and planted catalog examples.  That keeps call counts and
expected scores the same across seeds, so seeds vary the inputs without
varying the amount of work.

The technique catalog does not depend on the run seed: it stands in for the
ATT&CK release, a fixed external dataset, and is built once per checkout with
the program's own ``build_catalog`` outside every timed region.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import re
import shutil
import string
import sys
import uuid
from dataclasses import dataclass, field
from pathlib import Path

FIXTURE_VERSION = "8"

# catalog scale: ATT&CK enterprise has ~200 techniques and ~10^4 procedure
# examples; ada-002 embeddings have 1536 dimensions
CATALOG_TECHNIQUES = 200
CATALOG_EXAMPLES_PER_TECHNIQUE = 49  # plus the description -> 50 entries each
CATALOG_DIM = 1536
CATALOG_SEED = 20230719
EMBEDDING_MODEL = "text-embedding-ada-002"

_ADJECTIVES = (
    "Amber Ashen Azure Bitter Blazing Bronze Cinder Cobalt Copper Crimson Dusky "
    "Ebony Emerald Frozen Gilded Granite Hollow Indigo Iron Ivory Jade Lunar "
    "Marble Midnight Molten Obsidian Onyx Pale Quartz Rusty Sable Scarlet Silent "
    "Silver Slate Solar Stone Storm Sunken Tidal Umber Velvet Violet Wicked"
).split()
_ANIMALS = (
    "Badger Bison Cobra Condor Cougar Coyote Crane Falcon Ferret Gecko Heron "
    "Hornet Hyena Ibex Jackal Kestrel Lynx Mamba Marten Mantis Moose Narwhal "
    "Ocelot Osprey Otter Panther Pelican Python Raven Scorpion Shrike Stoat "
    "Tapir Termite Viper Vulture Walrus Weasel Wolverine Yak"
).split()
_MAL_HEADS = (
    "Zar Krak Vex Drom Quil Morv Brax Tesk Jorn Plex Grem Skiv Nox Fral Wend "
    "Harg Lum Obri Rask Sorv Trel Ulm Yurn Zeph Cald Merx Pryd Voss Kilt Dask"
).split()
_MAL_TAILS = (
    "bot loader locker stealer rat worm miner dropper shell spy door crypt "
    "kit agent wiper beacon hook proxy"
).split()
_TOOL_HEADS = "Remote Secure Quick Smart Batch Net Task Sys Admin Sync".split()
_TOOL_TAILS = "Exec Runner Manager Helper Tunnel Bridge Relay Console".split()
_REGIONS = (
    "Baltic Nordic Andean Iberian Alpine Balkan Caspian Adriatic Levantine "
    "Pacific Atlantic Sahelian Caribbean Anatolian Carpathian Danubian "
    "Aegean Celtic Pampas Patagonian"
).split()
_SECTORS = (
    "energy shipping banking telecom mining aviation pharmacy retail grain "
    "railway satellite insurance textile logistics hospital water chemical "
    "automotive semiconductor defence"
).split()
_ORGS = "utilities operators firms ministries cooperatives agencies providers".split()

_FILLER_NOUNS = (
    "operator payload loader implant host server share account credential "
    "token registry service driver archive script task schedule firewall proxy "
    "certificate module library channel session beacon mailbox gateway portal "
    "backup database tenant workstation controller endpoint update installer"
).split()
_FILLER_VERBS = (
    "staged copied enumerated harvested encrypted compressed scheduled renamed "
    "disabled queried uploaded downloaded patched injected masked rotated "
    "wiped probed relayed mirrored archived throttled cloned parsed"
).split()
_FILLER_ADJS = (
    "remote local hidden signed unsigned legacy internal external temporary "
    "encoded obfuscated privileged isolated trusted unpatched shared nightly "
    "spare dormant verbose silent fresh stale"
).split()
_FILLER_PLACES = (
    "domain controller, build server, finance subnet, mail gateway, jump host, "
    "backup vault, file server, print spooler, web tier, staging bucket, "
    "identity provider, payroll cluster, branch office, research lab"
).split(", ")
_FILLER_TIMES = (
    "during the first week, over several days, within minutes, after midnight, "
    "before the holiday, on the following morning, across two weekends, "
    "shortly after initial access, during business hours, late in the campaign"
).split(", ")

_TACTIC_VERBS = (
    "abused invoked hijacked spoofed tampered leveraged chained modified "
    "registered planted extracted forged relayed sideloaded enumerated"
).split()
_TACTIC_OBJECTS = (
    "scheduled tasks, service binaries, browser cookies, mailbox rules, token "
    "handles, registry run keys, signed installers, kernel callbacks, cloud "
    "roles, backup agents, firmware images, proxy settings, shell extensions, "
    "event logs, remote desktop sessions, certificate stores, startup folders, "
    "named pipes, management consoles, package mirrors"
).split(", ")
_TACTIC_GOALS = (
    "persist across reboots, evade endpoint sensors, harvest credentials, move "
    "laterally, stage exfiltration, escalate privileges, disable recovery, "
    "blend in with administrators, reach isolated segments, survive password "
    "resets, keep command and control alive, avoid sandbox detonation"
).split(", ")
_ACTOR_WORDS = (
    "the intruders, the operators, an affiliate, the group, the attackers, "
    "one crew, the actor, a contractor team"
).split(", ")


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class Shape:
    """How one generated report is built."""

    kind: str  # short | long | rich | ioc | technique
    suffix: str = ".txt"
    actors: int = 1
    malware: int = 1
    targets: int = 1
    filler: int = 6  # filler sentences (long reports: filler *tokens*)
    reworded: int = 0  # actor names the model rewords
    decoys: int = 0  # tool names the model wrongly reports as malware
    missed: int = 0  # targets the model does not report
    iocs: int = 0
    planted: int = 0  # verbatim catalog examples
    paraphrased: int = 0  # labelled techniques mentioned only in other words


def workload_shapes(workload: str, tiny: bool = False) -> list[Shape]:
    """The fixed corpus shape of each workload, in input order; *tiny* keeps
    one report of each kind (for the structure self-check)."""
    shapes = _full_shapes(workload)
    if tiny:
        kinds = {}
        for shape in shapes:
            kinds.setdefault((shape.kind, shape.suffix), shape)
        shapes = [dataclasses.replace(s, filler=min(s.filler, 7000), iocs=min(s.iocs, 60))
                  for s in kinds.values()]
    return shapes


def _full_shapes(workload: str) -> list[Shape]:
    if workload == "batch-prose":
        short = Shape("short", filler=8)
        rich = Shape("rich", actors=3, malware=4, targets=3, filler=10,
                     reworded=1, decoys=1, missed=1)
        long2 = Shape("long", actors=1, malware=2, targets=1, filler=8000)
        long3 = Shape("long", actors=1, malware=2, targets=1, filler=16000)
        rich_html = dataclasses.replace(rich, suffix=".html")
        # The mix is an assumption, not drawn from observed report traffic:
        # the three shapes the workload is meant to exercise, with short
        # reports three in four.  So report_s.p50 lies well inside the short
        # reports, and the long reports hold report_s.tail.  Heavy reports are
        # spread between light ones so that two of them rarely run side by
        # side on the two extraction threads.
        light = [short] * 32 + [Shape("short", ".html", filler=8)] * 2
        heavy = [long3, rich, long2, rich, long3, rich_html, long2, rich, long3, rich]
        shapes = [short]
        while light or heavy:
            if heavy:
                shapes.append(heavy.pop(0))
            shapes += [light.pop(0) for _ in range(3) if light]
        return shapes
    if workload == "ioc-heavy":
        # one report at the 2,000 IoCs where the quadratic paths take seconds
        # starts first; five smaller ones run beside it, so the median report
        # is a 600-IoC one and the slowest is the 2,000-IoC one
        return [
            Shape("ioc", ".html", actors=1, malware=3, targets=1, filler=12,
                  decoys=1, iocs=n)
            for n in (2000, 600, 600, 600, 600, 600)
        ]
    if workload == "technique-dense":
        return [
            Shape("technique", actors=1, malware=1, targets=1, filler=1,
                  planted=1, paraphrased=1)
        ] * 4
    raise ValueError(f"unknown workload: {workload!r}")


# ---------------------------------------------------------------------------
# names and sentences


class _Words:
    """Seeded word and name source; every name it hands out is unique."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def _unique(self, make) -> str:
        for _ in range(10_000):
            name = make()
            if name not in self.used:
                self.used.add(name)
                return name
        raise RuntimeError("name pool exhausted")

    def actor(self) -> str:
        r = self.rng
        return self._unique(lambda: f"{r.choice(_ADJECTIVES)} {r.choice(_ANIMALS)}")

    def malware(self) -> str:
        r = self.rng
        return self._unique(lambda: r.choice(_MAL_HEADS) + r.choice(_MAL_TAILS))

    def tool(self) -> str:
        r = self.rng
        return self._unique(lambda: r.choice(_TOOL_HEADS) + r.choice(_TOOL_TAILS))

    def target(self) -> str:
        r = self.rng
        return self._unique(
            lambda: f"{r.choice(_REGIONS)} {r.choice(_SECTORS)} {r.choice(_ORGS)}"
        )

    def filler(self) -> str:
        r = self.rng
        n1, n2 = r.sample(_FILLER_NOUNS, 2)
        return (
            f"The {r.choice(_FILLER_ADJS)} {n1} was {r.choice(_FILLER_VERBS)} "
            f"next to the {r.choice(_FILLER_ADJS)} {n2} on the "
            f"{r.choice(_FILLER_PLACES)} {r.choice(_FILLER_TIMES)}."
        )


def _actor_sentence(r: random.Random, actor: str, malware: list[str], target: str) -> str:
    return (
        f"Investigators attribute the intrusion to {actor}, which deployed "
        f"{' and '.join(malware)} against {target} {r.choice(_FILLER_TIMES)}."
    )


def _malware_sentence(r: random.Random, malware: str) -> str:
    return (
        f"The {malware} sample {r.choice(_FILLER_VERBS)} the "
        f"{r.choice(_FILLER_ADJS)} {r.choice(_FILLER_NOUNS)} on the "
        f"{r.choice(_FILLER_PLACES)}."
    )


def _target_sentence(r: random.Random, target: str) -> str:
    return f"Victims included {target} {r.choice(_FILLER_TIMES)}."


def _decoy_sentence(r: random.Random, tool: str) -> str:
    return (
        f"Administrators also ran {tool}, a legitimate utility, on the "
        f"{r.choice(_FILLER_PLACES)}."
    )


# ---------------------------------------------------------------------------
# IoCs


def _hex(r: random.Random, n: int) -> str:
    return "".join(r.choice("0123456789abcdef") for _ in range(n))


def _label(r: random.Random) -> str:
    letters = string.ascii_lowercase
    return "".join(r.choice(letters) for _ in range(r.randint(6, 11))) + str(r.randint(10, 99))


_TLDS = ("com", "net", "org", "info", "biz", "xyz", "top", "online", "site")


def _iocs(r: random.Random, n: int) -> list[tuple[str, str]]:
    """(type label, text form) pairs; about a third of network IoCs defanged."""
    out: list[tuple[str, str]] = []
    seen: set[str] = set()
    kinds = ("sha256", "sha1", "md5", "ipv4", "domain", "url")
    while len(out) < n:
        kind = kinds[len(out) % len(kinds)]
        defang = r.random() < 0.35
        if kind == "sha256":
            text = _hex(r, 64)
        elif kind == "sha1":
            text = _hex(r, 40)
        elif kind == "md5":
            text = _hex(r, 32)
        elif kind == "ipv4":
            octets = [str(r.randint(11, 223)), *(str(r.randint(1, 254)) for _ in range(3))]
            text = ".".join(octets[:3]) + ("[.]" if defang else ".") + octets[3]
        elif kind == "domain":
            dot = "[.]" if defang else "."
            text = f"{_label(r)}{dot}{r.choice(_TLDS)}"
        else:
            scheme = "hxxp" if defang else "http"
            dot = "[.]" if defang else "."
            text = f"{scheme}://{_label(r)}{dot}{r.choice(_TLDS)}/{_label(r)}/{_label(r)}"
        key = text.replace("[.]", ".").replace("hxxp", "http")
        if key in seen:
            continue
        seen.add(key)
        out.append((kind, text))
    return out


# ---------------------------------------------------------------------------
# catalog


def _catalog_size(tiny: bool) -> tuple[int, int]:
    """(techniques, procedure examples per technique)."""
    return (20, 4) if tiny else (CATALOG_TECHNIQUES, CATALOG_EXAMPLES_PER_TECHNIQUE)


def catalog_export(tiny: bool = False) -> dict:
    """An ATT&CK-shaped STIX export: one attack-pattern per technique plus
    ``uses`` relationships carrying procedure-example texts."""
    r = random.Random(CATALOG_SEED)
    techniques, per_technique = _catalog_size(tiny)
    ids = sorted(r.sample(range(1000, 1700), techniques))
    objects: list[dict] = []
    texts: set[str] = set()

    def example(tid: int) -> str:
        while True:
            text = (
                f"{r.choice(_ACTOR_WORDS).capitalize()} {r.choice(_TACTIC_VERBS)} "
                f"{r.choice(_TACTIC_OBJECTS)} on the {r.choice(_FILLER_PLACES)} "
                f"to {r.choice(_TACTIC_GOALS)} ({r.choice(_FILLER_ADJS)} variant "
                f"{r.randint(100, 999)}-{tid})."
            )
            if text not in texts:
                texts.add(text)
                return text

    for tid in ids:
        ap_id = f"attack-pattern--{uuid.UUID(int=r.getrandbits(128), version=4)}"
        objects.append({
            "type": "attack-pattern",
            "id": ap_id,
            "name": f"{r.choice(_TACTIC_VERBS).capitalize()} {r.choice(_TACTIC_OBJECTS).title()} {tid}",
            "description": example(tid),
            "external_references": [{"source_name": "mitre-attack", "external_id": f"T{tid}"}],
        })
        for _ in range(per_technique):
            objects.append({
                "type": "relationship",
                "id": f"relationship--{uuid.UUID(int=r.getrandbits(128), version=4)}",
                "relationship_type": "uses",
                "source_ref": "intrusion-set--00000000-0000-4000-8000-000000000000",
                "target_ref": ap_id,
                "description": example(tid),
            })
    return {"type": "bundle", "id": "bundle--00000000-0000-4000-8000-0000000000aa",
            "objects": objects}


def ensure_catalog(cache_dir: Path, tiny: bool = False) -> Path:
    """Build the technique catalog once per checkout with the program's own
    ``build_catalog`` and a 1536-dimension hash embedder."""
    from cti2stix.catalog import build_catalog
    from cti2stix.llm import HashEmbedder, ProviderConfig, ScriptedProvider

    path = cache_dir / f"catalog-v{FIXTURE_VERSION}{'-tiny' if tiny else ''}.npz"
    if path.exists():
        return path
    cache_dir.mkdir(parents=True, exist_ok=True)
    provider = ScriptedProvider([], config=ProviderConfig(embedding_model=EMBEDDING_MODEL),
                                embedder=HashEmbedder(CATALOG_DIM))
    tmp = path.with_suffix(".tmp.npz")
    build_catalog(catalog_export(tiny), provider, cache_path=tmp)
    tmp.replace(path)
    return path


def _catalog_examples(tiny: bool) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    export = catalog_export(tiny)
    by_ap = {}
    for obj in export["objects"]:
        if obj["type"] == "attack-pattern":
            tid = obj["external_references"][0]["external_id"]
            by_ap[obj["id"]] = tid
            out[tid] = [obj["description"]]
        else:
            out[by_ap[obj["target_ref"]]].append(obj["description"])
    return out


# ---------------------------------------------------------------------------
# reports


@dataclass
class _Report:
    rid: str
    suffix: str
    text: str  # file contents
    gt: dict
    shape: Shape
    # normalized values of the planted indicators and CVEs
    observables: list[str] = field(default_factory=list)


def _html(title: str, paragraphs: list[str], iocs: list[tuple[str, str]]) -> str:
    body = "".join(f"<p>{p}</p>\n" for p in paragraphs)
    table = ""
    if iocs:
        rows = "".join(f"<tr><td>{kind}</td><td>{value}</td></tr>\n" for kind, value in iocs)
        table = f"<h2>Indicators of compromise</h2>\n<table>\n<tr><th>type</th><th>value</th></tr>\n{rows}</table>\n"
    return (
        "<!DOCTYPE html>\n<html><head><title>" + title + "</title>"
        "<style>p { margin: 0 }</style></head><body>\n"
        "<nav><a href='/'>Home</a> <a href='/research'>Research</a></nav>\n"
        f"<article><h1>{title}</h1>\n{body}{table}</article>\n"
        "<script>window.analytics = {page: 'report'};</script>\n"
        "</body></html>\n"
    )


def _make_report(index: int, shape: Shape, words: _Words, r: random.Random,
                 examples: dict[str, list[str]], planted_pool: list[tuple[str, str]],
                 rules: dict) -> _Report:
    rid = f"{index:03d}-{shape.kind}"
    actors = [words.actor() for _ in range(shape.actors)]
    malware = [words.malware() for _ in range(shape.malware)]
    targets = [words.target() for _ in range(shape.targets)]
    decoys = [words.tool() for _ in range(shape.decoys)]

    # each actor uses a fixed, seed-chosen half of the malware (at least one)
    relations = []
    for i, actor in enumerate(actors):
        used = malware[i % len(malware)::2] if len(malware) > 1 else malware
        relations += [(actor, m) for m in used]

    named: list[str] = []
    for actor in actors:
        used = [m for a, m in relations if a == actor]
        named.append(_actor_sentence(r, actor, used, targets[0]))
    for m in malware:
        named.append(_malware_sentence(r, m))
    for t in targets:
        named.append(_target_sentence(r, t))
    for d in decoys:
        named.append(_decoy_sentence(r, d))

    planted: list[tuple[str, str]] = [planted_pool.pop() for _ in range(shape.planted)]
    paraphrased = [planted_pool.pop()[0] for _ in range(shape.paraphrased)]
    technique_sentences = [text for _, text in planted]
    paraphrase_sentences = [
        f"The intruders also showed behaviour analysts associate with {examples[tid][0].split(' (')[0].lower()}."
        for tid in paraphrased
    ]

    filler: list[str] = []
    if shape.kind == "long":
        from cti2stix.llm import estimate_tokens

        tokens = 0
        while tokens < shape.filler:
            sentence = words.filler()
            filler.append(sentence)
            tokens += estimate_tokens(sentence) + 1
    else:
        filler = [words.filler() for _ in range(shape.filler)]

    # interleave: named sentences spread through the filler
    sentences = list(filler)
    specials = named + technique_sentences + paraphrase_sentences
    r.shuffle(specials)
    step = max(1, len(sentences) // (len(specials) + 1))
    for n, s in enumerate(specials):
        sentences.insert(min(len(sentences), (n + 1) * step + n), s)

    # paragraphs of about five sentences
    paragraphs = [" ".join(sentences[i:i + 5]) for i in range(0, len(sentences), 5)]
    title = f"Threat report {rid}: {actors[0]} activity"
    iocs = _iocs(r, shape.iocs) if shape.iocs else []
    cves: list[str] = []
    while shape.iocs and len(cves) < 3:
        cve = f"CVE-20{r.randint(15, 24)}-{r.randint(1000, 99999)}"
        if cve not in cves:
            cves.append(cve)
    if cves:
        paragraphs.append("The intruders exploited " + ", ".join(cves[:-1])
                          + " and " + cves[-1] + " on exposed gateways.")

    if shape.suffix == ".html":
        text = _html(title, paragraphs, iocs)
    else:
        # technique reports are bare prose: every sentence is a classifier
        # candidate, and a title line would be one more
        head = "" if shape.kind == "technique" else title + "\n\n"
        text = head + "\n\n".join(paragraphs) + "\n"

    reworded = actors[: shape.reworded]
    missed = targets[len(targets) - shape.missed:] if shape.missed else []
    for a in actors:
        rules["kinds"][a] = "threat_actor"
    for m in malware:
        rules["kinds"][m] = "malware"
    for t in targets:
        rules["kinds"][t] = "target"
    for d in decoys:
        rules["kinds"][d] = "decoy"
    for a in reworded:
        rules["answer_as"][a] = f"The {a} crew"
    rules["missed"] += missed
    rules["relations"] += [list(p) for p in relations]
    rules["technique_sentences"] += technique_sentences
    rules["paraphrase_sentences"] += paraphrase_sentences

    gt = {
        "report_id": rid,
        "malware": list(malware),
        "threat_actor": [
            {"name": a, "aliases": [rules["answer_as"][a]]} if a in reworded else a
            for a in actors
        ],
        "target": list(targets),
        "relations": [
            {"source": a, "source_kind": "threat-actor", "relation": "uses",
             "target": m, "target_kind": "malware"}
            for a, m in relations
        ],
    }
    if shape.planted or shape.paraphrased:
        gt["attack_pattern"] = sorted({tid for tid, _ in planted} | set(paraphrased))
    observables = [re.sub(r"^hxxp", "http", value.replace("[.]", ".")) for _, value in iocs]
    return _Report(rid, shape.suffix, text, gt, shape, observables + cves)


def observables_digest(values: list[str]) -> str:
    return hashlib.sha256("\n".join(sorted(values)).encode("utf-8")).hexdigest()


def _f1(tp: int, fp: int, fn: int) -> float:
    """Per-report F1 with the evaluator's conventions for empty sides; written
    out here, not imported, so the check does not trust the code it checks."""
    recall = tp / (tp + fn) if tp + fn else 1.0
    precision = tp / (tp + fp) if tp + fp else 1.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def _expected_scores(reports: list[_Report]) -> dict[str, float]:
    """Mean per-report F1 the pipeline must reach, given the stand-in's rules:
    every planted name is found except the missed targets, decoys are false
    positives, verbatim catalog examples are found and paraphrases are not."""
    out: dict[str, float] = {}
    for kind in ("malware", "threat_actor", "target", "attack_pattern"):
        f1s = []
        for rep in reports:
            s = rep.shape
            if kind == "malware":
                f1s.append(_f1(s.malware, s.decoys, 0))
            elif kind == "threat_actor":
                f1s.append(_f1(s.actors, 0, 0))
            elif kind == "target":
                f1s.append(_f1(s.targets - s.missed, 0, s.missed))
            else:
                f1s.append(_f1(s.planted, 0, s.paraphrased))
        out[kind] = sum(f1s) / len(f1s)
    return out


def generate(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> dict:
    """Write one workload's corpus, ground truth, rules and manifest."""
    from cti2stix.ingest import report_from_path
    from cti2stix.llm import estimate_tokens

    r = random.Random(f"{workload}:{seed}")
    words = _Words(r)
    shapes = workload_shapes(workload, tiny)
    examples = _catalog_examples(tiny) if workload == "technique-dense" else {}
    # planted examples are drawn without replacement, one technique each, so
    # no two reports share a sentence (shared texts would make embedding cache
    # hits depend on thread timing)
    tids = sorted(examples)
    r.shuffle(tids)
    planted_pool = [(tid, r.choice(examples[tid][1:])) for tid in tids]
    rules: dict = {"kinds": {}, "answer_as": {}, "missed": [], "relations": [],
                   "technique_sentences": [], "paraphrase_sentences": []}

    reports = [
        _make_report(i, shape, words, r, examples, planted_pool, rules)
        for i, shape in enumerate(shapes)
    ]
    # batch-prose repeats its first report under another name at the end of
    # the batch: a re-fetched report, served from the response cache
    if workload == "batch-prose":
        first = reports[0]
        dup = _Report(f"{len(reports):03d}-repeat", first.suffix, first.text,
                      dict(first.gt, report_id=f"{len(reports):03d}-repeat"), first.shape)
        reports.append(dup)

    reports_dir = out_dir / "reports"
    gt_dir = out_dir / "gt"
    reports_dir.mkdir(parents=True)
    gt_dir.mkdir(parents=True)
    inputs = []
    text_tokens = 0
    for rep in reports:
        path = reports_dir / f"{rep.rid}{rep.suffix}"
        path.write_text(rep.text, encoding="utf-8")
        inputs.append(str(path.relative_to(out_dir)))
        text_tokens += estimate_tokens(report_from_path(path).text)
        (gt_dir / f"{rep.rid}.json").write_text(json.dumps(rep.gt, indent=2) + "\n", encoding="utf-8")
        if workload == "technique-dense":
            (gt_dir / f"{rep.rid}.txt").write_text(rep.text, encoding="utf-8")
    (out_dir / "rules.json").write_text(json.dumps(rules, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")

    manifest = {
        "workload": workload,
        "seed": seed,
        "fixture_version": FIXTURE_VERSION,
        "inputs": inputs,
        "expected_f1": _expected_scores(reports),
        # digest of the sorted indicator and vulnerability names each bundle
        # must carry
        "expected_observables": {
            rep.rid: {"count": len(rep.observables),
                      "sha256": observables_digest(rep.observables)}
            for rep in reports if rep.observables
        },
        "sizes": {
            "reports": len(reports),
            "html_reports": sum(rep.suffix == ".html" for rep in reports),
            "corpus_bytes": sum(len(rep.text.encode("utf-8")) for rep in reports),
            "text_tokens": text_tokens,
            "iocs": sum(rep.shape.iocs for rep in reports),
            "shapes": {k: sum(rep.shape.kind == k for rep in reports)
                       for k in sorted({rep.shape.kind for rep in reports})},
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def ensure_fixtures(cache_root: Path, workload: str, seed: int, tiny: bool = False) -> Path:
    """Generate (or reuse) the fixtures for one workload and seed; returns
    their directory.  Generation writes to a temporary sibling and renames,
    so an interrupted run never leaves a half-written cache entry."""
    final = cache_root / f"{workload}-s{seed}-v{FIXTURE_VERSION}{'-tiny' if tiny else ''}"
    if (final / "manifest.json").exists():
        return final
    tmp = final.with_name(".tmp-" + final.name)
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    generate(workload, seed, tmp, tiny)
    if final.exists():
        shutil.rmtree(final)
    tmp.rename(final)
    return final


def main(argv: list[str] | None = None) -> int:
    """Generate (or reuse) one workload's fixtures, in a process of its own
    so that the measuring process never inherits its memory high-water mark;
    prints their locations as JSON."""
    parser = argparse.ArgumentParser(description=main.__doc__.split(";")[0])
    parser.add_argument("--src", required=True, help="the program's source directory")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("state", help="cache directory")
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    state = Path(args.state)
    out = {"fixtures": str(ensure_fixtures(state / "fixtures", args.workload, args.seed, args.tiny))}
    if args.workload == "technique-dense":
        out["catalog"] = str(ensure_catalog(state / "catalog", args.tiny))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
