#!/usr/bin/env python3
"""Build a self-contained demo workspace: one report, a scripted-provider
rule file, a miniature ATT&CK export, and matching ground truth.

Everything run_demo.py needs lands under the target directory (default
./demo), so the end-to-end flow works with zero network access.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

REPORT_ID = "helloxd-2022"

REPORT_TEXT = """HelloXD Ransomware Analysis

HelloXD is a ransomware family that surfaced in November 2021 and runs double extortion operations, impacting Windows and Linux systems alike.

Unlike most crews, the operators do not host a leak site. The ransom note instead directs victims to negotiate through the Tox peer-to-peer messenger. One observed sample also deployed an open-source backdoor alongside the encryptor. The sample beaconed to 92.118.188[.]78 during detonation.

Infrastructure overlap and forum activity link the operation to a developer using the alias x4k. The encryptor derives file keys locally and secures its command and control traffic using a custom encryption scheme."""

ENCRYPTED_CHANNEL_EXAMPLE = (
    "The encryptor derives file keys locally and secures its command and "
    "control traffic using a custom encryption scheme."
)

SCRIPT_RULES = [
    {"match": "Question: Who/which is the malware", "response": "HelloXD"},
    {"match": "Question: Who/which is the threat actor", "response": "x4k"},
    {
        "match": "Question: Who/which is the target",
        "response": "Windows and Linux systems",
    },
    {"match": 'relation between "x4k" and "HelloXD"', "response": "uses"},
    {"match": "What is the relation", "response": "none"},
    {
        "match": "Return any relevant text verbatim",
        "response": ENCRYPTED_CHANNEL_EXAMPLE,
    },
    {
        "match": "Describe step by step the key facts",
        "response": (
            "1. HelloXD encrypts victim files on Windows and Linux hosts.\n"
            "2. The malware talks to its operators over a custom encrypted channel.\n"
            "3. Victims negotiate through the Tox messenger."
        ),
    },
]

ATTACK_EXPORT = {
    "type": "bundle",
    "id": "bundle--11111111-1111-4111-8111-111111111111",
    "objects": [
        {
            "type": "attack-pattern",
            "id": "attack-pattern--aaaa1111-0000-4000-8000-000000000001",
            "name": "Encrypted Channel",
            "description": (
                "Adversaries may protect command and control traffic with an "
                "encryption scheme so defenders cannot read it."
            ),
            "external_references": [
                {"source_name": "mitre-attack", "external_id": "T1573"}
            ],
        },
        {
            "type": "attack-pattern",
            "id": "attack-pattern--aaaa1111-0000-4000-8000-000000000002",
            "name": "Obfuscated Files or Information",
            "description": (
                "Adversaries may encode or encrypt files to make payloads hard "
                "to discover or analyze."
            ),
            "external_references": [
                {"source_name": "mitre-attack", "external_id": "T1027"}
            ],
        },
        {
            "type": "relationship",
            "id": "relationship--bbbb1111-0000-4000-8000-000000000001",
            "relationship_type": "uses",
            "source_ref": "malware--cccc1111-0000-4000-8000-000000000001",
            "target_ref": "attack-pattern--aaaa1111-0000-4000-8000-000000000001",
            "description": ENCRYPTED_CHANNEL_EXAMPLE,
        },
    ],
}

GROUND_TRUTH = {
    "malware": ["HelloXD"],
    "threat_actor": ["x4k"],
    "target": ["Windows and Linux systems"],
    "attack_pattern": ["T1573"],
    "relations": [
        {
            "source": "x4k",
            "source_kind": "threat-actor",
            "relation": "uses",
            "target": "HelloXD",
            "target_kind": "malware",
        },
        {
            "source": "HelloXD",
            "source_kind": "malware",
            "relation": "targets",
            "target": "Windows and Linux systems",
            "target_kind": "identity",
        },
        {
            "source": "x4k",
            "source_kind": "threat-actor",
            "relation": "targets",
            "target": "Windows and Linux systems",
            "target_kind": "identity",
        },
    ],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo", help="workspace directory")
    args = parser.parse_args()

    out = Path(args.out)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    (out / "gt").mkdir(parents=True, exist_ok=True)

    (out / "reports" / f"{REPORT_ID}.txt").write_text(REPORT_TEXT, encoding="utf-8")
    (out / "script.json").write_text(
        json.dumps(SCRIPT_RULES, indent=2), encoding="utf-8"
    )
    (out / "enterprise-attack-sample.json").write_text(
        json.dumps(ATTACK_EXPORT, indent=2), encoding="utf-8"
    )
    (out / "gt" / f"{REPORT_ID}.txt").write_text(REPORT_TEXT, encoding="utf-8")
    (out / "gt" / f"{REPORT_ID}.json").write_text(
        json.dumps(GROUND_TRUTH, indent=2), encoding="utf-8"
    )

    print(f"demo fixtures written under {out}/")
    print(f"  report:   reports/{REPORT_ID}.txt")
    print("  script:   script.json")
    print("  catalog:  enterprise-attack-sample.json (build with `cti2stix catalog build`)")
    print(f"  truth:    gt/{REPORT_ID}.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
