#!/usr/bin/env python3
"""Hermetic end-to-end demo: catalog build -> extract -> eval -> calibrate,
all against the scripted provider (no network, no API key).

Run scripts/make_demo_fixtures.py first (or let this script do it), then:

    python scripts/run_demo.py --workspace demo
"""

import argparse
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cti2stix.cli import main as cli  # noqa: E402


def step(title: str, argv: list[str]) -> int:
    print(f"\n=== {title}\n$ cti2stix {' '.join(argv)}")
    code = cli(argv)
    if code != 0:
        print(f"step exited {code}", file=sys.stderr)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workspace", default="demo")
    args = parser.parse_args()

    ws = Path(args.workspace)
    if not (ws / "script.json").exists():
        fixtures = Path(__file__).resolve().parent / "make_demo_fixtures.py"
        subprocess.run(
            [sys.executable, str(fixtures), "--out", str(ws)], check=True
        )

    scripted = ["--provider", "scripted", "--script", str(ws / "script.json")]

    code = step(
        "build the technique catalog",
        [
            "catalog", "build",
            "--attack-json", str(ws / "enterprise-attack-sample.json"),
            "--out", str(ws / "catalog.bin"),
            *scripted,
        ],
    )
    if code:
        return code

    code = step(
        "extract a bundle from the demo report",
        [
            "extract", str(ws / "reports" / "helloxd-2022.txt"),
            "--out-dir", str(ws / "out"),
            "--catalog", str(ws / "catalog.bin"),
            *scripted,
        ],
    )
    if code:
        return code

    code = step(
        "score the bundle against ground truth",
        [
            "eval",
            "--extracted", str(ws / "out"),
            "--gt", str(ws / "gt"),
            "--out-dir", str(ws / "scores"),
        ],
    )
    if code:
        return code

    code = step(
        "sweep the similarity threshold",
        [
            "calibrate",
            "--gt", str(ws / "gt"),
            "--catalog", str(ws / "catalog.bin"),
            "--out-dir", str(ws / "calibration"),
            *scripted,
        ],
    )
    if code:
        return code

    print(f"\ndemo complete; artifacts under {ws}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
