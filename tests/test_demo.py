"""The hermetic demo, ``scripts/run_demo.py``: catalog build, extract, eval
and calibrate against the scripted provider, with no network."""

import json
import subprocess
import sys
from pathlib import Path

from test_cli import audit_warnings

DEMO = Path(__file__).resolve().parent.parent / "scripts" / "run_demo.py"


def test_demo_runs_end_to_end(tmp_path):
    ws = tmp_path / "demo"
    run = subprocess.run([sys.executable, str(DEMO), "--workspace", str(ws)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr

    summary = json.loads((ws / "out" / "summary.json").read_text(encoding="utf-8"))
    assert summary["ok"] == [str(ws / "reports" / "helloxd-2022.txt")]
    assert summary["failed"] == {}
    for record in summary["reports"].values():
        audit = ws / "out" / f"{record['report_id']}.audit.jsonl"
        assert record["warnings"] == audit_warnings(audit)
    scores = json.loads((ws / "scores" / "scores.json").read_text(encoding="utf-8"))
    # the scripted run is right by construction, relations included
    assert scores["aggregate"]["relation"]["f1"]["mean"] == 1.0
    assert (ws / "calibration" / "calibration.json").is_file()
