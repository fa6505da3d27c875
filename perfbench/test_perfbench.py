"""Structure self-check of the benchmark, at tiny size and with no timing
thresholds.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_last_line_has_the_documented_structure(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert type(result["attempted"]) is int and result["attempted"] >= 1
    assert result["failed"] == 0
    specs = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_inputs(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import corpus

    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        corpus.generate(workload, 5, tmp_path / name, tiny=True)
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
