"""Smoke tests: each experiment script in scripts/ runs end to end on tiny
inputs, as a subprocess, and writes well-formed results."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, out_dir: Path, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args, "--out-dir", str(out_dir)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_simulation_study(tmp_path):
    stdout = run_script("run_simulation_study.py", tmp_path, "--settings", "1,2",
                        "--reps", "2", "--p", "100", "--n-train", "20", "--n-test", "20")
    assert "wrote 8 rows" in stdout
    with open(tmp_path / "study.tsv", newline="") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    assert [(r["setting"], r["model"], r["rep"]) for r in rows] == [
        (s, m, r) for s in "12" for m in ("vlda", "vqda") for r in "01"
    ]
    for r in rows:
        assert 0.0 <= float(r["error"]) <= 1.0
        assert -1.0 <= float(r["mcc"]) <= 1.0
        assert 0 <= int(r["selected"]) <= 100
    summary = json.loads((tmp_path / "study_summary.json").read_text())
    assert sorted(summary) == ["1:vlda", "1:vqda", "2:vlda", "2:vqda"]


def test_heterogeneity(tmp_path):
    run_script("run_heterogeneity.py", tmp_path, "--deltas", "0,1", "--p", "60",
               "--signal-count", "5", "--reps", "1", "--n-train", "20", "--n-test", "20")
    medians = json.loads((tmp_path / "heterogeneity.json").read_text())
    assert sorted(medians) == ["0.0", "1.0"]
    for med in medians.values():
        assert sorted(med) == ["vlda", "vqda"]
        assert all(0.0 <= e <= 1.0 for e in med.values())
