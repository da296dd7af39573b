"""Smoke test of the benchmark harness: one traced round of ``eval_sweeps``.

``perfbench/spans.py`` wraps functions of ``vbda`` by name, so renaming one
of them breaks traced runs; this test catches that, and an output that the
harness's own checks reject, in the tier-1 suite.  The harness writes its
work files beside itself, so it runs from a copy under ``tmp_path``.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_eval_sweeps_round(tmp_path):
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench-out"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval_sweeps",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"], result["attempted"]) == (True, 0, 8), run.stderr
    spec = importlib.util.spec_from_file_location("spans", tmp_path / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert set(spans.PER_LAYER) <= set(result["metrics"])
