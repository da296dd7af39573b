"""Smoke test of the benchmark harness: one traced round of ``eval_sweeps``
and one of ``cli_wide_csv``.

``perfbench/spans.py`` wraps functions of ``vbda`` by name, so renaming one
of them breaks traced runs; this test catches that, and an output that the
harness's own checks reject, in the tier-1 suite.  Only ``cli_wide_csv``
goes through ``vbda.cli`` and the report writers of ``vbda.dataio``.  The
harness writes its work files beside itself, so it runs from a copy under
``tmp_path``.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, ops", [("eval_sweeps", 8), ("cli_wide_csv", 4)],
                         ids=["eval_sweeps", "cli_wide_csv"])
def test_traced_round(tmp_path, workload, ops):
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench-out"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"], result["attempted"]) == (True, 0, ops), run.stderr
    spec = importlib.util.spec_from_file_location("spans", tmp_path / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert set(spans.PER_LAYER) <= set(result["metrics"])
