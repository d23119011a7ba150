"""Smoke tests of the runnable drivers in scripts/: each exits 0 on a small run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, outputs",
    [
        ("reproduce_figures.py", [], ["out/correlation_vs_angle_sum.csv", "out/dephasing.csv"]),
        ("chsh_scan.py", ["--points", "5"], ["chsh_scan.csv"]),
        ("event_pipeline_demo.py", ["--pairs", "20000", "--jitter"], []),
    ],
)
def test_script_runs(tmp_path, script, args, outputs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (tmp_path / name).is_file(), name
