"""Smoke tests: each script under ``scripts/`` runs at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, outputs",
    [
        (
            "demo_subgroups.py",
            ["--n-per-cell", "30", "--bootstrap", "20"],
            ["demo_subgroups.data.csv", "demo_subgroups.json", "demo_subgroups.bands.csv"],
        ),
        (
            "replicate_dgp1_table.py",
            ["--n", "30", "--reps", "2", "--bootstrap", "20"],
            ["dgp1_table.csv", "dgp1_table.json"],
        ),
        (
            "replicate_dgp2_table.py",
            ["--n", "30", "--reps", "2", "--rho", "0"],
            ["dgp2_table.csv", "dgp2_table.json"],
        ),
    ],
)
def test_script_runs(tmp_path, script, args, outputs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0, name
