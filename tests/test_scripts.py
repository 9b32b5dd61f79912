"""Each script under ``scripts/`` runs at a small size, and the table scripts
report a bad flag as ``qdid mc`` does."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


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
    done = run_script(tmp_path, script, args)
    assert done.returncode == 0, done.stderr
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0, name


@pytest.mark.parametrize(
    "script, args",
    [
        ("replicate_dgp1_table.py", ["--n", "30", "--reps", "2", "--bootstrap", "1"]),
        ("replicate_dgp2_table.py", ["--n", "30", "--reps", "0", "--rho", "0"]),
    ],
)
def test_a_table_script_reports_a_bad_flag_as_qdid_mc_does(tmp_path, script, args):
    done = run_script(tmp_path, script, args)
    assert done.returncode == 2
    assert done.stderr.startswith("error: --"), done.stderr
    assert "Traceback" not in done.stderr
    assert not list(tmp_path.iterdir())


def test_the_dgp1_table_without_a_bootstrap_is_written_and_printed(tmp_path):
    done = run_script(tmp_path, "replicate_dgp1_table.py",
                      ["--n", "30", "--reps", "2", "--bootstrap", "0"])
    assert done.returncode == 0, done.stderr
    table = (tmp_path / "dgp1_table.csv").read_text(encoding="utf-8")
    assert table.startswith("statistic,n,ddid_") and "rej_prob" not in table
    assert done.stdout.endswith(table)
