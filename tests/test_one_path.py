"""Every reported number is a row of the bootstrap kernel.

With the one-weight-vector CDF types made to fail, ``qdid estimate`` (panel
and repeated cross sections, ddid and cic, with the unconditional mixture)
and ``qdid mc`` still run and write the same bytes.
"""

import pytest

from qdid import empirical
from qdid.cli import EXIT_OK, main
from qdid.inference import substream

ESTIMATE = ["estimate", "-i", "input.csv", "--covariates", "x1", "-b", "30",
            "--estimators", "ddid,cic", "--unconditional"]
COMMANDS = {
    "panel": ESTIMATE,
    "rcs": ESTIMATE + ["--mode", "rcs"],
    "mc": ["mc", "--dgp", "1", "--n", "30", "--reps", "2", "--bootstrap", "20"],
}


def write_panel(path):
    """Two covariate cells of 40 units per arm, outcomes on a 0.1 grid (tied)."""
    rng = substream(5, 0)
    lines = ["unit,period,y,d,x1"]
    for unit in range(160):
        d, x = unit % 2, unit // 2 % 2
        pre = round(float(rng.normal()), 1)
        post = round(pre + float(rng.normal()) + d, 1)
        lines += [f"{unit},0,{pre},{d},{x}", f"{unit},1,{post},{d},{x}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def refuse(*args, **kwargs):
    raise AssertionError("a one-weight-vector CDF was built")


@pytest.mark.parametrize("command", COMMANDS)
def test_outputs_need_no_scalar_estimator(tmp_path, monkeypatch, command):
    outputs = {}
    for kernel_only in (False, True):
        work = tmp_path / str(kernel_only)
        work.mkdir()
        monkeypatch.chdir(work)
        write_panel(work / "input.csv")
        with monkeypatch.context() as patch:
            if kernel_only:
                patch.setattr(empirical.StepDistribution, "__init__", refuse)
                patch.setattr(empirical.SortedSample, "fit", refuse)
            assert main(COMMANDS[command] + ["-o", "result"]) == EXIT_OK
        outputs[kernel_only] = {p.name: p.read_bytes() for p in work.glob("result*")}
    assert len(outputs[False]) == (2 if command == "mc" else 3)
    assert outputs[True] == outputs[False]
