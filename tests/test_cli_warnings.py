"""A bootstrap too short for its level: with fewer than 1/alpha draws the
(1 - alpha) critical value is always the largest draw, and the CLI warns."""

import numpy as np
import pytest

from qdid.cli import EXIT_OK, main
from qdid.inference import empirical_quantile


def _run(tmp_path, command, flags):
    if command == "estimate":
        data = tmp_path / "data.csv"
        assert main(["simulate", "--dgp", "1", "--n", "30", "--seed", "1", "-o", str(data)]) == 0
        argv = ["estimate", "-i", str(data), "--estimators", "ddid,cic",
                "--tau-min", "0.25", "--tau-max", "0.75", "--tau-step", "0.25"]
    else:
        argv = ["mc", "--dgp", "1", "--n", "15", "--reps", "1", "--taus", "0.5"]
    return main(argv + flags + ["-o", str(tmp_path / "out")])


@pytest.mark.parametrize("command", ["estimate", "mc"])
@pytest.mark.parametrize(
    "flags, warns",
    [(["-b", "50", "--alpha", "0.001"], True), (["-b", "500", "--alpha", "0.05"], False)],
)
def test_short_bootstrap_warns_once(tmp_path, capsys, command, flags, warns):
    assert _run(tmp_path, command, flags) == EXIT_OK
    err = capsys.readouterr().err
    assert err.count("warning") == (1 if warns else 0)
    if warns:
        assert "--bootstrap 50" in err and "--alpha 0.001" in err
    outputs = ("out.json", "out.csv" if command == "mc" else "out.bands.csv")
    assert all((tmp_path / name).exists() for name in outputs)


@pytest.mark.parametrize(
    "bootstrap, alpha",
    [(19, 0.05), (20, 0.05), (199, 0.005), (200, 0.005), (2, 0.5), (3, 1 / 3), (4, 1 / 3)],
)
def test_warning_matches_the_quantile_rule(tmp_path, capsys, bootstrap, alpha):
    flags = ["-b", str(bootstrap), "--alpha", repr(alpha)]
    assert _run(tmp_path, "mc", flags) == EXIT_OK
    largest = empirical_quantile(np.arange(bootstrap, dtype=float), 1.0 - alpha) == bootstrap - 1
    assert ("warning" in capsys.readouterr().err) == largest
