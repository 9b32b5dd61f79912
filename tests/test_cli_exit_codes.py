"""Flag errors fail fast and name the flag; only input errors exit 2."""

import contextlib
import os
import threading

import pytest

import qdid.cli
from qdid.cli import EXIT_INTERNAL, EXIT_OK, EXIT_VALIDATION, FlagError, RunConfig, main


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail the test if ``qdid mc`` reaches its first simulation."""

    def refuse(*args, **kwargs):
        raise AssertionError("run_mc was called")

    monkeypatch.setattr(qdid.cli, "run_mc", refuse)


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--bootstrap", "-3"], "--bootstrap"),
        (["--bootstrap", "1"], "--bootstrap"),
        (["--alpha", "1.5"], "--alpha"),
        (["--alpha", "0"], "--alpha"),
        (["--taus", "0.5,1.5"], "--taus"),
        (["--taus", "0.9,0.1"], "--taus"),
        (["--taus", "x"], "--taus"),
        (["--reps", "0"], "--reps"),
        (["--n", "0"], "--n"),
        (["--n", ""], "--n"),
        (["--n", "nan"], "--n"),
        (["--n", "inf"], "--n"),
        (["--estimators", "ddid,qr"], "--estimators"),
        (["--seed", "-1"], "--seed"),
        (["--te", "nan"], "--n/--te"),
        (["--estimators", ""], "--estimators"),
        (["--estimators", "ddid,ddid"], "--estimators"),
    ],
)
def test_mc_rejects_bad_flags_before_simulating(tmp_path, capsys, no_simulation, flags, name):
    code = main(["mc", "--dgp", "1", "--reps", "2", "-o", str(tmp_path / "t")] + flags)
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}")
    assert "internal error" not in err


def test_mc_rejects_a_non_positive_definite_rho(tmp_path, capsys, no_simulation):
    code = main(["mc", "--dgp", "2", "--n", "20", "--rho", "0,5", "-o", str(tmp_path / "t")])
    assert code == EXIT_VALIDATION
    assert "--rho: rho_bar=5.0" in capsys.readouterr().err


def test_mc_bootstrap_zero_still_means_no_test(tmp_path):
    code = main(
        ["mc", "--dgp", "1", "--n", "20", "--reps", "2", "--bootstrap", "0",
         "--estimators", "ddid", "-o", str(tmp_path / "t")]
    )
    assert code == EXIT_OK
    assert "rej_prob" not in (tmp_path / "t.csv").read_text()


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--n", "0"], "--n"),
        (["--seed", "-2"], "--seed"),
        (["--rho", "0.99"], "--rho"),
        (["--rho", "nan"], "--rho"),
    ],
)
def test_simulate_rejects_bad_flags(tmp_path, capsys, flags, name):
    code = main(["simulate", "--dgp", "2", "-o", str(tmp_path / "d.csv")] + flags)
    assert code == EXIT_VALIDATION
    assert name in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize(
    "field, value, name",
    [("seed", -1, "--seed"), ("min_cell_size", 0, "--min-cell-size"),
     ("estimators", ("ddid", "qr"), "--estimators"), ("estimators", (), "--estimators"),
     ("scheme", "bogus", "--scheme"), ("estimators", ("ddid", "ddid"), "--estimators"),
     ("covariate_cols", ("x1", "x1"), "--covariates")],
)
def test_run_config_names_the_flag(field, value, name):
    with pytest.raises(FlagError, match=f"^{name}"):
        RunConfig(input_path="unused.csv", **{field: value})


def test_unexpected_value_error_is_an_internal_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "data.csv"
    assert main(["simulate", "--dgp", "1", "--n", "20", "-o", str(path)]) == EXIT_OK

    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(qdid.cli, "analyze_cell", broken)
    code = main(["estimate", "-i", str(path), "-o", str(tmp_path / "out"), "-b", "20"])
    assert code == EXIT_INTERNAL
    assert code not in (EXIT_OK, EXIT_VALIDATION, qdid.cli.EXIT_INFEASIBLE)
    err = capsys.readouterr().err
    assert "internal error" in err
    assert "operands could not be broadcast together" in err


def test_input_errors_keep_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("unit,period,y,d\na,0,1,0\na,1,2,3\n", encoding="utf-8")
    assert main(["estimate", "-i", str(path), "-o", str(tmp_path / "o"), "-b", "20"]) == 2
    assert capsys.readouterr().err == "error: line 3: d='3' must be 0 or 1\n"


def test_unwritable_output_path_is_an_input_error(tmp_path, capsys):
    code = main(["simulate", "--dgp", "1", "-o", str(tmp_path / "missing" / "d.csv")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err


def _non_utf8_input(where: str) -> bytes:
    """A panel file with one \\xff byte in the header or in a data row's
    flag field; the data row is near the end, past the first 8 KB."""
    rows = [b"%d,%d,%d.5,%d" % (u, p, u % 7, u % 2) for u in range(400) for p in (0, 1)]
    header = b"unit,period,y,d"
    if where == "header":
        header = b"unit,period,y\xff,d"
    else:
        rows[-5] = rows[-5][:-1] + b"\xff"
    return b"\n".join([header, *rows]) + b"\n"


@pytest.mark.parametrize("source", ["file", "pipe"])
@pytest.mark.parametrize("where", ["header", "row"])
def test_non_utf8_input_is_an_input_error(tmp_path, capsys, where, source):
    data = _non_utf8_input(where)
    path = tmp_path / "data.csv"
    writer = None
    if source == "file":
        path.write_bytes(data)
    else:
        if not hasattr(os, "mkfifo"):
            pytest.skip("named pipes are POSIX only")
        os.mkfifo(path)

        def feed():
            with contextlib.suppress(BrokenPipeError), open(path, "wb") as pipe:
                pipe.write(data)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
    code = main(["estimate", "-i", str(path), "-o", str(tmp_path / "out"), "-b", "20"])
    if writer is not None:
        writer.join(timeout=10)
        assert not writer.is_alive()
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: not UTF-8 text")
    assert "internal error" not in err
