"""Flag errors fail fast and name the flag; only input errors exit 2."""

import contextlib
import errno
import mmap
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import qdid.cli
from qdid import inference, simulation
from qdid.cli import EXIT_INTERNAL, EXIT_OK, EXIT_VALIDATION, FlagError, RunConfig, main
from qdid.data_model import PanelData, build_cells
from qdid.estimators import PanelCell, estimate_process
from qdid.inference import BootstrapConfig, analyze_cells
from qdid.simulation import DgpSpec, run_mc


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
        (["--te", "nan"], "--te"),
        (["--estimators", ""], "--estimators"),
        (["--estimators", "ddid,ddid"], "--estimators"),
        # past the bound on the draw count (inference.MAX_ITERATIONS)
        (["--bootstrap", "5000000000"], "--bootstrap"),
        # draws of 68 PB: past any address space, so the allocation fails at once
        (["--bootstrap", "4294967295", "--taus", ",".join(str(k / 1000) for k in range(1, 1000))],
         "--bootstrap"),
        # --n counts whole units per arm
        (["--n", "20.7"], "--n"),
        (["--n", "20,20.5"], "--n"),
        (["--n", "-3"], "--n"),
        # a panel of 48 PB: past any address space, so the allocation fails at once
        (["--n", "1e15", "--bootstrap", "0"], "--n"),
        # dgp 1 has no copula deviation
        (["--rho", "0.7"], "--rho"),
        # a dgp 2 table varies rho_bar, so it takes one --n (the later --dgp wins)
        (["--dgp", "2", "--n", "10,20"], "--n: dgp 2 tables vary rho_bar; pass a single --n"),
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
        (["--n", "-3"], "--n"),
        (["--n", "1000000000000000"], "--n"),
        (["--dgp", "1", "--rho", "0.7"], "--rho"),
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
     ("covariate_cols", ("x1", "x1"), "--covariates"), ("mode", "x", "--mode"),
     ("output_format", "x", "--format"), ("min_cell_size", 2.5, "--min-cell-size"),
     ("bootstrap", 2.5, "--bootstrap"), ("seed", 2.5, "--seed")],
)
def test_run_config_names_the_flag(field, value, name):
    with pytest.raises(FlagError, match=f"^{name}"):
        RunConfig(input_path="unused.csv", **{field: value})


SPEC = DgpSpec(variant=1, n_per_arm=10)
CELL = PanelCell((), control_pre=np.arange(3.0), control_post=np.arange(1.0, 4.0),
                 treated_pre=np.arange(2.0), treated_post=np.arange(2.0, 4.0))
DATA = PanelData(unit_ids=np.arange(4), y_pre=np.zeros(4), y_post=np.ones(4),
                 treated=[0, 0, 1, 1], covariates=np.empty((4, 0), dtype=int))


def _run_mc(**settings):
    return lambda: run_mc(SPEC, **{"reps": 2, "bootstrap_iterations": 10, **settings})


def _analyze(iterations=2, estimators=("ddid",)):
    config = BootstrapConfig(iterations=iterations)
    return lambda: analyze_cells([(0, CELL)], [0.5], config, estimators)


# (command, flag, value, the library call whose rule refuses that value)
LIBRARY_RULES = [
    ("estimate", "--bootstrap", "1", _analyze(iterations=1)),
    ("estimate", "--bootstrap", "-3", lambda: BootstrapConfig(iterations=-3)),
    ("estimate", "--bootstrap", "5000000000", lambda: BootstrapConfig(iterations=5000000000)),
    ("estimate", "--alpha", "0", lambda: BootstrapConfig(alpha=0.0)),
    ("estimate", "--alpha", "1.5", lambda: BootstrapConfig(alpha=1.5)),
    ("estimate", "--seed", "-1", lambda: BootstrapConfig(seed=-1)),
    ("estimate", "--scheme", "bogus", lambda: BootstrapConfig(scheme="bogus")),
    ("estimate", "--estimators", "ddid,ddid", _analyze(estimators=("ddid", "ddid"))),
    ("estimate", "--estimators", "cic,qr", _analyze(estimators=("cic", "qr"))),
    ("estimate", "--estimators", "", lambda: estimate_process(CELL, [0.5], ())),
    ("estimate", "--min-cell-size", "0", lambda: build_cells(DATA, 0)),
    ("mc", "--bootstrap", "1", _run_mc(bootstrap_iterations=1)),
    ("mc", "--bootstrap", "-1", _run_mc(bootstrap_iterations=-1)),
    ("mc", "--bootstrap", "5000000000", _run_mc(bootstrap_iterations=5000000000)),
    ("mc", "--alpha", "1.5", _run_mc(alpha=1.5)),
    ("mc", "--seed", "-1", _run_mc(seed=-1)),
    ("mc", "--scheme", "bogus", _run_mc(scheme="bogus")),
    ("mc", "--estimators", "ddid,ddid", _run_mc(estimators=("ddid", "ddid"))),
    ("mc", "--estimators", "qr", _run_mc(estimators=("qr",))),
    ("mc", "--estimators", "", _run_mc(estimators=())),
    ("mc", "--reps", "0", _run_mc(reps=0)),
    ("simulate", "--seed", "-1", _run_mc(seed=-1)),
    ("estimate", "--mode", "x", lambda: RunConfig("unused.csv", mode="x")),
    ("estimate", "--format", "x", lambda: RunConfig("unused.csv", output_format="x")),
]
NAN = float("nan")
# (--dgp, flag, value, the DgpSpec call whose rule refuses that value); a
# later --dgp takes the place of an earlier one
DESIGN_RULES = [
    ("1", "--n", "0", lambda: DgpSpec(1, 0)),
    ("1", "--n", "20.7", lambda: DgpSpec(1, 20.7)),
    ("1", "--n", "nan", lambda: DgpSpec(1, NAN)),
    ("1", "--te", "nan", lambda: DgpSpec(1, 1, NAN)),
    ("1", "--rho", "0.7", lambda: DgpSpec(1, 1, 0.0, 0.7)),
    ("2", "--rho", "0.99", lambda: DgpSpec(2, 1, 0.0, 0.99)),
    ("1", "--rho", "nan", lambda: DgpSpec(1, 1, 0.0, NAN)),
    ("1", "--dgp", "3", lambda: DgpSpec(3, 1)),
]
LIBRARY_RULES += [
    (f"{command} --dgp {dgp}", flag, value, library)
    for command in ("mc", "simulate")
    for dgp, flag, value, library in DESIGN_RULES
]


@pytest.mark.parametrize("command, flag, value, library", LIBRARY_RULES,
                         ids=[" ".join(case[:3]) for case in LIBRARY_RULES])
def test_a_flag_is_refused_with_the_library_rule_s_own_message(
    tmp_path, capsys, monkeypatch, no_simulation, command, flag, value, library
):
    """A drift guard: the CLI writes no rule of its own for these flags. It
    refuses each bad value with the error of the library check that owns
    the rule, headed by the flag, so a second copy of a rule in the CLI
    shows here."""
    monkeypatch.setattr(simulation, "_parallel", lambda *args: pytest.fail("started its reps"))
    monkeypatch.setattr(inference, "_parallel", lambda *args: pytest.fail("started its draws"))
    with pytest.raises(ValueError) as refused:
        library()
    name, *later = command.split()
    argv = {
        "estimate": ["estimate", "-i", str(tmp_path / "missing.csv")],
        "mc": ["mc", "--dgp", "1", "--reps", "2"],
        "simulate": ["simulate", "--dgp", "1"],
    }[name]
    assert main(argv + later + ["-o", str(tmp_path / "out"), flag, value]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ")
    assert err.endswith(f": {refused.value}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("dgp, flag, value",
                         [case[:3] for case in DESIGN_RULES] + [("1", "--n", "2.5")])
def test_mc_and_simulate_refuse_a_design_value_alike(
    tmp_path, capsys, no_simulation, dgp, flag, value
):
    """Both commands build each design through one helper, so a bad design
    value reads the same after ``error: `` in both."""
    errors = []
    for command in (["mc", "--reps", "2"], ["simulate"]):
        argv = command + ["--dgp", dgp, "-o", str(tmp_path / "out"), flag, value]
        assert main(argv) == EXIT_VALIDATION
        errors.append(capsys.readouterr().err.partition("error: ")[2])
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"{flag}: ")


def test_unexpected_value_error_is_an_internal_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "data.csv"
    assert main(["simulate", "--dgp", "1", "--n", "20", "-o", str(path)]) == EXIT_OK

    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(inference, "_assemble_report", broken)
    code = main(["estimate", "-i", str(path), "-o", str(tmp_path / "out"), "-b", "20"])
    assert code == EXIT_INTERNAL
    assert code not in (EXIT_OK, EXIT_VALIDATION, qdid.cli.EXIT_INFEASIBLE)
    err = capsys.readouterr().err
    assert "internal error" in err
    assert "operands could not be broadcast together" in err


@pytest.mark.parametrize("error", [MemoryError(), OSError(errno.ENOMEM, "Cannot allocate memory")])
@pytest.mark.parametrize("fail_at", [1, 2])
def test_draw_stores_that_cannot_be_held_are_a_bootstrap_error(
    tmp_path, capsys, monkeypatch, error, fail_at
):
    """An --unconditional run holds the draws of the mixture, then of each
    cell that fits the store budget (here the one cell), in shared memory.
    One that cannot be allocated fails the run after the cells are built and
    before any pass or draw."""
    path = tmp_path / "data.csv"
    assert main(["simulate", "--dgp", "1", "--n", "20", "-o", str(path)]) == EXIT_OK
    allocate, ran = mmap.mmap, []

    def failing(*args, **kwargs):
        ran.append("mmap")
        if ran.count("mmap") == fail_at:
            raise error
        return allocate(*args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", failing)
    monkeypatch.setattr(inference, "bootstrap_block", lambda *args: ran.append("task"))
    monkeypatch.setattr(inference, "_assemble_report", lambda *args, **kw: ran.append("task"))
    monkeypatch.setattr(inference, "_weight_rows", lambda *args: ran.append("draw"))
    argv = ["estimate", "-i", str(path), "-o", str(tmp_path / "out"), "-b", "20", "--unconditional"]
    assert main(argv) == EXIT_VALIDATION
    assert ran == ["mmap"] * fail_at
    err = capsys.readouterr().err
    assert err.startswith("error: --bootstrap 20: cannot hold the bootstrap draws (")
    assert "internal error" not in err


@pytest.mark.parametrize("error", [MemoryError(), OSError(errno.ENOMEM, "Cannot allocate memory")])
def test_a_cell_store_that_cannot_be_held_is_a_bootstrap_error(tmp_path, capsys, monkeypatch, error):
    """A run without the mixture keeps each round's cells' draws in shared
    memory too."""
    path = tmp_path / "data.csv"
    assert main(["simulate", "--dgp", "1", "--n", "20", "-o", str(path)]) == EXIT_OK

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(mmap, "mmap", failing)
    assert main(["estimate", "-i", str(path), "-o", str(tmp_path / "out"), "-b", "20"]) == 2
    assert capsys.readouterr().err.startswith("error: --bootstrap 20: cannot hold the bootstrap")


def test_a_memory_error_while_drawing_is_an_internal_error(tmp_path, capsys, monkeypatch):
    """Only draw stores that cannot be allocated are a --bootstrap error: a
    MemoryError raised inside the bootstrap pass is the program's own, and
    exits 4."""
    path = tmp_path / "data.csv"
    assert main(["simulate", "--dgp", "1", "--n", "20", "-o", str(path)]) == EXIT_OK
    monkeypatch.setattr(inference, "_workers", lambda: 1)  # the pass runs in process

    def failing(*args):
        raise MemoryError("no room for the weights")

    monkeypatch.setattr(inference, "_weight_rows", failing)
    argv = ["estimate", "-i", str(path), "-o", str(tmp_path / "out"), "-b", "20", "--unconditional"]
    assert main(argv) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "no room for the weights" in err and "internal error" in err
    assert "cannot hold the bootstrap draws" not in err


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_failing_system_call_is_an_internal_error(tmp_path, capsys, monkeypatch, call):
    """An OSError of the program's own (here no process or pipe can be
    made) is not bad input: it exits 4, with every pipe closed."""
    path = tmp_path / "data.csv"
    assert main(["simulate", "--dgp", "1", "--n", "20", "-o", str(path)]) == EXIT_OK
    monkeypatch.setattr(inference, "_workers", lambda: 2)

    def failing():
        raise OSError(errno.EMFILE, "Too many open files")

    before = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    monkeypatch.setattr(os, call, failing)
    code = main(["estimate", "-i", str(path), "-o", str(tmp_path / "out"), "-b", "20"])
    monkeypatch.undo()
    assert code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Too many open files" in err and "internal error" in err
    assert before is None or sorted(os.listdir("/proc/self/fd")) == before
    with pytest.raises(ChildProcessError):  # no child left
        os.waitpid(-1, os.WNOHANG)


def test_a_read_error_on_the_input_is_an_input_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "data.csv"
    assert main(["simulate", "--dgp", "1", "--n", "20", "-o", str(path)]) == EXIT_OK

    def failing(name):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(qdid.cli, "_plain_ascii", failing)
    assert main(["estimate", "-i", str(path), "-o", str(tmp_path / "out"), "-b", "20"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: [Errno 5]")


@pytest.mark.parametrize("command", ["estimate", "mc", "simulate"])
def test_an_unwritable_out_names_the_flag(tmp_path, capsys, command):
    path = tmp_path / "data.csv"
    assert main(["simulate", "--dgp", "1", "--n", "20", "-o", str(path)]) == EXIT_OK
    argv = {
        "estimate": ["estimate", "-i", str(path), "-b", "20"],
        "mc": ["mc", "--dgp", "1", "--n", "10", "--reps", "2", "--bootstrap", "0"],
        "simulate": ["simulate", "--dgp", "1", "--n", "5"],
    }[command]
    capsys.readouterr()
    assert main(argv + ["-o", str(tmp_path / "missing" / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ") and "internal error" not in err


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["estimate", "mc", "simulate"])
def test_a_closed_standard_output_loses_only_the_wrote_lines(tmp_path, command, unbuffered):
    """Standard output is a pipe whose reader is closed: the "wrote" lines
    cannot be written, with PYTHONUNBUFFERED at the print and without it at
    the flush. Every file is written before them, so the command exits 0
    and says nothing on standard error."""
    data = tmp_path / "data.csv"
    assert main(["simulate", "--dgp", "1", "--n", "20", "-o", str(data)]) == EXIT_OK
    argv, written = {
        "estimate": (["estimate", "-i", str(data), "-b", "20"], ["out.json", "out.bands.csv",
                                                                  "out.summary.csv"]),
        "mc": (["mc", "--dgp", "1", "--n", "10", "--reps", "2", "--bootstrap", "20"],
               ["out.csv", "out.json"]),
        "simulate": (["simulate", "--dgp", "1", "--n", "5"], ["out"]),
    }[command]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qdid.cli.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "qdid", *argv, "-o", str(tmp_path / "out")],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")
    assert all((tmp_path / name).stat().st_size > 0 for name in written)


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


def _estimate(tmp_path, data: bytes, source: str, *flags: str) -> int:
    """``qdid estimate`` on ``data``, read from a file or from a named pipe."""
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
    code = main(["estimate", "-i", str(path), "-o", str(tmp_path / "out"), "-b", "20", *flags])
    if writer is not None:
        writer.join(timeout=10)
        assert not writer.is_alive()
    return code


@pytest.mark.parametrize("source", ["file", "pipe"])
@pytest.mark.parametrize("where", ["header", "row"])
def test_non_utf8_input_is_an_input_error(tmp_path, capsys, where, source):
    code = _estimate(tmp_path, _non_utf8_input(where), source)
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {tmp_path / 'data.csv'}: not UTF-8 text")
    assert "internal error" not in err


@pytest.mark.parametrize(
    "data, message",
    [(b"period,y,d\n0,1.0,0\n1,2.0,0\n", "missing columns: unit"), (b"", "empty file"),
     (None, "cannot open {path}: ")],
    ids=["panel without a unit column", "empty file", "no file"],
)
def test_an_input_without_a_table_is_an_input_error(tmp_path, capsys, data, message):
    path = tmp_path / "data.csv"
    if data is not None:
        path.write_bytes(data)
    code = main(["estimate", "-i", str(path), "-o", str(tmp_path / "out"), "-b", "20"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(path=path))
    assert "internal error" not in err


@pytest.mark.skipif(sys.version_info < (3, 11), reason="csv rejects NUL bytes before 3.11")
@pytest.mark.parametrize("source", ["file", "pipe"])
@pytest.mark.parametrize("mode", ["panel", "rcs"])
def test_a_unit_id_with_a_nul_is_an_input_error(tmp_path, capsys, mode, source):
    """numpy str arrays drop trailing NULs, so unit a\\x00 would merge with unit a."""
    data = b"unit,period,y,d\na,0,1.0,0\na,1,2.0,0\na\x00,0,1.5,1\na\x00,1,3.0,1\n"
    assert _estimate(tmp_path, data, source, "--mode", mode) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: line 4: unit='a\\x00' contains a NUL character\n"
