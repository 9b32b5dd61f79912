"""Parallel evaluation: outputs do not depend on the number of worker
processes, tasks may be closures, a worker's error is an internal error, and
no worker outlives its run."""

import collections
import csv
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import qdid
import qdid.cli
from qdid import inference
from qdid.cli import EXIT_INTERNAL, EXIT_OK, main
from qdid.inference import substream

SRC = os.path.dirname(os.path.dirname(qdid.__file__))


def write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def panel_csv(path):
    """Three covariate cells of 15 units per arm."""
    rng = substream(5, 0)
    rows, unit = [], 0
    for x in range(3):
        for d in (0, 1):
            for _ in range(15):
                pre = float(rng.normal())
                post = pre + float(rng.normal()) + d * x
                rows += [[unit, 0, repr(pre), d, x], [unit, 1, repr(post), d, x]]
                unit += 1
    write_rows(path, ["unit", "period", "y", "d", "x1"], rows)


def rcs_csv(path):
    """Three covariate cells of 15 rows per arm and period, and a fourth
    (x1 = 3) too small to estimate."""
    rng = substream(6, 0)
    rows = []
    for x, n in ((0, 15), (1, 15), (2, 15), (3, 2)):
        for d in (0, 1):
            for t in (0, 1):
                rows += [[t, repr(float(rng.normal()) + d * t * x), d, x] for _ in range(n)]
    write_rows(path, ["period", "y", "d", "x1"], rows)


ESTIMATE = ["--covariates", "x1", "--estimators", "ddid,cic", "--unconditional"]
COMMANDS = {
    "panel": (panel_csv, ["estimate", *ESTIMATE]),
    "rcs": (rcs_csv, ["estimate", "--mode", "rcs", *ESTIMATE]),
    # one task per viable cell
    "rcs-cells": (rcs_csv, ["estimate", "--mode", "rcs", *ESTIMATE[:-1]]),
    "mc": (None, ["mc", "--dgp", "1", "--n", "20", "--reps", "5", "--seed", "3"]),
    # one pool per design
    "mc-designs": (None, ["mc", "--dgp", "2", "--n", "20", "--rho", "0,0.5", "--reps", "4",
                          "--seed", "3"]),
}
# each command again with flat Dirichlet weights
COMMANDS.update(
    {f"{name}-dirichlet": (write, argv + ["--scheme", "dirichlet"])
     for name, (write, argv) in COMMANDS.items()}
)


def run(tmp_path, command, bootstrap, name="out"):
    """Run a command; return its exit code and its outputs' bytes."""
    write, argv = COMMANDS[command]
    argv = argv + ["-b" if argv[0] != "mc" else "--bootstrap", str(bootstrap)]
    if write is not None:
        write(tmp_path / "input.csv")
        argv += ["--input", str(tmp_path / "input.csv")]
    code = main(argv + ["--out", str(tmp_path / name)])
    return code, {p.name: p.read_bytes() for p in sorted(tmp_path.glob(f"{name}.*"))}


def workers(monkeypatch, count):
    monkeypatch.setattr(inference, "_workers", lambda: count)


@pytest.mark.parametrize("bootstrap", [2, 25])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, command, bootstrap):
    """With 3 workers and -b 2, the unconditional draws split into one-draw
    ranges; the 5 MC reps split unevenly."""
    outputs = []
    for count in (1, 2, 3):
        workers(monkeypatch, count)
        code, files = run(tmp_path, command, bootstrap, name=f"w{count}")
        assert code == EXIT_OK
        assert multiprocessing.active_children() == []
        outputs.append({name.partition(".")[2]: data for name, data in files.items()})
    assert outputs[0] and outputs[1] == outputs[0] and outputs[2] == outputs[0]


def keep_cells(monkeypatch, kept, bootstrap):
    """Size the store budget so that the draws of the first ``kept`` cells
    (two estimators, 91 grid points) fit with the mixture's."""
    monkeypatch.setattr(inference, "STORE_ELEMENTS", bootstrap * 91 * (1 + 2 * kept))


@pytest.mark.parametrize("kept", [3, 1])
@pytest.mark.parametrize("command", ["panel", "rcs"])
def test_chunks_straddling_the_draw_ranges_leave_outputs_unchanged(
    tmp_path, monkeypatch, command, kept
):
    """25 draws split into ranges of 8, 8 and 9 (or 12 and 13), over 3
    cells of 15 units per arm in blocks of 3 draws. A chunk budget of 135
    gives 3-draw chunks over the 3 cells, so the chunks of one range cross
    the ends of the others, and 9-draw chunks in a cell's own task. One of
    4096, above the block budget, gives each range one chunk, which spans
    several blocks. With one cell kept, the other two are tasks of their
    own."""
    monkeypatch.setattr(inference, "BLOCK_ELEMENTS", 45)
    workers(monkeypatch, 1)
    reference = run(tmp_path, command, 25, name="whole")[1]
    keep_cells(monkeypatch, kept, 25)
    for chunk in (135, 4096):
        monkeypatch.setattr(inference, "CHUNK_ELEMENTS", chunk)
        for count in (1, 2, 3):
            workers(monkeypatch, count)
            code, files = run(tmp_path, command, 25, name=f"w{count}")
            assert code == EXIT_OK
            assert {n.partition(".")[2]: d for n, d in files.items()} == {
                n.partition(".")[2]: d for n, d in reference.items()
            }


@pytest.mark.parametrize("kept", [3, 1, 0])
def test_an_unconditional_run_draws_each_weight_row_once(tmp_path, monkeypatch, kept):
    """The cells' analyses and the mixture share each draw's weights. In
    blocks of 3 draws, with 2-draw chunks in the one pass and 6-draw chunks
    in a cell's own task, each block is drawn once per task; a cell whose
    draws do not fit the store budget draws its blocks again in its own
    task."""
    workers(monkeypatch, 1)
    keep_cells(monkeypatch, kept, 25)
    monkeypatch.setattr(inference, "BLOCK_ELEMENTS", 45)
    monkeypatch.setattr(inference, "CHUNK_ELEMENTS", 100)
    original = inference.substream
    drawn = collections.Counter()

    def counting(seed, *key):
        drawn[key] += 1
        return original(seed, *key)

    monkeypatch.setattr(inference, "substream", counting)
    assert run(tmp_path, "panel", 25)[0] == EXIT_OK
    assert drawn == {(cell, j): 1 if cell < kept else 2 for cell in range(3) for j in range(9)}


def test_a_delegating_closure_runs_in_the_workers(tmp_path, monkeypatch):
    """A closure rebound on the name the CLI submits as its tasks, as the
    benchmark tracer rebinds names, runs in the workers without being
    pickled."""
    workers(monkeypatch, 2)
    plain = run(tmp_path, "panel", 20, name="plain")
    original = qdid.cli.bootstrap_block
    calls = []

    def delegating(*args, **kwargs):
        calls.append(args[-1])  # in a worker: lost with it
        return original(*args, **kwargs)

    monkeypatch.setattr(qdid.cli, "bootstrap_block", delegating)
    code, files = run(tmp_path, "panel", 20, name="plain")
    assert (code, files) == plain and code == EXIT_OK
    assert calls == []  # every task ran in a worker
    assert multiprocessing.active_children() == []


def test_an_error_in_a_worker_is_an_internal_error(tmp_path, capsys, monkeypatch):
    workers(monkeypatch, 2)

    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(qdid.cli, "bootstrap_block", broken)
    code, _ = run(tmp_path, "panel", 20)
    assert code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal error" in err
    assert "operands could not be broadcast together" in err
    assert "_RemoteTraceback" in err  # raised in a worker process
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins the run to one CPU")
def test_a_run_pinned_to_one_cpu_starts_no_process(tmp_path):
    panel_csv(tmp_path / "input.csv")
    code = textwrap.dedent(
        """
        import os, sys
        import qdid.cli
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        argv = ["estimate", "-i", "input.csv", "-o", "out", "-b", "4", *sys.argv[1:]]
        assert qdid.cli.main(argv) == 0
        print("pools:", "multiprocessing" in sys.modules, "concurrent.futures" in sys.modules)
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *ESTIMATE], capture_output=True, text=True,
        check=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )
    assert out.stdout.splitlines()[-1] == "pools: False False"


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rpartition(")")[2].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_workers_exit_when_their_parent_is_killed(tmp_path):
    """Task 0 waits for task 1 to start in the other worker, then kills the
    parent with SIGKILL: neither the busy worker nor the idle one is left."""
    code = textwrap.dedent(
        """
        import os, signal, sys, time
        from qdid import inference
        inference._workers = lambda: 2
        pids = sys.argv[1]

        def started():
            open(os.path.join(pids, str(os.getpid())), "w").close()

        def kill_parent():
            started()
            while len(os.listdir(pids)) < 2:
                time.sleep(0.01)
            os.kill(os.getppid(), signal.SIGKILL)
            time.sleep(60)

        inference._parallel([kill_parent, started])
        """
    )
    (tmp_path / "pids").mkdir()
    parent = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "pids")],
        env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    assert parent.returncode == -signal.SIGKILL
    pids = [int(name) for name in os.listdir(tmp_path / "pids")]
    assert len(pids) == 2
    deadline = time.monotonic() + 10
    try:
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, pids))
    finally:
        for pid in filter(_alive, pids):
            os.kill(pid, signal.SIGKILL)
