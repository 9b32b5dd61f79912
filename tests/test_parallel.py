"""Parallel evaluation: outputs do not depend on the number of worker
processes, each worker runs one contiguous range, the callable may be a
closure, a worker's error is an internal error, and no worker, pipe or
process pool module outlives its run."""

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
from qdid import inference, simulation
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
    (x1 = 3) of 2 rows per arm and period, the smallest a cell may be at the
    default --min-cell-size."""
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
    # the cells alone, in rounds of the cells whose draws fit the store budget
    "rcs-cells": (rcs_csv, ["estimate", "--mode", "rcs", *ESTIMATE[:-1]]),
    "panel-cells": (panel_csv, ["estimate", *ESTIMATE[:-1]]),
    "mc": (None, ["mc", "--dgp", "1", "--n", "20", "--reps", "5", "--seed", "3"]),
    # one parallel run per design
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


def assert_no_child():
    """This process has no child left, running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_script(tmp_path, code, *args):
    """Run Python code in a fresh interpreter with qdid importable, in
    ``tmp_path``; a run that hangs fails after two minutes."""
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args], capture_output=True, text=True,
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )


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
    (two estimators, 91 grid points) fit with the mixture's. A round without
    the mixture keeps as many, since (1 + 2 kept) // 2 is ``kept``."""
    monkeypatch.setattr(inference, "STORE_ELEMENTS", bootstrap * 91 * (1 + 2 * kept))


@pytest.mark.parametrize("kept", [3, 1])
@pytest.mark.parametrize("command", ["panel", "rcs", "panel-cells", "rcs-cells"])
def test_chunks_straddling_the_draw_ranges_leave_outputs_unchanged(
    tmp_path, monkeypatch, command, kept
):
    """25 draws split into ranges of 8, 8 and 9 (or 12 and 13), over 3
    cells of 15 units per arm in blocks of 3 draws. A chunk budget of 135
    gives 3-draw chunks over the 3 cells, so the chunks of one range cross
    the ends of the others, and 9-draw chunks over one cell alone. One of
    4096, above the block budget, gives each range one chunk, which spans
    several blocks. With one cell kept, a run takes three rounds, with or
    without the mixture."""
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
    over one cell alone, each block is drawn once per pass; a cell whose
    draws do not fit the store budget with the mixture's draws its blocks
    again in a later round. The first round keeps at least one cell, even
    when none fits (``kept`` 0)."""
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
    kept = max(kept, 1)
    assert drawn == {(cell, j): 1 if cell < kept else 2 for cell in range(3) for j in range(9)}


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("command", ["panel", "rcs-cells", "mc", "mc-designs"])
def test_each_parallel_run_forks_one_worker_per_part(tmp_path, monkeypatch, command, count):
    """Every ``_parallel`` call of ``estimate`` and ``mc`` splits its draws
    or reps into at most one part per worker, and forks once per part."""
    workers(monkeypatch, count)
    keep_cells(monkeypatch, 1, 25)  # one cell per round
    fork, forks, calls = os.fork, [], []

    def counting_fork():
        forks.append(1)  # before the fork: counted in the parent only
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    for module in (qdid.cli, simulation):
        def recording(run, n, parallel=module._parallel):
            before = len(forks)
            results = parallel(run, n)
            calls.append((n, len(results), len(forks) - before))
            return results

        monkeypatch.setattr(module, "_parallel", recording)
    assert run(tmp_path, command, 25)[0] == EXIT_OK
    expected = {"panel": 3, "rcs-cells": 4, "mc": 1, "mc-designs": 2}[command]
    assert len(calls) == expected
    assert all(parts == forked == min(count, n) for n, parts, forked in calls)


def test_a_delegating_closure_runs_in_the_workers(tmp_path, monkeypatch):
    """A closure rebound on the name the CLI runs in its workers, as the
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
    assert ", in broken\n" in err  # the worker's traceback
    assert multiprocessing.active_children() == []
    assert_no_child()


def test_a_worker_killed_mid_task_is_an_internal_error(tmp_path, capsys, monkeypatch):
    workers(monkeypatch, 2)

    def killed(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(qdid.cli, "bootstrap_block", killed)
    code, _ = run(tmp_path, "panel", 20)
    assert code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal error" in err
    assert f"exited with status {-signal.SIGKILL} before sending its results" in err
    assert_no_child()


def test_an_unpicklable_exception_keeps_its_message_and_traceback(monkeypatch):
    workers(monkeypatch, 2)

    def unpicklable_error():
        error = ValueError("operands could not be broadcast together")
        error.hook = lambda: None
        raise error

    with pytest.raises(RuntimeError, match="ValueError: operands could not be") as raised:
        inference._parallel(lambda part: unpicklable_error() if part.start == 1 else 1, 3)
    assert isinstance(raised.value.__cause__, inference._RemoteTraceback)
    assert "in unpicklable_error" in str(raised.value.__cause__)
    assert_no_child()


def test_the_first_failing_task_in_task_order_raises(monkeypatch):
    """Each of two workers fails on its own part; the earlier part raises."""
    workers(monkeypatch, 3)

    def fail(part):
        if part.start in (1, 2):
            time.sleep(0.2 * (2 - part.start))  # part 2 fails first
            raise KeyError(part.start)
        return part.start

    with pytest.raises(KeyError, match="^1$"):
        inference._parallel(fail, 3)
    assert_no_child()


def _descriptors():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists descriptors in /proc")
def test_every_pipe_is_closed_after_a_run_or_an_error(monkeypatch):
    """Each of four workers, which may be more than there are CPUs, sends a
    result larger than a pipe's buffer holds at once: each index is run
    once, in its part's order."""
    workers(monkeypatch, 4)
    before = _descriptors()
    assert inference._parallel(lambda part: [i * i for i in part], 200000) == [
        [i * i for i in range(k * 50000, (k + 1) * 50000)] for k in range(4)
    ]
    assert _descriptors() == before
    with pytest.raises(ZeroDivisionError):
        inference._parallel(lambda part: [1 // (i - 7) for i in part], 20)
    assert _descriptors() == before
    with pytest.raises(RuntimeError, match="before sending its results"):
        inference._parallel(lambda part: os._exit(3), 3)
    assert _descriptors() == before
    assert_no_child()


def test_workers_flush_their_output_and_not_the_parents(tmp_path):
    """Output that a task leaves in the buffers of standard output and error
    is written before its worker exits; what the parent buffered before the
    fork is written once."""
    out = run_script(tmp_path, """
        import sys
        from qdid import inference
        inference._workers = lambda: 4
        print("parent", end=" ")

        def task(part):
            sys.stdout.write(f"out{part.start} ")
            sys.stderr.write(f"err{part.start} ")
            return part.start

        assert inference._parallel(task, 4) == [0, 1, 2, 3]
        """)
    assert out.returncode == 0, out.stderr
    assert sorted(out.stdout.split()) == ["out0", "out1", "out2", "out3", "parent"]
    assert sorted(out.stderr.split()) == ["err0", "err1", "err2", "err3"]


def test_a_run_with_two_workers_loads_no_process_pool(tmp_path):
    panel_csv(tmp_path / "input.csv")
    out = run_script(tmp_path, """
        import sys
        import qdid.cli
        from qdid import inference
        inference._workers = lambda: 2
        calls = []
        parallel = inference._parallel

        def counted(run, n):
            results = parallel(run, n)
            calls.append(len(results))
            return results

        qdid.cli._parallel = counted
        argv = ["estimate", "-i", "input.csv", "-o", "out", "-b", "4", *sys.argv[1:]]
        assert qdid.cli.main(argv) == 0
        print("tasks:", calls)
        print("pools:", "multiprocessing" in sys.modules, "concurrent.futures" in sys.modules)
        """, *ESTIMATE)
    assert out.stdout.splitlines()[-2:] == ["tasks: [2]", "pools: False False"], out.stderr


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
    """Part 0 waits for part 1 to start in the other worker, then kills the
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

        inference._parallel(lambda part: kill_parent() if part.start == 0 else started(), 2)
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
