"""End-to-end and per-layer benchmark of the ``qdid`` command line.

    python3 bench/run.py --workload panel-subgroups --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; ``qdid`` is imported from ``src/``.
Each run generates its inputs from ``--seed`` under ``bench/out/`` (in a
child process, see ``generate``), then runs the workload's ``qdid`` command
in a fresh interpreter, one process at a time, for ``--seconds`` seconds
(at least three commands), and checks
every output. With ``--trace 0`` it also times a fresh interpreter that
imports ``qdid.cli`` and builds its parser, and reports the end-to-end
metrics. With ``--trace 1`` it alternates traced and untraced commands and
reports per-layer metrics from the traced ones (see ``tracer.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller record of the run
(samples, quartiles, digests, input record, machine) is written to
``bench/out/<workload>.trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from tracer import UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

RUN_LIMIT_S = 170  # every child is killed before the run passes this
MIN_COMMANDS = 3
# setup_s spreads by a tenth between probes and drifts with the machine's
# load: take the median of many probes spread over the whole run.
PROBES_PER_COMMAND = 4
MIN_TRACED_PAIRS = 2
SETUP_CODE = "import qdid.cli; qdid.cli._build_parser()"
GRID_POINTS = 91  # default --tau-min 0.05 --tau-max 0.95 --tau-step 0.01
ESTIMATE_OUTPUTS = ("result.json", "result.bands.csv", "result.summary.csv")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def generate(work: Path, name: str, seed: int) -> dict:
    """Write ``work/input.csv`` for a workload in a child process; return its record.

    On Linux a child's ``ru_maxrss`` starts from the high-water mark of the
    process it was started from, so this process keeps its own peak below
    the children's: it never holds the generated rows, and does not import
    numpy.
    """
    argv = [sys.executable, str(BENCH / "inputs.py"), "--workload", name, "--seed", str(seed),
            "--csv", "input.csv", "--record", "input.json"]
    subprocess.run(argv, cwd=work, check=True, timeout=RUN_LIMIT_S)
    return json.loads((work / "input.json").read_text(encoding="utf-8"))


@dataclass
class Workload:
    argv: list[str]
    outputs: tuple[str, ...]
    check: Callable[[], list[str]]  # problems with the outputs on disk
    record: dict = field(default_factory=dict)


def panel_subgroups(work: Path, seed: int) -> Workload:
    record = generate(work, "panel-subgroups", seed)
    expect = {
        "mode": "panel",
        "n_total": record["n_total"],
        "expected_cells": record["expected_cells"],
        "estimators": ["ddid", "cic"],
        "unconditional": True,
        "n_taus": GRID_POINTS,
    }
    argv = [
        "estimate", "--input", "input.csv", "--covariates", "x1,x2,x3",
        "-b", "500", "--estimators", "ddid,cic", "--unconditional", "--out", "result",
    ]
    return Workload(argv, ESTIMATE_OUTPUTS, lambda: checks.check_estimate(work / "result", expect), record)


def rcs_ingest(work: Path, seed: int) -> Workload:
    record = generate(work, "rcs-ingest", seed)  # 10 rows per arm in the small cell
    expect = {
        "mode": "rcs",
        "n_total": record["n_total"],
        "expected_cells": record["expected_cells"],
        "estimators": ["ddid"],
        "unconditional": False,
        "n_taus": GRID_POINTS,
    }
    argv = [
        "estimate", "--input", "input.csv", "--mode", "rcs", "--covariates", "x1,x2,x3",
        "-b", "20", "--min-cell-size", "20", "--out", "result",
    ]
    return Workload(argv, ESTIMATE_OUTPUTS, lambda: checks.check_estimate(work / "result", expect), record)


def mc_dgp1(work: Path, seed: int) -> Workload:
    expect = {
        "n": 200, "reps": 50, "taus": [0.1, 0.5, 0.9], "estimators": ["ddid", "cic"],
        "bootstrap": 200, "scheme": "dirichlet", "seed": seed,
    }
    argv = [
        "mc", "--dgp", "1", "--n", "200", "--reps", "50", "--bootstrap", "200",
        "--scheme", "dirichlet", "--seed", str(seed), "--out", "result",
    ]
    return Workload(argv, ("result.csv", "result.json"), lambda: checks.check_mc(work / "result", expect))


WORKLOADS = {"panel-subgroups": panel_subgroups, "rcs-ingest": rcs_ingest, "mc-dgp1": mc_dgp1}


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_kb: int


class Runner:
    """Starts one child at a time and reaps it with ``wait4`` for its rusage."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.attempted = 0
        self.failed = 0

    def run(self, argv: list[str], log: str) -> Child:
        self.attempted += 1
        with open(self.work / log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            pidfd = os.pidfd_open(proc.pid)
            try:
                timeout = max(self.deadline - time.monotonic(), 0.0)
                if not select.select([pidfd], [], [], timeout)[0]:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:  # interrupted: leave no child behind
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise
            finally:
                os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss)


def summary(values: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered), "min": ordered[0], "max": ordered[-1]}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    if n > 10:
        p = math.floor(100 * (1 - 10 / n))
        out["tail"] = {"percentile": p, "value": ordered[max(math.ceil(p / 100 * n) - 1, 0)]}
    else:
        out["tail"] = None  # fewer than 11 samples: no percentile has ten beyond it
    return out


def machine() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](work, seed)
    runner = Runner(work, start + RUN_LIMIT_S)
    load_before = os.getloadavg()
    problems: list[str] = []
    reference: dict | None = None

    def command(argv: list[str], log: str, check_more=lambda: []) -> Child:
        """Run one workload command; any problem with its outputs makes it a failure."""
        nonlocal reference
        for out in workload.outputs:
            (work / out).unlink(missing_ok=True)
        child = runner.run(argv, log)
        found = [] if child.code == 0 else [f"{log}: exit code {child.code}"]
        if not found:
            found = [f"{log}: {p}" for p in workload.check() + check_more()]
        if not found:
            digests = checks.digests(work / out for out in workload.outputs)
            if reference is None:
                reference = digests
            elif digests != reference:
                found = [f"{log}: outputs differ from the first command's"]
        runner.failed += bool(found)
        problems.extend(found)
        return child

    qdid = [sys.executable, "-m", "qdid"] + workload.argv
    samples: dict[str, list[float]] = {}
    def probe() -> float:
        child = runner.run([sys.executable, "-c", SETUP_CODE], "setup.log")
        if child.code != 0:
            runner.failed += 1
            problems.append(f"setup probe: exit code {child.code}")
        return child.wall_s

    if not trace:
        probe()  # warms the file cache and writes bytecode; not a sample
        setup, walls, rss, rounds = [], [], [], []
        t0 = time.monotonic()
        while len(walls) < MIN_COMMANDS or time.monotonic() - t0 + statistics.median(rounds) <= seconds:
            t1 = time.monotonic()
            setup += [probe() for _ in range(PROBES_PER_COMMAND)]
            child = command(qdid, f"command{len(walls)}.log")
            walls.append(child.wall_s)
            rss.append(child.maxrss_kb / 1024)
            rounds.append(time.monotonic() - t1)
        samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}
        stats = {k: summary(v) for k, v in samples.items()}
        metrics = {k: {"value": stats[k]["median"], "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}
    else:
        traced_walls, plain_walls, layers = [], [], []

        def read_trace() -> list[str]:
            try:
                result = json.loads((work / "trace.json").read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                return [f"no tracer metrics: {exc}"]
            layers[-1] = result["metrics"]
            return [] if result["restored"] else ["tracer left qdid bindings replaced"]

        t0 = time.monotonic()
        while len(layers) < MIN_TRACED_PAIRS or (time.monotonic() - t0) * (1 + 1 / len(layers)) <= seconds:
            pair = len(layers)
            layers.append({})
            for kind in ("traced", "plain") if pair % 2 == 0 else ("plain", "traced"):
                if kind == "plain":
                    plain_walls.append(command(qdid, f"plain{pair}.log").wall_s)
                    continue
                traced = [
                    sys.executable, str(BENCH / "traced_qdid.py"), "--metrics", "trace.json",
                    "--spans", "spans.npz", "--spawned-at", repr(time.time()), "--",
                ]
                traced_walls.append(command(traced + workload.argv, f"traced{pair}.log", read_trace).wall_s)
        samples = {"traced_wall_s": traced_walls, "untraced_wall_s": plain_walls}
        stats = {k: summary(v) for k, v in samples.items()}
        overhead = stats["traced_wall_s"]["median"] - stats["untraced_wall_s"]["median"]
        metrics = {}
        for key, unit in UNITS.items():
            values = [m[key] for m in layers if key in m]
            value = overhead if key == "trace.overhead_s" else (statistics.median(values) if values else 0.0)
            metrics[key] = {"value": value, "unit": unit}

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": ["qdid"] + workload.argv,
        "input": {k: v for k, v in workload.record.items() if k != "expected_cells"},
        "samples": samples,
        "stats": stats,
        "digests": reference,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted,
        "problems": problems,
        "machine": machine(),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        # must stay below every child's peak_rss_mb, which starts from it
        "harness_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "elapsed_s": time.monotonic() - start,
    }
    (OUT / f"{name}.trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return {"record": record, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so a running child is killed and reaped
    if not (ROOT / "src" / "qdid" / "cli.py").is_file():
        print(f"error: no qdid source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record, metrics = result["record"], result["metrics"]
    print(f"workload {args.workload} seed {args.seed}: {record['attempted']} processes, "
          f"{record['elapsed_s']:.1f} s, harness peak {record['harness_maxrss_mb']:.1f} MB; "
          f"machine {json.dumps(record['machine'])}")
    for key, stat in record["stats"].items():
        quart = f", q1 {stat['q1']:.4f}, q3 {stat['q3']:.4f}" if "q1" in stat else ""
        print(f"  {key}: median {stat['median']:.4f} of {stat['n']} samples{quart}, tail {stat['tail']}")
    for key, metric in metrics.items():
        print(f"{key} {metric['value']} {metric['unit']}")
    print(f"fail_ratio {record['fail_ratio']} ratio ({record['failed']} of {record['attempted']})")
    # digests printed so that a later commit's outputs can be compared bit for bit
    if "sha256" in record["input"]:
        print(f"sha256 input.csv {record['input']['sha256']}")
    for file, digest in (record["digests"] or {}).items():
        print(f"sha256 {file} {digest}")
    for problem in record["problems"][:20]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
