"""Tests for the benchmark harness at tiny input sizes.

    python -m pytest bench/tests -q
"""

import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import inputs
import run
import tracer
from tracer import Tracer

import qdid.cli


def _estimate_argv(mode):
    argv = ["estimate", "--input", "input.csv", "--covariates", "x1,x2,x3", "--out", "result"]
    if mode == "panel":
        return argv + ["-b", "20", "--estimators", "ddid,cic", "--unconditional"]
    return argv + ["--mode", "rcs", "-b", "10", "--min-cell-size", "5"]


def _expect(record, mode):
    return {
        "mode": mode,
        "n_total": record["n_total"],
        "expected_cells": record["expected_cells"],
        "estimators": ["ddid", "cic"] if mode == "panel" else ["ddid"],
        "unconditional": mode == "panel",
        "n_taus": run.GRID_POINTS,
    }


def _generate(directory, mode, seed=3):
    if mode == "panel":
        return inputs.panel_subgroups(directory / "input.csv", seed, units_per_arm=12)
    return inputs.rcs_ingest(directory / "input.csv", seed, rows_per_arm=10, small_rows=3)


MC_ARGV = ["mc", "--dgp", "1", "--n", "20", "--reps", "3", "--bootstrap", "5",
           "--scheme", "dirichlet", "--seed", "4", "--out", "result"]
MC_EXPECT = {"n": 20, "reps": 3, "taus": [0.1, 0.5, 0.9], "estimators": ["ddid", "cic"],
             "bootstrap": 5, "scheme": "dirichlet", "seed": 4}


@pytest.mark.parametrize("mode", ["panel", "rcs"])
def test_generators_are_deterministic(tmp_path, mode):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _generate(tmp_path / "a", mode)
    second = _generate(tmp_path / "b", mode)
    data = (tmp_path / "a" / "input.csv").read_bytes()
    assert data == (tmp_path / "b" / "input.csv").read_bytes()
    assert first == second
    assert first["sha256"] == hashlib.sha256(data).hexdigest()
    assert first["rows"] == data.count(b"\n") - 1
    assert first["cells"] == len(first["expected_cells"])
    assert b"np.float64" not in data
    other = _generate(tmp_path / "b", mode, seed=4)
    assert other["sha256"] != first["sha256"]


def test_panel_generator_has_ties(tmp_path):
    record = _generate(tmp_path, "panel")
    assert record["tie_share"] > 0.1


@pytest.mark.parametrize("mode", ["panel", "rcs"])
def test_estimate_outputs_pass_checks(tmp_path, monkeypatch, mode):
    monkeypatch.chdir(tmp_path)
    record = _generate(tmp_path, mode)
    assert qdid.cli.main(_estimate_argv(mode)) == 0
    assert checks.check_estimate(tmp_path / "result", _expect(record, mode)) == []


def _rewrite_csv(path, edit):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)


def test_corrupted_outputs_are_failures(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    record = _generate(tmp_path, "panel")
    assert qdid.cli.main(_estimate_argv("panel")) == 0
    expect = _expect(record, "panel")
    good = {p: p.read_bytes() for p in tmp_path.glob("result.*")}

    def lower_above_estimate(rows):
        est = float(rows[5][-4])
        rows[5][-3] = repr(est + 1.0)

    _rewrite_csv(tmp_path / "result.bands.csv", lower_above_estimate)
    assert any("lower <= estimate" in p for p in checks.check_estimate(tmp_path / "result", expect))

    for path, data in good.items():
        path.write_bytes(data)
    report = json.loads((tmp_path / "result.json").read_text())
    block = report["cells"][0]["estimators"]["ddid"]
    block["reject"] = not block["reject"]
    (tmp_path / "result.json").write_text(json.dumps(report))
    assert any("reject" in p for p in checks.check_estimate(tmp_path / "result", expect))

    for path, data in good.items():
        path.write_bytes(data)
    report = json.loads((tmp_path / "result.json").read_text())
    report["cells"][1]["n_treated"] += 1
    (tmp_path / "result.json").write_text(json.dumps(report))
    assert checks.check_estimate(tmp_path / "result", expect) != []


def test_mc_outputs_checked(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert qdid.cli.main(MC_ARGV) == 0
    assert checks.check_mc(tmp_path / "result", MC_EXPECT) == []
    payload = json.loads((tmp_path / "result.json").read_text())
    payload["results"][0]["rejection"]["cic"][1] = 1.5
    (tmp_path / "result.json").write_text(json.dumps(payload))
    assert any("rejection" in p for p in checks.check_mc(tmp_path / "result", MC_EXPECT))


def _bindings():
    return {
        (module, attr): getattr(__import__(module, fromlist=["x"]), attr)
        for module, attr, _ in tracer.FUNCTIONS
    } | {
        (cls, attr): vars(getattr(qdid.empirical, cls))[attr] for cls, attr, _ in tracer.METHODS
    }


@pytest.mark.parametrize("mode", ["panel", "rcs", "mc"])
def test_tracer_leaves_outputs_and_bindings_unchanged(tmp_path, monkeypatch, mode):
    before = _bindings()
    outputs = {}
    for traced in (False, True):
        work = tmp_path / str(traced)
        work.mkdir()
        monkeypatch.chdir(work)
        argv = MC_ARGV if mode == "mc" else _estimate_argv(mode)
        if mode != "mc":
            _generate(work, mode)
        if traced:
            tr = Tracer()
            tr.install()
            assert qdid.cli.load_csv is not before[("qdid.cli", "load_csv")]
            try:
                assert qdid.cli.main(argv) == 0
            finally:
                tr.uninstall()
            assert tr.restored()
            metrics = tr.metrics(window_s=1.0)
        else:
            assert qdid.cli.main(argv) == 0
        outputs[traced] = {p.name: p.read_bytes() for p in work.glob("result.*")}
    assert _bindings() == before
    assert outputs[True] == outputs[False]
    assert set(tracer.UNITS) - set(metrics) == {"trace.overhead_s", "trace.startup_s"}
    assert metrics["trace.spans"] > 0
    if mode == "panel":
        # per-cell ddid and cic draws plus the unconditional pass share keys
        assert metrics["inference.substream.distinct_key_ratio"] == pytest.approx(1 / 3)
        assert metrics["inference.counterfactual.useful_ratio"] == pytest.approx(0.5)
        assert metrics["data_model.cells"] == 8
    if mode == "rcs":
        assert metrics["data_model.viable_cells"] == 8
        assert metrics["data_model.cells"] == 9
    if mode == "mc":
        assert metrics["inference.draws"] == 3 * 5 * 2
        assert metrics["simulation.bootstrap.us_per_draw"] > 0


def test_self_and_outermost_time():
    tr = Tracer()
    with tr.span("a"):
        with tr.span("a"):
            with tr.span("b"):
                pass
    nid, start, end, parent = zip(*tr.spans)
    assert parent == (-1, 0, 1)
    assert list(Tracer._outermost(np.array(nid), np.array(parent))) == [1.0, 0.0, 1.0]


def test_summary_reports_tail_only_with_ten_beyond():
    assert run.summary([1.0, 2.0, 3.0])["tail"] is None
    stats = run.summary([float(i) for i in range(1, 21)])
    assert stats["median"] == 10.5
    assert stats["tail"] == {"percentile": 50, "value": 10.0}


CHILD_PEAK = """
import sys, time
from pathlib import Path
import run
work = Path(sys.argv[1])
record = run.WORKLOADS["rcs-ingest"](work, 1).record
child = run.Runner(work, time.monotonic() + 60).run([sys.executable, "-c", "pass"], "pass.log")
print(record["rows"], child.code, child.maxrss_kb / 1024)
"""


def test_children_do_not_inherit_the_generators_memory(tmp_path):
    """A child's ru_maxrss starts from the harness's own peak: after the
    full-size rcs-ingest input (about 200 MB to generate) an empty child
    must still read near a bare interpreter, below any workload's ~37 MB."""
    env = dict(os.environ, PYTHONPATH=str(run.BENCH))
    out = subprocess.run([sys.executable, "-c", CHILD_PEAK, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    rows, code, peak_mb = out.stdout.split()
    assert (int(rows), int(code)) == (400_040, 0)
    assert float(peak_mb) < 30.0
