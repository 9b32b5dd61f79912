"""Every reported number is a row of the bootstrap kernel.

With every binding of the one-row names made to fail, ``qdid estimate``
(panel and repeated cross sections, ddid and cic, with the unconditional
mixture) and ``qdid mc`` still run and write the same bytes.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import qdid
from qdid import empirical
from qdid.cli import EXIT_OK, main
from qdid.inference import substream

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

# The one-weight-vector names, which no run calls: they stay defined, outside
# ``qdid.__all__``, while the benchmark tracer (bench/tracer.py) rebinds them.
ONE_ROW = ("StepDistribution", "rank_transform", "CounterfactualResult", "counterfactual_cdf",
           "counterfactual_cdf_panel", "counterfactual_cdf_rcs", "cic_qtt", "draw_weights")
MODULES = ("cli", "data_model", "empirical", "estimators", "inference", "simulation")

ESTIMATE = ["estimate", "-i", "input.csv", "--covariates", "x1", "-b", "30",
            "--estimators", "ddid,cic", "--unconditional"]
COMMANDS = {
    "panel": ESTIMATE,
    "rcs": ESTIMATE + ["--mode", "rcs"],
    "mc": ["mc", "--dgp", "1", "--n", "30", "--reps", "2", "--bootstrap", "20"],
}


def one_row_bindings() -> list[tuple[object, str]]:
    """(owner, attribute) of every binding of a one-row name: each ``qdid``
    module's attribute of that name, the methods the tracer wraps on
    ``StepDistribution``, and ``SortedSample.fit``, which builds one."""
    modules = [importlib.import_module(f"qdid.{m}") for m in MODULES]
    bindings = [(m, name) for m in modules for name in ONE_ROW if hasattr(m, name)]
    bindings += [(empirical.StepDistribution, method)
                 for cls, method, _ in tracer.METHODS if cls in ONE_ROW]
    return bindings + [(empirical.SortedSample, "fit")]


def test_every_tracer_binding_of_a_one_row_name_is_refused():
    traced = {(owner, name) for owner, name, _ in tracer.FUNCTIONS + tracer.METHODS
              if {owner, name} & set(ONE_ROW)}
    refused = {(owner.__name__, name) for owner, name in one_row_bindings()}
    assert traced and traced <= refused


def test_qdid_exports_no_one_row_name():
    for module in (qdid, *(importlib.import_module(f"qdid.{m}") for m in MODULES)):
        assert not set(ONE_ROW) & set(module.__all__), module.__name__
    assert not set(ONE_ROW) & set(dir(qdid))
    assert {name for _, name in one_row_bindings()} >= set(ONE_ROW)  # still defined


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
    raise AssertionError("a one-row name was called")


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
                for owner, name in one_row_bindings():
                    patch.setattr(owner, name, refuse)
            assert main(COMMANDS[command] + ["-o", "result"]) == EXIT_OK
        outputs[kernel_only] = {p.name: p.read_bytes() for p in work.glob("result*")}
    assert len(outputs[False]) == (2 if command == "mc" else 3)
    assert outputs[True] == outputs[False]
