"""The public surface: every exported name resolves, every name the docs
point at resolves, and the ``estimate`` flags bind to ``RunConfig`` fields by
name, so its defaults live there only."""

import argparse
import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import qdid
import qdid.cli
from qdid.cli import EXIT_OK, RunConfig, main
from qdid.estimators import ESTIMATORS
from qdid.simulation import DEFAULT_MC_TAUS

SRC = os.path.dirname(os.path.dirname(qdid.__file__))
MODULES = ["qdid"] + [
    f"qdid.{m.name}" for m in pkgutil.iter_modules(qdid.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


DOC_MODULES = ("cli", "data_model", "empirical", "estimators", "inference", "simulation")
# `inference.bootstrap_block` or `qdid.cli.RunConfig` in README.md, not a
# file name such as qdid/inference.py
README_NAME = re.compile(rf"(?<![\w./])(?:qdid\.)?({'|'.join(DOC_MODULES)})\.(?!py\b)(\w+)")
DOC_NAME = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``")


def _resolves(module: str, dotted: str) -> bool:
    target = importlib.import_module(module)
    for part in dotted.split("."):
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


def test_documented_names_resolve():
    """Each `<module>.<name>` in README.md names an attribute of that qdid
    module, and each double-backticked name in a docstring or comment of a
    qdid module that is private (``_x``) or module-qualified
    (``estimators._cell_rows``) resolves in its module."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    missing = [
        f"README.md: {module}.{name}"
        for module, name in README_NAME.findall(readme)
        if not _resolves(f"qdid.{module}", name)
    ]
    for owner in MODULES:
        with open(importlib.import_module(owner).__file__, "rb") as source:
            tokens = list(tokenize.tokenize(source.readline))
        for token in tokens:
            if token.type not in (tokenize.COMMENT, tokenize.STRING):
                continue
            for name in DOC_NAME.findall(token.string):
                head, _, rest = name.partition(".")
                if head.startswith("_"):
                    module, dotted = owner, name
                elif head in DOC_MODULES and rest:
                    module, dotted = f"qdid.{head}", rest
                else:
                    continue
                if not _resolves(module, dotted):
                    missing.append(f"{owner}, line {token.start[0]}: {name}")
    assert missing == []


def estimate_parser():
    (subparsers,) = [
        action
        for action in qdid.cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return subparsers.choices["estimate"]


def test_every_run_config_field_is_an_estimate_flag():
    dests = {action.dest for action in estimate_parser()._actions}
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    assert fields - dests == set()


def test_estimate_without_flags_takes_the_run_config_defaults(monkeypatch):
    configs = []
    monkeypatch.setattr(qdid.cli, "run_estimation", configs.append)
    monkeypatch.setattr(qdid.cli, "write_report", lambda result, out_prefix: [])
    assert main(["estimate", "-i", "x", "-o", "y"]) == EXIT_OK
    assert configs == [RunConfig(input_path="x")]


def test_mc_without_flags_takes_the_library_defaults(monkeypatch, tmp_path):
    calls = []

    def record(spec, reps, taus, estimators, **kwargs):
        calls.append((tuple(taus), tuple(estimators)))

    monkeypatch.setattr(qdid.cli, "run_mc", record)
    monkeypatch.setattr(qdid.cli, "write_mc_outputs", lambda *args: [])
    assert main(["mc", "--dgp", "1", "-o", str(tmp_path / "out")]) == EXIT_OK
    assert calls == [(DEFAULT_MC_TAUS, ESTIMATORS)]


def test_importing_qdid_leaves_numpy_random_unloaded():
    """numpy.random loads at the first draw: loaded at import, it would be
    held while a large CSV loads and raise that run's peak memory."""
    code = "import sys, qdid, qdid.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert out.stdout.strip() == "False"


def test_importing_qdid_leaves_mmap_unloaded():
    """Only the shared draw stores of ``qdid estimate`` load mmap."""
    code = "import sys, qdid, qdid.cli; print('mmap' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert out.stdout.strip() == "False"


def test_the_package_runs_as_a_module():
    out = subprocess.run([sys.executable, "-m", "qdid", "--help"], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert out.returncode == EXIT_OK
    assert out.stdout.startswith("usage: qdid")


def test_starting_the_cli_loads_no_process_pool():
    """Workers are plain forked processes, so no process pool module is
    loaded, and the CLI's start-up (the benchmark's setup_s) pays for none."""
    code = (
        "import sys, qdid.cli; qdid.cli._build_parser(); "
        "print('multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert out.stdout.split() == ["False", "False"]


def test_a_run_loads_only_the_standard_library_and_numpy(tmp_path):
    """qdid is numpy-only: an estimate and an mc run load no other module
    than the standard library's, numpy's and qdid's, besides what the bare
    interpreter already loaded (site packages may preload some)."""
    code = (
        "import sys; bare = set(sys.modules); import qdid.cli; "
        "run = lambda *argv: qdid.cli.main(list(argv)) == 0 or sys.exit(1); "
        "run('simulate', '--dgp', '1', '--n', '20', '-o', 'data.csv'); "
        "run('estimate', '-i', 'data.csv', '-o', 'out', '-b', '20', "
        "'--estimators', 'ddid,cic', '--unconditional'); "
        "run('mc', '--dgp', '1', '--n', '10', '--reps', '2', '--bootstrap', '20', '-o', 'mc'); "
        "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - bare}))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
                         timeout=120)
    loaded = set(out.stdout.splitlines()[-1].split())  # after the "wrote" lines
    # numpy.random's Cython extensions register cython_runtime and _cython_<version>
    loaded -= {"cython_runtime", *(name for name in loaded if name.startswith("_cython_"))}
    assert loaded - sys.stdlib_module_names - {"numpy", "qdid"} == set()
    assert {"numpy", "qdid"} <= loaded
