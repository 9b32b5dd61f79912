"""Checks on the files a ``qdid`` command wrote, and their digests.

Each check returns a list of problems; an empty list means the outputs are
correct. The expectations come from the generated inputs (cell codes, arm
sizes, sample size) and from the command line (estimators, draws, grid).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REPORT_KEYS = {"schema", "config", "taus", "n_total", "cells", "unconditional"}
CELL_KEYS = {"code", "n_control", "n_treated", "viable", "reason", "estimators"}
BLOCK_KEYS = {
    "taus", "estimate", "lower", "upper", "pointwise_se", "ks_statistic",
    "critical_value", "reject", "n_control", "n_treated",
}
BAND_FIELDS = ("estimate", "lower", "upper", "pointwise_se")


def digests(paths) -> dict[str, str]:
    """sha256 of each file, keyed by file name."""
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_block(where: str, block: dict, taus: list, n_control: int, n_treated: int) -> list[str]:
    if set(block) != BLOCK_KEYS:
        return [f"{where}: block keys {sorted(block)}"]
    problems = []
    if block["taus"] != taus:
        problems.append(f"{where}: block grid differs from the report grid")
    series = [block[k] for k in BAND_FIELDS]
    if any(len(s) != len(taus) for s in series):
        return problems + [f"{where}: series lengths differ from the grid"]
    if not all(_finite(s) for s in series) or not _finite([block["ks_statistic"], block["critical_value"]]):
        return problems + [f"{where}: non-finite number"]
    est, lo, hi, se = series
    if any(not (l <= e <= h) for l, e, h in zip(lo, est, hi)):
        problems.append(f"{where}: lower <= estimate <= upper fails")
    if min(se) < 0 or block["critical_value"] < 0:
        problems.append(f"{where}: negative standard error or critical value")
    zero_outside = any(l > 0 or h < 0 for l, h in zip(lo, hi))
    if block["reject"] is not zero_outside:
        problems.append(f"{where}: reject={block['reject']} but zero outside band={zero_outside}")
    if (block["n_control"], block["n_treated"]) != (n_control, n_treated):
        problems.append(
            f"{where}: arm sizes {block['n_control']}/{block['n_treated']}, "
            f"expected {n_control}/{n_treated}"
        )
    return problems


def _label(code) -> str:
    return "unconditional" if code is None else ("all" if not code else "|".join(map(str, code)))


def _read_csv(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _check_bands_csv(path, blocks: list[tuple], n_cov: int) -> list[str]:
    rows = _read_csv(path)
    header = ["cell"] + [f"x{i + 1}" for i in range(n_cov)]
    header += ["estimator", "tau"] + list(BAND_FIELDS)
    if not rows or rows[0] != header:
        return [f"bands csv: header {rows[:1]}"]
    expected = []
    for code, est, block in blocks:
        for j, tau in enumerate(block["taus"]):
            expected.append((_label(code), est, tau, [block[k][j] for k in BAND_FIELDS]))
    body = rows[1:]
    if len(body) != len(expected):
        return [f"bands csv: {len(body)} rows, expected {len(expected)}"]
    problems = []
    for i, (row, (label, est, tau, values)) in enumerate(zip(body, expected)):
        try:
            numbers = [float(v) for v in row[-5:]]
        except ValueError:
            problems.append(f"bands csv row {i + 2}: unparsable number")
            continue
        tau_csv, est_v, lo, hi, se = numbers
        if not all(math.isfinite(v) for v in numbers) or not (lo <= est_v <= hi):
            problems.append(f"bands csv row {i + 2}: lower <= estimate <= upper fails")
        elif row[0] != label or row[n_cov + 1] != est or tau_csv != tau or [est_v, lo, hi, se] != values:
            problems.append(f"bands csv row {i + 2}: differs from the JSON report")
    return problems[:5]


def _check_summary_csv(path, cells: list[dict], blocks: list[tuple], n_cov: int) -> list[str]:
    rows = _read_csv(path)
    if not rows or rows[0][: n_cov + 1] != ["cell"] + [f"x{i + 1}" for i in range(n_cov)]:
        return [f"summary csv: header {rows[:1]}"]
    col = {name: i for i, name in enumerate(rows[0])}
    expected = [(_label(c["code"]), "", "false") for c in cells if not c["viable"]]
    expected += [(_label(code), est, "true" if b["reject"] else "false") for code, est, b in blocks]
    got = [(r[0], r[col["estimator"]], r[col["reject"]] if r[col["viable"]] == "true" else "false") for r in rows[1:]]
    if sorted(got) != sorted(expected):
        return ["summary csv: rows or reject flags differ from the JSON report"]
    return []


def check_estimate(prefix, expected: dict) -> list[str]:
    """Check ``<prefix>.json``, ``.bands.csv`` and ``.summary.csv``.

    ``expected`` holds ``mode``, ``n_total``, ``expected_cells`` (code,
    n_control, n_treated, viable in report order), ``estimators``,
    ``unconditional`` and ``n_taus``.
    """
    try:
        report = json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"report json unreadable: {exc}"]
    if set(report) != REPORT_KEYS or report["schema"] != "qdid.report.v1":
        return [f"report json: keys {sorted(report)} schema {report.get('schema')!r}"]
    taus = report["taus"]
    problems = []
    if len(taus) != expected["n_taus"] or not all(0 < a < b < 1 for a, b in zip(taus, taus[1:])):
        problems.append(f"report grid has {len(taus)} points, expected increasing {expected['n_taus']}")
    if report["n_total"] != expected["n_total"]:
        problems.append(f"n_total {report['n_total']}, expected {expected['n_total']}")
    cells = report["cells"]
    want = expected["expected_cells"]
    if len(cells) != len(want):
        return problems + [f"{len(cells)} cells, expected {len(want)}"]
    viable = sum(c.get("viable") is True for c in cells)
    if viable != sum(w["viable"] for w in want):
        problems.append(f"{viable} viable cells, expected {sum(w['viable'] for w in want)}")
    blocks = []
    for cell, w in zip(cells, want):
        where = f"cell {_label(w['code'])}"
        if set(cell) != CELL_KEYS:
            problems.append(f"{where}: keys {sorted(cell)}")
            continue
        if [cell[k] for k in ("code", "n_control", "n_treated", "viable")] != [
            w[k] for k in ("code", "n_control", "n_treated", "viable")
        ]:
            problems.append(f"{where}: code/sizes/viability differ from the generated input")
            continue
        if not cell["viable"]:
            if cell["estimators"] is not None or not cell["reason"]:
                problems.append(f"{where}: non-viable cell without reason or with estimates")
            continue
        if cell["reason"] is not None or list(cell["estimators"] or ()) != expected["estimators"]:
            problems.append(f"{where}: estimators {cell['estimators'] and list(cell['estimators'])}")
            continue
        for est, block in cell["estimators"].items():
            # cic counts the observations of its four samples, so on panel
            # data each unit counts once per period; ddid counts units.
            per_unit = 2 if est == "cic" and expected["mode"] == "panel" else 1
            problems += _check_block(
                f"{where} {est}", block, taus, per_unit * w["n_control"], per_unit * w["n_treated"]
            )
            blocks.append((w["code"], est, block))
    uncond = report["unconditional"]
    if (uncond is not None) != expected["unconditional"]:
        problems.append("unconditional block presence differs from the command")
    elif uncond is not None:
        n_c = sum(w["n_control"] for w in want if w["viable"])
        n_t = sum(w["n_treated"] for w in want if w["viable"])
        problems += _check_block("unconditional", uncond, taus, n_c, n_t)
        blocks.append((None, "ddid", uncond))
    if problems:
        return problems
    n_cov = len(want[0]["code"])
    problems += _check_bands_csv(f"{prefix}.bands.csv", blocks, n_cov)
    problems += _check_summary_csv(f"{prefix}.summary.csv", cells, blocks, n_cov)
    return problems


def check_mc(prefix, expected: dict) -> list[str]:
    """Check ``<prefix>.json`` and ``<prefix>.csv`` of one ``qdid mc`` design.

    ``expected`` holds ``n``, ``reps``, ``taus``, ``estimators``,
    ``bootstrap``, ``scheme`` and ``seed`` as passed on the command line.
    """
    try:
        payload = json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8"))
        rows = _read_csv(f"{prefix}.csv")
    except (OSError, ValueError) as exc:
        return [f"mc outputs unreadable: {exc}"]
    if payload.get("schema") != "qdid.mc.v1":
        return [f"mc json schema {payload.get('schema')!r}"]
    echo = {
        "reps": payload.get("reps"), "taus": payload.get("taus"),
        "estimators": payload.get("estimators"), "bootstrap": payload.get("bootstrap_iterations"),
        "scheme": payload.get("scheme"), "seed": payload.get("seed"),
    }
    problems = [f"mc json {k}={v!r}, expected {expected[k]!r}" for k, v in echo.items() if v != expected[k]]
    results = payload.get("results") or []
    if len(results) != 1 or results[0].get("n_per_arm") != expected["n"]:
        return problems + ["mc json: expected one design at the requested n"]
    res = results[0]
    ests, k = expected["estimators"], len(expected["taus"])
    tables = {}
    for stat in ("bias", "rmse", "rejection"):
        table = res.get(stat) or {}
        if list(table) != ests or any(len(table[e]) != k or not _finite(table[e]) for e in ests):
            problems.append(f"mc {stat}: missing, misshapen or non-finite")
            continue
        tables[stat] = table
    if problems:
        return problems
    if any(v < 0 for e in ests for v in tables["rmse"][e]):
        problems.append("mc rmse: negative value")
    for e in ests:
        for v in tables["rejection"][e]:
            if not 0.0 <= v <= 1.0 or abs(v * expected["reps"] - round(v * expected["reps"])) > 1e-6:
                problems.append(f"mc rejection rate {v!r} for {e} is not a share of the reps")
    header = ["statistic", "n"] + [f"{e}_{t}" for e in ests for t in expected["taus"]]
    want_rows = [header] + [
        [label, str(expected["n"])] + [repr(float(v)) for e in ests for v in tables[stat][e]]
        for label, stat in (("bias", "bias"), ("rmse", "rmse"), ("rej_prob", "rejection"))
    ]
    if rows != want_rows:
        problems.append("mc csv differs from the JSON results")
    return problems
