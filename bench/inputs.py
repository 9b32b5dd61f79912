"""Seeded CSV inputs for the benchmark workloads.

The same seed always gives the same bytes: values come from a numpy
Generator keyed by (seed, workload tag) and floats are written with
``repr(float(x))`` (``repr`` of a numpy scalar would write ``np.float64(...)``
under numpy 2, which ``qdid`` rejects). Each generator returns a record of
what it wrote: sha256, row count, cell count, tie share, and the per-cell
arm sizes that a correct report must echo.

    python3 bench/inputs.py --workload rcs-ingest --seed 1 --csv input.csv --record input.json

writes one workload's input at its benchmark size, and its record as JSON.
``run.py`` calls it so, in a child process of its own, so that the memory
the generator holds never counts in the harness's own peak.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys

import numpy as np

PANEL_TAG = 1
RCS_TAG = 2
COVARIATES = ("x1", "x2", "x3")


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed])


def _floats(values: np.ndarray) -> list[str]:
    return [repr(float(v)) for v in values.tolist()]


def _write(path, header: str, lines: list[str]) -> str:
    data = (header + "\n" + "\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)
    return hashlib.sha256(data).hexdigest()


def _tie_share(y: np.ndarray) -> float:
    """Share of outcome values equal to some other outcome value in the file."""
    _, counts = np.unique(y, return_counts=True)
    return float(counts[counts > 1].sum() / y.size)


def panel_subgroups(path, seed: int, units_per_arm: int = 250) -> dict:
    """Two-period panel in 8 covariate cells, outcomes rounded to 2 decimals.

    Units follow the DGP 1 design (unit effect shifted by treatment) with
    cell-specific levels and effects; rounding makes ties common. Rows are
    written unit by unit in a seeded random unit order.
    """
    rng = _rng(seed, PANEL_TAG)
    codes = list(itertools.product((0, 1), repeat=len(COVARIATES)))
    blocks = []
    for x1, x2, x3 in codes:
        d = np.repeat([0, 1], units_per_arm)
        v = rng.standard_normal(d.size) + d + 0.25 * x1
        y_pre = 1.0 + v + rng.standard_normal(d.size) + 0.5 * x2
        y_post = 1.0 + v + rng.standard_normal(d.size) + 0.5 * x2 + 0.3 * x3 + 0.5 * x1 * d
        x = np.tile([x1, x2, x3], (d.size, 1))
        blocks.append((d, np.round(y_pre, 2), np.round(y_post, 2), x))
    d = np.concatenate([b[0] for b in blocks])
    y_pre = np.concatenate([b[1] for b in blocks])
    y_post = np.concatenate([b[2] for b in blocks])
    x = np.vstack([b[3] for b in blocks])
    order = rng.permutation(d.size)
    pre_s, post_s = _floats(y_pre), _floats(y_post)
    tails = [",".join(map(str, row)) for row in np.column_stack([d, x]).tolist()]
    lines = []
    for unit, i in enumerate(order.tolist()):
        tail = tails[i]
        lines.append(f"{unit},0,{pre_s[i]},{tail}")
        lines.append(f"{unit},1,{post_s[i]},{tail}")
    digest = _write(path, "unit,period,y,d," + ",".join(COVARIATES), lines)
    return {
        "sha256": digest,
        "rows": len(lines),
        "cells": len(codes),
        "tie_share": _tie_share(np.concatenate([y_pre, y_post])),
        "n_total": d.size,
        "expected_cells": [
            {"code": list(c), "n_control": units_per_arm, "n_treated": units_per_arm, "viable": True}
            for c in codes
        ],
    }


def rcs_ingest(path, seed: int, rows_per_arm: int = 12500, small_rows: int = 10) -> dict:
    """Repeated cross sections: 8 large cells plus one cell of ``small_rows``
    rows per arm, to run with ``--min-cell-size`` above ``small_rows``.

    Every row carries a distinct unit id, so the (unit, period) duplicate
    check runs over all rows. Outcomes are full-precision normals; rows are
    written in a seeded random order.
    """
    rng = _rng(seed, RCS_TAG)
    codes = list(itertools.product((0, 1), repeat=len(COVARIATES))) + [(0, 0, 2)]
    ys, periods, ds, xs = [], [], [], []
    expected = []
    for code in codes:
        size = small_rows if code[-1] == 2 else rows_per_arm
        for d, period in itertools.product((0, 1), (0, 1)):
            shift = 0.4 * code[0] + 0.2 * code[1] + 0.6 * period + 0.5 * d * period * (1 + code[2])
            ys.append(rng.standard_normal(size) * (1.0 + 0.25 * d) + d + shift)
            periods.append(np.full(size, period))
            ds.append(np.full(size, d))
            xs.append(np.tile(code, (size, 1)))
        expected.append(
            {"code": list(code), "n_control": 2 * size, "n_treated": 2 * size, "viable": size == rows_per_arm}
        )
    y = np.concatenate(ys)
    period = np.concatenate(periods)
    d = np.concatenate(ds)
    x = np.vstack(xs)
    order = rng.permutation(y.size)
    y_s = _floats(y)
    period_s = period.tolist()
    tails = [",".join(map(str, row)) for row in np.column_stack([d, x]).tolist()]
    lines = [f"{unit},{period_s[i]},{y_s[i]},{tails[i]}" for unit, i in enumerate(order.tolist())]
    digest = _write(path, "unit,period,y,d," + ",".join(COVARIATES), lines)
    return {
        "sha256": digest,
        "rows": len(lines),
        "cells": len(codes),
        "tie_share": _tie_share(y),
        "n_total": len(lines),
        "expected_cells": sorted(expected, key=lambda c: c["code"]),
    }


GENERATORS = {"panel-subgroups": panel_subgroups, "rcs-ingest": rcs_ingest}


def main() -> int:
    parser = argparse.ArgumentParser(description="Write one workload's seeded input CSV.")
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--csv", required=True)
    parser.add_argument("--record", required=True)
    args = parser.parse_args()
    record = GENERATORS[args.workload](args.csv, args.seed)
    with open(args.record, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
