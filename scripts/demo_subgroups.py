#!/usr/bin/env python3
"""End-to-end demo on synthetic subgroup data shaped like an earnings study.

Simulates a two-period panel with three binary covariates (eight cells),
bakes a negative low-quantile effect into two low-earnings subgroups, then
runs the full CLI pipeline: per-cell effect processes, sup tests, uniform
bands, and the unconditional aggregate. Outputs land next to --out.

    python scripts/demo_subgroups.py --out demo_run
"""

import argparse
import csv

from qdid.cli import main as qdid_main
from qdid.inference import substream


def write_dataset(path: str, n_per_cell: int, seed: int) -> None:
    rng = substream(seed, 0)
    rows = []
    unit = 0
    for race in (0, 1):
        for gender in (0, 1):
            for college in (0, 1):
                base = 5.5 + 0.4 * college + 0.15 * race + 0.1 * gender
                affected = college == 0 and race == 0
                for d in (0, 1):
                    for _ in range(n_per_cell):
                        level = base + 0.3 * rng.standard_normal()
                        pre = level + 0.15 * rng.standard_normal()
                        post = level + 0.15 * rng.standard_normal()
                        if d and affected:
                            # effect concentrated in the lower tail
                            post -= 0.25 * max(0.0, base + 0.2 - post)
                        rows.append([unit, 0, repr(pre), d, race, gender, college])
                        rows.append([unit, 1, repr(post), d, race, gender, college])
                        unit += 1
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["unit", "period", "y", "d", "race", "gender", "college"])
        writer.writerows(rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-per-cell", type=int, default=150)
    parser.add_argument("--bootstrap", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="demo_subgroups")
    args = parser.parse_args()

    data_path = f"{args.out}.data.csv"
    write_dataset(data_path, args.n_per_cell, args.seed)
    code = qdid_main(
        [
            "estimate",
            "--input", data_path,
            "--covariates", "race,gender,college",
            "--bootstrap", str(args.bootstrap),
            "--seed", str(args.seed),
            "--unconditional",
            "--out", args.out,
        ]
    )
    raise SystemExit(code)


if __name__ == "__main__":
    main()
