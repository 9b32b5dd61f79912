#!/usr/bin/env python3
"""Reproduce the DGP 2 robustness table (bias and RMSE by copula deviation).

A preset of ``qdid mc --dgp 2`` with ddid and no bootstrap: bias and RMSE
need none, so even the published 1000 repetitions run in seconds.

    python scripts/replicate_dgp2_table.py --te 0 --out dgp2_te0
    python scripts/replicate_dgp2_table.py --te 1 --out dgp2_te1
"""

import argparse

from qdid.cli import main as qdid_main


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--te", type=float, default=0.0)
    parser.add_argument("--n", type=int, default=200, help="per-arm size")
    parser.add_argument("--rho", default="0,0.05,0.1,0.5")
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="dgp2_table")
    args = parser.parse_args()

    code = qdid_main(
        [
            "mc", "--dgp", "2",
            f"--n={args.n}",
            f"--te={args.te!r}",
            f"--rho={args.rho}",
            f"--reps={args.reps}",
            "--bootstrap=0",
            f"--seed={args.seed}",
            "--estimators=ddid",
            f"--out={args.out}",
        ]
    )
    if code == 0:
        with open(f"{args.out}.csv", encoding="utf-8") as table:
            print(table.read(), end="")
    raise SystemExit(code)


if __name__ == "__main__":
    main()
