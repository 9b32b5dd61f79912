#!/usr/bin/env python3
"""Reproduce the DGP 1 performance table (bias and rejection rates by N).

A preset of ``qdid mc --dgp 1`` with ddid and cic. Desk scale by default;
pass --full for the published budget of 1000 Monte Carlo repetitions with
1000 bootstrap iterations each (hours, not minutes).

    python scripts/replicate_dgp1_table.py --te 0 --out dgp1_te0
    python scripts/replicate_dgp1_table.py --te 1 --full --out dgp1_te1_full
"""

import argparse

from qdid.cli import main as qdid_main


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--te", type=float, default=0.0)
    parser.add_argument("--n", default="100,200,500", help="comma-separated per-arm sizes")
    parser.add_argument("--reps", type=int, default=300)
    parser.add_argument("--bootstrap", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full", action="store_true", help="published budget: 1000 reps x 1000 boots")
    parser.add_argument("--out", default="dgp1_table")
    args = parser.parse_args()

    code = qdid_main(
        [
            "mc", "--dgp", "1",
            f"--n={args.n}",
            f"--te={args.te!r}",
            f"--reps={1000 if args.full else args.reps}",
            f"--bootstrap={1000 if args.full else args.bootstrap}",
            f"--seed={args.seed}",
            "--estimators=ddid,cic",
            f"--out={args.out}",
        ]
    )
    if code == 0:
        with open(f"{args.out}.csv", encoding="utf-8") as table:
            print(table.read(), end="")
    raise SystemExit(code)


if __name__ == "__main__":
    main()
