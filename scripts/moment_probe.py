"""Probe the conjectured moment growth of the greedy run length.

Sweeps the copy count m at fixed n and prints the estimated central and
raw moments next to their conjectured targets, as ratios.  Ratios near 1
with shrinking drift as m grows support the conjecture; n should be
large enough that finite-word effects are below the Monte Carlo noise.

Usage: python3 scripts/moment_probe.py --m 2 4 8 --n 200 --trials 30000
"""

import argparse
import csv

from cis import moments


def probe(m, n, r_max, trials, seed):
    rep = moments(m, n, r_max=r_max, trials=trials, seed=seed)
    rows = []
    for r in range(2, r_max + 1):
        est, target = rep.central[r], rep.central_targets[r]
        rows.append({"m": m, "kind": "central", "r": r,
                     "estimate": est.mean, "target": target,
                     "ratio": est.mean / target if target else float("nan"),
                     "se": est.std_error})
    for r in range(1, r_max + 1):
        est, target = rep.raw[r], rep.raw_targets[r]
        rows.append({"m": m, "kind": "raw", "r": r,
                     "estimate": est.mean, "target": target,
                     "ratio": est.mean / target if target else float("nan"),
                     "se": est.std_error})
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, nargs="+", default=[2, 4, 8])
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--r-max", type=int, default=4)
    ap.add_argument("--trials", type=int, default=30000)
    ap.add_argument("--seed", type=int, default=20260822)
    ap.add_argument("--csv", metavar="FILE", help="also write the rows to FILE")
    args = ap.parse_args(argv)

    all_rows = []
    print(f"{'m':>3} {'kind':>8} {'r':>2} {'estimate':>14} {'target':>12} {'ratio':>8} {'se':>10}")
    for m in args.m:
        for row in probe(m, args.n, args.r_max, args.trials, args.seed):
            all_rows.append(row)
            print(f"{row['m']:>3} {row['kind']:>8} {row['r']:>2} "
                  f"{row['estimate']:>14.4f} {row['target']:>12.1f} "
                  f"{row['ratio']:>8.4f} {row['se']:>10.4f}")

    # raw moments track m^r + C(r+1,2) m^(r-1) only to leading orders, so
    # the high-r ratios drift for small m; that is expected, not noise
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(all_rows[0].keys()))
            writer.writeheader()
            writer.writerows(all_rows)
        print(f"wrote {len(all_rows)} rows to {args.csv}")


if __name__ == "__main__":
    main()
