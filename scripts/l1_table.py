"""Tabulate the limiting expected run length per copy count m.

For each m the table lists the series value, the closed form over the
zeros of the truncated exponential, the two-term approximation, and the
spreads between them.  Optionally appends a Monte Carlo column and
writes the table as CSV.

Usage: python3 scripts/l1_table.py --m-max 10 [--mc-trials 200000] [--csv out.csv]
"""

import argparse
import csv
import sys

from cis import approx_l1, estimate_l1, l1_closed_form, l1_series

MC_N = 60  # values per word in the Monte Carlo column; tail beyond this is negligible


def build_rows(m_max, mc_trials, seed):
    rows = []
    for m in range(1, m_max + 1):
        series = l1_series(m)
        closed = l1_closed_form(m)
        approx = approx_l1(m)
        row = {
            "m": m,
            "series": series.value,
            "closed": closed.value,
            "approx": approx,
            "series_minus_closed": series.value - closed.value,
            "closed_minus_approx": closed.value - approx,
            "terms_used": series.terms_used,
        }
        if mc_trials:
            est = estimate_l1(m, MC_N, mc_trials, seed + m)
            row["mc_mean"] = est.mean
            row["mc_se"] = est.std_error
        rows.append(row)
        print(f"m={m:2d}  series={series.value:.12f}  closed={closed.value:.12f}  "
              f"approx={approx:.12f}  s-c={row['series_minus_closed']:+.2e}  "
              f"c-a={row['closed_minus_approx']:+.2e}"
              + (f"  mc={row['mc_mean']:.5f}+-{row['mc_se']:.5f}" if mc_trials else ""))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m-max", type=int, default=10)
    ap.add_argument("--mc-trials", type=int, default=0,
                    help="add a Monte Carlo column with this many trials (0 disables)")
    ap.add_argument("--seed", type=int, default=20260822)
    ap.add_argument("--csv", metavar="FILE", help="also write the table to FILE")
    args = ap.parse_args(argv)
    if args.m_max < 1:
        sys.exit("--m-max must be at least 1")

    rows = build_rows(args.m_max, args.mc_trials, args.seed)

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}")


if __name__ == "__main__":
    main()
