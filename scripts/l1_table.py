"""Tabulate the limiting expected run length per copy count m.

For each m the table lists the series value, the closed form over the
zeros of the truncated exponential, the two-term approximation, and the
spreads between them.  Optionally appends a Monte Carlo column and
writes the table as CSV.  A route that refuses an m leaves its cells
empty (printed as "-"): the series past exact.SERIES_DEGREE_CAP (m > 60),
the closed form past its cost caps (m > spectral.L1_MAX_M = 500).

Usage: python3 scripts/l1_table.py --m-max 10 [--mc-trials 200000] [--csv out.csv]
"""

import argparse
import csv
import sys

from cis import SpaceTooLarge, approx_l1, estimate_l1, l1_closed_form, l1_series

MC_N = 60  # values per word in the Monte Carlo column; tail beyond this is negligible


def _refusable(route, m, refusal):
    """route(m), or None when it raises refusal."""
    try:
        return route(m)
    except refusal:
        return None


def _diff(a, b):
    return None if a is None or b is None else a - b


def _text(x, spec):
    return "-" if x is None else format(x, spec)


def build_rows(m_max, mc_trials, seed):
    rows = []
    for m in range(1, m_max + 1):
        series = _refusable(l1_series, m, SpaceTooLarge)
        closed = _refusable(l1_closed_form, m, SpaceTooLarge)
        series_value = None if series is None else series.value
        closed_value = None if closed is None else closed.value
        approx = approx_l1(m)
        row = {
            "m": m,
            "series": series_value,
            "closed": closed_value,
            "approx": approx,
            "series_minus_closed": _diff(series_value, closed_value),
            "closed_minus_approx": _diff(closed_value, approx),
            "terms_used": None if series is None else series.terms_used,
        }
        if mc_trials:
            est = estimate_l1(m, MC_N, mc_trials, seed + m)
            row["mc_mean"] = est.mean
            row["mc_se"] = est.std_error
        rows.append(row)
        print(f"m={m:2d}  series={_text(series_value, '.12f')}  closed={_text(closed_value, '.12f')}  "
              f"approx={approx:.12f}  s-c={_text(row['series_minus_closed'], '+.2e')}  "
              f"c-a={_text(row['closed_minus_approx'], '+.2e')}"
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
