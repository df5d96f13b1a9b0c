"""Median ms of each stage of spectral.find_roots, printed as one JSON line.

    PYTHONPATH=src python scripts/root_stages.py --m 40 --bits 128 --repeat 5

Runs find_roots(m, bits) --repeat times with its stage functions wrapped
in timers: the double pass (_double_start), the fixed-point integer sweeps
(_aberth_fixed), the exact Gaussian-integer residuals (_residuals) and the
certificate checks (_certify); then power_sum_check on the result, whose
fixed-point sums and integer targets take no root solve.  "other" is the
rest of find_roots: conversions, the sort, and rounding the residuals for
the record.
"""

import argparse
import json
import statistics
import time

from cis import spectral

STAGES = {"double": "_double_start", "sweeps": "_aberth_fixed",
          "residuals": "_residuals", "certify": "_certify"}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--bits", type=int, default=128)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    spent, last = dict.fromkeys(STAGES, 0.0), {}

    def timed(stage, fn):
        def wrapper(*a):
            t0 = time.perf_counter()
            last[stage] = fn(*a)
            spent[stage] += time.perf_counter() - t0
            return last[stage]
        return wrapper

    runs = {stage: [] for stage in (*STAGES, "other", "power_sums", "find_roots")}
    originals = {name: getattr(spectral, name) for name in STAGES.values()}
    for stage, name in STAGES.items():
        setattr(spectral, name, timed(stage, originals[name]))
    try:
        for _ in range(args.repeat):
            spent.update(dict.fromkeys(STAGES, 0.0))
            t0 = time.perf_counter()
            rootset = spectral.find_roots(args.m, args.bits)
            t1 = time.perf_counter()
            spectral.power_sum_check(rootset)
            t2 = time.perf_counter()
            for stage, seconds in spent.items():
                runs[stage].append(seconds)
            runs["other"].append(t1 - t0 - sum(spent.values()))
            runs["power_sums"].append(t2 - t1)
            runs["find_roots"].append(t1 - t0)
    finally:
        for name, fn in originals.items():
            setattr(spectral, name, fn)
    ms = {stage: float(f"{1e3 * statistics.median(v):.4g}") for stage, v in runs.items()}
    print(json.dumps({"m": args.m, "bits": args.bits, "repeat": args.repeat,
                      "sweeps": last["sweeps"][1], "ms": ms}))


if __name__ == "__main__":
    main()
