"""Median ms per trial of each Monte Carlo stage, printed as one JSON line.

    PYTHONPATH=src python scripts/mc_stages.py --m 2 --n 100000 --trials 12

Trials run in blocks as in montecarlo._collect.  Per block it times
re-keying the Philox stream for each trial (rng.substreams), shuffling
each trial's copy of the labels 0..mn-1 (montecarlo._base), the
occurrence tensor (_occ_tensor: a radix argsort of label // m, or for
n >= 2^16 a scatter of the labels) and a kernel on it (l_max unless
--kernel says otherwise), and it reports the median over blocks of each
stage's time divided by the block's trials.
"""

import argparse
import json
import statistics
import time

import numpy as np

from cis import cardgame, montecarlo
from cis.rng import substreams

KERNELS = {"l1": montecarlo._l1_from_occ, "lmax": montecarlo._lmax_from_occ,
           "safe": cardgame._safe_score, "shifting": cardgame._shifting_score}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--m", "--n", "--trials"):
        parser.add_argument(flag, type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--kernel", choices=tuple(KERNELS), default="lmax")
    args = parser.parse_args(argv)
    base = montecarlo._base(args.m, args.n)
    size = max(1, montecarlo._BLOCK_LETTERS // len(base))
    streams = substreams(args.seed, args.trials)
    per_trial = {"rekey": [], "shuffle": [], "occ": [], "kernel": []}
    for start in range(0, args.trials, size):
        count = min(size, args.trials - start)
        spent = dict.fromkeys(per_trial, 0.0)
        block = np.tile(base, (count, 1))
        for t in range(count):
            t0 = time.perf_counter()
            gen = next(streams)
            t1 = time.perf_counter()
            gen.shuffle(block[t])
            spent["rekey"] += t1 - t0
            spent["shuffle"] += time.perf_counter() - t1
        t0 = time.perf_counter()
        occ = montecarlo._occ_tensor(block, args.m, args.n)
        t1 = time.perf_counter()
        KERNELS[args.kernel](occ)
        spent["occ"], spent["kernel"] = t1 - t0, time.perf_counter() - t1
        for stage, seconds in spent.items():
            per_trial[stage].append(seconds / count)
    ms = {stage: float(f"{1e3 * statistics.median(v):.4g}") for stage, v in per_trial.items()}
    print(json.dumps({"m": args.m, "n": args.n, "trials": args.trials, "kernel": args.kernel,
                      "ms_per_trial": ms}))


if __name__ == "__main__":
    main()
