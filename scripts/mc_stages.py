"""Median ms and minor page faults per trial of each Monte Carlo stage, as one JSON line.

    PYTHONPATH=src python scripts/mc_stages.py --m 2 --n 100000 --trials 12

Trials run in blocks as in montecarlo._collect.  Per block it times
building the block's Philox generator (rng.substream, reported as
rekey), shuffling the block's rows of the labels 0..mn-1 (montecarlo._base)
with one Generator.permuted call (shuffle), the occurrence tensor
(_occ_tensor: one scatter of the block's labels, then each value's
positions put in order) and a kernel on it (l_max unless --kernel says
otherwise), and it reports the median over blocks of each stage's time
divided by the block's trials (ms_per_trial).  --kernel lis runs the
lockstep patience sort (_lis_from_block) on the labels, in estimate_lis'
larger blocks, and builds no occurrence tensor: its occ stage reads 0.
It counts the process's minor page faults (getrusage ru_minflt) the same
way (faults_per_trial): a fault is a fresh page of memory, and at
n = 10^5 each costs about as much as touching the page's data once more.
"""

import argparse
import json
import resource
import statistics
import time

import numpy as np
import numpy.random  # noqa: F401  loaded here, or its import would count as the first rekey

from cis import cardgame, montecarlo
from cis.rng import substream

KERNELS = {"l1": montecarlo._l1_from_occ, "lmax": montecarlo._lmax_from_occ,
           "safe": cardgame._safe_score, "shifting": cardgame._shifting_score,
           "lis": montecarlo._lis_from_block}


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--m", "--n", "--trials"):
        parser.add_argument(flag, type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--kernel", choices=tuple(KERNELS), default="lmax")
    args = parser.parse_args(argv)
    base = montecarlo._base(args.m, args.n)
    lis = args.kernel == "lis"
    letters = montecarlo._LIS_BLOCK_LETTERS if lis else montecarlo._BLOCK_LETTERS
    size = max(1, letters // len(base))
    stages = ("rekey", "shuffle", "occ", "kernel")
    per_trial = {stage: [] for stage in stages}
    faults_per_trial = {stage: [] for stage in stages}
    for start in range(0, args.trials, size):
        count = min(size, args.trials - start)
        spent = dict.fromkeys(stages, 0.0)
        faults = dict.fromkeys(stages, 0)
        block = np.tile(base, (count, 1))
        f0, t0 = _faults(), time.perf_counter()
        gen = substream(args.seed, start)
        t1, f1 = time.perf_counter(), _faults()
        gen.permuted(block, axis=1, out=block)
        spent["rekey"], spent["shuffle"] = t1 - t0, time.perf_counter() - t1
        faults["rekey"], faults["shuffle"] = f1 - f0, _faults() - f1
        f0, t0 = _faults(), time.perf_counter()
        if lis:
            t1, f1 = t0, f0
            KERNELS["lis"](block, args.m, args.n)
        else:
            occ = montecarlo._occ_tensor(block, args.m, args.n)
            t1, f1 = time.perf_counter(), _faults()
            KERNELS[args.kernel](occ)
        spent["occ"], spent["kernel"] = t1 - t0, time.perf_counter() - t1
        faults["occ"], faults["kernel"] = f1 - f0, _faults() - f1
        for stage in stages:
            per_trial[stage].append(spent[stage] / count)
            faults_per_trial[stage].append(faults[stage] / count)
    ms = {stage: float(f"{1e3 * statistics.median(v):.4g}") for stage, v in per_trial.items()}
    minflt = {stage: float(f"{statistics.median(v):.4g}") for stage, v in faults_per_trial.items()}
    print(json.dumps({"m": args.m, "n": args.n, "trials": args.trials, "kernel": args.kernel,
                      "ms_per_trial": ms, "faults_per_trial": minflt}))


if __name__ == "__main__":
    main()
