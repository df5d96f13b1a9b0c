"""Launch time of the command line, one JSON line per command.

    python scripts/startup.py --launches 5
    python scripts/startup.py --launches 1 --commands l1-approx l1-exact-warm

Each command is launched --launches times as a fresh `python -m cis.cli`
of this checkout, one after another, after one untimed launch that
compiles the bytecode and, for a warm command, fills the cache.  A cold
command gets an empty cache directory on every launch.  A last untimed
launch with `-X importtime` tells whether the command loaded numpy and
mpmath.  Each line gives the median launch seconds and those two flags.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# name -> (arguments, whether the launches share a cache the first launch filled)
COMMANDS = {
    "l1-approx": (("l1-approx", "--m", "2"), False),
    "l1-exact-cold": (("l1-exact", "--m", "2"), False),
    "l1-exact-warm": (("l1-exact", "--m", "2"), True),
    "prob-complete": (("prob-complete", "--m", "2", "--n", "4"), False),
    "prob-complete-brute": (("prob-complete", "--m", "2", "--n", "3", "--engine", "brute"), False),
    "gv-code-cold": (("bounds", "gv-code", "--m", "2", "--n", "14", "--delta", "4"), False),
    "gv-code-warm": (("bounds", "gv-code", "--m", "2", "--n", "14", "--delta", "4"), True),
    "invgamma": (("invgamma", "--y", "5040"), False),
    "l1-closed": (("l1-closed", "--m", "12"), False),
    "roots": (("roots", "--m", "40", "--check-power-sums"), False),
    "mc-l1": (("mc", "l1", "--m", "2", "--n", "50", "--trials", "1000", "--seed", "1"), False),
}


def _launch(argv, cache: str, *flags: str) -> tuple[float, str]:
    """Seconds for one fresh interpreter to run the command, and its stderr."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "CIS_CACHE_DIR": cache}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-m", "cis.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"cis {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc.stderr


def measure(name: str, launches: int) -> dict:
    argv, warm = COMMANDS[name]
    with tempfile.TemporaryDirectory() as tmp:
        _launch(argv, f"{tmp}/shared")
        times = [_launch(argv, f"{tmp}/shared" if warm else f"{tmp}/cold-{i}")[0] for i in range(launches)]
        # importtime lines end "| <module>", indented by nesting depth
        stderr = _launch(argv, f"{tmp}/shared" if warm else f"{tmp}/probe", "-X", "importtime")[1]
    imported = {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
                if line.startswith("import time:")}
    return {"command": name, "argv": list(argv), "launches": launches,
            "median_s": float(f"{statistics.median(times):.4g}"),
            "numpy": "numpy" in imported, "mpmath": "mpmath" in imported}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--launches", type=int, default=5)
    parser.add_argument("--commands", nargs="+", choices=tuple(COMMANDS), default=tuple(COMMANDS))
    args = parser.parse_args(argv)
    if args.launches < 1:
        parser.error("--launches must be at least 1")
    for name in args.commands:
        print(json.dumps(measure(name, args.launches)), flush=True)


if __name__ == "__main__":
    main()
