"""Command line surface: one subcommand per operation, JSON/CSV/plain output.

Each subcommand is a row of COMMANDS: path (joined with "-" it names the
quantity), help, options in params order, a compute function taking the
params as keywords and returning (value, stderr, meta), and cacheability.
One driver, _execute, turns any row into a versioned record (schema 1),
cached under CIS_CACHE_DIR by quantity, params and version; rows with a
--seed are cached only when the seed is given.  A compute function
reaches its module through the package when it runs, so a command loads
numpy only if it computes with it.

Exit codes: 0 success, 1 verify-all found failing criteria, 2 invalid
arguments, domain errors or an unwritable --out file, 3 numerical
non-convergence, 4 resource cap exceeded, 5 internal error (one stderr
line, no traceback).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import secrets
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import cis  # a submodule loads on first access, so a command imports only the modules it runs
from . import __version__
from .cache import cache_get, cache_put
from .errors import NoConvergence, SpaceTooLarge

# exception type -> exit code, first match wins; any other Exception exits 5
_EXIT_CODES = ((SpaceTooLarge, 4), (NoConvergence, 3), (ValueError, 2))


class Command(NamedTuple):
    path: tuple[str, ...]
    help: str | None
    args: tuple[tuple[str, str, dict], ...]  # (dest, flag, add_argument keywords), in params order
    compute: Callable  # params as keywords -> (value, stderr, meta)
    cacheable: bool


def _arg(flag: str, type=int, **kw) -> tuple[str, str, dict]:
    """One option: an int unless type says otherwise, required unless it has a default."""
    kw.setdefault("required", "default" not in kw)
    return flag[2:].replace("-", "_"), flag, {**kw, "type": type} if type else kw


# ---------------------------------------------------------------------------
# compute helpers, and compute functions too long for a table cell


def _finite(x):
    """JSON has no infinity: a non-finite float is written as its string."""
    return str(x) if isinstance(x, float) and not math.isfinite(x) else x


def _double(x):
    """A nonnegative Fraction as a float, or as a 17-digit decimal string where a nonzero value underflows a double."""
    from decimal import Context

    f = float(x)
    if not x or f >= sys.float_info.min:
        return f
    mantissa, _, exponent = f"{Context(prec=17).divide(x.numerator, x.denominator):.16e}".partition("e")
    mantissa = mantissa.rstrip("0")
    return f"{mantissa}{'0' if mantissa.endswith('.') else ''}e{int(exponent)}"


def _fields(obj, value: str, *names: str, **extra):
    """The value attribute, no stderr, and the named attributes plus extra as meta."""
    return _finite(getattr(obj, value)), None, {**{k: _finite(getattr(obj, k)) for k in names}, **extra}


def _digit_limit() -> int:
    """The interpreter's integer string limit, 0 for none: Python before 3.10.7 has no limit and no getter."""
    getter = getattr(sys, "get_int_max_str_digits", None)
    return getter() if getter else 0


def _check_digits(what: str, *ints: int) -> None:
    """SpaceTooLarge when an exact integer of the record is past the interpreter's integer string limit."""
    limit = _digit_limit()
    if limit and max(abs(i) for i in ints) >= 10**limit:
        raise SpaceTooLarge(f"{what} has more than {limit} digits, past the interpreter's integer string limit")


def _fraction(f, **extra):
    _check_digits("the exact value's numerator or denominator", f.numerator, f.denominator)
    return str(f), None, {**extra, "approx": float(f)}


def _complete_prob(m, n, engine):
    # l1 = n means 1 2 ... n is a subsequence, so Pr[l1 = n] is at most the
    # expected number of its embeddings, m^n/n!, and the reduced denominator
    # is at least n!/m^n: past the digit limit, fail before computing
    cis.words._check_mn(m, n)
    limit = _digit_limit()
    if limit and (math.lgamma(n + 1) - n * math.log(m)) / math.log(10) > limit + 1:
        raise SpaceTooLarge(f"the exact value's denominator, at least {n}!/{m}^{n}, has more than {limit} "
                            "digits, past the interpreter's integer string limit")
    return _fraction(cis.exact.complete_prob(m, n, engine=engine), engine=engine)


def _estimate(est, trials: int, seed: int):
    return est.mean, est.std_error, {"seed": seed, "trials": trials, "ci95": list(est.ci95)}


def _roots(m, bits, check_power_sums):
    rs = cis.spectral.find_roots(m, precision_bits=bits)
    meta = {"bits": bits, "max_residual": _double(max(rs.residuals)), "tolerance": _double(rs.tolerance)}
    if check_power_sums:
        dev = cis.spectral.power_sum_check(rs).max_deviation
        meta.update(power_sum_max_deviation=dev, power_sums_ok=dev < 1e-9)
    return [[z.real, z.imag] for z in rs.roots], None, meta


def _recip_series(m, k):
    rs = cis.spectral.reciprocal_series(m, k)
    return [str(c) for c in rs.coefficients], None, {
        "within_envelope": rs.within_envelope, "float_values": rs.as_floats(),
        "envelope": [float(e) for e in rs.envelope]}


def _gv_code(m, n, delta, cap):
    size, gv = cis.bounds.greedy_code(m, n, delta, cap=cap).size, cis.bounds.gv_size_bound(m, n, delta)
    return size, None, {"gv_bound": str(gv), "gv_bound_float": float(gv),
                        "meets_gv": size >= gv, "min_distance": delta}


def _entropy_check(n, delta):
    ec = cis.bounds.entropy_binom_check(n, delta)
    _check_digits(f"the binomial C({n}, {delta})", ec.binomial)
    return "holds" if ec.holds else "violated", None, {
        "binomial": ec.binomial, "entropy_exponent": ec.entropy_exponent, "bound": _finite(ec.bound)}


def _moments(m, n, r_max, trials, seed):
    rep = cis.montecarlo.moments(m, n, r_max, trials, seed)
    rows = [("mean", 1, rep.mu, None)]
    rows += [("central", r, rep.central[r], rep.central_targets[r]) for r in sorted(rep.central)]
    rows += [("raw", r, rep.raw[r], rep.raw_targets[r]) for r in sorted(rep.raw)]
    return [{"kind": kind, "r": r, "estimate": est.mean, "std_error": est.std_error, "target": target}
            for kind, r, est, target in rows], None, {"seed": seed, "trials": trials, "caveat": rep.caveat}


def _obs1(m, n, k, trials, seed):
    rep = cis.montecarlo.check_observation1(m, n, k, trials, seed)
    return [rep.freq_tail, rep.freq_complete], rep.pooled_se, {
        "seed": seed, "trials": trials, "gap_in_se": rep.gap_in_se, "exact": str(rep.exact)}


def _obs2(m, n, pattern, trials, seed):
    rep = cis.montecarlo.check_observation2(m, n, tuple(pattern), trials, seed)
    return [rep.freq_multiset, rep.freq_labeled], rep.pooled_se, {
        "seed": seed, "trials": trials, "gap_in_se": rep.gap_in_se}


def _verify_all(level):
    results = cis.acceptance.run_all(level=level)
    rows = [{"id": r.cid, "name": r.name, "passed": r.passed,
             "seconds": round(r.seconds, 2), "detail": r.detail} for r in results]
    failed = [r.cid for r in results if not r.passed]
    return rows, None, {"level": level, "passed": len(results) - len(failed), "failed": failed}


# ---------------------------------------------------------------------------
# the command table

_M, _N, _K, _DELTA, _BITS = _arg("--m"), _arg("--n"), _arg("--k"), _arg("--delta"), _arg("--bits", default=128)
_MC = (_arg("--m", help="copies per value"), _arg("--n", help="number of values"))
_TRIALS_SEED = (_arg("--trials"),
                _arg("--seed", default=None, help="RNG seed; omit for fresh entropy (result then not cached)"))
_STRATEGIES = ("trivial", "safe", "shifting")  # cardgame.STRATEGIES, which would load numpy for every command
_GROUPS = {"bounds": ("combinatorial bounds", "BOUND"), "mc": ("seeded Monte Carlo estimators", "ESTIMATOR")}

COMMANDS = (
    Command(("l1-exact",), "series value of the limiting expected run length",
            (_M, _arg("--eps", float, default=1e-12), _arg("--max-n", default=400)),
            lambda m, eps, max_n: _fields(cis.exact.l1_series(m, eps=eps, max_n=max_n),
                                          "value", "terms_used", "truncation_bound", engine="gf"), True),
    Command(("l1-closed",), "closed form over zeros of the truncated exponential", (_M, _BITS),
            lambda m, bits: _fields(cis.spectral.l1_closed_form(m, precision_bits=bits),
                                    "value", "imag_residue", "value_str", bits=bits), True),
    Command(("l1-approx",), "two-term approximation m+1-1/(m+2)", (_M,),
            lambda m: (cis.exact.approx_l1(m), None, {}), False),
    Command(("prob-complete",), "exact probability of a complete run",
            (_M, _N, _arg("--engine", None, choices=("hk", "gf", "brute"), default="gf")),
            _complete_prob, True),
    Command(("roots",), "certified zeros of the truncated exponential",
            (_M, _BITS, _arg("--check-power-sums", None, action="store_true", default=False)), _roots, True),
    Command(("recip-series",), "series coefficients of sum of reciprocal zeros",
            (_M, _arg("--k", help="highest coefficient index")), _recip_series, True),
    Command(("invgamma",), "inverse of the gamma function on [2, inf)", (_arg("--y", float),),
            lambda y: (cis.bounds.inverse_gamma(y), None, {}), False),
    Command(("bounds", "tail"), "union bound on Pr[L >= k] for a word family",
            (_arg("--family", None, choices=("continuous", "ap")), _N, _M, _K),
            lambda family, n, m, k: _fraction(cis.bounds.tail_bound(
                (cis.bounds.continuous_runs if family == "continuous" else cis.bounds.arithmetic_progressions)(n),
                m, k)), False),
    Command(("bounds", "expectation-upper"), "cap on E[run length] from a family size cap",
            (_M, _arg("--cap", help="family size cap (>= 2)")),
            lambda m, cap: _fields(cis.bounds.expectation_upper(m, cap), "value", "t", "k", "in_regime"), False),
    Command(("bounds", "block-lower"), "completion floor from independent blocks",
            (_M, _N, _arg("--k", help="block length")),
            lambda m, n, k: (cis.bounds.block_lower_bound(m, n, k), None, {"blocks": n // k}), False),
    Command(("bounds", "gv-code"), "greedy code meeting the Gilbert-Varshamov size",
            (_M, _N, _DELTA, _arg("--cap", default=10**6, help="largest m^n the sieve will touch")),
            _gv_code, True),
    Command(("bounds", "completion-lower"), "inclusion-exclusion floor from a distance-delta code",
            (_M, _N, _arg("--t-size", help="code size"), _DELTA),
            lambda m, n, t_size, delta: _fraction(cis.bounds.completion_lower(m, n, t_size, delta)), False),
    Command(("bounds", "factorial-threshold"), "k! vs t! m^(Ct) growth check",
            (_M, _arg("--t"), _arg("--c", float)),
            lambda m, t, c: _fields(cis.bounds.factorial_threshold(m, t, c), "k",
                                    "c_adjusted", "lower_ok", "upper_asserted", "upper_ok"), False),
    Command(("bounds", "lower-cont"), "asymptotic completion floor in log space", (_M, _N),
            lambda m, n: _fields(cis.bounds.lower_cont_asymptotic(m, n), "log_value", "value", "domain_ok"),
            False),
    Command(("bounds", "entropy-check"), "binomial vs binary-entropy cap", (_N, _DELTA), _entropy_check, False),
    *(Command(("mc", name), None, (*_MC, *_TRIALS_SEED),
              lambda m, n, trials, seed, fn=f"estimate_{name}": _estimate(
                  getattr(cis.montecarlo, fn)(m, n, trials, seed), trials, seed), True)
      for name in ("l1", "lmax", "lis")),
    Command(("mc", "moments"), "central and raw moments against conjectured targets",
            (*_MC, _arg("--r-max", default=4), *_TRIALS_SEED), _moments, True),
    Command(("mc", "obs1"), "tail probability vs completion probability", (*_MC, _K, *_TRIALS_SEED), _obs1, True),
    Command(("mc", "obs2"), "multiset sampler vs labeled-card sampler",
            (*_MC, _arg("--pattern", None, help="comma-separated values, e.g. 2,4"), *_TRIALS_SEED),
            _obs2, True),
    Command(("cardgame",), "expected score under a guessing strategy",
            (_arg("--strategy", None, choices=_STRATEGIES), *_MC, *_TRIALS_SEED),
            lambda strategy, m, n, trials, seed: _estimate(
                cis.cardgame.expected_score(m, n, strategy, trials, seed), trials, seed), True),
    Command(("verify-all",), "run the acceptance suite",
            (_arg("--level", None, choices=("quick", "full"), default="full"),), _verify_all, False),
)


def _execute(cmd: Command, args) -> dict:
    """The driver: params from the parsed options, then the record, from the cache when allowed."""
    params = {dest: getattr(args, dest) for dest, _, _ in cmd.args}
    cacheable = cmd.cacheable
    if "seed" in params and params["seed"] is None:
        # no --seed: fresh entropy, and the run is not cacheable
        params["seed"], cacheable = secrets.randbits(63), False
    if "pattern" in params:
        try:
            params["pattern"] = [int(tok) for tok in args.pattern.replace(",", " ").split()]
        except ValueError:
            raise ValueError(f"--pattern must be comma-separated integers, got {args.pattern!r}")
    quantity = "-".join(cmd.path)
    if cacheable and (hit := cache_get(quantity, params, __version__)) is not None:
        hit.setdefault("meta", {})["cached"] = True
        return hit
    value, stderr, meta = cmd.compute(**params)
    rec = {"schema": 1, "quantity": quantity, "params": params, "value": value}
    if stderr is not None:
        rec["stderr"] = stderr
    timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    rec["meta"] = {"version": __version__, "cached": False, "timestamp": timestamp,
                   **{k: v for k, v in meta.items() if v is not None}}
    if cacheable:
        cache_put(quantity, params, __version__, rec)
    return rec


# ---------------------------------------------------------------------------
# rendering


def _cell(v):
    if isinstance(v, (list, tuple)):
        return json.dumps(v)
    return "" if v is None else v


def _csv_rows(rec: dict) -> list[dict]:
    q, value, meta = rec["quantity"], rec["value"], rec["meta"]
    if q in ("mc-moments", "verify-all"):
        return value
    if q == "roots":
        return [{"index": i, "re": re_, "im": im_} for i, (re_, im_) in enumerate(value, 1)]
    if q == "recip-series":
        floats = meta.get("float_values", [])
        return [{"k": i, "coefficient": c, "value": floats[i] if i < len(floats) else ""}
                for i, c in enumerate(value)]
    row = {"quantity": q, **rec["params"]}
    if q in ("mc-obs1", "mc-obs2"):
        names = ("freq_tail", "freq_complete") if q == "mc-obs1" else ("freq_multiset", "freq_labeled")
        return [{**row, names[0]: value[0], names[1]: value[1],
                 "pooled_se": rec.get("stderr"), "gap_in_se": meta.get("gap_in_se")}]
    row["value"] = value
    if "stderr" in rec:
        row["stderr"] = rec["stderr"]
    return [row]


def _csv_text(rec: dict) -> str:
    rows = _csv_rows(rec)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows({k: _cell(v) for k, v in row.items()} for row in rows)
    return buf.getvalue().rstrip("\n")


def _plain_text(rec: dict) -> str:
    q, value, meta = rec["quantity"], rec["value"], rec["meta"]
    head = ", ".join(f"{k}={v}" for k, v in rec["params"].items())
    if q == "verify-all":
        lines = [f"[{r['id']:>2}] {'PASS' if r['passed'] else 'FAIL'}  {r['name']} ({r['seconds']}s): {r['detail']}"
                 for r in value]
        tally = f"{meta['passed']}/{len(value)} criteria passed"
        return "\n".join([*lines, tally + (f"; failed: {meta['failed']}" if meta["failed"] else "")])
    if q == "mc-moments":
        lines = [f"moments({head}):",
                 f"  {'kind':<8}{'r':>2}  {'estimate':>14}  {'std_error':>12}  {'target':>14}"]
        for r in value:
            tgt = "" if r["target"] is None else f"{r['target']:.6g}"
            lines.append(f"  {r['kind']:<8}{r['r']:>2}  {r['estimate']:>14.6g}  {r['std_error']:>12.3g}  {tgt:>14}")
        return "\n".join([*lines, f"  note: {meta['caveat']}"])
    if q == "roots":
        lines = [f"roots({head}):", *(f"  alpha_{i} = {re_:+.12f} {im_:+.12f}i"
                                      for i, (re_, im_) in enumerate(value, 1))]
        if "power_sum_max_deviation" in meta:
            lines.append(f"  power sums max deviation = {meta['power_sum_max_deviation']:.3g}")
        return "\n".join(lines)
    if q == "recip-series":
        lines = [f"recip-series({head}):"]
        floats = meta.get("float_values", [])
        for i, c in enumerate(value):
            lines.append(f"  c_{i} = {c}" + (f"  ({floats[i]:.6g})" if i < len(floats) else ""))
        return "\n".join([*lines, f"  within envelope: {meta.get('within_envelope')}"])
    body = f"{q}({head}) = {value}"
    if "stderr" in rec:
        body += f" +- {rec['stderr']:.4g}"
    return body + ("  [cached]" if meta.get("cached") else "")


_RENDER = {"json": lambda rec: json.dumps(rec, indent=2, sort_keys=True), "csv": _csv_text, "plain": _plain_text}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="cis", description="compute, bound, and simulate run statistics of random multiset permutations")
    parser.add_argument("--version", action="version", version=f"cis {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=tuple(_RENDER), default="json")
    common.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
    subs = {(): parser.add_subparsers(dest="command", required=True, metavar="COMMAND")}
    for cmd in COMMANDS:
        group = cmd.path[:-1]
        if group not in subs:
            help_, metavar = _GROUPS[group[0]]
            subs[group] = subs[()].add_parser(group[0], help=help_).add_subparsers(
                dest=f"{group[0]}_command", required=True, metavar=metavar)
        p = subs[group].add_parser(cmd.path[-1], parents=[common], help=cmd.help)
        for _, flag, kw in cmd.args:
            p.add_argument(flag, **kw)
        p.set_defaults(path=cmd.path)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # the row is looked up per call, so the one parser serves whatever COMMANDS holds
        rec = _execute(next(c for c in COMMANDS if c.path == args.path), args)
        text = _RENDER[args.format](rec)
    except Exception as exc:
        code = next((c for kind, c in _EXIT_CODES if isinstance(exc, kind)), 5)
        print(f"{'error' if code != 5 else 'internal error: ' + type(exc).__name__}: {exc}", file=sys.stderr)
        return code
    if args.out:
        try:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    return 1 if rec["quantity"] == "verify-all" and rec["meta"]["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
