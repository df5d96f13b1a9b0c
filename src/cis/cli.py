"""Command line surface: one subcommand per operation, JSON/CSV/plain output.

Every command emits a versioned result record (schema 1).  Exact and
spectral results are cached under CIS_CACHE_DIR keyed by quantity,
canonical parameters, and tool version; Monte Carlo and card-game runs
are cached only when an explicit --seed makes them reproducible.

Exit codes: 0 success, 1 verify-all found failing criteria, 2 invalid
arguments or domain errors, 3 numerical non-convergence, 4 resource cap
exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import secrets
import sys
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from . import __version__, bounds, cardgame, exact, montecarlo, spectral
from .cache import cache_get, cache_put
from .errors import NoConvergence, SpaceTooLarge

# commands whose output is worth persisting unconditionally
_ALWAYS_CACHED = frozenset({"l1-exact", "l1-closed", "prob-complete", "roots", "recip-series"})


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _record(quantity: str, params: dict, value, stderr=None, **meta) -> dict:
    rec = {"schema": 1, "quantity": quantity, "params": params, "value": value}
    if stderr is not None:
        rec["stderr"] = stderr
    rec["meta"] = {
        "version": __version__,
        "cached": False,
        "timestamp": _timestamp(),
        **{k: v for k, v in meta.items() if v is not None},
    }
    return rec


def _run(quantity: str, params: dict, compute, cacheable: bool) -> dict:
    if cacheable:
        hit = cache_get(quantity, params, __version__)
        if hit is not None:
            hit.setdefault("meta", {})["cached"] = True
            return hit
    rec = compute()
    if cacheable:
        cache_put(quantity, params, __version__, rec)
    return rec


def _resolve_seed(args) -> tuple[int, bool]:
    # no --seed: fresh entropy, and the run is not cacheable
    if args.seed is None:
        return secrets.randbits(63), False
    return args.seed, True


# ---------------------------------------------------------------------------
# command handlers: each takes parsed args, returns a result record


def _cmd_l1_exact(args) -> dict:
    params = {"m": args.m, "eps": args.eps, "max_n": args.max_n}

    def compute():
        res = exact.l1_series(args.m, eps=args.eps, max_n=args.max_n)
        return _record(
            "l1-exact", params, res.value,
            engine="gf", terms_used=res.terms_used,
            truncation_bound=res.truncation_bound,
        )

    return _run("l1-exact", params, compute, cacheable=True)


def _cmd_l1_closed(args) -> dict:
    params = {"m": args.m, "bits": args.bits}

    def compute():
        cf = spectral.l1_closed_form(args.m, precision_bits=args.bits)
        return _record(
            "l1-closed", params, cf.value,
            bits=args.bits, imag_residue=cf.imag_residue, value_str=cf.value_str,
        )

    return _run("l1-closed", params, compute, cacheable=True)


def _cmd_l1_approx(args) -> dict:
    params = {"m": args.m}
    return _record("l1-approx", params, spectral.approx_l1(args.m))


def _cmd_prob_complete(args) -> dict:
    params = {"m": args.m, "n": args.n, "engine": args.engine}

    def compute():
        p = exact.complete_prob(args.m, args.n, engine=args.engine)
        return _record(
            "prob-complete", params, str(p),
            engine=args.engine, approx=float(p),
        )

    return _run("prob-complete", params, compute, cacheable=True)


def _cmd_roots(args) -> dict:
    params = {"m": args.m, "bits": args.bits, "check_power_sums": bool(args.check_power_sums)}

    def compute():
        rs = spectral.find_roots(args.m, precision_bits=args.bits)
        value = [[float(z.real), float(z.imag)] for z in rs.roots]
        extra = {}
        if args.check_power_sums:
            rep = spectral.power_sum_check(rs)
            extra["power_sum_max_deviation"] = rep.max_deviation
            extra["power_sums_ok"] = rep.max_deviation < 1e-9
        return _record(
            "roots", params, value,
            bits=args.bits, max_residual=float(max(rs.residuals)),
            tolerance=rs.tolerance, **extra,
        )

    return _run("roots", params, compute, cacheable=True)


def _cmd_recip_series(args) -> dict:
    params = {"m": args.m, "k": args.k}

    def compute():
        rs = spectral.reciprocal_series(args.m, args.k)
        return _record(
            "recip-series", params, [str(c) for c in rs.coefficients],
            within_envelope=rs.within_envelope,
            float_values=rs.as_floats(),
            envelope=[float(e) for e in rs.envelope],
        )

    return _run("recip-series", params, compute, cacheable=True)


def _cmd_invgamma(args) -> dict:
    params = {"y": args.y}
    return _record("invgamma", params, bounds.inverse_gamma(args.y))


def _cmd_bounds_tail(args) -> dict:
    params = {"family": args.family, "n": args.n, "m": args.m, "k": args.k}
    fam = bounds.continuous_runs(args.n) if args.family == "continuous" else bounds.arithmetic_progressions(args.n)
    b = bounds.tail_bound(fam, args.m, args.k)
    return _record("bounds-tail", params, str(b), approx=float(b))


def _cmd_bounds_expectation_upper(args) -> dict:
    params = {"m": args.m, "cap": args.cap}
    eb = bounds.expectation_upper(args.m, args.cap)
    return _record(
        "bounds-expectation-upper", params, eb.value,
        t=eb.t, k=eb.k, in_regime=eb.in_regime,
    )


def _cmd_bounds_block_lower(args) -> dict:
    params = {"m": args.m, "n": args.n, "k": args.k}
    v = bounds.block_lower_bound(args.m, args.n, args.k)
    return _record("bounds-block-lower", params, v, blocks=args.n // args.k)


def _cmd_bounds_gv_code(args) -> dict:
    params = {"m": args.m, "n": args.n, "delta": args.delta, "cap": args.cap}
    cb = bounds.greedy_code(args.m, args.n, args.delta, cap=args.cap)
    gv = bounds.gv_size_bound(args.m, args.n, args.delta)
    return _record(
        "bounds-gv-code", params, cb.size,
        gv_bound=str(gv), gv_bound_float=float(gv),
        meets_gv=cb.size >= gv, min_distance=args.delta,
    )


def _cmd_bounds_completion_lower(args) -> dict:
    params = {"m": args.m, "n": args.n, "t_size": args.t_size, "delta": args.delta}
    v = bounds.completion_lower(args.m, args.n, args.t_size, args.delta)
    return _record("bounds-completion-lower", params, str(v), approx=float(v))


def _cmd_bounds_factorial_threshold(args) -> dict:
    params = {"m": args.m, "t": args.t, "c": args.c}
    ft = bounds.factorial_threshold(args.m, args.t, args.c)
    return _record(
        "bounds-factorial-threshold", params, ft.k,
        c_adjusted=ft.c_adjusted, lower_ok=ft.lower_ok,
        upper_asserted=ft.upper_asserted, upper_ok=ft.upper_ok,
    )


def _cmd_bounds_lower_cont(args) -> dict:
    params = {"m": args.m, "n": args.n}
    al = bounds.lower_cont_asymptotic(args.m, args.n)
    plain = al.value if math.isfinite(al.value) else str(al.value)
    return _record(
        "bounds-lower-cont", params, al.log_value,
        value=plain, domain_ok=al.domain_ok,
    )


def _cmd_bounds_entropy_check(args) -> dict:
    params = {"n": args.n, "delta": args.delta}
    ec = bounds.entropy_binom_check(args.n, args.delta)
    return _record(
        "bounds-entropy-check", params, "holds" if ec.holds else "violated",
        binomial=ec.binomial, entropy_exponent=ec.entropy_exponent,
        bound=ec.bound if math.isfinite(ec.bound) else str(ec.bound),
    )


def _cmd_mc_scalar(args, name: str, fn) -> dict:
    seed, cacheable = _resolve_seed(args)
    params = {"m": args.m, "n": args.n, "trials": args.trials, "seed": seed}

    def compute():
        est = fn(args.m, args.n, args.trials, seed)
        return _record(
            name, params, est.mean, stderr=est.std_error,
            seed=seed, trials=args.trials, ci95=list(est.ci95),
        )

    return _run(name, params, compute, cacheable)


def _cmd_mc_moments(args) -> dict:
    seed, cacheable = _resolve_seed(args)
    params = {"m": args.m, "n": args.n, "r_max": args.r_max, "trials": args.trials, "seed": seed}

    def compute():
        rep = montecarlo.moments(args.m, args.n, args.r_max, args.trials, seed)
        rows = [{
            "kind": "mean", "r": 1,
            "estimate": rep.mu.mean, "std_error": rep.mu.std_error, "target": None,
        }]
        for r in sorted(rep.central):
            rows.append({
                "kind": "central", "r": r,
                "estimate": rep.central[r].mean, "std_error": rep.central[r].std_error,
                "target": rep.central_targets[r],
            })
        for r in sorted(rep.raw):
            rows.append({
                "kind": "raw", "r": r,
                "estimate": rep.raw[r].mean, "std_error": rep.raw[r].std_error,
                "target": rep.raw_targets[r],
            })
        return _record(
            "mc-moments", params, rows,
            seed=seed, trials=args.trials, caveat=rep.caveat,
        )

    return _run("mc-moments", params, compute, cacheable)


def _cmd_mc_obs1(args) -> dict:
    seed, cacheable = _resolve_seed(args)
    params = {"m": args.m, "n": args.n, "k": args.k, "trials": args.trials, "seed": seed}

    def compute():
        rep = montecarlo.check_observation1(args.m, args.n, args.k, args.trials, seed)
        return _record(
            "mc-obs1", params, [rep.freq_tail, rep.freq_complete],
            stderr=rep.pooled_se,
            seed=seed, trials=args.trials,
            gap_in_se=rep.gap_in_se, exact=str(rep.exact),
        )

    return _run("mc-obs1", params, compute, cacheable)


def _cmd_mc_obs2(args) -> dict:
    seed, cacheable = _resolve_seed(args)
    try:
        pattern = tuple(int(tok) for tok in args.pattern.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"--pattern must be comma-separated integers, got {args.pattern!r}")
    params = {"m": args.m, "n": args.n, "pattern": list(pattern), "trials": args.trials, "seed": seed}

    def compute():
        rep = montecarlo.check_observation2(args.m, args.n, pattern, args.trials, seed)
        return _record(
            "mc-obs2", params, [rep.freq_multiset, rep.freq_labeled],
            stderr=rep.pooled_se,
            seed=seed, trials=args.trials, gap_in_se=rep.gap_in_se,
        )

    return _run("mc-obs2", params, compute, cacheable)


def _cmd_cardgame(args) -> dict:
    seed, cacheable = _resolve_seed(args)
    params = {"strategy": args.strategy, "m": args.m, "n": args.n, "trials": args.trials, "seed": seed}

    def compute():
        est = cardgame.expected_score(args.m, args.n, args.strategy, args.trials, seed)
        return _record(
            "cardgame", params, est.mean, stderr=est.std_error,
            seed=seed, trials=args.trials, ci95=list(est.ci95),
        )

    return _run("cardgame", params, compute, cacheable)


def _cmd_verify_all(args) -> dict:
    from . import acceptance  # imported lazily; acceptance drives this CLI in-process

    results = acceptance.run_all(level=args.level)
    rows = [{
        "id": r.cid, "name": r.name, "passed": r.passed,
        "seconds": round(r.seconds, 2), "detail": r.detail,
    } for r in results]
    failed = [r.cid for r in results if not r.passed]
    return _record(
        "verify-all", {"level": args.level}, rows,
        level=args.level, passed=len(results) - len(failed), failed=failed,
    )


# ---------------------------------------------------------------------------
# rendering


def _cell(v):
    if isinstance(v, (list, tuple)):
        return json.dumps(v)
    return "" if v is None else v


def _csv_text(rec: dict) -> str:
    q = rec["quantity"]
    if q in ("mc-moments", "verify-all"):
        rows = rec["value"]
        fields = list(rows[0].keys())
    elif q == "roots":
        rows = [{"index": i, "re": p[0], "im": p[1]} for i, p in enumerate(rec["value"], 1)]
        fields = ["index", "re", "im"]
    elif q == "recip-series":
        floats = rec["meta"].get("float_values", [])
        rows = [{"k": i, "coefficient": c, "value": floats[i] if i < len(floats) else ""}
                for i, c in enumerate(rec["value"])]
        fields = ["k", "coefficient", "value"]
    elif q in ("mc-obs1", "mc-obs2"):
        names = ("freq_tail", "freq_complete") if q == "mc-obs1" else ("freq_multiset", "freq_labeled")
        rows = [{
            "quantity": q, **rec["params"],
            names[0]: rec["value"][0], names[1]: rec["value"][1],
            "pooled_se": rec.get("stderr"), "gap_in_se": rec["meta"].get("gap_in_se"),
        }]
        fields = list(rows[0].keys())
    else:
        row = {"quantity": q, **rec["params"], "value": rec["value"]}
        if "stderr" in rec:
            row["stderr"] = rec["stderr"]
        rows = [row]
        fields = list(row.keys())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _cell(v) for k, v in row.items()})
    return buf.getvalue().rstrip("\n")


def _plain_text(rec: dict) -> str:
    q = rec["quantity"]
    params = rec["params"]
    head = ", ".join(f"{k}={v}" for k, v in params.items())
    if q == "verify-all":
        lines = []
        for row in rec["value"]:
            status = "PASS" if row["passed"] else "FAIL"
            lines.append(f"[{row['id']:>2}] {status}  {row['name']} ({row['seconds']}s): {row['detail']}")
        failed = rec["meta"]["failed"]
        tally = f"{rec['meta']['passed']}/{len(rec['value'])} criteria passed"
        if failed:
            tally += f"; failed: {failed}"
        lines.append(tally)
        return "\n".join(lines)
    if q == "mc-moments":
        lines = [f"moments({head}):",
                 f"  {'kind':<8}{'r':>2}  {'estimate':>14}  {'std_error':>12}  {'target':>14}"]
        for row in rec["value"]:
            tgt = "" if row["target"] is None else f"{row['target']:.6g}"
            lines.append(f"  {row['kind']:<8}{row['r']:>2}  {row['estimate']:>14.6g}"
                         f"  {row['std_error']:>12.3g}  {tgt:>14}")
        lines.append(f"  note: {rec['meta']['caveat']}")
        return "\n".join(lines)
    if q == "roots":
        lines = [f"roots({head}):"]
        for i, (re_, im_) in enumerate(rec["value"], 1):
            lines.append(f"  alpha_{i} = {re_:+.12f} {im_:+.12f}i")
        dev = rec["meta"].get("power_sum_max_deviation")
        if dev is not None:
            lines.append(f"  power sums max deviation = {dev:.3g}")
        return "\n".join(lines)
    if q == "recip-series":
        lines = [f"recip-series({head}):"]
        floats = rec["meta"].get("float_values", [])
        for i, c in enumerate(rec["value"]):
            approx = f"  ({floats[i]:.6g})" if i < len(floats) else ""
            lines.append(f"  c_{i} = {c}{approx}")
        lines.append(f"  within envelope: {rec['meta'].get('within_envelope')}")
        return "\n".join(lines)
    body = f"{q}({head}) = {rec['value']}"
    if "stderr" in rec:
        body += f" +- {rec['stderr']:.4g}"
    if rec["meta"].get("cached"):
        body += "  [cached]"
    return body


def _render(rec: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rec, indent=2, sort_keys=True)
    if fmt == "csv":
        return _csv_text(rec)
    return _plain_text(rec)


# ---------------------------------------------------------------------------
# parser


def _add_mc_args(p, n_default=None):
    p.add_argument("--m", type=int, required=True, help="copies per value")
    if n_default is None:
        p.add_argument("--n", type=int, required=True, help="number of values")
    else:
        p.add_argument("--n", type=int, default=n_default)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed; omit for fresh entropy (result then not cached)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cis",
        description="compute, bound, and simulate run statistics of random multiset permutations",
    )
    parser.add_argument("--version", action="version", version=f"cis {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    common.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")

    p = sub.add_parser("l1-exact", parents=[common], help="series value of the limiting expected run length")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-12)
    p.add_argument("--max-n", type=int, default=400)
    p.set_defaults(handler=_cmd_l1_exact)

    p = sub.add_parser("l1-closed", parents=[common], help="closed form over zeros of the truncated exponential")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--bits", type=int, default=128)
    p.set_defaults(handler=_cmd_l1_closed)

    p = sub.add_parser("l1-approx", parents=[common], help="two-term approximation m+1-1/(m+2)")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_cmd_l1_approx)

    p = sub.add_parser("prob-complete", parents=[common], help="exact probability of a complete run")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--engine", choices=("hk", "gf", "brute"), default="gf")
    p.set_defaults(handler=_cmd_prob_complete)

    p = sub.add_parser("roots", parents=[common], help="certified zeros of the truncated exponential")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--bits", type=int, default=128)
    p.add_argument("--check-power-sums", action="store_true")
    p.set_defaults(handler=_cmd_roots)

    p = sub.add_parser("recip-series", parents=[common], help="series coefficients of sum of reciprocal zeros")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="highest coefficient index")
    p.set_defaults(handler=_cmd_recip_series)

    p = sub.add_parser("invgamma", parents=[common], help="inverse of the gamma function on [2, inf)")
    p.add_argument("--y", type=float, required=True)
    p.set_defaults(handler=_cmd_invgamma)

    b = sub.add_parser("bounds", help="combinatorial bounds")
    bsub = b.add_subparsers(dest="bounds_command", required=True, metavar="BOUND")

    p = bsub.add_parser("tail", parents=[common], help="union bound on Pr[L >= k] for a word family")
    p.add_argument("--family", choices=("continuous", "ap"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_bounds_tail)

    p = bsub.add_parser("expectation-upper", parents=[common], help="cap on E[run length] from a family size cap")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cap", type=int, required=True, help="family size cap (>= 2)")
    p.set_defaults(handler=_cmd_bounds_expectation_upper)

    p = bsub.add_parser("block-lower", parents=[common], help="completion floor from independent blocks")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="block length")
    p.set_defaults(handler=_cmd_bounds_block_lower)

    p = bsub.add_parser("gv-code", parents=[common], help="greedy code meeting the Gilbert-Varshamov size")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--cap", type=int, default=10**6, help="largest m^n the sieve will touch")
    p.set_defaults(handler=_cmd_bounds_gv_code)

    p = bsub.add_parser("completion-lower", parents=[common], help="inclusion-exclusion floor from a distance-delta code")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t-size", type=int, required=True, help="code size")
    p.add_argument("--delta", type=int, required=True)
    p.set_defaults(handler=_cmd_bounds_completion_lower)

    p = bsub.add_parser("factorial-threshold", parents=[common], help="k! vs t! m^(Ct) growth check")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.set_defaults(handler=_cmd_bounds_factorial_threshold)

    p = bsub.add_parser("lower-cont", parents=[common], help="asymptotic completion floor in log space")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_bounds_lower_cont)

    p = bsub.add_parser("entropy-check", parents=[common], help="binomial vs binary-entropy cap")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.set_defaults(handler=_cmd_bounds_entropy_check)

    mc = sub.add_parser("mc", help="seeded Monte Carlo estimators")
    mcsub = mc.add_subparsers(dest="mc_command", required=True, metavar="ESTIMATOR")

    for name, fn in (("l1", montecarlo.estimate_l1),
                     ("lmax", montecarlo.estimate_lmax),
                     ("lis", montecarlo.estimate_lis)):
        p = mcsub.add_parser(name, parents=[common])
        _add_mc_args(p)
        p.set_defaults(handler=partial(_cmd_mc_scalar, name=f"mc-{name}", fn=fn))

    p = mcsub.add_parser("moments", parents=[common], help="central and raw moments against conjectured targets")
    _add_mc_args(p)
    p.add_argument("--r-max", type=int, default=4)
    p.set_defaults(handler=_cmd_mc_moments)

    p = mcsub.add_parser("obs1", parents=[common], help="tail probability vs completion probability")
    _add_mc_args(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_mc_obs1)

    p = mcsub.add_parser("obs2", parents=[common], help="multiset sampler vs labeled-card sampler")
    _add_mc_args(p)
    p.add_argument("--pattern", required=True, help="comma-separated values, e.g. 2,4")
    p.set_defaults(handler=_cmd_mc_obs2)

    p = sub.add_parser("cardgame", parents=[common], help="expected score under a guessing strategy")
    p.add_argument("--strategy", choices=cardgame.STRATEGIES, required=True)
    _add_mc_args(p)
    p.set_defaults(handler=_cmd_cardgame)

    p = sub.add_parser("verify-all", parents=[common], help="run the acceptance suite")
    p.add_argument("--level", choices=("quick", "full"), default="full")
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        rec = args.handler(args)
    except SpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = _render(rec, args.format)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    if rec["quantity"] == "verify-all" and rec["meta"]["failed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
