"""Command-line entry points: fit a CSV dataset, run simulation studies, and
reproduce the acceptance grid.

Reports are emitted as deterministic JSON (stable key order, volatile fields
such as wall time kept out of the canonical document) plus aligned text for
humans. Exit codes: 0 success, 1 estimation/ingestion failure, 2 usage error,
3 acceptance failure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

from . import __version__
from .covariance import estimate_covariances
from .errors import EivError
from .gmm import MIN_BOOTSTRAP, fit_gmm_multi
from .metrics import MIN_DET_REPS
from .model_data import CsvSchema, build_design, load_csv, write_csv
from .moment_correction import fit_mc, fit_ols
from .simgen import SimConfig, gen_dataset
from .study import DISPLAY_NAMES, ESTIMATORS, GMM_SCHEMES, run_study

EXIT_OK = 0
EXIT_ESTIMATION = 1
EXIT_USAGE = 2
EXIT_ACCEPTANCE = 3

_WEIGHT_TOKENS = {"equal": "equal", "mm": "minimax", "minimax": "minimax",
                  "ql": "quasi_likelihood", "quasi_likelihood": "quasi_likelihood"}
_ERROR_TOKENS = {"normal": "normal", "t2.5": "t2_5", "t2_5": "t2_5",
                 "contnormal": "contaminated_normal",
                 "contaminated_normal": "contaminated_normal"}


def _git_hash():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _provenance(seed):
    return {"seed": seed, "git_hash": _git_hash(), "version": __version__}


def _emit(report, args, wall_time):
    """Print the aligned-text report (with wall time) and optionally write the
    canonical JSON document (without it, so reruns are byte-identical)."""
    text = report.pop("_text", "")
    doc = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(doc + "\n")
    if text:
        print(text)
    if getattr(args, "print_json", False) or not text:
        print(doc)
    print(f"wall time: {wall_time:.2f}s", file=sys.stderr)


def _fail(message, code):
    print(json.dumps({"error": message}, sort_keys=True))
    return code


def _coef_table(rows, headers):
    widths = [max(len(str(r[i])) for r in [headers, *rows]) for i in range(len(headers))]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths))]
    lines += ["  ".join(str(c).ljust(w) for c, w in zip(r, widths)) for r in rows]
    return "\n".join(lines)


def _fmt(x, nd=6):
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return "."
    return f"{x:.{nd}f}"


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    start = time.perf_counter()
    estimators = [tok.strip() for tok in args.estimators.split(",") if tok.strip()]
    if not estimators:
        print("error: no estimators given", file=sys.stderr)
        return EXIT_USAGE
    unknown = [e for e in estimators if e not in ("naive", "mc", "gmm")]
    if unknown:
        print(f"error: unknown estimators {unknown}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # aliases of one scheme ("mm,minimax") name one fit
        schemes = list(dict.fromkeys(
            _WEIGHT_TOKENS[tok.strip()] for tok in args.weights.split(",") if tok.strip()))
    except KeyError as exc:
        print(f"error: unknown weight scheme {exc}", file=sys.stderr)
        return EXIT_USAGE
    if "gmm" in estimators and not schemes:
        print("error: the gmm estimator needs at least one --weights scheme", file=sys.stderr)
        return EXIT_USAGE
    if "gmm" in estimators and args.bootstrap < MIN_BOOTSTRAP:
        print(f"error: the gmm estimator needs --bootstrap >= {MIN_BOOTSTRAP} resamples",
              file=sys.stderr)
        return EXIT_USAGE

    schema = CsvSchema(
        y=args.y,
        z=tuple(tok.strip() for tok in args.z.split(",") if tok.strip()) if args.z else (),
        w_prefix=args.w_prefix,
    )
    try:
        d = load_csv(args.data, schema)
        design = build_design(d)
        results = {}
        if "naive" in estimators:
            results["naive"] = {"coef": fit_ols(d.y, design.v, d.p).theta.tolist(), "se": None}
        if "mc" in estimators or "gmm" in estimators:
            sigma_j = estimate_covariances(d)
            mc = fit_mc(d, sigma_j, design)
        if "mc" in estimators:
            results["mc"] = {"coef": mc.theta.theta.tolist(), "se": None,
                             "sigma_eps_sq": mc.sigma_eps_sq}
        diagnostics = {}
        if "gmm" in estimators:
            fits = fit_gmm_multi(d, tuple(schemes), b=args.bootstrap, seed=args.seed,
                                 mc=mc, sigma_j=sigma_j, design=design)
            for scheme, fit in fits.items():
                key = f"gmm_{scheme}"
                if isinstance(fit, EivError):
                    diagnostics[key] = {"error": str(fit)}
                    continue
                results[key] = {
                    "coef": fit.theta.theta.tolist(),
                    "se": None if fit.se is None else fit.se.tolist(),
                }
                diagnostics[key] = {
                    "q_value": fit.q_value,
                    "converged": fit.converged,
                    "n_iter": fit.n_iter,
                    "t_star": fit.ecf.t_star,
                    "weight_scheme": fit.weights.scheme,
                    "max_q_times_n": fit.weights.max_q_times_n,
                    "bootstrap_b": args.bootstrap,
                    "bootstrap_failed": fit.n_boot_failed,
                    **fit.diagnostics,
                }
    except EivError as exc:
        return _fail(str(exc), EXIT_ESTIMATION)

    coef_names = [f"beta{i + 1}" for i in range(d.p)]
    coef_names += ["intercept"] + list(schema.z)
    order = [k for k in ("naive", "mc", *(f"gmm_{s}" for s in schemes)) if k in results]
    # text rows in the usual regression-table shape: intercept, error-prone
    # covariates, error-free covariates
    row_idx = [d.p, *range(d.p), *range(d.p + 1, d.p + 1 + d.q)]
    rows = []
    for i in row_idx:
        row = [coef_names[i]]
        for key in order:
            coef = results[key]["coef"][i]
            se = results[key]["se"][i] if results[key]["se"] else None
            row.append(_fmt(coef, 4) + (f" ({_fmt(se, 4)})" if se is not None else ""))
        rows.append(row)
    text = _coef_table(rows, ["coefficient", *order])

    report = {
        "command": "fit",
        "config": {
            "data": args.data, "y": args.y, "z": list(schema.z),
            "w_prefix": args.w_prefix, "estimators": estimators,
            "weights": schemes, "bootstrap": args.bootstrap,
        },
        "n": d.n, "p": d.p, "q": d.q,
        "coefficients": coef_names,
        "results": results,
        "diagnostics": diagnostics,
        "provenance": _provenance(args.seed),
        "_text": text,
    }
    _emit(report, args, time.perf_counter() - start)
    # a failed scheme is reported beside the others, and still fails the run
    failed = {key: diag["error"] for key, diag in diagnostics.items() if "error" in diag}
    for key, message in failed.items():
        print(f"error: {key}: {message}", file=sys.stderr)
    return EXIT_ESTIMATION if failed else EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _sim_config(args) -> SimConfig:
    return SimConfig(
        setting=args.setting,
        n=args.n,
        n_rep=args.nrep,
        m_reps=args.M,
        error_law=_ERROR_TOKENS[args.error],
        rho=args.rho,
        seed=args.seed,
        sigma_eps_sq=args.eps_var,
        u_scale=args.u_scale,
    )


def _study_report(result, estimators, command, args):
    det = {name: result.det_metrics.get(name) for name in estimators}
    se_summary = {
        name: {"mc_se": s.mc_se.tolist(), "avg_se": s.avg_se.tolist()}
        for name, s in result.se_summary.items()
    }
    rows = [[DISPLAY_NAMES[name], _fmt(det[name], 4), result.n_converged[name]]
            for name in estimators]
    text = _coef_table(rows, ["estimator", "det(1000*MSE_rob)", "ok"])
    if se_summary:
        text += "\n\nSE calibration (per coefficient):\n"
        se_rows = []
        for name, s in se_summary.items():
            for i, (a, bb) in enumerate(zip(s["mc_se"], s["avg_se"])):
                se_rows.append([DISPLAY_NAMES[name], i, _fmt(a, 4), _fmt(bb, 4)])
        text += _coef_table(se_rows, ["estimator", "coef", "MC-SE", "Avg-SE"])
    cfg = result.config
    return {
        "command": command,
        "config": {
            "setting": cfg.setting, "n": cfg.n, "n_rep": cfg.n_rep, "M": cfg.m_reps,
            "error_law": cfg.error_law, "rho": cfg.rho, "sigma_eps_sq": cfg.sigma_eps_sq,
            "u_scale": cfg.u_scale, "bootstrap": args.b, "estimators": list(estimators),
        },
        "det_metrics": det,
        "se_summary": se_summary,
        "n_converged": result.n_converged,
        "n_failed": result.n_failed,
        "n_se_failed": result.n_se_failed,
        "det_fallback": result.det_fallback,
        "failures": [[m, name, msg] for m, name, msg in result.failures[:50]],
        "provenance": _provenance(cfg.seed),
        "_text": text,
    }


def cmd_simulate(args) -> int:
    start = time.perf_counter()
    try:
        cfg = _sim_config(args)
    except EivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    estimators = tuple(tok.strip() for tok in args.estimators.split(",") if tok.strip())
    if not estimators:
        print("error: no estimators given", file=sys.stderr)
        return EXIT_USAGE
    bad = [e for e in estimators if e not in ESTIMATORS]
    if bad:
        print(f"error: unknown estimators {bad}; known: {ESTIMATORS}", file=sys.stderr)
        return EXIT_USAGE
    if args.b < MIN_BOOTSTRAP and any(name in GMM_SCHEMES for name in estimators):
        print(f"error: the gmm_* estimators need --b >= {MIN_BOOTSTRAP} bootstrap resamples",
              file=sys.stderr)
        return EXIT_USAGE
    if args.workers < 1:
        print(f"error: need --workers >= 1, got {args.workers}", file=sys.stderr)
        return EXIT_USAGE

    if args.dump_data:
        os.makedirs(args.dump_data, exist_ok=True)
        for m in range(cfg.m_reps):
            d, _ = gen_dataset(cfg, m)
            write_csv(d, os.path.join(args.dump_data, f"dataset_{m:04d}.csv"))

    result = run_study(cfg, estimators=estimators, b=args.b, workers=args.workers,
                       compute_se=not args.no_se)
    report = _study_report(result, estimators, "simulate", args)
    if cfg.m_reps < MIN_DET_REPS:
        # too few replications for the trimmed metric; add the raw estimates
        report["note"] = (f"M < {MIN_DET_REPS}: trimmed det metric skipped, "
                          "raw estimates reported")
        report["estimates"] = {m: {name: result.estimates[name][m].tolist() for name in estimators}
                               for m in range(cfg.m_reps)}
        rows = [[m, DISPLAY_NAMES[name], *[_fmt(x, 4) for x in result.estimates[name][m]]]
                for m in range(cfg.m_reps) for name in estimators]
        report["_text"] += "\n\nraw estimates:\n" + _coef_table(
            rows, ["rep", "estimator", *(["coef"] * (cfg.p + cfg.q + 1))])
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("estimator,det_metric,n_converged\n")
            for name in estimators:
                fh.write(f"{name},{report['det_metrics'][name]},{result.n_converged[name]}\n")
    _emit(report, args, time.perf_counter() - start)
    if result.failure_fraction > 0.05:
        print(f"warning: {result.n_failed} replication fits failed "
              f"({result.failure_fraction:.1%})", file=sys.stderr)
        return EXIT_ESTIMATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def cmd_reproduce(args) -> int:
    from .acceptance import CRITERIA, run_criterion

    start = time.perf_counter()
    only = {tok.strip() for tok in args.only.split(",") if tok.strip()} if args.only else None
    names = [name for name in CRITERIA if only is None or name in only]
    if only and len(names) != len(only):
        print(f"error: unknown criteria {sorted(only - set(names))}; "
              f"known: {list(CRITERIA)}", file=sys.stderr)
        return EXIT_USAGE
    if args.b < MIN_BOOTSTRAP:
        print(f"error: every criterion fits gmm estimators and needs --b >= {MIN_BOOTSTRAP} "
              "bootstrap resamples", file=sys.stderr)
        return EXIT_USAGE
    if args.M < MIN_DET_REPS:
        print(f"error: need --M >= {MIN_DET_REPS}: every criterion's study computes "
              f"the trimmed det metric, which needs {MIN_DET_REPS} replications",
              file=sys.stderr)
        return EXIT_USAGE
    if args.workers < 1:
        print(f"error: need --workers >= 1, got {args.workers}", file=sys.stderr)
        return EXIT_USAGE
    outcomes = {}
    all_pass = True
    for name in names:
        outcome = run_criterion(name, m_reps=args.M, b=args.b, seed=args.seed,
                                workers=args.workers)
        elapsed = outcome.pop("wall_time_s", 0.0)
        outcomes[name] = outcome
        status = "PASS" if outcome["passed"] else "FAIL"
        print(f"[{status}] {name}: {outcome['summary']} [{elapsed:.0f}s]")
        all_pass &= outcome["passed"]
    report = {
        "command": "reproduce",
        "config": {"only": sorted(only) if only else None, "M": args.M, "b": args.b,
                   "workers": args.workers},
        "criteria": outcomes,
        "all_passed": all_pass,
        "provenance": _provenance(args.seed),
        "_text": "",
    }
    _emit(report, args, time.perf_counter() - start)
    return EXIT_OK if all_pass else EXIT_ACCEPTANCE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _seed(text) -> int:
    """argparse type of --seed: an integer >= 0, as numpy's seed streams need."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"need an integer >= 0, got {text!r}")
    return seed


def _add_common(sub):
    sub.add_argument("--seed", type=_seed, default=0, help="master random seed (>= 0)")
    sub.add_argument("--json", help="write the JSON report to this path")
    sub.add_argument("--print-json", action="store_true", help="also print JSON to stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eivgmm",
        description="Errors-in-variables regression with replicate-estimated "
                    "heteroscedastic measurement error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit estimators to a CSV dataset")
    p_fit.add_argument("--data", required=True, help="CSV file path")
    p_fit.add_argument("--y", required=True, help="outcome column name")
    p_fit.add_argument("--z", default="", help="comma-separated error-free columns")
    p_fit.add_argument("--w-prefix", default="w",
                       help="replicate columns are <prefix><k>_r<r>")
    p_fit.add_argument("--estimators", default="naive,mc,gmm",
                       help="comma list from naive,mc,gmm")
    p_fit.add_argument("--weights", default="mm",
                       help="comma list from equal,mm,ql (gmm only)")
    p_fit.add_argument("--bootstrap", type=int, default=100,
                       help="bootstrap resamples for the gmm covariance")
    _add_common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_sim.add_argument("--setting", default="I", choices=["simple", "I", "II", "III"])
    p_sim.add_argument("--error", default="normal", choices=sorted(_ERROR_TOKENS))
    p_sim.add_argument("--rho", type=float, default=0.0,
                       help="correlation between measurement-error components")
    p_sim.add_argument("--n", type=int, default=500)
    p_sim.add_argument("--nrep", type=int, default=2)
    p_sim.add_argument("--M", type=int, default=100, help="number of replications")
    p_sim.add_argument("--b", type=int, default=100, help="bootstrap resamples")
    p_sim.add_argument("--eps-var", type=float, default=0.25,
                       help="regression error variance")
    p_sim.add_argument("--u-scale", type=float, default=1.0,
                       help="multiplier on measurement-error standard deviations")
    p_sim.add_argument("--estimators", default=",".join(ESTIMATORS))
    p_sim.add_argument("--no-se", action="store_true", help="skip standard errors")
    p_sim.add_argument("--workers", type=int, default=_default_workers())
    p_sim.add_argument("--csv", help="write the det-metric table to this CSV path")
    p_sim.add_argument("--dump-data", help="write each generated dataset to this directory")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("reproduce", help="run the acceptance-criteria grid")
    p_rep.add_argument("--only", default="", help="comma list of criterion names")
    p_rep.add_argument("--M", type=int, default=100, help="replications per criterion")
    p_rep.add_argument("--b", type=int, default=100, help="bootstrap resamples")
    p_rep.add_argument("--workers", type=int, default=_default_workers())
    _add_common(p_rep)
    p_rep.set_defaults(func=cmd_reproduce, seed=20250810)
    return parser


def _default_workers() -> int:
    env = os.environ.get("EIVGMM_WORKERS")
    if not env:
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        print(f"error: EIVGMM_WORKERS must be an integer, got {env!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EivError as exc:
        return _fail(str(exc), EXIT_ESTIMATION)


if __name__ == "__main__":
    sys.exit(main())
