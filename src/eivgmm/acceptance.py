"""Acceptance-grid runners shared by the `reproduce` command and the test suite.

Each criterion runs a seeded Monte Carlo study at desk scale (default M=100
replications, B=100 bootstrap resamples) and checks orderings and coarse
magnitudes against the reference values; exact digit-level agreement is not
expected at this scale. The multi-covariate scenarios run with the calibrated
error scale (eps_var, u_scale below) that reproduces the reference tables'
magnitudes; the simple scenario runs at its documented scale.
"""

from __future__ import annotations

import time

from .errors import EstimationError, UsageError
from .metrics import MIN_DET_REPS
from .simgen import SimConfig
from .study import run_study

#: calibrated scale for the multi-covariate scenarios: regression-error
#: variance and measurement-error sd multiplier matching the reference tables
REFERENCE_EPS_VAR = 0.0625
REFERENCE_U_SCALE = 0.5

CRITERIA = ("naive-ordering", "heavy-tails", "contaminated-simple", "se")


def _cfg(setting, n, error_law, rho, m_reps, seed):
    """A multi-covariate scenario at the calibrated error scale."""
    return SimConfig(setting=setting, n=n, n_rep=2, m_reps=m_reps, error_law=error_law,
                     rho=rho, seed=seed, sigma_eps_sq=REFERENCE_EPS_VAR,
                     u_scale=REFERENCE_U_SCALE)


def _det_metrics(res, names):
    """res.det_metrics; raises EstimationError when an estimator in names has
    none, having fewer than MIN_DET_REPS successful replications."""
    missing = [name for name in names if name not in res.det_metrics]
    if missing:
        got = ", ".join(str(res.n_converged[name]) for name in missing)
        raise EstimationError(f"no det metric for {missing}: it needs {MIN_DET_REPS} "
                              f"successful replications, got {got}")
    return res.det_metrics


def _fit_counts(res):
    """Failed fits, SE-only failures and det metrics on the MAD fallback."""
    return {"n_failed": res.n_failed, "n_se_failed": res.n_se_failed,
            "det_fallback": res.det_fallback}


def run_naive_ordering(*, m_reps, b, seed, workers):
    """Setting I, rho=0.5, normal, n=1000: naive det at least 10x every
    corrected estimator's det."""
    cfg = _cfg("I", 1000, "normal", 0.5, m_reps, seed)
    estimators = ("naive", "mc", "gmm_equal", "gmm_mm", "gmm_ql")
    res = run_study(cfg, estimators=estimators, b=b, workers=workers, compute_se=False)
    det = _det_metrics(res, estimators)
    corrected = {k: det[k] for k in ("mc", "gmm_equal", "gmm_mm", "gmm_ql")}
    worst = max(corrected.values())
    passed = det["naive"] >= 10.0 * worst
    return {
        "passed": bool(passed),
        "summary": (f"naive {det['naive']:.3f} vs worst corrected {worst:.3f} "
                    f"(ratio {det['naive'] / worst:.1f}x, need >= 10x)"),
        "det_metrics": det,
        **_fit_counts(res),
    }


def run_heavy_tails(*, m_reps, b, seed, workers):
    """Setting I, rho=0, t2.5, n=1000: GMM-MM det <= 0.75x MC det, both within
    3x of the reference magnitudes (MC 0.021, GMM-MM 0.011)."""
    cfg = _cfg("I", 1000, "t2_5", 0.0, m_reps, seed)
    res = run_study(cfg, estimators=("mc", "gmm_mm"), b=b, workers=workers,
                    compute_se=False)
    det = _det_metrics(res, ("mc", "gmm_mm"))
    ratio = det["gmm_mm"] / det["mc"]
    in_band = (0.021 / 3 <= det["mc"] <= 0.021 * 3) and (0.011 / 3 <= det["gmm_mm"] <= 0.011 * 3)
    passed = ratio <= 0.75 and in_band
    return {
        "passed": bool(passed),
        "summary": (f"GMM-MM {det['gmm_mm']:.4f} vs MC {det['mc']:.4f} "
                    f"(ratio {ratio:.2f}, need <= 0.75; reference 0.011 vs 0.021)"),
        "det_metrics": det,
        "ratio": ratio,
        "magnitudes_in_band": bool(in_band),
        **_fit_counts(res),
    }


def run_contaminated_simple(*, m_reps, b, seed, workers):
    """Simple model, contaminated normal, n=1000: GMM-QL det <= 0.2x MC det."""
    cfg = SimConfig(setting="simple", n=1000, n_rep=2, m_reps=m_reps,
                    error_law="contaminated_normal", seed=seed)
    res = run_study(cfg, estimators=("mc", "gmm_ql"), b=b, workers=workers,
                    compute_se=False)
    det = _det_metrics(res, ("mc", "gmm_ql"))
    ratio = det["gmm_ql"] / det["mc"]
    passed = ratio <= 0.2
    return {
        "passed": bool(passed),
        "summary": (f"GMM-QL {det['gmm_ql']:.3f} vs MC {det['mc']:.3f} "
                    f"(ratio {ratio:.3f}, need <= 0.2; reference 0.48 vs 14.27)"),
        "det_metrics": det,
        "ratio": ratio,
        **_fit_counts(res),
    }


def run_se_calibration(*, m_reps, b, seed, workers):
    """Setting I, normal, rho=0.5, n=500: average reported SE of the first
    error-prone coefficient within +/-30% of its Monte Carlo SE, both within
    [0.02, 0.045]."""
    cfg = _cfg("I", 500, "normal", 0.5, m_reps, seed)
    res = run_study(cfg, estimators=("gmm_mm",), b=b, workers=workers,
                    compute_se=True)
    if "gmm_mm" not in res.se_summary:
        raise EstimationError("no SE summary for gmm_mm: it needs 2 replications with "
                              f"standard errors, got {res.n_converged['gmm_mm']} "
                              "successful replications")
    summary = res.se_summary["gmm_mm"]
    mc_se, avg_se = float(summary.mc_se[0]), float(summary.avg_se[0])
    within = abs(avg_se - mc_se) <= 0.30 * mc_se
    in_band = 0.02 <= mc_se <= 0.045 and 0.02 <= avg_se <= 0.045
    passed = within and in_band
    return {
        "passed": bool(passed),
        "summary": (f"beta1 Avg-SE {avg_se:.4f} vs MC-SE {mc_se:.4f} "
                    f"(reference 0.030 vs 0.031; need +/-30% and both in [0.02, 0.045])"),
        "mc_se": summary.mc_se.tolist(),
        "avg_se": summary.avg_se.tolist(),
        **_fit_counts(res),
    }


_RUNNERS = {
    "naive-ordering": run_naive_ordering,
    "heavy-tails": run_heavy_tails,
    "contaminated-simple": run_contaminated_simple,
    "se": run_se_calibration,
}


def run_criterion(name, m_reps=100, b=100, seed=20250810, workers=1):
    """Run and check one criterion, timed as wall_time_s. A bad name or m_reps,
    or b and workers that run_study rejects, raise UsageError before any work."""
    if name not in _RUNNERS:
        raise UsageError(f"unknown criterion {name!r}; expected one of {CRITERIA}")
    if m_reps < MIN_DET_REPS:
        raise UsageError(f"need m_reps >= {MIN_DET_REPS}, got {m_reps}: every criterion's "
                         "study computes the trimmed det metric")
    start = time.perf_counter()
    outcome = _RUNNERS[name](m_reps=m_reps, b=b, seed=seed, workers=workers)
    outcome["wall_time_s"] = round(time.perf_counter() - start, 2)
    return outcome
