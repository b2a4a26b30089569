"""Monte Carlo study driver: generate, fit every estimator, summarize.

Used by the `simulate` and `reproduce` CLI commands. Replications run in a
process pool whose workers run BLAS single-threaded; every random stream is
keyed by (seed, replication index), so results are identical for any worker
count.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .covariance import estimate_covariances
from .errors import EivError
from .gmm import fit_gmm_multi
from .metrics import MIN_DET_REPS, mc_se_summary, robust_mse
from .model_data import build_design
from .moment_correction import fit_mc, fit_ols
from .simgen import SimConfig, gen_dataset

__all__ = ["StudyResult", "run_study", "run_replication", "ESTIMATORS", "GMM_SCHEMES"]

ESTIMATORS = ("true", "naive", "mc", "gmm_equal", "gmm_mm", "gmm_ql")
GMM_SCHEMES = {"gmm_equal": "equal", "gmm_mm": "minimax", "gmm_ql": "quasi_likelihood"}
DISPLAY_NAMES = {
    "true": "True", "naive": "Naive", "mc": "MC",
    "gmm_equal": "GMM-Equal", "gmm_mm": "GMM-MM", "gmm_ql": "GMM-QL",
}

#: message prefix of a fit whose estimate stands but whose standard errors failed
SE_FAILURE_PREFIX = "standard errors: "


@dataclass
class StudyResult:
    """Stacked per-replication estimates plus trimmed metrics and SE summaries."""

    config: SimConfig
    estimators: tuple
    estimates: dict            # name -> (M, k) array, NaN rows mark failures
    ses: dict                  # name -> (M, k) array of reported SEs (GMM only)
    det_metrics: dict = field(default_factory=dict)
    se_summary: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    n_converged: dict = field(default_factory=dict)
    #: estimators whose det metric used the diagonal squared-MAD scatter
    det_fallback: list = field(default_factory=list)

    def _failed_fits(self, se_only: bool) -> int:
        return len({(m, name) for m, name, msg in self.failures
                    if msg.startswith(SE_FAILURE_PREFIX) == se_only})

    @property
    def n_failed(self) -> int:
        """(replication, estimator) fits with no estimate (a NaN row) or an
        optimizer that did not converge."""
        return self._failed_fits(se_only=False)

    @property
    def n_se_failed(self) -> int:
        """Fits whose estimate stands but whose standard errors failed."""
        return self._failed_fits(se_only=True)

    @property
    def failure_fraction(self) -> float:
        total = self.config.m_reps * len(self.estimators)
        return self.n_failed / total if total else 0.0


#: thread-count setters of numpy's OpenBLAS: the wheels' scipy-openblas or a system build
_OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_", "openblas_set_num_threads")


def _pin_blas_threads():
    """Pool initializer: set every OpenBLAS loaded in this process to one thread.

    The pool already keeps each core busy with one worker, and OpenBLAS's own
    threads on top of that oversubscribe the cores: with two workers on two
    cores, a reduced acceptance grid (M=20, B=25) took 36 s unpinned and 15 s
    pinned. The libraries are found in the process's memory map and set
    through ctypes, so no optional dependency is needed; where there is no
    /proc or no OpenBLAS, nothing changes.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_SET_THREADS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


def _bootstrap_seed(cfg: SimConfig, m: int, scheme_idx: int) -> int:
    ss = np.random.SeedSequence([int(cfg.seed), 1000003, int(m), int(scheme_idx)])
    return int(ss.generate_state(1)[0])


def run_replication(cfg: SimConfig, m: int, estimators=ESTIMATORS, b: int = 100,
                    compute_se: bool = True):
    """Generate dataset m and fit the requested estimators.

    Returns (estimates, ses, errors): dicts keyed by estimator name, plus a
    list of (estimator, message) for failed fits. Each GMM scheme reports
    its own outcome: one whose fit failed gets a NaN estimate and its own
    message, and one whose standard errors failed keeps its estimate with a
    message that starts with SE_FAILURE_PREFIX.
    """
    d, x_true = gen_dataset(cfg, m)
    k = cfg.p + cfg.q + 1
    estimates, ses, errors = {}, {}, []
    nan_row = np.full(k, np.nan)

    gmm_names = [name for name in estimators if name in GMM_SCHEMES]
    gmm_fits = {}
    sigma_j = design = mc = None
    if any(name not in ("true", "naive") for name in estimators):
        try:
            sigma_j = estimate_covariances(d)
            design = build_design(d)
            mc = fit_mc(d, sigma_j, design)
        except (EivError, np.linalg.LinAlgError) as exc:
            errors.extend((name, str(exc)) for name in estimators
                          if name not in ("true", "naive"))
            gmm_names = []
    if gmm_names:
        try:
            fits = fit_gmm_multi(
                d, tuple(GMM_SCHEMES[name] for name in gmm_names), b=b,
                seed=_bootstrap_seed(cfg, m, 0), compute_se=compute_se,
                mc=mc, sigma_j=sigma_j, design=design,
            )
            gmm_fits = {name: fits[GMM_SCHEMES[name]] for name in gmm_names}
        except (EivError, np.linalg.LinAlgError) as exc:
            errors.extend((name, str(exc)) for name in gmm_names)

    for name in estimators:
        est, se = nan_row, None
        try:
            if name == "true":
                est = fit_ols(d.y, np.column_stack([x_true, d.z]), cfg.p).theta
            elif name == "naive":
                if design is None:
                    design = build_design(d)
                est = fit_ols(d.y, design.v, cfg.p).theta
            elif name == "mc":
                if mc is not None:
                    est = mc.theta.theta
            elif name in gmm_fits:
                fit = gmm_fits[name]
                if isinstance(fit, EivError):
                    raise fit
                est, se = fit.theta.theta, fit.se
                if not fit.converged:
                    errors.append((name, "optimizer did not converge"))
                elif "se_error" in fit.diagnostics:
                    errors.append((name, SE_FAILURE_PREFIX + fit.diagnostics["se_error"]))
        except (EivError, np.linalg.LinAlgError) as exc:
            errors.append((name, str(exc)))
            est, se = nan_row, None
        estimates[name] = est
        ses[name] = se if se is not None else np.full(k, np.nan)
    return estimates, ses, errors


def _job(args):
    cfg, m, estimators, b, compute_se = args
    return m, run_replication(cfg, m, estimators, b, compute_se)


def run_study(cfg: SimConfig, estimators=ESTIMATORS, b: int = 100, workers: int = 1,
              compute_se: bool = True) -> StudyResult:
    """Run cfg.m_reps replications and summarize.

    Trimmed det metrics need at least MIN_DET_REPS successful replications
    per estimator; SE summaries cover the GMM variants when compute_se is set.
    """
    m_reps = cfg.m_reps
    k = cfg.p + cfg.q + 1
    estimates = {name: np.full((m_reps, k), np.nan) for name in estimators}
    ses = {name: np.full((m_reps, k), np.nan) for name in estimators}
    failures = []

    jobs = [(cfg, m, tuple(estimators), b, compute_se) for m in range(m_reps)]
    if workers > 1 and m_reps > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas_threads) as pool:
            results = list(pool.map(_job, jobs, chunksize=max(1, m_reps // (4 * workers))))
    else:
        results = [_job(job) for job in jobs]

    for m, (est_m, se_m, err_m) in sorted(results):
        for name in estimators:
            estimates[name][m] = est_m[name]
            ses[name][m] = se_m[name]
        failures.extend((m, name, msg) for name, msg in err_m)

    result = StudyResult(config=cfg, estimators=tuple(estimators),
                         estimates=estimates, ses=ses, failures=failures)
    theta0 = cfg.theta0
    for name in estimators:
        rows = estimates[name]
        ok = np.all(np.isfinite(rows), axis=1)
        result.n_converged[name] = int(ok.sum())
        if ok.sum() >= MIN_DET_REPS:
            rob = robust_mse(rows[ok], theta0, seed=cfg.seed)
            result.det_metrics[name] = rob.det_metric
            if rob.mad_fallback:
                result.det_fallback.append(name)
        if compute_se and name in GMM_SCHEMES:
            se_ok = ok & np.all(np.isfinite(ses[name]), axis=1)
            if se_ok.sum() >= 2:
                result.se_summary[name] = mc_se_summary(rows[se_ok], ses[name][se_ok])
    return result
