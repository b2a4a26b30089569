"""Monte Carlo study driver: generate, fit every estimator, summarize.

Used by the `simulate` and `reproduce` CLI commands. Replications run in a
process pool whose workers run BLAS single-threaded; one pool lives for the
life of the process and serves every multi-worker study. Every random stream
is keyed by (seed, replication index), so results are identical for any
worker count and on fresh or reused workers.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .covariance import estimate_covariances
from .errors import EivError, UsageError
from .gmm import GmmFit, _check_fit_args, fit_gmm_multi
from .metrics import MIN_DET_REPS, mc_se_summary, robust_mse
from .model_data import ParamVector, build_design
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

    It runs once per worker, when _pool forks it. The pool already keeps each
    core busy with one worker, and OpenBLAS's own threads on top of that
    oversubscribe the cores: with two workers on two cores, a reduced
    acceptance grid (M=20, B=25) took 36 s unpinned and 15 s pinned when
    pinning came in, and takes about 2 s pinned now. The libraries are found
    in the process's memory map and set through ctypes, so no optional
    dependency is needed; where there is no /proc or no OpenBLAS, nothing
    changes.
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


#: the process's one pool as (workers, executor), made by the first multi-worker study
_POOL = None


def _pool(workers: int) -> ProcessPoolExecutor:
    """The process's pool of `workers` workers, forked at its first use.

    Reused while the worker count stays the same. A different count, or a
    pool that a dead worker broke (the executor sets `_broken` before it
    fails the pending futures), is shut down and replaced. The workers exit
    at interpreter exit through concurrent.futures' own exit hook. Studies
    share the one slot, so they run one at a time, not from several threads.
    """
    global _POOL
    if _POOL is not None and (_POOL[0] != workers or _POOL[1]._broken):
        _POOL[1].shutdown(wait=True)
        _POOL = None
    if _POOL is None:
        _POOL = (workers, ProcessPoolExecutor(max_workers=workers,
                                              initializer=_pin_blas_threads))
    return _POOL[1]


def _bootstrap_seed(cfg: SimConfig, m: int) -> int:
    ss = np.random.SeedSequence([int(cfg.seed), 1000003, int(m), 0])
    return int(ss.generate_state(1)[0])


def _check_estimators(estimators, b):
    """UsageError unless estimators names one or more of ESTIMATORS and, when
    it lists a gmm_* estimator, fit_gmm_multi accepts b."""
    if not estimators:
        raise UsageError(f"no estimators given; expected one or more of {ESTIMATORS}")
    unknown = [name for name in estimators if name not in ESTIMATORS]
    if unknown:
        raise UsageError(f"unknown estimators {unknown}; expected names from {ESTIMATORS}")
    schemes = [GMM_SCHEMES[name] for name in estimators if name in GMM_SCHEMES]
    if schemes:
        _check_fit_args(schemes, b)


def _fit_dataset(d, estimators, b, seed, compute_se=True, x_true=None) -> dict:
    """Fit each of estimators to d. Returns {name: outcome} in their order:
    the ParamVector of true (OLS on x_true) and naive, the McFit of mc, the
    GmmFit of a gmm_* scheme, or the EivError or LinAlgError that stopped it.
    The gmm_* names share one fit_gmm_multi call; its error is each one's."""
    def attempt(fit, *args, **kwargs):
        try:
            return fit(*args, **kwargs)
        except (EivError, np.linalg.LinAlgError) as exc:
            return exc

    schemes = {name: GMM_SCHEMES[name] for name in estimators if name in GMM_SCHEMES}
    gmm = attempt(fit_gmm_multi, d, tuple(schemes.values()), b=b, seed=seed,
                  compute_se=compute_se) if schemes else {}
    if isinstance(gmm, Exception):
        gmm = dict.fromkeys(schemes.values(), gmm)
    fits = {
        "true": lambda: fit_ols(d.y, np.column_stack([x_true, d.z]), d.p),
        "naive": lambda: fit_ols(d.y, build_design(d).v, d.p),
        "mc": lambda: fit_mc(d, estimate_covariances(d)),
    }
    return {name: gmm[schemes[name]] if name in schemes else attempt(fits[name])
            for name in estimators}


def run_replication(cfg: SimConfig, m: int, estimators=ESTIMATORS, b: int = 100,
                    compute_se: bool = True):
    """Generate dataset m and fit the requested estimators (_fit_dataset).

    Returns (estimates, ses, errors): dicts keyed by estimator name, plus a
    list of (estimator, message) for failed fits, in estimator order. Each
    estimator reports its own outcome: a failed fit gets a NaN estimate and
    its own message, and a GMM scheme whose standard errors failed keeps its
    estimate with a message that starts with SE_FAILURE_PREFIX. Bad
    estimators or b raise UsageError before the dataset is drawn.
    """
    _check_estimators(estimators, b)
    d, x_true = gen_dataset(cfg, m)
    nan_row = np.full(d.p + d.q + 1, np.nan)
    estimates, ses, errors = {}, {}, []
    outcomes = _fit_dataset(d, estimators, b, _bootstrap_seed(cfg, m), compute_se, x_true)
    for name, fit in outcomes.items():
        estimates[name], ses[name] = nan_row, nan_row
        if isinstance(fit, Exception):
            errors.append((name, str(fit)))
            continue
        estimates[name] = (fit if isinstance(fit, ParamVector) else fit.theta).theta
        if isinstance(fit, GmmFit):
            ses[name] = nan_row if fit.se is None else fit.se
            if not fit.converged:
                errors.append((name, "optimizer did not converge"))
            elif "se_error" in fit.diagnostics:
                errors.append((name, SE_FAILURE_PREFIX + fit.diagnostics["se_error"]))
    return estimates, ses, errors


def _job(args):
    cfg, m, estimators, b, compute_se = args
    return m, run_replication(cfg, m, estimators, b, compute_se)


def run_study(cfg: SimConfig, estimators=ESTIMATORS, b: int = 100, workers: int = 1,
              compute_se: bool = True) -> StudyResult:
    """Run cfg.m_reps replications and summarize.

    Trimmed det metrics need at least MIN_DET_REPS successful replications
    per estimator; SE summaries cover the GMM variants when compute_se is set.
    Bad estimators, b or workers raise UsageError before any dataset is drawn.

    With workers > 1 the replications run on the process's one pool
    (_pool): its workers are forked at the first multi-worker study and
    reused by every later one with the same count, since the first job of
    freshly forked workers runs 2-3x slower than a warm one. So a worker runs
    the package as it was at that fork: a function monkeypatched later in
    this process is not patched there. No test patches the package and then
    runs a multi-worker study; keep it so. A BrokenProcessPool from a dead
    worker propagates unchanged, and the next study forks a fresh pool.
    """
    _check_estimators(estimators, b)
    if workers < 1:
        raise UsageError(f"need workers >= 1, got {workers}")
    m_reps = cfg.m_reps
    k = cfg.p + cfg.q + 1
    estimates = {name: np.full((m_reps, k), np.nan) for name in estimators}
    ses = {name: np.full((m_reps, k), np.nan) for name in estimators}
    failures = []

    jobs = [(cfg, m, tuple(estimators), b, compute_se) for m in range(m_reps)]
    if workers > 1 and m_reps > 1:
        results = list(_pool(workers).map(_job, jobs,
                                          chunksize=max(1, m_reps // (4 * workers))))
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
