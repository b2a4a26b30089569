"""Combined estimator: stacked estimating equations, bootstrap covariance, and
the quadratic-form minimization with sandwich standard errors.

The 2(p+q+1) stacked equations concatenate the corrected least-squares
gradient and the phase-discrepancy gradient. Their covariance is estimated by
an estimating-function bootstrap: observations are resampled with replacement
(replicate groups kept intact), all data-dependent ingredients (per-observation
covariances, pooled covariance, phase weights, frequency cutoff) are recomputed
per resample, and the stacked gradient is re-evaluated at a fixed consistent
initial estimate. A resample is its distinct rows plus their multiplicities:
the phase gradients of every weight scheme come from one pair of trig tables
over the distinct rows, with each scheme's weights folded onto them, and the
outcome ECF and its t* scan evaluate tied outcomes once. The final estimate
minimizes the quadratic form in the stacked equations weighted by the inverse
bootstrap covariance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .covariance import (
    CovarianceSet,
    estimate_covariances,
    pooled_error_covariance,
    sigma_x_from_parts,
)
from .errors import BootstrapInstabilityError, EivError, StandardErrorError
from .model_data import Dataset, ParamVector, RegressionDesign, as_theta, build_design
from .moment_correction import McFit, fit_mc, grad_corrected_l2, mc_system
from .phase import EcfOutcome, PhaseConfig, build_ecf, grad_and_hessian, grad_dtilde
from .weights import WeightVector, make_weights

__all__ = [
    "GmmFit",
    "stacked_gradient",
    "bootstrap_omega",
    "fit_gmm",
    "gmm_standard_errors",
]

#: eigenvalue floor for the bootstrap covariance, relative to trace/dim
OMEGA_FLOOR = 1e-10
#: convergence: max-norm of an accepted Levenberg-Marquardt step
STEP_TOL = 1e-9
#: non-convergence: damping or evaluation count beyond these caps
MU_MAX = 1e16
MAX_EVAL = 500
MAX_BOOT_FAILURE_FRAC = 0.10


@dataclass
class GmmFit:
    """Result of the combined fit.

    theta minimizes q_value = s' omega_inv s, with omega_inv the inverse of the
    eigenvalue-floored bootstrap covariance omega_hat; p1_hat stacks the
    transposed Jacobian blocks of the estimating equations; se holds sandwich
    standard errors (None until computed or when the fit did not converge).
    n_iter counts objective evaluations. diagnostics holds max_q_times_n,
    t_star and the bootstrap event counts boot_capped (resamples whose t* scan
    hit its cap), boot_ql_fallback and boot_ql_clamped (resamples whose
    quasi-likelihood weights fell back to equal or were clamped).
    """

    theta: ParamVector
    omega_hat: np.ndarray
    omega_inv: np.ndarray
    p1_hat: np.ndarray | None
    se: np.ndarray | None
    q_value: float
    bootstrap_b: int
    converged: bool
    n_iter: int
    scheme: str
    theta_init: ParamVector
    weights: WeightVector
    ecf: EcfOutcome
    n_boot_failed: int = 0
    diagnostics: dict = field(default_factory=dict)


def stacked_gradient(theta, d: Dataset, cov: CovarianceSet, weights: WeightVector,
                     ecf: EcfOutcome, design: RegressionDesign | None = None) -> np.ndarray:
    """Evaluate the 2(p+q+1) stacked estimating equations at theta, ordered
    [corrected-LS beta, corrected-LS gamma, phase beta, phase gamma]."""
    if design is None:
        design = build_design(d)
    theta = as_theta(theta)
    sig_w = pooled_error_covariance(cov.sigma_j, d.n_rep)
    return np.concatenate([
        grad_corrected_l2(theta, design.v, d.y, sig_w),
        grad_dtilde(theta, design.v, weights.q, ecf),
    ])


def _floor_eigh(omega: np.ndarray):
    """Symmetrize and floor the spectrum; returns (floored matrix, inverse)."""
    sym = 0.5 * (omega + omega.T)
    vals, vecs = np.linalg.eigh(sym)
    floor = max(OMEGA_FLOOR * np.trace(sym) / sym.shape[0], 1e-30)
    vals = np.maximum(vals, floor)
    floored = (vecs * vals) @ vecs.T
    inv = (vecs / vals) @ vecs.T
    return floored, inv


def _bootstrap_accumulate(d: Dataset, theta, b: int, seed: int, schemes,
                          cfg: PhaseConfig, design: RegressionDesign,
                          cov: CovarianceSet):
    """Shared bootstrap pass: one set of resamples, one gradient per scheme.

    Resample i draws n row indices from the stream keyed by (seed, i). Its
    covariances, frequency cutoff, corrected-LS gradient and weights are
    computed on the n resampled rows, once per resample, and shared by every
    scheme. The phase gradient, the costly part, runs on the resample's
    distinct rows only: duplicated rows get identical weights under every
    scheme, so each scheme's weights fold to q[first] * counts over the
    distinct rows, and one grad_dtilde call on that (n_distinct x S) weight
    matrix gives all S phase gradients from one pair of trig tables.

    Capped t* scans and quasi-likelihood fallbacks and clamps are counted per
    scheme instead of warned about once per resample. Returns {scheme:
    (omega, omega_inv, failures, events)} with omega the eigenvalue-floored
    covariance, omega_inv its inverse, failures a list of (resample, message)
    and events the counts boot_capped, boot_ql_fallback and boot_ql_clamped.
    """
    theta = as_theta(theta)
    v, y = design.v, d.y
    n, p = d.n, d.p
    sigma_j = cov.sigma_j
    n_rep = d.n_rep.astype(float)
    dim = 2 * design.k
    acc = {s: np.zeros((dim, dim)) for s in schemes}
    mean_acc = {s: np.zeros(dim) for s in schemes}
    failures = {s: [] for s in schemes}
    events = {s: {"boot_capped": 0, "boot_ql_fallback": 0, "boot_ql_clamped": 0}
              for s in schemes}
    for idx_b in range(b):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), idx_b]))
        idx = rng.integers(0, n, size=n)
        rows, first, counts = np.unique(idx, return_index=True, return_counts=True)
        vb, yb = v[idx], y[idx]
        sj, nr = sigma_j[idx], n_rep[idx]
        w_bar_b = vb[:, :p]
        try:
            cov_b = CovarianceSet(sigma_j=sj, sigma_x=sigma_x_from_parts(w_bar_b, sj, nr))
            ecf_b = build_ecf(yb, cfg)
            s_mc = grad_corrected_l2(theta, vb, yb, pooled_error_covariance(sj, nr))
        except EivError as exc:
            for s in schemes:
                failures[s].append((idx_b, str(exc)))
            continue
        ok, folded = [], []
        for scheme in schemes:
            events[scheme]["boot_capped"] += int(ecf_b.capped)
            try:
                with warnings.catch_warnings():
                    # counted in events below, not warned once per resample
                    warnings.simplefilter("ignore", RuntimeWarning)
                    q_b = make_weights(scheme, cov_b, w_bar_b, nr)
            except EivError as exc:
                failures[scheme].append((idx_b, str(exc)))
                continue
            events[scheme]["boot_ql_fallback"] += int(q_b.fallback)
            events[scheme]["boot_ql_clamped"] += int(q_b.max_clamp > 0.0)
            ok.append(scheme)
            folded.append(q_b.q[first] * counts)
        if not ok:
            continue
        s_ph = grad_dtilde(theta, v[rows], np.column_stack(folded), ecf_b)
        for scheme, s_ph_scheme in zip(ok, s_ph):
            s_vec = np.concatenate([s_mc, s_ph_scheme])
            if not np.all(np.isfinite(s_vec)):
                failures[scheme].append((idx_b, "non-finite stacked gradient"))
                continue
            acc[scheme] += np.outer(s_vec, s_vec)
            mean_acc[scheme] += s_vec
    out = {}
    for scheme in schemes:
        n_bad = len(failures[scheme])
        if n_bad > MAX_BOOT_FAILURE_FRAC * b:
            raise BootstrapInstabilityError(
                f"{n_bad}/{b} bootstrap resamples failed for scheme {scheme!r}; "
                f"first: {failures[scheme][0][1]}"
            )
        n_ok = b - n_bad
        # covariance about the bootstrap mean; the uncentered moment would
        # inflate the phase block by the squared mean of its gradient at the
        # initial estimate, which buries the phase information whenever the
        # initial estimate is off (exactly the heavy-tail scenarios the
        # combination exists for)
        mean = mean_acc[scheme] / n_ok
        omega, omega_inv = _floor_eigh(acc[scheme] / n_ok - np.outer(mean, mean))
        out[scheme] = (omega, omega_inv, failures[scheme], events[scheme])
    return out


def bootstrap_omega(d: Dataset, theta_init, b: int, seed: int, scheme: str,
                    cfg: PhaseConfig = PhaseConfig(),
                    design: RegressionDesign | None = None,
                    cov: CovarianceSet | None = None):
    """Estimating-function bootstrap covariance of the stacked equations.

    Resamples observations with replacement (never replicates within an
    observation); per resample the covariances, weights, and frequency cutoff
    are recomputed and the stacked gradient is evaluated at theta_init. The
    second moment is taken about the bootstrap mean, symmetrized and
    eigenvalue-floored. Replicate streams are derived from (seed, resample
    index), so the result is reproducible independent of execution order.
    """
    if b < 25:
        raise ValueError("need at least 25 bootstrap resamples")
    if design is None:
        design = build_design(d)
    if cov is None:
        cov = estimate_covariances(d)
    omega, *_ = _bootstrap_accumulate(d, theta_init, b, seed, (scheme,),
                                      cfg, design, cov)[scheme]
    return omega


def _levenberg_marquardt(resid_jac, omega_inv, x0):
    """Minimize Q(x) = s(x)' W s(x), W = omega_inv, from x0, where
    resid_jac(x) returns (s, J).

    Steps solve (J'WJ + mu D) dx = -J'Ws with D = diag(J'WJ) (Marquardt
    scaling). A step that does not raise Q is taken, and mu is rescaled by the
    gain ratio of actual to predicted decrease (Nielsen's update); a step that
    raises Q is refused and mu grows by a doubling factor. Converged once a
    taken step has max-norm <= STEP_TOL; mu > MU_MAX or MAX_EVAL evaluations
    end the search unconverged. Returns (x, q, n_eval, converged).
    """
    x = np.asarray(x0, dtype=float).copy()
    s, jac = resid_jac(x)
    q = s @ omega_inv @ s
    mu, nu = 1e-3, 2.0
    n_eval = 1
    while n_eval < MAX_EVAL and mu <= MU_MAX:
        jtw = jac.T @ omega_inv
        jtwj = jtw @ jac
        damp = mu * np.diag(np.diag(jtwj))
        dx = np.linalg.solve(jtwj + damp, -(jtw @ s))
        s_new, jac_new = resid_jac(x + dx)
        q_new = s_new @ omega_inv @ s_new
        n_eval += 1
        if q_new <= q:
            if np.max(np.abs(dx)) <= STEP_TOL:
                return x + dx, float(q_new), n_eval, True
            gain = (q - q_new) / (dx @ (jtwj + 2.0 * damp) @ dx)
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
            x, s, jac, q = x + dx, s_new, jac_new, q_new
        else:
            mu *= nu
            nu *= 2.0
    return x, float(q), n_eval, False


def _fit_from_omega(d, scheme, omega, omega_inv, n_failures, events, b, mc, cov,
                    design, ecf, compute_se) -> GmmFit:
    """Minimize the quadratic form for one scheme given its bootstrap covariance."""
    weights = make_weights(scheme, cov, design.v[:, :d.p], d.n_rep)
    sig_w = pooled_error_covariance(cov.sigma_j, d.n_rep)
    v, y = design.v, d.y
    jac_mc = _mc_jacobian(v, y, sig_w)

    def resid_jac(theta):
        s_ph, hess_ph = grad_and_hessian(theta, v, weights.q, ecf)
        return (np.concatenate([grad_corrected_l2(theta, v, y, sig_w), s_ph]),
                np.vstack([jac_mc, hess_ph]))

    x, q_val, n_iter, converged = _levenberg_marquardt(resid_jac, omega_inv, mc.theta.theta)
    fit = GmmFit(
        theta=ParamVector.from_theta(x, d.p),
        omega_hat=omega,
        omega_inv=omega_inv,
        p1_hat=None,
        se=None,
        q_value=q_val,
        bootstrap_b=b,
        converged=converged,
        n_iter=n_iter,
        scheme=weights.scheme,
        theta_init=mc.theta,
        weights=weights,
        ecf=ecf,
        n_boot_failed=n_failures,
        diagnostics={"max_q_times_n": weights.max_q_times_n, "t_star": ecf.t_star,
                     **events},
    )
    if compute_se and converged:
        gmm_standard_errors(fit, d, cov, weights, ecf, design=design)
    return fit


def fit_gmm(d: Dataset, scheme: str = "minimax", b: int = 100, seed: int = 0,
            cfg: PhaseConfig = PhaseConfig(), compute_se: bool = True,
            mc: McFit | None = None, cov: CovarianceSet | None = None,
            design: RegressionDesign | None = None) -> GmmFit:
    """Two-step combined fit.

    Step one computes the moment-corrected estimate and the bootstrap
    covariance of the stacked equations at it; step two minimizes the
    quadratic form from that estimate by Levenberg-Marquardt on the exact
    Jacobian of the stacked equations. Standard errors use the sandwich with
    the analytic least-squares Jacobian block and the exact phase Hessian.
    """
    fits = fit_gmm_multi(d, (scheme,), b=b, seed=seed, cfg=cfg,
                         compute_se=compute_se, mc=mc, cov=cov, design=design)
    return fits[scheme]


def fit_gmm_multi(d: Dataset, schemes, b: int = 100, seed: int = 0,
                  cfg: PhaseConfig = PhaseConfig(), compute_se: bool = True,
                  mc: McFit | None = None, cov: CovarianceSet | None = None,
                  design: RegressionDesign | None = None) -> dict:
    """Fit several weight schemes on one dataset, sharing the bootstrap resamples.

    Sharing the resample-level work (covariances, frequency cutoffs, corrected
    least-squares gradients) across schemes changes nothing statistically and
    keeps multi-scheme studies at roughly single-scheme cost. Returns
    {scheme: GmmFit}.
    """
    if b < 25:
        raise ValueError("need at least 25 bootstrap resamples")
    if cov is None:
        cov = estimate_covariances(d)
    if design is None:
        design = build_design(d)
    if mc is None:
        mc = fit_mc(d, cov, design)
    per_scheme = _bootstrap_accumulate(d, mc.theta, b, seed, tuple(schemes),
                                       cfg, design, cov)
    ecf = build_ecf(d.y, cfg)
    return {
        scheme: _fit_from_omega(d, scheme, omega, omega_inv, len(fails), events, b, mc,
                                cov, design, ecf, compute_se)
        for scheme, (omega, omega_inv, fails, events) in per_scheme.items()
    }


def _mc_jacobian(v, y, sig_w):
    gram, _ = mc_system(v, y, sig_w)
    return 2.0 / y.size * gram


def gmm_standard_errors(fit: GmmFit, d: Dataset, cov: CovarianceSet,
                        weights: WeightVector, ecf: EcfOutcome,
                        design: RegressionDesign | None = None) -> np.ndarray:
    """Sandwich standard errors at the fitted estimate.

    Both Jacobian blocks are exact: the corrected least-squares block is
    analytic (the equations are linear) and the phase block is the Hessian of
    the phase discrepancy. Stores p1_hat and se on the fit and returns the se
    vector.
    """
    if design is None:
        design = build_design(d)
    sig_w = pooled_error_covariance(cov.sigma_j, d.n_rep)
    jac_mc = _mc_jacobian(design.v, d.y, sig_w)
    _, jac_ph = grad_and_hessian(fit.theta.theta, design.v, weights.q, ecf)
    p1 = np.hstack([jac_mc.T, jac_ph.T])
    sandwich = p1 @ fit.omega_inv @ p1.T
    cond = np.linalg.cond(sandwich)
    if not np.isfinite(cond) or cond > 1e14:
        raise StandardErrorError(
            f"sandwich matrix is singular (cond={cond:.3g}); standard errors unavailable"
        )
    cov_theta = np.linalg.inv(sandwich)
    diag = np.diag(cov_theta)
    if np.any(diag <= 0.0):
        raise StandardErrorError("sandwich inverse has non-positive diagonal entries")
    fit.p1_hat = p1
    fit.se = np.sqrt(diag)
    return fit.se
