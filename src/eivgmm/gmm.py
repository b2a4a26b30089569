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

import functools
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
from .moment_correction import McFit, fit_mc, grad_corrected_l2
from .phase import EcfOutcome, build_ecf, grad_and_hessian, grad_dtilde
from .weights import WeightVector, make_weights

__all__ = [
    "GmmFit",
    "fit_gmm_multi",
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
#: fewest bootstrap resamples fit_gmm_multi accepts
MIN_BOOTSTRAP = 25


@dataclass
class GmmFit:
    """Result of the combined fit for one weight scheme.

    theta minimizes q_value = s' omega_inv s, with omega_inv the inverse of the
    eigenvalue-floored bootstrap covariance omega_hat; se holds sandwich
    standard errors (None when not requested or when the fit did not
    converge). n_iter counts objective evaluations. diagnostics holds the
    bootstrap event counts boot_capped (resamples whose t* scan hit its cap),
    boot_ql_fallback and boot_ql_clamped (resamples whose quasi-likelihood
    weights fell back to equal or were clamped), and se_error, the reason,
    when standard errors were requested but se is None.
    """

    theta: ParamVector
    omega_hat: np.ndarray
    omega_inv: np.ndarray
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


def _stacked_equations(theta, v, y, sig_w, jac_mc, q, ecf: EcfOutcome):
    """The 2(p+q+1) stacked estimating equations at theta and their Jacobian.

    The equations are ordered [corrected-LS beta, corrected-LS gamma, phase
    beta, phase gamma]. The corrected-LS block is linear in theta, so its
    Jacobian is the constant jac_mc = (2/n) x corrected Gram matrix; the phase
    block's Jacobian is the exact Hessian of the phase discrepancy. Returns
    (s, J) with J of shape (2(p+q+1), p+q+1).
    """
    s_ph, hess_ph = grad_and_hessian(theta, v, q, ecf)
    return (np.concatenate([grad_corrected_l2(theta, v, y, sig_w), s_ph]),
            np.vstack([jac_mc, hess_ph]))


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
                          design: RegressionDesign, cov: CovarianceSet):
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
    A scheme with more than MAX_BOOT_FAILURE_FRAC of its resamples failed
    maps to a BootstrapInstabilityError instead; the other schemes keep
    their covariances.
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
            ecf_b = build_ecf(yb)
            s_mc = grad_corrected_l2(theta, vb, yb, pooled_error_covariance(sj, nr))
        except EivError as exc:
            for s in schemes:
                failures[s].append((idx_b, str(exc)))
            continue
        # a scheme whose weights fail keeps its column, filled with the
        # counts, so the matrix shape, and with it every other scheme's
        # gradient to the last bit, does not depend on which schemes failed
        ok, folded = [], np.empty((rows.size, len(schemes)))
        for col, scheme in enumerate(schemes):
            events[scheme]["boot_capped"] += int(ecf_b.capped)
            try:
                with warnings.catch_warnings():
                    # counted in events below, not warned once per resample
                    warnings.simplefilter("ignore", RuntimeWarning)
                    q_b = make_weights(scheme, cov_b, w_bar_b, nr)
            except EivError as exc:
                failures[scheme].append((idx_b, str(exc)))
                folded[:, col] = counts
                continue
            events[scheme]["boot_ql_fallback"] += int(q_b.fallback)
            events[scheme]["boot_ql_clamped"] += int(q_b.max_clamp > 0.0)
            ok.append(col)
            folded[:, col] = q_b.q[first] * counts
        if not ok:
            continue
        s_ph = grad_dtilde(theta, v[rows], folded, ecf_b)
        for col in ok:
            scheme = schemes[col]
            s_vec = np.concatenate([s_mc, s_ph[col]])
            if not np.all(np.isfinite(s_vec)):
                failures[scheme].append((idx_b, "non-finite stacked gradient"))
                continue
            acc[scheme] += np.outer(s_vec, s_vec)
            mean_acc[scheme] += s_vec
    out = {}
    for scheme in schemes:
        n_bad = len(failures[scheme])
        if n_bad > MAX_BOOT_FAILURE_FRAC * b:
            out[scheme] = BootstrapInstabilityError(
                f"{n_bad}/{b} bootstrap resamples failed for scheme {scheme!r}; "
                f"first: {failures[scheme][0][1]}"
            )
            continue
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


def _levenberg_marquardt(resid_jac, omega_inv, x0):
    """Minimize Q(x) = s(x)' W s(x), W = omega_inv, from x0, where
    resid_jac(x) returns (s, J).

    Steps solve (J'WJ + mu D) dx = -J'Ws with D = diag(J'WJ) (Marquardt
    scaling). A step that does not raise Q is taken, and mu is rescaled by the
    gain ratio of actual to predicted decrease (Nielsen's update); a step that
    raises Q is refused and mu grows by a doubling factor. Converged once a
    taken step has max-norm <= STEP_TOL; mu > MU_MAX or MAX_EVAL evaluations
    end the search unconverged. Returns (x, q, n_eval, converged, jac) with
    jac the Jacobian already evaluated at the returned x.
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
                return x + dx, float(q_new), n_eval, True, jac_new
            gain = (q - q_new) / (dx @ (jtwj + 2.0 * damp) @ dx)
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
            x, s, jac, q = x + dx, s_new, jac_new, q_new
        else:
            mu *= nu
            nu *= 2.0
    return x, float(q), n_eval, False, jac


def fit_gmm_multi(d: Dataset, schemes, b: int = 100, seed: int = 0,
                  compute_se: bool = True, mc: McFit | None = None,
                  cov: CovarianceSet | None = None,
                  design: RegressionDesign | None = None) -> dict:
    """Two-step combined fit for each weight scheme, sharing one bootstrap.

    Step one takes the moment-corrected estimate (fit here unless mc is
    given) and the bootstrap covariance of every scheme's stacked equations at
    it, all schemes from the same b resamples; sharing the resample-level work
    changes nothing statistically and keeps several schemes at roughly the
    cost of one. Step two minimizes each scheme's quadratic form from that
    estimate by Levenberg-Marquardt on the exact Jacobian of the stacked
    equations. The sandwich standard errors use the Jacobian the optimizer
    evaluated at the estimate it returns. A scheme listed twice is fit once.

    Each scheme carries its own outcome: returns {scheme: GmmFit}, where a
    scheme whose bootstrap exceeded the failure limit, or whose full-sample
    weights could not be formed, maps to the EivError that stopped it. A
    failed standard-error sandwich keeps the estimate, leaves se None and
    records the reason as diagnostics["se_error"].
    """
    if b < MIN_BOOTSTRAP:
        raise ValueError(f"need at least {MIN_BOOTSTRAP} bootstrap resamples")
    schemes = tuple(dict.fromkeys(schemes))
    if cov is None:
        cov = estimate_covariances(d)
    if design is None:
        design = build_design(d)
    if mc is None:
        mc = fit_mc(d, cov, design)
    per_scheme = _bootstrap_accumulate(d, mc.theta, b, seed, schemes, design, cov)
    ecf = build_ecf(d.y)
    v = design.v
    sig_w = pooled_error_covariance(cov.sigma_j, d.n_rep)
    jac_mc = 2.0 / d.n * mc.gram
    fits = {}
    for scheme, boot in per_scheme.items():
        if isinstance(boot, EivError):
            fits[scheme] = boot
            continue
        omega, omega_inv, fails, events = boot
        try:
            weights = make_weights(scheme, cov, v[:, :d.p], d.n_rep)
        except EivError as exc:
            fits[scheme] = exc
            continue
        resid_jac = functools.partial(_stacked_equations, v=v, y=d.y, sig_w=sig_w,
                                      jac_mc=jac_mc, q=weights.q, ecf=ecf)
        x, q_val, n_iter, converged, jac = _levenberg_marquardt(
            resid_jac, omega_inv, mc.theta.theta)
        se, diagnostics = None, dict(events)
        if compute_se and not converged:
            diagnostics["se_error"] = "optimizer did not converge"
        elif compute_se:
            try:
                se = gmm_standard_errors(jac, omega_inv)
            except StandardErrorError as exc:
                diagnostics["se_error"] = str(exc)
        fits[scheme] = GmmFit(
            theta=ParamVector.from_theta(x, d.p),
            omega_hat=omega,
            omega_inv=omega_inv,
            se=se,
            q_value=q_val,
            bootstrap_b=b,
            converged=converged,
            n_iter=n_iter,
            scheme=weights.scheme,
            theta_init=mc.theta,
            weights=weights,
            ecf=ecf,
            n_boot_failed=len(fails),
            diagnostics=diagnostics,
        )
    return fits


def gmm_standard_errors(jac: np.ndarray, omega_inv: np.ndarray) -> np.ndarray:
    """Sandwich standard errors sqrt(diag((J' W J)^{-1})).

    jac is the Jacobian J of the stacked equations at the estimate and
    omega_inv the weight matrix W of the quadratic form. Raises
    StandardErrorError when J'WJ is numerically singular or its inverse has a
    non-positive diagonal entry.
    """
    sandwich = jac.T @ omega_inv @ jac
    cond = np.linalg.cond(sandwich)
    if not np.isfinite(cond) or cond > 1e14:
        raise StandardErrorError(
            f"sandwich matrix is singular (cond={cond:.3g}); standard errors unavailable"
        )
    cov_theta = np.linalg.inv(sandwich)
    diag = np.diag(cov_theta)
    if np.any(diag <= 0.0):
        raise StandardErrorError("sandwich inverse has non-positive diagonal entries")
    return np.sqrt(diag)
