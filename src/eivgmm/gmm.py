"""Combined estimator: stacked estimating equations, bootstrap covariance, and
the quadratic-form minimization with sandwich standard errors.

The 2(p+q+1) stacked equations concatenate the corrected least-squares
gradient and the phase-discrepancy gradient. Their covariance is estimated by
an estimating-function bootstrap: observations are resampled with replacement
(replicate groups kept intact), all data-dependent ingredients (per-observation
covariances, pooled covariance, phase weights, frequency cutoff) are recomputed
per resample, and the stacked gradient is re-evaluated at a fixed consistent
initial estimate. A resample is its vector of row multiplicities, so every
ingredient that is linear in them (pooled covariance, covariate covariance,
corrected-LS gradient) is one matrix product per block of resamples over the
original rows, and the weights of every scheme are formed for the block at
once. The full sample is the resample whose multiplicities are all one: it
is row 0 of the same pass, which gives its t*, outcome ECF and weights, and
its gradient does not enter the covariance. Every sample's t* comes from an
exact scan, the full sample's first; then each block forms the outcome ECFs
and the phase gradients of every sample and weight scheme at the quadrature
nodes of each sample's own band, from one set of trig tables shared by all
samples (see phase._BootstrapPhase). The pass keeps one array per quantity,
a row per sample and a column per scheme (stacked gradients, the reason a
sample is left out, quasi-likelihood events); each scheme's covariance,
failures and event counts are reductions over its column.
The final estimate minimizes the quadratic form in the stacked equations
weighted by the inverse bootstrap covariance, by damped Newton steps on its
exact Hessian: the Gauss-Newton part J'WJ plus the stacked equations'
second derivatives contracted with W s, which only the phase block has
(its discrepancy's third derivatives, from the trig tables of the same
evaluation); where that Hessian is not positive definite, on J'WJ alone.
The search has one stop, at Q's relative rounding floor: at the start or
after a taken step, when the next step promises a decrease of Q of at most
FLOOR_ULPS * eps * Q, a bound no unit of theta or of the equations moves,
the point is returned without evaluating that step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .covariance import estimate_covariances, pooled_error_covariance, psd_project
from .errors import (BootstrapInstabilityError, DegenerateCovarianceError, EivError,
                     StandardErrorError, UsageError)
from .model_data import Dataset, ParamVector, RegressionDesign, as_theta, build_design
from .moment_correction import fit_mc, grad_corrected_l2
from .phase import EcfOutcome, _BootstrapPhase, _quad_rule, _t_star_from_counts, grad_and_hessian
from .weights import SCHEMES, WeightVector, _block_weights

__all__ = [
    "GmmFit",
    "fit_gmm_multi",
    "gmm_standard_errors",
]

#: eigenvalue floor of the bootstrap covariance's correlation matrix
OMEGA_FLOOR = 1e-10
#: convergence: the next step's predicted decrease of Q is at most this
#: many units of eps * Q (Q's rounding floor: its evaluation noise hides any
#: further decrease)
FLOOR_ULPS = 128
#: non-convergence: damping or evaluation count beyond these caps
MU_MAX = 1e16
MAX_EVAL = 500
MAX_BOOT_FAILURE_FRAC = 0.10
#: fewest bootstrap resamples fit_gmm_multi accepts
MIN_BOOTSTRAP = 25
#: resample rows per bootstrap block: a block holds about this many / n
#: resamples, which bounds its stacked (block, n, ...) weight temporaries
_BOOT_BLOCK_ROWS = 8192


@dataclass
class GmmFit:
    """Result of the combined fit for one weight scheme.

    theta minimizes q_value = s' omega_inv s, with omega_inv the inverse of the
    eigenvalue-floored bootstrap covariance omega_hat; se holds sandwich
    standard errors (None when not requested or when the fit did not
    converge). n_iter counts evaluations of the stacked equations, the start
    included (a step refused for its predicted decrease is not evaluated).
    weights and ecf are the full sample's, row 0 of the bootstrap pass.
    diagnostics holds the event counts capped, ql_fallback and ql_clamped
    (0 or 1: the full sample's t* scan hit its cap, its quasi-likelihood
    weights fell back to equal or were clamped), the bootstrap's
    boot_capped (resamples whose t* scan hit its cap), boot_ql_fallback and
    boot_ql_clamped (resamples whose quasi-likelihood weights fell back or
    were clamped) and boot_trig_nodes (Chebyshev points of the trig tables
    the full sample and the resamples shared), and se_error, the reason,
    when standard errors were requested but se is None.
    """

    theta: ParamVector
    omega_hat: np.ndarray
    omega_inv: np.ndarray
    se: np.ndarray | None
    q_value: float
    converged: bool
    n_iter: int
    theta_init: ParamVector
    weights: WeightVector
    ecf: EcfOutcome
    n_boot_failed: int = 0
    diagnostics: dict = field(default_factory=dict)


def _stacked_equations(theta, v, y, sig_w, jac_mc, q, ecf: EcfOutcome):
    """The 2(p+q+1) stacked estimating equations at theta, their Jacobian and
    their curvature.

    The equations are ordered [corrected-LS beta, corrected-LS gamma, phase
    beta, phase gamma]. The corrected-LS block is linear in theta, so its
    Jacobian is the constant jac_mc = (2/n) x corrected Gram matrix and its
    second derivatives vanish; the phase block's Jacobian is the exact
    Hessian of the phase discrepancy. Returns (s, J, curv) with J of shape
    (2(p+q+1), p+q+1) and curv(u) = sum_m u_m d^2 s_m / d theta d theta'
    for a 2(p+q+1)-vector u, which only the phase half of u enters.
    """
    s_ph, hess_ph, curv_ph = grad_and_hessian(theta, v, q, ecf)
    k = s_ph.size
    return (np.concatenate([grad_corrected_l2(theta, v, y, sig_w), s_ph]),
            np.vstack([jac_mc, hess_ph]),
            lambda u: curv_ph(u[k:]))


def _floor_eigh(omega: np.ndarray):
    """Symmetrize, floor the spectrum of the unit-free correlation matrix
    D^{-1/2} omega D^{-1/2} (D = diag omega) at OMEGA_FLOOR and scale back;
    returns (floored matrix, inverse). DegenerateCovarianceError if D <= 0."""
    sym = 0.5 * (omega + omega.T)
    sd = np.sqrt(np.diag(sym))
    if not np.all(sd > 0.0):
        raise DegenerateCovarianceError("bootstrap covariance has a non-positive variance")
    scale = np.outer(sd, sd)
    vals, vecs = np.linalg.eigh(sym / scale)
    vals = np.maximum(vals, OMEGA_FLOOR)
    floored = (vecs * vals) @ vecs.T * scale
    inv = (vecs / vals) @ vecs.T / scale
    return floored, inv


def _resample_counts(seed: int, b: int, n: int) -> np.ndarray:
    """(b, n) row multiplicities of resamples 0 .. b-1; resample i draws n
    row indices from the stream keyed by (seed, i)."""
    counts = np.empty((b, n))
    for i in range(b):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
        counts[i] = np.bincount(rng.integers(0, n, size=n), minlength=n)
    return counts


def _outcome_counts(counts: np.ndarray, y_inv: np.ndarray, n_y: int) -> np.ndarray:
    """(b, n_y) multiplicities of the distinct outcomes from the (b, n) row
    multiplicities; y_inv maps each row to its distinct outcome."""
    b = counts.shape[0]
    flat = (y_inv + n_y * np.arange(b)[:, None]).ravel()
    return np.bincount(flat, weights=counts.ravel(), minlength=b * n_y).reshape(b, n_y)


def _bootstrap_accumulate(d: Dataset, theta, b: int, seed: int, schemes,
                          design: RegressionDesign, sigma_j: np.ndarray):
    """Shared bootstrap pass: the full sample and one set of resamples, one
    gradient per scheme.

    The full sample's exact t* scan runs first, over its distinct outcomes
    and their counts: its EivError (a constant outcome) propagates before
    any resample is drawn. Resample i draws n row indices from the stream
    keyed by (seed, i); all b resamples are drawn once as row multiplicities
    c, stacked under row 0, the full sample (all ones), and kept with their
    outcome multiplicities (1.6 MB at n = 1000, b = 100); each resample's
    exact t* scan runs next. Then the samples go in blocks of about
    _BOOT_BLOCK_ROWS / n. Per block, one product of the multiplicities with
    a per-row table gives every sample's pooled error covariance
    sum_j c_j sigma_j / n_j, covariate covariance sigma_x (from second
    moments of the globally centered w_bar, PSD-projected once per block
    for every scheme) and corrected-LS gradient (theta is fixed, so the
    residuals are computed once); each scheme's weights come from one
    _block_weights call, and one _BootstrapPhase.block call gives every
    sample's outcome ECF and phase gradients under every scheme, from trig
    tables shared by all samples plus the exact sums of the few values they
    leave out.

    The pass keeps one array per quantity, with a row per sample (row 0 the
    full sample) and a column per scheme: the stacked gradients grads
    (b + 1, S, 2k), the reasons (b + 1, S) why a sample is left out of the
    covariance, or None, and the quasi-likelihood fallback and max_clamp
    (b + 1, S). A sample's reason is the first of: its t* scan failed, its
    weights failed, its stacked gradient is not finite. Row 0 is not a
    resample: its gradient enters nothing and it is never a failure; the
    full sample's ECF and weights are its entries.

    Returns (ecf, {scheme: (omega, omega_inv, failures, events, weights)})
    with ecf the full sample's EcfOutcome and, from the scheme's column:
    omega the floored covariance (_floor_eigh) of the gradients of rows
    1 .. b kept, omega_inv its inverse; failures the (resample, reason)
    pairs of rows 1 .. b, resamples numbered 0 .. b-1; events the boot_*
    counts of GmmFit.diagnostics (quasi-likelihood events only of resamples
    whose scan and weights succeeded); weights row 0's WeightVector, or the
    EivError that stopped the scheme on it. A scheme with more than
    MAX_BOOT_FAILURE_FRAC of its resamples failed maps to a
    BootstrapInstabilityError instead, and one whose covariance has a zero
    variance to a DegenerateCovarianceError; the other schemes keep theirs.
    """
    theta = as_theta(theta)
    v, y = design.v, d.y
    n, p, k = d.n, d.p, design.k
    pp = p * p
    n_rep = d.n_rep.astype(float)
    w_bar = v[:, :p]
    wc = w_bar - w_bar.mean(axis=0)
    # per-row terms whose count-weighted sums the block needs, in column
    # blocks [sigma_j / n_j | wc wc' | wc | v resid]
    table = np.hstack([
        (sigma_j / n_rep[:, None, None]).reshape(n, pp),
        (wc[:, :, None] * wc[:, None, :]).reshape(n, pp),
        wc,
        v * (y - v @ theta)[:, None],
    ])
    y_vals, y_inv = np.unique(y, return_inverse=True)
    # the scan's first crossing is a discontinuous decision, so every
    # sample scans exactly, before the phase tables are sized from the
    # largest t*; the full sample's scan error stops the fit before any
    # resample is drawn
    t_stars = np.full(b + 1, np.nan)
    capped = np.zeros(b + 1, dtype=bool)
    t_stars[0], capped[0] = _t_star_from_counts(y_vals, np.bincount(y_inv).astype(float))
    # row 0 is the full sample, rows 1 .. b the resamples
    counts = np.vstack([np.ones((1, n)), _resample_counts(seed, b, n)])
    y_counts = _outcome_counts(counts, y_inv, y_vals.size)
    # each stage sets the reasons it finds only where none is set yet, so a
    # failed scan outranks a weight error, which outranks a non-finite
    # stacked gradient
    reasons = np.full((b + 1, len(schemes)), None)
    for row in range(1, b + 1):
        held = y_counts[row] > 0.0
        try:
            t_stars[row], capped[row] = _t_star_from_counts(y_vals[held], y_counts[row, held])
        except EivError as exc:
            reasons[row] = exc
    phase = _BootstrapPhase(v, theta, y_vals, t_stars)
    grads = np.full((b + 1, len(schemes), 2 * k), np.nan)
    fallback = np.zeros((b + 1, len(schemes)), dtype=bool)
    max_clamp = np.zeros((b + 1, len(schemes)))
    block = max(1, _BOOT_BLOCK_ROWS // n)
    for first in range(0, b + 1, block):
        rows = slice(first, min(first + block, b + 1))
        sums = counts[rows] @ table
        sig_w = sums[:, :pp].reshape(-1, p, p)
        w_mean = sums[:, 2 * pp:2 * pp + p] / n
        sigma_x = psd_project((sums[:, pp:2 * pp].reshape(-1, p, p)
                               - n * w_mean[:, :, None] * w_mean[:, None, :]) / (n - 1)
                              - sig_w / n)
        s_mc = sums[:, 2 * pp + p:]
        s_mc[:, :p] += sig_w @ theta[:p]
        grads[rows, :, :k] = -2.0 / n * s_mc[:, None]
        weights = [_block_weights(s, counts[rows], sigma_j, sigma_x, w_bar, n_rep)
                   for s in schemes]
        errors = np.array([w.errors for w in weights], dtype=object).T
        failed = np.not_equal(errors, None)
        reasons[rows] = np.where(np.equal(reasons[rows], None), errors, reasons[rows])
        fallback[rows] = np.stack([w.fallback for w in weights], axis=1) & ~failed
        max_clamp[rows] = np.where(failed, 0.0, np.stack([w.max_clamp for w in weights], axis=1))
        # a failed scheme's weights are undefined; zeros keep them finite
        q = np.where(failed[:, :, None], 0.0, np.stack([w.q for w in weights], axis=1))
        live = np.flatnonzero(np.isfinite(t_stars[rows]))
        if live.size:
            c_y, s_y, grads[first + live, :, k:] = phase.block(
                t_stars[first + live], y_counts[first + live] / n, q[live])
        if first == 0:
            q_full = q[0]
            grid, quad_w = _quad_rule(t_stars[0])
            ecf = EcfOutcome(grid=grid, quad_w=quad_w, c_y=c_y[0], s_y=s_y[0],
                             t_star=float(t_stars[0]), capped=bool(capped[0]))
    boot = reasons[1:]
    nonfinite = ~np.all(np.isfinite(grads[1:]), axis=2)
    boot[np.equal(boot, None) & nonfinite] = "non-finite stacked gradient"
    kept = np.equal(boot, None)
    scanned = np.isfinite(t_stars[1:])
    out = {}
    for col, scheme in enumerate(schemes):
        failures = [(int(i), str(boot[i, col])) for i in np.flatnonzero(~kept[:, col])]
        if len(failures) > MAX_BOOT_FAILURE_FRAC * b:
            out[scheme] = BootstrapInstabilityError(
                f"{len(failures)}/{b} bootstrap resamples failed for scheme {scheme!r}; "
                f"first: {failures[0][1]}"
            )
            continue
        # covariance about the bootstrap mean; the uncentered moment would
        # inflate the phase block by the squared mean of its gradient at the
        # initial estimate, which buries the phase information whenever the
        # initial estimate is off (exactly the heavy-tail scenarios the
        # combination exists for)
        centered = grads[1:, col][kept[:, col]]
        centered -= centered.mean(axis=0)
        try:
            omega, omega_inv = _floor_eigh(centered.T @ centered / len(centered))
        except DegenerateCovarianceError as exc:
            out[scheme] = exc
            continue
        events = {"boot_capped": int(capped[1:].sum()),
                  "boot_ql_fallback": int(fallback[1:, col][scanned].sum()),
                  "boot_ql_clamped": int((max_clamp[1:, col][scanned] > 0.0).sum()),
                  "boot_trig_nodes": phase.n_cheb}
        full = reasons[0, col]
        if full is None:
            full = WeightVector(q=q_full[col], scheme=scheme, fallback=bool(fallback[0, col]),
                                max_clamp=float(max_clamp[0, col]))
        out[scheme] = (omega, omega_inv, failures, events, full)
    return ecf, out


def _levenberg_marquardt(resid_jac, omega_inv, x0):
    """Minimize Q(x) = s(x)' W s(x), W = omega_inv, from x0, where
    resid_jac(x) returns (s, J, curv) with curv(u) = sum_m u_m d^2 s_m/dx dx'.

    Newton steps on half the Hessian of Q, H = J'WJ + curv(Ws), damped by
    Marquardt's scaling: (H + mu D) dx = -J'Ws with D = diag(J'WJ). At a
    point where that H is not positive definite its quadratic model has no
    minimum, and steps on it can carry the search into another basin of Q,
    so H is the Gauss-Newton J'WJ there. A step whose predicted decrease
    -(2 g'dx + dx'H dx), g = J'Ws, is not positive is refused unevaluated; a
    step that does not raise Q is taken, and mu is rescaled by the gain ratio
    of actual to predicted decrease (Nielsen's update); any other step is
    refused and mu grows by a doubling factor. One test stops the search,
    at Q's rounding floor: at the start and after each taken step, when the
    next step predicts a decrease of at most FLOOR_ULPS * eps * Q, Q cannot
    confirm it, so the point is returned without evaluating the step. Near
    the minimum mu is negligible and that prediction is the undamped Newton
    step's g'H^{-1}g; where the noise of Q's evaluation (above eps * Q when
    s cancels) has refused steps that the model trusts, mu has grown and it
    is the prediction of the shorter step Q still takes. mu > MU_MAX or
    MAX_EVAL evaluations end the search unconverged.
    Returns (x, q, n_eval, converged, jac) with n_eval the number of
    resid_jac calls and jac the Jacobian already evaluated at the returned x.
    """
    def model(s, jac, curv):
        w_s = omega_inv @ s
        jtwj = jac.T @ omega_inv @ jac
        full = jtwj + curv(w_s)
        return jac.T @ w_s, jtwj, full if np.linalg.eigvalsh(full)[0] > 0.0 else jtwj

    x = np.asarray(x0, dtype=float).copy()
    s, jac, curv = resid_jac(x)
    q = s @ omega_inv @ s
    grad, jtwj, hess = model(s, jac, curv)
    mu, nu = 1e-3, 2.0
    n_eval, taken = 1, True
    while n_eval < MAX_EVAL and mu <= MU_MAX:
        dx = np.linalg.solve(hess + mu * np.diag(np.diag(jtwj)), -grad)
        pred = -(2.0 * grad @ dx + dx @ hess @ dx)
        if taken and pred <= FLOOR_ULPS * np.finfo(float).eps * q:
            return x, float(q), n_eval, True, jac
        if pred > 0.0:
            s_new, jac_new, curv_new = resid_jac(x + dx)
            q_new = s_new @ omega_inv @ s_new
            n_eval += 1
            if q_new <= q:
                gain = (q - q_new) / pred
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                nu, taken = 2.0, True
                x, q, jac = x + dx, q_new, jac_new
                grad, jtwj, hess = model(s_new, jac_new, curv_new)
                continue
        mu *= nu
        nu *= 2.0
        taken = False
    return x, float(q), n_eval, False, jac


def _check_fit_args(schemes, b):
    """UsageError for no scheme, a name not in SCHEMES or b below MIN_BOOTSTRAP."""
    if not schemes:
        raise UsageError(f"no weight scheme given; expected one or more of {SCHEMES}")
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise UsageError(f"unknown weight scheme {scheme!r}; expected one of {SCHEMES}")
    if b < MIN_BOOTSTRAP:
        raise UsageError(f"need b >= {MIN_BOOTSTRAP} bootstrap resamples, got {b}")


def fit_gmm_multi(d: Dataset, schemes, b: int = 100, seed: int = 0,
                  compute_se: bool = True) -> dict:
    """Two-step combined fit for each weight scheme, sharing one bootstrap.

    Step one fits d's moment-corrected estimate (theta_init; its EivError
    propagates) and the bootstrap covariance of every scheme's stacked
    equations at it, all schemes from the same b resamples; sharing the
    resample-level work changes nothing statistically and keeps several
    schemes at roughly the cost of one. Step two minimizes each scheme's
    quadratic form from that estimate by damped Newton steps on the exact
    Hessian of the quadratic form. The sandwich standard errors use the
    Jacobian the optimizer evaluated at the estimate it returns. A scheme
    listed twice is fit once; no scheme, a scheme name not in
    weights.SCHEMES, or b below MIN_BOOTSTRAP raises UsageError (a
    ValueError) before any work.

    The full sample's t*, outcome ECF and weights are row 0 of the bootstrap
    pass; a constant outcome raises DegenerateInputError from its t* scan,
    before any resample is drawn. Each scheme carries its own outcome:
    returns {scheme: GmmFit}, where a scheme whose bootstrap exceeded the
    failure limit or has a zero variance, or whose full-sample weights could
    not be formed, maps to the EivError that stopped it. A failed
    standard-error sandwich keeps the estimate, leaves se None and records
    the reason as diagnostics["se_error"].
    """
    schemes = tuple(dict.fromkeys(schemes))
    _check_fit_args(schemes, b)
    sigma_j = estimate_covariances(d)
    design = build_design(d)
    mc = fit_mc(d, sigma_j, design)
    ecf, per_scheme = _bootstrap_accumulate(d, mc.theta, b, seed, schemes, design, sigma_j)
    sig_w = pooled_error_covariance(sigma_j, d.n_rep)
    jac_mc = 2.0 / d.n * mc.gram
    fits = {}
    for scheme, boot in per_scheme.items():
        if isinstance(boot, EivError):
            fits[scheme] = boot
            continue
        omega, omega_inv, fails, events, weights = boot
        if isinstance(weights, EivError):
            fits[scheme] = weights
            continue
        resid_jac = functools.partial(_stacked_equations, v=design.v, y=d.y, sig_w=sig_w,
                                      jac_mc=jac_mc, q=weights.q, ecf=ecf)
        x, q_val, n_iter, converged, jac = _levenberg_marquardt(
            resid_jac, omega_inv, mc.theta.theta)
        se = None
        diagnostics = {**events, "capped": int(ecf.capped),
                       "ql_fallback": int(weights.fallback),
                       "ql_clamped": int(weights.max_clamp > 0.0)}
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
            converged=converged,
            n_iter=n_iter,
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
