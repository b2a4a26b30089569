"""Slow paths of the GMM layer, kept as test oracles."""

import numpy as np

from eivgmm.covariance import pooled_error_covariance
from eivgmm.gmm import MAX_EVAL, MU_MAX

#: the Gauss-Newton search's convergence: max-norm of a taken step
STEP_TOL = 1e-9


def sigma_x_from_parts(w_bar, sigma_j, n_rep):
    """Pooled covariance of the true error-prone covariates of one sample,
    summed over its rows: (n-1)^{-1} sum_j (w_bar_j - w_bar)(w_bar_j - w_bar)^T
    - n^{-1} sum_j n_j^{-1} sigma_j. Symmetric but possibly indefinite. The
    oracle for the bootstrap's count product (gmm._bootstrap_accumulate),
    which forms the same matrix for every sample from multiplicities."""
    n = w_bar.shape[0]
    centered = w_bar - w_bar.mean(axis=0)
    sample_cov = centered.T @ centered / (n - 1)
    return sample_cov - pooled_error_covariance(sigma_j, n_rep) / n


def resample_counts(seed, b, n):
    """(b, n) row multiplicities of resamples 0 .. b-1, resample i drawing n
    row indices from the stream keyed by (seed, i): all b index vectors
    stacked, offset by n per resample and counted by one flat bincount. The
    oracle for gmm._resample_counts, which counts each resample into its row."""
    idx = np.stack([
        np.random.default_rng(np.random.SeedSequence([int(seed), i])).integers(0, n, size=n)
        for i in range(b)
    ])
    flat = (idx + n * np.arange(b)[:, None]).ravel()
    return np.bincount(flat, minlength=flat.size).reshape(b, n).astype(float)


def gauss_newton_lm(resid_jac, omega_inv, x0):
    """Minimize Q(x) = s(x)' W s(x), W = omega_inv, from x0 by
    Gauss-Newton Levenberg-Marquardt, the optimizer `eivgmm.gmm` used
    before it stepped on the full Hessian; resid_jac(x) returns (s, J, curv)
    and curv is not used.

    Steps solve (J'WJ + mu D) dx = -J'Ws with D = diag(J'WJ) (Marquardt
    scaling). A step that does not raise Q is taken, and mu is rescaled by
    the gain ratio of actual to predicted decrease (Nielsen's update); a
    step that raises Q is refused and mu grows by a doubling factor.
    Converged once a taken step has max-norm <= STEP_TOL; mu > MU_MAX or
    MAX_EVAL evaluations end the search unconverged. Returns (x, q, n_eval,
    converged, jac) with jac the Jacobian already evaluated at the returned x.
    """
    x = np.asarray(x0, dtype=float).copy()
    s, jac = resid_jac(x)[:2]
    q = s @ omega_inv @ s
    mu, nu = 1e-3, 2.0
    n_eval = 1
    while n_eval < MAX_EVAL and mu <= MU_MAX:
        jtw = jac.T @ omega_inv
        jtwj = jtw @ jac
        damp = mu * np.diag(np.diag(jtwj))
        dx = np.linalg.solve(jtwj + damp, -(jtw @ s))
        s_new, jac_new = resid_jac(x + dx)[:2]
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
