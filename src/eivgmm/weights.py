"""Observation weights for the weighted empirical phase function.

Three schemes: equal weighting, minimax weighting (inverse of the top
eigenvalue of the per-observation surrogate covariance), and quasi-likelihood
weighting (simplex weights minimizing a Mahalanobis spread of the replicate
means, obtained from a penalized bordered linear system).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceSet, omega_matrices, psd_project
from .errors import DegenerateCovarianceError, WeightSolveError

__all__ = [
    "WeightVector",
    "weights_equal",
    "weights_minimax",
    "weights_ql",
    "make_weights",
    "solve_ql_system",
    "SCHEMES",
]

SCHEMES = ("equal", "minimax", "quasi_likelihood")

#: clamped-weight magnitude above which the quasi-likelihood solve is suspect
QL_CLAMP_ALERT = 1e-3


@dataclass(frozen=True)
class WeightVector:
    """Simplex weights for the phase function plus solve diagnostics.

    q sums to one and is nonnegative (tiny negative quasi-likelihood solutions
    are clamped; max_clamp records the largest magnitude clamped). fallback
    marks a quasi-likelihood solve that degenerated to equal weights.
    """

    q: np.ndarray
    scheme: str
    fallback: bool = False
    max_clamp: float = 0.0

    @property
    def max_q_times_n(self) -> float:
        """Diagnostic ratio max_j q_j * n; O(1) for well-behaved weights."""
        return float(self.q.max() * self.q.size)


def weights_equal(n: int) -> WeightVector:
    """Uniform weights 1/n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return WeightVector(q=np.full(n, 1.0 / n), scheme="equal")


def _top_eigenvalues(mats: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each symmetric matrix in an (n, p, p) stack."""
    p = mats.shape[-1]
    if p == 1:
        return mats[:, 0, 0]
    if p == 2:
        half_tr = 0.5 * (mats[:, 0, 0] + mats[:, 1, 1])
        half_gap = 0.5 * (mats[:, 0, 0] - mats[:, 1, 1])
        return half_tr + np.hypot(half_gap, mats[:, 0, 1])
    return np.linalg.eigvalsh(mats)[:, -1]


def weights_minimax(cov: CovarianceSet, n_rep) -> WeightVector:
    """Weights proportional to 1/lambda_j, lambda_j the top eigenvalue of
    psd(sigma_x) + n_j^{-1} sigma_j. Downweights high-noise observations."""
    n_rep = np.asarray(n_rep, dtype=float)
    sx = psd_project(cov.sigma_x)
    mats = sx[None, :, :] + cov.sigma_j / n_rep[:, None, None]
    lam = _top_eigenvalues(mats)
    if np.any(lam <= 0.0):
        bad = np.nonzero(lam <= 0.0)[0]
        raise DegenerateCovarianceError(
            f"zero top eigenvalue for observations {bad[:10].tolist()}; "
            "surrogate covariances are degenerate"
        )
    inv = 1.0 / lam
    return WeightVector(q=inv / inv.sum(), scheme="minimax")


def solve_ql_system(omega_inv: np.ndarray, w_bar: np.ndarray, gamma: float):
    """Solve the bordered quasi-likelihood weight system; returns (q, multiplier).

    The system has coefficient matrix G + gamma (n I - 11') bordered by the
    sum-to-one constraint, where G[k, j] = w_bar_k' A2 w_bar_j with
    A2 = sum_j omega_j^{-1}, and right-hand side w_bar A1 with
    A1 = sum_j omega_j^{-1} w_bar_j. G has rank at most p, so the solve uses
    the Woodbury identity on alpha I + U C U' (alpha = gamma n, U = [1 | w_bar],
    C = diag(-gamma) (+) A2) and costs O(n p^2) instead of O(n^3). The result
    matches a dense solve of the explicit (n+1) x (n+1) system to rounding.
    """
    n, p = w_bar.shape
    a2 = omega_inv.sum(axis=0)
    a1 = np.einsum("jab,jb->a", omega_inv, w_bar)
    c = w_bar @ a1
    alpha = gamma * n

    u = np.column_stack([np.ones(n), w_bar])
    c_inv = np.zeros((p + 1, p + 1))
    c_inv[0, 0] = -1.0 / gamma
    try:
        c_inv[1:, 1:] = np.linalg.inv(a2)
        cap = c_inv + (u.T @ u) / alpha
        # columns: M^{-1} c and M^{-1} 1 via the Woodbury correction
        rhs = np.column_stack([c, np.ones(n)])
        ut_rhs = u.T @ rhs
        corr = u @ np.linalg.solve(cap, ut_rhs)
    except np.linalg.LinAlgError as exc:
        raise WeightSolveError(f"bordered weight system is singular: {exc}") from exc
    m_inv_rhs = rhs / alpha - corr / alpha**2
    m_inv_c, m_inv_one = m_inv_rhs[:, 0], m_inv_rhs[:, 1]
    denom = m_inv_one.sum()
    if denom == 0.0 or not np.isfinite(denom):
        raise WeightSolveError("bordered weight system is singular (degenerate constraint row)")
    lam = (m_inv_c.sum() - 1.0) / denom
    q = m_inv_c - lam * m_inv_one
    return q, float(lam)


def weights_ql(cov: CovarianceSet, w_bar: np.ndarray, n_rep,
               ridge_gamma: float | None = None) -> WeightVector:
    """Quasi-likelihood weights from the penalized bordered linear system.

    ridge_gamma is the stabilizing penalty on squared weight differences;
    defaults to 1/n. Negative solutions are clamped at zero and the vector
    renormalized; a clamp larger than QL_CLAMP_ALERT triggers a warning. A
    singular system falls back to equal weights with the fallback flag set.
    """
    w_bar = np.asarray(w_bar, dtype=float)
    n = w_bar.shape[0]
    if n < 2:
        raise ValueError("need n >= 2")
    if ridge_gamma is None:
        ridge_gamma = 1.0 / n
    omega = omega_matrices(cov, np.asarray(n_rep))
    try:
        omega_inv = np.linalg.inv(omega)
        q, _ = solve_ql_system(omega_inv, w_bar, ridge_gamma)
    except (WeightSolveError, np.linalg.LinAlgError) as exc:
        warnings.warn(
            f"quasi-likelihood weight solve failed ({exc}); falling back to equal weights",
            RuntimeWarning,
            stacklevel=2,
        )
        return WeightVector(q=np.full(n, 1.0 / n), scheme="quasi_likelihood", fallback=True)
    max_clamp = float(max(0.0, -q.min()))
    if max_clamp > 0.0:
        if max_clamp > QL_CLAMP_ALERT:
            warnings.warn(
                f"quasi-likelihood weights clamped by up to {max_clamp:.3g}",
                RuntimeWarning,
                stacklevel=2,
            )
        q = np.clip(q, 0.0, None)
        q = q / q.sum()
    return WeightVector(q=q, scheme="quasi_likelihood", max_clamp=max_clamp)


def make_weights(scheme: str, cov: CovarianceSet, w_bar: np.ndarray, n_rep) -> WeightVector:
    """Dispatch on scheme name: one of SCHEMES."""
    name = scheme.lower()
    if name == "equal":
        return weights_equal(len(np.asarray(n_rep)))
    if name == "minimax":
        return weights_minimax(cov, n_rep)
    if name == "quasi_likelihood":
        return weights_ql(cov, w_bar, n_rep)
    raise ValueError(f"unknown weight scheme {scheme!r}; expected one of {SCHEMES}")
