"""Observation weights for the weighted empirical phase function.

Three schemes: equal weighting, minimax weighting (inverse of the top
eigenvalue of the per-observation surrogate covariance), and quasi-likelihood
weighting (simplex weights minimizing a Mahalanobis spread of the replicate
means, obtained from a penalized bordered linear system).

Every scheme is computed for a block of samples that share the same rows:
sample b holds row j counts[b, j] times, so a bootstrap resample is its
vector of row multiplicities. A sample's weight on a row is the row's
multiplicity times the weight of each of its copies, so rows a sample leaves
out weigh zero. The full sample is the row whose multiplicities are all
ones, row 0 of the bootstrap's first block, so its weights come from the
same _block_weights call as the resamples'; that call is the one place
where a scheme name selects its weight function. Each sample's covariate
covariance sigma_x arrives PSD-projected, from the bootstrap's count
product (see gmm._bootstrap_accumulate); no scheme projects it again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import omega_matrices
from .errors import DegenerateCovarianceError, WeightSolveError

__all__ = [
    "WeightVector",
    "SCHEMES",
]

SCHEMES = ("equal", "minimax", "quasi_likelihood")


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


@dataclass(frozen=True)
class _WeightBlock:
    """One scheme's weights for a block of B samples over the same n rows.

    q : (B, n) weight of each sample on each row, its multiplicity times the
        weight of one copy; each sample's weights sum to one.
    errors : per sample, the EivError that stopped the scheme, or None; the
        q of a failed sample is undefined.
    fallback, max_clamp : (B,) quasi-likelihood diagnostics, as in WeightVector.
    """

    q: np.ndarray
    errors: tuple
    fallback: np.ndarray
    max_clamp: np.ndarray


def _block(q, errors=None, fallback=None, max_clamp=None) -> _WeightBlock:
    b = q.shape[0]
    return _WeightBlock(
        q=q,
        errors=tuple(errors) if errors is not None else (None,) * b,
        fallback=np.zeros(b, dtype=bool) if fallback is None else fallback,
        max_clamp=np.zeros(b) if max_clamp is None else max_clamp,
    )


def _equal(counts: np.ndarray) -> _WeightBlock:
    return _block(counts / counts.sum(axis=1, keepdims=True))


def _top_eigenvalues(mats: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each symmetric matrix in a (..., p, p) stack."""
    p = mats.shape[-1]
    if p == 1:
        return mats[..., 0, 0]
    if p == 2:
        half_tr = 0.5 * (mats[..., 0, 0] + mats[..., 1, 1])
        half_gap = 0.5 * (mats[..., 0, 0] - mats[..., 1, 1])
        return half_tr + np.hypot(half_gap, mats[..., 0, 1])
    return np.linalg.eigvalsh(mats)[..., -1]


def _minimax(counts: np.ndarray, sigma_j: np.ndarray, sigma_x: np.ndarray,
             n_rep: np.ndarray) -> _WeightBlock:
    """Minimax weights of every sample; sigma_x is the (B, p, p) stack of the
    samples' PSD-projected covariate covariances. A sample fails when a row
    it holds has a zero top eigenvalue."""
    mats = sigma_x[:, None, :, :] + (sigma_j / n_rep[:, None, None])[None]
    lam = _top_eigenvalues(mats)
    held = counts > 0.0
    degenerate = held & (lam <= 0.0)
    errors = [None] * counts.shape[0]
    for b in np.flatnonzero(degenerate.any(axis=1)):
        rows = np.flatnonzero(degenerate[b])
        errors[b] = DegenerateCovarianceError(
            f"zero top eigenvalue for observations {rows[:10].tolist()}; "
            "surrogate covariances are degenerate"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(held, counts / np.where(held, lam, 1.0), 0.0)
        return _block(inv / inv.sum(axis=1, keepdims=True), errors)


def _solve_each(a: np.ndarray, rhs: np.ndarray):
    """solve(a[i], rhs[i]) for every i of the leading axis; returns (x,
    singular), singular marking the i whose system is singular.

    One batched solve serves the stack unless it raises; then each i is
    solved alone, so one singular system cannot fail the others.
    """
    try:
        return np.linalg.solve(a, rhs), np.zeros(a.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        pass
    x = np.full(rhs.shape, np.nan)
    singular = np.zeros(a.shape[0], dtype=bool)
    for i in range(a.shape[0]):
        try:
            x[i] = np.linalg.solve(a[i], rhs[i])
        except np.linalg.LinAlgError:
            singular[i] = True
    return x, singular


def _inv(a: np.ndarray):
    """Inverse of every matrix of a (B, ..., m, m) stack; returns (inverses,
    singular), singular marking the B whose stack holds a singular matrix."""
    return _solve_each(a, np.broadcast_to(np.eye(a.shape[-1]), a.shape))


def _inv_held(omega: np.ndarray, counts: np.ndarray):
    """Inverse of every omega[b, j] with counts[b, j] > 0; returns (inverses,
    singular), singular marking the samples with a singular held matrix.
    The inverses of rows a sample does not hold are finite but arbitrary.

    For p <= 2 the inverse is the adjugate over the determinant, elementwise
    over the whole (B, n) stack, and a zero determinant is singular.
    """
    held = counts > 0.0
    p = omega.shape[-1]
    if p > 2:
        return _inv(np.where(held[..., None, None], omega, np.eye(p)))
    if p == 1:
        det, adj = omega[..., 0, 0], np.ones_like(omega)
    else:
        det = omega[..., 0, 0] * omega[..., 1, 1] - omega[..., 0, 1] * omega[..., 1, 0]
        adj = np.empty_like(omega)
        adj[..., 0, 0], adj[..., 1, 1] = omega[..., 1, 1], omega[..., 0, 0]
        adj[..., 0, 1], adj[..., 1, 0] = -omega[..., 0, 1], -omega[..., 1, 0]
    zero = det == 0.0
    adj /= np.where(zero, 1.0, det)[..., None, None]
    adj[zero] = 0.0
    return adj, (zero & held).any(axis=1)


def _solve_ql_system(counts: np.ndarray, omega_inv: np.ndarray, w_bar: np.ndarray,
                     gamma):
    """Solve the bordered quasi-likelihood weight system of every sample in a
    block; returns (q, multiplier, errors).

    Sample b holds row j of w_bar (n, p) counts[b, j] times, with omega_inv
    the (B, n, p, p) inverse covariances of the rows and gamma the penalty,
    one value or one per sample. Its system, over its N_b = sum_j counts[b, j]
    copies, has coefficient matrix G + gamma_b (N_b I - 11') bordered by the sum-to-one
    constraint, where G[k, l] = w_bar_k' A2 w_bar_l with A2 = sum over copies
    of omega^{-1}, and right-hand side w_bar A1 with A1 = sum over copies of
    omega^{-1} w_bar. G has rank at most p, so the solve uses the Woodbury
    identity on alpha I + U C U' (alpha = gamma_b N_b, U = [1 | w_bar],
    C = diag(-gamma_b) (+) A2). Every sum over copies is a count-weighted sum
    over rows, and the cost is O(n p^2) per sample instead of O(N_b^3). The
    result matches a dense solve of the explicit (N_b+1) x (N_b+1) system to
    rounding.

    q (B, n) is the solution at one copy of each row and multiplier (B,) the
    constraint's multiplier. errors holds, per sample, the WeightSolveError
    of a singular system or None; a singular sample's q and multiplier are
    undefined.
    """
    n, p = w_bar.shape
    nb = counts.shape[0]
    a2 = (counts[:, None, :] @ omega_inv.reshape(nb, n, p * p)).reshape(nb, p, p)
    a1 = (counts[:, None, :] @ (omega_inv @ w_bar[:, :, None])[..., 0])[:, 0]
    c = a1 @ w_bar.T
    alpha = gamma * counts.sum(axis=1)

    u = np.column_stack([np.ones(n), w_bar])
    uu = (u[:, :, None] * u[:, None, :]).reshape(n, (p + 1) ** 2)
    a2_inv, singular = _inv(a2)
    cap = (counts @ uu).reshape(nb, p + 1, p + 1) / alpha[:, None, None]
    cap[:, 0, 0] -= 1.0 / gamma
    cap[:, 1:, 1:] += a2_inv
    # columns: M^{-1} c and M^{-1} 1 via the Woodbury correction
    ut_rhs = np.stack([(counts * c) @ u, counts @ u], axis=2)
    sol, singular_cap = _solve_each(cap, ut_rhs)
    singular |= singular_cap
    corr = u @ sol
    m_inv_c = c / alpha[:, None] - corr[..., 0] / alpha[:, None] ** 2
    m_inv_one = 1.0 / alpha[:, None] - corr[..., 1] / alpha[:, None] ** 2
    denom = np.sum(counts * m_inv_one, axis=1)
    degenerate = ~singular & ((denom == 0.0) | ~np.isfinite(denom))
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (np.sum(counts * m_inv_c, axis=1) - 1.0) / denom
    q = m_inv_c - lam[:, None] * m_inv_one
    errors = [None] * nb
    for b in np.flatnonzero(singular):
        errors[b] = WeightSolveError("bordered weight system is singular")
    for b in np.flatnonzero(degenerate):
        errors[b] = WeightSolveError(
            "bordered weight system is singular (degenerate constraint row)")
    return q, lam, tuple(errors)


def _quasi_likelihood(counts: np.ndarray, sigma_j: np.ndarray, sigma_x: np.ndarray,
                      w_bar: np.ndarray, n_rep: np.ndarray) -> _WeightBlock:
    """Quasi-likelihood weights of every sample; sigma_x is the (B, p, p)
    stack of the samples' PSD-projected covariate covariances. The penalty on squared
    weight differences is 1/N_b for a sample of N_b copies. A sample whose
    system is singular falls back to equal weights; negative solutions on
    held rows are clamped at zero and the weights renormalized."""
    n_copies = counts.sum(axis=1)
    omega_inv, singular = _inv_held(omega_matrices(sigma_x, sigma_j, n_rep), counts)
    q, _, errors = _solve_ql_system(counts, omega_inv, w_bar, 1.0 / n_copies)
    fallback = singular | np.array([e is not None for e in errors])
    held = counts > 0.0
    max_clamp = np.maximum(0.0, -np.min(np.where(held, q, np.inf), axis=1))
    max_clamp[fallback] = 0.0
    clamped = max_clamp > 0.0
    q = counts * np.where(clamped[:, None], np.clip(q, 0.0, None), q)
    q[clamped] /= q[clamped].sum(axis=1, keepdims=True)
    q[fallback] = counts[fallback] / n_copies[fallback, None]
    return _block(q, fallback=fallback, max_clamp=max_clamp)


def _block_weights(scheme: str, counts: np.ndarray, sigma_j: np.ndarray,
                   sigma_x: np.ndarray, w_bar: np.ndarray, n_rep) -> _WeightBlock:
    """One scheme's weights for B samples over the rows of sigma_j (n, p, p),
    w_bar (n, p) and n_rep (n,): sample b holds row j counts[b, j] times and
    has covariate covariance sigma_x[b], from a (B, p, p) stack that is
    already PSD-projected. Dispatches on scheme name, one of SCHEMES.
    """
    counts = np.asarray(counts, dtype=float)
    n_rep = np.asarray(n_rep, dtype=float)
    if scheme == "equal":
        return _equal(counts)
    if scheme == "minimax":
        return _minimax(counts, sigma_j, sigma_x, n_rep)
    if scheme == "quasi_likelihood":
        return _quasi_likelihood(counts, sigma_j, sigma_x, np.asarray(w_bar, dtype=float), n_rep)
    raise ValueError(f"unknown weight scheme {scheme!r}; expected one of {SCHEMES}")
