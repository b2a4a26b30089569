"""Robust Monte Carlo performance metrics.

Estimator error matrices are trimmed before averaging: Mahalanobis distances
to the column medians, under a minimum-covariance-determinant scatter, flag
the worst 10% of replications as outliers, and the determinant of 1000 times
the trimmed second-moment matrix is the reported scalar metric. A helper
summarizes Monte Carlo versus average reported standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .model_data import as_theta

__all__ = ["RobustMse", "robust_mse", "SeSummary", "mc_se_summary"]

MCD_SUPPORT_FRACTION = 0.75
MCD_STARTS = 500
MCD_MAX_C_STEPS = 100
TRIM_QUANTILE = 0.90
#: fewest replications the trimmed det metric is computed from
MIN_DET_REPS = 20


@dataclass(frozen=True)
class RobustMse:
    """Trimmed mean-squared-error matrix and its determinant metric."""

    mse_rob: np.ndarray
    det_metric: float
    kept_rows: int
    #: the MCD scatter was singular and the diagonal squared-MAD scatter was used
    mad_fallback: bool


@dataclass(frozen=True)
class SeSummary:
    """Per-coefficient Monte Carlo SE versus average reported SE."""

    mc_se: np.ndarray
    avg_se: np.ndarray


#: bytes allowed for each (starts, m, k) temporary of the batched C-steps
_MCD_BLOCK_BYTES = 2 << 20


def _support_scatters(rows):
    """Means (S, k) and scatters (S, k, k) of a stack of supports (S, size, k)."""
    loc = rows.mean(axis=1)
    centered = rows - loc[:, None, :]
    # a transposed view of the same buffer: matmul forms each scatter with the
    # same BLAS call as a single support's centered.T @ centered
    scatter = np.swapaxes(centered, 1, 2) @ centered / (rows.shape[1] - 1)
    return loc, scatter


def _run_chains(a, starts, h):
    """Concentration chains from the (S, k+1) start supports, stepped together.

    Each step refits every live chain on its support and keeps its h rows
    closest in Mahalanobis distance. A chain stops once its support repeats,
    when its scatter is exactly singular, or after MCD_MAX_C_STEPS steps.
    Returns, per start, the (sign, logdet) of the last nonsingular scatter and
    the support that step selected; sign 0 marks a chain whose first scatter
    was singular.
    """
    n_starts = starts.shape[0]
    sign = np.zeros(n_starts)
    logdet = np.zeros(n_starts)
    supports = np.zeros((n_starts, h), dtype=np.intp)
    live, support = np.arange(n_starts), starts
    for _ in range(MCD_MAX_C_STEPS):
        if live.size == 0:
            break
        loc, scatter = _support_scatters(a[support])
        step_sign, step_logdet = np.linalg.slogdet(scatter)
        # inv fails on exactly the scatters whose LU factorization slogdet
        # reports with sign 0, and fails for the whole stack
        ok = step_sign != 0
        live, support, loc, scatter = live[ok], support[ok], loc[ok], scatter[ok]
        centered = a - loc[:, None, :]
        dist = np.einsum("sij,sij->si", centered @ np.linalg.inv(scatter), centered)
        new = np.sort(np.argsort(dist, axis=1, kind="stable")[:, :h], axis=1)
        sign[live], logdet[live], supports[live] = step_sign[ok], step_logdet[ok], new
        if support.shape[1] == h:
            moved = np.any(new != support, axis=1)
            live, new = live[moved], new[moved]
        support = new
    return sign, logdet, supports


def fast_mcd(a, seed=0):
    """Minimum covariance determinant scatter of the rows of ``a``.

    Draws MCD_STARTS seeded random (k+1)-subsets and runs the concentration
    steps from each (at most MCD_MAX_C_STEPS) to convergence, then returns
    (location, scatter) of the best (lowest-determinant) h-subset, with h
    the MCD_SUPPORT_FRACTION share of the rows; ties break on start index.
    Starts with an exactly singular first scatter, or a final determinant
    sign <= 0, are skipped; (None, None) when none is left.

    All chains step together as stacked array operations, in blocks of
    starts that keep each (starts, m, k) temporary near _MCD_BLOCK_BYTES.
    Each stacked operation runs the same per-matrix arithmetic as a
    start-by-start loop, so the result is bit-identical to it.
    """
    a = np.asarray(a, dtype=float)
    m, k = a.shape
    h = min(max(int(np.ceil(MCD_SUPPORT_FRACTION * m)), k + 1), m)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    starts = np.sort([rng.choice(m, size=k + 1, replace=False) for _ in range(MCD_STARTS)],
                     axis=1)
    block = max(1, _MCD_BLOCK_BYTES // (a.itemsize * m * k))
    chains = [_run_chains(a, starts[i:i + block], h) for i in range(0, MCD_STARTS, block)]
    sign, logdet, supports = (np.concatenate(parts) for parts in zip(*chains))
    best = None
    for i in np.flatnonzero(sign > 0):
        if best is None or logdet[i] < logdet[best] - 1e-12:
            best = i
    if best is None:
        return None, None
    loc, scatter = _support_scatters(a[supports[best]][None])
    return loc[0], scatter[0]


def robust_mse(estimates, truth, seed=0) -> RobustMse:
    """Outlier-trimmed mean-squared-error matrix of Monte Carlo estimates.

    Rows of the error matrix are estimates minus the true coefficients.
    Distances are measured from the column medians under the MCD scatter; rows
    beyond the nearest-rank 90th percentile are dropped (ties kept), and the
    uncentered second moment of the kept rows is returned along with
    det(1000 x MSE). Falls back to a diagonal squared-MAD scatter, and sets
    ``mad_fallback`` to say so, when the MCD scatter is singular. Fewer than
    MIN_DET_REPS rows raise UsageError.
    """
    estimates = np.asarray(estimates, dtype=float)
    m, k = estimates.shape
    if m < MIN_DET_REPS:
        raise UsageError(f"need m >= {MIN_DET_REPS} replications, got {m}")
    a = estimates - as_theta(truth)
    a_med = np.median(a, axis=0)
    _, scatter = fast_mcd(a, seed=seed)
    mad_fallback = scatter is None or bool(np.linalg.matrix_rank(scatter) < k)
    if mad_fallback:
        mad = np.median(np.abs(a - a_med), axis=0)
        mad = np.where(mad > 0, mad, 1.0)
        scatter = np.diag(mad**2)
    centered = a - a_med
    dist = np.einsum("ij,ij->i", centered @ np.linalg.inv(scatter), centered)
    cutoff = np.sort(dist)[int(np.ceil(TRIM_QUANTILE * m)) - 1]
    keep = dist <= cutoff
    kept = a[keep]
    mse_rob = kept.T @ kept / kept.shape[0]
    det_metric = float(np.linalg.det(1000.0 * mse_rob))
    return RobustMse(mse_rob=mse_rob, det_metric=det_metric, kept_rows=int(keep.sum()),
                     mad_fallback=mad_fallback)


def mc_se_summary(estimates, avg_se) -> SeSummary:
    """Column SDs of estimates vs column means of reported SEs; UsageError below 2 rows."""
    estimates = np.asarray(estimates, dtype=float)
    avg_se = np.asarray(avg_se, dtype=float)
    if estimates.shape[0] < 2:
        raise UsageError(f"need m >= 2 replications, got {estimates.shape[0]}")
    return SeSummary(
        mc_se=estimates.std(axis=0, ddof=1),
        avg_se=avg_se.mean(axis=0),
    )
