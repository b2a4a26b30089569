"""Robust Monte Carlo performance metrics.

Estimator error matrices are trimmed before averaging: Mahalanobis distances
to the column medians, under a minimum-covariance-determinant scatter, flag
the worst 10% of replications as outliers, and the determinant of 1000 times
the trimmed second-moment matrix is the reported scalar metric. A helper
summarizes Monte Carlo versus average reported standard errors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model_data import as_theta

__all__ = ["RobustMse", "robust_mse", "SeSummary", "mc_se_summary"]

MCD_SUPPORT_FRACTION = 0.75
MCD_STARTS = 500
MCD_MAX_C_STEPS = 100
TRIM_QUANTILE = 0.90


@dataclass(frozen=True)
class RobustMse:
    """Trimmed mean-squared-error matrix and its determinant metric."""

    mse_rob: np.ndarray
    det_metric: float
    kept_rows: int


@dataclass(frozen=True)
class SeSummary:
    """Per-coefficient Monte Carlo SE versus average reported SE."""

    mc_se: np.ndarray
    avg_se: np.ndarray


def _c_step(a, support, h):
    """One concentration step: refit on support, keep the h closest rows."""
    loc = a[support].mean(axis=0)
    centered = a[support] - loc
    scatter = centered.T @ centered / (support.size - 1)
    try:
        dist = np.einsum("ij,ij->i", (a - loc) @ np.linalg.inv(scatter), a - loc)
    except np.linalg.LinAlgError:
        return None, None, None
    new_support = np.argsort(dist, kind="stable")[:h]
    sign, logdet = np.linalg.slogdet(scatter)
    return np.sort(new_support), (sign, logdet), scatter


def fast_mcd(a, seed=0):
    """Minimum covariance determinant scatter of the rows of ``a``.

    Runs MCD_STARTS seeded random (k+1)-subsets to convergence of the
    concentration steps (at most MCD_MAX_C_STEPS each) and returns
    (location, scatter) of the best (lowest-determinant) h-subset, with h
    the MCD_SUPPORT_FRACTION share of the rows; ties break on start index.
    """
    a = np.asarray(a, dtype=float)
    m, k = a.shape
    h = min(max(int(np.ceil(MCD_SUPPORT_FRACTION * m)), k + 1), m)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    best = None
    for _ in range(MCD_STARTS):
        support = np.sort(rng.choice(m, size=k + 1, replace=False))
        result = None
        for _ in range(MCD_MAX_C_STEPS):
            new_support, obj, scatter = _c_step(a, support, h)
            if new_support is None:
                break
            if np.array_equal(new_support, support):
                result = (obj, support, scatter)
                break
            support = new_support
            result = (obj, support, scatter)
        if result is None:
            continue
        (sign, logdet), support, _ = result
        if sign <= 0:
            continue
        if best is None or logdet < best[0] - 1e-12:
            best = (logdet, support)
    if best is None:
        return None, None
    support = best[1]
    loc = a[support].mean(axis=0)
    centered = a[support] - loc
    scatter = centered.T @ centered / (support.size - 1)
    return loc, scatter


def robust_mse(estimates, truth, seed=0) -> RobustMse:
    """Outlier-trimmed mean-squared-error matrix of Monte Carlo estimates.

    Rows of the error matrix are estimates minus the true coefficients.
    Distances are measured from the column medians under the MCD scatter; rows
    beyond the nearest-rank 90th percentile are dropped (ties kept), and the
    uncentered second moment of the kept rows is returned along with
    det(1000 x MSE). Falls back to a diagonal squared-MAD scatter with a
    warning when the MCD scatter is singular.
    """
    estimates = np.asarray(estimates, dtype=float)
    m, k = estimates.shape
    if m < 20:
        raise ValueError("need at least 20 replications for the trimmed metric")
    a = estimates - as_theta(truth)
    a_med = np.median(a, axis=0)
    _, scatter = fast_mcd(a, seed=seed)
    if scatter is None or np.linalg.matrix_rank(scatter) < k:
        warnings.warn(
            "MCD scatter is singular; falling back to diagonal squared-MAD scatter",
            RuntimeWarning,
            stacklevel=2,
        )
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
    return RobustMse(mse_rob=mse_rob, det_metric=det_metric, kept_rows=int(keep.sum()))


def mc_se_summary(estimates, avg_se) -> SeSummary:
    """Column standard deviations of estimates versus column means of reported SEs."""
    estimates = np.asarray(estimates, dtype=float)
    avg_se = np.asarray(avg_se, dtype=float)
    if estimates.shape[0] < 2:
        raise ValueError("need at least 2 replications")
    return SeSummary(
        mc_se=estimates.std(axis=0, ddof=1),
        avg_se=avg_se.mean(axis=0),
    )
