"""Moment-corrected least squares for the replicate EIV model.

The corrected L2 norm subtracts the measurement-error quadratic form from the
naive residual sum of squares, so its gradient is linear in the coefficients
and the estimator is the solution of one symmetric linear system. Naive and
oracle OLS baselines live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceSet, pooled_error_covariance
from .errors import EstimationError
from .model_data import Dataset, ParamVector, RegressionDesign, as_theta, build_design

__all__ = ["McFit", "fit_mc", "fit_ols", "corrected_l2", "grad_corrected_l2"]

#: condition number above which the corrected normal equations are rejected
MAX_CONDITION = 1e12


@dataclass(frozen=True)
class McFit:
    """Moment-corrected fit: coefficients, residual variance, and the solved Gram matrix."""

    theta: ParamVector
    sigma_eps_sq: float
    gram: np.ndarray


def corrected_l2(theta, v: np.ndarray, y: np.ndarray, sig_w: np.ndarray) -> float:
    """Corrected L2 norm: mean squared residual minus the error quadratic form."""
    th = as_theta(theta)
    p = sig_w.shape[0]
    resid = y - v @ th
    n = y.size
    return float(resid @ resid / n - th[:p] @ sig_w @ th[:p] / n)


def grad_corrected_l2(theta, v: np.ndarray, y: np.ndarray, sig_w: np.ndarray) -> np.ndarray:
    """Gradient of the corrected L2 norm, the first block of the stacked equations.

    beta block: -(2/n) sum_j w_bar_j resid_j - (2/n) sum_j n_j^{-1} sigma_j beta;
    gamma block: -(2/n) sum_j z_j resid_j.
    """
    th = as_theta(theta)
    p = sig_w.shape[0]
    n = y.size
    resid = y - v @ th
    grad = v.T @ resid
    grad[:p] += sig_w @ th[:p]
    return -2.0 / n * grad


def fit_mc(d: Dataset, cov: CovarianceSet, design: RegressionDesign | None = None) -> McFit:
    """Solve the corrected estimating equations for the full coefficient vector.

    The corrected normal equations are gram theta = rhs with
    gram = sum_j v_j v_j^T - blockdiag(sum_j n_j^{-1} sigma_j, 0) and
    rhs = sum_j v_j y_j. Raises EstimationError when gram has condition
    number above MAX_CONDITION.
    """
    if design is None:
        design = build_design(d)
    sig_w = pooled_error_covariance(cov.sigma_j, d.n_rep)
    gram = design.v.T @ design.v
    gram[:d.p, :d.p] -= sig_w
    rhs = design.v.T @ d.y
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise EstimationError(
            f"corrected normal equations are near-singular (cond={cond:.3g}); "
            "more observations or less collinear covariates are needed"
        )
    theta = np.linalg.solve(gram, rhs)
    sigma_eps_sq = max(0.0, corrected_l2(theta, design.v, d.y, sig_w))
    return McFit(
        theta=ParamVector.from_theta(theta, d.p),
        sigma_eps_sq=sigma_eps_sq,
        gram=gram,
    )


def fit_ols(y, x, p: int) -> ParamVector:
    """Ordinary least squares of y on the design x = [error-prone block | z block].

    The first ``p`` columns are reported as beta, the rest as gamma. Serves the
    naive baseline (x built from averaged replicates) and the oracle baseline
    (x built from the true covariates).
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < x.shape[1]:
        raise EstimationError(f"design is rank deficient (rank {rank} < {x.shape[1]})")
    return ParamVector.from_theta(coef, p)
