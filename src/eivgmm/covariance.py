"""Replicate-based covariance estimation.

Two estimands: the per-observation measurement-error covariance ``sigma_j``
(from pairwise differences of replicates) and the pooled covariance of the
true error-prone covariates ``sigma_x`` (sample covariance of the replicate
means minus the averaged-error correction). The latter is not guaranteed
positive semi-definite in finite samples; consumers that need eigenvalues or
inverses project it onto the PSD cone first (see ``psd_project``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model_data import Dataset

__all__ = [
    "CovarianceSet",
    "estimate_covariances",
    "psd_project",
    "pooled_error_covariance",
    "omega_matrices",
]

#: relative ridge added to inverted covariances, scaled by trace/p
OMEGA_RIDGE = 1e-8


@dataclass(frozen=True)
class CovarianceSet:
    """Per-observation error covariances plus the pooled covariate covariance.

    Attributes
    ----------
    sigma_j : (n, p, p) symmetric PSD matrices.
    sigma_x : (p, p) symmetric matrix; may be indefinite in finite samples.
    """

    sigma_j: np.ndarray
    sigma_x: np.ndarray


def sigma_x_from_parts(w_bar: np.ndarray, sigma_j: np.ndarray, n_rep: np.ndarray) -> np.ndarray:
    """Pooled covariance of the true error-prone covariates,
    (n-1)^{-1} sum_j (w_bar_j - w_bar)(w_bar_j - w_bar)^T
    - n^{-1} sum_j n_j^{-1} sigma_j. Symmetric but possibly indefinite."""
    n = w_bar.shape[0]
    centered = w_bar - w_bar.mean(axis=0)
    sample_cov = centered.T @ centered / (n - 1)
    return sample_cov - pooled_error_covariance(sigma_j, n_rep) / n


def estimate_covariances(d: Dataset) -> CovarianceSet:
    """Estimate all sigma_j and sigma_x for a dataset.

    sigma_j = [n_j (n_j - 1)]^{-1} sum_{k<k'} (w_jk - w_jk')(w_jk - w_jk')^T,
    symmetric PSD by construction. By the identity
    sum_{k<k'} (w_k - w_k')(w_k - w_k')^T = n_j sum_k (w_k - w_bar)(w_k - w_bar)^T
    it is the sample covariance of row j's replicates, computed here with the
    padded slots masked out of the centered replicates.
    """
    filled = np.arange(d.w.shape[1]) < d.n_rep[:, None]
    centered = np.where(filled[:, :, None], d.w - d.w_bar[:, None, :], 0.0)
    sigma_j = np.einsum("jka,jkb->jab", centered, centered) / (d.n_rep - 1)[:, None, None]
    return CovarianceSet(sigma_j=sigma_j, sigma_x=sigma_x_from_parts(d.w_bar, sigma_j, d.n_rep))


def psd_project(m: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix, or each matrix of a (..., p, p) stack, onto
    the PSD cone by zeroing negative eigenvalues."""
    sym = 0.5 * (m + np.swapaxes(m, -1, -2))
    vals, vecs = np.linalg.eigh(sym)
    psd = vals[..., 0] >= 0.0
    if np.all(psd):
        return sym
    proj = (vecs * np.clip(vals, 0.0, None)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return np.where(psd[..., None, None], sym, proj)


def pooled_error_covariance(sigma_j: np.ndarray, n_rep: np.ndarray) -> np.ndarray:
    """sum_j n_j^{-1} sigma_j, the correction matrix of the moment-corrected solve."""
    return np.einsum("j,jab->ab", 1.0 / np.asarray(n_rep, dtype=float), sigma_j)


def omega_matrices(cov: CovarianceSet, n_rep: np.ndarray) -> np.ndarray:
    """Per-observation omega_j = psd(sigma_x) + n_j^{-1} sigma_j, ridge-stabilized.

    The ridge OMEGA_RIDGE * trace(omega_j)/p keeps the inverses well-posed when
    sigma_x is degenerate; it is negligible for well-conditioned inputs. A
    (p, p) sigma_x gives the (n, p, p) stack; a (B, p, p) stack of sigma_x
    gives one (n, p, p) stack per matrix, (B, n, p, p).
    """
    p = cov.sigma_x.shape[-1]
    sx = psd_project(cov.sigma_x)
    omega = sx[..., None, :, :] + cov.sigma_j / np.asarray(n_rep, dtype=float)[:, None, None]
    diag = np.arange(p)
    omega[..., diag, diag] += (OMEGA_RIDGE * np.trace(omega, axis1=-2, axis2=-1) / p)[..., None]
    return omega
