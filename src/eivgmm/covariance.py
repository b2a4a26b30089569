"""Replicate-based covariance estimation.

``estimate_covariances`` gives the per-observation measurement-error
covariances ``sigma_j``, from pairwise differences of replicates. The pooled
covariance of the true error-prone covariates ``sigma_x`` (sample covariance
of the replicate means minus the averaged-error correction) is formed per
sample by the bootstrap's count product (see gmm._bootstrap_accumulate),
the full sample included. It is not guaranteed positive semi-definite in
finite samples, so the bootstrap projects it onto the PSD cone (see
``psd_project``) before any weight reads it.
"""

from __future__ import annotations

import numpy as np

from .model_data import Dataset

__all__ = [
    "estimate_covariances",
    "psd_project",
    "pooled_error_covariance",
    "omega_matrices",
]

#: relative ridge added to inverted covariances, scaled by trace/p
OMEGA_RIDGE = 1e-8


def estimate_covariances(d: Dataset) -> np.ndarray:
    """The (n, p, p) stack of per-observation error covariances of a dataset,

    sigma_j = [n_j (n_j - 1)]^{-1} sum_{k<k'} (w_jk - w_jk')(w_jk - w_jk')^T,
    symmetric PSD by construction. By the identity
    sum_{k<k'} (w_k - w_k')(w_k - w_k')^T = n_j sum_k (w_k - w_bar)(w_k - w_bar)^T
    it is the sample covariance of row j's replicates, computed here with the
    padded slots masked out of the centered replicates.
    """
    filled = np.arange(d.w.shape[1]) < d.n_rep[:, None]
    centered = np.where(filled[:, :, None], d.w - d.w_bar[:, None, :], 0.0)
    return np.einsum("jka,jkb->jab", centered, centered) / (d.n_rep - 1)[:, None, None]


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


def omega_matrices(sigma_x: np.ndarray, sigma_j: np.ndarray, n_rep: np.ndarray) -> np.ndarray:
    """Per-observation omega_j = sigma_x + n_j^{-1} sigma_j, ridge-stabilized,
    for each matrix of a (B, p, p) stack sigma_x that is already PSD-projected
    (see psd_project); returns (B, n, p, p).

    The ridge OMEGA_RIDGE * trace(omega_j)/p keeps the inverses well-posed when
    sigma_x is degenerate; it is negligible for well-conditioned inputs.
    """
    p = sigma_x.shape[-1]
    omega = sigma_x[:, None, :, :] + sigma_j / np.asarray(n_rep, dtype=float)[:, None, None]
    diag = np.arange(p)
    omega[..., diag, diag] += (OMEGA_RIDGE * np.trace(omega, axis1=-2, axis2=-1) / p)[..., None]
    return omega
